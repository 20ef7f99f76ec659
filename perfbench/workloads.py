"""The benchmark's workloads: fatoulab CLI operations and their output checks.

A workload is a list of operations run in order, one child process each.  The
seed picks Monte-Carlo seeds and positions (bubble centres, the doubling-map
start angle, arc starts, probe angles); it never changes problem sizes,
alpha, the render grid or the Blaschke orbits' start angles, so two seeds
give comparable work.  Why each workload exists, and which
layer metrics should move it, is in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

TWO_PI = 2.0 * math.pi
ALPHA = 0.4
KS_SEEDS = (11, 12, 13, 14, 15)  # see boundary_orbits


@dataclass(frozen=True)
class Op:
    """One CLI operation.

    ``check(summary)`` returns a description of what is wrong with a
    successful run's summary, or None.  ``tally(summary)`` returns
    ``(work, answered, asked)``: work units done, for the workload's rate, and
    the share of requested output actually produced; None when the operation
    does not count towards them.
    """

    name: str
    argv: tuple
    check: Callable[[dict], Optional[str]]
    tally: Optional[Callable[[dict], tuple]] = None


def _scaled(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


def _within(value, target, tol, what):
    if abs(value - target) > tol:
        return f"{what} = {value!r}, expected {target!r} within {tol:.3g}"
    return None


# ---------------------------------------------------------------------------
# wos-harmonic


def _check_annulus_wos(s):
    p = s["closed_form_outer_mass"]
    sigma = math.sqrt(p * (1.0 - p) / s["walks"])
    # stalled walks carry no mass, so they may pull the estimate down
    return (_within(s["component_masses"][0], p, 5.0 * sigma + s["stalled"] / s["walks"],
                    "outer mass")
            or _within(sum(s["component_masses"]), 1.0 - s["stalled"] / s["walks"], 1e-12,
                       "total mass"))


def _check_champagne_wos(s):
    if not s["support_test"]["passed"]:
        return f"support test failed: {s['support_test']['deficient'][:3]}"
    return _within(sum(s["component_masses"]), 1.0 - s["stalled"] / s["walks"], 1e-12,
                   "total mass")


def _tally_wos(s):
    return s["walks"], s["walks"] - s["stalled"], s["walks"]


def _bubbles(rnd: random.Random) -> list:
    """Four disjoint bubbles of radius 0.1 around |z| = 0.5, at seed-drawn angles.

    Neighbouring centres are at least pi/2 - 0.4 apart in angle, a chord of
    0.55 > 0.2, and every bubble lies in 0.4 <= |z| <= 0.6.
    """
    base = rnd.uniform(0.0, TWO_PI)
    out = []
    for k in range(4):
        a = base + k * math.pi / 2.0 + rnd.uniform(-0.2, 0.2)
        out.append([0.5 * math.cos(a), 0.5 * math.sin(a), 0.1])
    return out


def wos_harmonic(seed: int, workdir: Path, scale: float = 1.0) -> list:
    rnd = random.Random(seed)
    common = ("harmonic", "--R", repr(math.e))
    big, small = _scaled(1_000_000, scale), _scaled(300_000, scale)
    return [
        Op("wos-annulus",
           common + ("--domain", "annulus", "--method", "wos", "--rho", "1.0",
                     "--walks", str(big), "--seed", str(rnd.randrange(2 ** 63))),
           _check_annulus_wos, _tally_wos),
        Op("wos-champagne",
           common + ("--domain", "champagne", "--method", "wos",
                     "--bubbles", json.dumps(_bubbles(rnd)), "--min-bin-mass", "1e-4",
                     "--walks", str(small), "--seed", str(rnd.randrange(2 ** 63))),
           _check_champagne_wos, _tally_wos),
        Op("cross-validate",
           common + ("--domain", "annulus", "--method", "cross-validate",
                     "--walks", str(small), "--seed", str(rnd.randrange(2 ** 63))),
           lambda s: None if s["passed"] else f"TV {s['tv_distance']} >= {s['threshold']}",
           lambda s: (s["walks"], s["walks"], s["walks"])),
        Op("pushforward",
           common + ("--domain", "annulus", "--method", "pushforward",
                     "--walks", str(big), "--seed", str(rnd.randrange(2 ** 63))),
           lambda s: _within(sum(s["component_masses"]), 1.0, 1e-12, "total mass")),
    ]


# ---------------------------------------------------------------------------
# baker-render


def _check_render(s):
    g = s["grid"]
    total = sum(s["verdict_counts"].values())
    if total != g["nx"] * g["ny"]:
        return f"verdict counts sum to {total}, grid has {g['nx'] * g['ny']} pixels"
    if "certificate" in s and not s["certificate"]["verdict"]:
        return f"loop certificate does not hold: {s['certificate']}"
    return None


def _tally_render(s):
    g = s["grid"]
    pixels = g["nx"] * g["ny"]
    return pixels, pixels - s["verdict_counts"]["undecided"], pixels


def baker_render(seed: int, workdir: Path, scale: float = 1.0) -> list:
    # no seed: the render grid is fixed and renders draw no random numbers
    def grid(name, n, width):
        path = workdir / f"grid-{name}.json"
        side = _scaled(n, math.sqrt(scale))
        path.write_text(json.dumps({"center": [0.0, 0.0], "width": width, "height": width,
                                    "nx": side, "ny": side, "max_iter": 500}))
        return str(path)

    def render(name, spec, config, *extra):
        return Op(name, ("render", "--map", json.dumps(spec), "--config", config,
                         "--threads", "1") + extra, _check_render, _tally_render)

    return [
        # the criterion-11 figure: 1000^2 pixels, max_iter 500, loop certificate
        render("exp_baker", {"kind": "exp_baker", "params": {"alpha": ALPHA}},
               grid("criterion11", 1000, 8.0), "--loop", "0,0,1.0"),
        render("sine_model", {"kind": "sine_model", "params": {"alpha": ALPHA}},
               grid("sine", 500, 8.0)),
        render("mcmullen", {"kind": "mcmullen", "params": {"m": 2, "l": 2, "c": [1e-4, 0.0]}},
               grid("mcmullen", 500, 4.0)),
    ]


# ---------------------------------------------------------------------------
# boundary-orbits


def _check_circle_stats(s):
    if s["invariance_ks"] >= s["ks_critical_1pct"]:
        return f"KS {s['invariance_ks']} >= critical {s['ks_critical_1pct']}"
    if s["orbit_points"] < s["n"] and "orbit_truncated" not in s:
        return "orbit is short but not reported as truncated"
    return None


def _check_spread(s):
    if not 0.0 < s["final_covered_fraction"] <= 1.0:
        return f"covered fraction {s['final_covered_fraction']} outside (0, 1]"
    if s["first_full_cover"] is not None and s["final_covered_fraction"] != 1.0:
        return "full cover reported with a partial final fraction"
    if s["map"]["kind"] == "power" and s["first_full_cover"] is None:
        return "the doubling map did not spread the arc over the circle"
    return None


def _off_singularities(rnd: random.Random, margin: float = 0.05) -> float:
    """Angle at least ``margin`` away from 0 and pi, where B is singular."""
    return rnd.uniform(margin, math.pi - margin) + rnd.choice((0.0, math.pi))


def boundary_orbits(seed: int, workdir: Path, scale: float = 1.0) -> list:
    rnd = random.Random(seed)
    n = _scaled(100_000, scale)
    blaschke = json.dumps({"kind": "blaschke", "alpha": ALPHA})
    power = json.dumps({"kind": "power", "d": 2})
    arc = repr(TWO_PI * 2.0 ** -10)
    ops = []
    for alpha in (0.1, 0.25, 0.4):
        ops.append(Op(f"tau-{alpha}", ("tau", "--alpha", repr(alpha)),
                      lambda s: None if s["residual"] <= 1e-12 else f"residual {s['residual']}"))
    for alpha in (0.1, 0.25, 0.4):
        ops.append(Op(f"blaschke-eval-{alpha}",
                      ("blaschke-eval", "--alpha", repr(alpha),
                       "--theta", repr(_off_singularities(rnd))),
                      lambda s: (_within(s["modulus"], 1.0, 1e-9, "|B|")
                                 or _within(s["derivative_at_zero"], 2.0 * s["alpha"], 1e-9,
                                            "B'(0)"))))

    def orbit(name, cmap, theta0, ks_seed):
        # the Kolmogorov-Smirnov check at the 1% level would reject a correct
        # map for 1% of Monte-Carlo seeds, so its seed is fixed (checked to
        # pass)
        return Op(name, ("circle-stats", "--map", cmap, "--n", str(n),
                         "--theta0", repr(theta0), "--seed", str(ks_seed)),
                  _check_circle_stats,
                  lambda s: (s["orbit_points"], s["orbit_points"], s["n"]))

    # A Blaschke orbit stops at the +-1 exclusion zone after a number of
    # steps that depends on its start angle, and each step costs ~75 us, so
    # seed-drawn start angles would change the work between seeds.  They are
    # fixed instead: pi/8 + k pi/2, two in each half of the circle.
    ops += [orbit(f"circle-stats-blaschke-{k}", blaschke, math.pi / 8 + k * math.pi / 2,
                  KS_SEEDS[k]) for k in range(4)]
    ops.append(orbit("circle-stats-power", power, _off_singularities(rnd), KS_SEEDS[4]))
    for name, cmap in (("spread-power", power), ("spread-blaschke", blaschke)):
        ops.append(Op(name, ("spread", "--map", cmap, "--n-max", "20",
                             "--arc", f"{_off_singularities(rnd)!r},{arc}"),
                      _check_spread))
    ops.append(Op("verify-semiconj",
                  ("verify-semiconj", "--alpha", repr(ALPHA), "--samples", str(n),
                   "--seed", str(rnd.randrange(2 ** 63))),
                  lambda s: None if s["passed"] else
                  f"scaled residual {s['max_scaled_residual']}"))
    return ops


WORKLOADS = {
    "wos-harmonic": wos_harmonic,
    "baker-render": baker_render,
    "boundary-orbits": boundary_orbits,
}
