"""Command-line front door.

Every run writes a JSON manifest naming its inputs, seed, and output files,
so any result can be reproduced byte-for-byte by re-running with the same
arguments.  Numeric JSON output uses Python's shortest round-trip float
representation, which preserves doubles exactly.

Exit codes: 0 success, 1 argument/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import BLASCHKE, __version__, _lazy_import
from .errors import FatouLabError, OutOfRange
from .rng import chunks, uniform01


# each command executes only the modules it uses: a process without cached
# bytecode would compile all of them at start-up.  They are registered at
# once all the same, so that code wrapping functions after import finds them
blaschke = _lazy_import(f"{__package__}.blaschke")
circle_dynamics = _lazy_import(f"{__package__}.circle_dynamics")
covering = _lazy_import(f"{__package__}.covering")
harmonic = _lazy_import(f"{__package__}.harmonic")
histograms = _lazy_import(f"{__package__}.histograms")
map_zoo = _lazy_import(f"{__package__}.map_zoo")
renderer = _lazy_import(f"{__package__}.renderer")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: Path, content):
    """Write bytes, or an iterable of bytes chunks as they arrive."""
    with open(path, "wb") as fh:
        fh.writelines((content,) if isinstance(content, bytes) else content)


def _require_finite(**numbers):
    """Refuse a non-finite float argument, alone or in a tuple, before any
    work is done; other values pass."""
    for name, value in numbers.items():
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise OutOfRange(f"{name} must be finite, got {value}")


def _module_defaults(args, module, *names):
    """Set each option of ``names`` left unset to ``module.DEFAULT_<NAME>``.
    Read here rather than by the parser, so that only the command that uses
    ``module`` executes it; the manifest records the value used, as it
    records a parser default."""
    for name in names:
        if getattr(args, name) is None:
            setattr(args, name, getattr(module, f"DEFAULT_{name.upper()}"))


def _make_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return int.from_bytes(os.urandom(8), "little")


def _out_dir(args) -> Path:
    d = Path(args.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _manifest(args, subcommand: str, seed, outputs) -> dict:
    arguments = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    return {
        "tool": "fatoulab",
        "version": __version__,
        "subcommand": subcommand,
        "arguments": arguments,
        "seed": seed,
        "outputs": sorted(outputs),
    }


def _finish(args, subcommand: str, seed, summary: dict, files: dict) -> int:
    """Write output files plus the manifest, and echo the summary.

    Each file's content is what ``_write`` takes: whole, or chunks.
    """
    out = _out_dir(args)
    prefix = args.prefix or subcommand
    written = []
    for suffix, content in files.items():
        path = out / f"{prefix}-{suffix}"
        _write(path, content)
        written.append(path.name)
    summary_path = out / f"{prefix}-summary.json"
    text = _json_text(summary)
    _write(summary_path, text.encode("ascii"))
    written.append(summary_path.name)
    man = _manifest(args, subcommand, seed, written + [f"{prefix}-manifest.json"])
    _write(out / f"{prefix}-manifest.json", _json_text(man).encode("ascii"))
    sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_tau(args) -> int:
    ts = blaschke.solve_tau(args.alpha, tol=args.tol)
    return _finish(args, "tau", None, asdict(ts), {})


def _cmd_verify_semiconj(args) -> int:
    if args.samples < 1:
        raise OutOfRange(f"samples must be >= 1, got {args.samples}")
    seed = _make_seed(args)
    f = map_zoo.exp_baker(args.alpha)
    F = map_zoo.sine_model(args.alpha)
    # max over fixed-size chunks of samples: the maximum is exact, so the
    # residuals do not depend on the chunk width, and memory stays bounded
    worst = worst_scaled = 0.0
    for lo, hi in chunks(0, args.samples):
        streams = np.arange(lo, hi, dtype=np.uint64)
        re = (2.0 * uniform01(seed, streams, 0) - 1.0) * math.pi
        im = (2.0 * uniform01(seed, streams, 1) - 1.0) * 3.0
        # |Im z| <= 3 keeps both exponentials far inside the exponent cap
        z = re + 1j * im
        lhs = map_zoo.evaluate_many(f, np.exp(1j * z))
        residual = np.abs(lhs - np.exp(1j * map_zoo.evaluate_many(F, z)))
        worst = np.max(residual, initial=worst)
        worst_scaled = np.max(residual / np.maximum(1.0, np.abs(lhs)),
                              initial=worst_scaled)
    summary = {
        "alpha": args.alpha, "samples": args.samples, "seed": seed,
        "max_residual": float(worst),
        "max_scaled_residual": float(worst_scaled),
        "passed": bool(worst_scaled < 1e-12),
    }
    return _finish(args, "verify-semiconj", seed, summary, {})


def _cmd_blaschke_eval(args) -> int:
    B = blaschke.BlaschkeProduct.from_alpha(args.alpha)
    # the disk evaluator at the float e^(i theta): the angle and the modulus
    # are those of one value
    val = blaschke.eval_blaschke(B, complex(np.exp(1j * args.theta)))
    summary = {
        "alpha": args.alpha, "theta": args.theta,
        "angle": float(np.angle(val) % blaschke.TWO_PI), "modulus": abs(val),
        "series_terms": B.theta.terms,
        "derivative_at_zero": blaschke.derivative_at_zero(B),
    }
    return _finish(args, "blaschke-eval", None, summary, {})


def _parse_bubbles(text: str):
    if os.path.exists(text):
        text = Path(text).read_text(encoding="ascii")
    data = json.loads(text)
    with map_zoo.malformed_json("bubble JSON"):
        return [(complex(map_zoo.real(b[0], "bubble cx"), map_zoo.real(b[1], "bubble cy")),
                 map_zoo.real(b[2], "bubble r")) for b in data]


def _harmonic_domain(args):
    if args.domain == "annulus":
        return harmonic.annulus(1.0 / args.R, args.R)
    if args.bubbles is None:
        raise OutOfRange("champagne domain requires --bubbles")
    return harmonic.champagne_disk(_parse_bubbles(args.bubbles))


def _cmd_harmonic(args) -> int:
    if args.min_bin_mass is not None and not args.min_bin_mass > 0:
        raise OutOfRange(f"min_bin_mass must be > 0, got {args.min_bin_mass}")
    if args.method == "closed-form":
        if args.domain != "annulus":
            raise OutOfRange("closed-form masses are available for the annulus only")
        p = harmonic.annulus_outer_mass(args.rho, 1.0 / args.R, args.R)
        summary = {"domain": "annulus", "R": args.R, "rho": args.rho,
                   "outer_mass": p, "inner_mass": 1.0 - p}
        return _finish(args, "harmonic", None, summary, {})

    seed = _make_seed(args)
    if args.method == "pushforward":
        if args.domain != "annulus":
            raise OutOfRange("the pushforward estimator applies to the annulus only")
        model = covering.annulus_model(args.R)
        hist = covering.pushforward_measure(model, args.walks, args.bins, seed)
        summary = {
            "domain": "annulus", "R": args.R, "method": "pushforward",
            "samples": args.walks, "seed": seed, "bins": args.bins,
            "component_masses": hist.component_masses(),
        }
        return _finish(args, "harmonic", seed, summary,
                       {"histogram.csv": histograms.to_csv_text(hist)})

    if args.method == "cross-validate":
        if args.domain != "annulus":
            raise OutOfRange("cross-validation applies to the annulus only")
        report = harmonic.cross_validate(covering.annulus_model(args.R), args.walks,
                                         seed, n_bins=args.bins)
        summary = dict(asdict(report), seed=seed, R=args.R)
        return _finish(args, "harmonic", seed, summary, {})

    # method == "wos"
    domain = _harmonic_domain(args)
    base = complex(args.rho, 0.0) if args.domain == "annulus" else complex(*args.base)
    result = harmonic.walk_on_spheres(domain, base, args.walks, seed=seed,
                                      n_bins=args.bins)
    summary = dict(result.summary(), domain=args.domain)
    if args.domain == "annulus":
        summary["R"] = args.R
        summary["closed_form_outer_mass"] = harmonic.annulus_outer_mass(
            abs(base), 1.0 / args.R, args.R)
    if args.min_bin_mass is not None:
        summary["support_test"] = asdict(harmonic.support_test(result, args.min_bin_mass))
    return _finish(args, "harmonic", seed, summary,
                   {"histogram.csv": histograms.to_csv_text(result.hist)})


def _cmd_classify_radial(args) -> int:
    _module_defaults(args, covering, "K", "eps_escape", "delta_bounded")
    if args.domain == "annulus":
        model = covering.annulus_model(args.R)
    elif args.domain == "disk":
        model = covering.disk_model()
    else:
        model = covering.punctured_disk_model()
    xi = complex(np.exp(1j * args.xi))
    rc = covering.radial_classify(model, xi, K=args.K,
                                  eps_escape=args.eps_escape,
                                  delta_bounded=args.delta_bounded)
    summary = dict(asdict(rc), domain=args.domain, xi_angle=args.xi)
    if args.domain == "annulus":
        summary["R"] = args.R
    return _finish(args, "classify-radial", None, summary, {})


def _circle_map(args) -> circle_dynamics.BoundaryMap:
    return circle_dynamics.circle_map_from_dict(json.loads(args.map))


def _cmd_circle_stats(args) -> int:
    # memory: the orbit, and one n-sized array at a time in the statistics
    # (16 B a point); everything else works in chunks
    if args.n < 1:
        raise OutOfRange(f"orbit length must be >= 1, got {args.n}")
    seed = _make_seed(args)
    cmap = _circle_map(args)
    if cmap.kind == BLASCHKE and blaschke.singular_angle(args.theta0):
        raise OutOfRange("the start angle is the Blaschke map's singularity at +1 "
                         "(0 mod 2 pi, or below ~1.1e-308 above it)")
    orbit = circle_dynamics.iterate(cmap, args.theta0, args.n)
    disc = circle_dynamics.discrepancy(orbit)
    summary = {
        "map": json.loads(args.map), "theta0": args.theta0, "n": args.n,
        "orbit_points": orbit.size, "seed": seed, "orbit_discrepancy": disc,
    }
    files = {"orbit.csv": histograms.csv_chunks("iteration,angle", 1, orbit)}
    if circle_dynamics.fixes_origin(cmap):
        ks = circle_dynamics.invariance_test(cmap, args.n, seed)
        summary["invariance_ks"] = ks
        summary["ks_critical_1pct"] = circle_dynamics.ks_critical(args.n)
        # one-step pushforward of the orbit as an arc histogram
        counts = sum(histograms.count_arcs(0, histograms.bin_angles(orbit[lo:hi], 64),
                                           (1, 64))
                     for lo, hi in chunks(0, orbit.size))
        files["pushforward.csv"] = histograms.to_csv_text(
            histograms.ArcHistogram(counts, orbit.size))
    return _finish(args, "circle-stats", seed, summary, files)


def _cmd_spread(args) -> int:
    _module_defaults(args, circle_dynamics, "grid")
    start, length = (float(x) for x in args.arc.split(","))
    cmap = _circle_map(args)
    report = circle_dynamics.arc_spread(cmap, (start, length), args.n_max,
                                        grid=args.grid)
    summary = {
        "map": json.loads(args.map), "arc": [start, length],
        "n_max": args.n_max, "grid": args.grid,
        "iterations": report.iterations,
        "first_full_cover": report.first_full_cover,
        "final_covered_fraction": report.covered_fraction[-1],
    }
    csv = histograms.csv_chunks("iteration,covered_fraction", 0, report.covered_fraction)
    return _finish(args, "spread", None, summary, {"spread.csv": csv})


def _cmd_render(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise OutOfRange(f"--threads must be >= 1, got {args.threads}")
    spec = map_zoo.spec_from_dict(json.loads(args.map))
    grid_spec = renderer.GridSpec.from_json(Path(args.config).read_text())
    grid = renderer.classify_grid(spec, grid_spec, threads=args.threads or 1)
    summary = {
        "map": json.loads(args.map), "grid": grid_spec.to_dict(),
        "verdict_counts": renderer.verdict_counts(grid),
    }
    if grid.attraction_radius is not None:
        summary["attraction_radius"] = grid.attraction_radius
    files = {"image.ppm": renderer.ppm_chunks(grid)}
    if args.loop:
        cx, cy, r = (float(x) for x in args.loop.split(","))
        cert = asdict(renderer.loop_probe(grid, complex(cx, cy), r))
        summary["certificate"] = cert
        files["certificate.json"] = _json_text(cert).encode("ascii")
    return _finish(args, "render", None, summary, files)


# ---------------------------------------------------------------------------
# Parser wiring


def _float_pair(text: str) -> tuple:
    x, y = (float(v) for v in text.split(","))
    return x, y


def _add_common(p):
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.add_argument("--prefix", default=None, help="output filename prefix")


def build_parser() -> _Parser:
    parser = _Parser(prog="fatoulab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("tau", parents=[], help="solve the multiplier equation for tau(alpha)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_common(p)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("verify-semiconj", help="max residual of the exp/sine semiconjugacy")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_semiconj)

    p = sub.add_parser("blaschke-eval", help="evaluate the boundary map of the Blaschke product")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_blaschke_eval)

    p = sub.add_parser("harmonic", help="harmonic-measure estimators")
    p.add_argument("--domain", choices=["annulus", "champagne"], required=True)
    p.add_argument("--method",
                   choices=["wos", "pushforward", "closed-form", "cross-validate"],
                   required=True)
    p.add_argument("--R", type=float, default=math.e)
    p.add_argument("--rho", type=float, default=1.0, help="base point modulus (annulus)")
    p.add_argument("--base", type=_float_pair, default=(0.0, 0.0),
                   help="base point re,im (champagne)")
    p.add_argument("--bubbles", default=None,
                   help="JSON list of [cx, cy, r] bubbles, inline or a file path")
    p.add_argument("--walks", type=int, default=100000)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--min-bin-mass", type=float, default=None, dest="min_bin_mass")
    _add_common(p)
    p.set_defaults(func=_cmd_harmonic)

    p = sub.add_parser("classify-radial", help="escaping/bounded/bungee radial verdict")
    p.add_argument("--domain", choices=["annulus", "disk", "punctured"],
                   default="annulus")
    p.add_argument("--R", type=float, default=math.e)
    p.add_argument("--xi", type=float, required=True, help="boundary angle in radians")
    # unset, these three and spread's --grid take their module's DEFAULT_*
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--eps-escape", type=float, default=None, dest="eps_escape")
    p.add_argument("--delta-bounded", type=float, default=None, dest="delta_bounded")
    _add_common(p)
    p.set_defaults(func=_cmd_classify_radial)

    p = sub.add_parser("circle-stats", help="orbit discrepancy and invariance statistics")
    p.add_argument("--map", required=True, help="circle map as JSON")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--theta0", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_circle_stats)

    p = sub.add_parser("spread", help="arc-spreading report for a circle map")
    p.add_argument("--map", required=True, help="circle map as JSON")
    p.add_argument("--arc", required=True, help="start,length in radians")
    p.add_argument("--n-max", type=int, default=100, dest="n_max")
    p.add_argument("--grid", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_spread)

    p = sub.add_parser("render", help="classify a dynamical plane and write a PPM")
    p.add_argument("--map", required=True, help="map spec as JSON")
    p.add_argument("--config", required=True, help="grid spec JSON file")
    p.add_argument("--loop", default=None, help="probe circle cx,cy,r")
    p.add_argument("--threads", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if getattr(args, "subcommand", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        _require_finite(**vars(args))
        return args.func(args)
    except (OutOfRange, _UsageError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (FatouLabError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
