"""Traced child process: time calls into fatoulab's layers, then run the CLI.

    python3 perfbench/trace_shim.py SPANS_JSON OP_ID -- FATOULAB_ARGS...

The runner starts this in place of ``python -m fatoulab.cli`` for every
operation of a traced pass, so each operation still runs in its own process.
It times ``import fatoulab.cli``, replaces each traced function at every
place a caller binds it (``from .rng import uniform01`` copies the function
into the importing module, so wrapping ``rng.uniform01`` alone would miss
those calls), runs ``fatoulab.cli.main`` with the given arguments, and at exit
writes the spans it kept in memory.  The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Tracer:
    """Spans kept in memory as ``[id, parent, name, t0, t1, attrs]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(args, kwargs, result)``
        returns the span's attributes (work done) after a successful call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1], name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = {"error": 1}
                raise
            finally:
                span[3], span[4] = t0, clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, out)
            return out

        return traced


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _targets():
    """(module, attribute, count) for every traced function.

    ``count`` records the work a call did, so per-layer costs can be
    normalised where the work happens.
    """
    import numpy as np

    from fatoulab import circle_dynamics

    size = np.size
    return [
        ("rng", "uniform01", lambda a, k, out: {"n": int(size(out))}),
        ("harmonic", "DomainOracle.distance",
         lambda a, k, out: {"n": int(size(a[1]))}),
        ("harmonic", "walk_on_spheres",
         lambda a, k, out: {"kind": a[0].kind, "walks": out.walks,
                            "stalled": out.stalled}),
        ("covering", "pushforward_measure",
         lambda a, k, out: {"n": int(_arg(a, k, 1, "n_samples"))}),
        ("histograms", "bin_angles", lambda a, k, out: {"n": int(size(a[0]))}),
        ("histograms", "to_csv_text", None),
        ("renderer", "classify_grid",
         lambda a, k, out: {"kind": a[0].kind, "pixels": int(out.verdict.size),
                            "iterations": int(out.steps.sum(dtype=np.int64)),
                            "undecided": int((out.verdict == 0).sum())}),
        ("renderer", "render_rgb", None),
        ("renderer", "loop_probe", None),
        ("blaschke", "solve_tau", None),
        ("blaschke", "circle_eval_many", lambda a, k, out: {"n": int(size(a[1]))}),
        ("blaschke", "required_terms",
         lambda a, k, out: {"n": int(size(a[1])), "terms": int(np.sum(out))}),
        ("circle_dynamics", "apply_map",
         lambda a, k, out: {"n": int(size(a[1])), "scalar": int(np.ndim(a[1]) == 0)}),
        ("circle_dynamics", "arc_spread",
         lambda a, k, out: {"cells": len(out.covered_fraction) * int(
             _arg(a, k, 4, "n_cells", circle_dynamics.DEFAULT_CELLS))}),
        ("circle_dynamics", "discrepancy", lambda a, k, out: {"n": int(size(a[0]))}),
        ("circle_dynamics", "invariance_test",
         lambda a, k, out: {"n": int(_arg(a, k, 1, "n_samples"))}),
        ("map_zoo", "evaluate", None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a fatoulab module binds it."""
    modules = [m for name, m in sys.modules.items()
               if name == "fatoulab" or name.startswith("fatoulab.")]
    for module_name, attr, count in _targets():
        owner = importlib.import_module(f"fatoulab.{module_name}")
        name = f"{module_name}.{attr}"
        if "." in attr:  # a method: wrap it on its class
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), count))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 1
    spans_path, op_id, cli_argv = argv[0], argv[1], argv[3:]
    t0 = time.perf_counter()
    import fatoulab.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(cli_argv)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"op": op_id, "import_s": import_s, "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
