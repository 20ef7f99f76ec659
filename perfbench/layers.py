"""Per-layer metrics from the spans of a traced run.

Each traced operation leaves one record ``{"op", "import_s", "spans"}``
written by ``trace_shim.py``.  Unit costs use a span's whole duration (what a
caller of that function pays); ``*_s`` metrics use self time, the duration
minus the traced calls made inside it.  Counts and ``*_s`` metrics are per
pass; a layer that did no work on a workload reports 0.
"""

from __future__ import annotations

from collections import defaultdict

from stats import rate, self_times

WOS = "harmonic.walk_on_spheres"
DISTANCE = "harmonic.DomainOracle.distance"
UNIFORM = "rng.uniform01"
INVARIANCE = "circle_dynamics.invariance_test"

KERNELS = ("exp_baker", "sine_model", "mcmullen")
DOMAINS = {"annulus": "annulus", "champagne_disk": "champagne"}

# name -> (unit, better); the order is the order of the report
METRICS = {
    "rng.variates": ("count/pass", "lower"),
    "rng.ns_per_variate": ("ns/variate", "lower"),
    "harmonic.walk_steps": ("count/pass", "lower"),
    "harmonic.ns_per_walk_step.annulus": ("ns/step", "lower"),
    "harmonic.ns_per_walk_step.champagne": ("ns/step", "lower"),
    "harmonic.distance.ns_per_point": ("ns/point", "lower"),
    "harmonic.self_s": ("s/pass", "lower"),
    "harmonic.exit_ratio": ("ratio", "higher"),
    "covering.pushforward.ns_per_sample": ("ns/sample", "lower"),
    "histograms.ns_per_binned_angle": ("ns/angle", "lower"),
    "histograms.csv_s": ("s/pass", "lower"),
    "renderer.pixel_iterations": ("count/pass", "lower"),
    **{f"renderer.ns_per_pixel_iteration.{k}": ("ns/iteration", "lower")
       for k in KERNELS},
    "renderer.decided_fraction": ("ratio", "higher"),
    "renderer.render_rgb_s": ("s/pass", "lower"),
    "renderer.loop_probe_s": ("s/pass", "lower"),
    "blaschke.solve_tau_ms": ("ms/call", "lower"),
    "blaschke.us_per_scalar_eval": ("us/call", "lower"),
    "blaschke.ns_per_vector_point": ("ns/point", "lower"),
    "blaschke.terms_per_point": ("terms/point", "lower"),
    "circle_dynamics.apply_map.us_per_call": ("us/call", "lower"),
    "circle_dynamics.arc_spread.ns_per_cell": ("ns/cell", "lower"),
    "circle_dynamics.discrepancy.ns_per_point": ("ns/point", "lower"),
    "circle_dynamics.redraw_ratio": ("ratio", "lower"),
    "map_zoo.evaluate.calls": ("count/pass", "lower"),
    "map_zoo.evaluate.ns_per_call": ("ns/call", "lower"),
    "cli.import_s": ("s/op", "lower"),
    "cli.self_s": ("s/pass", "lower"),
    "trace.overhead_s": ("s/pass", "lower"),
}


class _Layer:
    """Running totals of one traced function: calls, time, self time, attrs."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.totals = defaultdict(float)

    def add(self, seconds, self_seconds, attrs):
        self.calls += 1
        self.seconds += seconds
        self.self_seconds += self_seconds
        for key, value in attrs.items():
            if not isinstance(value, str):
                self.totals[key] += value


def layer_metrics(records, passes: int, overhead_s: float) -> dict:
    """Every metric of ``METRICS`` from the records of ``passes`` traced passes."""
    layers = defaultdict(_Layer)
    steps = defaultdict(int)  # walk steps by domain kind
    invariance_draws = 0
    import_s = 0.0
    for rec in records:
        spans = rec["spans"]
        import_s += rec["import_s"]
        selfs = self_times(spans)
        for span, self_s in zip(spans, selfs):
            _, parent, name, t0, t1, attrs = span
            attrs = attrs or {}
            if attrs.get("error"):
                # a failed call did no countable work: keep it out of its
                # layer's totals
                continue
            key = name
            if name == WOS:
                key = f"{WOS}.{attrs['kind']}"
            elif name == "renderer.classify_grid":
                key = f"{name}.{attrs['kind']}"
            elif name == "circle_dynamics.apply_map" and attrs["scalar"]:
                key = f"{name}.scalar"
            elif name == "blaschke.circle_eval_many":
                key = f"{name}.{'scalar' if attrs['n'] == 1 else 'vector'}"
            layers[key].add(t1 - t0, self_s, attrs)
            caller, caller_attrs = (spans[parent][2], spans[parent][5] or {}) \
                if parent >= 0 else (None, {})
            if name == DISTANCE and caller == WOS and "kind" in caller_attrs:
                # every point a walk hands to the distance oracle is one
                # walk-step, except the single base-point check per call
                steps[caller_attrs["kind"]] += attrs["n"]
            elif name == WOS:
                steps[attrs["kind"]] -= 1
            elif name == UNIFORM and caller == INVARIANCE:
                invariance_draws += attrs["n"]

    def cost(key, scale, unit="n"):
        """Seconds per unit of work (per call for unit None), times scale."""
        layer = layers[key]
        return scale * rate(layer.seconds, layer.calls if unit is None else layer.totals[unit])

    wos = [layers[f"{WOS}.{kind}"] for kind in DOMAINS]
    grids = [layers[f"renderer.classify_grid.{k}"] for k in KERNELS]
    walks = sum(w.totals["walks"] for w in wos)
    pixels = sum(g.totals["pixels"] for g in grids)
    samples = layers[INVARIANCE].totals["n"]
    ns, us, ms = 1e9, 1e6, 1e3

    out = {
        "rng.variates": layers[UNIFORM].totals["n"] / passes,
        "rng.ns_per_variate": cost(UNIFORM, ns),
        "harmonic.walk_steps": sum(steps.values()) / passes,
        **{f"harmonic.ns_per_walk_step.{label}": ns * rate(layers[f"{WOS}.{kind}"].seconds,
                                                           steps[kind])
           for kind, label in DOMAINS.items()},
        "harmonic.distance.ns_per_point": cost(DISTANCE, ns),
        "harmonic.self_s": sum(w.self_seconds for w in wos) / passes,
        "harmonic.exit_ratio": rate(walks - sum(w.totals["stalled"] for w in wos), walks),
        "covering.pushforward.ns_per_sample": cost("covering.pushforward_measure", ns),
        "histograms.ns_per_binned_angle": cost("histograms.bin_angles", ns),
        "histograms.csv_s": layers["histograms.to_csv_text"].seconds / passes,
        "renderer.pixel_iterations": sum(g.totals["iterations"] for g in grids) / passes,
        **{f"renderer.ns_per_pixel_iteration.{k}": cost(f"renderer.classify_grid.{k}", ns,
                                                        "iterations")
           for k in KERNELS},
        "renderer.decided_fraction": rate(pixels - sum(g.totals["undecided"] for g in grids),
                                          pixels),
        "renderer.render_rgb_s": layers["renderer.render_rgb"].seconds / passes,
        "renderer.loop_probe_s": layers["renderer.loop_probe"].seconds / passes,
        "blaschke.solve_tau_ms": cost("blaschke.solve_tau", ms, None),
        "blaschke.us_per_scalar_eval": cost("blaschke.circle_eval_many.scalar", us, None),
        "blaschke.ns_per_vector_point": cost("blaschke.circle_eval_many.vector", ns),
        "blaschke.terms_per_point": rate(layers["blaschke.required_terms"].totals["terms"],
                                         layers["blaschke.required_terms"].totals["n"]),
        "circle_dynamics.apply_map.us_per_call": cost("circle_dynamics.apply_map.scalar",
                                                      us, None),
        # self time: the cover count, without the map applications inside
        "circle_dynamics.arc_spread.ns_per_cell": ns * rate(
            layers["circle_dynamics.arc_spread"].self_seconds,
            layers["circle_dynamics.arc_spread"].totals["cells"]),
        "circle_dynamics.discrepancy.ns_per_point": cost("circle_dynamics.discrepancy", ns),
        "circle_dynamics.redraw_ratio": rate(invariance_draws - samples, samples),
        "map_zoo.evaluate.calls": layers["map_zoo.evaluate"].calls / passes,
        "map_zoo.evaluate.ns_per_call": cost("map_zoo.evaluate", ns, None),
        "cli.import_s": rate(import_s, len(records)),
        "cli.self_s": layers["cli.main"].self_seconds / passes,
        "trace.overhead_s": overhead_s,
    }
    return out
