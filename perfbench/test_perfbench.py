"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The statistics and span helpers run on synthetic data; the smoke test runs
every operation of every workload once, untraced and traced, at a tenth of
the benchmark's problem sizes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from layers import METRICS, layer_metrics
from run import SRC, Runner, child_env
from stats import rate, self_times, tail
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct = tail(range(1, 31))
    assert (value, pct) == (20, pytest.approx(200 / 3))
    assert tail(range(1, 21)) == (10, 50.0)


def test_tail_falls_back_to_maximum_below_twenty_samples():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail(range(19)) == (18, 100.0)


def test_rate_is_zero_without_a_base():
    assert rate(10, 4) == 2.5
    assert rate(10, 0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        [0, -1, "cli.main", 0.0, 10.0, None],
        [1, 0, "a", 1.0, 4.0, None],
        [2, 1, "b", 2.0, 3.0, None],
        [3, 0, "c", 5.0, 6.0, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _record(spans, import_s=0.1):
    return {"op": "x", "import_s": import_s, "spans": spans}


def test_layer_metrics_on_synthetic_spans():
    wos = {"kind": "annulus", "walks": 10, "stalled": 1}
    records = [
        _record([
            [0, -1, "cli.main", 0.0, 2.0, None],
            [1, 0, "harmonic.walk_on_spheres", 0.0, 1.0, wos],
            [2, 1, "harmonic.DomainOracle.distance", 0.0, 0.1, {"n": 1}],  # base point
            [3, 1, "harmonic.DomainOracle.distance", 0.1, 0.2, {"n": 10}],
            [4, 1, "rng.uniform01", 0.2, 0.3, {"n": 10}],
            [5, 1, "harmonic.DomainOracle.distance", 0.3, 0.4, {"n": 9}],
            [6, 0, "circle_dynamics.invariance_test", 1.0, 1.5, {"n": 100}],
            [7, 6, "rng.uniform01", 1.0, 1.1, {"n": 100}],
            [8, 6, "rng.uniform01", 1.1, 1.2, {"n": 3}],
            [9, 0, "blaschke.circle_eval_many", 1.5, 1.6, {"n": 1}],
            [10, 0, "blaschke.circle_eval_many", 1.6, 1.8, {"n": 1000}],
            [11, 0, "circle_dynamics.arc_spread", 1.8, 1.9, {"error": 1}],
        ]),
        _record([[0, -1, "cli.main", 0.0, 1.0, None]], import_s=0.3),
    ]
    m = layer_metrics(records, passes=2, overhead_s=0.25)
    assert list(m) == list(METRICS)
    assert m["harmonic.walk_steps"] == 19 / 2
    assert m["harmonic.ns_per_walk_step.annulus"] == pytest.approx(1e9 * 1.0 / 19)
    assert m["harmonic.ns_per_walk_step.champagne"] == 0.0
    assert m["harmonic.self_s"] == pytest.approx((1.0 - 0.3 - 0.1) / 2)
    assert m["harmonic.exit_ratio"] == 0.9
    assert m["rng.variates"] == 113 / 2
    assert m["circle_dynamics.redraw_ratio"] == pytest.approx(0.03)
    assert m["blaschke.us_per_scalar_eval"] == pytest.approx(1e5)
    assert m["blaschke.ns_per_vector_point"] == pytest.approx(2e5)
    assert m["circle_dynamics.arc_spread.ns_per_cell"] == 0.0  # failed call
    assert m["cli.import_s"] == pytest.approx(0.2)
    assert m["cli.self_s"] == pytest.approx((2.0 - 1.0 - 0.5 - 0.1 - 0.2 - 0.1 + 1.0) / 2)
    assert m["trace.overhead_s"] == 0.25


def test_shim_wraps_every_binding_site():
    probe = """
import sys, numpy as np
sys.path.insert(0, sys.argv[1])
import trace_shim
from fatoulab import blaschke, circle_dynamics, cli, covering, harmonic, histograms, rng
t = trace_shim.Tracer()
trace_shim.install(t)
traced = rng.uniform01
assert traced.__wrapped__ is not None
for mod in (harmonic, covering, circle_dynamics, cli):
    assert mod.uniform01 is traced, mod
assert harmonic.bin_angles is histograms.bin_angles
assert harmonic.pushforward_measure is covering.pushforward_measure
circle_dynamics._bl.circle_eval_many(blaschke.BlaschkeProduct.from_alpha(0.4), np.array([1.0]))
print(sorted({s[2] for s in t.spans}))
"""
    out = subprocess.run([sys.executable, "-c", probe, str(HERE)], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    names = json.loads(out.replace("'", '"'))
    assert "blaschke.circle_eval_many" in names
    assert "blaschke.required_terms" in names
    assert "blaschke.solve_tau" in names


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_op_once(workload, tmp_path):
    assert (SRC / "fatoulab").is_dir()
    ops = WORKLOADS[workload](1, tmp_path, scale=0.1)
    runner = Runner(ops, tmp_path)
    untraced = runner.run_pass()
    traced = runner.run_pass(traced=True)
    assert runner.wrong == []
    assert runner.attempted == 2 * len(ops)
    # the exclusion zone around +-1 stops the Blaschke arc spread at the
    # parent commit; it must show as a failed operation, not disappear
    failed = {r.name for r in untraced + traced if r.exit_code != 0}
    assert failed <= {"spread-blaschke"}
    assert runner.failed == 2 * len(failed)
    assert len(runner.span_records) == len(ops)
    assert all(r.wall_s > 0 and r.rss_mb > 0 for r in untraced + traced)
