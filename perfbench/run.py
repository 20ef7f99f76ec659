"""fatoulab benchmark: CLI workloads run as child processes, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop with one client: the next operation
starts only after the previous one has exited, and every child is
single-threaded.  A pass runs every operation of the workload once; passes
repeat while the next one still fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, in which every operation runs under
``trace_shim.py``, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced median pass time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  A wrong answer makes the exit code 1; an operation
that exits non-zero is counted in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from layers import METRICS as LAYER_METRICS
from layers import layer_metrics
from stats import median, rate, tail
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 11
OP_TIMEOUT_S = 60.0  # an operation takes under 10 s; a hung one is killed

# The unit costs of ROADMAP.md's baseline table, hand-measured on a shared
# 2-core machine.  The traced run prints its own figures beside them so that
# a large disagreement shows.  (The champagne figure was taken with 2
# bubbles; this benchmark uses 4.)
ROADMAP_COSTS = {
    "rng.ns_per_variate": 54.0,
    "harmonic.ns_per_walk_step.annulus": 113.0,
    "harmonic.ns_per_walk_step.champagne": 161.0,
    "renderer.ns_per_pixel_iteration.exp_baker": 74.0,
    "blaschke.us_per_scalar_eval": 75.0,
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("FATOULAB_THREADS", None)
    return env


@dataclass
class OpRun:
    name: str
    wall_s: float
    rss_mb: float
    exit_code: int
    summary: dict = field(default_factory=dict)


def run_child(cmd, out_dir: Path, env) -> tuple:
    """Run one child to completion: (wall seconds, max RSS in MB, exit code).

    ``os.wait4`` gives the child's own resource usage; RUSAGE_CHILDREN would
    be a running maximum over every child so far.
    """
    with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Runner:
    """Runs passes of one workload and keeps what they measured and checked."""

    def __init__(self, ops, workdir: Path):
        self.ops = ops
        self.workdir = workdir
        self.env = child_env()
        self.hashes = {}  # op name -> output file digests of its first run
        self.wrong = []  # descriptions of wrong answers
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # op name -> last stderr line of its first failure
        self.span_records = []

    def run_op(self, op, traced: bool) -> OpRun:
        op_dir = self.workdir / op.name
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir(parents=True)
        argv = list(op.argv) + ["--out-dir", str(op_dir), "--prefix", op.name]
        spans = self.workdir / f"{op.name}.spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "trace_shim.py"), str(spans), op.name, "--"] + argv
        else:
            cmd = [sys.executable, "-m", "fatoulab.cli"] + argv
        wall, rss, code = run_child(cmd, op_dir, self.env)
        self.attempted += 1
        result = OpRun(op.name, wall, rss, code)
        if traced and spans.exists():
            self.span_records.append(json.loads(spans.read_text()))
            spans.unlink()
        if code != 0:
            self.failed += 1
            lines = (op_dir / "stderr").read_text(errors="replace").strip().splitlines()
            self.failures.setdefault(op.name, f"exit {code}: {lines[-1] if lines else ''}")
            return result
        result.summary = json.loads((op_dir / f"{op.name}-summary.json").read_text())
        problem = op.check(result.summary)
        if problem:
            self.wrong.append(f"{op.name}: {problem}")
        self.check_repeatable(op, op_dir)
        return result

    def check_repeatable(self, op, op_dir: Path) -> None:
        manifest = json.loads((op_dir / f"{op.name}-manifest.json").read_text())
        digests = {}
        for name in manifest["outputs"]:
            path = op_dir / name
            if not path.exists():
                self.wrong.append(f"{op.name}: manifest lists missing output {name}")
                continue
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self.hashes.setdefault(op.name, digests)
        if digests != first:
            changed = sorted(k for k in set(first) | set(digests)
                             if first.get(k) != digests.get(k))
            self.wrong.append(f"{op.name}: outputs differ between runs with one seed: "
                              f"{changed}")

    def run_pass(self, traced: bool = False) -> list:
        return [self.run_op(op, traced) for op in self.ops]


def measure_setup(build, seed: int, workdir: Path) -> tuple:
    """Median time to generate the inputs and start a child that imports the CLI.

    This is what stands before the first operation can start: interpreter
    start, ``import fatoulab.cli`` and input generation.
    """
    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = build(seed, workdir)
        wall, _, code = run_child([sys.executable, "-c", "import fatoulab.cli"], workdir, env)
        times.append(time.perf_counter() - t0)
        if code != 0:
            err = (workdir / "stderr").read_text(errors="replace").strip()
            raise SystemExit(f"error: cannot import fatoulab.cli from {SRC}:\n{err}")
    return median(times), ops


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "git_sha": git_sha(),
        "seed": seed,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def package_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "unknown"


def git_sha() -> str:
    """HEAD of the checkout, read from its own .git only (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tallies(passes, ops) -> tuple:
    """Median work rate over passes, and answered / asked over the run."""
    by_name = {op.name: op for op in ops}
    rates, answered, asked = [], 0, 0
    for results in passes:
        work, work_s = 0, 0.0
        for r in results:
            tally = by_name[r.name].tally
            if tally is None or r.exit_code != 0:
                continue
            w, a, q = tally(r.summary)
            work += w
            work_s += r.wall_s
            answered += a
            asked += q
        rates.append(rate(work, work_s))
    return median(rates), rate(answered, asked)


def end_to_end(passes, ops, setup_s: float, report) -> dict:
    walls = [sum(r.wall_s for r in results) for results in passes]
    tail_s, tail_pct = tail(walls)
    work_per_s, completion = tallies(passes, ops)
    report(f"passes: {len(walls)}; pass wall times (s): "
           + ", ".join(f"{w:.3f}" for w in walls))
    report(f"wall_s.tail is percentile {tail_pct:.1f} of {len(walls)} passes")
    names = [op.name for op in ops]
    for name in names:
        op_walls = [r.wall_s for results in passes for r in results if r.name == name]
        op_rss = max(r.rss_mb for results in passes for r in results if r.name == name)
        report(f"  op {name:28s} median {median(op_walls):8.3f} s  max RSS {op_rss:7.1f} MB")
    return {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "wall_s.tail": tail_s,
        "peak_rss_mb": max(r.rss_mb for results in passes for r in results),
        "work_per_s": work_per_s,
        "completion": completion,
    }


E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s.tail": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "completion": "ratio",
}
WORK_UNIT = {"wos-harmonic": "walks_per_s", "baker-render": "pixels_per_s",
             "boundary-orbits": "orbit_points_per_s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fatoulab" / "cli.py").is_file():
        sys.stderr.write(f"error: no fatoulab sources at {SRC}; run from a source checkout\n")
        return 2

    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, workdir: Path) -> int:
    def report(line):
        print(line, flush=True)

    report("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    build = WORKLOADS[args.workload]
    setup_s, ops = measure_setup(build, args.seed, workdir)
    runner = Runner(ops, workdir)
    t_start = time.perf_counter()
    untraced, traced = [], []
    while True:
        t_round = time.perf_counter()
        untraced.append(runner.run_pass())
        if args.trace:
            traced.append(runner.run_pass(traced=True))
        now = time.perf_counter()
        if (now - t_start) + (now - t_round) > args.seconds:  # next round won't fit
            break

    metrics = end_to_end(untraced, ops, setup_s, report)
    report(f"{WORK_UNIT[args.workload]}: {metrics['work_per_s']:.6g} (work_per_s)")
    if args.trace:
        traced_walls = [sum(r.wall_s for r in results) for results in traced]
        overhead = median(traced_walls) - metrics["wall_s"]
        report(f"tracing overhead: {overhead:.4f} s per pass "
               f"(traced {median(traced_walls):.4f} s, untraced {metrics['wall_s']:.4f} s)")
        for name, value in metrics.items():
            report(f"  untraced {name} = {value:.6g} {E2E_UNITS[name]}")
        layer = layer_metrics(runner.span_records, len(traced), overhead)
        for name, value in layer.items():
            roadmap = ROADMAP_COSTS.get(name)
            note = ""
            if roadmap is not None and value:
                ratio = value / roadmap
                flag = "  <-- differs from the ROADMAP baseline by more than 2x" \
                    if not 0.5 <= ratio <= 2.0 else ""
                note = f"   (ROADMAP ~{roadmap:g}, ratio {ratio:.2f}){flag}"
            report(f"  {name} = {value:.6g} {LAYER_METRICS[name][0]}{note}")
        out_metrics = {name: {"value": value, "unit": LAYER_METRICS[name][0]}
                       for name, value in layer.items()}
    else:
        for name, value in metrics.items():
            report(f"  {name} = {value:.6g} {E2E_UNITS[name]}")
        out_metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                       for name, value in metrics.items()}

    report(f"ops attempted {runner.attempted}, failed {runner.failed}")
    for name, error in runner.failures.items():
        report(f"  failed op {name}: {error}")
    for problem in runner.wrong:
        report(f"  WRONG ANSWER {problem}")
    correct = not runner.wrong
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": out_metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
