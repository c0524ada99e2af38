"""floornav benchmark: one workload per process, one client, one call at a time.

    python3 perfbench/run.py --workload eval-faulty --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seconds 5        # every workload, metrics by name

Run from the root of a floornav checkout; the program is imported from its
`src/`. Inputs are generated from `--seed` into `.bench_work/` (removed at
exit). The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
measured with nothing wrapped; with `--trace 1` they are the per-layer ones,
from replaying the operations of a checked, untraced run of a third the length,
each once untraced and once traced (the difference is the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3  # set-up runs at least this often, and until it has taken SETUP_MIN_S
SETUP_MIN_S = 2.0
TAIL_BEYOND = 10  # the tail is the highest sample with at least this many above it
NAMES = ("eval-faulty", "navigate-llm", "extract-kb")

# What each workload's operation is called in reports; end-to-end metric names
# in BENCHMARK.json are shared by all workloads (op_ms.p50, ...).
OPERATION = {  # workload: (latency name, its unit, that unit in ms, rate name)
    "eval-faulty": ("eval.route_ms", "ms", 1.0, "eval.routes_per_s"),
    "navigate-llm": ("navigate.query_ms", "ms", 1.0, "navigate.queries_per_s"),
    "extract-kb": ("extract.building_s", "s", 1000.0, "extract.buildings_per_s"),
}


def import_program() -> None:
    package = ROOT / "src" / "floornav"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no floornav sources under {ROOT / 'src'}; "
                         "run from the root of a floornav checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import floornav

    if Path(floornav.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported floornav from {floornav.__file__}, not {package}")


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems


def run_ops(wl, outcome: Outcome, seconds: float) -> list[int]:
    """Closed loop: operation i+1 starts when operation i (and its check) is done.

    Runs until the operations' busy time reaches `seconds`. Checks run between
    operations and are not timed. Returns latencies in ns.
    """
    latencies: list[int] = []
    busy = 0
    i = 0
    while busy < seconds * 1e9:
        t0 = perf_counter_ns()
        try:
            output = wl.run(i)
        except Exception:  # a raising operation is a failed one; the run goes on
            dt = perf_counter_ns() - t0
            outcome.fail([f"op {i} raised:\n{traceback.format_exc()}"])
        else:
            dt = perf_counter_ns() - t0
            try:
                problems = wl.check(i, output)
            except Exception:
                problems = [f"op {i} check raised:\n{traceback.format_exc()}"]
            if problems:
                outcome.fail(problems)
        outcome.attempted += 1
        latencies.append(dt)
        busy += dt
        i += 1
    return latencies


def timed(wl, i: int) -> int:
    t0 = perf_counter_ns()
    wl.run(i)
    return perf_counter_ns() - t0


def run_checks(outcome: Outcome, problems: list[str]) -> None:
    """Run-level checks (store byte identity, replay): each failure is one failed operation."""
    for problem in problems:
        outcome.fail([problem])


def untraced(wl, seconds: float, outcome: Outcome) -> dict:
    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
        t0 = perf_counter_ns()
        wl.setup(len(setup_s))
        setup_s.append((perf_counter_ns() - t0) / 1e9)
    run_checks(outcome, wl.setup_problems())
    latencies = run_ops(wl, outcome, seconds=seconds)
    run_checks(outcome, wl.finish())
    ms = [v / 1e6 for v in latencies]
    tail_ms, tail_pct = tail(ms)
    p50 = statistics.median(ms)
    per_s = len(ms) / (sum(latencies) / 1e9)
    label, unit, in_ms, rate = OPERATION[wl.name]
    print(f"{label}.p50 = {p50 / in_ms:.4f} {unit}")
    print(f"{label}.tail = {tail_ms / in_ms:.4f} {unit} (p{tail_pct:.2f} of {len(ms)} samples, "
          f"{TAIL_BEYOND} beyond)")
    print(f"{rate} = {per_s:.4f} 1/s")
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_ms.p50": (p50, "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        "ops_per_s": (per_s, "1/s"),
    }


def traced(wl, seconds: float, outcome: Outcome) -> dict:
    from tracer import REQUIRED, REQUIRED_SETUP, Tracer, layer_metrics, missing_spans

    setup_trace = Tracer()
    setup_trace.install(wl.providers)
    try:
        wl.setup(0)
    finally:
        setup_trace.uninstall()
    run_checks(outcome, wl.setup_problems())
    ops = len(run_ops(wl, outcome, seconds=seconds / 3))

    # Replay each operation untraced, then traced, so host speed drift cancels
    # out of the overhead.
    t = Tracer()
    baseline, replay = [], []
    for i in range(ops):
        baseline.append(timed(wl, i))
        t.install(wl.providers)
        try:
            replay.append(timed(wl, i))
        finally:
            t.uninstall()
    missing = missing_spans(t, REQUIRED[wl.name]) + [
        f"setup:{name}" for name in missing_spans(setup_trace, REQUIRED_SETUP)]
    if missing:
        outcome.fail([f"coverage guard: no calls recorded for {', '.join(missing)}"])
    metrics = layer_metrics(t, ops, sum(replay), sum(baseline), setup_trace)
    print(f"traced {ops} operations; {t.import_sites} import sites wrapped")
    for name, (value, unit) in metrics.items():
        if name.endswith(".self_share") or name.startswith("trace."):
            print(f"{name} = {value:.4f} {unit}")
    return metrics


def run_workload(args) -> int:
    import_program()
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    outcome = Outcome()
    try:
        print(f"environment: {json.dumps(environment(), sort_keys=True)}")
        wl = WORKLOADS[args.workload](work, args.seed)
        measure = traced if args.trace else untraced
        metrics = measure(wl, args.seconds, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not args.trace:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print(f"error_rate = {outcome.failed / outcome.attempted:.4f} share "
              f"({outcome.failed} of {outcome.attempted})")
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every end-to-end metric by name."""
    correct = True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"[{name}] exited {done.returncode}")
            correct = False
            continue
        result = json.loads(lines[-1])
        correct &= result["correct"]
        print(f"[{name}] correct={str(result['correct']).lower()}")
        for line in lines[:-1]:
            print(f"  {line}")
        for metric in ("setup_s", "peak_rss_mb"):
            if metric in result["metrics"]:
                m = result["metrics"][metric]
                print(f"  {metric} = {m['value']:.4f} {m['unit']}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=NAMES)
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
