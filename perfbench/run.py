#!/usr/bin/env python3
"""homaudit benchmark: one workload, timed or traced.

    python3 perfbench/run.py --workload cli|sweep|grid --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`. Untraced (`--trace 0`), the run sets up several times, then runs
whole rounds of operations while the next round still fits in S seconds,
checking every output, and prints the end-to-end metrics. Traced
(`--trace 1`), it runs the first round once untraced and once with
spans around every layer, and prints the per-layer metrics and the tracing
overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`--tiny` shrinks every input, for the smoke check. Operations and setup
are timed in CPU seconds (see `cpu_time`); in the timed run, each time is
rescaled to a reference speed of the machine, measured while it runs (see
speed.py). Only the `--seconds` budget is wall time.

Everything runs in this one process on one thread; generated files go to a
temporary directory under .perfbench/ in the checkout, traces to
.perfbench/traces/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "largest_op_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "sweep", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (smoke check)")
    return parser.parse_args(argv)


def import_program():
    """Import homaudit from this checkout's src/ and the workloads; refuse
    any other copy of the package."""
    src = ROOT / "src"
    if not (src / "homaudit" / "__init__.py").is_file():
        raise SystemExit(f"error: no homaudit sources under {src}")
    sys.path.insert(0, str(src))
    import homaudit
    if Path(homaudit.__file__).resolve().parent != (src / "homaudit").resolve():
        raise SystemExit(f"error: imported homaudit from {homaudit.__file__}, not {src}")
    import workloads
    return workloads


def cpu_time() -> float:
    """CPU seconds used by this process and by its children that have ended.

    Operations and setup are timed with this clock, not the wall clock. For
    this single-threaded, CPU-bound program the two agree on an idle machine,
    but on a shared virtual machine wall time also counts the time the host
    gave this CPU to someone else (steal), which varies from run to run.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed(speed, fn):
    """Run fn from a collected heap; return its outcome or exception, its
    CPU time less the kernel samples taken meanwhile, and its wall-clock
    interval."""
    gc.collect()
    spent, began = speed.spent_s, time.perf_counter()
    start = cpu_time()
    try:
        outcome = fn()
    except Exception as exc:  # the caller decides whether it is fatal
        outcome = exc
    elapsed = cpu_time() - start - (speed.spent_s - spent)
    return outcome, elapsed, (began, time.perf_counter())


class Runner:
    """Runs operations and keeps their times, wall intervals, classes and
    failures."""

    def __init__(self, speed, tracer=None):
        self.durations: list[float] = []
        self.walls: list[tuple[float, float]] = []
        self.classes: list[str] = []
        self.failures: list[str] = []
        self.speed = speed
        self.tracer = tracer

    def run_op(self, op) -> None:
        """Time one operation (traced, with a tracer), then check its outputs."""
        if self.tracer is not None:
            self.tracer.current_op = len(self.durations)
            self.tracer.install()
        error = None
        try:
            outcome, elapsed, wall = timed(self.speed, op.run)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        if isinstance(outcome, Exception):  # a failed operation is counted, not fatal
            error = f"{op.cls}: {type(outcome).__name__}: {outcome}"
        if error is None:
            try:
                error = op.check(outcome)
            except Exception as exc:
                error = f"{op.cls}: check raised {type(exc).__name__}: {exc}"
        self.durations.append(elapsed)
        self.walls.append(wall)
        self.classes.append(op.cls)
        if error is not None:
            self.failures.append(error)

    def run_rounds(self, rounds, seconds: float) -> None:
        """Whole rounds while the next one (if as long as the last) still
        ends within `seconds`; at least one."""
        start = time.perf_counter()
        last = done = 0
        for ops in rounds:
            if done and time.perf_counter() - start + last > seconds:
                break
            began = time.perf_counter()
            for op in ops:
                self.run_op(op)
            last = time.perf_counter() - began
            done += 1

    def busy_s(self) -> float:
        return sum(self.durations)

    def scaled(self) -> list[float]:
        """The durations in reference seconds (after the timed phase)."""
        return [d * self.speed.scale(*w) for d, w in zip(self.durations, self.walls)]

    def largest(self, cls: str) -> list[int]:
        return [i for i, c in enumerate(self.classes) if c == cls]


def setup(workloads, speed, args):
    """Set the workload up SETUP_REPEATS times; keep the last one. Returns
    it, its directory, and each setup's CPU time and wall interval."""
    OUT.mkdir(exist_ok=True)
    times, workload, tmp = [], None, None
    for _ in range(SETUP_REPEATS):
        if tmp is not None:
            shutil.rmtree(tmp)
        tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
        outcome, elapsed, wall = timed(speed, lambda: workload.setup(tmp))
        if isinstance(outcome, Exception):
            shutil.rmtree(tmp)
            raise outcome
        times.append((elapsed, wall))
    return workload, tmp, times


def timing_metrics(durations: list[float], runner: Runner, workload, setup_s: float) -> dict:
    ms = [d * 1000 for d in durations]
    deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else [ms[0]] * 9
    largest = [durations[i] for i in runner.largest(workload.largest)]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ms) / sum(durations),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": deciles[8],
        "largest_op_s": statistics.median(largest) if largest else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(workload, speed, args) -> tuple[dict, list[Runner]]:
    """Run each operation of the first round twice, untraced and traced,
    alternating which goes first, so both sides see the same machine."""
    from tracer import Tracer
    tracer = Tracer()
    plain, traced = Runner(speed), Runner(speed, tracer)
    ops = next(workload.rounds())
    for i, op in enumerate(ops):
        for runner in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            runner.run_op(op)
    largest = traced.largest(workload.largest)
    metrics = tracer.layer_metrics(largest, sum(traced.durations[i] for i in largest))
    metrics["trace.untraced_s"] = plain.busy_s()
    metrics["trace.traced_s"] = traced.busy_s()
    metrics["trace.overhead_ratio"] = traced.busy_s() / plain.busy_s() - 1
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / "traces" / f"{args.workload}-seed{args.seed}.npz")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    from speed import Speed
    speed = Speed()
    # The kernel samples only the timed run: in the traced run they would
    # land inside the spans.
    with contextlib.nullcontext() if args.trace else speed:
        workloads, import_s, import_wall = timed(speed, import_program)
        if isinstance(workloads, Exception):
            raise workloads
        workload, tmp, setups = setup(workloads, speed, args)
        try:
            if args.trace:
                from tracer import unit_of
                metrics, runners = traced_metrics(workload, speed, args)
                units = {name: unit_of(name) for name in metrics}
            else:
                runner = Runner(speed)
                runner.run_rounds(workload.rounds(), args.seconds)
                runners, units = [runner], UNITS
        finally:
            shutil.rmtree(tmp)
    if not args.trace:
        setup_s = import_s * speed.scale(*import_wall) + statistics.median(
            elapsed * speed.scale(*wall) for elapsed, wall in setups)
        metrics = timing_metrics(runner.scaled(), runner, workload, setup_s)
        cpu = timing_metrics(runner.durations, runner, workload, import_s + statistics.median(
            elapsed for elapsed, _ in setups))
        print("as measured, in CPU seconds: " + ", ".join(
            f"{name} {value:.6g}" for name, value in cpu.items() if name != "peak_rss_mb"))
        print(f"kernel: {len(speed.kernel_s)} samples, median {speed.median_s():.6g} s "
              f"(reference {speed.reference_s} s)")
    attempted = sum(len(r.durations) for r in runners)
    failures = [f for r in runners for f in r.failures]
    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"{args.workload}: attempted {attempted}, failed {len(failures)}, "
          f"error_rate {len(failures) / attempted} (ratio)")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
