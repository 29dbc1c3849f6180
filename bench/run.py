"""vesprod benchmark.

    python3 bench/run.py --workload {analyze,verify,fit,cli} --seed N --seconds S --trace {0,1}

Run from a checkout of the repository: the library is imported from
``src/``, nothing needs installing.  Each workload is one closed-loop
caller issuing one operation at a time, for S seconds, on inputs made
from the seed.  Every operation's output is checked against the
references in ``bench/reference.py``; failures are counted by exception
type.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` wraps
the library's public functions in spans and reports per-layer metrics
(see ``bench/README.md``).  A human-readable table goes to stdout, the
full record to ``.bench_results/BENCH_<workload>_seed<N>_trace<T>.json``,
and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from reference import Mismatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

#: setup (input generation and warm-up) runs this often; setup_s takes the median
SETUP_REPEATS = 3
#: share of a traced run spent traced; the rest replays the same operations untraced
TRACE_SHARE = 0.6
#: stop starting traced operations beyond this many spans (about 14 MB, and
#: about 5 times that while they are summarised)
SPAN_CAP = 500_000
#: fresh interpreters per cold-start measurement, and cli commands sampled
COLD_REPEATS = 5
#: fit operations traced in every traced run of a workload that parses no data
ESTIMATION_SAMPLE = 2
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: printed and recorded, but not in the result line: it is 0 on a healthy
#: run, and the result line carries the same count as attempted / failed
ERROR_RATE_UNIT = "ratio"

PER_LAYER = {
    "families.calls": "calls/op",
    "families.self_ms": "ms/op",
    "families.us_per_call": "us",
    "families.raised": "count/op",
    "substitution.calls": "calls/op",
    "substitution.self_ms": "ms/op",
    "substitution.validity_range_ms": "ms",
    "substitution.classify_regime_ms": "ms",
    "substitution.constraint_checks": "count/op",
    "substitution.valid_point_ratio": "ratio",
    "substitution.raised": "count/op",
    "oracles.calls": "calls/op",
    "oracles.self_ms": "ms/op",
    "oracles.verify_family_ms": "ms",
    "oracles.ode_ms": "ms",
    "oracles.kernel_calls_per_point": "calls/point",
    "estimation.load_dataset_ms": "ms",
    "estimation.rows_per_s": "rows/s",
    "estimation.fit_loglinear_ms": "ms",
    "estimation.diagnose_fit_ms": "ms",
    "estimation.bytes_in": "bytes/op",
    "import.bare_python_ms": "ms",
    "import.numpy_ms": "ms",
    "import.vesprod_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.main_ms": "ms",
    "cli.child_cpu_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Per-operation input index, wall and CPU times, and failures by
    exception type."""

    def __init__(self, workload, cpu_clock) -> None:
        self.workload = workload
        self.cpu_clock = cpu_clock
        self.input: list[int] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.failures: dict[str, dict] = {}

    @property
    def attempted(self) -> int:
        return len(self.wall)

    def op(self, item, index: int) -> float:
        """Run, time and check one operation on input ``index``; return its
        wall time."""
        wl, cpu_clock = self.workload, self.cpu_clock
        error = key = None
        c0 = cpu_clock()
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception as exc:   # any failure of the operation is counted, not raised
            error, key = exc, type(exc).__name__
        t1 = time.perf_counter()
        c1 = cpu_clock()
        if error is None:
            try:
                wl.check(item, out)
            except Mismatch as exc:
                error, key = exc, "Mismatch"
            except Exception as exc:   # a check tripped by malformed output
                error, key = exc, f"{type(exc).__name__} in check"
        if error is not None:
            entry = self.failures.setdefault(key, {"count": 0, "example": None})
            entry["count"] += 1
            if entry["example"] is None:
                entry["example"] = f"{error} | input: {_short(item)}"
        self.input.append(index)
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        return t1 - t0

    def best(self, times: list[float]) -> list[float]:
        """Each input's fastest time over its repeats."""
        best: dict[int, float] = {}
        for index, t in zip(self.input, times):
            best[index] = min(t, best.get(index, t))
        return list(best.values())


def _short(item) -> str:
    text = repr(item)
    return text if len(text) <= 600 else text[:600] + "..."


def cold_start_metrics(seed: int, work_dir: Path) -> tuple[dict, Tally]:
    """What a shell user pays per command, from fresh interpreters: bare
    start-up, numpy and vesprod imports timed inside a child, and
    COLD_REPEATS seeded cli commands, each run untraced (wall and CPU time)
    and then traced (time inside cli.main).  Returns the metrics and the
    tally of the checked cli commands."""
    import workloads
    env = workloads.child_env(ROOT)
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "import vesprod; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)")
    bare, numpy_s, vesprod_s = [], [], []
    for _ in range(COLD_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout.split()
        numpy_s.append(float(out[0]))
        vesprod_s.append(float(out[1]))

    cli = workloads.Cli(ROOT, seed, work_dir)
    commands = cli.generate()[:COLD_REPEATS]
    tally = Tally(cli, lambda: workloads.child_rusage()[0])
    for traced in (False, True):
        cli.traced = traced
        for index, item in enumerate(commands):
            tally.op(item, index)
    n = len(commands)
    return {
        "import.bare_python_ms": 1000.0 * statistics.median(bare),
        "import.numpy_ms": 1000.0 * statistics.median(numpy_s),
        "import.vesprod_ms": 1000.0 * statistics.median(vesprod_s),
        "cli.startup_ms": 1000.0 * statistics.fmean(
            wall - main for wall, main in zip(tally.wall[:n], cli.main_s)),
        "cli.main_ms": 1000.0 * statistics.fmean(cli.main_s),
        "cli.child_cpu_ms": 1000.0 * statistics.fmean(tally.cpu[:n]),
    }, tally


def estimation_sample_metrics(seed: int) -> tuple[dict, Tally]:
    """The estimation.* metrics from ESTIMATION_SAMPLE traced fit operations
    (parse a 10 000-row CSV, both OLS fits, diagnostics, calibration), so the
    layer is measured by every traced run.  Returns them and the tally of
    the checked operations."""
    import workloads
    from tracer import Tracer
    fit = workloads.Fit(ROOT, seed)
    items = fit.generate()[:ESTIMATION_SAMPLE]
    tally = Tally(fit, time.process_time)
    tracer = Tracer()
    tracer.install()
    try:
        for index, item in enumerate(items):
            tracer.op_id = index
            tally.op(item, index)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.summary())
    return {name: value for name, value in metrics.items()
            if name.startswith("estimation.")}, tally


def layer_metrics(s: dict) -> dict:
    """Per-layer metrics from a (summed) trace summary."""
    ops = max(s["ops"], 1)
    calls, self_s, raised = s["layer_calls"], s["layer_self_s"], s["layer_raised"]
    fn_calls, fn_s, counters = s["fn_calls"], s["fn_incl_s"], s["counters"]

    def per_call_ms(fn: str) -> float:
        n = fn_calls.get(fn, 0)
        return 1000.0 * fn_s.get(fn, 0.0) / n if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for layer in ("families", "substitution", "oracles"):
        m[f"{layer}.calls"] = calls[layer] / ops
        m[f"{layer}.self_ms"] = 1000.0 * self_s[layer] / ops
    m["families.us_per_call"] = 1e6 * ratio(self_s["families"], calls["families"])
    m["families.raised"] = raised["families"] / ops
    m["substitution.validity_range_ms"] = per_call_ms("validity_range")
    m["substitution.classify_regime_ms"] = per_call_ms("classify_regime")
    checks = counters.get("constraint_checks", 0)
    m["substitution.constraint_checks"] = checks / ops
    m["substitution.valid_point_ratio"] = ratio(counters.get("valid_checks", 0), checks)
    m["substitution.raised"] = raised["substitution"] / ops
    m["oracles.verify_family_ms"] = per_call_ms("verify_family")
    m["oracles.ode_ms"] = per_call_ms("ode_integrate_theorem")
    m["oracles.kernel_calls_per_point"] = ratio(counters.get("verify_kernel_calls", 0),
                                                counters.get("verify_points", 0))
    m["estimation.load_dataset_ms"] = per_call_ms("load_dataset")
    m["estimation.rows_per_s"] = ratio(counters.get("rows", 0), fn_s.get("load_dataset", 0.0))
    m["estimation.fit_loglinear_ms"] = per_call_ms("fit_loglinear")
    m["estimation.diagnose_fit_ms"] = per_call_ms("diagnose_fit")
    m["estimation.bytes_in"] = counters.get("bytes_in", 0) / ops
    return m


def _loop(tally: Tally, items: list, until: float, before=None) -> list[float]:
    """Run operations on items[0], items[1], ... (cyclically), at least one,
    until the clock passes ``until`` or ``before(i)`` is false; return their
    wall times."""
    walls: list[float] = []
    while not walls or time.perf_counter() < until:
        if before is not None and not before(len(walls)):
            break
        index = len(walls) % len(items)
        walls.append(tally.op(items[index], index))
    return walls


def _traced_metrics(tally: Tally, items: list, until_traced: float, until: float) -> dict:
    """Per-layer metrics: run traced until ``until_traced``, then run the same
    operations again untraced until ``until``; the overhead compares the
    operations that ran both ways."""
    from tracer import Tracer, merge
    wl = tally.workload
    tracer = Tracer()
    tracer.install()
    wl.traced = True

    def trace_more(i: int) -> bool:
        tracer.op_id = i
        return len(tracer) < SPAN_CAP

    try:
        traced = _loop(tally, items, until_traced, before=trace_more)
    finally:
        tracer.uninstall()
        wl.traced = False
    summary = tracer.summary()
    if wl.in_child:
        summary = merge(summary, wl.trace_summary)
    replay = _loop(tally, items, until)
    n = min(len(traced), len(replay))
    metrics = layer_metrics(summary)
    metrics["trace.overhead_ratio"] = sum(traced[:n]) / sum(replay[:n])
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    import numpy as np
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        wl = workloads.make(workload, ROOT, seed, Path(tmp))
        extra: list[Tally] = []   # checked operations of the layer samples
        if trace:
            sample_metrics, cold = cold_start_metrics(seed, Path(tmp) / "cold")
            extra.append(cold)
            if workload != "fit":
                estimation, sample = estimation_sample_metrics(seed)
                sample_metrics.update(estimation)
                extra.append(sample)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            items = wl.generate()
            wl.warm_up(items)
            setup_times.append(time.perf_counter() - t0)
        cpu_clock = (lambda: workloads.child_rusage()[0]) if wl.in_child else time.process_time
        tally = Tally(wl, cpu_clock)
        start = time.perf_counter()
        if trace:
            metrics = _traced_metrics(tally, items, start + TRACE_SHARE * seconds,
                                      start + seconds)
            metrics.update(sample_metrics)
            metrics = {name: metrics[name] for name in PER_LAYER}
        else:
            _loop(tally, items, start + seconds)
        elapsed = time.perf_counter() - start
        digest = wl.digest(items)

    attempted, failures = tally.attempted, dict(tally.failures)
    for other in extra:
        attempted += other.attempted
        for key, entry in other.failures.items():
            failures[key] = {"count": failures.get(key, {"count": 0})["count"] + entry["count"],
                             "example": failures.get(key, entry)["example"]}
    failed = sum(entry["count"] for entry in failures.values())
    succeeded = 1.0 - failed / attempted
    every_op = {
        "throughput_ops_per_s": succeeded * tally.attempted / sum(tally.wall),
        "latency_p50_ms": 1000.0 * float(np.percentile(tally.wall, 50)),
        "latency_p90_ms": 1000.0 * float(np.percentile(tally.wall, 90)),
        "cpu_ms_per_op": 1000.0 * statistics.fmean(tally.cpu),
    }
    best_wall = tally.best(tally.wall)
    repeats = Counter(tally.input)
    if not trace:
        if wl.in_child:
            peak_mb = workloads.child_rusage()[1]
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "throughput_ops_per_s": succeeded / statistics.fmean(best_wall),
            "latency_p50_ms": 1000.0 * float(np.percentile(best_wall, 50)),
            "latency_p90_ms": 1000.0 * float(np.percentile(best_wall, 90)),
            "cpu_ms_per_op": 1000.0 * statistics.fmean(tally.best(tally.cpu)),
            "peak_rss_mb": peak_mb,
            "setup_s": import_s + statistics.median(setup_times),
        }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "inputs_timed": len(best_wall),
        "repeats_per_input": [min(repeats.values()), max(repeats.values())],
        "every_op": every_op,
        "elapsed_s": elapsed,
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "input_sha256": digest,
        "pool_size": len(items),
        "setup_redraws": wl.redraws,
        "metrics": metrics,
    }


def environment() -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "vesprod").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "python_implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def _print_table(result: dict) -> None:
    units = PER_LAYER if result["trace"] else END_TO_END
    print(f"vesprod benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    low, high = result["repeats_per_input"]
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed "
          f"(one closed-loop caller); {result['inputs_timed']} inputs of a pool of "
          f"{result['pool_size']}, each run {low} to {high} times")
    if not result["trace"]:
        print("  timings are each input's fastest repeat; over every operation: " + ", ".join(
            f"{name} {value:.6g}" for name, value in result["every_op"].items()))
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':34s} {result['error_rate']:14.6g} {ERROR_RATE_UNIT}")
    for kind, entry in result["failures"].items():
        print(f"  failure {kind}: {entry['count']} (first: {entry['example']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["analyze", "verify", "fit", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "vesprod" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'vesprod'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import vesprod
    import_s = time.perf_counter() - t0
    if Path(vesprod.__file__).resolve().parent != (SRC / "vesprod").resolve():
        print(f"error: imported vesprod from {vesprod.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    result["environment"] = environment()
    result["environment"]["loadavg_start"] = load_start
    result["environment"]["loadavg_end"] = os.getloadavg()

    _print_table(result)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"  results: {out.relative_to(ROOT)}")
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
