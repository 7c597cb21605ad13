"""Pipeline benchmark: end-to-end and per-layer numbers of three workloads.

Run from the repository root::

    python3 pipebench/run.py --workload stream-lits --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` times closed-loop passes with tracing off and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer ledger (the traced passes patch layer spans
around the engine's public calls and run under a live
``repro.obs.MetricsRegistry``). Either way the run ends with the output
checks, prints every metric by name with its unit, writes a ledger JSON
(and, traced, a Chrome trace) under ``pipebench/_out/``, and prints one
JSON result object as its last line. ``--workload all`` runs each
workload in its own process. See ``pipebench/README.md``.
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
import time
import traceback
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / "_work"
OUT = BENCH_DIR / "_out"
WORKLOADS = ("stream-lits", "stream-tabular-ckpt", "fleet-lits")
#: one BLAS thread: the replicate GEMMs are small, and a 2-core machine
#: shared with the interpreter is steadier without BLAS worker threads
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: a run times at least this many passes, however short ``--seconds``
MIN_PASSES = 3
#: traced runs time at least this many passes of each kind
MIN_TRACE_PASSES = 2
GENERATE_TIMEOUT_S = 150
#: verdicts per block of :func:`blocked_p90`
P90_BLOCK = 100
#: host-speed probes between consecutive passes
PROBES_PER_GAP = 3

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rows_per_s", "rows/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipebench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # generated in a child so the generator's memory stays out of this
    # process's peak RSS
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "workloads.py"), "generate",
         args.workload, str(args.seed), str(work / "inputs")],
        env=env, check=True, timeout=GENERATE_TIMEOUT_S,
    )
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), work)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined: dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {},
    }
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(combined))
    return 0


# --------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------- #


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, work: Path
) -> dict[str, Any]:
    import hostspeed
    import spans
    import workloads
    from repro.obs import MetricsRegistry, use_registry

    inputs = work / "inputs"
    if workload == "fleet-lits":
        fleet = workloads.Fleet(inputs)
        stream = None
        run_pass: Callable[[Any], Any] = fleet.run_pass
    else:
        stream = workloads.Stream(workload, inputs, seed)
        run_pass = stream.run_pass

    untraced = workloads.NullRecorder()
    guarded(run_pass, untraced)  # warm-up: imports, allocator, page cache
    probe = hostspeed.HostProbe()
    probe_s = [probe.time() for _ in range(PROBES_PER_GAP)]
    recorder = spans.SpanRecorder()
    registry = MetricsRegistry()

    def traced_pass(rec: Any) -> Any:
        with use_registry(registry), rec.traced_pass():
            return run_pass(rec)

    timed: list[Any] = []
    traced: list[Any] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if trace:
            enough = min(len(timed), len(traced)) >= MIN_TRACE_PASSES
        else:
            enough = len(timed) >= MIN_PASSES
        if enough and elapsed >= seconds:
            break
        if trace and len(traced) < len(timed):
            outcome = guarded(traced_pass, recorder)
            traced.append(outcome)
        else:
            outcome = guarded(run_pass, untraced)
            timed.append(outcome)
        probe_s.extend(probe.time() for _ in range(PROBES_PER_GAP))
        if isinstance(outcome, Failure):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = [p for p in timed + traced if not isinstance(p, Failure)]
    failures = [f"pass raised: {p.error}" for p in timed + traced
                if isinstance(p, Failure)]
    attempted = sum(p.attempted for p in passes) + len(failures)
    failed = sum(p.failed for p in passes) + len(failures)
    failures += [msg for p in passes for msg in p.failures]
    checkpoint_bytes: list[int] = []
    if stream is not None:
        check = guarded(workloads.check_stream, stream, work / "checks")
        if isinstance(check, Failure):
            attempted += 1
            failed += 1
            failures.append(f"check pass raised: {check.error}")
        else:
            attempted += check.attempted
            failed += len(check.failures)
            failures += check.failures
            checkpoint_bytes = check.checkpoint_bytes
            for p in passes:
                if p.lines != check.lines:
                    failed += p.attempted
                    failures.append("a pass printed other verdicts than "
                                    "`repro monitor-stream`")

    timed_ok = [p for p in timed if not isinstance(p, Failure)]
    speed = hostspeed.REFERENCE_S / statistics.median(probe_s)
    if trace:
        metrics = layer_metrics(
            workloads, recorder, registry, timed_ok,
            [p for p in traced if not isinstance(p, Failure)],
            checkpoint_bytes, stream is not None,
        )
        units = dict(layer_units(spans.LAYERS))
    else:
        metrics = end_to_end_metrics(timed_ok, speed, peak_rss_mib)
        units = dict(END_TO_END)
    measured = {} if trace else end_to_end_metrics(timed_ok, 1.0, peak_rss_mib)

    env = environment()
    report(workload, seed, seconds, trace, env, timed_ok, metrics, units,
           attempted, failed, failures, probe_s, speed, measured)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    ledger = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": env, "metrics": metrics,
        "host_probe_s": probe_s, "speed_scale": speed,
        "unscaled_metrics": measured,
        "verdict_samples": sum(len(p.verdicts_s) for p in timed_ok),
        "passes": [
            {"wall_s": p.wall_s, "setup_s": p.setup_s, "matrix_s": p.matrix_s}
            for p in timed_ok
        ],
        "counters": registry.snapshot()["counters"] if trace else {},
        "failures": failures,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(ledger, indent=2) + "\n")
    if trace:
        recorder.write_chrome_trace(OUT / f"{stem}.trace.json",
                                    {"workload": workload, "seed": seed})
    return {
        "correct": failed == 0 and bool(timed_ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


class Failure:
    """A pass or check that raised."""

    def __init__(self, error: BaseException) -> None:
        self.error = f"{type(error).__name__}: {error}"


def guarded(fn: Callable[..., Any], *args: Any) -> Any:
    """``fn(*args)``, or a :class:`Failure` recording what it raised."""
    try:
        return fn(*args)
    except Exception as error:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return Failure(error)


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (linear interpolation between ranks)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def blocked_p90(passes: list[Any]) -> float:
    """Median over blocks of consecutive passes of each block's p90.

    A block holds at least :data:`P90_BLOCK` verdicts, so its p90 has
    ten samples beyond it; a run with fewer verdicts is one block. The
    host's speed drifts over seconds, so a p90 pooled over the whole run
    would report the slowest tenth of the run's time; the median over
    blocks reports a typical block instead.
    """
    blocks: list[float] = []
    current: list[float] = []
    for p in passes:
        current += p.verdicts_s
        if len(current) >= P90_BLOCK:
            blocks.append(percentile(current, 90))
            current = []
    if not blocks:
        blocks.append(percentile(current, 90))
    return statistics.median(blocks)


def end_to_end_metrics(
    passes: list[Any], speed: float, peak_rss_mib: float
) -> dict[str, float]:
    """The end-to-end metrics, times read at the reference host speed.

    ``speed`` is :data:`hostspeed.REFERENCE_S` over the run's median
    probe time: measured seconds times ``speed`` are the seconds the pass
    would take on the reference host.
    """
    if not passes:
        return {}
    verdicts = [v for p in passes for v in p.verdicts_s]
    return {
        "setup_s": statistics.median(p.setup_s for p in passes) * speed,
        "wall_s": statistics.median(p.wall_s for p in passes) * speed,
        "rows_per_s": statistics.median(
            p.rows / (p.wall_s - p.setup_s) for p in passes
        ) / speed,
        "verdict_p50_ms": percentile(verdicts, 50) * 1e3 * speed,
        "verdict_p90_ms": blocked_p90(passes) * 1e3 * speed,
        "peak_rss_mib": peak_rss_mib,
    }


#: (name, unit) of the per-layer metrics beyond each layer's calls,
#: self_s and share
LEDGER_EXTRAS = (
    ("data.index_builds_per_chunk", "ratio"),
    ("data.intersection_memo.hit_ratio", "ratio"),
    ("core.gcr.regions", "count"),
    ("stream.rows_sketched_per_row", "ratio"),
    ("fleet.pairs_scanned_ratio", "ratio"),
    ("fleet.store_scans_per_store", "ratio"),
    ("fleet.matrix_exhaustive_s", "s"),
    ("fleet.matrix_pruned_s", "s"),
    ("fleet.matrix_federated_s", "s"),
    ("wire.bytes_packed", "bytes"),
    ("wire.kib_per_store", "KiB"),
    ("resilience.checkpoint.rows_written_per_chunk", "ratio"),
    ("resilience.checkpoint_kib_per_chunk", "KiB"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_units(layers: tuple[str, ...]) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    out = []
    for layer in layers:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                (f"{layer}.share", "ratio")]
    return out + list(LEDGER_EXTRAS)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(
    workloads: Any, recorder: Any, registry: Any, untraced: list[Any],
    traced: list[Any], checkpoint_bytes: list[int], is_stream: bool,
) -> dict[str, float]:
    """Per traced pass: each layer's calls and self time, plus the ratios."""
    import spans

    n = len(recorder.passes)
    wall = recorder.traced_wall_s
    counters = registry.snapshot()["counters"]
    metrics: dict[str, float] = {}
    for layer, (calls, self_s) in recorder.self_times().items():
        metrics[f"{layer}.calls"] = _ratio(calls, n)
        metrics[f"{layer}.self_s"] = _ratio(self_s, n)
        metrics[f"{layer}.share"] = _ratio(self_s, wall)

    monitored_chunks = (
        n * (workloads.STREAM_ROWS - workloads.WINDOW) // workloads.STEP
        if is_stream else 0
    )
    hits = counters.get("bitmap.memo.hits", 0)
    matrices = {
        path: [p.matrix_s[path] for p in untraced if p.matrix_s]
        for path in workloads.FLEET_PATHS
    }
    row_engines = 2 * n if not is_stream else 0  # exhaustive + pruned
    checkpoints = counters.get("resilience.checkpoints_written", 0)
    metrics.update({
        "data.index_builds_per_chunk": _ratio(
            metrics["data.index_build.calls"] * n, monitored_chunks),
        "data.intersection_memo.hit_ratio": _ratio(
            hits, hits + counters.get("bitmap.memo.misses", 0)),
        "core.gcr.regions": _ratio(recorder.counters[spans.GCR_REGIONS], n),
        "stream.rows_sketched_per_row": _ratio(
            counters.get("stream.windows.rows_sketched", 0),
            monitored_chunks * workloads.STEP),
        "fleet.pairs_scanned_ratio": _ratio(
            counters.get("fleet.pairs.scanned", 0)
            + counters.get("fleet.pairs.sketch_exact", 0),
            0 if is_stream else n * len(workloads.FLEET_PATHS)
            * workloads.N_PAIRS),
        "fleet.store_scans_per_store": _ratio(
            counters.get("fleet.store.scans", 0),
            row_engines * workloads.N_STORES),
        "fleet.matrix_exhaustive_s": _median(matrices["exhaustive"]),
        "fleet.matrix_pruned_s": _median(matrices["pruned"]),
        "fleet.matrix_federated_s": _median(matrices["federated"]),
        "wire.bytes_packed": _ratio(counters.get("wire.bytes_packed", 0), n),
        "wire.kib_per_store": _median(
            [p.wire_bytes_per_store / 1024 for p in traced]),
        "resilience.checkpoint.rows_written_per_chunk": _ratio(
            recorder.counters[spans.ROWS_WRITTEN],
            checkpoints * workloads.STEP),
        "resilience.checkpoint_kib_per_chunk": _ratio(
            sum(checkpoint_bytes) / 1024, len(checkpoint_bytes)),
        "trace.unattributed_share": _ratio(recorder.unattributed_s(), wall),
        "trace.overhead_ratio": _ratio(
            _median([p.wall_s for p in traced]),
            _median([p.wall_s for p in untraced])),
    })
    return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #


def environment() -> dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def report(
    workload: str, seed: int, seconds: float, trace: bool,
    env: dict[str, Any], passes: list[Any], metrics: dict[str, float],
    units: dict[str, str], attempted: int, failed: int, failures: list[str],
    probe_s: list[float], speed: float, measured: dict[str, float],
) -> None:
    """Every metric by name with its unit, then the checks' outcome."""
    blas = " ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    print(f"pipebench {workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print(f"  python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, {blas}")
    samples = sum(len(p.verdicts_s) for p in passes)
    print(f"  {len(passes)} untraced passes, {samples} verdict samples")
    scaling = (f"end-to-end times are scaled by {speed:.4f} to the "
               "reference host speed" if measured else "per-layer times are "
               "as measured")
    print(f"  host probe median {statistics.median(probe_s) * 1e3:.2f} ms over "
          f"{len(probe_s)} probes; {scaling}")
    for name, value in metrics.items():
        unscaled = (f"  (as measured: {measured[name]:.6g})"
                    if name in measured and measured[name] != value else "")
        print(f"  {name:<46} {value:>14.6g} {units[name]}{unscaled}")
    rate = failed / attempted if attempted else 1.0
    print(f"  error_rate {rate:.4g} ({failed} failed of {attempted} "
          "attempted operations and checks)")
    for message in failures:
        print(f"  FAILED: {message}")


if __name__ == "__main__":
    sys.exit(main())
