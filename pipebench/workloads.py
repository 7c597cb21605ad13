"""Workloads of the pipeline benchmark: seeded inputs, passes, output checks.

Each workload makes the calls its ``repro`` CLI command makes, from one
process, with the serial executor:

* ``stream-lits`` -- ``repro monitor-stream`` over a Quest basket file
  (lits-model, sliding window, count-space bootstrap);
* ``stream-tabular-ckpt`` -- ``repro monitor-stream --kind tabular
  --checkpoint-dir`` over an Agrawal classify ``.npz`` (dt-model, a
  durable checkpoint after every chunk);
* ``fleet-lits`` -- ``repro fleet`` (exhaustive), ``repro fleet
  --threshold`` (pruned) and ``repro sketch pack`` + ``repro sketch
  compare`` (federated) over a 24-store fleet.

A *pass* is one complete run of the command, input on disk to result.
All loops are closed: the next chunk (or matrix) is asked for only after
the previous one returned.

Run as a script to write a workload's inputs::

    PYTHONPATH=src python3 pipebench/workloads.py generate WORKLOAD SEED DIR
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import wire
from repro.core.deviation import deviation_over_structure
from repro.core.dtree_model import DtModel
from repro.core.lits import LitsModel
from repro.data.io import load_transactions, save_tabular, save_transactions
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.data.quest_classify import generate_classification
from repro.data.tabular import TabularDataset
from repro.data.transactions import TransactionDataset
from repro.fleet import FleetDeviationMatrix, probe_itemsets
from repro.mining.tree.builder import TreeParams
from repro.stream import (
    OnlineChangeMonitor,
    stream_tabular_chunks,
    stream_transaction_chunks,
)
from repro.stream.sketch import SupportSketch

# Stream shape: the ROADMAP's canonical monitor-stream run.
STREAM_ROWS = 60_000
WINDOW = 4_000
STEP = 1_000
N_BOOT = 20
THRESHOLD = 95.0
MIN_SUPPORT = 0.02
MAX_LEN = 2
BASKET_ITEMS = 500
MAX_DEPTH = 6
MIN_LEAF = 25
CLASSIFY_FUNCTION = 1
#: rows pushed before the first monitored chunk is accepted
SETUP_ROWS = WINDOW + STEP

# Fleet shape: the 24-store fleet of benchmarks/bench_fleet.py.
N_HEALTHY = 20
N_DRIFTED = 4
N_STORES = N_HEALTHY + N_DRIFTED
N_PAIRS = N_STORES * (N_STORES - 1) // 2
STORE_ROWS = 1_200
FLEET_ITEMS = 100
FLEET_PATHS = ("exhaustive", "pruned", "federated")

#: seeds of the fixed pattern pools (bench_fleet's seed for the fleet)
POOL_SEED = 0
FLEET_POOL_SEED = 417

#: windows per stream pass whose deviation is recounted from rows
RECOUNT_SAMPLE = 3


class NullRecorder:
    """The untraced stand-in for :class:`spans.SpanRecorder`."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext[None]:
        return self._NULL

    def next_op(self) -> None:
        return None


@dataclass
class PassResult:
    """What one pass measured and produced."""

    wall_s: float
    setup_s: float
    #: rows pushed after setup (streams) or fleet rows compared (fleet)
    rows: int
    #: per-verdict latency: per emitted window, or per fleet matrix
    verdicts_s: list[float]
    #: the pass's output, line for line as the CLI prints it (streams)
    lines: list[str] = field(default_factory=list)
    observations: list[Any] = field(default_factory=list)
    #: fleet: seconds per matrix path
    matrix_s: dict[str, float] = field(default_factory=dict)
    #: fleet: wire payload bytes per store (model + probe sketch)
    wire_bytes_per_store: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def generate(workload: str, seed: int, directory: Path) -> None:
    """Write the workload's inputs under ``directory``.

    The Quest pattern pools -- the buying processes -- are part of the
    workload's definition and drawn from :data:`POOL_SEED`; ``seed``
    draws every row. Seed-drawn pools would swing the mined itemset
    counts, and with them the cost of a pass, by several percent.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "stream-lits":
        pool = build_pattern_pool(
            np.random.default_rng(POOL_SEED), n_items=BASKET_ITEMS,
            n_patterns=1_000, avg_pattern_len=4,
        )
        basket = generate_basket(
            STREAM_ROWS, n_items=BASKET_ITEMS, avg_transaction_len=10,
            rng=rng, pool=pool,
        )
        save_transactions(basket, directory / "basket.txt")
    elif workload == "stream-tabular-ckpt":
        table = generate_classification(
            STREAM_ROWS, function=CLASSIFY_FUNCTION, rng=rng
        )
        save_tabular(table, directory / "classify.npz")
    elif workload == "fleet-lits":
        _generate_fleet(rng, directory)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _generate_fleet(rng: np.random.Generator, directory: Path) -> None:
    """20 stores from one buying process, 4 drifted outliers, a threshold."""
    pool_rng = np.random.default_rng(FLEET_POOL_SEED)
    healthy = build_pattern_pool(
        pool_rng, n_items=FLEET_ITEMS, n_patterns=80, avg_pattern_len=4
    )
    pools = [healthy] * N_HEALTHY + [
        build_pattern_pool(
            pool_rng, n_items=FLEET_ITEMS, n_patterns=80,
            avg_pattern_len=6 + k % 2,
        )
        for k in range(N_DRIFTED)
    ]
    datasets = [
        generate_basket(STORE_ROWS, n_items=FLEET_ITEMS,
                        avg_transaction_len=8, rng=rng, pool=pool)
        for pool in pools
    ]
    names = [f"store-{i:02d}" for i in range(N_STORES)]
    for name, dataset in zip(names, datasets):
        save_transactions(dataset, directory / f"{name}.txt")
    models = [
        LitsModel.mine(d, MIN_SUPPORT, max_len=MAX_LEN) for d in datasets
    ]
    bounds = FleetDeviationMatrix(models, datasets).bound_matrix()
    meta = {"names": names, "threshold": _midpoint_threshold(bounds)}
    (directory / "fleet.json").write_text(json.dumps(meta))


def _midpoint_threshold(bounds: np.ndarray) -> float:
    """bench_fleet's operator cut: between the healthy and drifted regimes."""
    within = bounds[:N_HEALTHY, :N_HEALTHY][np.triu_indices(N_HEALTHY, k=1)]
    drifted = bounds[N_HEALTHY:, :]
    return float((within.max() + drifted[drifted > 0].min()) / 2.0)


# --------------------------------------------------------------------- #
# Streams
# --------------------------------------------------------------------- #


class Stream:
    """One stream workload: its input file and monitor configuration."""

    def __init__(self, workload: str, inputs: Path, seed: int) -> None:
        self.tabular = workload == "stream-tabular-ckpt"
        self.path = inputs / ("classify.npz" if self.tabular else "basket.txt")
        self.seed = seed
        self.checkpoint_dir = inputs / "checkpoint" if self.tabular else None

    def builder(self, rec: Any) -> Callable[[Any], Any]:
        params = TreeParams(max_depth=MAX_DEPTH, min_leaf=MIN_LEAF)

        def build(dataset: Any) -> Any:
            with rec.span("mining.mine"):
                if self.tabular:
                    return DtModel.fit(dataset, params)
                return LitsModel.mine(dataset, MIN_SUPPORT, max_len=MAX_LEN)

        return build

    def open(self) -> tuple[Any, Any]:
        """``(n_items or None, chunk iterator)``, as the CLI opens it."""
        if self.tabular:
            _, chunks = stream_tabular_chunks(self.path, STEP)
            return None, chunks
        return stream_transaction_chunks(self.path, STEP)

    def monitor(self, rec: Any, n_items: int | None) -> OnlineChangeMonitor:
        common: dict[str, Any] = dict(
            window_size=WINDOW, step=STEP, n_boot=N_BOOT,
            threshold=THRESHOLD, rng=np.random.default_rng(self.seed),
            executor="serial",
        )
        if self.tabular:
            return OnlineChangeMonitor(self.builder(rec), kind="tabular", **common)
        return OnlineChangeMonitor(self.builder(rec), n_items, **common)

    def cli_args(self, checkpoint_dir: Path | None) -> list[str]:
        args = [
            "monitor-stream", "--data", str(self.path),
            "--window", str(WINDOW), "--step", str(STEP),
            "--boot", str(N_BOOT), "--threshold", str(THRESHOLD),
            "--seed", str(self.seed),
        ]
        if self.tabular:
            args += ["--kind", "tabular", "--max-depth", str(MAX_DEPTH),
                     "--min-leaf", str(MIN_LEAF)]
        else:
            args += ["--min-support", str(MIN_SUPPORT),
                     "--max-len", str(MAX_LEN)]
        if checkpoint_dir is not None:
            args += ["--checkpoint-dir", str(checkpoint_dir)]
        return args

    def run_pass(
        self, rec: Any, on_chunk: Callable[..., None] | None = None
    ) -> PassResult:
        """One ``monitor-stream`` run; ``on_chunk`` hooks the check pass."""
        if self.checkpoint_dir is not None:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        t0 = time.perf_counter()
        with rec.span("data.parse"):
            n_items, chunks = self.open()
        monitor = self.monitor(rec, n_items)
        lines: list[str] = []
        observations: list[Any] = []
        verdicts: list[float] = []
        setup_s = None
        try:
            while True:
                rec.next_op()
                asked = time.perf_counter()
                with rec.span("data.parse"):
                    chunk = next(chunks, None)
                if chunk is None:
                    break
                emitted = monitor.push(chunk)
                if self.checkpoint_dir is not None:
                    monitor.checkpoint(self.checkpoint_dir)
                done = time.perf_counter()
                for observation in emitted:
                    verdicts.append(done - asked)
                    observations.append(observation)
                    lines.append(observation.describe())
                if setup_s is None and monitor.rows_ingested >= SETUP_ROWS:
                    setup_s = done - t0
                if on_chunk is not None:
                    on_chunk(chunk, len(lines))
            lines.extend(_stream_tail(monitor))
        finally:
            monitor.close()
        wall_s = time.perf_counter() - t0
        return PassResult(
            wall_s=wall_s,
            setup_s=wall_s if setup_s is None else setup_s,
            rows=monitor.rows_ingested - SETUP_ROWS,
            verdicts_s=verdicts,
            lines=lines,
            observations=observations,
            attempted=len(verdicts),
        )

    def resume_lines(self, directory: Path) -> list[str]:
        """Resume a fresh monitor from ``directory``; the lines it prints."""
        n_items, chunks = self.open()
        monitor = self.monitor(NullRecorder(), n_items)
        monitor.resume(directory)
        skip = monitor.rows_ingested
        lines: list[str] = []
        try:
            for chunk in chunks:
                if skip >= len(chunk):
                    skip -= len(chunk)
                    continue
                if skip:
                    raise RuntimeError("checkpoint offset splits a chunk")
                lines.extend(o.describe() for o in monitor.push(chunk))
            lines.extend(_stream_tail(monitor))
        finally:
            monitor.close()
        return lines


def _stream_tail(monitor: OnlineChangeMonitor) -> list[str]:
    """The flush and summary lines ``repro monitor-stream`` ends with."""
    lines = [
        f"{o.describe()} [partial final window]" for o in monitor.flush()
    ]
    n_drifted = sum(1 for o in monitor.history if o.drifted)
    lines.append(
        f"{len(monitor.history)} windows monitored, {n_drifted} drifted; "
        f"{monitor.rows_sketched} rows sketched incrementally"
    )
    return lines


@dataclass
class StreamCheck:
    """Untimed reference outputs of one stream workload."""

    lines: list[str]
    failures: list[str]
    attempted: int
    #: bytes of each committed checkpoint generation (checkpointing only)
    checkpoint_bytes: list[int]


def check_stream(stream: Stream, scratch: Path) -> StreamCheck:
    """Run the untimed check pass and every stream output check.

    * a seeded sample of windows: the sketch-maintained deviation equals
      ``deviation_over_structure`` recounted from the materialised rows;
    * the pass prints exactly what ``repro monitor-stream`` prints for
      the same file and seed;
    * checkpointing: resuming from a mid-stream checkpoint reproduces
      the remaining output.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    chunks: list[Any] = []
    checkpoint_bytes: list[int] = []
    resume_at: list[int] = []
    resume_dir = scratch / "resume-from"
    n_chunks = STREAM_ROWS // STEP

    def on_chunk(chunk: Any, n_lines: int) -> None:
        chunks.append(chunk)
        if stream.checkpoint_dir is None:
            return
        checkpoint_bytes.append(_generation_bytes(stream.checkpoint_dir))
        if len(chunks) == n_chunks // 2:
            shutil.rmtree(resume_dir, ignore_errors=True)
            shutil.copytree(stream.checkpoint_dir, resume_dir)
            resume_at.append(n_lines)

    result = stream.run_pass(NullRecorder(), on_chunk)
    failures: list[str] = []
    attempted = 0

    n_windows = len(result.observations)
    sample = random.Random(stream.seed).sample(
        range(n_windows), min(RECOUNT_SAMPLE, n_windows)
    )
    ref_chunks = WINDOW // STEP
    reference = _concat(stream, chunks[:ref_chunks])
    model = stream.builder(NullRecorder())(reference)
    for k in sample:
        attempted += 1
        window = _concat(stream, chunks[ref_chunks + k : 2 * ref_chunks + k])
        recount = deviation_over_structure(model.structure, reference, window)
        observed = result.observations[k].deviation
        if recount.value != observed:
            failures.append(
                f"window {k}: sketch deviation {observed!r} != row "
                f"recount {recount.value!r}"
            )

    from repro.cli import main as cli_main

    attempted += 1
    out = io.StringIO()
    cli_dir = scratch / "cli-checkpoint" if stream.checkpoint_dir else None
    if cli_dir is not None:
        shutil.rmtree(cli_dir, ignore_errors=True)
    status = cli_main(stream.cli_args(cli_dir), out)
    cli_lines = out.getvalue().splitlines()
    if status != 0 or cli_lines != result.lines:
        failures.append(
            f"pass output differs from `repro monitor-stream` (exit {status})"
        )

    if stream.checkpoint_dir is not None:
        attempted += 1
        if not resume_at or (
            stream.resume_lines(resume_dir) != result.lines[resume_at[0] :]
        ):
            failures.append("resumed run does not reproduce the remaining output")
    return StreamCheck(result.lines, failures, attempted, checkpoint_bytes)


def _concat(stream: Stream, chunks: list[Any]) -> Any:
    if stream.tabular:
        return TabularDataset.concat_many(chunks)
    rows = [row for chunk in chunks for row in chunk]
    return TransactionDataset(rows, BASKET_ITEMS)


def _generation_bytes(directory: Path) -> int:
    """Bytes of the committed checkpoint generation under ``directory``."""
    manifest = json.loads((directory / "CHECKPOINT.json").read_text())
    generation = directory / manifest["generation"]
    return sum(p.stat().st_size for p in generation.iterdir())


# --------------------------------------------------------------------- #
# Fleet
# --------------------------------------------------------------------- #


class Fleet:
    """The 24-store fleet workload."""

    def __init__(self, inputs: Path) -> None:
        meta = json.loads((inputs / "fleet.json").read_text())
        self.names: list[str] = meta["names"]
        self.threshold: float = meta["threshold"]
        self.paths = [inputs / f"{name}.txt" for name in self.names]

    def run_pass(self, rec: Any) -> PassResult:
        """Load and mine every store, then the matrix three ways."""
        t0 = time.perf_counter()
        datasets = []
        for path in self.paths:
            with rec.span("data.parse"):
                datasets.append(load_transactions(path))
        models = []
        for dataset in datasets:
            with rec.span("mining.mine"):
                models.append(
                    LitsModel.mine(dataset, MIN_SUPPORT, max_len=MAX_LEN)
                )
        setup_s = time.perf_counter() - t0

        matrices: dict[str, Any] = {}
        matrix_s: dict[str, float] = {}

        rec.next_op()
        started = time.perf_counter()
        matrices["exhaustive"] = FleetDeviationMatrix(
            models, datasets, names=self.names
        ).exhaustive()
        matrix_s["exhaustive"] = time.perf_counter() - started

        rec.next_op()
        started = time.perf_counter()
        matrices["pruned"] = FleetDeviationMatrix(
            models, datasets, names=self.names
        ).pruned(self.threshold)
        matrix_s["pruned"] = time.perf_counter() - started

        rec.next_op()
        started = time.perf_counter()
        probes = probe_itemsets(models)
        shipments = [
            (wire.pack(model), wire.pack(SupportSketch.from_dataset(d, probes)))
            for model, d in zip(models, datasets)
        ]
        matrices["federated"] = FleetDeviationMatrix.from_sketches(
            shipments, names=self.names
        ).exhaustive()
        matrix_s["federated"] = time.perf_counter() - started
        wall_s = time.perf_counter() - t0

        failures = self.check(matrices)
        return PassResult(
            wall_s=wall_s,
            setup_s=setup_s,
            rows=sum(len(d) for d in datasets) * len(FLEET_PATHS),
            verdicts_s=[matrix_s[p] for p in FLEET_PATHS],
            matrix_s=matrix_s,
            wire_bytes_per_store=sum(
                len(m) + len(s) for m, s in shipments
            ) / N_STORES,
            attempted=len(FLEET_PATHS),
            failed=len(failures),
            failures=failures,
        )

    def check(self, matrices: dict[str, Any]) -> list[str]:
        """One failure message per matrix path whose output is wrong."""
        failures = []
        oracle = matrices["exhaustive"].values
        if oracle.shape != (N_STORES, N_STORES) or not (
            np.array_equal(oracle, oracle.T) and not np.diag(oracle).any()
        ):
            failures.append("exhaustive matrix is not a symmetric zero-diagonal matrix")
        pruned = matrices["pruned"]
        decisions_agree = np.array_equal(
            pruned.values <= self.threshold, oracle <= self.threshold
        )
        exact_agree = np.array_equal(
            pruned.values[pruned.exact_mask], oracle[pruned.exact_mask]
        )
        if not (decisions_agree and exact_agree):
            failures.append("pruned matrix disagrees with exhaustive()")
        if not np.array_equal(matrices["federated"].values, oracle):
            failures.append("federated matrix is not bit-equal to exhaustive()")
        return failures


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "generate":
        sys.exit("usage: workloads.py generate WORKLOAD SEED DIR")
    generate(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
