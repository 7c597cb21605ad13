"""Command-line interface for the FOCUS reproduction.

Subcommands::

    generate-basket   --out txns.txt   [--n 10000 --items 500 ...]
    generate-classify --out people.npz [--n 10000 --function 1]
    mine              --data txns.txt --min-support 0.01
    compare-lits      --data1 a.txt --data2 b.txt --min-support 0.01 [--boot 50]
    compare-dt        --data1 a.npz --data2 b.npz [--boot 50]
    monitor-stream    --data txns.txt --window 1000 [--step 250 --boot 8]
    monitor-stream    --data people.npz --kind tabular --window 1000
    fleet             --data a.txt b.txt c.txt [--threshold 5 --groups 2]
    sketch pack       --data a.txt --out a.sketch [--model-out a.model]
    sketch merge      --in a.sketch b.sketch --out merged.sketch
    sketch compare    --in a.sketch b.sketch --models a.model b.model
    sketch inspect    --in a.sketch

``compare-*`` prints delta, (for lits) delta*, and the bootstrap
significance -- the full Section 3 pipeline from flat files.
``fleet`` computes the all-pairs deviation matrix of many store files
through :class:`repro.fleet.FleetDeviationMatrix` -- with ``--threshold``
only pairs whose delta* bound crosses it are scanned exactly -- and
emits the matrix, a 2-D MDS embedding, the groups, and the pruning
statistics as JSON (or the matrix as CSV).
``sketch`` is the federated workflow: ``pack`` turns one site's data
into kilobyte wire payloads (a mergeable sketch, plus the model for lits
stores), ``merge`` sums shard sketches without any rows, ``compare``
computes the fleet deviation matrix *from payloads alone* (no dataset
readable by the comparer; delta*-pruned with ``--threshold``, pair
significance with ``--boot`` for partition fleets), and ``inspect``
describes a payload after verifying every checksum.
``monitor-stream`` treats the file as a temporally ordered stream: the
first window becomes the reference, every later window is maintained
incrementally (mergeable sketches; no rescan of surviving rows) and
qualified, and drifted windows are flagged as they complete. With
``--kind tabular`` the file is a ``.npz`` table and the reference is a
dt-model (partition sketches instead of support sketches); either way a
trailing partial window is flushed and reported at end of stream.

The measurement commands (``compare-*``, ``fleet``, ``monitor-stream``)
accept ``--metrics [PATH]`` and ``--profile``: both run the engine under
a :mod:`repro.obs` registry; ``--metrics`` emits the counter snapshot as
JSON (to ``PATH``, or stderr), ``--profile`` prints the span/metrics
report table to stderr.

The fanning commands (``fleet``, ``monitor-stream``) accept the
resilience knobs ``--retries``, ``--shard-timeout`` and ``--on-failure
{raise,degrade}``: any of them arms a
:class:`repro.resilience.SupervisedExecutor` around ``--executor``, so
shard failures are retried with seeded backoff, broken process pools
are rebuilt, and exhausted fans either fail typed or degrade down the
process->thread->serial ladder. ``monitor-stream --checkpoint-dir DIR``
additionally writes a crash-durable checkpoint after every chunk and,
when ``DIR`` already holds one, resumes from it -- the resumed run
emits exactly the observations the uninterrupted run would have.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.deviation import deviation
from repro.core.dtree_model import DtModel
from repro.core.lits import LitsModel
from repro.core.upper_bound import upper_bound_deviation
from repro.data.io import (
    load_tabular,
    load_transactions,
    save_tabular,
    save_transactions,
)
from repro.data.quest_basket import generate_basket
from repro.data.quest_classify import generate_classification
from repro.mining.tree.builder import TreeParams
from repro.obs import MetricsRegistry, use_registry
from repro.stats.bootstrap import deviation_significance


def _add_generate_basket(sub) -> None:
    p = sub.add_parser("generate-basket", help="write a Quest basket dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--items", type=int, default=500)
    p.add_argument("--avg-len", type=int, default=10)
    p.add_argument("--patterns", type=int, default=1_000)
    p.add_argument("--pattern-len", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)


def _add_generate_classify(sub) -> None:
    p = sub.add_parser(
        "generate-classify", help="write an Agrawal classification dataset"
    )
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--function", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)


def _add_mine(sub) -> None:
    p = sub.add_parser("mine", help="mine and print frequent itemsets")
    p.add_argument("--data", required=True)
    p.add_argument("--min-support", type=float, default=0.01)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--top", type=int, default=20)
    p.add_argument("--save", default=None, help="write the model as JSON")
    _add_storage_args(p)


def _add_compare_models(sub) -> None:
    p = sub.add_parser(
        "compare-models",
        help="delta* between two saved lits-models (no data needed)",
    )
    p.add_argument("--model1", required=True)
    p.add_argument("--model2", required=True)


def _boot_count(text: str) -> int:
    """``--boot``'s type: a replicate count, 0 to skip the bootstrap."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return value


def _add_boot_args(p) -> None:
    """The shared bootstrap-qualification knobs of the compare commands."""
    p.add_argument(
        "--boot", "--n-boot", dest="boot", type=_boot_count, default=0,
        help="bootstrap resamples (count-space engine: the pooled data "
        "is scanned once, never per replicate)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="bootstrap RNG seed (default 0 so published significance "
        "numbers are reproducible; vary it to probe resampling noise)",
    )


def _add_storage_args(p) -> None:
    """The out-of-core storage knobs of the transaction commands."""
    p.add_argument(
        "--backend", choices=("ram", "mmap"), default="ram",
        help="index storage: in-RAM arrays, or memory-mapped stripe "
        "files under --stripe-dir (out-of-core: counts stream through "
        "the OS page cache, and process fan-outs attach the stripes "
        "zero-copy instead of pickling rows)",
    )
    p.add_argument(
        "--stripe-dir", default=None, metavar="DIR",
        help="directory for the mmap backend's stripe files (required "
        "with --backend mmap; each dataset gets a subdirectory; must "
        "not already hold a store)",
    )


def _storage_dataset(path: str, tag: str, args):
    """Load a transactions file onto the selected storage backend.

    RAM backend: the plain in-memory dataset. Mmap backend: ingest into
    a stripe store under ``--stripe-dir/<tag>`` and snapshot with the
    store-backed index shared, so every downstream count runs over the
    on-disk stripes.
    """
    dataset = load_transactions(path)
    if args.backend == "ram":
        return dataset
    if args.stripe_dir is None:
        raise SystemExit("--backend mmap requires --stripe-dir")
    from pathlib import Path

    from repro.stream import TransactionLog

    log = TransactionLog(
        dataset.n_items,
        dataset,
        backend="mmap",
        stripe_dir=Path(args.stripe_dir) / tag,
    )
    return log.to_dataset(share_index=True)


def _add_obs_args(p) -> None:
    """The engine-observability knobs of the measurement commands."""
    p.add_argument(
        "--metrics", nargs="?", const="-", default=None, metavar="PATH",
        help="run under a repro.obs registry and emit the engine counter "
        "snapshot as JSON: to PATH, or to stderr when no PATH is given",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="run under a repro.obs registry and print the metrics/span "
        "report table to stderr",
    )


def _add_resilience_args(p) -> None:
    """The supervised-fan knobs of the fanning commands."""
    p.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="supervise the executor fan: retry each failed shard up to "
        "N extra times with seeded backoff (any resilience flag arms "
        "repro.resilience.SupervisedExecutor around --executor)",
    )
    p.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="abandon and retry a shard stalled past this many seconds "
        "(on the process rung the pool is rebuilt, so the stalled "
        "worker dies with it)",
    )
    p.add_argument(
        "--on-failure", choices=("raise", "degrade"), default=None,
        help="what a shard exhausting its retry budget does: raise a "
        "typed ShardFailedError naming the shard (raise, the default), "
        "or first degrade the fan down the process->thread->serial "
        "ladder (degrade)",
    )


def _resolve_cli_executor(args):
    """``--executor``, wrapped in supervision when a resilience flag asks.

    Returns the plain backend name when no resilience flag was given
    (the call sites own and release it as before); otherwise a
    :class:`~repro.resilience.SupervisedExecutor` instance the caller
    must shut down.
    """
    flags = (args.retries, args.shard_timeout, args.on_failure)
    if all(flag is None for flag in flags):
        return args.executor
    from repro.resilience import SupervisedExecutor

    return SupervisedExecutor(  # reprolint: disable=RL003(factory hands ownership to the command handler, which releases it in a finally or via monitor.close)
        args.executor,
        retries=2 if args.retries is None else args.retries,
        shard_timeout=args.shard_timeout,
        on_failure=args.on_failure or "raise",
        seed=getattr(args, "seed", 0) or 0,
    )


def _skip_rows(chunks, n: int):
    """Drop the first ``n`` rows of a chunk stream (the resume offset)."""
    for chunk in chunks:
        size = len(chunk)
        if n >= size:
            n -= size
            continue
        if n:
            chunk = chunk.slice_rows(n, size)
            n = 0
        yield chunk


def _add_compare_lits(sub) -> None:
    p = sub.add_parser("compare-lits", help="lits-model deviation of two files")
    p.add_argument("--data1", required=True)
    p.add_argument("--data2", required=True)
    p.add_argument("--min-support", type=float, default=0.01)
    p.add_argument("--max-len", type=int, default=None)
    _add_storage_args(p)
    _add_boot_args(p)
    _add_obs_args(p)


def _add_compare_dt(sub) -> None:
    p = sub.add_parser("compare-dt", help="dt-model deviation of two files")
    p.add_argument("--data1", required=True)
    p.add_argument("--data2", required=True)
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--min-leaf", type=int, default=25)
    _add_boot_args(p)
    _add_obs_args(p)


def _add_fleet(sub) -> None:
    p = sub.add_parser(
        "fleet",
        help="all-pairs deviation matrix + embedding + groups over many "
        "store files (delta*-pruned when --threshold is given)",
    )
    p.add_argument("--data", required=True, nargs="+",
                   help="two or more store datasets (all .txt transactions "
                   "or all .npz tabular)")
    p.add_argument("--kind", choices=("transactions", "tabular"),
                   default="transactions")
    p.add_argument("--names", nargs="+", default=None,
                   help="store names (default: file stems)")
    p.add_argument("--min-support", type=float, default=0.02)
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--max-depth", type=int, default=6,
                   help="dt-model depth (tabular kind)")
    p.add_argument("--min-leaf", type=int, default=25,
                   help="dt-model min rows per leaf (tabular kind)")
    p.add_argument("--threshold", type=float, default=None,
                   help="delta* pruning threshold (transactions kind only): "
                   "pairs whose bound stays at or below it are certified, "
                   "not scanned (default: exhaustive)")
    p.add_argument("--groups", type=int, default=None,
                   help="agglomerative group count (default: threshold "
                   "components when pruning, else no groups)")
    p.add_argument("--linkage", choices=("single", "complete", "average"),
                   default="average")
    p.add_argument("--k", type=int, default=2, help="embedding dimensions")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None,
                   help="write the report here instead of stdout")
    p.add_argument("--executor", choices=("serial", "thread", "process"),
                   default="serial")
    _add_resilience_args(p)
    _add_obs_args(p)


def _add_monitor_stream(sub) -> None:
    p = sub.add_parser(
        "monitor-stream",
        help="online drift monitoring over a transactions or tabular file",
    )
    p.add_argument("--data", required=True)
    p.add_argument(
        "--kind", choices=("transactions", "tabular"), default="transactions",
        help="stream kind: a transactions text file mined into a "
        "lits-model, or a tabular .npz monitored with a dt-model",
    )
    p.add_argument("--window", type=int, default=1_000, help="rows per window")
    p.add_argument(
        "--step", type=int, default=None,
        help="rows between windows (default: window, i.e. tumbling)",
    )
    p.add_argument("--min-support", type=float, default=0.02)
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--max-depth", type=int, default=6,
                   help="dt-model depth (tabular kind)")
    p.add_argument("--min-leaf", type=int, default=25,
                   help="dt-model min rows per leaf (tabular kind)")
    p.add_argument("--boot", "--n-boot", dest="boot", type=_boot_count, default=8,
                   help="bootstrap resamples (count-space, no window "
                   "materialisation); 0 = threshold on the deviation itself")
    p.add_argument("--threshold", type=float, default=95.0,
                   help="significance %% that counts as drift")
    p.add_argument("--delta-threshold", type=float, default=None,
                   help="deviation cut-off when --boot 0")
    p.add_argument("--policy", choices=("fixed", "reset_on_drift"),
                   default="fixed")
    p.add_argument("--executor", choices=("serial", "thread", "process"),
                   default="serial",
                   help="backend counting each chunk, one map-merge shard "
                   "per worker")
    p.add_argument("--seed", type=int, default=0,
                   help="bootstrap RNG seed (default 0: reproducible "
                   "drift verdicts)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="write a crash-durable checkpoint to DIR after "
                   "every chunk; when DIR already holds one, resume from "
                   "it (skipping the rows already ingested) instead of "
                   "starting over")
    _add_resilience_args(p)
    _add_obs_args(p)


def _add_sketch(sub) -> None:
    p = sub.add_parser(
        "sketch",
        help="federated sketch exchange: pack/merge/compare/inspect "
        "kilobyte wire payloads (no data movement)",
    )
    ssub = p.add_subparsers(dest="sketch_command", required=True)

    pk = ssub.add_parser(
        "pack",
        help="turn one site's data file into wire payloads (sketch + "
        "model)",
    )
    pk.add_argument("--data", required=True)
    pk.add_argument("--kind", choices=("transactions", "tabular"),
                    default="transactions")
    pk.add_argument("--out", required=True, help="sketch payload path")
    pk.add_argument("--model-out", default=None,
                    help="also write the site's packed model payload "
                    "(lits stores ship it alongside the sketch)")
    pk.add_argument("--min-support", type=float, default=0.02)
    pk.add_argument("--max-len", type=int, default=2)
    pk.add_argument("--probe-models", nargs="+", default=None,
                    metavar="MODEL",
                    help="packed lits-model payloads of the whole fleet; "
                    "the sketch counts the union of their itemsets so any "
                    "pair becomes exactly comparable (default: this "
                    "store's own itemsets)")
    pk.add_argument("--ref", default=None,
                    help="packed dt-/cluster-model payload giving the "
                    "fleet-shared structure (tabular kind; default: fit a "
                    "dt-model on this data and embed it)")
    pk.add_argument("--max-depth", type=int, default=6)
    pk.add_argument("--min-leaf", type=int, default=25)
    _add_obs_args(pk)

    mg = ssub.add_parser(
        "merge",
        help="sum shard sketch payloads into one (no rows involved)",
    )
    mg.add_argument("--in", dest="inputs", nargs="+", required=True)
    mg.add_argument("--out", required=True)
    _add_obs_args(mg)

    cp = ssub.add_parser(
        "compare",
        help="fleet deviation matrix purely from exchanged payloads",
    )
    cp.add_argument("--in", dest="inputs", nargs="+", required=True,
                    help="sketch payloads, one per store")
    cp.add_argument("--models", nargs="+", default=None,
                    help="packed lits-model payloads aligned with --in "
                    "(lits fleets; partition sketches embed their model)")
    cp.add_argument("--names", nargs="+", default=None,
                    help="store names (default: file stems)")
    cp.add_argument("--threshold", type=float, default=None,
                    help="delta* pruning threshold (lits fleets)")
    cp.add_argument("--boot", type=_boot_count, default=0,
                    help="bootstrap resamples for per-pair significance "
                    "(partition fleets: counts-only CountsResamplePlan)")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--format", choices=("json", "csv"), default="json")
    cp.add_argument("--out", default=None,
                    help="write the report here instead of stdout")
    _add_obs_args(cp)

    ins = ssub.add_parser(
        "inspect",
        help="describe payloads (kind, version, sections) after "
        "verifying every checksum",
    )
    ins.add_argument("--in", dest="inputs", nargs="+", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="focus-repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate_basket(sub)
    _add_generate_classify(sub)
    _add_mine(sub)
    _add_compare_lits(sub)
    _add_compare_dt(sub)
    _add_compare_models(sub)
    _add_fleet(sub)
    _add_monitor_stream(sub)
    _add_sketch(sub)
    return parser


def _cmd_generate_basket(args, out) -> int:
    dataset = generate_basket(
        args.n,
        n_items=args.items,
        avg_transaction_len=args.avg_len,
        n_patterns=args.patterns,
        avg_pattern_len=args.pattern_len,
        seed=args.seed,
    )
    save_transactions(dataset, args.out)
    print(f"wrote {len(dataset)} transactions to {args.out}", file=out)
    return 0


def _cmd_generate_classify(args, out) -> int:
    dataset = generate_classification(args.n, function=args.function, seed=args.seed)
    save_tabular(dataset, args.out)
    print(f"wrote {len(dataset)} tuples (F{args.function}) to {args.out}", file=out)
    return 0


def _cmd_mine(args, out) -> int:
    dataset = _storage_dataset(args.data, "data", args)
    model = LitsModel.mine(dataset, args.min_support, max_len=args.max_len)
    print(f"{len(model)} frequent itemsets at ms={args.min_support:g}", file=out)
    ranked = sorted(model.supports.items(), key=lambda kv: -kv[1])
    for itemset, support in ranked[: args.top]:
        items = ",".join(str(i) for i in sorted(itemset))
        print(f"  {{{items}}}: {support:.4f}", file=out)
    if args.save:
        from repro.data.model_io import save_lits_model

        save_lits_model(model, args.save)
        print(f"saved model to {args.save}", file=out)
    return 0


def _cmd_compare_models(args, out) -> int:
    from repro.data.model_io import load_lits_model

    m1 = load_lits_model(args.model1)
    m2 = load_lits_model(args.model2)
    bound = upper_bound_deviation(m1, m2)
    print(
        f"delta* = {bound.value:.6f} over {len(bound.itemsets)} itemsets "
        f"(union of {len(m1)} and {len(m2)})",
        file=out,
    )
    return 0


def _cmd_compare_lits(args, out) -> int:
    d1 = _storage_dataset(args.data1, "d1", args)
    d2 = _storage_dataset(args.data2, "d2", args)

    def builder(d):
        return LitsModel.mine(d, args.min_support, max_len=args.max_len)

    m1, m2 = builder(d1), builder(d2)
    result = deviation(m1, m2, d1, d2)
    bound = upper_bound_deviation(m1, m2)
    print(f"delta  = {result.value:.6f} over {len(result.regions)} regions", file=out)
    print(f"delta* = {bound.value:.6f} (models only)", file=out)
    if args.boot > 0:
        sig = deviation_significance(
            d1, d2, builder, n_boot=args.boot,
            rng=np.random.default_rng(args.seed),
            models=(m1, m2),
        )
        print(
            f"significance = {sig.significance_percent:.1f}% "
            f"(p = {sig.p_value:.4f}, seed {args.seed})",
            file=out,
        )
    return 0


def _cmd_compare_dt(args, out) -> int:
    d1 = load_tabular(args.data1)
    d2 = load_tabular(args.data2)
    params = TreeParams(max_depth=args.max_depth, min_leaf=args.min_leaf)

    def builder(d):
        return DtModel.fit(d, params)

    m1, m2 = builder(d1), builder(d2)
    result = deviation(m1, m2, d1, d2)
    print(
        f"delta = {result.value:.6f} over {len(result.regions)} regions "
        f"({m1.n_leaves} x {m2.n_leaves} leaves)",
        file=out,
    )
    if args.boot > 0:
        sig = deviation_significance(
            d1, d2, builder, n_boot=args.boot,
            rng=np.random.default_rng(args.seed),
            models=(m1, m2),
        )
        print(
            f"significance = {sig.significance_percent:.1f}% "
            f"(p = {sig.p_value:.4f}, seed {args.seed})",
            file=out,
        )
    return 0


def _cmd_fleet(args, out) -> int:
    import json
    from pathlib import Path

    from repro.fleet import FleetDeviationMatrix

    if args.kind == "tabular" and args.threshold is not None:
        print(
            "--threshold (delta* pruning) applies to the transactions kind "
            "only: the delta* bound exists for lits-models, not partition "
            "models. Drop --threshold to compute the tabular fleet "
            "exhaustively.",
            file=sys.stderr,
        )
        return 2

    if args.kind == "tabular":
        datasets = [load_tabular(p) for p in args.data]
        params = TreeParams(max_depth=args.max_depth, min_leaf=args.min_leaf)
        models = [DtModel.fit(d, params) for d in datasets]
    else:
        datasets = [load_transactions(p) for p in args.data]
        models = [
            LitsModel.mine(d, args.min_support, max_len=args.max_len)
            for d in datasets
        ]
    names = args.names or [Path(p).stem for p in args.data]
    runner = _resolve_cli_executor(args)
    engine = FleetDeviationMatrix(
        models, datasets, names=names, executor=runner
    )
    try:
        if args.threshold is not None:
            result = engine.pruned(args.threshold)
        else:
            result = engine.exhaustive()
    finally:
        # a backend *name* is owned and released by the engine's fans; a
        # supervised instance is ours to release
        if not isinstance(runner, str):
            runner.shutdown()

    if args.format == "csv":
        payload = result.to_csv()
    else:
        report = result.to_report(
            k=args.k, n_groups=args.groups, linkage=args.linkage
        )
        payload = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        out.write(payload)
    print(
        f"{len(names)} stores, {result.n_pairs} pairs: "
        f"{result.n_scanned} scanned exactly, {result.n_model_only} from "
        f"models alone, {result.n_pruned} certified by delta*"
        + (f" at threshold {result.threshold:g}" if result.threshold is not None
           else "")
        + (f"; wrote {args.out}" if args.out else ""),
        file=sys.stderr if not args.out else out,
    )
    return 0


def _cmd_monitor_stream(args, out) -> int:
    from repro.stream import (
        OnlineChangeMonitor,
        stream_tabular_chunks,
        stream_transaction_chunks,
    )

    chunk_rows = args.step or args.window
    common = dict(
        window_size=args.window,
        step=args.step,
        n_boot=args.boot,
        threshold=args.threshold,
        delta_threshold=args.delta_threshold,
        policy=args.policy,
        rng=np.random.default_rng(args.seed),
        executor=_resolve_cli_executor(args),
    )
    if args.kind == "tabular":
        _, chunks = stream_tabular_chunks(args.data, chunk_rows)
        params = TreeParams(max_depth=args.max_depth, min_leaf=args.min_leaf)

        def builder(d):
            return DtModel.fit(d, params)

        monitor = OnlineChangeMonitor(builder, kind="tabular", **common)
    else:
        n_items, chunks = stream_transaction_chunks(args.data, chunk_rows)

        def builder(d):
            return LitsModel.mine(d, args.min_support, max_len=args.max_len)

        monitor = OnlineChangeMonitor(builder, n_items, **common)

    if args.checkpoint_dir:
        from repro.resilience import has_checkpoint

        if has_checkpoint(args.checkpoint_dir):
            monitor.resume(args.checkpoint_dir)
            chunks = _skip_rows(chunks, monitor.rows_ingested)
            print(
                f"resumed from {args.checkpoint_dir} at row "
                f"{monitor.rows_ingested}",
                file=sys.stderr,
            )

    try:
        for chunk in chunks:
            for observation in monitor.push(chunk):
                print(observation.describe(), file=out)
            if args.checkpoint_dir:
                monitor.checkpoint(args.checkpoint_dir)
        if monitor.is_warming_up:
            print(
                f"stream ended during warm-up: fewer than {args.window} rows",
                file=out,
            )
            return 0
        for observation in monitor.flush():
            print(f"{observation.describe()} [partial final window]", file=out)
        # totals come from the (checkpoint-restored) lifetime history, so
        # a resumed run reports exactly what the uninterrupted run would
        n_drifted = sum(1 for o in monitor.history if o.drifted)
        print(
            f"{len(monitor.history)} windows monitored, {n_drifted} drifted; "
            f"{monitor.rows_sketched} rows sketched incrementally",
            file=out,
        )
        return 0
    finally:
        # even on a mid-stream error: pooled workers must not be left
        # to interpreter-exit teardown (it can race CPython's atexit)
        monitor.close()


def _cmd_sketch_pack(args, out) -> int:
    from pathlib import Path

    from repro.wire import pack, unpack_model

    if args.kind == "transactions":
        dataset = load_transactions(args.data)
        if args.probe_models:
            # the two-leg protocol: the fleet's models already travelled,
            # so sketch exactly their union -- every site counting the
            # same collection is what makes sketches mergeable across
            # shards and exactly comparable across stores (the local
            # model is mined only if this site also ships one)
            from repro.fleet import probe_itemsets

            fleet_models = []
            for path in args.probe_models:
                probe = unpack_model(Path(path).read_bytes())
                if not isinstance(probe, LitsModel):
                    print(
                        f"--probe-models: {path} is not a lits-model payload",
                        file=sys.stderr,
                    )
                    return 2
                fleet_models.append(probe)
            probes = probe_itemsets(fleet_models)
            model = (
                LitsModel.mine(dataset, args.min_support, max_len=args.max_len)
                if args.model_out
                else None
            )
        else:
            model = LitsModel.mine(
                dataset, args.min_support, max_len=args.max_len
            )
            probes = model.itemsets
        from repro.stream.sketch import SupportSketch

        sketch_payload = pack(SupportSketch.from_dataset(dataset, probes))
        model_payload = pack(model) if model is not None else b""
        what = f"{len(probes)} itemsets over {len(dataset)} transactions"
    else:
        dataset = load_tabular(args.data)
        if args.ref:
            ref = unpack_model(Path(args.ref).read_bytes())
            if isinstance(ref, LitsModel):
                print(
                    f"--ref: {args.ref} is a lits-model; a tabular sketch "
                    "needs a dt- or cluster-model structure",
                    file=sys.stderr,
                )
                return 2
        else:
            params = TreeParams(max_depth=args.max_depth, min_leaf=args.min_leaf)
            ref = DtModel.fit(dataset, params)
        from repro.stream.sketch import PartitionSketch

        sketch = PartitionSketch.from_dataset(dataset, ref.structure)
        sketch_payload = pack(sketch, model=ref)
        model_payload = pack(ref)
        what = (
            f"{len(sketch.counts)} regions over {len(dataset)} rows "
            "(model embedded)"
        )
    Path(args.out).write_bytes(sketch_payload)
    print(
        f"packed {what}: {len(sketch_payload)} bytes -> {args.out}", file=out
    )
    if args.model_out:
        Path(args.model_out).write_bytes(model_payload)
        print(
            f"packed model: {len(model_payload)} bytes -> {args.model_out}",
            file=out,
        )
    return 0


def _cmd_sketch_merge(args, out) -> int:
    from pathlib import Path

    from repro.wire import (
        KIND_PARTITION_SKETCH,
        KIND_SUPPORT_SKETCH,
        kind_of,
        pack,
        unpack_partition_payload,
        unpack_partition_sketch,
        unpack_support_sketch,
    )

    payloads = [Path(p).read_bytes() for p in args.inputs]
    kind = kind_of(payloads[0])
    if kind == KIND_SUPPORT_SKETCH:
        sketches = [unpack_support_sketch(p) for p in payloads]
        merged_payload = pack(sum(sketches[1:], sketches[0]))
    elif kind == KIND_PARTITION_SKETCH:
        first, model = unpack_partition_payload(payloads[0])
        rest = [unpack_partition_sketch(p) for p in payloads[1:]]
        merged_payload = pack(sum(rest, first), model=model)
    else:
        print(
            f"{args.inputs[0]} is not a sketch payload (models do not "
            "merge; re-mine over the merged data instead)",
            file=sys.stderr,
        )
        return 2
    Path(args.out).write_bytes(merged_payload)
    print(
        f"merged {len(payloads)} sketches -> {args.out} "
        f"({len(merged_payload)} bytes)",
        file=out,
    )
    return 0


def _cmd_sketch_compare(args, out) -> int:
    import json
    from pathlib import Path

    from repro.fleet import FleetDeviationMatrix

    sketch_payloads = [Path(p).read_bytes() for p in args.inputs]
    if args.models is not None:
        if len(args.models) != len(args.inputs):
            print(
                f"--models must align with --in: got {len(args.models)} "
                f"models for {len(args.inputs)} sketches",
                file=sys.stderr,
            )
            return 2
        model_payloads = [Path(p).read_bytes() for p in args.models]
        shipments = list(zip(model_payloads, sketch_payloads))
    else:
        shipments = list(sketch_payloads)
    names = args.names or [Path(p).stem for p in args.inputs]
    fleet = FleetDeviationMatrix.from_sketches(shipments, names=names)
    if args.threshold is not None and fleet.kind != "lits":
        print(
            "--threshold (delta* pruning) applies to lits fleets only; "
            "partition fleets are exact from the shared structure -- use "
            "--boot for per-pair significance instead.",
            file=sys.stderr,
        )
        return 2
    if args.threshold is not None:
        result = fleet.pruned(args.threshold)
    else:
        result = fleet.exhaustive()

    if args.format == "csv":
        payload = result.to_csv()
    else:
        report = result.to_report()
        report["payload_bytes"] = list(fleet.payload_bytes)
        if args.boot > 0 and fleet.kind == "partition":
            n = len(fleet.names)
            report["qualification"] = [
                {
                    "pair": [fleet.names[i], fleet.names[j]],
                    "p_value": fleet.qualify(
                        i, j, n_boot=args.boot, seed=args.seed
                    ).p_value,
                }
                for i in range(n)
                for j in range(i + 1, n)
            ]
        payload = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        out.write(payload)
    shipped = sum(fleet.payload_bytes)
    print(
        f"{len(fleet.names)} stores compared from {shipped} payload bytes "
        f"(no rows shipped): {result.n_sketch_exact} pairs exact from "
        f"sketches, {result.n_pruned} certified by delta*"
        + (f"; wrote {args.out}" if args.out else ""),
        file=sys.stderr if not args.out else out,
    )
    return 0


def _cmd_sketch_inspect(args, out) -> int:
    import json
    from pathlib import Path

    from repro.wire import payload_info

    for path in args.inputs:
        info = payload_info(Path(path).read_bytes())
        info["path"] = path
        print(json.dumps(info, indent=2), file=out)
    return 0


_SKETCH_COMMANDS = {
    "pack": _cmd_sketch_pack,
    "merge": _cmd_sketch_merge,
    "compare": _cmd_sketch_compare,
    "inspect": _cmd_sketch_inspect,
}


def _cmd_sketch(args, out) -> int:
    return _SKETCH_COMMANDS[args.sketch_command](args, out)


COMMANDS = {
    "generate-basket": _cmd_generate_basket,
    "generate-classify": _cmd_generate_classify,
    "mine": _cmd_mine,
    "compare-lits": _cmd_compare_lits,
    "compare-dt": _cmd_compare_dt,
    "compare-models": _cmd_compare_models,
    "fleet": _cmd_fleet,
    "monitor-stream": _cmd_monitor_stream,
    "sketch": _cmd_sketch,
}


def _emit_observability(args, registry: MetricsRegistry) -> None:
    """Write the ``--metrics`` snapshot / ``--profile`` report."""
    metrics_target = getattr(args, "metrics", None)
    if metrics_target == "-":
        print(registry.snapshot_json(), file=sys.stderr)
    elif metrics_target is not None:
        from pathlib import Path

        Path(metrics_target).write_text(registry.snapshot_json() + "\n")
        print(f"wrote metrics snapshot to {metrics_target}", file=sys.stderr)
    if getattr(args, "profile", False):
        print(registry.report(), file=sys.stderr)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    if getattr(args, "metrics", None) is None and not getattr(
        args, "profile", False
    ):
        return command(args, out)
    registry = MetricsRegistry()
    try:
        with use_registry(registry):
            return command(args, out)
    finally:
        _emit_observability(args, registry)


if __name__ == "__main__":
    raise SystemExit(main())
