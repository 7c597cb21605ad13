"""Regenerate the committed golden checkpoints into a directory.

Run from the repository root with the directory to write and,
optionally, the scenarios to write (all four by default)::

    PYTHONPATH=src python tests/resilience/make_golden.py tests/resilience/golden_v3

The checkpoints are written in the current format version and draw
scheme. Only run this when one of those is deliberately bumped, into a
new directory: each golden directory pins what a checkpoint written by
an older build means, so the committed files never regenerate on CI,
and a scenario directory that already exists is refused rather than
overwritten (``golden/`` holds the version-1 fixtures and
``golden_v2/`` and ``golden_scheme3/`` version-2 ones, which no current
build can write; ``golden/`` and ``golden_v2/`` hold scheme-2 bootstrap
checkpoints, ``golden_scheme3/`` their scheme-3 successors, and
``golden_v3/`` the version-3 journals of all three scenarios and of
``tabular_fixed``, written before a sketch-only ring stopped persisting
chunk rows).

Each scenario is pushed in chunks that do not align with the monitor's
step, checkpointing after every push, until the monitor is past at
least one reference promotion (for ``tabular_fixed``, whose reference
never moves, one drifted window) with rows waiting in its buffer (and,
for ``history``, past a merged history block). That committed
checkpoint goes to ``<dir>/<scenario>/checkpoint/``, the stream's
remaining rows to ``<dir>/<scenario>/rest.*``, and the observation
lines the uninterrupted run emits for those rows (pushes then
``flush``) to ``<dir>/<scenario>/expected.txt``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import golden_stream as gs  # noqa: E402

from repro.core.monitor import _HISTORY_BLOCK, _HISTORY_FANOUT  # noqa: E402
from repro.data.io import save_tabular, save_transactions  # noqa: E402
from repro.data.transactions import TransactionDataset  # noqa: E402


def _moved(name: str, monitor) -> bool:
    """Past a promotion; under the fixed policy, past a drift."""
    if name == "tabular_fixed":
        return any(o.drifted for o in monitor.history)
    return any(o.reference_index != 0 for o in monitor.history)


def _buffered(monitor) -> int:
    """Rows the monitor holds short of a step (its row buffer)."""
    past_warmup = monitor.rows_ingested - monitor.window_size
    return past_warmup % monitor.step if past_warmup > 0 else 0


def _write(out: Path, name: str, chunks: list, save_rest) -> None:
    out = out / name
    if out.exists():
        raise SystemExit(f"{out} exists; golden checkpoints are never overwritten")
    out.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        live = gs.make_monitor(name)
        for cut, chunk in enumerate(chunks, start=1):
            live.push(chunk)
            live.checkpoint(tmp)
            merged = _HISTORY_BLOCK * _HISTORY_FANOUT
            sealed = name != "history" or len(live.history) > merged
            if _moved(name, live) and _buffered(live) and sealed:
                break
        else:
            raise SystemExit(f"{name}: no promotion or drift with a non-empty buffer")
        shutil.copytree(tmp, out / "checkpoint")
    rest = chunks[cut:]
    save_rest(rest, out)

    full = gs.make_monitor(name)
    for chunk in chunks[:cut]:
        full.push(chunk)
    lines = []
    for chunk in rest:
        lines.extend(gs.line(o) for o in full.push(chunk))
    lines.extend(gs.line(o) for o in full.flush())
    if not lines:
        raise SystemExit(f"{name}: no observations after the checkpoint")
    (out / "expected.txt").write_text("\n".join(lines) + "\n")
    print(f"{name}: checkpoint after {live.rows_ingested} rows, "
          f"{len(lines)} expected lines")


def _save_rows(rest: list, out: Path) -> None:
    save_transactions(
        TransactionDataset([t for c in rest for t in c], gs.N_ITEMS),
        out / "rest.rows",
    )


def _save_table(rest: list, out: Path) -> None:
    save_tabular(rest[0].concat_many(rest), out / "rest.npz")


SCENARIOS = {
    "transactions": (gs.transaction_chunks, _save_rows),
    "tabular": (gs.tabular_chunks, _save_table),
    "history": (gs.history_chunks, _save_rows),
    "tabular_fixed": (gs.tabular_chunks, _save_table),
}


def main(argv: list[str]) -> None:
    names = argv[2:] or list(SCENARIOS)
    if len(argv) < 2 or not set(names) <= set(SCENARIOS):
        raise SystemExit(
            f"usage: {argv[0]} OUTPUT_DIR [{' | '.join(SCENARIOS)} ...]"
        )
    out = Path(argv[1])
    for name in names:
        chunks, save_rest = SCENARIOS[name]
        _write(out, name, chunks(), save_rest)


if __name__ == "__main__":
    main(sys.argv)
