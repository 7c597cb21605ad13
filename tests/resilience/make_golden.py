"""Regenerate the committed golden v1 checkpoints.

Run from the repository root::

    PYTHONPATH=src python tests/resilience/make_golden.py

Only run this when the checkpoint format version is deliberately
bumped: ``tests/resilience/golden/`` pins that a checkpoint written by
an older build resumes bit-identically, so the committed files never
regenerate on CI.

Each scenario (one transaction stream, one tabular stream, both under
``reset_on_drift``) is pushed in chunks that do not align with the
monitor's step, checkpointing after every push, until the monitor is
past at least one reference promotion with rows waiting in its buffer.
That committed checkpoint goes to ``golden/<scenario>/checkpoint/``,
the stream's remaining rows to ``golden/<scenario>/rest.*``, and the
observation lines the uninterrupted run emits for those rows (pushes
then ``flush``) to ``golden/<scenario>/expected.txt``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import golden_stream as gs  # noqa: E402

from repro.data.io import save_tabular, save_transactions  # noqa: E402
from repro.data.transactions import TransactionDataset  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"


def _promoted(monitor) -> bool:
    return any(o.reference_index != 0 for o in monitor.history)


def _buffered(monitor) -> int:
    """Rows the monitor holds short of a step (its row buffer)."""
    past_warmup = monitor.rows_ingested - monitor.window_size
    return past_warmup % monitor.step if past_warmup > 0 else 0


def _write(name: str, chunks: list, save_rest) -> None:
    out = GOLDEN / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        live = gs.make_monitor(name)
        for cut, chunk in enumerate(chunks, start=1):
            live.push(chunk)
            live.checkpoint(tmp)
            if _promoted(live) and _buffered(live):
                break
        else:
            raise SystemExit(f"{name}: no promotion with a non-empty buffer")
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


def main() -> None:
    _write(
        "transactions",
        gs.transaction_chunks(),
        lambda rest, out: save_transactions(
            TransactionDataset([t for c in rest for t in c], gs.N_ITEMS),
            out / "rest.rows",
        ),
    )
    _write(
        "tabular",
        gs.tabular_chunks(),
        lambda rest, out: save_tabular(
            rest[0].concat_many(rest), out / "rest.npz"
        ),
    )


if __name__ == "__main__":
    main()
