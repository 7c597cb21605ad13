"""Golden v1 checkpoints: an older build's checkpoint is refused.

``golden/<scenario>/checkpoint/`` holds a committed format-1 checkpoint
written by ``make_golden.py`` mid-stream, past a ``reset_on_drift``
promotion and with rows in the monitor's buffer; ``rest.*`` holds the
stream's remaining rows and ``expected.txt`` the observations the
uninterrupted run emitted for them under bootstrap draw scheme 2. The
resume path reads format 3 only (and every format-1 checkpoint carries
a scheme-2 generator state, which no scheme-3 build can continue), so
resuming them must fail typed, naming version 1, instead of emitting
observations on a different random stream. ``golden_v3/`` pins
bit-identical resume for the current format and scheme.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import golden_stream as gs
import pytest

from repro.data.io import load_tabular, load_transactions
from repro.errors import CheckpointError
from repro.stream.chunks import iter_chunks, iter_tabular_chunks

GOLDEN = Path(__file__).parent / "golden"


def _rest(scenario: str) -> list:
    if scenario == "transactions":
        rows = load_transactions(GOLDEN / scenario / "rest.rows")
        return list(iter_chunks(rows, gs.CHUNK))
    table = load_tabular(GOLDEN / scenario / "rest.npz")
    return list(iter_tabular_chunks(table, gs.CHUNK))


@pytest.mark.parametrize("scenario", ["transactions", "tabular"])
class TestGoldenCheckpoint:
    def test_checkpoint_is_past_a_promotion_with_buffered_rows(
        self, scenario
    ):
        directory = GOLDEN / scenario / "checkpoint"
        manifest = json.loads((directory / "CHECKPOINT.json").read_text())
        assert manifest["version"] == 1
        state = json.loads(
            (directory / manifest["generation"] / "state.json").read_text()
        )
        assert state["buffer"] is not None
        assert state["windows"] is not None
        assert state["monitor"]["reference_index"] > 0

    def test_resume_reproduces_the_uninterrupted_run(self, scenario, tmp_path):
        """The format-1 run cannot be continued: the resume refuses,
        names the version and leaves the monitor fresh, so nothing is
        emitted on a different random stream."""
        directory = tmp_path / "checkpoint"
        shutil.copytree(GOLDEN / scenario / "checkpoint", directory)
        assert _rest(scenario)  # the run continued past the checkpoint
        monitor = gs.make_monitor(scenario)
        with pytest.raises(CheckpointError, match="version 1"):
            monitor.resume(directory)
        assert monitor.rows_ingested == 0 and monitor.history == []
