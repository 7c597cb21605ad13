"""Golden v1 checkpoints: an older build's checkpoint resumes exactly.

``golden/<scenario>/checkpoint/`` holds a committed checkpoint written
by ``make_golden.py`` mid-stream, past a ``reset_on_drift`` promotion
and with rows in the monitor's buffer; ``rest.*`` holds the stream's
remaining rows and ``expected.txt`` the observations the uninterrupted
run emitted for them. Resuming today must reproduce those lines at full
float precision, so a refactor of the monitor or the checkpoint writer
cannot silently change what a v1 checkpoint means.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import golden_stream as gs
import pytest

from repro.data.io import load_tabular, load_transactions
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
        # a copy: the resumed monitor's next checkpoint would write here
        directory = tmp_path / "checkpoint"
        shutil.copytree(GOLDEN / scenario / "checkpoint", directory)
        monitor = gs.make_monitor(scenario)
        monitor.resume(directory)
        lines = []
        for chunk in _rest(scenario):
            lines.extend(gs.line(o) for o in monitor.push(chunk))
        lines.extend(gs.line(o) for o in monitor.flush())
        expected = (GOLDEN / scenario / "expected.txt").read_text()
        assert "\n".join(lines) + "\n" == expected
