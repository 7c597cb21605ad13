"""``repro fleet``, ``repro sketch`` and ``repro monitor-stream`` output
is pinned byte for byte.

On the committed seeded corpus, every step of :mod:`cli_golden` --
lits fleets exhaustive and pruned, a tabular fleet, the two-leg lits
sketch protocol compared with a threshold, a shared-structure
partition fleet qualified by bootstrap, a sliding lits stream and a
checkpointed tabular stream run twice (fresh, then resumed) -- must
print and write exactly the committed bytes. Both fleet engines and
the stream row path sit under these commands, so a refactor of any
shows here as a changed report, summary line or payload. The
``monitor-stream`` steps print the same bytes on the thread and process
executors, whose fans cut each chunk into one shard per worker.
"""

from __future__ import annotations

import cli_golden as g
import pytest


def test_cli_output_matches_the_golden_bytes(tmp_path):
    artifacts = g.run_all(tmp_path)
    expected = {p.name: p.read_bytes() for p in g.EXPECTED.iterdir()}
    assert sorted(artifacts) == sorted(expected)
    changed = [n for n, payload in artifacts.items() if payload != expected[n]]
    assert not changed, changed


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_monitor_stream_prints_the_serial_bytes_on_pooled_executors(
    tmp_path, executor
):
    artifacts = g.run_monitor_steps(tmp_path, executor)
    assert len(artifacts) == 3  # lits sliding, tabular fresh and resumed
    changed = [
        name
        for name, payload in artifacts.items()
        if payload != (g.EXPECTED / name).read_bytes()
    ]
    assert not changed, changed
