"""``repro fleet``, ``repro sketch`` and ``repro monitor-stream`` output
is pinned byte for byte.

On the committed seeded corpus, every step of :mod:`cli_golden` --
lits fleets exhaustive and pruned, a tabular fleet, the two-leg lits
sketch protocol compared with a threshold, a shared-structure
partition fleet qualified by bootstrap, a sliding lits stream and a
checkpointed tabular stream run twice (fresh, then resumed) -- must
print and write exactly the committed bytes. Both fleet engines and
the stream row path sit under these commands, so a refactor of any
shows here as a changed report, summary line or payload.
"""

from __future__ import annotations

import cli_golden as g


def test_cli_output_matches_the_golden_bytes(tmp_path):
    artifacts = g.run_all(tmp_path)
    expected = {p.name: p.read_bytes() for p in g.EXPECTED.iterdir()}
    assert sorted(artifacts) == sorted(expected)
    changed = [n for n, payload in artifacts.items() if payload != expected[n]]
    assert not changed, changed
