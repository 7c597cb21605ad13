"""Regenerate the fleet CLI golden corpus and its expected artifacts.

Run from the repository root::

    PYTHONPATH=src python tests/fleet/make_cli_golden.py          # artifacts
    PYTHONPATH=src python tests/fleet/make_cli_golden.py --corpus # both

Only rewrite ``golden_cli/expected/`` when a change to ``repro fleet``,
``repro sketch`` or ``repro monitor-stream`` output is deliberate:
``test_cli_golden.py`` exists to hold that output byte-identical across
refactors.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import cli_golden as g  # noqa: E402

from repro.cli import main  # noqa: E402


def make_corpus() -> None:
    g.CORPUS.mkdir(parents=True, exist_ok=True)
    for seed, (name, pattern_len) in enumerate(zip(g.BASKETS, (4, 4, 8)), 1):
        main([
            "generate-basket", "--out", str(g.CORPUS / name), "--n", "300",
            "--items", "40", "--patterns", "30", "--avg-len", "5",
            "--pattern-len", str(pattern_len), "--seed", str(seed),
        ])
    for seed, (name, function) in enumerate(zip(g.TABLES, (1, 1, 2)), 1):
        main([
            "generate-classify", "--out", str(g.CORPUS / name), "--n", "300",
            "--function", str(function), "--seed", str(seed),
        ])


def make_expected() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        artifacts = g.run_all(Path(scratch))
    shutil.rmtree(g.EXPECTED, ignore_errors=True)
    g.EXPECTED.mkdir(parents=True)
    for name, payload in artifacts.items():
        (g.EXPECTED / name).write_bytes(payload)


if __name__ == "__main__":
    if "--corpus" in sys.argv[1:]:
        make_corpus()
    make_expected()
