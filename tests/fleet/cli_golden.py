"""The CLI golden scenarios: a seeded corpus and the commands run on it.

``golden_cli/corpus/`` holds three small basket stores and three small
tabular stores. :func:`run_all` copies the corpus into a scratch
directory, runs every :data:`STEPS` command there with relative paths,
and returns each artifact by name: a step's stdout and stderr, plus
every file the commands wrote (directories, such as a checkpoint
directory, are left out). :func:`run_monitor_steps` reruns the
``monitor-stream`` steps on another executor. ``golden_cli/expected/``
holds the committed artifacts; ``make_cli_golden.py`` rewrites them.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path
from typing import Iterable

from repro.cli import main

HERE = Path(__file__).parent / "golden_cli"
CORPUS = HERE / "corpus"
EXPECTED = HERE / "expected"

BASKETS = ["s1.txt", "s2.txt", "s3.txt"]
TABLES = ["t1.npz", "t2.npz", "t3.npz"]
SKETCHES = [f"s{k}.sketch" for k in (1, 2, 3)]
MODELS = [f"s{k}.model" for k in (1, 2, 3)]
LITS = ["--min-support", "0.05", "--max-len", "2"]

#: ``(step name, argv)``, run in order: later steps read earlier files.
STEPS: list[tuple[str, list[str]]] = [
    ("fleet-lits", ["fleet", "--data", *BASKETS, *LITS]),
    ("fleet-lits-threshold", [
        "fleet", "--data", *BASKETS, *LITS, "--threshold", "21.5",
        "--groups", "2", "--out", "fleet_pruned.json",
    ]),
    ("fleet-tabular", [
        "fleet", "--kind", "tabular", "--data", *TABLES, "--max-depth", "3",
        "--groups", "2",
    ]),
    # the two-leg lits protocol: models travel first, then every site
    # sketches the fleet's probe union
    *[
        (f"pack-{model[:2]}", [
            "sketch", "pack", "--kind", "transactions", "--data", data,
            *LITS, "--out", sketch, "--model-out", model,
        ])
        for data, sketch, model in zip(BASKETS, SKETCHES, MODELS)
    ],
    *[
        (f"probe-{sketch[:2]}", [
            "sketch", "pack", "--kind", "transactions", "--data", data,
            *LITS, "--probe-models", *MODELS, "--out", sketch,
        ])
        for data, sketch in zip(BASKETS, SKETCHES)
    ],
    ("compare-lits", [
        "sketch", "compare", "--in", *SKETCHES, "--models", *MODELS,
        "--threshold", "21", "--out", "compare_lits.json",
    ]),
    ("pack-t1", [
        "sketch", "pack", "--kind", "tabular", "--data", "t1.npz",
        "--max-depth", "3", "--out", "t1.sketch", "--model-out", "ref.model",
    ]),
    *[
        (f"pack-{table[:2]}", [
            "sketch", "pack", "--kind", "tabular", "--data", table,
            "--ref", "ref.model", "--out", f"{table[:2]}.sketch",
        ])
        for table in TABLES[1:]
    ],
    ("compare-partition", [
        "sketch", "compare", "--in", "t1.sketch", "t2.sketch", "t3.sketch",
        "--boot", "20", "--seed", "7", "--out", "compare_partition.json",
    ]),
    ("monitor-lits-sliding", [
        "monitor-stream", "--data", "s1.txt", "--window", "100", "--step",
        "50", "--boot", "10", "--seed", "3", *LITS,
    ]),
    # the same tabular command twice: the second run resumes from the
    # checkpoint the first one left at the end of the stream
    *[
        (f"monitor-tabular-{run}", [
            "monitor-stream", "--kind", "tabular", "--data", "t1.npz",
            "--window", "120", "--step", "60", "--boot", "10", "--seed", "5",
            "--max-depth", "3", "--checkpoint-dir", "ckpt",
        ])
        for run in ("fresh", "resumed")
    ],
    # pairwise significance: the count-space bootstrap of a lits and a
    # partition structure
    ("compare-lits-boot", [
        "compare-lits", "--data1", "s1.txt", "--data2", "s2.txt", *LITS,
        "--boot", "20", "--seed", "3",
    ]),
    ("compare-dt-boot", [
        "compare-dt", "--data1", "t1.npz", "--data2", "t2.npz",
        "--max-depth", "3", "--boot", "20", "--seed", "5",
    ]),
]


def run_all(workdir: Path) -> dict[str, bytes]:
    """Every step's stdout/stderr and every written file, by name."""
    artifacts = _run_steps(workdir, range(len(STEPS)), [])
    for path in sorted(workdir.iterdir()):
        if path.is_file() and not (CORPUS / path.name).exists():
            artifacts[path.name] = path.read_bytes()
    return artifacts


def run_monitor_steps(workdir: Path, executor: str) -> dict[str, bytes]:
    """The ``monitor-stream`` steps' stdout under ``--executor executor``,
    named as :func:`run_all` names the serial run's."""
    steps = [k for k, (_, argv) in enumerate(STEPS) if argv[0] == "monitor-stream"]
    artifacts = _run_steps(workdir, steps, ["--executor", executor])
    return {name: out for name, out in artifacts.items() if name.endswith(".stdout")}


def _run_steps(
    workdir: Path, steps: Iterable[int], extra: list[str]
) -> dict[str, bytes]:
    """Run the numbered steps, each with ``extra`` appended, in a copy of
    the corpus; return their stdout and stderr by name."""
    for path in CORPUS.iterdir():
        shutil.copy(path, workdir / path.name)
    artifacts: dict[str, bytes] = {}
    with contextlib.chdir(workdir):
        for k in steps:
            name, argv = STEPS[k]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*argv, *extra], out=out)
            assert code == 0, (name, err.getvalue())
            artifacts[f"{k:02d}-{name}.stdout"] = out.getvalue().encode()
            artifacts[f"{k:02d}-{name}.stderr"] = err.getvalue().encode()
    return artifacts
