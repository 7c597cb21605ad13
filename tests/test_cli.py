"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import argparse
import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv) -> str:
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0
    return out.getvalue()


class TestGenerate:
    def test_generate_basket(self, tmp_path):
        path = tmp_path / "txns.txt"
        text = run_cli(
            ["generate-basket", "--out", str(path), "--n", "200",
             "--items", "50", "--seed", "1"]
        )
        assert "200 transactions" in text
        assert path.exists()

    def test_generate_classify(self, tmp_path):
        path = tmp_path / "people.npz"
        text = run_cli(
            ["generate-classify", "--out", str(path), "--n", "300",
             "--function", "2", "--seed", "1"]
        )
        assert "300 tuples" in text
        assert path.exists()


class TestMineAndCompare:
    @pytest.fixture
    def basket_files(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run_cli(["generate-basket", "--out", str(a), "--n", "400",
                 "--items", "60", "--patterns", "40", "--avg-len", "6",
                 "--seed", "1"])
        run_cli(["generate-basket", "--out", str(b), "--n", "400",
                 "--items", "60", "--patterns", "40", "--avg-len", "6",
                 "--pattern-len", "6", "--seed", "2"])
        return a, b

    def test_mine(self, basket_files):
        a, _ = basket_files
        text = run_cli(
            ["mine", "--data", str(a), "--min-support", "0.05", "--top", "5"]
        )
        assert "frequent itemsets" in text

    def test_compare_lits(self, basket_files):
        a, b = basket_files
        text = run_cli(
            ["compare-lits", "--data1", str(a), "--data2", str(b),
             "--min-support", "0.05", "--max-len", "2"]
        )
        assert "delta  =" in text
        assert "delta* =" in text

    def test_compare_lits_with_bootstrap(self, basket_files):
        a, b = basket_files
        text = run_cli(
            ["compare-lits", "--data1", str(a), "--data2", str(b),
             "--min-support", "0.05", "--max-len", "2",
             "--boot", "5", "--seed", "3"]
        )
        assert "significance =" in text

    def test_compare_dt(self, tmp_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        run_cli(["generate-classify", "--out", str(a), "--n", "600",
                 "--function", "1", "--seed", "1"])
        run_cli(["generate-classify", "--out", str(b), "--n", "600",
                 "--function", "2", "--seed", "2"])
        text = run_cli(
            ["compare-dt", "--data1", str(a), "--data2", str(b),
             "--max-depth", "4", "--min-leaf", "30", "--boot", "4",
             "--seed", "5"]
        )
        assert "delta =" in text
        assert "significance =" in text


class TestModelWorkflow:
    def test_mine_save_then_compare_models(self, tmp_path):
        """Mine once, persist the models, compare via delta* -- no data."""
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run_cli(["generate-basket", "--out", str(a), "--n", "400",
                 "--items", "60", "--patterns", "40", "--avg-len", "6",
                 "--seed", "1"])
        run_cli(["generate-basket", "--out", str(b), "--n", "400",
                 "--items", "60", "--patterns", "40", "--avg-len", "6",
                 "--pattern-len", "6", "--seed", "2"])
        ma = tmp_path / "a.model.json"
        mb = tmp_path / "b.model.json"
        text = run_cli(["mine", "--data", str(a), "--min-support", "0.05",
                        "--max-len", "2", "--save", str(ma)])
        assert "saved model" in text
        run_cli(["mine", "--data", str(b), "--min-support", "0.05",
                 "--max-len", "2", "--save", str(mb)])
        text = run_cli(
            ["compare-models", "--model1", str(ma), "--model2", str(mb)]
        )
        assert "delta* =" in text


class TestMonitorStream:
    @pytest.fixture
    def stream_file(self, tmp_path):
        """A quiet process followed by a shifted one, saved as one stream."""
        import numpy as np

        from repro.data.io import save_transactions
        from repro.data.quest_basket import build_pattern_pool, generate_basket
        from repro.data.transactions import TransactionDataset

        rng = np.random.default_rng(17)
        pool = build_pattern_pool(
            rng, n_items=40, n_patterns=25, avg_pattern_len=3
        )
        quiet = generate_basket(
            1_600, n_items=40, avg_transaction_len=5, rng=rng, pool=pool
        )
        shifted = generate_basket(
            800, n_items=40, avg_transaction_len=5, n_patterns=25,
            avg_pattern_len=5, rng=rng,
        )
        path = tmp_path / "stream.txt"
        save_transactions(
            TransactionDataset(list(quiet) + list(shifted), 40), path
        )
        return path

    def test_monitor_stream_flags_drift(self, stream_file):
        text = run_cli(
            ["monitor-stream", "--data", str(stream_file),
             "--window", "800", "--step", "400", "--min-support", "0.05",
             "--boot", "5", "--seed", "1"]
        )
        assert "windows monitored" in text
        assert "DRIFT" in text
        assert "rows sketched incrementally" in text
        # quiet windows precede the drifted ones
        first_line = text.splitlines()[0]
        assert "[ok]" in first_line

    def test_monitor_stream_cheap_mode(self, stream_file):
        text = run_cli(
            ["monitor-stream", "--data", str(stream_file),
             "--window", "800", "--min-support", "0.05",
             "--boot", "0", "--delta-threshold", "3.0"]
        )
        assert "windows monitored" in text

    def test_monitor_stream_short_stream_warms_up_only(self, tmp_path):
        run_cli(["generate-basket", "--out", str(tmp_path / "tiny.txt"),
                 "--n", "100", "--items", "30", "--seed", "4"])
        text = run_cli(
            ["monitor-stream", "--data", str(tmp_path / "tiny.txt"),
             "--window", "500"]
        )
        assert "warm-up" in text

    def test_monitor_stream_flushes_trailing_partial_window(self, stream_file):
        # 2,400 rows with window 1,000: reference + one full window +
        # 400 trailing rows that only the flush reports.
        text = run_cli(
            ["monitor-stream", "--data", str(stream_file),
             "--window", "1000", "--min-support", "0.05",
             "--boot", "0", "--delta-threshold", "3.0"]
        )
        assert "partial final window" in text
        assert "2 windows monitored" in text

    def test_monitor_stream_tabular_kind(self, tmp_path):
        path = tmp_path / "people.npz"
        run_cli(["generate-classify", "--out", str(path), "--n", "2300",
                 "--function", "1", "--seed", "11"])
        text = run_cli(
            ["monitor-stream", "--data", str(path), "--kind", "tabular",
             "--window", "1000", "--boot", "0",
             "--delta-threshold", "0.5", "--max-depth", "4"]
        )
        assert "windows monitored" in text
        assert "partial final window" in text  # the trailing 300 rows
        assert "rows sketched incrementally" in text

    def test_monitor_stream_tabular_bootstrap(self, tmp_path):
        path = tmp_path / "people.npz"
        run_cli(["generate-classify", "--out", str(path), "--n", "2000",
                 "--function", "1", "--seed", "12"])
        text = run_cli(
            ["monitor-stream", "--data", str(path), "--kind", "tabular",
             "--window", "500", "--step", "250", "--boot", "4",
             "--seed", "3", "--max-depth", "3"]
        )
        assert "windows monitored" in text

    def test_monitor_stream_supervised_matches_plain(self, stream_file):
        base = ["monitor-stream", "--data", str(stream_file),
                "--window", "800", "--step", "400", "--min-support", "0.05",
                "--boot", "5", "--seed", "1"]
        plain = run_cli(base)
        supervised = run_cli(base + ["--retries", "1",
                                     "--on-failure", "degrade"])
        assert supervised == plain


class TestMonitorStreamCheckpoint:
    """Satellite: kill monitor-stream mid-run, rerun with the same
    --checkpoint-dir, and the concatenated output equals the
    uninterrupted run's."""

    ARGS = ["--window", "800", "--step", "400", "--min-support", "0.05",
            "--boot", "5", "--seed", "1"]

    def test_killed_run_resumes_to_identical_output(
        self, tmp_path, monkeypatch
    ):
        from repro.stream.monitor import OnlineChangeMonitor

        stream_file = tmp_path / "stream.txt"
        run_cli(["generate-basket", "--out", str(stream_file), "--n", "2400",
                 "--items", "40", "--avg-len", "5", "--patterns", "25",
                 "--pattern-len", "3", "--seed", "17"])
        base = ["monitor-stream", "--data", str(stream_file)] + self.ARGS
        uninterrupted = run_cli(base)

        ckpt = tmp_path / "ckpt"
        original_push = OnlineChangeMonitor.push
        calls = {"n": 0}

        def dying_push(self, data):
            calls["n"] += 1
            if calls["n"] > 3:
                raise KeyboardInterrupt("simulated kill")
            return original_push(self, data)

        monkeypatch.setattr(OnlineChangeMonitor, "push", dying_push)
        part1 = io.StringIO()
        with pytest.raises(KeyboardInterrupt):
            main(base + ["--checkpoint-dir", str(ckpt)], out=part1)
        monkeypatch.setattr(OnlineChangeMonitor, "push", original_push)

        part2 = run_cli(base + ["--checkpoint-dir", str(ckpt)])
        assert part1.getvalue() + part2 == uninterrupted

    def test_resume_under_other_model_parameters_is_refused(self, tmp_path):
        """A checkpoint written at one --min-support refuses to resume
        at another; the same parameters resume where the run stopped."""
        from repro.errors import CheckpointError

        full = tmp_path / "stream.txt"
        run_cli(["generate-basket", "--out", str(full), "--n", "6000",
                 "--items", "40", "--avg-len", "5", "--patterns", "25",
                 "--pattern-len", "3", "--seed", "17"])
        head = tmp_path / "head.txt"
        lines = full.read_text().splitlines(keepends=True)
        head.write_text("".join(lines[:3_001]))  # header + 3,000 rows
        args = ["--window", "1000", "--boot", "0", "--delta-threshold", "0.5"]
        ckpt = ["--checkpoint-dir", str(tmp_path / "ckpt")]
        uninterrupted = run_cli(
            ["monitor-stream", "--data", str(full), "--min-support", "0.03",
             *args]
        )
        run_cli(["monitor-stream", "--data", str(head), "--min-support",
                 "0.03", *args, *ckpt])
        with pytest.raises(CheckpointError, match="reference"):
            main(["monitor-stream", "--data", str(full), "--min-support",
                  "0.05", *args, *ckpt], out=io.StringIO())
        resumed = run_cli(
            ["monitor-stream", "--data", str(full), "--min-support", "0.03",
             *args, *ckpt]
        )
        # snapshots 1-2 came before the checkpoint
        assert resumed.splitlines() == uninterrupted.splitlines()[2:]

    def test_a_format_2_checkpoint_dir_is_refused_untouched(self, tmp_path):
        """A checkpoint directory an older build wrote (format 2) is
        refused, naming its version, and no byte of it changes."""
        import shutil
        from pathlib import Path

        from repro.errors import CheckpointError

        golden = (
            Path(__file__).parent / "resilience" / "golden_v2" / "transactions"
        )
        ckpt = tmp_path / "ckpt"
        shutil.copytree(golden / "checkpoint", ckpt)

        def files():
            return {
                str(p.relative_to(ckpt)): p.read_bytes()
                for p in sorted(ckpt.rglob("*"))
                if p.is_file()
            }

        before = files()
        stream_file = tmp_path / "stream.txt"
        run_cli(["generate-basket", "--out", str(stream_file), "--n", "1600",
                 "--items", "40", "--avg-len", "5", "--seed", "3"])
        with pytest.raises(CheckpointError, match="version 2"):
            main(["monitor-stream", "--data", str(stream_file), *self.ARGS,
                  "--checkpoint-dir", str(ckpt)], out=io.StringIO())
        assert files() == before

    def test_fresh_dir_runs_from_scratch(self, tmp_path):
        stream_file = tmp_path / "stream.txt"
        run_cli(["generate-basket", "--out", str(stream_file), "--n", "1600",
                 "--items", "40", "--avg-len", "5", "--seed", "3"])
        base = ["monitor-stream", "--data", str(stream_file)] + self.ARGS
        with_ckpt = run_cli(
            base + ["--checkpoint-dir", str(tmp_path / "fresh")]
        )
        assert with_ckpt == run_cli(base)
        assert (tmp_path / "fresh" / "CHECKPOINT.json").exists()


class TestFleet:
    @pytest.fixture
    def fleet_files(self, tmp_path):
        """Three store files: two from one process, one shifted."""
        paths = []
        for seed, plen in ((1, 4), (2, 4), (3, 8)):
            path = tmp_path / f"store{seed}.txt"
            run_cli(["generate-basket", "--out", str(path), "--n", "400",
                     "--items", "60", "--patterns", "40", "--avg-len", "6",
                     "--pattern-len", str(plen), "--seed", str(seed)])
            paths.append(str(path))
        return paths

    def test_fleet_json_report_shape(self, fleet_files):
        import json

        text = run_cli(
            ["fleet", "--data", *fleet_files, "--min-support", "0.05",
             "--max-len", "2", "--threshold", "3", "--groups", "2"]
        )
        report = json.loads(text)
        assert set(report) >= {
            "kind", "names", "matrix", "exact", "bounds", "embedding",
            "groups", "pruning",
        }
        assert report["kind"] == "lits"
        assert report["names"] == ["store1", "store2", "store3"]
        matrix = report["matrix"]
        assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)
        for i in range(3):
            assert matrix[i][i] == 0.0
            for j in range(3):
                assert matrix[i][j] == matrix[j][i]
        assert len(report["embedding"]) == 3
        assert all(len(point) == 2 for point in report["embedding"])
        grouped = sorted(n for members in report["groups"].values()
                         for n in members)
        assert grouped == sorted(report["names"])
        pruning = report["pruning"]
        assert pruning["n_pairs"] == 3
        assert (pruning["n_scanned"] + pruning["n_model_only"]
                + pruning["n_pruned"]) == 3

    def test_fleet_csv_matrix(self, fleet_files):
        text = run_cli(
            ["fleet", "--data", *fleet_files, "--min-support", "0.05",
             "--max-len", "2", "--format", "csv"]
        )
        lines = text.strip().splitlines()
        assert lines[0] == "store,store1,store2,store3"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 4 for line in lines)
        # exhaustive: no entry carries the pruned (bound-valued) marker
        assert "*" not in text

    def test_fleet_writes_out_file(self, fleet_files, tmp_path):
        import json

        out_path = tmp_path / "fleet.json"
        text = run_cli(
            ["fleet", "--data", *fleet_files, "--min-support", "0.05",
             "--max-len", "2", "--out", str(out_path)]
        )
        assert "3 stores, 3 pairs" in text
        report = json.loads(out_path.read_text())
        assert len(report["matrix"]) == 3

    def test_fleet_two_stores_default_report(self, fleet_files):
        """The minimum fleet the CLI accepts must survive the default k=2."""
        import json

        report = json.loads(
            run_cli(["fleet", "--data", *fleet_files[:2],
                     "--min-support", "0.05", "--max-len", "2"])
        )
        assert len(report["embedding"]) == 2
        assert all(len(point) == 2 for point in report["embedding"])

    def test_fleet_tabular_threshold_rejected_cleanly(self, tmp_path):
        paths = []
        for seed in (1, 2):
            path = tmp_path / f"t{seed}.npz"
            run_cli(["generate-classify", "--out", str(path), "--n", "300",
                     "--function", "1", "--seed", str(seed)])
            paths.append(str(path))
        out = io.StringIO()
        code = main(["fleet", "--data", *paths, "--kind", "tabular",
                     "--threshold", "5"], out=out)
        assert code == 2  # a clear message, not a traceback

    def test_fleet_tabular_kind(self, tmp_path):
        import json

        paths = []
        for seed, fn in ((1, 1), (2, 1), (3, 2)):
            path = tmp_path / f"t{seed}.npz"
            run_cli(["generate-classify", "--out", str(path), "--n", "500",
                     "--function", str(fn), "--seed", str(seed)])
            paths.append(str(path))
        text = run_cli(
            ["fleet", "--data", *paths, "--kind", "tabular",
             "--max-depth", "3", "--groups", "2"]
        )
        report = json.loads(text)
        assert report["kind"] == "partition"
        assert "bounds" not in report  # delta* is lits-only
        assert report["pruning"]["n_pruned"] == 0
        # the two F1 stores are closer to each other than to the F2 one
        m = report["matrix"]
        assert m[0][1] < m[0][2] and m[0][1] < m[1][2]


class TestObservabilityFlags:
    @pytest.fixture
    def basket_files(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run_cli(["generate-basket", "--out", str(a), "--n", "400",
                 "--items", "60", "--patterns", "40", "--avg-len", "6",
                 "--seed", "1"])
        run_cli(["generate-basket", "--out", str(b), "--n", "400",
                 "--items", "60", "--patterns", "40", "--avg-len", "6",
                 "--pattern-len", "6", "--seed", "2"])
        return a, b

    def test_metrics_to_stderr(self, basket_files, capsys):
        import json

        a, b = basket_files
        run_cli(
            ["compare-lits", "--data1", str(a), "--data2", str(b),
             "--min-support", "0.05", "--max-len", "2",
             "--boot", "4", "--metrics"]
        )
        snapshot = json.loads(capsys.readouterr().err)
        assert snapshot["counters"]["bootstrap.pooled_scans"] == 1
        assert snapshot["counters"]["bitmap.support_counts.calls"] >= 1

    def test_metrics_to_file(self, basket_files, tmp_path, capsys):
        import json

        a, b = basket_files
        out_path = tmp_path / "metrics.json"
        run_cli(
            ["compare-lits", "--data1", str(a), "--data2", str(b),
             "--min-support", "0.05", "--max-len", "2",
             "--metrics", str(out_path)]
        )
        assert "wrote metrics snapshot" in capsys.readouterr().err
        snapshot = json.loads(out_path.read_text())
        assert snapshot["counters"]["bitmap.support_counts.calls"] >= 1

    def test_profile_prints_report_table(self, basket_files, capsys):
        a, b = basket_files
        run_cli(
            ["compare-lits", "--data1", str(a), "--data2", str(b),
             "--min-support", "0.05", "--max-len", "2", "--profile"]
        )
        err = capsys.readouterr().err
        assert "counters" in err
        assert "bitmap.support_counts.calls" in err

    def test_monitor_stream_metrics(self, tmp_path, capsys):
        import json

        path = tmp_path / "stream.txt"
        run_cli(["generate-basket", "--out", str(path), "--n", "900",
                 "--items", "40", "--seed", "6"])
        run_cli(
            ["monitor-stream", "--data", str(path), "--window", "300",
             "--min-support", "0.05", "--boot", "0",
             "--delta-threshold", "3.0", "--metrics"]
        )
        snapshot = json.loads(capsys.readouterr().err)
        counters = snapshot["counters"]
        # the first 300-row window seeds the reference model before the
        # window manager starts sketching, so 600 of the 900 rows count
        assert counters["stream.windows.rows_sketched"] == 600
        assert counters["monitor.qualify.cheap"] >= 1
        assert "monitor.observe" in snapshot["spans"]

    def test_fleet_metrics_match_report(self, tmp_path, capsys):
        import json

        paths = []
        for seed in (1, 2, 3):
            path = tmp_path / f"s{seed}.txt"
            run_cli(["generate-basket", "--out", str(path), "--n", "300",
                     "--items", "50", "--seed", str(seed)])
            paths.append(str(path))
        text = run_cli(
            ["fleet", "--data", *paths, "--min-support", "0.05",
             "--max-len", "2", "--metrics"]
        )
        report = json.loads(text)
        # stderr carries the human summary line first, then the snapshot
        err = capsys.readouterr().err
        snapshot = json.loads(err[err.index("{"):])
        assert (
            snapshot["counters"]["fleet.pairs.scanned"]
            == report["pruning"]["n_scanned"]
            == report["metrics"]["fleet.pairs.scanned"]
        )
        assert snapshot["counters"]["fleet.store.scans"] == 3

    def test_without_flags_no_metrics_output(self, basket_files, capsys):
        a, b = basket_files
        run_cli(
            ["compare-lits", "--data1", str(a), "--data2", str(b),
             "--min-support", "0.05", "--max-len", "2"]
        )
        assert capsys.readouterr().err == ""


class TestSketchCommands:
    @pytest.fixture
    def lits_fleet(self, tmp_path):
        """Three stores through the two-leg protocol: models travel
        first, then every site sketches the fleet-wide probe union."""
        stores = []
        for i, plen in enumerate((3, 3, 6)):
            data = tmp_path / f"s{i}.txt"
            run_cli(["generate-basket", "--out", str(data), "--n", "400",
                     "--items", "60", "--patterns", "40", "--avg-len", "6",
                     "--pattern-len", str(plen), "--seed", str(i + 1)])
            model = tmp_path / f"s{i}.model"
            sketch = tmp_path / f"s{i}.sketch"
            run_cli(["sketch", "pack", "--kind", "transactions",
                     "--data", str(data), "--min-support", "0.05",
                     "--max-len", "2", "--out", str(sketch),
                     "--model-out", str(model)])
            stores.append((data, model, sketch))
        model_args = [str(m) for _, m, _ in stores]
        for data, _, sketch in stores:
            run_cli(["sketch", "pack", "--kind", "transactions",
                     "--data", str(data), "--min-support", "0.05",
                     "--max-len", "2", "--probe-models", *model_args,
                     "--out", str(sketch)])
        return stores

    def test_compare_matches_row_level_compare_lits(
        self, tmp_path, lits_fleet
    ):
        import json
        import re

        report_path = tmp_path / "fleet.json"
        run_cli(["sketch", "compare",
                 "--in", *[str(s) for _, _, s in lits_fleet],
                 "--models", *[str(m) for _, m, _ in lits_fleet],
                 "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        oracle_text = run_cli(
            ["compare-lits", "--data1", str(lits_fleet[0][0]),
             "--data2", str(lits_fleet[2][0]),
             "--min-support", "0.05", "--max-len", "2"]
        )
        oracle = float(re.search(r"delta  = ([0-9.]+)", oracle_text).group(1))
        assert report["matrix"][0][2] == pytest.approx(oracle, abs=1e-6)
        assert report["pruning"]["n_sketch_exact"] == 3
        # a lits shipment is the model payload plus the sketch payload
        assert report["payload_bytes"] == [
            len(m.read_bytes()) + len(s.read_bytes())
            for _, m, s in lits_fleet
        ]

    def test_shard_sketches_merge_byte_identical_to_whole(
        self, tmp_path, lits_fleet
    ):
        # split store 0's log into two shards (keeping the header);
        # with a shared probe collection the merged shard sketches must
        # reproduce the whole-store payload byte for byte
        lines = lits_fleet[0][0].read_text().splitlines(keepends=True)
        header, body = lines[0], lines[1:]
        shard_sketches = []
        model_args = [str(m) for _, m, _ in lits_fleet]
        for k, rows in enumerate((body[:200], body[200:])):
            shard = tmp_path / f"shard{k}.txt"
            shard.write_text(header + "".join(rows))
            out = tmp_path / f"shard{k}.sketch"
            run_cli(["sketch", "pack", "--kind", "transactions",
                     "--data", str(shard), "--min-support", "0.05",
                     "--max-len", "2", "--probe-models", *model_args,
                     "--out", str(out)])
            shard_sketches.append(out)
        merged = tmp_path / "merged.sketch"
        text = run_cli(["sketch", "merge",
                        "--in", *[str(s) for s in shard_sketches],
                        "--out", str(merged)])
        assert "merged 2 sketches" in text
        assert merged.read_bytes() == lits_fleet[0][2].read_bytes()

    def test_tabular_flow_with_shared_ref_and_qualification(self, tmp_path):
        import json

        sketches = []
        ref = tmp_path / "ref.model"
        for i, fn in enumerate((1, 1, 3)):
            data = tmp_path / f"p{i}.npz"
            run_cli(["generate-classify", "--out", str(data), "--n", "500",
                     "--function", str(fn), "--seed", str(20 + i)])
            sketch = tmp_path / f"p{i}.sketch"
            argv = ["sketch", "pack", "--kind", "tabular", "--data",
                    str(data), "--out", str(sketch)]
            argv += (["--model-out", str(ref)] if i == 0
                     else ["--ref", str(ref)])
            run_cli(argv)
            sketches.append(sketch)
        report_path = tmp_path / "tab.json"
        run_cli(["sketch", "compare", "--in", *[str(s) for s in sketches],
                 "--boot", "50", "--seed", "7", "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["kind"] == "partition"
        pairs = {tuple(q["pair"]): q["p_value"]
                 for q in report["qualification"]}
        assert len(pairs) == 3
        assert all(0.0 < p <= 1.0 for p in pairs.values())

    def test_inspect_names_kind_and_sections(self, lits_fleet):
        import json

        text = run_cli(["sketch", "inspect", "--in",
                        str(lits_fleet[0][2]), str(lits_fleet[0][1])])
        infos = json.loads("[" + text.replace("}\n{", "},\n{") + "]")
        assert [i["kind"] for i in infos] == ["support-sketch", "lits-model"]
        assert [s["name"] for s in infos[0]["sections"]] == [
            "meta", "sizes", "items", "counts"
        ]

    def test_corrupted_payload_is_a_typed_error(self, lits_fleet):
        from repro.errors import WireFormatError

        corrupt = bytearray(lits_fleet[0][2].read_bytes())
        corrupt[-5] ^= 0x10
        lits_fleet[0][2].write_bytes(bytes(corrupt))
        with pytest.raises(WireFormatError, match="checksum"):
            main(["sketch", "inspect", "--in", str(lits_fleet[0][2])],
                 out=io.StringIO())

    def test_merge_refuses_model_payloads(self, lits_fleet, capsys):
        code = main(["sketch", "merge",
                     "--in", str(lits_fleet[0][1]), str(lits_fleet[1][1]),
                     "--out", "/dev/null"], out=io.StringIO())
        assert code == 2
        assert "merge" in capsys.readouterr().err

    def test_threshold_rejected_for_partition_fleet(self, tmp_path, capsys):
        data = tmp_path / "p.npz"
        run_cli(["generate-classify", "--out", str(data), "--n", "400",
                 "--seed", "3"])
        sketch = tmp_path / "p.sketch"
        run_cli(["sketch", "pack", "--kind", "tabular", "--data", str(data),
                 "--out", str(sketch)])
        code = main(["sketch", "compare", "--in", str(sketch), str(sketch),
                     "--names", "x", "y", "--threshold", "0.5",
                     "--out", "/dev/null"], out=io.StringIO())
        assert code == 2
        assert "threshold" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_missing_required_arg_exits(self):
        with pytest.raises(SystemExit):
            main(["mine"])

    @pytest.mark.parametrize("argv", [
        ["compare-lits", "--data1", "a.txt", "--data2", "b.txt"],
        ["compare-dt", "--data1", "a.npz", "--data2", "b.npz"],
        ["sketch", "compare", "--in", "a.sketch", "b.sketch"],
        ["monitor-stream", "--data", "a.txt"],
    ], ids=lambda argv: argv[0] if argv[0] != "sketch" else "sketch-compare")
    def test_negative_boot_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--boot", "-5"], out=io.StringIO())
        assert exit_info.value.code == 2
        assert "--boot" in capsys.readouterr().err


#: Every subcommand's option strings, in declaration order (help
#: omitted): adding or removing a knob shows up as an edit here.
OPTION_SURFACE = {
    "generate-basket": [
        "--out", "--n", "--items", "--avg-len", "--patterns",
        "--pattern-len", "--seed",
    ],
    "generate-classify": ["--out", "--n", "--function", "--seed"],
    "mine": [
        "--data", "--min-support", "--max-len", "--top", "--save",
        "--backend", "--stripe-dir",
    ],
    "compare-lits": [
        "--data1", "--data2", "--min-support", "--max-len", "--backend",
        "--stripe-dir", "--boot", "--n-boot", "--seed", "--metrics",
        "--profile",
    ],
    "compare-dt": [
        "--data1", "--data2", "--max-depth", "--min-leaf", "--boot",
        "--n-boot", "--seed", "--metrics", "--profile",
    ],
    "compare-models": ["--model1", "--model2"],
    "fleet": [
        "--data", "--kind", "--names", "--min-support", "--max-len",
        "--max-depth", "--min-leaf", "--threshold", "--groups", "--linkage",
        "--k", "--format", "--out", "--executor", "--retries",
        "--shard-timeout", "--on-failure", "--metrics", "--profile",
    ],
    "monitor-stream": [
        "--data", "--kind", "--window", "--step", "--min-support",
        "--max-len", "--max-depth", "--min-leaf", "--boot", "--n-boot",
        "--threshold", "--delta-threshold", "--policy", "--executor",
        "--seed", "--checkpoint-dir", "--retries", "--shard-timeout",
        "--on-failure", "--metrics", "--profile",
    ],
    "sketch": [],
    "sketch pack": [
        "--data", "--kind", "--out", "--model-out", "--min-support",
        "--max-len", "--probe-models", "--ref", "--max-depth", "--min-leaf",
        "--metrics", "--profile",
    ],
    "sketch merge": ["--in", "--out", "--metrics", "--profile"],
    "sketch compare": [
        "--in", "--models", "--names", "--threshold", "--boot", "--seed",
        "--format", "--out", "--metrics", "--profile",
    ],
    "sketch inspect": ["--in"],
}


def _option_surface(parser, prefix=()):
    """``{"command [subcommand]": option strings}`` of a parser tree."""
    surface = {}
    if prefix:
        surface[" ".join(prefix)] = [
            option
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        ]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(_option_surface(sub, (*prefix, name)))
    return surface


def test_option_surface_is_pinned():
    assert _option_surface(build_parser()) == OPTION_SURFACE
