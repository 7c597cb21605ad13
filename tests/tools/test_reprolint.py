"""reprolint self-checks: a fixture corpus per rule, plus the real tree.

Every RL rule gets at least one positive (the bad pattern fires) and one
negative (the blessed idiom stays silent) snippet, the disable escape
hatch is exercised with and without a reason, and the suite ends by
asserting the actual ``src/`` + ``benchmarks/`` trees are clean -- the
same gate CI runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tools.reprolint import (
    REASONLESS_CODE,
    RULE_DOCS,
    RULES,
    SYNTAX_CODE,
    lint_paths,
    lint_source,
)
from tools.reprolint.cli import main


def codes(source: str, path: str = "pkg/module.py") -> list[str]:
    return [f.code for f in lint_source(source, path, RULES)]


HOT = "src/repro/stream/module.py"  # any /stream/ path counts as hot


# --------------------------------------------------------------------- #
# RL001 -- unseeded randomness
# --------------------------------------------------------------------- #


class TestRL001:
    def test_unseeded_default_rng_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(src) == ["RL001"]

    def test_seeded_default_rng_is_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert codes(src) == []

    def test_seed_keyword_is_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(seed=s)\n"
        assert codes(src) == []

    def test_legacy_global_state_fires_even_when_seeded(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert codes(src) == ["RL001"]

    def test_legacy_sampling_call_fires(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes(src) == ["RL001"]

    def test_respects_numpy_import_alias(self):
        src = "import numpy as xp\nrng = xp.random.default_rng()\n"
        assert codes(src) == ["RL001"]

    def test_from_numpy_random_import(self):
        src = (
            "from numpy.random import default_rng\n"
            "rng = default_rng()\n"
        )
        assert codes(src) == ["RL001"]

    def test_resolve_rng_warn_path_is_blessed(self):
        src = (
            "import numpy as np\n"
            "def _resolve_rng(rng, seed, caller):\n"
            "    return np.random.default_rng()\n"
        )
        assert codes(src) == []

    def test_unrelated_module_random_is_clean(self):
        src = "import random\nrandom.seed(0)\n"
        assert codes(src) == []


# --------------------------------------------------------------------- #
# RL002 -- unguarded merges
# --------------------------------------------------------------------- #


class TestRL002:
    def test_unguarded_sketch_add_fires(self):
        src = (
            "class SupportSketch:\n"
            "    def __add__(self, other):\n"
            "        return type(self)(self.counts + other.counts)\n"
        )
        assert codes(src) == ["RL002"]

    def test_check_mergeable_guard_is_clean(self):
        src = (
            "class SupportSketch:\n"
            "    def __add__(self, other):\n"
            "        self._check_mergeable(other)\n"
            "        return type(self)(self.counts + other.counts)\n"
        )
        assert codes(src) == []

    def test_counts_key_comparison_is_clean(self):
        src = (
            "class PartitionSketch:\n"
            "    def merge(self, other):\n"
            "        if self.counts_key != other.counts_key:\n"
            "            raise ValueError('incompatible')\n"
            "        return type(self)(self.counts + other.counts)\n"
        )
        assert codes(src) == []

    def test_delegation_to_guarded_sibling_is_clean(self):
        src = (
            "class SupportSketch:\n"
            "    def __add__(self, other):\n"
            "        self._check_mergeable(other)\n"
            "        return type(self)(self.counts + other.counts)\n"
            "    def merge(self, other):\n"
            "        return self.__add__(other)\n"
        )
        assert codes(src) == []

    def test_non_sketch_class_is_exempt(self):
        src = (
            "class Interval:\n"
            "    def __add__(self, other):\n"
            "        return Interval(self.lo + other.lo, self.hi + other.hi)\n"
        )
        assert codes(src) == []


# --------------------------------------------------------------------- #
# RL003 -- executor lifecycle
# --------------------------------------------------------------------- #


class TestRL003:
    def test_unreleased_pool_fires(self):
        src = (
            "def fan(payloads):\n"
            "    pool = ThreadPoolExecutor(4)\n"
            "    return list(pool.map(work, payloads))\n"
        )
        assert codes(src) == ["RL003"]

    def test_with_statement_is_clean(self):
        src = (
            "def fan(payloads):\n"
            "    with ThreadPoolExecutor(4) as pool:\n"
            "        return list(pool.map(work, payloads))\n"
        )
        assert codes(src) == []

    def test_shutdown_in_scope_is_clean(self):
        src = (
            "def fan(payloads):\n"
            "    pool = ProcessPoolExecutor(4)\n"
            "    try:\n"
            "        return list(pool.map(work, payloads))\n"
            "    finally:\n"
            "        pool.shutdown()\n"
        )
        assert codes(src) == []

    def test_getattr_shutdown_idiom_is_clean(self):
        src = (
            "def fan(executor, payloads):\n"
            "    runner = get_executor(executor)\n"
            "    try:\n"
            "        return runner.map(work, payloads)\n"
            "    finally:\n"
            "        shutdown = getattr(runner, 'shutdown', None)\n"
            "        if shutdown is not None:\n"
            "            shutdown()\n"
        )
        assert codes(src) == []

    def test_release_helper_is_clean(self):
        src = (
            "def fan(executor, payloads):\n"
            "    runner = get_executor(executor)\n"
            "    try:\n"
            "        return runner.map(work, payloads)\n"
            "    finally:\n"
            "        release(runner)\n"
        )
        assert codes(src) == []

    def test_named_runner_without_any_release_still_fires(self):
        src = (
            "def fan(executor, payloads):\n"
            "    runner = get_executor(executor)\n"
            "    results = runner.map(work, payloads)\n"
            "    releases = len(results)\n"
            "    return results, releases\n"
        )
        assert codes(src) == ["RL003"]

    def test_serial_backend_has_nothing_to_release(self):
        src = (
            "def fan(payloads):\n"
            "    runner = get_executor('serial')\n"
            "    return runner.map(work, payloads)\n"
        )
        assert codes(src) == []

    def test_self_assignment_needs_a_close_method(self):
        src = (
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self.executor = get_executor('thread')\n"
        )
        assert codes(src) == ["RL003"]

    def test_self_assignment_with_close_is_clean(self):
        src = (
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self.executor = get_executor('thread')\n"
            "    def close(self):\n"
            "        self.executor.shutdown()\n"
        )
        assert codes(src) == []


# --------------------------------------------------------------------- #
# RL004 -- per-row loops in hot modules
# --------------------------------------------------------------------- #


class TestRL004:
    def test_row_loop_in_hot_module_fires(self):
        src = (
            "def scan(transactions):\n"
            "    for t in transactions:\n"
            "        update(t)\n"
        )
        assert codes(src, HOT) == ["RL004"]

    def test_range_len_dataset_fires(self):
        src = (
            "def scan(dataset):\n"
            "    for i in range(len(dataset)):\n"
            "        update(dataset[i])\n"
        )
        assert codes(src, HOT) == ["RL004"]

    def test_attribute_rows_loop_fires(self):
        src = (
            "def scan(log):\n"
            "    for row in log.rows:\n"
            "        update(row)\n"
        )
        assert codes(src, HOT) == ["RL004"]

    def test_same_loop_outside_hot_modules_is_clean(self):
        src = (
            "def scan(transactions):\n"
            "    for t in transactions:\n"
            "        update(t)\n"
        )
        assert codes(src, "src/repro/data/io.py") == []

    def test_oracle_suffix_is_exempt(self):
        src = (
            "def support_count_loop(transactions):\n"
            "    for t in transactions:\n"
            "        update(t)\n"
        )
        assert codes(src, HOT) == []

    def test_oracle_docstring_is_exempt(self):
        src = (
            "def slow_reference(transactions):\n"
            '    """Property-test oracle; deliberately row-wise."""\n'
            "    for t in transactions:\n"
            "        update(t)\n"
        )
        assert codes(src, HOT) == []

    def test_non_row_loops_are_clean(self):
        src = (
            "def measure(datasets, models):\n"
            "    for d in datasets:\n"
            "        for m in models:\n"
            "            measure_pair(d, m)\n"
            "    for b in range(w.shape[0]):\n"
            "        fold(b)\n"
        )
        assert codes(src, HOT) == []


# --------------------------------------------------------------------- #
# RL005 -- mutable defaults and ndarray-keyed memos
# --------------------------------------------------------------------- #


class TestRL005:
    def test_mutable_list_default_fires(self):
        src = "def f(acc=[]):\n    acc.append(1)\n"
        assert codes(src) == ["RL005"]

    def test_mutable_dict_and_set_defaults_fire(self):
        src = "def f(memo={}, seen=set()):\n    pass\n"
        assert codes(src) == ["RL005", "RL005"]

    def test_none_default_is_clean(self):
        src = "def f(acc=None):\n    acc = [] if acc is None else acc\n"
        assert codes(src) == []

    def test_ndarray_keyed_memo_fires(self):
        src = (
            "import numpy as np\n"
            "def f(key: np.ndarray):\n"
            "    memo = {}\n"
            "    memo[key] = 1\n"
        )
        assert codes(src) == ["RL005"]

    def test_ndarray_keyed_get_fires(self):
        src = (
            "import numpy as np\n"
            "def f(key: np.ndarray):\n"
            "    memo = {}\n"
            "    return memo.get(key)\n"
        )
        assert codes(src) == ["RL005"]

    def test_inferred_array_assignment_fires(self):
        src = (
            "import numpy as np\n"
            "def f(memo):\n"
            "    memo = {}\n"
            "    mask = np.zeros(8)\n"
            "    memo[mask] = 1\n"
        )
        assert codes(src) == ["RL005"]

    def test_stable_keys_are_clean(self):
        src = (
            "def f(sketch, arr):\n"
            "    memo = {}\n"
            "    memo[sketch.counts_key] = 1\n"
            "    memo[arr.tobytes()] = 2\n"
            "    memo[id(arr)] = 3\n"
        )
        assert codes(src) == []


# --------------------------------------------------------------------- #
# RL006 -- unpicklable process workers
# --------------------------------------------------------------------- #


class TestRL006:
    def test_lambda_on_process_pool_fires(self):
        src = (
            "def fan(payloads):\n"
            "    pool = ProcessPoolExecutor(4)\n"
            "    try:\n"
            "        return list(pool.map(lambda p: p + 1, payloads))\n"
            "    finally:\n"
            "        pool.shutdown()\n"
        )
        assert codes(src) == ["RL006"]

    def test_closure_on_process_backend_fires(self):
        src = (
            "def fan(payloads):\n"
            "    runner = get_executor('process')\n"
            "    def work(p):\n"
            "        return p + 1\n"
            "    try:\n"
            "        return runner.map(work, payloads)\n"
            "    finally:\n"
            "        runner.shutdown()\n"
        )
        assert codes(src) == ["RL006"]

    def test_top_level_worker_is_clean(self):
        src = (
            "def work(p):\n"
            "    return p + 1\n"
            "def fan(payloads):\n"
            "    runner = get_executor('process')\n"
            "    try:\n"
            "        return runner.map(work, payloads)\n"
            "    finally:\n"
            "        runner.shutdown()\n"
        )
        assert codes(src) == []

    def test_lambda_on_thread_backend_is_clean(self):
        src = (
            "def fan(payloads):\n"
            "    with ThreadPoolExecutor(4) as pool:\n"
            "        return list(pool.map(lambda p: p + 1, payloads))\n"
        )
        assert codes(src) == []

    def test_lambda_beside_process_executor_kwarg_fires(self):
        src = "fan_blocks(lambda p: p + 1, executor='process')\n"
        assert codes(src) == ["RL006"]

    def test_named_function_beside_process_kwarg_is_clean(self):
        src = "fan_blocks(work, executor='process')\n"
        assert codes(src) == []


# --------------------------------------------------------------------- #
# RL007 -- spans must be entered
# --------------------------------------------------------------------- #


class TestRL007:
    def test_unentered_span_call_fires(self):
        src = (
            "def work(registry):\n"
            "    registry.span('fleet.scan')\n"
            "    do_work()\n"
        )
        assert codes(src) == ["RL007"]

    def test_span_assigned_but_never_entered_fires(self):
        src = (
            "def work(registry):\n"
            "    timer = registry.span('fleet.scan')\n"
            "    do_work()\n"
        )
        assert codes(src) == ["RL007"]

    def test_with_span_is_clean(self):
        src = (
            "def work(registry):\n"
            "    with registry.span('fleet.scan'):\n"
            "        do_work()\n"
        )
        assert codes(src) == []

    def test_nested_with_spans_are_clean(self):
        src = (
            "def work(registry):\n"
            "    with registry.span('outer'), registry.span('inner'):\n"
            "        do_work()\n"
        )
        assert codes(src) == []

    def test_regex_match_span_is_out_of_scope(self):
        # re.Match.span() takes no args or an int group, never a string
        # literal -- the rule keys on the repro.obs signature.
        src = (
            "def bounds(match):\n"
            "    return match.span() + match.span(1)\n"
        )
        assert codes(src) == []


class TestRL008:
    STORAGE = "src/repro/data/storage.py"  # hot for RL008 but not RL004

    def test_copy_of_whole_buf_fires(self):
        src = (
            "def densify(self):\n"
            "    return self._buf.copy()\n"
        )
        assert codes(src, HOT) == ["RL008"]

    def test_asarray_of_whole_bits_fires(self):
        src = (
            "import numpy as np\n"
            "def densify(index):\n"
            "    return np.asarray(index._bits)\n"
        )
        assert codes(src, HOT) == ["RL008"]

    def test_tobytes_of_stripe_call_fires(self):
        src = (
            "def dump(store):\n"
            "    return store.stripe('item_bits').tobytes()\n"
        )
        assert codes(src, HOT) == ["RL008"]

    def test_storage_module_is_hot_for_this_rule(self):
        src = (
            "def densify(self):\n"
            "    return self._buf.copy()\n"
        )
        assert codes(src, self.STORAGE) == ["RL008"]

    def test_sliced_view_copy_is_clean(self):
        src = (
            "def block(self, a, b):\n"
            "    return self._buf[:, a:b].copy()\n"
        )
        assert codes(src, HOT) == []

    def test_other_receivers_are_clean(self):
        src = (
            "import numpy as np\n"
            "def f(counts, bits):\n"
            "    return np.asarray(counts), bits.copy(), counts.tobytes()\n"
        )
        assert codes(src, HOT) == []

    def test_cold_module_is_clean(self):
        src = (
            "def densify(self):\n"
            "    return self._buf.copy()\n"
        )
        assert codes(src) == []

    def test_oracle_function_is_exempt(self):
        src = (
            "def dense_counts_oracle(self):\n"
            '    """Row-wise oracle for the property suite."""\n'
            "    return self._buf.copy()\n"
        )
        assert codes(src, HOT) == []


# --------------------------------------------------------------------- #
# RL009 -- wire unpack paths must pass the checksum trust boundary
# --------------------------------------------------------------------- #


class TestRL009:
    def test_unpack_without_read_envelope_fires(self):
        src = (
            "import struct\n"
            "def unpack_counts(data):\n"
            "    n = struct.unpack_from('<Q', data, 8)[0]\n"
            "    return list(data[16 : 16 + n])\n"
        )
        # struct.unpack_from is not a wire decoder: it proves nothing
        # about checksums, so the function still fires
        assert codes(src) == ["RL009"]

    def test_unpack_calling_read_envelope_is_clean(self):
        src = (
            "def unpack_counts(data):\n"
            "    envelope = read_envelope(data)\n"
            "    return envelope.sections\n"
        )
        assert codes(src) == []

    def test_unpack_delegating_to_unpack_is_clean(self):
        src = (
            "def unpack_both(data):\n"
            "    return unpack_model(data), data\n"
        )
        assert codes(src) == []

    def test_unpack_delegating_to_from_envelope_is_clean(self):
        src = (
            "def _unpack_inner(data):\n"
            "    return _sketch_from_envelope(_verified(data))\n"
        )
        # *_from_envelope constructors only accept verified Envelopes
        assert codes(src) == []

    def test_section_decoder_taking_payload_is_out_of_scope(self):
        src = (
            "def unpack_array(payload, section):\n"
            "    return memoryview(payload)\n"
        )
        assert codes(src) == []

    def test_non_unpack_function_is_out_of_scope(self):
        src = "def parse(data):\n    return data[4:]\n"
        assert codes(src) == []


# --------------------------------------------------------------------- #
# RL010 -- swallowed failures and raw sleeps
# --------------------------------------------------------------------- #


class TestRL010:
    RESILIENCE = "src/repro/resilience/module.py"

    def test_swallowed_broad_except_fires_in_hot_module(self):
        src = (
            "def fan(shards):\n"
            "    try:\n"
            "        run(shards)\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert codes(src, HOT) == ["RL010"]
        assert codes(src, self.RESILIENCE) == ["RL010"]

    def test_bare_except_fires(self):
        src = "try:\n    run()\nexcept:\n    log()\n"
        assert codes(src, HOT) == ["RL010"]

    def test_broad_except_in_tuple_fires(self):
        src = (
            "try:\n"
            "    run()\n"
            "except (ValueError, Exception):\n"
            "    result = None\n"
        )
        assert codes(src, HOT) == ["RL010"]

    def test_reraising_handler_is_clean(self):
        src = (
            "try:\n"
            "    run()\n"
            "except Exception as exc:\n"
            "    raise ExecutorError(str(exc)) from exc\n"
        )
        assert codes(src, HOT) == []

    def test_narrow_except_is_clean(self):
        src = "try:\n    run()\nexcept ValueError:\n    result = None\n"
        assert codes(src, HOT) == []

    def test_cold_module_is_out_of_scope(self):
        src = "try:\n    run()\nexcept Exception:\n    pass\n"
        assert codes(src, "src/repro/data/io.py") == []

    def test_raw_sleep_fires_in_hot_module(self):
        src = "import time\ndef retry():\n    time.sleep(1.0)\n"
        assert codes(src, HOT) == ["RL010"]
        assert codes(src, self.RESILIENCE) == ["RL010"]

    def test_imported_sleep_fires(self):
        src = "from time import sleep\nsleep(0.1)\n"
        assert codes(src, self.RESILIENCE) == ["RL010"]

    def test_sleep_inside_sleep_backoff_is_the_blessed_home(self):
        src = (
            "import time\n"
            "def sleep_backoff(delay):\n"
            "    time.sleep(delay)\n"
        )
        assert codes(src, self.RESILIENCE) == []

    def test_sleep_in_cold_module_is_out_of_scope(self):
        src = "import time\ntime.sleep(1.0)\n"
        assert codes(src, "benchmarks/bench_outofcore.py") == []

    def test_reasoned_disable_suppresses(self):
        src = (
            "def fan():\n"
            "    try:\n"
            "        run()\n"
            "    except Exception:  "
            "# reprolint: disable=RL010(recorded and re-raised typed later)\n"
            "        record()\n"
        )
        assert codes(src, HOT) == []

    def test_reasonless_disable_does_not_suppress(self):
        src = (
            "def fan():\n"
            "    try:\n"
            "        run()\n"
            "    except Exception:  # reprolint: disable=RL010\n"
            "        record()\n"
        )
        assert sorted(codes(src, HOT)) == [REASONLESS_CODE, "RL010"]


# --------------------------------------------------------------------- #
# The escape hatch
# --------------------------------------------------------------------- #


class TestDisableComments:
    BAD = "import numpy as np\nrng = np.random.default_rng()\n"

    def test_trailing_disable_with_reason_suppresses(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()"
            "  # reprolint: disable=RL001(fixture rng, never published)\n"
        )
        assert codes(src) == []

    def test_preceding_comment_line_suppresses_next_line(self):
        src = (
            "import numpy as np\n"
            "# reprolint: disable=RL001(fixture rng, never published)\n"
            "rng = np.random.default_rng()\n"
        )
        assert codes(src) == []

    def test_reasonless_disable_does_not_suppress(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # reprolint: disable=RL001\n"
        )
        assert sorted(codes(src)) == [REASONLESS_CODE, "RL001"]

    def test_reasonless_disable_is_flagged_even_without_a_finding(self):
        src = "x = 1  # reprolint: disable=RL003\n"
        assert codes(src) == [REASONLESS_CODE]

    def test_wrong_code_does_not_suppress(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()"
            "  # reprolint: disable=RL002(not the rule that fired)\n"
        )
        assert codes(src) == ["RL001"]

    def test_multiple_codes_in_one_comment(self):
        src = (
            "import numpy as np\n"
            "def f(acc=[], rng=np.random.default_rng()):"
            "  # reprolint: disable=RL001(demo), RL005(demo)\n"
            "    pass\n"
        )
        assert codes(src) == []

    def test_syntax_error_reports_rl999(self):
        assert codes("def broken(:\n") == [SYNTAX_CODE]


# --------------------------------------------------------------------- #
# The real tree, the CLI, and the docs
# --------------------------------------------------------------------- #


REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRealTree:
    def test_src_and_benchmarks_are_clean(self):
        findings, n_files = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks"], RULES
        )
        assert n_files > 0
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_rule_is_documented(self):
        assert sorted(RULE_DOCS) == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008", "RL009", "RL010",
        ]
        for code, (title, doc) in RULE_DOCS.items():
            assert title, code
            assert doc, code


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 0
        assert "1 file checked, clean" in capsys.readouterr().err

    def test_findings_exit_one_with_locations(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:2:" in out
        assert "RL001" in out

    def test_json_output_shape(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        assert main(["--format", "json", str(target)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        (finding,) = payload["findings"]
        assert finding["code"] == "RL001"
        assert finding["path"] == str(target)
        assert finding["line"] == 2
        assert set(finding) == {"path", "line", "col", "code", "message"}

    def test_empty_target_is_a_usage_error(self, tmp_path):
        assert main([str(tmp_path / "nothing")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_DOCS:
            assert code in out


class TestMonitorRngRegression:
    """Satellite 1: every unseeded entry point routes through _resolve_rng."""

    def test_bootstrap_monitor_warns_through_resolve_rng(self):
        from repro.core.monitor import ChangeMonitor

        with pytest.warns(UserWarning, match="not reproducible"):
            monitor = ChangeMonitor(lambda d: None, n_boot=5)
        assert monitor.rng is not None

    def test_cheap_monitor_creates_no_generator(self):
        import warnings

        from repro.core.monitor import ChangeMonitor

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monitor = ChangeMonitor(
                lambda d: None, n_boot=0, delta_threshold=1.0
            )
        assert monitor.rng is None
