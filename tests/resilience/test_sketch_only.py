"""Sketch-only rings: a monitor keeps a ring chunk's rows only when
something reads them again.

A fixed reference under a counts-only tabular bootstrap, or a lits
monitor in the cheap mode (``n_boot=0``), measures every window by its
sketch alone: its ring holds no chunk rows, its steady checkpoints write
none, and a resume at any chunk reproduces the run that never stopped,
ring sketches included. A ``reset_on_drift``, ``refit_models`` or
lits-bootstrap monitor reads them, so its ring keeps each chunk's rows
and its journal writes each entering chunk's rows exactly once.
"""

from __future__ import annotations

import random

import golden_stream as gs
import numpy as np
import pytest

from repro.data.quest_classify import generate_classification
from repro.errors import CheckpointError, InvalidParameterError
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import checkpoint as ckpt
from repro.stream.chunks import iter_chunks, iter_tabular_chunks
from repro.stream.monitor import OnlineChangeMonitor
from repro.stream.windows import WindowManager

WINDOW = 400
STEP = 100


def tabular_monitor(**overrides):
    kwargs = dict(
        window_size=WINDOW, step=STEP, n_boot=8, threshold=95.0,
        rng=np.random.default_rng(3),
    )
    kwargs.update(overrides)
    return OnlineChangeMonitor(gs.dt_builder, kind="tabular", **kwargs)


def lits_monitor(**overrides):
    kwargs = dict(
        window_size=WINDOW, step=STEP, n_boot=0, delta_threshold=0.3,
        rng=np.random.default_rng(3),
    )
    kwargs.update(overrides)
    return OnlineChangeMonitor(gs.lits_builder, gs.N_ITEMS, **kwargs)


def tabular_pushes():
    """1200 rows of classification function 1, then 600 of function 5."""
    table = generate_classification(1_200, function=1, seed=31).concat(
        generate_classification(600, function=5, seed=32)
    )
    return list(iter_tabular_chunks(table, STEP))


def lits_pushes():
    rows = [row for chunk in gs.transaction_chunks() for row in chunk]
    return list(iter_chunks(rows, STEP))


#: the two sketch-only configurations, with their step-sized pushes
SKETCH_ONLY = {
    "tabular-fixed-bootstrap": (tabular_monitor, tabular_pushes),
    "lits-cheap": (lits_monitor, lits_pushes),
}

#: configurations that read ring rows again
READS_ROWS = {
    "tabular-reset-on-drift": (
        lambda: tabular_monitor(policy="reset_on_drift"), tabular_pushes
    ),
    "tabular-refit-models": (
        lambda: tabular_monitor(refit_models=True, n_boot=4), tabular_pushes
    ),
    "lits-bootstrap": (lambda: lits_monitor(n_boot=8), lits_pushes),
}


def observed(observations):
    return [
        (o.index, o.deviation, o.significance, o.drifted, o.reference_index)
        for o in observations
    ]


def sketches(monitor):
    return [sketch for sketch, _ in monitor.windows.ring]


@pytest.mark.parametrize("name", SKETCH_ONLY)
class TestSketchOnly:
    def test_the_ring_keeps_no_rows(self, name):
        make, pushes = SKETCH_ONLY[name]
        monitor = make()
        assert not monitor.reads_chunk_rows
        for chunk in pushes()[:8]:
            monitor.push(chunk)
        assert len(monitor.windows.ring) == WINDOW // STEP
        assert all(chunk is None for _, chunk in monitor.windows.ring)
        assert monitor.windows.buffered_chunks == ()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_resume_at_a_random_chunk_is_the_fresh_run(
        self, name, seed, tmp_path
    ):
        make, pushes = SKETCH_ONLY[name]
        chunks = pushes()
        fresh = make()
        expected = [fresh.push(chunk) for chunk in chunks]
        cut = random.Random(seed).randrange(WINDOW // STEP + 1, len(chunks) - 1)
        live = make()
        for chunk in chunks[:cut]:
            live.push(chunk)
            live.checkpoint(tmp_path)
        resumed = make().resume(tmp_path)
        assert resumed.rows_ingested == cut * STEP
        assert sketches(resumed) == sketches(live)
        assert all(chunk is None for _, chunk in resumed.windows.ring)
        for k, chunk in enumerate(chunks[cut:], start=cut):
            live_out, resumed_out = live.push(chunk), resumed.push(chunk)
            assert observed(resumed_out) == observed(live_out)
            assert observed(resumed_out) == observed(expected[k])
            assert sketches(resumed) == sketches(live)
        assert observed(resumed.flush()) == observed(fresh.flush())
        assert observed(resumed.history) == observed(fresh.history)

    def test_a_steady_checkpoint_writes_no_rows(self, name, tmp_path):
        make, pushes = SKETCH_ONLY[name]
        chunks = pushes()
        monitor = make()
        warm = WINDOW // STEP + 1
        for chunk in chunks[:warm]:
            monitor.push(chunk)
            monitor.checkpoint(tmp_path)
        registry = MetricsRegistry()
        with use_registry(registry):
            for chunk in chunks[warm:]:
                monitor.push(chunk)
                monitor.checkpoint(tmp_path)
                state = ckpt._read_committed(tmp_path).state
                assert [c["rows"] for c in state["windows"]["chunks"]] == [
                    None
                ] * len(monitor.windows.ring)
        assert registry.counter("resilience.checkpoints_written") == (
            len(chunks) - warm
        )
        assert registry.counter("resilience.checkpoint_rows_written") == 0

    def test_a_window_without_rows_refuses_to_become_a_dataset(self, name):
        make, pushes = SKETCH_ONLY[name]
        monitor = make()
        # the reference window, then a ring one chunk short of a window
        for chunk in pushes()[: 2 * WINDOW // STEP - 1]:
            monitor.push(chunk)
        window = monitor.windows.flush()  # the partial first window
        assert window.chunks == () and len(window) == WINDOW - STEP
        with pytest.raises(InvalidParameterError, match="sketch only"):
            window.to_dataset()


@pytest.mark.parametrize("name", READS_ROWS)
def test_a_monitor_that_reads_rows_writes_each_chunk_once(
    name, tmp_path, monkeypatch
):
    """Each chunk that enters the ring reaches the row writer exactly
    once, however many records name it."""
    make, pushes = READS_ROWS[name]
    writer = "save_tabular" if name.startswith("tabular") else "save_transactions"
    written = []
    real = getattr(ckpt, writer)

    def counting(data, *args, **kwargs):
        written.append(data)
        return real(data, *args, **kwargs)

    monkeypatch.setattr(ckpt, writer, counting)
    monitor = make()
    assert monitor.reads_chunk_rows
    entered = {}  # id -> chunk, holding each so no id is reused
    for chunk in pushes():
        monitor.push(chunk)
        monitor.checkpoint(tmp_path)
        if monitor.windows is not None:
            entered.update((id(c), c) for c in monitor.windows.buffered_chunks)
    assert len(entered) > WINDOW // STEP
    if name == "tabular-reset-on-drift":  # past a promotion's re-sketch
        assert any(o.reference_index for o in monitor.history)
    for chunk in entered.values():
        assert sum(data is chunk for data in written) == 1


def test_a_standalone_window_manager_keeps_rows():
    rows = [row for chunk in gs.transaction_chunks() for row in chunk][:600]
    manager = WindowManager([(0,), (1,), (0, 1)], gs.N_ITEMS, window_chunks=2)
    windows = list(manager.push_many(iter_chunks(rows, 200)))
    assert len(windows) == 2
    assert [len(c) for c in windows[-1].chunks] == [200, 200]
    assert len(windows[-1].to_dataset()) == 400
    assert all(chunk is not None for _, chunk in manager.ring)


def test_the_rule_reads_only_fingerprinted_configuration():
    """Rows are read iff reset_on_drift, or a bootstrap that refits or
    runs over lits membership blocks; every input is fingerprinted."""
    cases = [
        (tabular_monitor(), False),
        (tabular_monitor(n_boot=0, delta_threshold=0.1), False),
        (tabular_monitor(policy="reset_on_drift"), True),
        (tabular_monitor(refit_models=True), True),
        (tabular_monitor(n_boot=0, delta_threshold=0.1, refit_models=True), False),
        (lits_monitor(), False),
        (lits_monitor(n_boot=8), True),
        (lits_monitor(policy="reset_on_drift"), True),
    ]
    for monitor, reads in cases:
        assert monitor.reads_chunk_rows is reads
        fingerprint = ckpt._fingerprint(monitor)
        assert {"kind", "n_boot", "policy", "refit_models"} <= set(fingerprint)
    with pytest.raises(AttributeError):
        tabular_monitor().reads_chunk_rows = True


def test_a_resumed_journal_does_not_switch_the_rule(tmp_path):
    """A sketch-only journal refuses a monitor that would read rows."""
    monitor = tabular_monitor()
    for chunk in tabular_pushes()[:6]:
        monitor.push(chunk)
    monitor.checkpoint(tmp_path)
    with pytest.raises(CheckpointError, match="policy"):
        tabular_monitor(policy="reset_on_drift").resume(tmp_path)
    assert tabular_monitor().resume(tmp_path).rows_ingested == 600
