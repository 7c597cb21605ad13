"""The streams and monitors behind the golden checkpoints.

``golden/`` holds version-1 checkpoints of the ``transactions`` and
``tabular`` scenarios, ``golden_v2/`` version-2 checkpoints of those
and of ``history``, whose history spans sealed blocks, all under
bootstrap draw scheme 2; ``golden_scheme3/`` holds version-2,
scheme-3 checkpoints of the two bootstrap scenarios, and
``golden_v3/`` version-3 journals of all three under scheme 3, and of
``tabular_fixed`` (the ``tabular`` stream under the fixed reference
policy), whose ring records carry the chunk rows its build wrote for
every ring chunk. Shared by
``make_golden.py`` (which wrote the committed checkpoints) and the
golden tests (which resume the version-3 ones and see the others
refused): the monitor configuration here must match the fingerprint
the checkpoints carry.
"""

from __future__ import annotations

import numpy as np

from repro.core.dtree_model import DtModel
from repro.core.lits import LitsModel
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.data.quest_classify import generate_classification
from repro.mining.tree.builder import TreeParams
from repro.stream.chunks import iter_chunks, iter_tabular_chunks
from repro.stream.monitor import OnlineChangeMonitor

N_ITEMS = 40
#: pushed chunk size: not a multiple of either monitor's step, so a
#: checkpoint can land with rows in the buffer
CHUNK = 150


def lits_builder(dataset):
    return LitsModel.mine(dataset, 0.05, max_len=2)


def dt_builder(dataset):
    return DtModel.fit(dataset, TreeParams(max_depth=4, min_leaf=20))


def transaction_chunks() -> list:
    """1600 quiet rows then 800 rows from a shifted process."""
    rng = np.random.default_rng(7)
    pool = build_pattern_pool(
        rng, n_items=N_ITEMS, n_patterns=20, avg_pattern_len=3
    )
    quiet = generate_basket(
        1_600, n_items=N_ITEMS, avg_transaction_len=5, rng=rng, pool=pool
    )
    shifted = generate_basket(
        800, n_items=N_ITEMS, avg_transaction_len=5, n_patterns=20,
        avg_pattern_len=5, rng=rng,
    )
    return list(iter_chunks(list(quiet) + list(shifted), CHUNK))


def tabular_chunks() -> list:
    """1200 rows of classification function 1, then 600 of function 5."""
    table = generate_classification(1_200, function=1, seed=31).concat(
        generate_classification(600, function=5, seed=32)
    )
    return list(iter_tabular_chunks(table, CHUNK))


def history_chunks() -> list:
    """Tiny transaction windows, enough of them to seal history blocks:
    a quiet process, then a shifted one that drifts."""
    rng = np.random.default_rng(13)
    quiet = generate_basket(
        2_700, n_items=N_ITEMS, avg_transaction_len=4, n_patterns=10,
        avg_pattern_len=2, rng=rng,
    )
    shifted = generate_basket(
        300, n_items=N_ITEMS, avg_transaction_len=4, n_patterns=10,
        avg_pattern_len=4, rng=rng,
    )
    return list(iter_chunks(list(quiet) + list(shifted), 25))


def make_monitor(scenario: str) -> OnlineChangeMonitor:
    if scenario == "history":
        # tumbling 8-row windows under the cheap mode: hundreds of
        # observations in a few thousand rows
        return OnlineChangeMonitor(
            lits_builder, N_ITEMS, window_size=8, step=None, n_boot=0,
            delta_threshold=2.5, policy="reset_on_drift",
        )
    common = dict(
        window_size=400, step=200, n_boot=8, threshold=95.0,
        policy="fixed" if scenario == "tabular_fixed" else "reset_on_drift",
        rng=np.random.default_rng(11),
    )
    if scenario == "transactions":
        return OnlineChangeMonitor(lits_builder, N_ITEMS, **common)
    return OnlineChangeMonitor(dt_builder, kind="tabular", **common)


def line(observation) -> str:
    """One observation at full float precision."""
    o = observation
    return (
        f"{o.index} {o.deviation!r} {o.significance!r} {o.drifted} "
        f"{o.reference_index}"
    )
