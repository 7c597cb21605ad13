"""The vectorised itemset-table decoder against the loop it replaced.

:func:`repro.wire.encoding.itemsets_from_sections` validates canonical
order with numpy, per size block. The loop below is the decoder it
replaced, kept verbatim as the oracle: on every integer table -- valid,
randomly garbled, or carrying one targeted corruption -- both decoders
must accept the same collection or reject with the same message and the
same ``section=``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import _Canonical
from repro.errors import WireFormatError
from repro.wire.encoding import (
    itemset_sections,
    itemsets_from_sections,
    pack_array,
    unpack_array,
)
from repro.stream.sketch import canonical_itemsets


def itemsets_from_sections_loop(
    sizes_payload: bytes,
    items_payload: bytes,
    *,
    sizes_section: str = "sizes",
    items_section: str = "items",
) -> tuple[frozenset[int], ...]:
    """The per-itemset loop decoder (oracle)."""
    sizes = unpack_array(sizes_payload, sizes_section)
    flat = unpack_array(items_payload, items_section)
    if sizes.ndim != 1 or flat.ndim != 1:
        raise WireFormatError(
            "itemset tables must be 1-d arrays", section=sizes_section
        )
    if sizes.size and int(sizes.min()) < 0:
        raise WireFormatError(
            "negative itemset size", section=sizes_section
        )
    if int(sizes.sum()) != flat.size:
        raise WireFormatError(
            f"itemset sizes sum to {int(sizes.sum())} but "
            f"{flat.size} items are present",
            section=items_section,
        )
    if flat.size and int(flat.min()) < 0:
        raise WireFormatError("negative item id", section=items_section)
    itemsets: list[frozenset[int]] = []
    offset = 0
    for size in (int(s) for s in sizes):
        group = flat[offset : offset + size]
        itemset = frozenset(int(i) for i in group)
        if len(itemset) != size:
            raise WireFormatError(
                "duplicate items within one itemset",
                section=items_section,
            )
        itemsets.append(itemset)
        offset += size
    canonical = sorted(
        set(itemsets), key=lambda s: (len(s), tuple(sorted(s)))
    )
    if len(canonical) != len(itemsets) or canonical != itemsets:
        raise WireFormatError(
            "itemset collection is not in canonical order (size, then "
            "lexicographic, no duplicates); refusing to silently "
            "re-sort it against its positional counts",
            section=items_section,
        )
    return tuple(itemsets)


def outcome(decoder, sizes: list[int], items: list[int]):
    """``("ok", itemsets)`` or ``("error", section, message)``."""
    payloads = (
        pack_array(np.array(sizes, dtype=np.int64)),
        pack_array(np.array(items, dtype=np.int64)),
    )
    try:
        return ("ok", tuple(decoder(*payloads)))
    except WireFormatError as exc:
        return ("error", exc.section, str(exc))


def assert_same(sizes: list[int], items: list[int]) -> tuple:
    expected = outcome(itemsets_from_sections_loop, sizes, items)
    assert outcome(itemsets_from_sections, sizes, items) == expected
    return expected


itemset_lists = st.lists(
    st.frozensets(st.integers(0, 9), max_size=4), max_size=12
)


def table(itemsets) -> tuple[list[int], list[int]]:
    """The canonical (sizes, items) table of a collection."""
    canon = canonical_itemsets(itemsets)
    return [len(s) for s in canon], [i for s in canon for i in sorted(s)]


@settings(max_examples=200, deadline=None)
@given(itemset_lists)
def test_valid_tables_decode_identically(itemsets):
    sizes, items = table(itemsets)
    result = assert_same(sizes, items)
    assert result[0] == "ok"
    decoded = itemsets_from_sections(
        *itemset_sections(canonical_itemsets(itemsets))
    )
    assert isinstance(decoded, _Canonical)
    assert decoded == canonical_itemsets(itemsets)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-1, 4), max_size=8),
    st.lists(st.integers(-1, 6), max_size=20),
)
def test_arbitrary_tables_get_the_same_verdict(sizes, items):
    assert_same(sizes, items)


CORRUPTIONS = (
    "negative_size", "negative_item", "sum_mismatch", "duplicate_item",
    "out_of_order", "duplicate_itemset", "unsorted_items",
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.frozensets(st.integers(0, 9), min_size=1, max_size=4),
        min_size=2, max_size=12, unique=True,
    ),
    st.sampled_from(CORRUPTIONS),
    st.data(),
)
def test_corruptions_are_rejected_identically(itemsets, corruption, data):
    canon = list(canonical_itemsets(itemsets))
    rows = [sorted(s) for s in canon]
    k = data.draw(st.integers(0, len(rows) - 1), label="row")
    if corruption == "negative_size":
        sizes, items = table(canon)
        sizes[k] = -1
    elif corruption == "negative_item":
        rows[k][0] = -1 - rows[k][0]
        sizes, items = [len(r) for r in rows], [i for r in rows for i in r]
    elif corruption == "sum_mismatch":
        sizes, items = table(canon)
        items = items + [0] if data.draw(st.booleans()) else items[:-1]
    elif corruption == "duplicate_item":
        rows[k].append(rows[k][-1])
        sizes, items = [len(r) for r in rows], [i for r in rows for i in r]
    elif corruption == "out_of_order":
        rows[k], rows[k - 1] = rows[k - 1], rows[k]
        sizes, items = [len(r) for r in rows], [i for r in rows for i in r]
    elif corruption == "duplicate_itemset":
        rows.insert(k, list(rows[k]))
        sizes, items = [len(r) for r in rows], [i for r in rows for i in r]
    else:
        rows[k].reverse()
        sizes, items = [len(r) for r in rows], [i for r in rows for i in r]
    verdict = assert_same(sizes, items)
    # reordering a row's items leaves its set unchanged, so both accept
    assert verdict[0] == ("ok" if corruption == "unsorted_items" else "error")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_non_integer_tables_are_rejected(dtype):
    """Producers only emit int64; a float table is refused, not truncated."""
    sizes = pack_array(np.array([1, 2], dtype=dtype))
    items = pack_array(np.array([0, 1, 2], dtype=np.int64))
    with pytest.raises(WireFormatError, match="int64-range") as info:
        itemsets_from_sections(sizes, items)
    assert info.value.section == "sizes"
    sizes = pack_array(np.array([1, 2], dtype=np.int64))
    items = pack_array(np.array([0, 1, 2], dtype=dtype))
    with pytest.raises(WireFormatError, match="int64-range") as info:
        itemsets_from_sections(sizes, items)
    assert info.value.section == "items"


def test_unsigned_tables_decode_like_signed():
    sizes = pack_array(np.array([1, 2], dtype=np.uint32))
    items = pack_array(np.array([3, 1, 2], dtype=np.uint32))
    assert itemsets_from_sections(sizes, items) == (
        frozenset({3}), frozenset({1, 2}),
    )
    huge = pack_array(np.array([2**63], dtype=np.uint64))
    with pytest.raises(WireFormatError) as info:
        itemsets_from_sections(sizes, huge)
    assert info.value.section == "items"


def test_sizes_whose_int64_sum_wraps_are_rejected():
    """Four sizes of 2**62 + 3 wrap to a 3-item sum in int64 arithmetic."""
    sizes = pack_array(np.array([2**62] * 3 + [2**62 + 3], dtype=np.int64))
    items = pack_array(np.array([0, 1, 2], dtype=np.int64))
    with pytest.raises(WireFormatError, match="sum to") as info:
        itemsets_from_sections(sizes, items)
    assert info.value.section == "items"
