"""The CSR transaction codec: parser, index scatter, buffer, dataset.

The vectorised parser is pinned against two oracles: the row-wise loop
parser (every block forced through it) and an independent text-mode
reader written here with Python's ``int()`` semantics. Both entry points
(``load_transactions`` and ``stream_transaction_chunks``) must accept and
reject the same files and produce the same canonical rows, at several
chunk sizes and block sizes.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import io as data_io
from repro.data.io import (
    load_transactions,
    parse_transactions_block,
    parse_transactions_block_loop,
    save_transactions,
)
from repro.data.transactions import (
    BitmapIndex,
    TransactionDataset,
    as_csr,
    canonical_csr,
)
from repro.errors import CheckpointError, InvalidParameterError
from repro.obs import MetricsRegistry, use_registry
from repro.stream import OnlineChangeMonitor
from repro.stream.chunks import stream_transaction_chunks

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class Rejected(Exception):
    """The oracle refuses the file."""


def oracle_read(path: Path) -> tuple[int, list[tuple[int, ...]]]:
    """Text-mode reference reader: ``(n_items, rows in file order)``.

    Universal newlines, ``str.strip``/``str.split`` and ``int()`` per
    token; the first ``# n_items=`` line must precede any data line,
    later ``#`` lines are comments, and items must lie in the universe.
    """
    n_items = None
    rows: list[tuple[int, ...]] = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            text = line.strip()
            if n_items is None:
                if text.startswith("#"):
                    if "n_items=" in text:
                        try:
                            n_items = int(text.split("n_items=", 1)[1])
                        except ValueError:
                            raise Rejected from None
                        if n_items < 1:
                            raise Rejected
                    continue
                if text:
                    raise Rejected
                rows.append(())
                continue
            if text.startswith("#"):
                continue
            try:
                row = tuple(int(token) for token in text.split())
            except ValueError:
                raise Rejected from None
            if any(not 0 <= item < n_items for item in row):
                raise Rejected
            rows.append(row)
    if n_items is None:
        raise Rejected
    return n_items, rows


def read_load(path: Path) -> tuple[int, list[tuple[int, ...]]]:
    dataset = load_transactions(path)
    return dataset.n_items, dataset.transactions


def read_stream(path: Path, chunk_size: int) -> tuple[int, list[tuple[int, ...]]]:
    n_items, chunks = stream_transaction_chunks(path, chunk_size)
    rows: list[tuple[int, ...]] = []
    sizes = []
    for chunk in chunks:
        assert isinstance(chunk, TransactionDataset)
        sizes.append(len(chunk))
        rows.extend(chunk)
    assert all(size == chunk_size for size in sizes[:-1])
    return n_items, rows


def outcome(read, *args):
    try:
        return read(*args)
    except InvalidParameterError as exc:
        assert ", line " in str(exc) or "lacks" in str(exc)
        return "rejected"


# --------------------------------------------------------------------- #
# Generated files
# --------------------------------------------------------------------- #

N_ITEMS = 9

_EXOTIC = ["zeros", "plus", "minus", "underscore", "arabic", "fullwidth", "long"]


@st.composite
def tokens(draw, plain):
    if not plain and draw(st.integers(0, 40)) == 0:
        return draw(st.sampled_from(["x", "1.5", "_1", "1__0", "--1", "+"]))
    high = N_ITEMS - 1 if draw(st.integers(0, 200)) else N_ITEMS + 2
    value = draw(st.integers(0, high))
    form = "plain" if plain or draw(st.integers(0, 3)) else draw(
        st.sampled_from(_EXOTIC)
    )
    digits = str(value)
    if form == "zeros":
        return "00" + digits
    if form == "plus":
        return "+" + digits
    if form == "minus":
        return "-" + digits
    if form == "underscore" and value >= 10:
        return digits[0] + "_" + digits[1:]
    if form == "arabic":
        return "".join(chr(0x660 + int(d)) for d in digits)
    if form == "fullwidth":
        return "".join(chr(0xFF10 + int(d)) for d in digits)
    if form == "long":
        return "0" * 19 + digits
    return digits


@st.composite
def lines(draw, plain):
    kinds = ["data"] * 8 + ["blank", "spaces"]
    if not plain:
        kinds += ["comment", "late-header"]
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return ""
    if kind == "spaces":
        return draw(st.sampled_from([" ", "\t", " \t  "]))
    if kind == "comment":
        return "# " + draw(st.sampled_from(["note", "", "x y 3"]))
    if kind == "late-header":
        return "# n_items=2"
    seps = st.sampled_from([" ", "\t", "  ", " \t"])
    row = draw(st.lists(tokens(plain), max_size=6))
    text = ""
    for token in row:
        text += token + draw(seps)
    return draw(st.sampled_from(["", " ", "\t"])) + text


@st.composite
def files(draw):
    """Plain files (the vectorised path) half the time, odd ones else."""
    plain = draw(st.booleans())
    body = draw(st.lists(lines(plain), max_size=30))
    header = draw(st.sampled_from(
        [f"# n_items={N_ITEMS}"] * 12
        + ["#n_items=4", "# n_items=ten", "# n_items=0", "# n_items=-3", None]
    ))
    at = draw(st.integers(0, 2))
    head = draw(st.lists(st.sampled_from(["", "# c", " "]), max_size=2))
    if header is not None:
        head.insert(min(at, len(head)), header)
    if draw(st.integers(0, 15)) == 0 and body:
        # a header after a data line: rejected by both readers
        head, body = body[:1] + head, body[1:]
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = newline.join(head + body)
    if draw(st.booleans()):
        text += newline
    return text


def _write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "txns.txt"
    path.write_bytes(text.encode("utf-8"))
    return path


def _force_loop(block: bytes):
    return None


def _stream_all(path: Path):
    return list(stream_transaction_chunks(path, 2)[1])


def _monitor(n_items: int) -> OnlineChangeMonitor:
    return OnlineChangeMonitor(
        lambda d: None, n_items, window_size=4, rng=np.random.default_rng(0)
    )


def _read_all(path: Path):
    loaded = outcome(read_load, path)
    streamed = [outcome(read_stream, path, size) for size in (1, 7, 1000)]
    return loaded, streamed


class TestParserAgainstOracle:
    @SETTINGS
    @given(text=files(), block_bytes=st.sampled_from([7, 64, 1 << 16]))
    def test_entry_points_match_the_oracle(self, tmp_path, text, block_bytes):
        path = _write(tmp_path, text)
        try:
            expected = oracle_read(path)
        except Rejected:
            expected = "rejected"
        with mock.patch.object(data_io, "BLOCK_BYTES", block_bytes):
            results = [_read_all(path)]
            # every block through the loop parser
            with mock.patch.object(
                data_io, "parse_transactions_block", _force_loop
            ):
                results.append(_read_all(path))
        for loaded, streamed in results:
            if expected == "rejected":
                assert loaded == "rejected"
                assert streamed == ["rejected"] * 3
                continue
            n_items, rows = expected
            canonical = [tuple(sorted(set(row))) for row in rows]
            assert loaded == (n_items, canonical)
            assert streamed == [(n_items, canonical)] * 3

    @SETTINGS
    @given(text=files())
    def test_block_parsers_agree(self, text):
        block = text.replace("\r\n", "\n").replace("\r", "\n").encode("utf-8")
        fast = parse_transactions_block(block)
        (indptr, indices), bad = parse_transactions_block_loop(block, 1 << 40)
        if fast is None:
            return
        # a vectorised block is comment- and sign-free, so never bad
        assert bad is None
        assert np.array_equal(fast[0], indptr)
        assert np.array_equal(fast[1], indices)

    def test_fast_path_covers_plain_blocks(self):
        block = b"1 2 3\n\n007\t4\n 5 \n999999999999999999\n6"
        indptr, indices = parse_transactions_block(block)
        assert indptr.tolist() == [0, 3, 3, 5, 6, 7, 8]
        assert indices.tolist() == [1, 2, 3, 7, 4, 5, 999999999999999999, 6]
        assert parse_transactions_block(b"1 " + b"1" * 19 + b"\n") is None
        assert parse_transactions_block(b"+1\n") is None
        assert parse_transactions_block(b"# c\n") is None

    def test_plain_corpus_never_falls_back(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [
            tuple(rng.choice(50, size=rng.integers(0, 8), replace=False))
            for _ in range(3_000)
        ]
        path = tmp_path / "plain.txt"
        save_transactions(TransactionDataset(rows, 50), path)
        registry = MetricsRegistry()
        with use_registry(registry), mock.patch.object(data_io, "BLOCK_BYTES", 4096):
            loaded = load_transactions(path)
            n_items, chunks = stream_transaction_chunks(path, 100)
            assert sum(len(c) for c in chunks) == len(rows)
        counters = registry.snapshot()["counters"]
        assert counters.get("data.parse.fallback_blocks", 0) == 0
        assert loaded.transactions == [tuple(sorted(r)) for r in rows]


class TestTypedErrors:
    @pytest.mark.parametrize(
        "text, line",
        [
            ("# n_items=5\n1 2\n3 x\n", 3),
            ("# n_items=ten\n1\n", 1),
            ("# n_items=0\n1\n", 1),
            ("# n_items=-3\n", 1),
            ("1 2\n# n_items=5\n3\n", 1),
            ("# n_items=5\n\n# c\n4 5\n", 4),
        ],
    )
    def test_bad_lines_name_path_and_line(self, tmp_path, text, line):
        path = _write(tmp_path, text)
        for read in (load_transactions, _stream_all):
            with pytest.raises(InvalidParameterError) as info:
                read(path)
            assert f"{path}, line {line}:" in str(info.value)

    def test_stream_yields_the_chunks_before_a_bad_line(self, tmp_path):
        path = _write(tmp_path, "# n_items=5\n1\n2\n3\n4\n3 x\n")
        n_items, chunks = stream_transaction_chunks(path, 2)
        assert [list(next(chunks)), list(next(chunks))] == [[(1,), (2,)], [(3,), (4,)]]
        with pytest.raises(InvalidParameterError, match="line 6"):
            next(chunks)

    def test_stream_opens_the_file_once(self, tmp_path):
        path = _write(tmp_path, "# n_items=5\n1 2\n3\n")
        opened = []
        real_open = Path.open

        def counting_open(self, *args, **kwargs):
            opened.append(self)
            return real_open(self, *args, **kwargs)

        with mock.patch.object(Path, "open", counting_open):
            n_items, chunks = stream_transaction_chunks(path, 1)
            assert [list(c) for c in chunks] == [[(1, 2)], [(3,)]]
        assert opened == [path]

    def test_checkpoint_rows_wrap_parse_errors(self, tmp_path):
        from repro.resilience.checkpoint import _load_rows

        path = _write(tmp_path, "# n_items=5\n3 x\n")
        monitor = _monitor(5)
        with pytest.raises(CheckpointError) as exc:
            _load_rows(monitor, path.read_bytes(), path)
        assert exc.value.path == str(path)


# --------------------------------------------------------------------- #
# Index, chunk, buffer, dataset
# --------------------------------------------------------------------- #

rows_strategy = st.lists(
    st.lists(st.integers(0, 11), max_size=6).map(tuple), max_size=40
)


def naive_bits(rows, n_items):
    n_bytes = (len(rows) + 7) // 8
    bits = np.zeros((n_items, n_bytes), dtype=np.uint8)
    for tid, row in enumerate(rows):
        for item in row:
            bits[item, tid >> 3] |= 128 >> (tid & 7)
    return bits


class TestCsrIndex:
    @SETTINGS
    @given(rows=rows_strategy, cuts=st.lists(st.integers(0, 40), max_size=4))
    def test_csr_index_bits_equal_tuple_bits(self, rows, cuts):
        expected = naive_bits(rows, 12)
        chunk = TransactionDataset(rows, 12)
        assert np.array_equal(BitmapIndex(chunk, 12)._bits, expected)
        assert np.array_equal(BitmapIndex(rows, 12)._bits, expected)
        # appends at tid offsets that are rarely a multiple of 8
        bounds = sorted({min(c, len(rows)) for c in cuts} | {0, len(rows)})
        grown = BitmapIndex([], 12)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            grown.append(chunk.slice_rows(start, stop))
        assert np.array_equal(grown._bits, expected)

    def test_out_of_range_scatter_raises(self):
        with pytest.raises(InvalidParameterError):
            BitmapIndex([(1, 12)], 12)


class TestChunkAndBuffer:
    @SETTINGS
    @given(rows=rows_strategy)
    def test_chunk_pickles_its_arrays(self, rows):
        chunk = TransactionDataset(rows, 12)
        chunk.index  # noqa: B018 - cache it; the copy must not carry it
        copy = pickle.loads(pickle.dumps(chunk))
        assert np.array_equal(copy.indptr, chunk.indptr)
        assert np.array_equal(copy.indices, chunk.indices)
        assert list(copy) == [tuple(sorted(set(row))) for row in rows]
        assert copy.n_items == 12 and copy._index is None
        assert np.array_equal(copy.index._bits, chunk.index._bits)

    @SETTINGS
    @given(
        pushes=st.lists(rows_strategy, max_size=6),
        pops=st.lists(st.integers(1, 30), max_size=8),
    )
    def test_buffer_pop_across_chunk_boundaries(self, pushes, pops):
        monitor = _monitor(12)
        buffer = monitor._buffer
        flat: list[tuple[int, ...]] = []
        for i, rows in enumerate(pushes):
            # alternate plain rows and ready-made dataset chunks
            buffer.extend(rows if i % 2 else TransactionDataset(rows, 12))
            flat.extend(tuple(sorted(set(row))) for row in rows)
        assert len(buffer) == len(flat)
        if flat:
            assert list(buffer.rows()) == flat
        for k in pops:
            k = min(k, len(buffer))
            if not k:
                break
            popped = buffer.pop(k)
            assert isinstance(popped, TransactionDataset)
            assert list(popped) == flat[:k]
            del flat[:k]
            assert len(buffer) == len(flat)

    def test_exact_pop_hands_the_pushed_chunk_on(self):
        monitor = _monitor(3)
        chunk = TransactionDataset([(0,), (1, 2)], 3)
        monitor._buffer.extend(chunk)
        assert monitor._buffer.rows() is chunk
        assert monitor._buffer.pop(2) is chunk


class TestCsrDataset:
    @SETTINGS
    @given(rows=rows_strategy, picks=st.lists(st.integers(-40, 39), max_size=10))
    def test_csr_dataset_equals_tuple_canonicalisation(self, rows, picks):
        canonical = [tuple(sorted(set(row))) for row in rows]
        dataset = TransactionDataset.from_csr(*as_csr(rows), 12)
        assert dataset.transactions == canonical
        assert list(TransactionDataset(rows, 12)) == canonical
        assert dataset.average_length() == pytest.approx(
            sum(map(len, canonical)) / len(canonical) if canonical else 0.0
        )
        both = dataset.concat(dataset)
        assert both.transactions == canonical + canonical
        picks = [p for p in picks if -len(rows) <= p < len(rows)]
        assert dataset.take(np.array(picks, dtype=np.int64)).transactions == [
            canonical[p] for p in picks
        ]
        indptr, indices = canonical_csr(dataset.indptr, dataset.indices, 12)
        assert indptr is dataset.indptr and indices is dataset.indices

    def test_concat_many_hands_a_lone_dataset_on(self):
        from repro.data.quest_classify import generate_classification
        from repro.data.tabular import TabularDataset

        dataset = TransactionDataset([(2, 1, 2), (0,)], 3)
        assert TransactionDataset.concat_many([dataset]) is dataset
        table = generate_classification(10, seed=0)
        assert TabularDataset.concat_many([table]) is table
        both = TransactionDataset.concat_many([dataset, dataset.slice_rows(1, 2)])
        assert both.transactions == [(1, 2), (0,), (0,)]
        with pytest.raises(InvalidParameterError):
            TransactionDataset.concat_many([dataset, TransactionDataset([], 4)])
        with pytest.raises(InvalidParameterError):
            TransactionDataset.concat_many([])

    def test_out_of_universe_rows_rejected(self):
        with pytest.raises(InvalidParameterError):
            TransactionDataset([(0, 1), (2, 7)], 5)
        with pytest.raises(InvalidParameterError):
            TransactionDataset([(-1,)], 5)
