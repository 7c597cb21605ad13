"""Flat-file persistence for datasets.

Tabular datasets round-trip through an uncompressed ``.npz`` (matrix +
labels) plus an embedded strict-JSON schema, written by the one
attribute-space codec the model files share (an unbounded attribute's
bound is a signed ``"inf"`` string; schemas an older build wrote with
``Infinity`` still load); transaction datasets use the
classic one-line-per-transaction text format that Apriori
implementations exchange: UTF-8, whitespace-separated integer items, a
blank line for an empty transaction. The first ``# n_items=N`` line
(``N >= 1``) is the header and must come before any data line; later
``#`` lines are comments. A bad header or item raises
:class:`~repro.errors.InvalidParameterError` naming the file and line.
Files parse block by block to raw CSR arrays, vectorised for plain
digits, else through the row-wise :func:`parse_transactions_block_loop`,
the oracle; :func:`read_transaction_blocks`, shared by both readers,
makes each block a canonical
:class:`~repro.data.transactions.TransactionDataset`.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from itertools import chain
from os import PathLike
from pathlib import Path
from typing import Any, BinaryIO, Iterator

import numpy as np

from repro.core.attribute import Attribute, AttributeKind, AttributeSpace
from repro.data.tabular import TabularDataset
from repro.data.transactions import TransactionDataset, as_csr
from repro.errors import InvalidParameterError
from repro.obs import metrics

#: Bytes read per block, cut back to its last line break: about a
#: thousand basket rows, so a stream holds little text beyond one chunk.
BLOCK_BYTES = 1 << 15
#: The vectorised parser's longest token: 18 digits always fit an int64.
_MAX_DIGITS = 18
_HEADER = "n_items="


def _bound_to_json(value: float) -> float | str:
    # unbounded attributes carry +/-inf bounds, which strict JSON
    # cannot express -- encode them as signed "inf" strings
    v = float(value)
    if math.isfinite(v):
        return v
    if math.isnan(v):
        raise InvalidParameterError("attribute bound is NaN")
    return "inf" if v > 0 else "-inf"


def _bound_from_json(value: float | int | str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"attribute bound must be a number or a signed 'inf' string, "
            f"got {value!r}"
        ) from None
    if math.isnan(v):
        raise InvalidParameterError("attribute bound is NaN")
    return v


def _space_to_dict(space: AttributeSpace) -> dict[str, Any]:
    return {
        "attributes": [
            {
                "name": a.name,
                "kind": a.kind.value,
                "low": _bound_to_json(a.low),
                "high": _bound_to_json(a.high),
                "values": list(a.values),
            }
            for a in space.attributes
        ],
        "class_labels": list(space.class_labels),
    }


def _space_from_dict(d: dict[str, Any]) -> AttributeSpace:
    return AttributeSpace(
        tuple(
            Attribute(
                name=a["name"],
                kind=AttributeKind(a["kind"]),
                low=_bound_from_json(a["low"]),
                high=_bound_from_json(a["high"]),
                values=tuple(a["values"]),
            )
            for a in d["attributes"]
        ),
        tuple(d["class_labels"]),
    )


def save_tabular(dataset: TabularDataset, path: str | Path | BinaryIO) -> None:
    """Write a tabular dataset to ``path`` (``.npz``) or a binary file.

    The archive is stored without compression: zlib costs about ten
    times the write for a 1.6x smaller file (a 1,000-row Agrawal chunk
    takes 0.37 ms raw at 78 KiB, 4.9 ms compressed at 47 KiB), and
    checkpoints write one per pushed chunk.
    """
    schema = json.dumps(_space_to_dict(dataset.space), allow_nan=False)
    arrays = {"X": dataset.X, "schema": np.array(schema)}
    if dataset.y is not None:
        arrays["y"] = dataset.y
    np.savez(path, **arrays)


def load_tabular(path: str | Path | BinaryIO) -> TabularDataset:
    """Read a tabular dataset written by :func:`save_tabular`, or by an
    older build's compressed writer: ``np.load`` reads both."""
    with np.load(path, allow_pickle=False) as data:
        space = _space_from_dict(json.loads(str(data["schema"])))
        y = data["y"] if "y" in data.files else None
        return TabularDataset(space, data["X"], y)


def save_transactions(
    dataset: TransactionDataset, path: str | Path | BinaryIO
) -> None:
    """Write transactions as space-separated item ids, one line each, to
    ``path`` or a binary file (UTF-8, ``\\n`` line ends).

    The first line is a header comment recording the item universe size.
    """
    indptr, indices = as_csr(dataset)
    tokens, bounds = list(map(str, indices.tolist())), indptr.tolist()
    lines = chain(
        [f"# n_items={dataset.n_items}\n"],
        (" ".join(tokens[a:b]) + "\n" for a, b in zip(bounds[:-1], bounds[1:])),
    )
    if isinstance(path, (str, PathLike)):
        with Path(path).open("w", encoding="utf-8", newline="\n") as f:
            f.writelines(lines)
    else:
        path.write("".join(lines).encode())


def load_transactions(path: str | Path | BinaryIO) -> TransactionDataset:
    """Read transactions written by :func:`save_transactions`."""
    n_items, blocks = read_transaction_blocks(path)
    parts = list(blocks) or [TransactionDataset([], n_items)]
    return TransactionDataset.concat_many(parts)


def read_transaction_blocks(
    path: str | Path | BinaryIO,
) -> tuple[int, Iterator[TransactionDataset]]:
    """Open a transactions file as ``(n_items, block iterator)``.

    The header is validated here; each block of lines then yields a
    range-checked, canonical :class:`TransactionDataset`, and a bad
    line raises once the rows before it were yielded.
    """
    reader = _read_blocks(Path(path) if isinstance(path, (str, PathLike)) else path)
    n_items: int = next(reader)
    return n_items, reader


def parse_transactions_block(block: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Vectorised parse of whole lines to CSR ``(indptr, indices)``.

    Only for ASCII digits, space, tab, CR and LF and tokens of at most
    18 digits, else ``None``. Token starts come from a digit mask,
    ``indptr`` from a ``searchsorted`` of them against the line ends,
    the values from one ``np.fromstring``.
    """
    raw = np.frombuffer(block, dtype=np.uint8)
    digit = raw >= 48
    line_ends = np.flatnonzero(raw == 10)
    known = np.count_nonzero(digit) + line_ends.size + sum(
        np.count_nonzero(raw == byte) for byte in b" \t\r"
    )
    if raw.max(initial=0) > 57 or known < raw.size:
        return None
    # a token starts where a digit follows a non-digit, and ends v.v.
    edges = np.concatenate(([False], digit, [False]))
    starts = np.flatnonzero(edges[1:] > edges[:-1])
    ends = np.flatnonzero(edges[1:] < edges[:-1])
    if starts.size and (ends - starts).max() > _MAX_DIGITS:
        return None
    if block and not block.endswith(b"\n"):
        line_ends = np.append(line_ends, raw.shape[0])
    indptr = np.concatenate(([0], np.searchsorted(starts, line_ends)))
    values = np.fromstring(block, np.int64, sep=" ") if starts.size else starts
    return (indptr, values) if values.shape == starts.shape else None


def parse_transactions_block_loop(
    block: bytes, n_items: int
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[int, str] | None]:
    """Row-wise parse of whole lines: ``int()`` per token (the oracle).

    Each line is stripped; ``#`` lines are comments, empty lines empty
    transactions, others rows of items in ``[0, n_items)``. Returns the
    raw CSR arrays of the rows before the first bad line and ``(its
    line in the block, why)``.
    """
    rows: list[tuple[int, ...]] = []
    bad: tuple[int, str] | None = None
    for number, line in enumerate(block.splitlines(), start=1):
        try:
            text = line.decode("utf-8").strip()
            if text.startswith("#"):
                continue
            row = tuple(map(int, text.split()))
        except ValueError as exc:  # UnicodeDecodeError included
            bad = (number, str(exc))
            break
        if row and not 0 <= min(row) <= max(row) < n_items:
            bad = (number, f"items {row} outside [0, {n_items})")
            break
        rows.append(row)
    return as_csr(rows), bad


def _read_blocks(path: Path | BinaryIO) -> Iterator[Any]:
    """Yield ``n_items``, then a dataset per block of data lines."""
    with path.open("rb") if isinstance(path, Path) else nullcontext(path) as f:
        blocks = _line_blocks(f)
        n_items, n_blank, line, rest = _read_header(blocks, path)
        yield n_items
        if n_blank:
            yield TransactionDataset([()] * n_blank, n_items)
        for block in chain([rest] if rest else [], blocks):
            csr = parse_transactions_block(block)
            if csr is not None and (not csr[1].size or csr[1].max() < n_items):
                bad = None
            else:  # an odd alphabet, or a bad item to locate
                metrics().inc("data.parse.fallback_blocks")
                csr, bad = parse_transactions_block_loop(block, n_items)
            if csr[0].shape[0] > 1:
                yield TransactionDataset.from_csr(*csr, n_items)
            if bad is not None:
                raise InvalidParameterError(f"{path}, line {line + bad[0]}: {bad[1]}")
            line += block.count(b"\n") + (not block.endswith(b"\n"))


def _read_header(
    blocks: Iterator[bytes], path: Path | BinaryIO
) -> tuple[int, int, int, bytes]:
    """The one header reader: ``(n_items, blank rows, lines read, rest)``.

    The first ``# n_items=`` line must come before any data line; a
    blank line ahead of it is an empty transaction, as anywhere else.
    ``rest`` is what follows the header in its block.
    """
    line = n_blank = 0
    for block in blocks:
        offset = 0
        for raw in block.splitlines(keepends=True):
            offset += len(raw)
            line += 1
            try:
                text = raw.decode("utf-8").strip()
                header = text.startswith("#") and _HEADER in text
                n_items = int(text.split(_HEADER, 1)[1]) if header else 1
                if n_items < 1:
                    raise ValueError(f"n_items must be >= 1, got {n_items}")
            except ValueError as exc:  # UnicodeDecodeError included
                raise InvalidParameterError(f"{path}, line {line}: {exc}") from None
            if header:
                return n_items, n_blank, line, block[offset:]
            if text and not text.startswith("#"):
                raise InvalidParameterError(
                    f"{path}, line {line}: data before the '# n_items=' header"
                )
            n_blank += not text
    raise InvalidParameterError(f"{path} lacks the '# n_items=' header")


def _line_blocks(f: BinaryIO) -> Iterator[bytes]:
    """Blocks of whole lines, universal newlines translated to LF."""
    tail = b""
    while True:
        data = f.read(BLOCK_BYTES)
        block = tail + data
        # a final CR may be the first half of a CRLF: it waits for more
        ends = block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)
        cut = max(ends) + 1 if data else len(block)
        block, tail = block[:cut], block[cut:]
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if block:
            yield block
        if not data:
            return
