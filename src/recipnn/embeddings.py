"""Immutable embedding store with a text (TSV) and a bit-exact binary codec.

Binary format ``EMB1``: magic bytes ``45 4D 42 31``, u32 LE dimensionality,
u64 LE record count, then per record a u16 LE id byte length, the id as
UTF-8, and ``dim`` float32 LE components.

TSV format: one record per line, ``<id>\\t<c1>,<c2>,...,<cdim>``.

Vectors are held as float32 (the binary payload type) and are returned
exactly as loaded — no normalization of any kind is applied.
"""

from __future__ import annotations

import os
import struct
from array import array
from pathlib import Path
from typing import Iterable, Iterator, KeysView, Sequence

import numpy as np

from .errors import DataError
from .textfile import numbered_lines, open_text

MAGIC = b"EMB1"
MAX_DIM = 16384
MAX_ID_BYTES = 65535

_HEADER = struct.Struct("<IQ")
_ID_LEN = struct.Struct("<H")


def _check_ids(ids: Sequence[str]) -> None:
    """Raise for the first id, in order, that is empty, too long or repeated."""
    seen: set[str] = set()
    for pos, eid in enumerate(ids):
        if not eid:
            raise DataError(f"empty id at position {pos}")
        if len(eid.encode("utf-8")) > MAX_ID_BYTES:
            raise DataError(f"id at position {pos} exceeds {MAX_ID_BYTES} UTF-8 bytes")
        if eid in seen:
            raise DataError(f"duplicate id {eid!r}")
        seen.add(eid)


class EmbeddingMatrix:
    """Ordered, immutable id -> vector store.

    Lookup is O(1); iteration order equals construction (file) order.
    Safe for concurrent reads once constructed. The ids are held once: as
    the keys, in order, of the id -> row index.
    """

    __slots__ = ("_vectors", "_index")

    def __init__(self, ids: Sequence[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise DataError(f"expected a 2-D vector array, got shape {vectors.shape}")
        if len(ids) != vectors.shape[0]:
            raise DataError(f"{len(ids)} ids for {vectors.shape[0]} vectors")
        if not (1 <= vectors.shape[1] <= MAX_DIM):
            raise DataError(f"dimensionality {vectors.shape[1]} outside [1, {MAX_DIM}]")
        if vectors.size and not np.isfinite([vectors.min(), vectors.max()]).all():  # no (n, dim) temporary
            bad = [ids[i] for i in np.unique(np.nonzero(~np.isfinite(vectors))[0])][:5]
            raise DataError(f"non-finite component(s) in vector(s): {bad}")
        index = dict(zip(ids, range(len(ids))))
        # a UTF-8 code point takes at most 4 bytes, so only ids longer than
        # MAX_ID_BYTES // 4 characters need encoding to check their length
        if len(index) != len(ids) or "" in index or max(map(len, ids), default=0) > MAX_ID_BYTES // 4:
            _check_ids(ids)
        self._vectors = vectors
        self._vectors.setflags(write=False)
        self._index = index

    @property
    def dim(self) -> int:
        return int(self._vectors.shape[1])

    @property
    def ids(self) -> list[str]:
        return list(self._index)

    def keys(self) -> KeysView[str]:
        """The ids in order, as a view of the index: the store's own str objects, no copy."""
        return self._index.keys()

    @property
    def vectors(self) -> np.ndarray:
        """The (n, dim) float32 array backing the store (read-only view)."""
        return self._vectors

    def lookup(self, eid: str) -> np.ndarray:
        """Return the stored vector for `eid`, exactly as loaded."""
        try:
            return self._vectors[self._index[eid]]
        except KeyError:
            raise DataError(f"unknown embedding id {eid!r}") from None

    def positions(self, eids: Iterable[str]) -> list[int | None]:
        """The row of each id, None for an id the store lacks: one dict lookup per id."""
        return list(map(self._index.get, eids))

    def __contains__(self, eid: str) -> bool:
        return eid in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return zip(self._index, self._vectors)

    def __eq__(self, other: object) -> bool:  # an id maps to its row, so equal indexes keep one order
        if not isinstance(other, EmbeddingMatrix):
            return NotImplemented
        return self._index == other._index and np.array_equal(self._vectors, other._vectors)

    def __repr__(self) -> str:
        return f"EmbeddingMatrix(n={len(self)}, dim={self.dim})"

    @classmethod
    def from_items(cls, items: Iterable[tuple[str, Sequence[float]]], dim: int | None = None) -> "EmbeddingMatrix":
        ids, rows = [], []
        for eid, vec in items:
            ids.append(eid)
            rows.append(np.asarray(vec, dtype=np.float32))
        if not rows:
            return cls(ids, np.zeros((0, dim if dim is not None else 1), dtype=np.float32))
        widths = {r.shape[-1] for r in rows}
        if len(widths) != 1:
            raise DataError(f"inconsistent vector lengths: {sorted(widths)}")
        return cls(ids, np.vstack(rows))


def detect_format(path: str | Path) -> str:
    """Sniff 'binary' vs 'tsv' from the first four bytes."""
    with open(path, "rb") as fh:
        return "binary" if fh.read(4) == MAGIC else "tsv"


def load_embeddings(path: str | Path, fmt: str = "auto") -> EmbeddingMatrix:
    """Load an embedding file; `fmt` is 'binary', 'tsv' or 'auto' (sniffed)."""
    try:
        if fmt == "auto":
            fmt = detect_format(path)
        if fmt == "binary":
            return _load_binary(path)
        if fmt == "tsv":
            return _load_tsv(path)
    except OSError as exc:
        raise DataError(f"cannot read embeddings file {path}: {exc}") from None
    raise DataError(f"unknown embedding format {fmt!r}")


def write_embeddings(matrix: EmbeddingMatrix, path: str | Path, fmt: str = "binary") -> None:
    if fmt == "binary":
        _write_binary(matrix, path)
    elif fmt == "tsv":
        _write_tsv(matrix, path)
    else:
        raise DataError(f"unknown embedding format {fmt!r}")


def _load_binary(path: str | Path) -> EmbeddingMatrix:
    with open(path, "rb") as fh:  # one buffer, read to EOF: the size is only a hint
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]
        blob += fh.read()
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: bad magic at byte 0 (expected {MAGIC!r})")
    if len(blob) < 4 + _HEADER.size:
        raise DataError(f"{path}: truncated header at byte {len(blob)}")
    dim, count = _HEADER.unpack_from(blob, 4)
    if not (1 <= dim <= MAX_DIM):
        raise DataError(f"{path}: dimensionality {dim} outside [1, {MAX_DIM}] at byte 4")
    off = 4 + _HEADER.size
    ids: list[str] = []
    vec_bytes = 4 * dim
    # each record needs at least its id length and its vector: check that
    # before trusting `count` with an allocation
    if count * (_ID_LEN.size + vec_bytes) > len(blob) - off:
        raise DataError(f"{path}: header at byte 4 declares {count} records of dim {dim}, "
                        f"but only {len(blob) - off} bytes follow it at byte {off}")
    for rec in range(count):
        if off + _ID_LEN.size > len(blob):
            raise DataError(f"{path}: truncated record {rec} at byte {off}")
        (id_len,) = _ID_LEN.unpack_from(blob, off)
        off += _ID_LEN.size
        if off + id_len + vec_bytes > len(blob):
            raise DataError(f"{path}: truncated record {rec} at byte {off}")
        try:
            ids.append(blob[off : off + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: undecodable id in record {rec} at byte {off}: {exc}") from None
        off += id_len
        # moved in place to byte rec * vec_bytes, never after its source: only read bytes are overwritten
        blob[rec * vec_bytes : (rec + 1) * vec_bytes] = blob[off : off + vec_bytes]
        off += vec_bytes
    if off != len(blob):
        raise DataError(f"{path}: {len(blob) - off} trailing bytes after record {count - 1} at byte {off}")
    del blob[count * vec_bytes :]
    try:
        return EmbeddingMatrix(ids, np.frombuffer(blob, dtype="<f4").reshape(count, dim))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _write_binary(matrix: EmbeddingMatrix, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC + _HEADER.pack(matrix.dim, len(matrix)))
        for eid, row in matrix:
            raw = eid.encode("utf-8")
            fh.write(_ID_LEN.pack(len(raw)) + raw)
            fh.write(np.ascontiguousarray(row, dtype="<f4"))


def _format_component(value: np.float32) -> str:
    # repr of the exact float64 promotion round-trips back to the same float32
    return repr(float(value))


def _load_tsv(path: str | Path) -> EmbeddingMatrix:
    ids: list[str] = []
    # every component, row after row, parsed straight into one float32 buffer
    # that the store then views: a float that overflows float32 becomes inf,
    # which the store refuses
    comps = array("f")
    dim: int | None = None
    with open_text(path) as fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise DataError(f"{path}:{lineno}: expected '<id>\\t<components>', got {len(fields)} fields")
            eid, comp_str = fields
            start = len(comps)
            try:
                comps.extend(map(float, comp_str.split(",")))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad component: {exc}") from None
            width = len(comps) - start
            if dim is None:
                dim = width
            elif width != dim:
                raise DataError(f"{path}:{lineno}: {width} components, expected {dim}")
            ids.append(eid)
    if dim is None:
        return EmbeddingMatrix([], np.zeros((0, 1), dtype=np.float32))
    try:
        return EmbeddingMatrix(ids, np.frombuffer(comps, dtype=np.float32).reshape(len(ids), dim))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _write_tsv(matrix: EmbeddingMatrix, path: str | Path) -> None:
    if not len(matrix):  # an empty TSV file reads back as dim 1
        raise DataError(f"a store of 0 records of dim {matrix.dim} cannot keep its dim in TSV; "
                        f"use the binary format")
    for pos, eid in enumerate(matrix.ids):
        if "\t" in eid or "\n" in eid or "\r" in eid:  # where the reader splits records and fields
            raise DataError(f"id {eid!r} at position {pos} holds a tab or line break; "
                            f"TSV cannot store it, use the binary format")
    with open(path, "w", encoding="utf-8") as fh:
        for eid, row in matrix:
            fh.write(eid)
            fh.write("\t")
            fh.write(",".join(_format_component(c) for c in row))
            fh.write("\n")
