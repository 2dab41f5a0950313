import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipnn.embeddings import (
    EmbeddingMatrix,
    detect_format,
    load_embeddings,
    write_embeddings,
)
from recipnn.errors import DataError


def make_matrix(n=5, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"doc{i}" for i in range(n)]
    return EmbeddingMatrix(ids, rng.normal(size=(n, dim)).astype(np.float32))


def test_lookup_and_order():
    m = make_matrix()
    assert m.dim == 3
    assert len(m) == 5
    assert list(m.keys()) == [f"doc{i}" for i in range(5)]
    assert "doc2" in m
    np.testing.assert_array_equal(m.lookup("doc2"), m.vectors[2])
    with pytest.raises(DataError):
        m.lookup("nope")


def test_vectors_read_only():
    m = make_matrix()
    with pytest.raises(ValueError):
        m.vectors[0, 0] = 1.0


def test_duplicate_and_empty_ids_rejected():
    with pytest.raises(DataError):
        EmbeddingMatrix(["a", "a"], np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(DataError):
        EmbeddingMatrix(["a", ""], np.zeros((2, 2), dtype=np.float32))


def test_non_finite_rejected():
    vecs = np.zeros((2, 2), dtype=np.float32)
    vecs[1, 0] = np.nan
    with pytest.raises(DataError):
        EmbeddingMatrix(["a", "b"], vecs)


def test_binary_round_trip_bit_exact(tmp_path):
    m = make_matrix(n=17, dim=9, seed=3)
    p = tmp_path / "emb.bin"
    write_embeddings(m, p, fmt="binary")
    assert detect_format(p) == "binary"
    back = load_embeddings(p)
    assert back == m
    assert back.vectors.dtype == np.float32


def test_binary_load_holds_the_file_once(tmp_path):
    # the vectors are packed inside the one buffer the file is read into, so
    # loading peaks near the file's size, not at the file plus the rows
    rng = np.random.default_rng(5)
    p = tmp_path / "emb.bin"
    write_embeddings(EmbeddingMatrix([f"d{i}" for i in range(4000)],
                                     rng.normal(size=(4000, 256)).astype(np.float32)), p)
    tracemalloc.start()
    try:
        back = load_embeddings(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.vectors.shape == (4000, 256)
    assert peak < 1.3 * p.stat().st_size


def _utf8_id(n_bytes: int) -> str:
    """An id of exactly n_bytes UTF-8 bytes, mixing 1- to 4-byte characters."""
    chars, size = [], 0
    for ch in "aé€😀" * n_bytes:
        if size + len(ch.encode("utf-8")) <= n_bytes:
            chars.append(ch)
            size += len(ch.encode("utf-8"))
    return "".join(chars)


@pytest.mark.parametrize("n, dim", [(300, 1), (300, 64), (0, 5)])
def test_binary_round_trip_of_ids_from_1_to_300_bytes(tmp_path, n, dim):
    # record i's id is i + 1 UTF-8 bytes long; n=0 is a store of no records
    ids = [_utf8_id(size) for size in range(1, n + 1)]
    assert [len(i.encode("utf-8")) for i in ids] == list(range(1, n + 1))
    m = EmbeddingMatrix(ids, np.random.default_rng(dim).normal(size=(n, dim)).astype(np.float32))
    p = tmp_path / "emb.bin"
    write_embeddings(m, p)
    back = load_embeddings(p)
    assert back == m and back.dim == dim


def test_tsv_round_trip_float_exact(tmp_path):
    m = make_matrix(n=11, dim=4, seed=7)
    p = tmp_path / "emb.tsv"
    write_embeddings(m, p, fmt="tsv")
    assert detect_format(p) == "tsv"
    back = load_embeddings(p, fmt="tsv")
    assert back == m


@pytest.mark.parametrize("ids", [["EMB1a", "b"], ["EMB1", "b"], ["b", "EMB1a"], ["EMB", "b"]])
def test_tsv_writer_refuses_a_first_id_that_reads_back_as_binary(tmp_path, ids):
    # a TSV file whose first bytes are the binary magic sniffs as binary
    m = EmbeddingMatrix(ids, np.ones((2, 3), np.float32))
    p = tmp_path / "emb.tsv"
    if ids[0].startswith("EMB1"):
        with pytest.raises(DataError, match="position 0 starts with the binary magic"):
            write_embeddings(m, p, fmt="tsv")
        assert not p.exists()
    else:
        write_embeddings(m, p, fmt="tsv")
        assert load_embeddings(p) == m


def test_cross_format_round_trip(tmp_path):
    m = make_matrix(n=6, dim=5, seed=11)
    b = tmp_path / "emb.bin"
    t = tmp_path / "emb.tsv"
    write_embeddings(m, b, fmt="binary")
    write_embeddings(load_embeddings(b), t, fmt="tsv")
    assert load_embeddings(t) == m


def test_binary_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        load_embeddings(p, fmt="binary")


def test_binary_truncation(tmp_path):
    m = make_matrix(n=3, dim=2)
    p = tmp_path / "emb.bin"
    write_embeddings(m, p, fmt="binary")
    blob = p.read_bytes()
    p.write_bytes(blob[:-5])
    with pytest.raises(DataError, match="truncated"):
        load_embeddings(p)


def test_binary_lying_count_rejected_before_allocation(tmp_path):
    # a 16-byte file whose header claims 2**64 - 1 one-dimensional records
    p = tmp_path / "lying.bin"
    p.write_bytes(b"EMB1" + struct.pack("<IQ", 1, 2**64 - 1))
    with pytest.raises(DataError, match="at byte 16"):
        load_embeddings(p)


def test_binary_trailing_bytes(tmp_path):
    m = make_matrix(n=3, dim=2)
    p = tmp_path / "emb.bin"
    write_embeddings(m, p, fmt="binary")
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(DataError, match="trailing"):
        load_embeddings(p)


def test_tsv_error_carries_line_number(tmp_path):
    p = tmp_path / "emb.tsv"
    p.write_text("a\t1.0,2.0\nb\t1.0,oops\n")
    with pytest.raises(DataError, match=r"emb\.tsv:2"):
        load_embeddings(p, fmt="tsv")


def test_tsv_skips_blank_lines_and_names_a_line_without_a_tab(tmp_path):
    p = tmp_path / "emb.tsv"
    p.write_text("a\t1.0,2.0\n\nb\t3.0,4.0\n")
    assert list(load_embeddings(p, fmt="tsv").keys()) == ["a", "b"]
    p.write_text("a\t1.0,2.0\n\nb 3.0,4.0\n")
    with pytest.raises(DataError, match=r"emb\.tsv:3: expected '<id>\\t<components>', got 1 fields"):
        load_embeddings(p, fmt="tsv")


def test_tsv_dim_mismatch_line(tmp_path):
    p = tmp_path / "emb.tsv"
    p.write_text("a\t1.0,2.0\nb\t1.0\n")
    with pytest.raises(DataError, match=":2"):
        load_embeddings(p, fmt="tsv")


def test_tsv_load_holds_the_rows_about_once(tmp_path):
    # components are parsed into one float32 buffer that the store views,
    # not into one array per row and then their stack
    rng = np.random.default_rng(6)
    m = EmbeddingMatrix([f"d{i}" for i in range(4000)], rng.normal(size=(4000, 64)).astype(np.float32))
    p = tmp_path / "emb.tsv"
    write_embeddings(m, p, fmt="tsv")
    tracemalloc.start()
    try:
        back = load_embeddings(p, fmt="tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == m
    assert peak < 2 * m.vectors.nbytes


def test_tsv_component_beyond_float32_is_a_data_error_not_a_warning(tmp_path):
    p = tmp_path / "emb.tsv"
    p.write_text("a\t1.0,2.0\nb\t1e39,2.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"emb\.tsv: non-finite component\(s\) in vector\(s\): \['b'\]"):
            load_embeddings(p, fmt="tsv")


id_strategy = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)


@settings(max_examples=50, deadline=None)
@given(
    ids=st.lists(id_strategy, min_size=1, max_size=8, unique=True),
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    fmt=st.sampled_from(["binary", "tsv"]),
)
def test_round_trip_property(tmp_path_factory, ids, dim, seed, fmt):
    rng = np.random.default_rng(seed)
    m = EmbeddingMatrix(ids, rng.normal(size=(len(ids), dim)).astype(np.float32))
    p = tmp_path_factory.mktemp("rt") / f"emb.{fmt}"
    write_embeddings(m, p, fmt=fmt)
    assert load_embeddings(p, fmt=fmt) == m
