"""Run-file I/O held as columns, and every reader's answer to broken input.

`parse_run` checks whole columns and walks lines only once a check fails;
`reference_parse` below is the plain line loop it must agree with, on
results and on the first error's `path:line` message.
"""

import copy
import io
import math
import pickle
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipnn import ir_eval
from recipnn.cli import main
from recipnn.config import parse_config_file
from recipnn.embeddings import EmbeddingMatrix, load_embeddings, write_embeddings
from recipnn.errors import ConfigError, DataError
from recipnn.ir_eval import Qrels, RankedList, RunFile, parse_qrels, parse_run, write_qrels, write_run
from recipnn.smoothing import SoftLabelSet, read_soft_labels
from recipnn.synthetic import planted_corpus


def reference_parse(path):
    """The run format as a line loop: {qid: [(doc, score), ...]} best first."""
    rows, seen = {}, set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            at = f"{path}:{lineno}:"
            if len(fields) != 6:
                raise DataError(f"{at} expected 6 fields, got {len(fields)}")
            qid, _, did, rank_s, score_s, _ = fields
            try:
                int(rank_s)
            except ValueError:
                raise DataError(f"{at} rank {rank_s!r} is not an integer") from None
            try:
                score = float(score_s)
            except ValueError:
                raise DataError(f"{at} score {score_s!r} is not a number") from None
            if not math.isfinite(score):
                raise DataError(f"{at} non-finite score {score_s!r}")
            if (qid, did) in seen:
                raise DataError(f"{at} duplicate doc {did!r} for query {qid!r}")
            seen.add((qid, did))
            rows.setdefault(qid, []).append((did, score))
    return {qid: sorted(r, key=lambda e: -e[1]) for qid, r in rows.items()}


def outcome(parse, path):
    try:
        result = parse(path)
    except DataError as exc:
        return "error", str(exc)
    if isinstance(result, RunFile):
        result = {qid: list(zip(rl.doc_ids, rl.scores.tolist())) for qid, rl in result.lists.items()}
    return "ok", result


# --- parser equivalence -------------------------------------------------------

SPACES = [" ", "\t", "\x0b", "\x0c", "\xa0", "　", "  ", " \t"]
NEWLINES = ["\n", "\r\n", "\r"]
RANKS = ["1", "2", "17", "+3", "-2", "1_0", "٣", "007", "x", "1.5", "", "²"]
SCORES = ["1.0", "1", "0.5", "-0.0", "0.0", "2.25", "1e-300", "nan", "-inf", "1e309", "1_0.5",
          "٣.5", "abc", "0x1", "1e5", "-3.75"]


@st.composite
def run_line(draw):
    kind = draw(st.sampled_from(["data"] * 8 + ["blank", "comment", "short", "long"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\xa0"]))
    if kind == "comment":
        return draw(st.sampled_from(["", " ", "\t"])) + "#" + draw(st.sampled_from(["", " q1 Q0 d1 1 1.0 t", "#"]))
    fields = [draw(st.sampled_from(["q1", "q2", "q3"])), "Q0", draw(st.sampled_from([f"d{i}" for i in range(12)])),
              draw(st.sampled_from(RANKS[:7] * 3 + RANKS)),
              draw(st.sampled_from(SCORES[:6] * 4 + SCORES)), draw(st.sampled_from(["run", "4"]))]
    if kind == "short":
        del fields[draw(st.integers(0, 5))]
    elif kind == "long":  # numeric extras keep a shifted column parseable
        fields.insert(draw(st.integers(0, 6)), draw(st.sampled_from(["extra", "7", "2.5"])))
    if "" in fields:
        fields.remove("")
    seps = draw(st.lists(st.sampled_from(SPACES), min_size=len(fields) + 1, max_size=len(fields) + 1))
    return seps[0] + "".join(f + s for f, s in zip(fields, seps[1:]))


@st.composite
def run_text(draw):
    lines = draw(st.lists(run_line(), max_size=40))
    ends = draw(st.lists(st.sampled_from(NEWLINES * 3 + ["\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line break after the last line
    return text


@given(text=run_text(), chunk=st.sampled_from([1, 7, 64, 1 << 20]))
@settings(max_examples=400, deadline=None)
def test_parse_run_matches_line_loop_reference(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("run") / "r.run"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(ir_eval, "_READ_BYTES", chunk):
        assert outcome(parse_run, path) == outcome(reference_parse, path)


def test_parse_run_accepted_syntax(tmp_path):
    path = tmp_path / "r.run"
    path.write_bytes("# header\r\n\r\nq2\tQ0 b +3 1_0.5 t\x0b\r"
                     "  q1 Q0 a ٣ 2 t\n"
                     "q2 Q0 c 1_0 10.5\xa0t\n"
                     "q1　Q0 z 9 2 t\n"
                     "q2 Q0 a 4 11 t".encode("utf-8"))
    run = parse_run(path)
    assert run["q1"].entries == (("a", 2.0, 1), ("z", 2.0, 2))  # tie keeps file order
    assert run["q2"].entries == (("a", 11.0, 1), ("b", 10.5, 2), ("c", 10.5, 3))
    assert outcome(parse_run, path) == outcome(reference_parse, path)


def test_field_count_is_checked_per_line(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 0.5\nq2 Q0 d3 3 7 2.5 t\n")  # 18 fields in all
    with pytest.raises(DataError, match=re.escape(f"{path}:2: expected 6 fields, got 5")):
        parse_run(path)


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"])
def test_long_queries_with_ties_keep_file_order(tmp_path, end):
    rng = np.random.default_rng(9)
    docs = [f"d{i}" for i in range(300)]
    lines = [f"q{rng.integers(3)} Q0 {doc} 1 {rng.integers(3)} t{end}" for doc in rng.permutation(docs)]
    path = tmp_path / "ties.run"
    path.write_bytes("".join(lines).encode("ascii"))
    for chunk in (511, 512, ir_eval._READ_BYTES):
        with mock.patch.object(ir_eval, "_READ_BYTES", chunk), open(path, "rb") as fh:
            sizes = [len(c) for c in ir_eval._line_chunks(fh)]  # cut at any line end
            assert max(sizes) <= chunk + max(map(len, lines))
            assert outcome(parse_run, path) == outcome(reference_parse, path)


BAD_LINES = [
    ("q9 Q0 d 1 2.0", "expected 6 fields, got 5"),
    ("q9 Q0 d 1 2.0 t u", "expected 6 fields, got 7"),
    ("q9 Q0 d one 2.0 t", "rank 'one' is not an integer"),
    ("q9 Q0 d 1 abc t", "score 'abc' is not a number"),
    ("q9 Q0 d 1 nan t", "non-finite score 'nan'"),
    ("q0 Q0 d00007 1 0.5 t", "duplicate doc 'd00007' for query 'q0'"),
]


@pytest.mark.parametrize("bad,message", BAD_LINES)
def test_first_error_past_the_first_read_chunk(tmp_path, bad, message):
    lines = [f"q{i % 7} Q0 d{i:05d} {i + 1} {1.0 / (i + 1)!r} run" for i in range(50_000)]
    lines[40_000] = bad
    lines[45_000] = "q1 Q0 d1 1 1.0"  # a later error must not win
    path = tmp_path / "big.run"
    path.write_text("\n".join(lines) + "\n")
    assert path.stat().st_size > 2 * ir_eval._READ_BYTES
    with pytest.raises(DataError) as exc:
        parse_run(path)
    assert str(exc.value) == f"{path}:40001: {message}"
    assert outcome(parse_run, path) == outcome(reference_parse, path)


def test_whitespace_table_covers_every_code_point():
    spaces = [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert max(spaces) < ir_eval._MARKS.size - 1
    assert np.flatnonzero(ir_eval._MARKS).tolist() == spaces


# --- RankedList as columns --------------------------------------------------------

def test_ranked_list_holds_columns(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("q Q0 b 1 0.5 t\nq Q0 a 2 0.75 t\n")
    for rl in (parse_run(path)["q"], RankedList.from_scored("q", [("a", 0.75), ("b", 0.5)]),
               RankedList("q", (("a", 0.75, 1), ("b", 0.5, 2)))):
        assert rl.doc_ids == ["a", "b"]
        assert rl.scores.dtype == np.float64 and rl.scores.tolist() == [0.75, 0.5]
        assert rl.entries == (("a", 0.75, 1), ("b", 0.5, 2))
        assert len(rl) == 2
        assert rl.truncated(1).entries == (("a", 0.75, 1),)
        assert rl == RankedList("q", rl.entries) and rl != rl.truncated(1)
        with pytest.raises(ValueError):
            rl.scores[0] = 1.0
        with pytest.raises(AttributeError):
            rl.query_id = "other"


@pytest.mark.parametrize("checked,built", [
    (RankedList("q", (("a", 0.75, 1), ("b", 0.5, 2))), RankedList._of("q", ("a", "b"), np.array([0.75, 0.5]))),
    (SoftLabelSet("q", (("a", 0.75), ("b", 0.25)), ["a"]),
     SoftLabelSet._of("q", ("a", "b"), np.array([0.75, 0.25]), frozenset({"a"}))),
], ids=["RankedList", "SoftLabelSet"])
def test_column_classes_share_immutability_and_equality(checked, built):
    # RankedList and SoftLabelSet hold their columns through one base class;
    # copies and pickle round trips are equal objects with read-only values
    name = type(checked).__name__
    assert checked == built and repr(checked) == repr(built)
    assert repr(built).startswith(f"{name}(query_id='q', entries=(('a', 0.75")
    copies = [copy.copy(checked), copy.deepcopy(checked), pickle.loads(pickle.dumps(checked))]
    for held in (checked, built, *copies):
        assert held == checked and type(held) is type(checked) and held._values.dtype == np.float64
        with pytest.raises(AttributeError, match=f"^{name} is immutable; cannot set 'query_id'$"):
            held.query_id = "other"
        with pytest.raises(ValueError):
            held._values[0] = 1.0
    # the same columns in the other class are another object
    assert RankedList._of("q", ("a",), np.ones(1)) != SoftLabelSet._of("q", ("a",), np.ones(1), frozenset())


@pytest.mark.parametrize("chunk", [1, ir_eval._READ_BYTES])
def test_parse_run_shares_one_str_per_doc_id(tmp_path, chunk):
    # at a read of 1 byte every line is a chunk of its own
    path = tmp_path / "r.run"
    path.write_text("q1 Q0 d1 1 0.5 t\nq1 Q0 d2 2 0.25 t\nq2 Q0 d2 1 0.5 t\nq3 Q0 d1 1 0.5 t\n")
    with mock.patch.object(ir_eval, "_READ_BYTES", chunk):
        run = parse_run(path)
    (d1, d2), (d2_again,), (d1_again,) = (run[qid].doc_ids for qid in ("q1", "q2", "q3"))
    assert (d1, d2) == ("d1", "d2") and d1_again is d1 and d2_again is d2


def test_parse_run_takes_doc_id_objects_from_known_ids(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("q1 Q0 d1 1 0.5 t\nq1 Q0 d2 2 0.25 t\nq2 Q0 d1 1 0.5 t\n")
    known = [f"d{i}" for i in (1, 3)]  # built here, so no parsed str can be them by chance
    run = parse_run(path, known_ids=iter(known))  # any iterable, read once
    assert run == parse_run(path)
    (d1, d2), (d1_again,) = (run[qid].doc_ids for qid in ("q1", "q2"))
    assert d1 is known[0] and d1_again is known[0] and d2 == "d2"


def test_ranked_list_takes_any_iterable_of_entries():
    assert RankedList("q", iter(())) == RankedList("q", [])
    assert RankedList("q", iter([("a", 0.5, 1)])) == RankedList("q", [("a", 0.5, 1)])


# --- run tags -------------------------------------------------------------------

@pytest.mark.parametrize("tag", ["", "my run", "a\tb", "x\xa0y", " lead"])
def test_write_run_refuses_tags_that_split(tmp_path, tag):
    run = RunFile({"q": RankedList.from_scored("q", [("a", 1.0)])})
    with pytest.raises(ConfigError, match="tag"):
        write_run(run, tmp_path / "out.run", tag=tag)
    assert not (tmp_path / "out.run").exists()


def test_write_run_bytes_equal_one_formatted_line_per_entry(tmp_path):
    # scores whose repr is exponent notation, a signed zero or a long integer
    # part; an empty list; and one list far longer than the others, so the
    # rank strings built for the file run past every short list
    edge = [1e16, 123456789.0, 1e-300, 5e-324, 0.0, -0.0, -2.5]
    lists = {"q1": RankedList.from_scored("q1", [(f"d{i}", s) for i, s in enumerate(edge)]),
             "q2": RankedList.from_scored("q2", []),
             "q3": RankedList.from_scored("q3", [(f"e{i}", -i / 7) for i in range(1500)]),
             "q4": RankedList.from_scored("q4", [("only", -0.0)])}
    write_run(RunFile(lists), tmp_path / "r.run", tag="t1", header="h")
    expect = "# h\n" + "".join(f"{qid} Q0 {did} {rank} {score!r} t1\n" for qid in sorted(lists)
                               for did, score, rank in lists[qid].entries)
    assert (tmp_path / "r.run").read_bytes() == expect.encode()
    assert "d5 6 -0.0 t1\n" in expect and "d3 4 5e-324 t1\n" in expect and "e1499 1500 " in expect


@pytest.mark.parametrize("tag", ["", "my run"])
def test_rerank_rejects_bad_tag_before_reading_input(tmp_path, capsys, tag):
    out = tmp_path / "out.run"
    code = main(["rerank", "--embeddings", str(tmp_path / "none.emb"), "--run", str(tmp_path / "none.run"),
                 "--output", str(out), "--tag", tag])
    assert code == 1
    assert "tag" in capsys.readouterr().err
    assert not out.exists()


# --- ids: a writer writes only what its reader reads back ----------------------------

@pytest.mark.parametrize("qid,did", [("#q", "a"), ("", "a"), ("q 1", "a"), ("q\n", "a"),
                                     ("q", "d 1"), ("q", ""), ("q", "d\u3000e")])
def test_writers_refuse_ids_that_do_not_read_back(tmp_path, qid, did):
    run = RunFile({"ok": RankedList.from_scored("ok", [("a", 1.0)]),
                   qid: RankedList.from_scored(qid, [("b", 2.0), (did, 1.0)])})
    with pytest.raises(DataError, match="would not read back"):
        write_run(run, tmp_path / "out.run")
    with pytest.raises(DataError, match="would not read back"):
        write_qrels(Qrels({"ok": {"a": 1}, qid: {"b": 0, did: 1}}), tmp_path / "out.qrels")
    assert not list(tmp_path.iterdir())


def test_written_ids_read_back(tmp_path):
    # a doc id may start with '#': only a line's first field marks a comment
    dids = ["#d", "d#", "\u00e9", "x.y-z", "0"]
    run = RunFile({qid: RankedList.from_scored(qid, [(d, -float(i)) for i, d in enumerate(dids)])
                   for qid in ("q1", "q#", "\u03a9")})
    write_run(run, tmp_path / "r.run")
    assert parse_run(tmp_path / "r.run") == run
    qrels = Qrels({qid: {d: i for i, d in enumerate(dids)} for qid in run.lists})
    write_qrels(qrels, tmp_path / "r.qrels")
    assert parse_qrels(tmp_path / "r.qrels") == qrels


# --- bytes that are not UTF-8 ---------------------------------------------------------

BAD_BYTE = b"\xff"


def test_parse_run_names_line_of_undecodable_byte(tmp_path):
    path = tmp_path / "r.run"
    path.write_bytes(b"q1 Q0 d1 1 1.0 t\r\nq1 Q0 d" + BAD_BYTE + b" 2 0.5 t\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: not valid UTF-8")):
        parse_run(path)


def test_parse_run_reports_earlier_bad_line_before_undecodable_byte(tmp_path):
    path = tmp_path / "r.run"
    path.write_bytes(b"q1 Q0 d1 1 1.0\nq1 Q0 d" + BAD_BYTE + b" 2 0.5 t\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:1: expected 6 fields")):
        parse_run(path)


def test_parse_qrels_names_line_of_undecodable_byte(tmp_path):
    path = tmp_path / "j.qrels"
    path.write_bytes(b"q1 0 d1 1\nq1 0 d2 1\nq1 0 " + BAD_BYTE + b" 1\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: not valid UTF-8")):
        parse_qrels(path)


def test_tsv_embeddings_name_line_of_undecodable_byte(tmp_path):
    path = tmp_path / "v.tsv"
    path.write_bytes(b"a\t1.0,2.0\nb" + BAD_BYTE + b"\t1.0,2.0\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: not valid UTF-8")):
        load_embeddings(path)


def test_soft_labels_name_line_of_undecodable_byte(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_bytes(b'{"qid":"q","gt":["b"],"labels":[["b",1.0]]}\n{"qid":"' + BAD_BYTE + b'"}\n')
    with pytest.raises(DataError, match=re.escape(f"{path}:2: not valid UTF-8")):
        read_soft_labels(path)


def test_config_file_names_line_of_undecodable_byte(tmp_path):
    path = tmp_path / "c.conf"
    path.write_bytes(b"k = 5\ntag = x" + BAD_BYTE + b"\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:2: not valid UTF-8")):
        parse_config_file(path)


def test_cli_exit_codes_for_undecodable_bytes(tmp_path, capsys):
    run, qrels, tsv, conf = (tmp_path / n for n in ("r.run", "j.qrels", "v.tsv", "c.conf"))
    run.write_bytes(b"q1 Q0 d" + BAD_BYTE + b" 1 1.0 t\n")
    qrels.write_bytes(b"q1 0 d1 1\n")
    tsv.write_bytes(b"d" + BAD_BYTE + b"\t1.0\n")
    conf.write_bytes(b"cutoff = 1" + BAD_BYTE + b"\n")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 2
    assert main(["eval", "--run", str(qrels), "--qrels", str(run)]) == 2
    assert main(["convert", "--input", str(tsv), "--to", "binary", "--output", str(tmp_path / "o")]) == 2
    assert main(["eval", "--config", str(conf), "--run", str(run), "--qrels", str(qrels)]) == 1
    assert "not valid UTF-8" in capsys.readouterr().err


# --- truncated and mutated inputs ---------------------------------------------------------

def test_binary_embeddings_truncated_at_every_offset(tmp_path):
    matrix = EmbeddingMatrix(["a", "bé", "c" * 5], np.arange(12, dtype=np.float32).reshape(3, 4))
    full = tmp_path / "v.emb"
    write_embeddings(matrix, full)
    blob = full.read_bytes()
    cut = tmp_path / "cut.emb"
    for n in range(1, len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(DataError, match=r"at byte \d+"):
            load_embeddings(cut, fmt="binary")
    assert load_embeddings(full) == matrix


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    corpus = planted_corpus(seed=5, n_queries=3, n_distractors=20, depth=8, dim=4)
    paths = {"embeddings": d / "v.emb", "run": d / "r.run", "qrels": d / "j.qrels"}
    write_embeddings(corpus.embeddings, paths["embeddings"])
    write_run(corpus.run, paths["run"])
    write_qrels(corpus.qrels, paths["qrels"])
    return {name: p.read_bytes() for name, p in paths.items()}


@given(which=st.sampled_from(["embeddings", "run", "qrels"]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_cli_on_truncated_or_mutated_inputs_exits_0_or_2(small_inputs, tmp_path_factory, which, data):
    blob = small_inputs[which]
    pos = data.draw(st.integers(0, len(blob) - 1))
    how = data.draw(st.sampled_from(["truncate", "replace", "insert", "delete"]))
    byte = bytes([data.draw(st.sampled_from([0, 9, 10, 13, 32, 35, 43, 45, 46, 48, 57, 0x80, 0xC3, 0xFF]))])
    blob = {"truncate": blob[:pos], "replace": blob[:pos] + byte + blob[pos + 1:],
            "insert": blob[:pos] + byte + blob[pos:], "delete": blob[:pos] + blob[pos + 1:]}[how]
    d = tmp_path_factory.mktemp("mutated")
    paths = {name: d / name for name in small_inputs}
    for name, p in paths.items():
        p.write_bytes(blob if name == which else small_inputs[name])
    out = d / "out"
    common = ["--embeddings", str(paths["embeddings"]), "--run", str(paths["run"]),
              "--qrels", str(paths["qrels"]), "--output", str(out), "--n-context", "5"]
    for argv in (["rerank", *common], ["smooth", *common],
                 ["eval", "--run", str(paths["run"]), "--qrels", str(paths["qrels"])]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv[0], how, pos, err.getvalue())


def test_soft_label_number_too_large_for_a_float(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"qid":"q","gt":["b"],"labels":[["b",1' + "0" * 400 + "]]}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:1: bad soft-label line")):
        read_soft_labels(path)


MUTATION_BYTES = [0, 9, 10, 13, 32, 34, 35, 44, 45, 46, 48, 49, 58, 61, 91, 93, 101, 123, 125, 0x80, 0xC3, 0xFF]

SOFT_LABELS = (b'# recipnn soft labels\n{"qid":"q1","gt":["b"],"labels":[["b",0.75],["a",0.25]]}\n'
               b'{"qid":"q2","gt":["c","d"],"labels":[["c",0.5],["d",0.5]]}\n')
CONFIG = b"# tuned\nk = 21\nk-exp = 3\ntau = 0.5\nlambda = 0.45\nsizes = 10,20\nstrict = yes\ntag = run1\n"


@given(which=st.sampled_from(["labels", "config"]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_soft_labels_and_config_fail_with_their_line(tmp_path_factory, which, data):
    blob = SOFT_LABELS if which == "labels" else CONFIG
    for _ in range(data.draw(st.integers(1, 3))):
        if not blob:
            break
        pos = data.draw(st.integers(0, len(blob) - 1))
        byte = bytes([data.draw(st.sampled_from(MUTATION_BYTES))])
        blob = data.draw(st.sampled_from([blob[:pos], blob[:pos] + byte + blob[pos + 1:],
                                          blob[:pos] + byte + blob[pos:], blob[:pos] + blob[pos + 1:]]))
    path = tmp_path_factory.mktemp("mutated") / "f"
    path.write_bytes(blob)
    read, error = (read_soft_labels, DataError) if which == "labels" else (parse_config_file, ConfigError)
    try:
        read(path)
    except error as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
