import gc
import hashlib
import json
import os
import re
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookcoref import formats
from bookcoref.cli import main
from bookcoref.errors import ParseError, SchemaError, SpanRangeError
from bookcoref.formats import (
    _CONLL_CHUNK_ROWS,
    CorpusFile,
    DocumentRecord,
    _coref_labels,
    _record_line,
    _sliced_object,
    read_conll,
    read_jsonl,
    write_conll,
    write_jsonl,
)
from bookcoref.metrics import conll
from bookcoref.model import ClusterSet, Document, Mention, check_bounds, clusters_from_json, shift, validate
from helpers import conll_text, jsonl_text
from oracles import coref_labels_reference, read_conll_reference, read_jsonl_reference, record_line_reference

#: sha256 of the CoNLL export of the seed-13 reference corpus
REFERENCE_CONLL_SHA256 = "22f7e20303ff3b71c272d3cf55df27d8a5c99167d1e2c0141a9d6d27fe60ded0"
#: sha256 of that export read back and written as JSONL (``bookcoref convert gold.conll back.jsonl``)
CONLL_READ_SHA256 = "34a731548f42a5d5f05ca14ab46ad8bc2b4ac0d1efc2a8f709a0284cc78f3093"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestReadJsonl:
    def test_minimal_record(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl",
            ['{"doc_id":"x","tokens":["A","b"],"characters":["A"],"clusters":{"A":[[0,0]]}}'],
        )
        corpus = read_jsonl(path)
        assert len(corpus) == 1
        rec = corpus.records[0]
        assert rec.document.tokens == ("A", "b")
        assert rec.cluster_sets["gold"].clusters == {"A": (Mention(0, 0),)}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(read_jsonl(str(path))) == 0

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_lines(
            tmp_path / "bad.jsonl",
            ['{"doc_id":"x","tokens":["A"],"characters":[],"clusters":{}}', "{nope"],
        )
        with pytest.raises(ParseError, match="line 2"):
            read_jsonl(path)

    def test_span_shape_mismatch_is_schema_error(self, tmp_path):
        path = write_lines(
            tmp_path / "bad.jsonl",
            ['{"doc_id":"x","tokens":["A"],"characters":["A"],"clusters":{"A":[[0]]}}'],
        )
        with pytest.raises(SchemaError, match="malformed span"):
            read_jsonl(path)

    def test_missing_required_key(self, tmp_path):
        path = write_lines(tmp_path / "bad.jsonl", ['{"doc_id":"x","tokens":["A"]}'])
        with pytest.raises(SchemaError, match="missing required keys"):
            read_jsonl(path)

    def test_unknown_keys_preserved_verbatim(self, tmp_path):
        line = (
            '{"doc_id":"x","tokens":["A"],"characters":[],"clusters":{},'
            '"sentence_ends":[0],"note":"hi"}'
        )
        path = write_lines(tmp_path / "c.jsonl", [line])
        corpus = read_jsonl(path)
        assert corpus.records[0].document.source == {"sentence_ends": [0], "note": "hi"}
        out = tmp_path / "out.jsonl"
        write_jsonl(corpus, str(out))
        assert json.loads(out.read_text())["sentence_ends"] == [0]

    def test_non_utf8_byte_is_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = b'{"doc_id":"x","tokens":["A"],"characters":[],"clusters":{}}'
        path.write_bytes(good + b"\r\n\n" + good.replace(b"x", b"\xff") + b"\n")
        with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
            read_jsonl(str(path))

    def test_duplicate_doc_id_rejected(self, tmp_path):
        line = '{"doc_id":"x","tokens":["A"],"characters":[],"clusters":{}}'
        path = write_lines(tmp_path / "dup.jsonl", [line, line])
        with pytest.raises(SchemaError, match="duplicate doc_id"):
            read_jsonl(path)

    def test_prediction_reader_coerces_integer_keys(self, tmp_path):
        path = write_lines(
            tmp_path / "p.jsonl",
            ['{"doc_id":"x","tokens":["A","b"],"characters":[],"clusters":{"0":[[0,0]],"1":[[1,1]]}}'],
        )
        cs = read_jsonl(path, clusters_as="prediction").records[0].cluster_sets["prediction"]
        assert set(cs.clusters) == {0, 1}
        assert cs.stage == "prediction"

    def test_prediction_keys_that_parse_alike_stay_apart(self, tmp_path):
        path = write_lines(
            tmp_path / "p.jsonl",
            ['{"doc_id":"x","tokens":["A","b","c"],"characters":[],"clusters":{"01":[[0,0]],"1":[[2,2]]}}'],
        )
        cs = read_jsonl(path, clusters_as="prediction").records[0].cluster_sets["prediction"]
        assert dict(cs.clusters) == {"01": (Mention(0, 0),), 1: (Mention(2, 2),)}

    @pytest.mark.parametrize("key", ["\u00b2", "\u0663", "+1", " 1", "1_0", "-0"])
    def test_only_canonical_ascii_integers_become_int_keys(self, tmp_path, key):
        line = json.dumps({"doc_id": "x", "tokens": ["A"], "characters": [], "clusters": {key: [[0, 0]], "-1": [[0, 0]]}})
        cs = read_jsonl(write_lines(tmp_path / "p.jsonl", [line]), clusters_as="prediction").records[0].cluster_sets["prediction"]
        assert set(cs.clusters) == {key, -1}


class TestJsonlRoundTrip:
    def test_canonical_output_is_fixed_point(self, tmp_path):
        doc = Document("d", ("x", "y", "z"), ("A", "B"), {"extra": 1})
        cs = ClusterSet.build("d", "gold", {"A": [(0, 1)], "B": [(2, 2)]})
        corpus = CorpusFile([DocumentRecord(doc, {"gold": cs})])
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(corpus, str(p1))
        write_jsonl(read_jsonl(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_gold_corpus_roundtrip_preserves_everything(self, gold_corpus, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_jsonl(gold_corpus, str(path))
        back = read_jsonl(str(path))
        assert list(back.by_id()) == list(gold_corpus.by_id())
        for a, b in zip(gold_corpus.records, back.records):
            assert a.document.tokens == b.document.tokens
            assert a.document.characters == b.document.characters
            assert a.cluster_sets["gold"].clusters == b.cluster_sets["gold"].clusters

    def test_reading_then_validating_gold_gives_zero_errors(self, gold_jsonl):
        corpus = read_jsonl(gold_jsonl)
        for rec in corpus.records:
            assert validate(rec.document, rec.cluster_sets["gold"]).ok

    def test_dumps_matches_file_writer(self, gold_corpus, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_jsonl(gold_corpus, str(path))
        assert path.read_text(encoding="utf-8") == jsonl_text(gold_corpus)

    def test_cluster_keys_that_print_alike_are_schema_error_and_write_nothing(self, tmp_path):
        good = DocumentRecord(Document("ok", ("a",)), {"gold": ClusterSet.build("ok", "gold", {"A": [(0, 0)]})})
        bad = DocumentRecord(
            Document("d", ("a", "b", "c")), {"gold": ClusterSet.build("d", "gold", {1: [(0, 0)], "1": [(2, 2)]})}
        )
        path = tmp_path / "bad.jsonl"
        with pytest.raises(SchemaError, match=r"document 'd': cluster keys 1 and '1' both print as '1'"):
            write_jsonl(CorpusFile([good, bad]), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("write, suffix", [(write_jsonl, "jsonl"), (write_conll, "conll")])
    @pytest.mark.parametrize(
        "doc_id, tokens", [("d", ("a", "\ud800", "b")), ("\udc00d", ("a",))], ids=["token", "doc-id"]
    )
    def test_lone_surrogate_is_schema_error_and_writes_nothing(self, tmp_path, write, suffix, doc_id, tokens):
        """UTF-8 cannot encode a lone surrogate: both writers name the
        document before they open the file, rather than leave a part of it."""
        good = DocumentRecord(Document("ok", ("a",)), {"gold": ClusterSet("ok", "gold", {})})
        bad = DocumentRecord(Document(doc_id, tokens), {"gold": ClusterSet(doc_id, "gold", {})})
        path = tmp_path / f"bad.{suffix}"
        lone = re.escape(repr(doc_id)) + r": the lone surrogate '\\ud[8c]00' cannot be written as UTF-8"
        with pytest.raises(SchemaError, match=f"^document {lone}$"):
            write(CorpusFile([good, bad]), str(path))
        assert not path.exists()

    @pytest.mark.parametrize(
        "span",
        [(1.5, 2), (True, 1), ("a", "b"), (0, 1, 2), (2, 1), (-3, -1)],
        ids=["float", "bool", "str", "three", "reversed", "negative"],
    )
    def test_a_span_that_is_not_a_mention_cannot_enter_a_set(self, span):
        """A set holds only valid mentions, so neither writer is handed a
        span it cannot write so that it reads back (``[[1.5,2]]`` or
        ``[[-3,-1]]``, which the reader refuses, or a negative span that
        the CoNLL labels would count from the end): the constructor refuses
        it, naming it."""
        message = f"invalid mention span {span!r}"
        with pytest.raises(SpanRangeError, match="^" + re.escape(message) + "$"):
            ClusterSet("d", "gold", {"A": ((0, 0), (1, 1)), "B": (span,), "C": ((2, 2),)})


class TestConll:
    def test_repeated_document_id_is_schema_error_naming_row_and_part(self, tmp_path):
        block = "#begin document (d); part {}\nd\t0\t0\ta\t(0)\nd\t0\t1\tb\t-\n#end document\n"
        path = tmp_path / "twice.conll"
        path.write_text(block.format("000") + block.format("001"), encoding="utf-8")
        with pytest.raises(SchemaError, match=r"^line 5: duplicate doc_id 'd' \(part 001\)$"):
            read_conll(str(path))

    def test_export_names_the_span_the_bounds_check_names(self, tmp_path):
        """Both searches take the first span past the end in sorted key
        order, then span order, and word it alike."""
        doc = Document("d", tuple("abcdef"), ("A",))
        cs = ClusterSet.build("d", "gold", {"A": [(1, 6), (2, 7), (3, 8), (4, 9)]})
        with pytest.raises(SpanRangeError) as checked:
            check_bounds(cs, len(doc.tokens))
        with pytest.raises(SchemaError) as written:
            write_conll(CorpusFile([DocumentRecord(doc, {"gold": cs})]), str(tmp_path / "x.conll"))
        message = "document 'd': span (1, 6) of cluster 'A' ends past the last token (6 tokens)"
        assert str(checked.value) == str(written.value) == message

    def test_export_names_the_bounds_checks_span_not_the_first_the_labels_meet(self, tmp_path):
        """The labels are written in first-mention order, so the pass meets
        B's (8, 8) first; the error still names A's (2, 9), the first span
        past the end in sorted key order, and nothing is written."""
        doc = Document("d", tuple("abcdef"), ("A", "B"))
        cs = ClusterSet("d", "gold", {"B": [(0, 0), (8, 8)], "A": [(2, 9)]})
        path = tmp_path / "x.conll"
        with pytest.raises(SchemaError) as written:
            write_conll(CorpusFile([DocumentRecord(doc, {"gold": cs})]), str(path))
        assert str(written.value) == "document 'd': span (2, 9) of cluster 'A' ends past the last token (6 tokens)"
        assert not path.exists()

    def test_a_negative_span_is_refused_before_it_can_be_exported(self, tmp_path):
        """A set once took the span (-3, -1), which ``validate`` passed and
        the CoNLL labels counted from the end, exporting the mention (3, 5)
        of a 6-token book. No route into a set takes it now, so no export
        is written."""
        doc = Document("d", tuple("abcdef"), ("A",))
        for make in (ClusterSet, ClusterSet.build):
            with pytest.raises(SpanRangeError, match=r"^invalid mention span \(-3, -1\)$"):
                make("d", "gold", {"A": [(-3, -1)]})
        with pytest.raises(SpanRangeError, match=r"^invalid mention span \(-3, -1\)$"):
            shift(ClusterSet("d", "gold", {"A": [(1, 3)]}), -4)
        path = tmp_path / "x.conll"
        write_conll(CorpusFile([DocumentRecord(doc, {"gold": ClusterSet("d", "gold", {"A": [(3, 5)]})})]), str(path))
        assert [row.split("\t")[-1] for row in path.read_text().splitlines()[1:-1]] == ["-", "-", "-", "(0", "-", "0)"]

    def test_bracket_notation_for_multi_token_mention(self, tmp_path):
        doc = Document("doc", ("Mr.", "Darcy"), ("Mr. Darcy",))
        cs = ClusterSet.build("doc", "gold", {"Mr. Darcy": [(0, 1)]})
        path = tmp_path / "x.conll"
        write_conll(CorpusFile([DocumentRecord(doc, {"gold": cs})]), str(path))
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert rows[0].split("\t")[-1] == "(0"
        assert rows[1].split("\t")[-1] == "0)"

    def test_nested_mention_encoding(self, tmp_path):
        doc = Document("doc", ("a", "b", "c", "d"), ("A", "B"))
        cs = ClusterSet.build("doc", "gold", {"A": [(0, 3)], "B": [(1, 1)]})
        path = tmp_path / "x.conll"
        write_conll(CorpusFile([DocumentRecord(doc, {"gold": cs})]), str(path))
        labels = [l.split("\t")[-1] for l in path.read_text().splitlines() if not l.startswith("#")]
        assert labels == ["(0", "(1)", "-", "0)"]

    def test_cluster_ids_assigned_in_first_mention_order(self, tmp_path):
        doc = Document("doc", tuple("abcdef"), ("Late", "Early"))
        cs = ClusterSet.build("doc", "gold", {"Late": [(4, 5)], "Early": [(0, 1)]})
        path = tmp_path / "x.conll"
        write_conll(CorpusFile([DocumentRecord(doc, {"gold": cs})]), str(path))
        labels = [l.split("\t")[-1] for l in path.read_text().splitlines() if not l.startswith("#")]
        assert labels == ["(0", "0)", "-", "-", "(1", "1)"]

    def test_cluster_ids_follow_first_mentions_given_out_of_order(self, tmp_path):
        doc = Document("doc", tuple("abcdef"), ("A", "B"))
        cs = ClusterSet("doc", "gold", {"A": (Mention(5, 5), Mention(0, 0)), "B": (Mention(2, 2),)})
        path = tmp_path / "x.conll"
        write_conll(CorpusFile([DocumentRecord(doc, {"gold": cs})]), str(path))
        labels = [l.split("\t")[-1] for l in path.read_text().splitlines() if not l.startswith("#")]
        assert labels == ["(0)", "-", "(1)", "-", "-", "(0)"]

    def test_roundtrip_preserves_partition(self, tmp_path):
        doc = Document("doc", tuple("abcdefgh"), ("A", "B"))
        cs = ClusterSet.build(
            "doc", "gold", {"A": [(0, 2), (5, 5)], "B": [(1, 1), (6, 7)]}
        )
        path = tmp_path / "x.conll"
        write_conll(CorpusFile([DocumentRecord(doc, {"gold": cs})]), str(path))
        back = read_conll(str(path))
        rec = back.records[0]
        assert rec.document.doc_id == "doc"
        assert rec.document.tokens == doc.tokens
        got = {frozenset(ms) for ms in rec.cluster_sets["prediction"].clusters.values()}
        want = {frozenset(ms) for ms in cs.clusters.values()}
        assert got == want

    def test_unbalanced_brackets_report_row(self, tmp_path):
        path = write_lines(
            tmp_path / "bad.conll",
            ["#begin document (d); part 000", "d\t0\t0\ta\t(0", "#end document"],
        )
        with pytest.raises(ParseError, match="unbalanced"):
            read_conll(path)

    def test_close_without_open_reports_row(self, tmp_path):
        path = write_lines(
            tmp_path / "bad.conll",
            ["#begin document (d); part 000", "d\t0\t0\ta\t0)", "#end document"],
        )
        with pytest.raises(ParseError, match="line 2"):
            read_conll(path)

    def test_gold_corpus_survives_conll_roundtrip_at_conll_f1_100(self, gold_corpus, tmp_path):
        path = tmp_path / "gold.conll"
        write_conll(gold_corpus, str(path))
        back = read_conll(str(path))
        for orig, rt in zip(gold_corpus.records, back.records):
            report = conll(orig.cluster_sets["gold"], rt.cluster_sets["prediction"])
            assert report.conll_f1 == 1.0
            assert rt.document.tokens == orig.document.tokens

    def test_reference_corpus_export_is_pinned(self, gold_corpus, tmp_path):
        path = tmp_path / "gold.conll"
        write_conll(gold_corpus, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == REFERENCE_CONLL_SHA256

    def test_reference_export_reads_back_to_pinned_bytes(self, gold_corpus, tmp_path, capsys):
        conll_path, back = tmp_path / "gold.conll", tmp_path / "back.jsonl"
        write_conll(gold_corpus, str(conll_path))
        assert main(["convert", str(conll_path), str(back)]) == 0
        assert hashlib.sha256(back.read_bytes()).hexdigest() == CONLL_READ_SHA256

    def test_span_past_document_end_is_schema_error_and_writes_nothing(self, tmp_path):
        good = DocumentRecord(
            Document("ok", ("a", "b")), {"gold": ClusterSet.build("ok", "gold", {"A": [(0, 1)]})}
        )
        bad = DocumentRecord(
            Document("d", ("a", "b")), {"gold": ClusterSet.build("d", "gold", {"A": [(1, 1), (0, 5)]})}
        )
        path = tmp_path / "bad.conll"
        with pytest.raises(SchemaError, match=r"document 'd': span \(0, 5\)"):
            write_conll(CorpusFile([good, bad]), str(path))
        assert not path.exists()
        with pytest.raises(SchemaError, match=r"span \(2, 2\)"):
            _coref_labels(ClusterSet.build("d", "gold", {"A": [(2, 2)]}), 2)

    def test_pick_takes_the_named_set_else_the_sole_set(self):
        doc = Document("d", ("a",))
        gold, other = ClusterSet("d", "gold", {}), ClusterSet("d", "prediction", {})
        assert DocumentRecord(doc, {"gold": gold, "prediction": other}).pick("gold") is gold
        assert DocumentRecord(doc, {"prediction": other}).pick("gold") is other
        for sets in ({}, {"silver": gold, "extra": other}):
            with pytest.raises(SchemaError, match="^document 'd' has no cluster set 'gold'.* " + re.escape(str(sorted(sets))) + "$"):
                DocumentRecord(doc, sets).pick("gold")

    def test_missing_cluster_set_writes_nothing(self, tmp_path):
        rec = DocumentRecord(Document("d", ("a",)), {"gold": ClusterSet("d", "gold", {})})
        path = tmp_path / "x.jsonl"
        with pytest.raises(SchemaError, match="no cluster set 'prediction'"):
            write_jsonl(CorpusFile([rec]), str(path), clusters_from="prediction")
        assert not path.exists()

    def test_non_utf8_byte_is_parse_error_naming_its_row(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_bytes(b"#begin document (d); part 000\nd\t0\t0\ta\t-\nd\t0\t1\t\xff\t-\n#end document\n")
        with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
            read_conll(str(path))

    def test_a_pipe_is_read_as_a_file_is(self, tmp_path):
        """A pipe cannot tell its position, which a batch that holds a bad
        byte is read again from, and reads all the same."""
        path = tmp_path / "pipe.conll"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("#begin document (d); part 000\nd\t0\t0\ta\t(0)\n#end document\n",))
        writer.start()
        try:
            corpus = read_conll(str(path))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        [rec] = corpus.records
        assert rec.document.tokens == ("a",) and rec.cluster_sets["prediction"].clusters == {0: ((0, 0),)}

    def test_a_row_error_before_a_bad_byte_in_its_batch_is_raised_first(self, tmp_path):
        """A malformed row about 40 KB before a bad byte, in the same batch, is
        the error, as in the row-by-row read."""
        rows = [b"#begin document (d); part 000\n", b"d\t0\t0\ta\t0)\n"]
        rows += [b"d\t0\t%d\tw\t-\n" % i for i in range(1, 3000)] + [b"d\t0\t3000\t\xff\t-\n#end document\n"]
        path = tmp_path / "bad.conll"
        path.write_bytes(b"".join(rows))
        want = (ParseError, "line 2: close bracket without open for cluster 0")
        assert _read_outcome(read_conll, str(path)) == _read_outcome(read_conll_reference, str(path)) == want


def _traced(fn):
    """``fn()``, and the bytes it allocated that are still held after a
    collection, and the peak, by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


class TestTokenTexts:
    """A read corpus holds one string object per distinct token text, shared
    across the documents of a file."""

    @pytest.fixture(scope="class")
    def books(self, gold_corpus, tmp_path_factory):
        """The seed-13 corpus, and its fable and manor books alone, as JSONL and CoNLL."""
        d = tmp_path_factory.mktemp("texts")
        by_id = gold_corpus.by_id()
        paths = {}
        for name, corpus in (
            ("all", gold_corpus),
            ("synthetic_fable", CorpusFile([by_id["synthetic_fable"]])),
            ("synthetic_manor", CorpusFile([by_id["synthetic_manor"]])),
        ):
            for suffix, write in ((".jsonl", write_jsonl), (".conll", write_conll)):
                paths[name + suffix] = str(d / (name + suffix))
                write(corpus, paths[name + suffix])
        return paths

    @pytest.mark.parametrize("read, suffix", [(read_jsonl, ".jsonl"), (read_conll, ".conll")], ids=["jsonl", "conll"])
    def test_each_distinct_token_text_is_one_string(self, books, read, suffix):
        corpus = read(books["all" + suffix])
        tokens = [tok for rec in corpus for tok in rec.document.tokens]
        assert len(tokens) > 200_000
        assert len({id(tok) for tok in tokens}) == len(set(tokens))
        manor = corpus.by_id()["synthetic_manor"].document.tokens
        assert len({id(tok) for tok in manor}) == len(set(manor)) == 250

    # The CoNLL reader allocates a few objects per row, which tracemalloc makes
    # slow, so its bound is checked on the shorter fable book (36k tokens).
    @pytest.mark.parametrize(
        "read, name", [(read_jsonl, "synthetic_manor.jsonl"), (read_conll, "synthetic_fable.conll")], ids=["jsonl", "conll"]
    )
    def test_a_read_keeps_under_40_bytes_per_token(self, books, read, name):
        """About 20 bytes a token stay: the tokens tuple and the mentions.
        One fresh string per token kept about 72."""
        corpus, held, _ = _traced(lambda: read(books[name]))
        assert held / sum(len(rec.document) for rec in corpus) < 40

    def test_a_conll_read_peaks_under_48_bytes_per_token(self, books):
        """About 40 bytes a token on the fable book (36k tokens): the record
        kept, and one batch's text and its split on tabs. Reading a line at a
        time peaked at about 31; reading the whole file as one batch, at
        about 300."""
        corpus, _, peak = _traced(lambda: read_conll(books["synthetic_fable.conll"]))
        assert peak / len(corpus.records[0].document) < 48

    def test_a_jsonl_read_peaks_under_60_bytes_per_token(self, books):
        """About 42 bytes a token: the record kept, its line, and the list and
        tuple of its shared tokens. Decoding the line whole, one fresh string
        per token, peaked at about 101."""
        corpus, _, peak = _traced(lambda: read_jsonl(books["synthetic_manor.jsonl"]))
        assert peak / len(corpus.records[0].document) < 60


class TestConllWriterChunks:
    """``write_conll`` writes each document in chunks of rows; the bytes equal
    one string per document (``helpers.conll_text``)."""

    @staticmethod
    def record(doc_id, n):
        """A document of ``n`` tokens with mentions that open or close on
        either side of every chunk edge, one over the whole document and one
        on its last token."""
        edges = range(_CONLL_CHUNK_ROWS, n, _CONLL_CHUNK_ROWS)
        clusters = {
            "A": [(0, n - 1)] + [(e - 1, e) for e in edges],
            "B": [(n - 1, n - 1)] + [(e - 1, e - 1) for e in edges] + [(e, e) for e in edges],
        }
        doc = Document(doc_id, tuple(f"w{i % 7}" for i in range(n)))
        return DocumentRecord(doc, {"gold": ClusterSet.build(doc_id, "gold", clusters)})

    SIZES = (_CONLL_CHUNK_ROWS - 1, _CONLL_CHUNK_ROWS, _CONLL_CHUNK_ROWS + 1, 2 * _CONLL_CHUNK_ROWS + 1)

    @pytest.mark.parametrize("n", SIZES)
    def test_one_document_at_a_chunk_edge(self, tmp_path, n):
        corpus = CorpusFile([self.record("d", n)])
        path = tmp_path / "d.conll"
        write_conll(corpus, str(path))
        assert path.read_bytes() == conll_text(corpus).encode()

    def test_several_documents(self, tmp_path):
        corpus = CorpusFile([self.record(f"d{n}", n) for n in (1, *self.SIZES)])
        path = tmp_path / "all.conll"
        write_conll(corpus, str(path))
        data = path.read_bytes()
        assert data == conll_text(corpus).encode() and data.count(b"#begin document") == 5

    def test_peak_memory_stays_under_50_bytes_per_token(self, tmp_path):
        """About 21 bytes a token: the labels and one chunk. Formatting a
        document as one string peaked at about 112."""
        n = 8 * _CONLL_CHUNK_ROWS + 1
        corpus = CorpusFile([self.record("d", n)])
        _, _, peak = _traced(lambda: write_conll(corpus, str(tmp_path / "d.conll")))
        assert peak / n < 50

    def test_peak_memory_on_a_book_stays_under_30_bytes_per_token(self, gold_corpus, tmp_path):
        """On the seed-13 manor book (145k tokens, 15k mentions), about 19
        bytes a token: the labels and one chunk. A 4-tuple and a bracket
        string for every opening and closing peaked at about 44."""
        manor = CorpusFile([gold_corpus.by_id()["synthetic_manor"]])
        _, _, peak = _traced(lambda: write_conll(manor, str(tmp_path / "manor.conll")))
        assert peak / len(manor.records[0].document) < 30


@pytest.mark.parametrize("write", [write_jsonl, write_conll])
def test_four_copies_of_a_book_peak_within_1_5_times_one(gold_corpus, tmp_path, write):
    """Both writers stream a record at a time, so writing the seed-13 manor
    book four times peaks about as high as writing it once (1.0x of 3.1 MB
    for JSONL and 1.7 MB for CoNLL). Serializing or labelling every record
    before the file was opened peaked at 2.2x and 3.0x."""
    manor = gold_corpus.by_id()["synthetic_manor"]
    path = str(tmp_path / "manor.out")
    one, four = (_traced(lambda: write(CorpusFile([manor] * n), path))[2] for n in (1, 4))
    assert four <= 1.5 * one


@st.composite
def labelled_sets(draw):
    """A document length and a cluster set over it with nested, same-start,
    same-end, single-token and duplicate mentions (within and across
    clusters), empty clusters, unsorted clusters and mixed int/str keys that
    tie on ``str`` (1 and "1")."""
    n = draw(st.integers(1, 24))
    pool = []
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=5)):
        s, e = min(a, b), max(a, b)
        pool += [(s, e), (s, s), (e, e)]
        if e - s >= 2:
            pool += [(s + 1, e - 1), (s, e - 1), (s + 1, e)]
    keys = draw(st.lists(st.sampled_from([0, 1, 2, 7, "0", "1", "2", "Ann", "ben"]), unique=True, max_size=6))
    clusters = {}
    for key in keys:
        ms = [Mention(*span) for span in draw(st.lists(st.sampled_from(pool), max_size=7))]
        clusters[key] = tuple(ms if draw(st.booleans()) else sorted(ms))
    return n, ClusterSet("d", "gold", clusters)


def _laminar(ms):
    """The mentions, minus any that would cross one already kept; CoNLL
    brackets of one cluster cannot encode crossing spans."""
    kept = []
    for m in ms:
        if all(not (a.start < m.start <= a.end < m.end or m.start < a.start <= m.end < a.end) for a in kept):
            kept.append(m)
    return tuple(kept)


def test_sparse_labels_equal_dense_reference(capsys):
    """The labels equal the dense reference's on every drawn set. The share
    of drawn sets that put two or more brackets on one token, whose labels
    take the crowded-token pass, is printed: it must be neither none nor
    nearly all of them."""
    seen = {"sets": 0, "crowded": 0}

    @settings(max_examples=1000, deadline=None)
    @given(labelled_sets())
    def check(case):
        n, cs = case
        want = coref_labels_reference(cs, n)
        assert _coref_labels(cs, n) == want
        seen["sets"] += 1
        seen["crowded"] += any("|" in label for label in want)

    check()
    share = seen["crowded"] / seen["sets"]
    with capsys.disabled():
        print(f"\nlabelled sets with a crowded token: {share:.1%} of {seen['sets']}")
    assert 0.1 < share < 0.9


@settings(max_examples=1000, deadline=None)
@given(labelled_sets())
def test_conll_roundtrip_keeps_partition(tmp_path_factory, case):
    n, cs = case
    cs = ClusterSet(cs.doc_id, cs.stage, {k: _laminar(ms) for k, ms in cs.clusters.items()})
    doc = Document("d", tuple(f"t{i}" for i in range(n)))
    path = tmp_path_factory.getbasetemp() / "roundtrip.conll"
    write_conll(CorpusFile([DocumentRecord(doc, {"gold": cs})]), str(path))
    back = read_conll(str(path)).records[0]
    assert back.document.tokens == doc.tokens

    def partition(c):
        return sorted(sorted(set(ms)) for ms in c.clusters.values() if ms)

    assert partition(back.cluster_sets["prediction"]) == partition(cs)


class TestSlicedTokens:
    """``read_jsonl`` decodes the tokens of a line in the writers' layout a
    slice at a time; any other line is decoded whole."""

    WRITTEN = '{"doc_id":"d","tokens":["a",",","b"],"characters":["A"],"clusters":{"A":[[0,0]]},"note":1}'

    @pytest.mark.parametrize(
        "line",
        [WRITTEN, WRITTEN.replace('"note":1', '"tokens":["z"]'), WRITTEN.replace('"note":1', '"doc_id":"e"')],
        ids=["written", "tokens-twice", "doc-id-twice"],
    )
    def test_a_written_line_is_sliced_into_its_json_object(self, line):
        """The tokens come as a tuple of shared strings and the clusters as
        what ``clusters_from_json`` makes of them; a later duplicate key wins
        in the first one's place, as in ``json.loads``."""
        texts = {}
        with mock.patch.object(formats, "_TOKEN_SLICE", 1):
            obj = _sliced_object(line, texts)
        want = json.loads(line)
        want["clusters"] = clusters_from_json(want["clusters"], SchemaError, "line 1")
        assert list(obj) == list(want)
        assert {**obj, "tokens": list(obj["tokens"])} == want
        assert list(texts) == ["a", ",", "b"]

    @pytest.mark.parametrize(
        "line",
        [
            WRITTEN.replace('","', '", "'),  # a space after a separator
            WRITTEN.replace('"tokens":["a",",","b"],"characters":["A"]', '"characters":["A"],"tokens":["a",",","b"]'),
            WRITTEN.replace('["a",",","b"]', '["a",1,"b"]'),
            WRITTEN.replace('["a",",","b"]', '["a",["b"]]'),
            WRITTEN.replace('"a"', '"\\ud800"'),
            WRITTEN[:-1],
            WRITTEN + "x",
        ],
        ids=["spaced", "reordered", "int-token", "nested-token", "surrogate-escape", "truncated", "trailing-garbage"],
    )
    def test_any_other_line_is_left_whole_and_texts_unchanged(self, line):
        texts = {"a": "a"}
        with mock.patch.object(formats, "_TOKEN_SLICE", 1):
            assert _sliced_object(line, texts) is None
        assert texts == {"a": "a"}

    def test_a_book_read_in_small_slices_equals_the_whole_line_read(self, gold_jsonl):
        with mock.patch.object(formats, "_TOKEN_SLICE", 97):
            corpus = read_jsonl(gold_jsonl)
        assert corpus == read_jsonl_reference(gold_jsonl)


#: JSON texts of string tokens: commas, quotes, brackets, backslashes, the
#: text that ends a written tokens array, non-ASCII text and escapes
STRINGS = [json.dumps(t, ensure_ascii=False) for t in ["a", "b", ",", ",,", '"', '",', '","', "\\", "\\\\", "],", '"],"characters":', "", " ", "é", "日本", "😀"]]
STRINGS += ['"\\u00e9"', '"\\u002c"', '"\\"\\\\"']
#: JSON texts of tokens that only the whole-line path reads: lone surrogate
#: (and paired) escapes, and values that are not strings
ODD_TOKENS = ['"\\ud800"', '"x\\udc80"', '"\\ud83d\\ude00"', '"\\uD800"', "1", "1.5", "null", "true", "[]", '["a"]', '[","]', '{"a":1}']
FAULTS = ["spaced", "reordered", "odd-token", "no-tokens", "tokens-twice", "doc-id-twice", "bad-characters", "bad-span",
          "characters-twice", "clusters-twice", "truncated", "trailing-garbage"]
#: JSON texts of cluster names: the texts that end a span array or a span
#: (``]]``, ``],[``), a quote, a backslash, non-ASCII text, and escapes
CLUSTER_NAMES = [json.dumps(t, ensure_ascii=False) for t in ["A", "B", "]]", "],[", 'x"]]', '"', "\\", "é", "日本", ""]]
CLUSTER_NAMES += ['"\\"]],["', '"\\u00e9"']
#: span texts in the writers' canonical form, up to 31 digits
SPAN_NUMBERS = ["0", "1", "2", "7", "10", str(10**30)]
#: span texts that the span-text decoder leaves to the whole-line path: a
#: sign, a leading zero, a fraction, an exponent, spaces, one or three
#: elements, ``end < start``, more digits than ``int`` converts, deeper
#: nesting, and elements that are not numbers
ODD_SPANS = ["[-0,1]", "[-1,0]", "[01,2]", "[0,01]", "[1.0,2]", "[1e2,200]", "[0,1E1]", "[0, 1]", "[ 0,1]", "[0,1 ]",
             "[1]", "[1,2,3]", "[2,1]", "[" + "9" * 4301 + ",9]", "[[0,1]]", "[0,[1]]", '["0",1]', "[null,1]", "[true,1]",
             "[]", "0", "[0,1],"]
#: cluster values that are not span arrays
ODD_CLUSTERS = ["{}", '"x"', "null", "[[0,1]", "[[0,1]]]"]

FAULT = st.sampled_from([None] * len(FAULTS) + FAULTS)
TOKEN_JSON = st.one_of(st.sampled_from(STRINGS), st.text(max_size=3).map(lambda t: json.dumps(t, ensure_ascii=False)))
TOKEN_JSONS = st.lists(TOKEN_JSON, min_size=1, max_size=12)
ODD_TOKEN = st.sampled_from(ODD_TOKENS)
DOC_ID = st.sampled_from([json.dumps(t, ensure_ascii=False) for t in ["d", "e", 'q"', "é", "w,", "x\\", "1", "d2"]])
CHARACTERS = st.sampled_from(['["A"]', "[]", '["]]","é"]'])
EXTRAS = st.sampled_from([[], [("note", '"x"')], [("n", "[1,[2,{}]]")]])
TRAILING = st.sampled_from(["x", "}", "]", " ", "\t", ',"a":1}', "{}"])
CLUSTER_NAME = st.sampled_from(CLUSTER_NAMES)
SPAN_NUMBER = st.sampled_from(SPAN_NUMBERS)
ODD_SPAN = st.sampled_from(ODD_SPANS)
ODD_CLUSTER = st.sampled_from(ODD_CLUSTERS)
CLUSTER_SEPARATOR = st.sampled_from([","] * 7 + [", "])
SMALL = st.integers(0, 3)
DIE = st.integers(0, 9)
ORDER = st.lists(st.integers(0, 99), min_size=8, max_size=8)
CUT = st.integers(0, 1 << 16)


@st.composite
def clusters_texts(draw):
    """The JSON text of a clusters object: up to three clusters (none, an
    empty object, now and then) named with texts that hold ``]]``, ``],[``,
    quotes and non-ASCII text, a name given twice now and then, and each
    cluster empty or up to three spans in the writers' canonical form, with
    integers up to 31 digits, one in ten of them drawn with ``end < start``
    allowed. About three clusters in ten hold a span or a value that only
    the whole-line path reads, and the clusters are now and then joined by
    ``", "``."""
    parts = []
    for _ in range(draw(SMALL)):
        name = parts[0][0] if parts and draw(DIE) == 0 else draw(CLUSTER_NAME)
        spans = []
        for _ in range(draw(SMALL)):
            s, e = draw(SPAN_NUMBER), draw(SPAN_NUMBER)
            if draw(DIE):  # else end < start now and then, in canonical form
                s, e = sorted((s, e), key=int)
            spans.append(f"[{s},{e}]")
        odd = draw(DIE)
        if odd == 0:
            value = draw(ODD_CLUSTER)
        else:
            if odd in (1, 2):
                spans.insert(draw(SMALL) % (len(spans) + 1), draw(ODD_SPAN))
            value = "[" + ",".join(spans) + "]"
        parts.append((name, value))
    return "{" + draw(CLUSTER_SEPARATOR).join(f"{name}:{value}" for name, value in parts) + "}"


CLUSTERS_TEXT = clusters_texts()


@st.composite
def jsonl_lines(draw):
    """One line of a corpus: about half of them in the writers' layout, the
    others with one fault: spaces after separators, keys in another order, a
    token that is not a plain string, no tokens, a duplicate ``tokens``,
    ``doc_id``, ``characters`` or ``clusters`` member, a bad member, a
    truncation or trailing garbage. The clusters come from
    :func:`clusters_texts`, so that a line in the writers' layout reaches
    every way out of the span-text decoder as well as its end. Every
    strategy drawn from is built once."""
    fault = draw(FAULT)
    tokens = draw(TOKEN_JSONS)
    if fault == "odd-token":
        tokens.insert(draw(CUT) % (len(tokens) + 1), draw(ODD_TOKEN))
    elif fault == "no-tokens":
        tokens = []
    sep, colon = (", ", ": ") if fault == "spaced" else (",", ":")
    members = [
        ("doc_id", draw(DOC_ID)),
        ("tokens", "[" + sep.join(tokens) + "]"),
        ("characters", '["A",1]' if fault == "bad-characters" else draw(CHARACTERS)),
        ("clusters", '{"A":[[0]]}' if fault == "bad-span" else draw(CLUSTERS_TEXT)),
    ]
    members += draw(EXTRAS)
    if fault == "tokens-twice":
        members.append(("tokens", '["z"]'))
    elif fault == "doc-id-twice":
        members.append(("doc_id", '"f"'))
    elif fault == "characters-twice":
        members.append(("characters", draw(CHARACTERS)))
    elif fault == "clusters-twice":
        members.append(("clusters", draw(CLUSTERS_TEXT)))
    elif fault == "reordered":
        order = draw(ORDER)
        members = [m for _, m in sorted(zip(order, members), key=lambda pair: pair[0])]
    line = "{" + sep.join(json.dumps(k) + colon + v for k, v in members) + "}"
    if fault == "truncated":
        line = line[: draw(CUT) % len(line)]
    elif fault == "trailing-garbage":
        line += draw(TRAILING)
    return line


def _read_outcome(read, path):
    """The corpus ``read`` makes of ``path``, or its error's class and text."""
    try:
        return read(path)
    except Exception as e:  # noqa: BLE001 - the reference's raw errors are compared too
        return type(e), str(e)


def test_sliced_read_equals_whole_line_read(tmp_path_factory, capsys):
    """Every line, written and read with slices of 0 to 24 characters, gives
    the same corpus as decoding each line whole, or the same error. The
    share of the lines read whose spans the span-text decoder reads is
    printed: it must be neither none nor most of them."""
    path = tmp_path_factory.getbasetemp() / "sliced.jsonl"
    sliced_object = formats._sliced_object
    seen = {"lines": 0, "as text": 0}

    def counted(line, texts):
        obj = sliced_object(line, texts)
        seen["lines"] += 1
        seen["as text"] += obj is not None and any(obj["clusters"].values())
        return obj

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(jsonl_lines(), min_size=1, max_size=3), st.integers(0, 24))
    def check(lines, slice_len):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = _read_outcome(read_jsonl_reference, str(path))
        with mock.patch.object(formats, "_TOKEN_SLICE", slice_len), mock.patch.object(formats, "_sliced_object", counted):
            got = _read_outcome(read_jsonl, str(path))
        assert got == want
        if isinstance(got, CorpusFile):
            tokens = [tok for rec in got for tok in rec.document.tokens]
            assert len({id(tok) for tok in tokens}) == len(set(tokens))

    check()
    share = seen["as text"] / seen["lines"]
    with capsys.disabled():
        print(f"\nJSONL lines whose spans are read as text: {share:.1%} of {seen['lines']}")
    assert 0.05 < share < 0.8


#: coreference labels that open and close what they name, ids of 40 and
#: 4,300 digits among them
WHOLE_LABELS = ["-"] * 8 + ["(0)", "(1)", "(12)", "(0)|(1)", "(0)|(0)", "(" + "9" * 40 + ")", "(" + "7" * 4300 + ")"]
#: labels that leave a bracket open or close one not opened, malformed
#: items, and an id of more digits than ``int`` converts, alone and after an
#: item that fails first
ODD_LABELS = ["(0", "0)", "(1|(0)", "0)|1)", "1)|(1", "x", "(a)", "((1)", "", "1|", "|", "(1)|", "(-1)", "(\u0663)", "- "]
ODD_LABELS += ["(1) ", "(" + "1" * 5000 + ")", "0)|(" + "1" * 5000 + ")", "(1)|x"]
CONLL_TOKENS = ["a", "Darcy", "-", "(1)", "é", "x y", "#x", ""]
CONLL_COMMENTS = ["", "  ", "\t", " \t ", " \t \t\t \t", "# note", "#\t-", "#end"]


@st.composite
def conll_rows(draw, labels, doc_id=None):
    """A token row: 0 to 3 columns before the token and the label, joined by
    tabs (1 to 4 of them) or, now and then, by spaces alone. Given a doc id,
    a row in the writer's layout instead: the doc id, a part and an index
    column (now and then blank), the token and the label, joined by tabs;
    now and then every column after the doc id is blank, which makes a blank
    row of a whitespace-only doc id's."""
    if doc_id is not None:
        if draw(st.integers(0, 7)) == 0:
            return doc_id + "".join(["\t" + draw(st.sampled_from(["", " "])) for _ in range(4)])
        cols = [doc_id, draw(st.sampled_from(["0", "0", "1", ""])), draw(st.sampled_from(["0", "7", " "]))]
        return "\t".join([*cols, draw(st.sampled_from(CONLL_TOKENS)), draw(st.sampled_from(labels))])
    cols = draw(st.lists(st.sampled_from(["d", "0", "3", "a b"]), max_size=3))
    cols += [draw(st.sampled_from(CONLL_TOKENS)), draw(st.sampled_from(labels))]
    return draw(st.sampled_from(["\t"] * 4 + [" "])).join(cols)


@st.composite
def conll_texts(draw):
    """CoNLL text of 0 to 3 documents, with blank and whitespace-only rows
    (one has the four tabs of a row in the writer's layout) and comments
    (one ends in a tab and ``-``) among the token rows. Two in
    three documents have their rows in the writer's layout, first column the
    doc id (empty, whitespace only, holding a tab or starting with ``#``
    among them). Half are well formed: their labels open and close what they
    name, and one mention may span rows. The others draw odd labels too, a
    header inside the document, or one whose part is not a number; now and
    then a row comes outside a document, or a document is left open. Lines
    end in LF, CRLF or CR, and the last one with or without its end. No two
    headers in one text name the same document, so every text is read to
    its end or to its first malformed row."""
    lines = []
    doc_ids = draw(st.permutations(["d", "a b", "(p)", "é", "x\ty", "", " ", "#h"]))
    inner_headers = 0
    for doc_id in doc_ids[: draw(st.integers(0, 3))]:
        if draw(st.integers(0, 9)) == 9:
            lines.append(draw(conll_rows(WHOLE_LABELS)))
        lines.append(f"#begin document ({doc_id}); part {draw(st.sampled_from(['000'] * 6 + ['1', 'x']))}")
        layout = doc_id if draw(st.integers(0, 2)) else None
        if draw(st.booleans()):
            row = conll_rows(WHOLE_LABELS, layout)
            rows = draw(st.lists(st.one_of(row, row, row, st.sampled_from(CONLL_COMMENTS)), min_size=1, max_size=8))
            if draw(st.booleans()):
                first = "d" if layout is None else layout
                rows.insert(0, f"{first}\t0\t0\tDarcy\t(5")
                rows.insert(draw(st.integers(1, len(rows))), f"{first}\t0\t1\tB\t5)|(0)")
        else:
            odd = st.sampled_from(CONLL_COMMENTS + ["#begin document (e); part 1"])
            row = conll_rows(WHOLE_LABELS + ODD_LABELS, layout)
            rows = draw(st.lists(st.one_of(row, row, row, odd), max_size=8))
            for i, r in enumerate(rows):
                if r.startswith("#begin document (e)"):
                    inner_headers += 1
                    rows[i] = f"#begin document (e{inner_headers}); part 1"
        lines += rows
        if draw(st.integers(0, 5)) < 5:
            lines.append("#end document")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def test_conll_read_equals_row_by_row_reference(tmp_path_factory, capsys):
    """Any text, read in batches of 1 to 64 characters, gives the same corpus
    as splitting every row into columns and parsing every label item in
    turn, or the same error and row. The share of the runs (the parts of a
    batch between its lines that start with ``#``) read as rows in the
    writer's layout is printed: it must be neither none nor most of them."""
    path = tmp_path_factory.getbasetemp() / "read.conll"
    layout_rows = formats._layout_rows
    seen = {"runs": 0, "layout": 0}

    def counted(part, doc_id):
        rows = layout_rows(part, doc_id)
        seen["runs"] += not part.startswith("#")
        seen["layout"] += rows is not None
        return rows

    @settings(max_examples=1000, deadline=None)
    @given(conll_texts(), st.integers(1, 64))
    def check(text, batch):
        path.write_bytes(text.encode("utf-8"))
        want = _read_outcome(read_conll_reference, str(path))
        with mock.patch.object(formats, "_CONLL_BATCH", batch), mock.patch.object(formats, "_layout_rows", counted):
            got = _read_outcome(read_conll, str(path))
        assert got == want
        assert not isinstance(got, tuple) or got[0] is ParseError

    check()
    share = seen["layout"] / seen["runs"]
    with capsys.disabled():
        print(f"\nCoNLL runs read in the writer's layout: {share:.1%} of {seen['runs']}")
    assert 0.05 < share < 0.8


#: token texts for the line writer: JSON escapes (a quote, a backslash, a tab,
#: a line break, other control characters), text that is not printable but
#: is not escaped (DEL, NBSP, U+2028), lone surrogates, and plain text
#: (letters, a space, JSON punctuation, non-ASCII letters)
ESCAPED_TEXT = st.text(
    st.sampled_from(['"', "\\", "\t", "\n", "\x00", "\x1f", "\x7f", "\u00a0", "\u2028", "\ud800", "\udfff"]),
    min_size=1, max_size=3,
)
PLAIN_TEXT = st.text(st.sampled_from(["a", "B", " ", ",", "[", "]", "{", ":", "\u00e9", "\u4e2d", "\U0001f600"]), max_size=4)
TOKEN_TEXT = st.one_of(PLAIN_TEXT, st.sampled_from(["", ",", '","', '"]', "\\"]), ESCAPED_TEXT)


#: cluster names that need an escape: a quote, a backslash, U+2028 (which
#: ``json.dumps`` writes as it is), and all three with plain text
ESCAPED_NAMES = st.sampled_from(['"', "\\", "\u2028", 'a"b\\c\u2028'])
CHARACTER_LISTS = st.lists(st.one_of(TOKEN_TEXT, ESCAPED_NAMES), unique=True, max_size=3)
EXTRA_KEYS = st.lists(st.integers(0, 2), unique=True, max_size=2)
#: spans at the integer edges: 0, and 10**30, far past what any book holds
EDGE_SPANS = st.lists(st.sampled_from([(0, 0), (0, 10**30), (10**30, 10**30)]), max_size=2)
EXTRA_NAMES = st.lists(st.sampled_from(["note", "doc_id", "tokens", "characters", "clusters"]), unique=True, max_size=3)
WRITTEN_TOKENS = st.lists(TOKEN_TEXT, min_size=1, max_size=8)
PLAIN_TOKENS = st.lists(PLAIN_TEXT, min_size=1, max_size=8)


@st.composite
def written_records(draw):
    """A record whose tokens are plain text in about half the cases, so
    that both token paths are drawn; whose doc id, characters, cluster keys
    and extra keys may hold any of the texts, the names that need an escape
    among them; and whose clusters hold one-token spans and spans at the
    integer edges (0 and 10**30), in mentions and plain tuples. Every
    strategy drawn from is built once."""
    tokens = draw(PLAIN_TOKENS if draw(st.booleans()) else WRITTEN_TOKENS)
    characters = draw(CHARACTER_LISTS)
    keys = characters + [(0, 1, "1")[i] for i in draw(EXTRA_KEYS)]
    clusters = {
        key: [(i, i) for i in range(len(tokens)) if i % len(keys) == keys.index(key)] + draw(EDGE_SPANS)
        for key in keys
    }
    # the schema's own keys among the extras: a writer keeps the document's values
    extra = {name: draw(TOKEN_TEXT) for name in draw(EXTRA_NAMES)}
    doc_id = draw(TOKEN_TEXT)
    cs = ClusterSet.build(doc_id, "gold", clusters) if draw(st.booleans()) else ClusterSet(doc_id, "gold", clusters)
    return DocumentRecord(Document(doc_id, tuple(tokens), tuple(characters), extra or None), {"gold": cs})


def _line_or_error(write, rec):
    try:
        return write(rec, None)
    except SchemaError as e:
        return f"SchemaError: {e}"


@settings(max_examples=1000, deadline=None)
@given(written_records())
def test_record_line_equals_json_dumps_of_the_record(rec):
    """A line whose tokens are joined as text equals ``json.dumps`` of the
    record's object, byte for byte; a line that holds a lone surrogate is
    refused with the same error."""
    assert _line_or_error(_record_line, rec) == _line_or_error(record_line_reference, rec)
