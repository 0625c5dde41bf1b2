import hashlib

import pytest

from bookcoref import synthetic
from bookcoref.cli import main
from bookcoref.errors import GeneratorError
from bookcoref.formats import dumps_jsonl, read_jsonl
from bookcoref.metrics import corpus_stats
from bookcoref.model import validate
from bookcoref.synthetic import BOOK_SPECS, DISTANCE_TARGET, make_reference_corpus

#: sha256 of the default-seed corpus as JSONL; the benchmark and the
#: acceptance suite are measured on exactly this corpus.
SEED_13_SHA256 = "8f6a253c31f7cdde8757fff6b4638c0f8976f6c43d402ce02ad33956b70a6a35"


def test_same_seed_is_bit_identical(gold_corpus):
    again = make_reference_corpus()
    assert dumps_jsonl(again) == dumps_jsonl(gold_corpus)


def test_default_corpus_is_pinned(gold_corpus):
    assert hashlib.sha256(dumps_jsonl(gold_corpus).encode()).hexdigest() == SEED_13_SHA256


def test_seed_9_calibrates(tmp_path, capsys):
    """The multiplicative steps stop 0.7% short of the distance target at
    seed 9; the bracketing search has to finish the calibration."""
    out = tmp_path / "seed9.jsonl"
    assert main(["--seed", "9", "synth", str(out)]) == 0
    stats = corpus_stats(read_jsonl(str(out)))
    assert stats.mentions == 23_532
    assert abs(stats.mention_distance - DISTANCE_TARGET) / DISTANCE_TARGET < 0.002


def test_unreachable_calibration_is_a_named_error(monkeypatch, tmp_path, capsys):
    with pytest.raises(GeneratorError, match="cannot reach"):
        synthetic._calibrate(lambda alpha: (DISTANCE_TARGET * 0.9, []))
    monkeypatch.setattr(synthetic, "DISTANCE_TARGET", 60_000.0)
    assert main(["synth", str(tmp_path / "never.jsonl")]) == 1
    assert "distance calibration cannot reach 60000" in capsys.readouterr().err


def test_different_seed_differs():
    other = make_reference_corpus(seed=99)
    stats = corpus_stats(other)
    # shape targets still hold under any seed
    assert stats.docs == 3
    assert stats.mentions == 23_532
    assert abs(stats.mention_distance - 34_880) / 34_880 < 0.005


def test_every_chain_has_at_least_two_mentions(gold_corpus):
    for rec in gold_corpus.records:
        for key, ms in rec.cluster_sets["gold"].clusters.items():
            assert len(ms) >= 2, key


def test_gold_validates_cleanly(gold_corpus):
    for rec in gold_corpus.records:
        report = validate(rec.document, rec.cluster_sets["gold"])
        assert report.ok


def test_no_mention_straddles_a_window_boundary(gold_corpus):
    for rec in gold_corpus.records:
        for _, m in rec.cluster_sets["gold"].mentions():
            assert m.start // 1500 == m.end // 1500, m


def test_specs_match_documents(gold_corpus):
    for spec, rec in zip(BOOK_SPECS, gold_corpus.records):
        assert rec.document.doc_id == spec.doc_id
        assert len(rec.document.tokens) == spec.n_tokens
        assert len(rec.document.characters) == spec.n_chains
        assert rec.cluster_sets["gold"].n_mentions == spec.n_mentions
