import json
from collections import Counter

import pytest

from bookcoref import harness, windowing
from bookcoref.formats import CorpusFile, DocumentRecord
from bookcoref.harness import Setting, evaluate, stats
from bookcoref.metrics import corpus_stats
from bookcoref.model import ClusterSet, Document
from bookcoref.windowing import plan_windows, split_corpus


def doc_with(doc_id, n, gold_clusters, characters=("A", "B")):
    doc = Document(doc_id, tuple(f"t{i}" for i in range(n)), characters)
    cs = ClusterSet.build(doc_id, "gold", gold_clusters)
    return DocumentRecord(doc, {"gold": cs})


def as_prediction(corpus):
    """Clone a corpus, re-labelling its gold annotations as predictions."""
    out = CorpusFile()
    for rec in corpus.records:
        cs = rec.cluster_sets["gold"]
        out.records.append(
            DocumentRecord(rec.document, {"prediction": cs.with_stage("prediction")})
        )
    return out


@pytest.fixture()
def small_corpus():
    return CorpusFile(
        [
            doc_with("b1", 900, {"A": [(0, 0), (10, 11), (700, 700)], "B": [(5, 5), (80, 80)]}),
            doc_with("b2", 1200, {"A": [(3, 3), (900, 901)], "B": [(40, 40), (41, 41), (1100, 1100)]}),
        ]
    )


class TestIdentity:
    @pytest.mark.parametrize("kind", ["full_book", "split", "gold_plus_window"])
    def test_response_equals_key_scores_100(self, small_corpus, kind):
        if kind == "split":
            response = as_prediction(split_corpus(small_corpus, 1500).corpus)
        else:
            response = as_prediction(small_corpus)
        run = evaluate(Setting(kind, 1500), small_corpus, response)
        assert run.pooled.conll_f1 == pytest.approx(1.0)
        assert run.macro.conll_f1 == pytest.approx(1.0)
        assert not run.missing_units


class TestSettingConsistency:
    def test_full_book_equals_split_on_single_window_corpus(self, small_corpus):
        # both books are shorter than the window, so the split is a renaming
        full = evaluate(Setting("full_book", 1500), small_corpus, as_prediction(small_corpus))
        split = evaluate(
            Setting("split", 1500),
            small_corpus,
            as_prediction(split_corpus(small_corpus, 1500).corpus),
        )
        assert full.pooled == split.pooled
        assert [r for _, r in full.units] == [r for _, r in split.units]

    def test_gold_plus_window_with_oversized_window_equals_full_book(self, small_corpus):
        response = as_prediction(small_corpus)
        full = evaluate(Setting("full_book", 1500), small_corpus, response)
        gpw = evaluate(Setting("gold_plus_window", 10_000), small_corpus, response)
        assert gpw.pooled == full.pooled

    def test_cross_window_fusion_scores_higher_in_gold_plus_window(self):
        """A response that is perfect inside each window but fuses two gold
        chains across windows: window-restricted scoring cannot see the
        fusion, whole-book scoring can."""
        key = CorpusFile(
            [
                doc_with(
                    "book",
                    3000,
                    {"A": [(0, 0), (10, 10), (20, 20)], "B": [(1600, 1600), (1610, 1610), (1620, 1620)]},
                )
            ]
        )
        fused = ClusterSet.build(
            "book",
            "prediction",
            {0: [(0, 0), (10, 10), (20, 20), (1600, 1600), (1610, 1610), (1620, 1620)]},
        )
        response = CorpusFile([DocumentRecord(key.records[0].document, {"prediction": fused})])
        full = evaluate(Setting("full_book", 1500), key, response)
        windowed = evaluate(Setting("gold_plus_window", 1500), key, response)
        assert windowed.pooled.conll_f1 == pytest.approx(1.0)
        assert full.pooled.conll_f1 == pytest.approx((8 / 9 + 2 / 3 + 4 / 9) / 3)
        assert windowed.pooled.conll_f1 > full.pooled.conll_f1

    def test_pooling_permutation_invariance_across_units(self, small_corpus):
        response = as_prediction(small_corpus)
        run = evaluate(Setting("full_book", 1500), small_corpus, response)
        reversed_key = CorpusFile(list(reversed(small_corpus.records)))
        run_rev = evaluate(Setting("full_book", 1500), reversed_key, response)
        assert run.pooled == run_rev.pooled


class TestAlignment:
    def test_missing_response_is_recall_penalty_and_flagged(self, small_corpus):
        response = as_prediction(small_corpus)
        response.records = response.records[:1]
        run = evaluate(Setting("full_book", 1500), small_corpus, response)
        assert run.missing_units == ["b2"]
        assert run.pooled.muc.recall < 1.0
        assert run.pooled.muc.precision == 1.0

    def test_unmatched_response_documents_flagged(self, small_corpus):
        response = as_prediction(small_corpus)
        response.records.append(
            DocumentRecord(
                Document("stray", ("x",), ()),
                {"prediction": ClusterSet.build("stray", "prediction", {})},
            )
        )
        run = evaluate(Setting("full_book", 1500), small_corpus, response)
        assert run.unmatched_responses == ["stray"]

    def test_split_matches_by_window_id(self, small_corpus):
        response = as_prediction(split_corpus(small_corpus, 500).corpus)
        run = evaluate(Setting("split", 500), small_corpus, response)
        assert all("#w" in unit for unit, _ in run.units)
        assert run.pooled.conll_f1 == pytest.approx(1.0)


class TestRestrictOncePerWindow:
    """Each cluster set is sliced once per window, however many things the
    caller derives from the slice (kept counts, crossings, window records)."""

    @staticmethod
    def corpus():
        rec = doc_with("b1", 1200, {"A": [(0, 0), (498, 502), (700, 700)], "B": [(5, 5), (999, 1001)]})
        rec.cluster_sets["silver"] = ClusterSet.build("b1", "prediction", {0: [(10, 11), (499, 500)]})
        return CorpusFile([rec, doc_with("b2", 300, {"A": [(3, 3), (9, 9)]})])

    @staticmethod
    def count_restricts(monkeypatch, module):
        calls = Counter()
        real = module.restrict

        def counting(cs, lo, hi):
            calls[id(cs), lo, hi] += 1
            return real(cs, lo, hi)

        monkeypatch.setattr(module, "restrict", counting)
        return calls

    @staticmethod
    def once_per_window(pairs):
        return Counter(
            {(id(cs), lo, hi): 1 for doc, cs in pairs for lo, hi in plan_windows(doc, 500).windows}
        )

    def test_split_corpus(self, monkeypatch):
        corpus = self.corpus()
        calls = self.count_restricts(monkeypatch, windowing)
        result = split_corpus(corpus, 500)
        assert [(m.start, m.end) for *_, m in result.crossings] == [(498, 502), (999, 1001), (499, 500)]
        sets = [(rec.document, cs) for rec in corpus.records for cs in rec.cluster_sets.values()]
        assert calls == self.once_per_window(sets)

    def test_gold_plus_window(self, monkeypatch):
        key = self.corpus()
        response = as_prediction(key)
        calls = self.count_restricts(monkeypatch, harness)
        evaluate(Setting("gold_plus_window", 500), key, response)
        sets = [(rec.document, rec.cluster_sets["gold"]) for rec in key.records]
        sets += [(rec.document, rec.cluster_sets["prediction"]) for rec in response.records]
        assert calls == self.once_per_window(sets)


class TestArtifacts:
    def test_save_writes_run_json_units_jsonl_and_summary(self, small_corpus, tmp_path):
        run = evaluate(Setting("full_book", 1500), small_corpus, as_prediction(small_corpus))
        out = tmp_path / "results"
        run.save(str(out))
        run_json = json.loads((out / "run.json").read_text())
        assert run_json["setting"]["kind"] == "full_book"
        assert run_json["pooled"]["conll_f1"] == pytest.approx(1.0)
        lines = (out / "units.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        summary = (out / "summary.txt").read_text()
        assert "MUC" in summary and "CoNLL" in summary
        assert "corpus (pooled)" in summary

    def test_run_records_time_and_memory(self, small_corpus):
        run = evaluate(Setting("full_book", 1500), small_corpus, as_prediction(small_corpus))
        assert run.seconds > 0
        assert run.peak_rss_mb is None or run.peak_rss_mb > 0


def test_stats_delegates_to_corpus_stats(small_corpus):
    assert stats(small_corpus) == corpus_stats(small_corpus)
