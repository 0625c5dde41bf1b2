import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookcoref import harness, model, pipeline, windowing
from bookcoref.errors import SchemaError
from bookcoref.formats import CorpusFile, DocumentRecord
from bookcoref.harness import SETTINGS, Setting, evaluate
from bookcoref.metrics import linking_prf
from bookcoref.model import ClusterSet, Document
from bookcoref.pipeline import (
    IdentityExpander,
    OracleExpander,
    OracleJudge,
    OracleLinker,
    PipelineConfig,
    expand_pass,
    pattern_match,
    run,
)
from bookcoref.windowing import plan_groups, plan_windows, split_corpus
from helpers import drop_timings, jsonl_text
from oracles import evaluate_reference


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

    @pytest.mark.parametrize("kind", SETTINGS)
    def test_key_record_without_gold_or_a_sole_set_is_a_schema_error(self, kind):
        """A key record with two sets, neither named gold, used to be dropped
        without a word: no unit, no missing unit, its response unmatched."""
        rec = doc_with("k", 20, {"A": [(0, 0), (5, 5)]})
        cs = rec.cluster_sets["gold"]
        key = CorpusFile([DocumentRecord(rec.document, {"silver": cs, "extra": cs})])
        # split picks the key's set before cutting it, so every setting names the book
        with pytest.raises(SchemaError, match=r"^document 'k' has no cluster set 'gold'.*\['extra', 'silver'\]"):
            evaluate(Setting(kind, 10), key, as_prediction(CorpusFile([rec])))

    def test_response_record_without_prediction_or_a_sole_set_is_a_schema_error(self, small_corpus):
        response = as_prediction(small_corpus)
        sets = response.records[0].cluster_sets
        sets["other"] = sets["more"] = sets.pop("prediction")
        with pytest.raises(SchemaError, match=r"^document 'b1' has no cluster set 'prediction'"):
            evaluate(Setting("full_book", 1500), small_corpus, response)

    def test_split_names_a_book_without_a_set_before_scoring_an_earlier_one(self):
        """split picks every key record's set before it cuts any, so a record
        without one is reported even after a response of the wrong length."""
        short, bad = doc_with("k1", 20, {"A": [(0, 0)]}), doc_with("k2", 20, {"A": [(0, 0)]})
        cs = bad.cluster_sets["gold"]
        key = CorpusFile([short, DocumentRecord(bad.document, {"silver": cs, "extra": cs})])
        response = as_prediction(split_corpus(CorpusFile([doc_with("k1", 25, {})]), 10).corpus)
        with pytest.raises(SchemaError, match=r"^document 'k2' has no cluster set 'gold'"):
            evaluate(Setting("split", 10), key, response)

    def test_split_matches_by_window_id(self, small_corpus):
        response = as_prediction(split_corpus(small_corpus, 500).corpus)
        run = evaluate(Setting("split", 500), small_corpus, response)
        assert all("#w" in unit for unit, _ in run.units)
        assert run.pooled.conll_f1 == pytest.approx(1.0)


class TestCutOncePerPlan:
    """Each cluster set is sliced by one ``cut`` per window plan, however many
    things the caller derives from the parts (kept counts, crossings, window
    records), and no windowed path calls ``restrict``."""

    @staticmethod
    def corpus():
        rec = doc_with("b1", 1200, {"A": [(0, 0), (498, 502), (700, 700)], "B": [(5, 5), (999, 1001)]})
        rec.cluster_sets["silver"] = ClusterSet.build("b1", "prediction", {0: [(10, 11), (499, 500)]})
        return CorpusFile([rec, doc_with("b2", 300, {"A": [(3, 3), (9, 9)]})])

    @staticmethod
    def count_calls(monkeypatch, module):
        """Count ``module.cut`` calls by (set, ranges); any ``restrict`` call
        in the windowed paths' modules is counted too."""
        cuts, restricts = Counter(), Counter()
        real = module.cut

        def counting(cs, ranges):
            cuts[id(cs), tuple(ranges)] += 1
            return real(cs, ranges)

        def counting_restrict(real_restrict):
            def wrapper(cs, lo, hi):
                restricts[id(cs), lo, hi] += 1
                return real_restrict(cs, lo, hi)

            return wrapper

        monkeypatch.setattr(module, "cut", counting)
        for mod in (model, windowing, harness, pipeline):
            if hasattr(mod, "restrict"):
                monkeypatch.setattr(mod, "restrict", counting_restrict(mod.restrict))
        return cuts, restricts

    @staticmethod
    def once_per_plan(pairs):
        return Counter({(id(cs), plan.windows): 1 for plan, cs in pairs})

    def test_split_corpus(self, monkeypatch):
        corpus = self.corpus()
        cuts, restricts = self.count_calls(monkeypatch, windowing)
        result = split_corpus(corpus, 500)
        assert [(m.start, m.end) for *_, m in result.crossings] == [(498, 502), (999, 1001), (499, 500)]
        sets = [(plan_windows(rec.document, 500), cs) for rec in corpus.records for cs in rec.cluster_sets.values()]
        assert cuts == self.once_per_plan(sets)
        assert restricts == Counter()

    def test_gold_plus_window(self, monkeypatch):
        key = self.corpus()
        response = as_prediction(key)
        cuts, restricts = self.count_calls(monkeypatch, harness)
        evaluate(Setting("gold_plus_window", 500), key, response)
        sets = [(plan_windows(rec.document, 500), rec.cluster_sets["gold"]) for rec in key.records]
        sets += [(plan_windows(rec.document, 500), rec.cluster_sets["prediction"]) for rec in response.records]
        assert cuts == self.once_per_plan(sets)
        assert restricts == Counter()

    def test_split(self, monkeypatch):
        """The split setting cuts each key set once per plan, through harness's
        binding of ``cut``, and never copies the key into a window corpus."""
        key = self.corpus()
        response = as_prediction(split_corpus(key, 500).corpus)

        def no_split_corpus(*args, **kwargs):
            raise AssertionError("split_corpus called")

        for mod in (windowing, harness):
            if hasattr(mod, "split_corpus"):
                monkeypatch.setattr(mod, "split_corpus", no_split_corpus)
        cuts, restricts = self.count_calls(monkeypatch, harness)
        run = evaluate(Setting("split", 500), key, response)
        assert [u for u, _ in run.units] == ["b1#w1", "b1#w2", "b2#w1"]
        assert run.pooled.conll_f1 == pytest.approx(1.0)
        assert cuts == self.once_per_plan([(plan_windows(rec.document, 500), rec.cluster_sets["gold"]) for rec in key.records])
        assert restricts == Counter()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_expand_pass_window_and_group(self, monkeypatch, jobs):
        rec = self.corpus().records[0]
        doc, refined = rec.document, rec.cluster_sets["gold"].with_stage("refined")
        cuts, restricts = self.count_calls(monkeypatch, pipeline)
        plan = plan_windows(doc, 300, guard=refined)
        grouped = plan_groups(plan, 2)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            expanded = expand_pass(doc, refined, plan, IdentityExpander(), executor=pool)
            expand_pass(doc, expanded, grouped, IdentityExpander(), executor=pool)
        assert cuts == Counter({(id(refined), plan.windows): 1, (id(expanded), grouped.groups): 1})
        assert restricts == Counter()


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

    def test_equal_runs_save_the_same_summary_and_units(self, small_corpus, tmp_path):
        """Only ``run.json`` carries ``timings``: ``summary.txt`` and
        ``units.jsonl`` of equal runs are byte-identical."""
        run = evaluate(Setting("full_book", 1500), small_corpus, as_prediction(small_corpus))
        files = []
        for i, seconds in enumerate((0.5, 123.25)):
            run.timings = {"seconds": seconds, "process_peak_rss_mb": 10.0 * (i + 1)}
            run.save(str(tmp_path / f"r{i}"))
            files.append([(tmp_path / f"r{i}" / name).read_bytes() for name in ("summary.txt", "units.jsonl")])
        assert files[0] == files[1]

    def test_run_records_time_and_memory(self, small_corpus):
        run = evaluate(Setting("full_book", 1500), small_corpus, as_prediction(small_corpus))
        assert run.timings["seconds"] > 0
        assert run.timings["process_peak_rss_mb"] is None or run.timings["process_peak_rss_mb"] > 0

    @pytest.mark.parametrize("kind", SETTINGS)
    def test_run_records_the_seconds_spent_scoring(self, small_corpus, kind):
        """``scoring_s`` is the part of ``seconds`` spent in the scorer core;
        the rest is unit planning and slicing."""
        response = as_prediction(split_corpus(small_corpus, 500).corpus if kind == "split" else small_corpus)
        run = evaluate(Setting(kind, 500), small_corpus, response)
        assert 0 <= run.timings["scoring_s"] <= run.timings["seconds"]


def split_chains(corpus):
    """The response that cuts each gold chain at its middle mention."""
    out = CorpusFile()
    for rec in corpus.records:
        gold = rec.cluster_sets["gold"]
        clusters = {}
        for key, ms in gold.clusters.items():
            clusters[key] = ms[: len(ms) // 2]
            clusters[f"{key}#2"] = ms[len(ms) // 2 :]
        out.records.append(DocumentRecord(rec.document, {"prediction": ClusterSet(gold.doc_id, "prediction", clusters)}))
    return out


def run_digest(run):
    """sha256 of ``EvalRun.to_dict()`` without its timings."""
    return hashlib.sha256(json.dumps(drop_timings(run.to_dict()), sort_keys=True).encode()).hexdigest()


#: run_digest for the seed-13 corpus against its split-chain response, per
#: (setting, drop_singletons), as the three per-setting loops scored it
EVAL_RUN_SHA256 = {
    ("full_book", True): "72fc9066b1a8e87ff4f59a11d8db0d609dfe98f1f3718cdc75884cc22a7156d4",
    ("full_book", False): "72fc9066b1a8e87ff4f59a11d8db0d609dfe98f1f3718cdc75884cc22a7156d4",
    ("split", True): "c512dc8a9f0bf4607519b409e665e0dec53a11c58d29446389c5b2efcbf8efc1",
    ("split", False): "2c22bdb1d2b9ab727c0f8ee438b248b9f2aa9e9c3abdffde2a870812c4d4f598",
    ("gold_plus_window", True): "7c6df27867df988f9de2bc601575b4f7c0222479dbb097b651085d5f0a7449a9",
    ("gold_plus_window", False): "87aff9cc7beade267e9ea440786df896e0903ce289b6804481a174106a3ba4a4",
}


@pytest.mark.parametrize("kind, drop_singletons", sorted(EVAL_RUN_SHA256))
def test_reference_corpus_eval_run_is_pinned(gold_corpus, kind, drop_singletons):
    response = split_chains(gold_corpus)
    if kind == "split":
        response = split_corpus(response).corpus
    run = evaluate(Setting(kind), gold_corpus, response, drop_singletons=drop_singletons)
    assert run_digest(run) == EVAL_RUN_SHA256[(kind, drop_singletons)]


def merged_pairs(corpus):
    """The response that merges each pair of adjacent gold chains, in sorted
    key order: two key chains then share one response cluster, so CEAF-phi4
    cannot take each key chain's best match and must search."""
    out = CorpusFile()
    for rec in corpus.records:
        gold = rec.cluster_sets["gold"]
        keys = gold.sorted_keys()
        clusters = {keys[i]: sum((gold.clusters[k] for k in keys[i : i + 2]), ()) for i in range(0, len(keys), 2)}
        out.records.append(DocumentRecord(rec.document, {"prediction": ClusterSet(gold.doc_id, "prediction", clusters)}))
    return out


#: run_digest for the seed-13 corpus against its merged-pairs response, per
#: (setting, drop_singletons), as the scorer that ran the solver on every
#: unit scored it
MERGED_PAIRS_SHA256 = {
    ("full_book", True): "96e36a55f6c63ef6f1b89f2ebf16ce4805df408c5296cb190564c56318fe506b",
    ("full_book", False): "96e36a55f6c63ef6f1b89f2ebf16ce4805df408c5296cb190564c56318fe506b",
    ("split", True): "69ccd1484adcfbe624379d10f39a56670455b4dd7ea0f614b32df092d205c3b3",
    ("split", False): "28761a7358f2f140e5370274a85bf84445b5649ba44ea05438e5b5639e59f048",
    ("gold_plus_window", True): "c7b63ba27dc23e5ce8d5f18b31330053dfe9cbb92135ab81c5d44e5e42d4e8a2",
    ("gold_plus_window", False): "087917a377e09503dd3e7dce26e81926f210f06dd2757240f24202631caa967c",
}


@pytest.mark.parametrize("kind, drop_singletons", sorted(MERGED_PAIRS_SHA256))
def test_merged_pairs_eval_run_is_pinned(gold_corpus, solver_calls, kind, drop_singletons):
    """Book-sized units whose CEAF-phi4 alignment is a search: the digests
    pin the solver's path as the split-chain and pattern digests pin the
    forced one."""
    response = merged_pairs(gold_corpus)
    if kind == "split":
        response = split_corpus(response).corpus
    run = evaluate(Setting(kind), gold_corpus, response, drop_singletons=drop_singletons)
    assert run_digest(run) == MERGED_PAIRS_SHA256[(kind, drop_singletons)]
    assert solver_calls["solver"] >= len(run.units) // 2


class TestUnitBookkeeping:
    """Which units each setting scores, skips and flags. With 10-token
    windows, "a" has windows empty on both sides (w2, w4), "b" has no
    response (and an empty-key w3), "c" has no mentions at all, and "z" is
    a response that matches no key document."""

    @staticmethod
    def record(doc_id, n, clusters, stage):
        doc = Document(doc_id, tuple(f"t{i}" for i in range(n)), ("A", "B"))
        return DocumentRecord(doc, {stage: ClusterSet.build(doc_id, stage, clusters)})

    def corpora(self):
        key = CorpusFile([
            self.record("a", 40, {"A": [(0, 0), (5, 5), (25, 25)], "B": [(2, 2), (3, 3)]}, "gold"),
            self.record("b", 25, {"A": [(1, 1), (12, 12)], "B": [(4, 4), (15, 15)]}, "gold"),
            self.record("c", 12, {}, "gold"),
        ])
        response = CorpusFile([
            self.record("a", 40, {"A": [(0, 0), (5, 5)], "B": [(2, 2), (3, 3), (25, 25)]}, "prediction"),
            self.record("c", 12, {}, "prediction"),
            self.record("z", 8, {"A": [(0, 0), (1, 1)]}, "prediction"),
        ])
        return key, response

    @pytest.mark.parametrize(
        "kind, units, missing, unmatched",
        [
            ("full_book", ["a", "b", "c"], ["b"], ["z"]),
            ("split", ["a#w1", "a#w3", "b#w1", "b#w2"], ["b#w1", "b#w2"], ["z#w1"]),
            ("gold_plus_window", ["a#w1", "a#w3", "b#w1", "b#w2"], ["b"], ["z"]),
        ],
    )
    def test_units_skips_and_flags(self, kind, units, missing, unmatched):
        key, response = self.corpora()
        if kind == "split":
            response = split_corpus(response, 10).corpus
        run = evaluate(Setting(kind, 10), key, response)
        assert [u for u, _ in run.units] == units
        assert run.missing_units == missing
        assert run.unmatched_responses == unmatched

    @pytest.mark.parametrize(
        "kind, missing, unmatched", [("full_book", "b", "z"), ("split", "b#w1, b#w2", "z#w1")]
    )
    def test_summary_table_ends_naming_missing_and_unmatched_units(self, kind, missing, unmatched):
        key, response = self.corpora()
        if kind == "split":
            response = split_corpus(response, 10).corpus
        table = evaluate(Setting(kind, 10), key, response).summary_table()
        assert table.splitlines()[-2:] == [f"missing responses for: {missing}", f"unmatched response docs: {unmatched}"]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def pattern_response(gold_corpus):
    """The exact-name-matching baseline's links, as a response corpus."""
    return CorpusFile(
        [DocumentRecord(rec.document, {"prediction": pattern_match(rec.document).with_stage("prediction")})
         for rec in gold_corpus.records]
    )


class TestSeed13OutputsArePinned:
    """sha256 digests of what the windowed paths produce on the seed-13
    corpus: the split corpus, the three settings' runs, character-linking
    scores and the oracle pipeline's predictions with their traces."""

    #: the JSONL text of the split corpus, then its crossings as JSON, per max_len
    SPLIT = {
        1500: "c23d4212412b710d6096143eabf6d7c6e2f5df8f0656bcfe6d095188bd0e0c07",
        700: "001bd5a0d09b1450a7cc48a6f30d92c9916dbade4259e0aefda6379ee0350170",
    }
    #: run_digest of the gold corpus scored against the pattern baseline
    EVAL = {
        "full_book": "105933587cb99d401901086ed69f24d98ed0a6934f33d1aab1dbe45eff4077c9",
        "split": "2be340ddf6dd6ee64e7db4ca799ce415f123f3e04018ec0eccb188e7f90a6ef3",
        "gold_plus_window": "001f9891925e40360da70884980a6bfbd51c302ca4bab09425ec714b49de009d",
    }
    #: the per-document linking_prf of the pattern baseline against gold
    LINKING = "3277757232539c8af33e603c1eb8fe9eb2034d5ff3b1c364c7c53797bc9359b2"
    #: the oracle pipeline's prediction JSONL, then its traces without timings
    PIPELINE = (
        "8f6a253c31f7cdde8757fff6b4638c0f8976f6c43d402ce02ad33956b70a6a35",
        "e40a1dc86d4057884a708f9c9d17d2b85de7cc95fffe9f5a89208e98f0ffcd4e",
    )

    @pytest.mark.parametrize("max_len", sorted(SPLIT))
    def test_split_corpus(self, gold_corpus, max_len):
        result = split_corpus(gold_corpus, max_len)
        crossings = [[doc_id, name, str(key), list(m)] for doc_id, name, key, m in result.crossings]
        assert sha256(jsonl_text(result.corpus) + json.dumps(crossings)) == self.SPLIT[max_len]

    @pytest.mark.parametrize("kind", SETTINGS)
    def test_evaluate(self, gold_corpus, pattern_response, kind):
        response = split_corpus(pattern_response).corpus if kind == "split" else pattern_response
        assert run_digest(evaluate(Setting(kind), gold_corpus, response)) == self.EVAL[kind]

    def test_linking_prf(self, gold_corpus, pattern_response):
        responses = pattern_response.by_id()
        scores = [
            linking_prf(rec.cluster_sets["gold"], responses[rec.document.doc_id].cluster_sets["prediction"]).to_dict()
            for rec in gold_corpus.records
        ]
        assert sha256(json.dumps(scores, sort_keys=True)) == self.LINKING

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_oracle_pipeline(self, gold_corpus, jobs):
        out = CorpusFile()
        traces = []
        for rec in gold_corpus.records:
            gold = rec.cluster_sets["gold"]
            final, trace = run(
                rec.document, PipelineConfig(jobs=jobs), OracleLinker(gold), OracleJudge(gold), OracleExpander(gold)
            )
            out.records.append(DocumentRecord(rec.document, {"prediction": final.with_stage("prediction")}))
            traces.append(drop_timings(trace.to_dict()))
        assert (sha256(jsonl_text(out, "prediction")), sha256(json.dumps(traces, sort_keys=True))) == self.PIPELINE


def test_split_scoring_peaks_under_8_bytes_per_token(gold_corpus):
    """The split setting cuts the key one book at a time and re-bases each
    window only as it is scored: about 4 bytes a token on the seed-13 manor
    book. Copying the key into a window corpus first peaked at about 25."""
    manor = CorpusFile([gold_corpus.by_id()["synthetic_manor"]])
    response = split_corpus(split_chains(manor)).corpus
    gc.collect()
    tracemalloc.start()
    try:
        run = evaluate(Setting("split"), manor, response)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(run.units) > 90
    assert peak / len(manor.records[0].document) < 8


#: Cluster keys of both kinds: character names and anonymous integers.
CLUSTER_KEYS = ["A", "B", "C", 0, 1, 2]

#: The most tokens of a generated document, and of spans in its pool.
MAX_TOKENS = 14
MAX_SPANS = 12
DOC_COUNTS = st.integers(1, 3)
WINDOW_LENS = st.integers(3, 7)
TOKEN_COUNTS = st.integers(1, MAX_TOKENS)
#: a pool's spans: a start, scaled to the document's length when drawn, and
#: its extra tokens
POOL_SPANS = st.lists(
    st.tuples(st.integers(0, MAX_TOKENS - 1), st.sampled_from([0, 0, 1, 2])), min_size=1, max_size=MAX_SPANS
)
#: clusters as indices into the pool, scaled to its size when drawn: up to
#: four distinct keys, drawn as a unique list (no key is drawn and rejected),
#: each with up to eight indices
POOL_KEYS = st.lists(st.sampled_from(CLUSTER_KEYS), unique=True, max_size=4)
POOL_INDICES = st.lists(st.integers(0, MAX_SPANS - 1), max_size=8)
ONE_IN_FOUR = st.integers(0, 3)
ONE_IN_FIVE = st.integers(0, 4)
#: how many stray responses, which match no key document, a case has
STRAY_COUNTS = st.integers(0, 3)


@st.composite
def scored_corpora(draw):
    """A window length of 3-7 tokens, a key corpus of 1-3 documents of up to
    14 tokens, a full-book response and its split. Both sides of a document
    draw clusters, some empty, from one pool of spans of up to three tokens,
    so a cluster may list a span twice, two clusters may share one,
    singletons are common, spans cross window edges and many windows are
    empty on both sides. Half the responses keep part of each key cluster
    instead, so that CEAF-phi4's alignment is often forced. Some documents
    and some windows have no response, and up to three stray responses
    match no key document. Every strategy drawn from is built once: a
    document's spans and clusters are drawn as numbers and scaled to its
    length and its pool."""
    window_len = draw(WINDOW_LENS)
    key, response = CorpusFile(), CorpusFile()
    for d in range(draw(DOC_COUNTS)):
        n = draw(TOKEN_COUNTS)
        doc = Document(f"d{d}", tuple(f"t{i}" for i in range(n)), ("A", "B", "C"))
        spans = [(s * n // MAX_TOKENS, min(s * n // MAX_TOKENS + w, n - 1)) for s, w in draw(POOL_SPANS)]

        def clusters():
            return {k: [spans[i * len(spans) // MAX_SPANS] for i in draw(POOL_INDICES)] for k in draw(POOL_KEYS)}

        gold = clusters()
        key.records.append(DocumentRecord(doc, {"gold": ClusterSet.build(doc.doc_id, "gold", gold)}))
        if draw(ONE_IN_FIVE):
            if draw(st.booleans()):
                prediction = clusters()
            else:  # each response cluster keeps part of a key cluster
                prediction = {k: [m for m in ms if draw(ONE_IN_FOUR)] for k, ms in gold.items()}
            response.records.append(DocumentRecord(doc, {"prediction": ClusterSet.build(doc.doc_id, "prediction", prediction)}))
    for i in range(draw(STRAY_COUNTS)):
        stray = Document(f"stray{i}", ("x", "y"), ())
        response.records.append(DocumentRecord(stray, {"prediction": ClusterSet.build(stray.doc_id, "prediction", {0: [(0, 1)]})}))
    windows = split_corpus(response, window_len).corpus.records
    split = CorpusFile([rec for rec in windows if draw(ONE_IN_FIVE)])
    return window_len, key, response, split


def test_evaluate_equals_the_reference_harness(solver_calls, capsys):
    """The harness over the one-table scorer core gives the run of the
    earlier harness, which scored each unit's sets through ``partition()``
    and the earlier scorer, in every setting, with and without singletons:
    ``to_dict()`` is ``repr``-equal outside ``timings``. It also counts which
    CEAF-phi4 path each unit took: a side with no cluster, the forced
    alignment, or the solver."""
    paths = solver_calls

    @settings(max_examples=1000, deadline=None)
    @given(scored_corpora())
    def check(case):
        window_len, key, response, split = case
        for kind in SETTINGS:
            setting = Setting(kind, window_len)
            resp = split if kind == "split" else response
            for drop_singletons in (True, False):
                got = evaluate(setting, key, resp, drop_singletons)
                want = evaluate_reference(setting, key, resp, drop_singletons)
                assert repr(drop_timings(got.to_dict())) == repr(drop_timings(want.to_dict()))
                paths["units"] += len(got.units)
                paths["empty side"] += sum(1 for _, r in got.units if not (r.ceaf.p_den and r.ceaf.r_den))

    check()
    forced = paths["units"] - paths["empty side"] - paths["solver"]
    shares = {path: n / paths["units"] for path, n in (("empty side", paths["empty side"]), ("forced", forced), ("solver", paths["solver"]))}
    with capsys.disabled():
        print(f"\nCEAF-phi4 paths over {paths['units']} units: " + ", ".join(f"{p} {s:.1%}" for p, s in shares.items()))
    # each was about an eighth or more of the units when this was written
    assert shares["forced"] > 0.05 and shares["solver"] > 0.05
