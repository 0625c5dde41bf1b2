import random
from math import ceil

import pytest

from bookcoref.errors import ConfigError, PlanningError
from bookcoref.formats import CorpusFile, DocumentRecord
from bookcoref.harness import Setting
from bookcoref.model import ClusterSet, Document, Mention, crossing_mentions, cut, shift
from bookcoref.remote import ServiceClient
from bookcoref.windowing import plan_groups, plan_windows, split_corpus, window_doc_id
from helpers import covers, within


def doc_of(n, doc_id="d", characters=("A", "B")):
    return Document(doc_id, tuple(f"t{i}" for i in range(n)), characters)


class TestPlanWindows:
    def test_strict_arithmetic_chunking(self):
        plan = plan_windows(doc_of(3200), 1500)
        assert plan.windows == ((0, 1500), (1500, 3000), (3000, 3200))

    def test_mention_safe_moves_boundary_left(self):
        guard = ClusterSet.build("d", "gold", {"A": [(1498, 1502)]})
        plan = plan_windows(doc_of(3200), 1500, guard)
        assert plan.windows == ((0, 1498), (1498, 2998), (2998, 3200))

    def test_degenerate_single_window(self):
        plan = plan_windows(doc_of(1499), 1500)
        assert plan.windows == ((0, 1499),)

    def test_guard_mention_longer_than_max_len(self):
        guard = ClusterSet.build("d", "gold", {"A": [(0, 10)]})
        with pytest.raises(PlanningError, match=r"\(0,10\)"):
            plan_windows(doc_of(100), 5, guard)

    def test_unsplit_guard_mention_at_exact_boundary_is_fine(self):
        guard = ClusterSet.build("d", "gold", {"A": [(1495, 1499)]})
        plan = plan_windows(doc_of(3000), 1500, guard)
        assert plan.windows == ((0, 1500), (1500, 3000))

    def test_partition_coverage_property(self):
        """Both plans partition the document; a guarded plan splits no guard
        mention, and it equals the unguarded plan whenever that one splits
        none (so a pipeline always planning around its seeds loses nothing
        an unguarded plan could have run)."""
        rng = random.Random(3)
        planned = unchanged = 0
        for _ in range(1200):
            n = rng.randint(1, 400)
            max_len = rng.randint(1, 60)
            d = doc_of(n)
            plain = plan_windows(d, max_len)
            assert covers(plain.windows, n)
            assert all(hi - lo <= max_len for lo, hi in plain.windows)
            ms = []
            for _ in range(rng.randint(0, 8)):
                s = rng.randrange(n)
                e = min(n - 1, s + rng.randint(0, max_len - 1))
                ms.append((s, e))
            guard = ClusterSet.build("d", "gold", {"A": ms})
            crossed = crossing_mentions(guard, cut(guard, plain.windows))
            try:
                safe = plan_windows(d, max_len, guard)
            except PlanningError:
                # legal only when some window range is wholly covered by
                # guard-mention interiors, leaving no boundary position
                interiors = {p for _, m in guard.mentions() for p in range(m.start + 1, m.end + 1)}
                assert any(
                    all(p in interiors for p in range(lo + 1, lo + max_len + 1))
                    for lo in range(0, n, 1)
                ), "planner gave up although a boundary existed"
                assert crossed, "planner gave up although the unguarded plan splits no guard mention"
                continue
            planned += 1
            assert covers(safe.windows, n)
            for _, m in guard.mentions():
                assert any(within(m, lo, hi) for lo, hi in safe.windows), (m, safe.windows)
            if not crossed:
                unchanged += 1
                assert safe.windows == plain.windows
        # unguarded coverage is checked on every iteration; most iterations
        # also exercise a full guarded plan, and many of those a guard that
        # the unguarded plan leaves whole
        assert planned > 800
        assert unchanged > 300

    def test_determinism(self):
        d = doc_of(5000)
        guard = ClusterSet.build("d", "gold", {"A": [(10, 12), (1499, 1503)]})
        a = plan_windows(d, 1500, guard)
        b = plan_windows(d, 1500, guard)
        assert a == b


class TestPlanGroups:
    def test_ceil_grouping(self):
        plan = plan_windows(doc_of(23 * 100), 100)
        grouped = plan_groups(plan, 10)
        assert len(plan) == 23
        assert len(grouped) == 3
        assert grouped.groups == ((0, 1000), (1000, 2000), (2000, 2300))

    def test_group_size_one_is_identity(self):
        plan = plan_windows(doc_of(450), 100)
        grouped = plan_groups(plan, 1)
        assert grouped.groups == plan.windows

    def test_single_group_when_g_equals_n(self):
        plan = plan_windows(doc_of(1000), 100)
        grouped = plan_groups(plan, 10)
        assert grouped.groups == ((0, 1000),)

    def test_groups_cover_document(self):
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(1, 3000)
            plan = plan_windows(doc_of(n), rng.randint(1, 200))
            group_size = rng.randint(1, 12)
            grouped = plan_groups(plan, group_size)
            assert covers(grouped.groups, n)
            assert len(grouped) == ceil(len(plan) / group_size)


class TestSplitCorpus:
    def corpus(self, n=3000, spans=((0, 1), (1400, 1401), (2000, 2003))):
        doc = doc_of(n, "book")
        cs = ClusterSet.build("book", "gold", {"A": list(spans), "B": [(5, 6), (7, 8)]})
        return CorpusFile([DocumentRecord(doc, {"gold": cs})])

    def test_two_windows_from_3000_tokens(self):
        result = split_corpus(self.corpus(), 1500)
        assert [r.document.doc_id for r in result.corpus.records] == [
            window_doc_id("book", 1),
            window_doc_id("book", 2),
        ]
        assert all(len(r.document.tokens) == 1500 for r in result.corpus.records)

    def test_clusters_rebased_and_empty_dropped(self):
        result = split_corpus(self.corpus(), 1500)
        w1, w2 = result.corpus.records
        assert w1.cluster_sets["gold"].clusters["A"] == (Mention(0, 1), Mention(1400, 1401))
        # B has no mentions in window 2, so its key is gone there
        assert set(w2.cluster_sets["gold"].clusters) == {"A"}
        assert w2.cluster_sets["gold"].clusters["A"] == (Mention(500, 503),)

    def test_character_list_inherited(self):
        result = split_corpus(self.corpus(), 1500)
        assert result.corpus.records[0].document.characters == ("A", "B")

    def test_crossing_mentions_dropped_and_reported(self):
        result = split_corpus(self.corpus(spans=((0, 1), (1499, 1500))), 1500)
        assert result.n_crossings == 1
        doc_id, set_name, key, m = result.crossings[0]
        assert (doc_id, set_name, key, m) == ("book", "gold", "A", Mention(1499, 1500))
        total = sum(r.cluster_sets["gold"].n_mentions for r in result.corpus.records)
        assert total == 3  # four gold mentions minus the crossing one

    def test_mention_conservation_property(self):
        """Kept + crossing mentions always equals the original count, and
        kept mentions re-base back to their global selves."""
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(2, 300)
            max_len = rng.randint(1, 80)
            spans = []
            for _ in range(rng.randint(0, 12)):
                s = rng.randrange(n)
                e = min(n - 1, s + rng.randint(0, 5))
                if (s, e) not in spans:
                    spans.append((s, e))
            doc = doc_of(n, "bk")
            cs = ClusterSet.build("bk", "gold", {"A": spans})
            result = split_corpus(CorpusFile([DocumentRecord(doc, {"gold": cs})]), max_len)
            kept = 0
            globals_back = set()
            for rec in result.corpus.records:
                lo = rec.document.source["window_start"]
                for name, wcs in rec.cluster_sets.items():
                    kept += wcs.n_mentions
                    for _, m in shift(wcs, lo).mentions():
                        globals_back.add(m)
            assert kept + result.n_crossings == len(spans)
            assert globals_back == {m for _, m in cs.mentions()} - {m for _, _, _, m in result.crossings}

    def test_gold_corpus_splits_with_zero_crossings(self, gold_corpus):
        result = split_corpus(gold_corpus, 1500)
        assert result.n_crossings == 0
        total = sum(r.cluster_sets["gold"].n_mentions for r in result.corpus.records)
        assert total == sum(rec.cluster_sets["gold"].n_mentions for rec in gold_corpus.records)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: split_corpus(TestSplitCorpus().corpus(), 1.5), "max_len"),
        (lambda: split_corpus(CorpusFile(), 1.5), "max_len"),
        (lambda: plan_windows(doc_of(10), 2.5), "max_len"),
        (lambda: plan_groups(plan_windows(doc_of(10), 2), 2.5), "group_size"),
        (lambda: plan_groups(plan_windows(doc_of(10), 2), True), "group_size"),
        (lambda: ServiceClient("http://127.0.0.1:1", retries=1.5), "retries"),
        (lambda: ServiceClient("http://127.0.0.1:1", retries=True), "retries"),
        (lambda: Setting("split", 1.5), "window_len"),
        (lambda: Setting("split", True), "window_len"),
    ],
)
def test_a_count_that_is_no_int_is_refused_naming_its_field(make, field):
    """A window length, a group size or a retry count that is a float or a
    bool is a ConfigError naming the field, by the one rule that
    ``PipelineConfig`` and ``memsim.Policy`` use too, not a raw TypeError
    from a slice or a range, nor a setting that scores float windows."""
    with pytest.raises(ConfigError, match=f"^{field} must be an int, got "):
        make()
