import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_linear_sum_assignment

from bookcoref.errors import ContractError, SchemaError
from bookcoref.formats import CorpusFile, DocumentRecord
from bookcoref.metrics import (
    PRF,
    b_cubed,
    ceaf_phi4,
    chain_distance,
    conll,
    corpus_stats,
    linear_sum_assignment,
    linking_prf,
    macro_reports,
    muc,
    pct,
    pool_reports,
)
from bookcoref.model import ClusterSet, Document, Mention

from oracles import (
    b3_brute,
    b_cubed_reference,
    ceaf_phi4_brute,
    ceaf_phi4_reference,
    chain_distance_brute,
    conll_reference,
    muc_brute,
    muc_reference,
    random_partition_pair,
)

# the worked four-mention example: one key chain, split in two by the response
KEY = [{"A", "B", "C", "D"}]
RESPONSE = [{"A", "B"}, {"C", "D"}]


class TestHandValues:
    def test_muc(self):
        prf = muc(KEY, RESPONSE)
        assert prf.recall == pytest.approx(2 / 3)
        assert prf.precision == 1.0
        assert round(prf.f1, 3) == 0.800

    def test_b_cubed(self):
        prf = b_cubed(KEY, RESPONSE)
        assert prf.recall == pytest.approx(0.5)
        assert prf.precision == 1.0
        assert round(prf.f1, 3) == 0.667

    def test_ceaf_phi4(self):
        prf = ceaf_phi4(KEY, RESPONSE)
        assert prf.precision == pytest.approx(1 / 3)
        assert prf.recall == pytest.approx(2 / 3)
        assert round(prf.f1, 3) == 0.444

    def test_conll_mean(self):
        report = conll(KEY, RESPONSE)
        assert round(report.conll_f1, 3) == 0.637
        assert report.conll_f1 == (report.muc.f1 + report.b3.f1 + report.ceaf.f1) / 3

    def test_identity_is_one(self):
        for scorer in (muc, b_cubed, ceaf_phi4):
            assert scorer(RESPONSE, RESPONSE).f1 == 1.0
        assert conll(RESPONSE, RESPONSE).conll_f1 == 1.0

    def test_all_singletons_response_gives_zero_muc(self):
        assert muc(KEY, [{"A"}, {"B"}, {"C"}, {"D"}]).f1 == 0.0

    def test_disjoint_mention_sets_give_zero(self):
        report = conll([{"A", "B"}], [{"X", "Y"}])
        assert report.conll_f1 == 0.0

    def test_spurious_singleton_hurts_b3_precision_only(self):
        spurious = [{"A", "B"}, {"C", "D"}, {"E"}]
        base = b_cubed(KEY, RESPONSE)
        worse = b_cubed(KEY, spurious)
        assert worse.precision < 1.0
        assert worse.recall == base.recall
        # matches the brute-force value on the five-mention instance
        p_num, p_den, r_num, r_den = b3_brute(KEY, [frozenset(c) for c in spurious])
        assert worse.precision == pytest.approx(float(p_num) / p_den)


class TestOracleEquivalence:
    N_CASES = 1000

    def test_muc_matches_brute_force_exactly(self):
        rng = random.Random(101)
        for _ in range(self.N_CASES):
            key, resp = random_partition_pair(rng)
            got = muc(key, resp)
            p_num, p_den, r_num, r_den = muc_brute(key, resp)
            assert (got.p_num, got.p_den, got.r_num, got.r_den) == (p_num, p_den, r_num, r_den)

    def test_b3_matches_brute_force(self):
        rng = random.Random(202)
        for _ in range(self.N_CASES):
            key, resp = random_partition_pair(rng)
            got = b_cubed(key, resp)
            p_num, p_den, r_num, r_den = b3_brute(key, resp)
            assert got.p_den == p_den and got.r_den == r_den
            assert got.p_num == pytest.approx(float(p_num), abs=1e-9)
            assert got.r_num == pytest.approx(float(r_num), abs=1e-9)

    def test_ceaf_matches_exhaustive_permutations(self):
        rng = random.Random(303)
        for _ in range(self.N_CASES):
            key, resp = random_partition_pair(rng)
            got = ceaf_phi4(key, resp)
            best, p_den, _, r_den = ceaf_phi4_brute(key, resp)
            assert got.p_den == p_den and got.r_den == r_den
            assert got.p_num == pytest.approx(float(best), abs=1e-9)

    def test_relabeling_and_reordering_invariance(self):
        rng = random.Random(404)
        for _ in range(300):
            key, resp = random_partition_pair(rng)
            shuffled = list(resp)
            rng.shuffle(shuffled)
            for scorer in (muc, b_cubed, ceaf_phi4):
                assert scorer(key, resp).f1 == pytest.approx(scorer(key, shuffled).f1)


class TestConllComposition:
    def test_drops_empty_and_singleton_clusters(self):
        key = [{"A", "B"}, set(), {"C"}]
        resp = [{"A", "B"}, {"D"}]
        report = conll(key, resp)
        assert report.conll_f1 == 1.0

    def test_keep_singletons_flag(self):
        key = [{"A", "B"}, {"C"}]
        resp = [{"A", "B"}]
        assert conll(key, resp).conll_f1 == 1.0
        assert conll(key, resp, drop_singletons=False).conll_f1 < 1.0

    def test_one_iff_identical_after_dropping(self):
        rng = random.Random(55)
        for _ in range(400):
            key, resp = random_partition_pair(rng)
            report = conll(key, resp)
            key_d = {c for c in key if len(c) > 1}
            resp_d = {c for c in resp if len(c) > 1}
            if key_d == resp_d and key_d:
                assert report.conll_f1 == pytest.approx(1.0)
            elif key_d != resp_d:
                assert report.conll_f1 < 1.0 or not key_d


class TestPooling:
    def test_pooled_counts_are_sums(self):
        r1 = conll([{"A", "B"}], [{"A", "B"}])
        r2 = conll([{"X", "Y", "Z"}], [{"X", "Y"}, {"Z", "W"}])
        pooled = pool_reports([r1, r2])
        assert pooled.muc.r_num == r1.muc.r_num + r2.muc.r_num
        assert pooled.muc.r_den == r1.muc.r_den + r2.muc.r_den
        assert pooled.conll_f1 == (pooled.muc.f1 + pooled.b3.f1 + pooled.ceaf.f1) / 3

    def test_pooling_is_permutation_invariant(self):
        rng = random.Random(77)
        reports = []
        for _ in range(6):
            key, resp = random_partition_pair(rng)
            reports.append(conll(key, resp))
        shuffled = list(reports)
        rng.shuffle(shuffled)
        assert pool_reports(reports) == pool_reports(shuffled)

    def test_macro_is_mean_of_f1(self):
        r1 = conll([{"A", "B"}], [{"A", "B"}])
        r2 = conll([{"X", "Y"}], [{"X"}, {"Y"}])
        macro = macro_reports([r1, r2])
        assert macro.muc.f1 == pytest.approx((r1.muc.f1 + r2.muc.f1) / 2)


class TestLinking:
    def doc_cs(self, mapping, stage="gold"):
        return ClusterSet.build("d", stage, mapping)

    def test_half_right(self):
        key = self.doc_cs({"Darcy": [(0, 1)], "Eliza": [(5, 5)]})
        resp = self.doc_cs({"Darcy": [(0, 1)], "Jane": [(5, 5)]})
        prf = linking_prf(key, resp)
        assert prf.precision == 0.5
        assert prf.recall == 0.5

    def test_identity(self):
        key = self.doc_cs({"Darcy": [(0, 1)], "Eliza": [(5, 5)]})
        assert linking_prf(key, key).f1 == 1.0

    def test_anonymous_response_keys_rejected(self):
        key = self.doc_cs({"Darcy": [(0, 1)]})
        resp = self.doc_cs({0: [(0, 1)]}, stage="prediction")
        with pytest.raises(ContractError):
            linking_prf(key, resp)

    def test_same_span_wrong_character_is_both_fp_and_fn(self):
        key = self.doc_cs({"Darcy": [(0, 1)], "Eliza": [(2, 2), (3, 3)]})
        resp = self.doc_cs({"Darcy": [(0, 1), (2, 2)], "Eliza": [(3, 3)]})
        prf = linking_prf(key, resp)
        assert prf.p_num == 2 and prf.p_den == 3 and prf.r_den == 3


class TestChainDistance:
    def test_three_positions(self):
        assert chain_distance([0, 10, 20]) == (3, 40)

    def test_single_position(self):
        assert chain_distance([5]) == (0, 0)
        assert chain_distance([]) == (0, 0)

    def test_closed_form_equals_quadratic_oracle(self):
        rng = random.Random(9)
        for _ in range(1000):
            k = rng.randint(0, 60)
            positions = sorted(rng.randrange(100_000) for _ in range(k))
            assert chain_distance(positions) == chain_distance_brute(positions)

    def test_spot_check_at_ten_thousand(self):
        rng = random.Random(10)
        positions = sorted(rng.randrange(10_000_000) for _ in range(10_000))
        assert chain_distance(positions) == chain_distance_brute(positions)


class TestCorpusStats:
    def test_tiny_corpus(self):
        doc = Document("d", tuple(f"t{i}" for i in range(100)), ("A",))
        cs = ClusterSet.build("d", "gold", {"A": [(0, 0), (50, 50)]})
        stats = corpus_stats(CorpusFile([DocumentRecord(doc, {"gold": cs})]))
        assert stats.docs == 1
        assert stats.tokens == 100
        assert stats.mentions == 2
        assert stats.mention_distance == 50
        assert stats.mentions_per_chain == 2

    def test_chains_given_out_of_order_are_measured_in_order(self):
        doc = Document("d", tuple("abcdefghij"), ("A", "B"))
        m = Mention
        cs = ClusterSet("d", "gold", {"A": (m(0, 0), m(5, 5), m(0, 0)), "B": (m(7, 7), m(2, 2))})
        stats = corpus_stats(CorpusFile([DocumentRecord(doc, {"gold": cs})]))
        # A: pairs 0-0, 0-5, 0-5; B: 2-7
        assert (stats.mention_pairs, stats.mention_distance) == (4, 3.75)

    def test_record_without_cluster_sets_counts_only_its_tokens(self):
        doc = Document("d", tuple(f"t{i}" for i in range(100)), ("A",))
        cs = ClusterSet.build("d", "gold", {"A": [(0, 0), (50, 50)]})
        stats = corpus_stats(CorpusFile([DocumentRecord(doc, {"gold": cs}), DocumentRecord(doc)]))
        assert (stats.docs, stats.tokens, stats.mentions, stats.mention_distance) == (2, 200, 2, 50)

    def test_record_without_gold_or_a_sole_set_is_a_schema_error(self):
        doc = Document("d", ("a",))
        cs = ClusterSet("d", "gold", {})
        with pytest.raises(SchemaError, match="has no cluster set 'gold'"):
            corpus_stats(CorpusFile([DocumentRecord(doc, {"silver": cs, "extra": cs})]))

    def test_empty_corpus(self):
        stats = corpus_stats(CorpusFile())
        assert stats.docs == 0
        assert stats.tokens == 0
        assert stats.mention_distance == 0.0

    def test_micro_distance_pools_before_dividing(self):
        d1 = Document("d1", tuple("ab" * 50), ("A",))
        d2 = Document("d2", tuple("ab" * 50), ("B",))
        c1 = ClusterSet.build("d1", "gold", {"A": [(0, 0), (10, 10)]})  # 1 pair, 10
        c2 = ClusterSet.build("d2", "gold", {"B": [(0, 0), (30, 30), (60, 60)]})  # 3 pairs, 120
        corpus = CorpusFile([DocumentRecord(d1, {"gold": c1}), DocumentRecord(d2, {"gold": c2})])
        stats = corpus_stats(corpus)
        assert stats.mention_pairs == 4
        assert stats.mention_distance == pytest.approx(130 / 4)


def test_pct_rounds_half_up_to_one_decimal():
    assert pct(0.18905) == 18.9
    assert pct(0.95645) == 95.6
    assert pct(0.12345) == 12.3
    assert pct(0.10050) == 10.1
    assert pct(1.0) == 100.0


def test_prf_f1_zero_when_both_zero():
    assert PRF.from_counts(0, 5, 0, 5).f1 == 0.0
    assert PRF.from_counts(0, 0, 0, 0).precision == 0.0


#: A clustering over a small mention universe: sides may be empty, clusters
#: may be empty or singletons, a mention may be missing from the other side
#: or sit in two clusters of one side, and a cluster may list one twice.
clusterings = st.lists(st.lists(st.integers(0, 11), max_size=6), max_size=6)


@settings(max_examples=1000, deadline=None)
@given(clusterings, clusterings)
def test_scorer_core_equals_reference_bit_for_bit(key, response):
    for drop_singletons in (True, False):
        got = conll(key, response, drop_singletons)
        want = conll_reference(key, response, drop_singletons)
        assert got == want
        assert repr(got) == repr(want)  # also the int/float type of every count
    # the single-metric references keep empty clusters, which B3 cannot score
    key = [c for c in key if c]
    response = [c for c in response if c]
    for scorer, reference in ((muc, muc_reference), (b_cubed, b_cubed_reference), (ceaf_phi4, ceaf_phi4_reference)):
        assert repr(scorer(key, response)) == repr(reference(key, response))


def with_empty_clusters(clustering, at):
    """``clustering`` with an empty cluster inserted at each index of ``at``."""
    out = list(clustering)
    for i in at:
        out.insert(min(i, len(out)), [])
    return out


@settings(max_examples=1000, deadline=None)
@given(clusterings, clusterings, st.lists(st.integers(0, 6), max_size=3), st.lists(st.integers(0, 6), max_size=3))
@example([[0, 1], []], [[0, 1]], [], [])
def test_single_metrics_ignore_empty_clusters_like_conll(key, response, key_at, response_at):
    """An empty cluster is no entity: empty clusters on either side change no
    single metric, and each equals its part of ``conll`` keeping singletons."""
    report = conll(key, response, drop_singletons=False)
    padded = with_empty_clusters(key, key_at), with_empty_clusters(response, response_at)
    for scorer, part in ((muc, report.muc), (b_cubed, report.b3), (ceaf_phi4, report.ceaf)):
        assert repr(scorer(key, response)) == repr(part)
        assert repr(scorer(*padded)) == repr(part)


#: Every phi4 value 2c / (|K| + |R|) of clusters of up to 8 mentions that share c.
PHI4_VALUES = sorted({2.0 * c / (k + r) for k in range(1, 9) for r in range(1, 9) for c in range(1, min(k, r) + 1)})


@st.composite
def phi4_tables(draw):
    """A dense phi4 table of 1-12 rows and 1-12 columns whose entries come
    from a palette of zero and at most four phi4 values, so ties are common
    and an empty palette gives an all-zero table."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    palette = [0.0] * draw(st.integers(1, 4)) + draw(st.lists(st.sampled_from(PHI4_VALUES), max_size=4))
    entry = st.sampled_from(palette)
    return [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]


@settings(max_examples=1000, deadline=None)
@given(phi4_tables(), st.booleans())
@example([[0.0] * 5 for _ in range(3)], True)
@example([[0.0, 0.5, 0.5, 0.5]], True)
@example([[0.5], [1.0], [0.5]], False)
@example([[1.0, 0.5], [0.5, 1.0], [1.0, 1.0]], True)
def test_assignment_returns_scipys_pairs_exactly(table, maximize):
    """The pure-Python solver returns SciPy's pairs, ties included, for wide
    and tall tables, 1 x n and n x 1, all-zero tables, and both directions."""
    rows, cols = scipy_linear_sum_assignment(table, maximize=maximize)
    assert linear_sum_assignment(table, maximize=maximize) == (rows.tolist(), cols.tolist())


@st.composite
def fragmented(draw):
    """A key clustering of 0-6 clusters and a response cut from it: each
    key cluster is cut into fragments of one drawn size (equal-sized ones
    tie within the row) and only some are kept, so a key cluster may keep
    none (a row with no overlap) and the response may hold more clusters
    than the key or fewer. Response clusters of unknown mentions add
    columns with no overlap. Now and then a mention is listed in two key
    clusters, the one case where the precision rows are not the recall
    rows' transpose."""
    key = []
    fresh = 0
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.integers(1, 8))
        key.append(list(range(fresh, fresh + size)))
        fresh += size
    if len(key) > 1 and draw(st.integers(0, 3)) == 0:
        a, b = draw(st.permutations(range(len(key))))[:2]
        key[b].append(draw(st.sampled_from(key[a])))
    response = []
    for cluster in key:
        order = draw(st.permutations(cluster))
        step = draw(st.integers(1, len(order)))
        for i in range(0, len(order), step):
            if draw(st.integers(0, 3)):
                response.append(order[i : i + step])
    for _ in range(draw(st.integers(0, 2))):
        size = draw(st.integers(1, 3))
        response.append(list(range(100 + fresh, 100 + fresh + size)))
        fresh += size
    return key, draw(st.permutations(response))


def test_forced_alignments_equal_the_solvers_bit_for_bit(solver_calls, capsys):
    """Responses cut from the key's clusters mostly take CEAF-phi4's forced
    path (each key cluster's largest phi4, summed in row order) and must give
    the reference scorer's reports bit for bit, ties included; a mention in
    two key clusters sends a unit to the solver."""
    paths = solver_calls

    @settings(max_examples=1000, deadline=None)
    @given(fragmented())
    # the forced-path check must read the recall side: the precision side
    # of this pair shows no contest, and reading it scored CEAF 2.0, not 1.0
    @example(([[0], [0]], [[0]]))
    def check(case):
        key, response = case
        for drop_singletons in (True, False):
            got = conll(key, response, drop_singletons)
            assert repr(got) == repr(conll_reference(key, response, drop_singletons))
            paths["aligned"] += bool(got.ceaf.p_den and got.ceaf.r_den)
        got = ceaf_phi4(key, response)
        assert repr(got) == repr(ceaf_phi4_reference(key, response))
        paths["aligned"] += bool(got.p_den and got.r_den)

    check()
    forced = (paths["aligned"] - paths["solver"]) / paths["aligned"]
    with capsys.disabled():
        print(f"\nforced CEAF-phi4 alignments: {forced:.1%} of {paths['aligned']}")
    assert 0.5 < forced < 1
