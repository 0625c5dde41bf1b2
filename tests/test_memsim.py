import hashlib
import random
from heapq import heapify
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookcoref import memsim
from bookcoref.errors import ConfigError, ContractError
from bookcoref.memsim import Policy, mention_stream, simulate, sweep, sweep_csv
from bookcoref.model import ClusterSet, Mention
from oracles import mention_stream_reference, simulate_reference


class TestPolicy:
    def test_labels(self):
        assert Policy.unbounded().label() == "unbounded"
        assert Policy.lru(3).label() == "lru(3)"
        assert Policy.dual(25, 25).label() == "dual(25,25)"

    def test_validation(self):
        with pytest.raises(ConfigError):
            Policy.lru(0)
        with pytest.raises(ConfigError):
            Policy.dual(0, 25)
        Policy.dual(3, 0)  # zero G-cache is legal: degenerates to lru(3)
        with pytest.raises(ConfigError):
            Policy("weird")

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: Policy.lru(1.5), "capacity"),
            (lambda: Policy.lru("3"), "capacity"),
            (lambda: Policy.lru(True), "capacity"),
            (lambda: Policy.dual(2.5, 3), "l_capacity"),
            (lambda: Policy.dual(3, None), "g_capacity"),
            (lambda: Policy.dual(3, False), "g_capacity"),
            (lambda: Policy("unbounded", capacity=1.5), "capacity"),
        ],
    )
    def test_a_capacity_that_is_no_int_is_refused(self, make, field):
        """A float, a bool, a string or None is refused where the policy is
        made, naming the field, not later by ``simulate``."""
        with pytest.raises(ConfigError, match=f"^{field} must be an int, got "):
            make()


class TestUnbounded:
    def test_never_evicts_never_forces(self):
        stream = ["A", "B", "A", "C", "B", "A"] * 50
        report = simulate(stream, Policy.unbounded())
        assert report.evictions == 0
        assert report.forced_errors == 0
        assert report.forced_error_rate == 0.0
        assert report.total_mentions == 300


class TestLru:
    def test_capacity_one_abab_hand_trace(self):
        """A:insert; B:insert evicts A; A:forced, evicts B; B:forced, evicts A."""
        report = simulate(["A", "B", "A", "B"], Policy.lru(1), keep_events=True)
        assert report.evictions == 3
        assert report.forced_errors == 2
        assert report.forced_error_rate == 0.5
        kinds = [e for _, e, _ in report.events]
        assert kinds == [
            "insert",
            "insert", "evict",
            "forced-miss", "insert", "evict",
            "forced-miss", "insert", "evict",
        ]

    def test_recency_updates_protect_hot_clusters(self):
        # A stays hot; C evicts B, not A
        report = simulate(["A", "B", "A", "C", "B"], Policy.lru(2))
        assert report.cluster_evictions == {"B": 1, "A": 1}
        assert report.forced_errors == 1  # the final B

    def test_first_occurrences_are_not_forced_errors(self):
        report = simulate(list("ABCDEFG"), Policy.lru(2))
        assert report.forced_errors == 0
        assert report.evictions == 5

    def test_determinism(self):
        rng = random.Random(4)
        stream = [rng.choice("ABCDEFHIJ") for _ in range(2000)]
        a = simulate(stream, Policy.lru(3), keep_events=True)
        b = simulate(stream, Policy.lru(3), keep_events=True)
        assert a == b


class TestDual:
    def test_equals_lru_when_g_cache_is_zero(self):
        rng = random.Random(8)
        for _ in range(50):
            stream = [rng.choice("ABCDEFGH") for _ in range(rng.randint(1, 400))]
            k = rng.randint(1, 5)
            a = simulate(stream, Policy.lru(k), keep_events=True)
            b = simulate(stream, Policy.dual(k, 0), keep_events=True)
            assert a.forced_errors == b.forced_errors
            assert a.evictions == b.evictions
            ev_a = [e for e in a.events]
            ev_b = [e for e in b.events if e[1] != "demote"]
            assert ev_a == ev_b

    def test_demotion_then_lfu_eviction(self):
        # L=1, G=1: A(f=1) in; B pushes A to G; C pushes B to G, which
        # overflows and evicts A (lowest frequency, least recent)
        report = simulate(["A", "A", "B", "C"], Policy.dual(1, 1), keep_events=True)
        assert report.cluster_evictions == {"B": 1}  # A has freq 2, B only 1
        assert report.evictions == 1

    def test_g_cache_hit_promotes_back_to_l(self):
        # A demoted to G by B, then hit in G: promoted, B demoted
        report = simulate(["A", "B", "A", "B"], Policy.dual(1, 1))
        assert report.forced_errors == 0
        assert report.evictions == 0

    def test_frequency_resets_after_eviction(self):
        stream = ["A"] * 5 + ["B", "C", "D", "E"] + ["A"] + ["B"]
        report = simulate(stream, Policy.dual(1, 1), keep_events=True)
        assert report.forced_errors >= 1
        arrivals = [c for _, e, c in report.events if e == "forced-miss"]
        assert "A" in arrivals or "B" in arrivals


class TestFromClusterSet:
    def test_stream_ordered_by_mention_start(self):
        cs = ClusterSet.build(
            "d", "gold", {"B": [(5, 5), (0, 1)], "A": [(2, 2), (9, 9)]}
        )
        assert mention_stream(cs) == ["B", "A", "B", "A"]

    def test_simulate_accepts_cluster_set(self):
        cs = ClusterSet.build("d", "gold", {"B": [(5, 5), (0, 1)], "A": [(2, 2), (9, 9)]})
        report = simulate(cs, Policy.lru(1))
        assert report.total_mentions == 4
        assert report.forced_errors == 2


class TestToDict:
    def test_cluster_keys_that_print_alike_are_contract_error(self):
        report = simulate([1, "1", 2, 1], Policy.lru(1))
        assert report.cluster_evictions == {1: 1, "1": 1, 2: 1}
        with pytest.raises(ContractError, match=r"cluster keys 1 and '1' both print as '1'"):
            report.to_dict()

    def test_keys_that_print_uniquely_keep_every_count(self):
        report = simulate([1, "a", 2, 1], Policy.lru(1))
        assert report.to_dict()["cluster_evictions"] == {"1": 1, "2": 1, "a": 1}

    def test_kept_events_are_written_as_lists_in_replay_order(self):
        report = simulate(["a", "b", "a"], Policy.lru(1), keep_events=True)
        assert report.to_dict()["events"] == [
            [0, "insert", "a"], [1, "insert", "b"], [1, "evict", "a"],
            [2, "forced-miss", "a"], [2, "insert", "a"], [2, "evict", "b"],
        ]
        assert "events" not in simulate(["a", "b", "a"], Policy.lru(1)).to_dict()


class TestMonotonicity:
    def test_rates_non_increasing_in_capacity_on_random_streams(self):
        rng = random.Random(21)
        for _ in range(40):
            n_clusters = rng.randint(2, 12)
            stream = [rng.randrange(n_clusters) for _ in range(rng.randint(10, 600))]
            for policies in (
                [Policy.lru(k) for k in range(1, n_clusters + 2)],
                [Policy.dual(k, k) for k in range(1, n_clusters + 2)],
                [Policy.dual(k, 3) for k in range(1, n_clusters + 2)],
            ):
                rates = [simulate(stream, p).forced_error_rate for p in policies]
                assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:])), (stream, rates)

    def test_gold_books_capacity_sweep(self, gold_corpus):
        for rec in gold_corpus.records:
            stream = mention_stream(rec.cluster_sets["gold"])
            rates = [
                simulate(stream, Policy.lru(k)).forced_error_rate
                for k in (1, 2, 4, 8, 16, 32, 64)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


def test_sweep_csv_shape(gold_corpus):
    stream = mention_stream(gold_corpus.records[0].cluster_sets["gold"])
    results = sweep(stream, [Policy.lru(k) for k in (1, 2, 4)])
    csv = sweep_csv(results)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("policy,capacity")
    assert len(lines) == 4
    assert lines[1].startswith("lru,1,")


def test_report_invariants(gold_corpus):
    gold = gold_corpus.records[0].cluster_sets["gold"]
    for policy in (Policy.unbounded(), Policy.lru(5), Policy.dual(5, 5)):
        report = simulate(gold, policy)
        assert report.forced_errors <= report.total_mentions
        assert report.total_mentions == gold.n_mentions
        if policy.kind == "unbounded":
            assert report.evictions == 0


#: cluster keys, with int/str pairs that print alike (1 and "1")
KEYS = [0, 1, 2, 3, "0", "1", "2", "x", "y"]


def _same(got, want):
    """Equal reports, with the clusters listed in the same (first-eviction) order."""
    return got == want and list(got.cluster_evictions.items()) == list(want.cluster_evictions.items())


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_sweep_and_simulate_equal_reference_replays(data):
    stream = data.draw(st.lists(st.sampled_from(KEYS), max_size=80))
    capacities = data.draw(st.lists(st.integers(1, 9), max_size=5))  # duplicates, any order
    if data.draw(st.integers(0, 3)) == 3:
        capacities = []  # a dual-only sweep
    # an L-cache past every LRU capacity drawn sets the depth of the shared stack
    deepest = max(capacities, default=0)
    l_capacity = st.integers(1, 5) | st.integers(deepest + 1, deepest + 4)
    g_capacity = st.just(0) | st.integers(0, 5)
    duals = data.draw(st.lists(st.tuples(l_capacity, g_capacity), max_size=3))
    policies = [Policy.lru(k) for k in capacities] + [Policy.dual(l, g) for l, g in duals]
    if data.draw(st.booleans()):
        policies.append(Policy.unbounded())
    policies = data.draw(st.permutations(policies))
    got = sweep(stream, policies)
    assert [p for p, _ in got] == policies
    for policy, report in got:
        assert _same(report, simulate_reference(stream, policy)), policy
        traced = simulate(stream, policy, keep_events=True)
        assert _same(traced, simulate_reference(stream, policy, keep_events=True)), policy


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_mention_stream_equals_reference_order(data):
    span = st.tuples(st.integers(0, 6), st.integers(0, 3)).map(lambda t: Mention(t[0], t[0] + t[1]))
    keys = data.draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=6))
    cs = ClusterSet("d", "gold", {k: tuple(data.draw(st.lists(span, max_size=6))) for k in keys})
    assert mention_stream(cs) == mention_stream_reference(cs)


def test_sweep_of_a_book_equals_reference_replays(gold_corpus):
    gold = gold_corpus.records[0].cluster_sets["gold"]
    stream = mention_stream_reference(gold)
    policies = [Policy.lru(k) for k in (1, 2, 4, 8, 16, 32)] + [Policy.dual(k, k) for k in (1, 2, 4, 8, 16, 32)]
    for policy, report in sweep(gold, policies):
        assert _same(report, simulate_reference(stream, policy)), policy


@pytest.mark.parametrize("policy", [Policy.dual(1, 1), Policy.dual(2, 1), Policy.dual(2, 2)], ids=str)
def test_g_cache_heap_compaction_keeps_reference_replays(policy):
    """Each G-cache hit leaves a stale heap entry behind; on a few thousand
    accesses over four clusters the heap passes 2G entries and is compacted
    many times, and the replay, its events and its first-eviction order
    still equal the reference's."""
    rng = random.Random(27)
    stream = [rng.choice("ABCD") for _ in range(3000)]
    with mock.patch.object(memsim, "heapify", wraps=heapify) as compactions:
        for keep_events in (False, True):
            got = simulate(stream, policy, keep_events=keep_events)
            assert _same(got, simulate_reference(stream, policy, keep_events=keep_events))
            (swept,) = sweep(stream, [policy])
            assert _same(swept[1], simulate_reference(stream, policy))
    assert compactions.call_count > 100


#: sha256 of the sweep tables of the seed-13 gold books under lru(k) and
#: dual(k, k) for k = 1 to 32, as the one-replay-per-policy simulator wrote them
SWEEP_SHA256 = "e939d916aa57502b9b319ec5f944fef5e33c1632d1fa28c95f470f3e4edc9ac3"


def test_sweep_tables_of_the_reference_corpus_are_pinned(gold_corpus):
    policies = [Policy.lru(k) for k in range(1, 33)] + [Policy.dual(k, k) for k in range(1, 33)]
    text = "".join(sweep_csv(sweep(rec.cluster_sets["gold"], policies)) for rec in gold_corpus.records)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256
