import copy
import json
import pickle
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookcoref.errors import CompositionError, ContractError, SchemaError, SpanRangeError
from bookcoref.model import (
    ClusterSet,
    Document,
    Mention,
    clusters_from_json,
    clusters_to_json,
    crossing_mentions,
    cut,
    drop_empty,
    mentions_from_text,
    prediction_key,
    restrict,
    shift,
    union,
    validate,
)
from bookcoref.pipeline import ExpandRequest
from bookcoref.remote import HttpExpander
from helpers import within
from oracles import validate_reference

DOC = Document("d", tuple("abcdefghij"), ("Darcy", "Bingley"))


def cs(clusters, stage="gold", doc_id="d"):
    return ClusterSet.build(doc_id, stage, clusters)


class TestMention:
    def test_ordering_is_start_end_lexicographic(self):
        assert sorted([Mention(2, 5), Mention(1, 9), Mention(2, 3)]) == [
            Mention(1, 9),
            Mention(2, 3),
            Mention(2, 5),
        ]
        assert sorted([Mention(2, 5), (1, 9), Mention(2, 3)]) == [(1, 9), (2, 3), (2, 5)]

    def test_rejects_inverted_and_negative_spans(self):
        for span in ((3, 2), (3, 1), (-1, 2), (-1, 0)):
            with pytest.raises(SpanRangeError, match=r"invalid mention span"):
                Mention(*span)

    @pytest.mark.parametrize("span", [(1.5, 2), (0, 2.0), ("a", "b"), (True, 1), (0, False), (None, 1)])
    def test_rejects_a_start_or_end_that_is_not_an_int(self, span):
        """A float, a string, a bool or None is refused as a range error,
        not a raw ``TypeError`` or a span that no writer can write."""
        with pytest.raises(SpanRangeError, match="^" + re.escape(f"invalid mention span ({span[0]!r}, {span[1]!r})") + "$"):
            Mention(*span)

    def test_is_the_tuple_start_end(self):
        m = Mention(3, 5)
        assert m == (3, 5) and (3, 5) == m
        assert hash(m) == hash((3, 5))
        assert {(3, 5): "x"}[m] == "x"
        assert (m.start, m.end) == (m[0], m[1]) == (3, 5)
        start, end = m
        assert (start, end) == (3, 5)
        assert repr(m) == "Mention(start=3, end=5)"
        assert Mention(start=3, end=5) == m

    def test_json_writes_a_list(self):
        assert json.dumps(Mention(1, 2)) == "[1, 2]"
        assert json.dumps({"Ann": (Mention(0, 0), Mention(4, 6))}) == '{"Ann": [[0, 0], [4, 6]]}'

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy] + [
        (lambda m, p=p: pickle.loads(pickle.dumps(m, protocol=p))) for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ])
    def test_copy_and_pickle_round_trip_to_a_mention(self, copier):
        back = copier(Mention(3, 5))
        assert type(back) is Mention
        assert back == Mention(3, 5) and (back.start, back.end) == (3, 5)

    def test_plain_tuple_subclass_without_namedtuple_helpers(self):
        """No ``_replace``/``_make``: they would build a mention without the
        range check."""
        m = Mention(1, 2)
        assert type(m).__mro__ == (Mention, tuple, object)
        assert not hasattr(m, "_replace") and not hasattr(Mention, "_make")
        assert not hasattr(m, "__dict__")
        with pytest.raises(AttributeError):
            m.start = 4

    def test_shift_unpacks_and_validates(self):
        moved = shift(cs({"Darcy": [(2, 3), (5, 5)]}), -2)
        assert moved.clusters["Darcy"] == (Mention(0, 1), Mention(3, 3))
        assert all(type(m) is Mention for m in moved.clusters["Darcy"])
        with pytest.raises(SpanRangeError):
            shift(cs({"Darcy": [(2, 3)]}), -3)

    @pytest.mark.parametrize("delta", [0.5, -1.0, 2.0, True, False, "1", None])
    def test_shift_refuses_a_delta_that_is_not_an_int(self, delta):
        """A float would build mentions the constructor refuses, and a bool
        is no token count: both raise before anything is built, also for a
        set with no mentions."""
        for x in (cs({"Darcy": [(2, 3), (5, 5)]}), cs({})):
            with pytest.raises(SpanRangeError, match="^" + re.escape(f"shift delta {delta!r} is not an int") + "$"):
                shift(x, delta)

    def test_shift_checks_the_smallest_mention_of_unsorted_clusters(self):
        """``shift`` checks one mention per cluster; on 1,000 random sets,
        sorted or not, it agrees with shifting each mention on its own."""
        rng = random.Random(7)
        for _ in range(1000):
            clusters = {
                key: tuple(Mention(s, s + rng.randint(0, 3)) for s in rng.sample(range(30), rng.randint(0, 4)))
                for key in range(rng.randint(1, 3))
            }
            x = ClusterSet("d", "gold", clusters)
            assert all(list(ms) == sorted(ms) for ms in x.clusters.values())
            delta = rng.randint(-12, 5)
            try:
                expected = {k: tuple(Mention(m.start + delta, m.end + delta) for m in ms) for k, ms in x.clusters.items()}
            except SpanRangeError:
                with pytest.raises(SpanRangeError, match=r"invalid mention span \(-"):
                    shift(x, delta)
            else:
                assert shift(x, delta).clusters == expected


class TestConstruction:
    @pytest.mark.parametrize("span", [(1.5, 2), (0, 2.0), (True, 3), (0, False), ("1", "2"), ("a", 2)])
    def test_build_refuses_a_span_that_is_not_two_ints(self, span):
        """``build`` hands each span to ``Mention`` unconverted, so a float, a
        bool or a string raises the constructor's error instead of being
        truncated or parsed."""
        message = "^" + re.escape(f"invalid mention span ({span[0]!r}, {span[1]!r})") + "$"
        for spans in ([span], [(0, 0), span], [Mention(0, 0), list(span)]):
            with pytest.raises(SpanRangeError, match=message):
                ClusterSet.build("d", "gold", {"A": spans})

    def test_build_keeps_mentions_and_int_pairs(self):
        built = ClusterSet.build("d", "gold", {"A": [Mention(4, 4), [0, 2], (1, 1)]})
        assert built.clusters == {"A": (Mention(0, 2), Mention(1, 1), Mention(4, 4))}
        assert all(type(m) is Mention for m in built.clusters["A"])

    def test_a_cluster_that_mixes_span_types_is_sorted_as_mentions(self):
        """Pairs of any form become mentions before the cluster is sorted,
        so a tuple, a list and a mention sort together, and a span of any
        other form raises a ``SpanRangeError`` naming it, not a ``TypeError``
        from the sort."""
        mixed = ClusterSet("d", "gold", {"A": [(4, 4), [0, 2], Mention(1, 1)], "B": ([3, 3],)})
        assert mixed.clusters == {"A": (Mention(0, 2), Mention(1, 1), Mention(4, 4)), "B": (Mention(3, 3),)}
        assert all(type(m) is Mention for ms in mixed.clusters.values() for m in ms)
        for bad in ("ab", 5, None, (1,), [1, 2, 3]):
            with pytest.raises(SpanRangeError, match="^" + re.escape(f"invalid mention span {bad!r}") + "$"):
                ClusterSet("d", "gold", {"A": [(0, 0), bad, [1, 1]]})

    @pytest.mark.parametrize("cluster", [None, 3, 1.5])
    def test_a_cluster_that_is_not_iterable_is_named(self, cluster):
        """It once escaped as a raw ``TypeError``."""
        message = f"invalid cluster of type {type(cluster).__name__}, not an iterable of spans"
        with pytest.raises(SpanRangeError, match="^" + re.escape(message) + "$"):
            ClusterSet("d", "gold", {"A": [(0, 0)], "B": cluster})

    @pytest.mark.parametrize("key", [None, 1.5, ("A",), True, False, b"A", frozenset()])
    @pytest.mark.parametrize("stage", ["gold", "prediction"])
    def test_a_key_that_is_not_a_str_or_an_int_is_refused(self, key, stage):
        """Such a key once made a set that ``validate`` passed and that read
        back under another key, its ``str``: ``'None'``, ``'1.5'``,
        ``"('A',)"`` and ``'True'``."""
        message = f"cluster key {key!r} is a {type(key).__name__}, not a str or an int"
        for clusters in ({key: [(0, 0)]}, {"A": [], 2: [(1, 1)], key: ()}):
            with pytest.raises(SchemaError, match="^" + re.escape(message) + "$"):
                ClusterSet("d", stage, clusters)
        assert ClusterSet("d", stage, {"A": [(0, 0)], 1: [(1, 1)], -2: ()}).clusters.keys() == {"A", 1, -2}

    @pytest.mark.parametrize(
        "given",
        [
            {"a": (Mention(5, 5), Mention(0, 0), Mention(2, 3), Mention(2, 2)), "b": ()},
            {"a": [Mention(0, 0), Mention(2, 2), Mention(2, 3), Mention(5, 5)], "b": []},
            {"a": [Mention(5, 5), Mention(2, 3), Mention(0, 0), Mention(2, 2)], "b": ()},
            MappingProxyType({"a": (Mention(0, 0), Mention(2, 2), Mention(2, 3), Mention(5, 5)), "b": ()}),
        ],
    )
    def test_clusters_are_stored_as_sorted_tuples(self, given):
        x = ClusterSet("d", "gold", given)
        assert type(x.clusters) is dict and list(x.clusters) == ["a", "b"]
        assert x.clusters["a"] == (Mention(0, 0), Mention(2, 2), Mention(2, 3), Mention(5, 5))
        assert all(type(ms) is tuple for ms in x.clusters.values())
        assert x == ClusterSet.build("d", "gold", given)


class TestValidate:
    def test_out_of_bounds_span_is_an_error(self):
        report = validate(DOC, cs({"Darcy": [(3, 12)]}))
        assert [f.code for f in report.errors] == ["span-out-of-bounds"]
        assert "out of bounds" in report.errors[0].message

    def test_valid_gold_accepted(self):
        report = validate(DOC, cs({"Darcy": [(0, 1), (4, 4)], "Bingley": [(2, 3)]}))
        assert report.ok
        assert report.errors == ()

    def test_mention_in_two_clusters(self):
        report = validate(DOC, cs({"Darcy": [(2, 3)], "Bingley": [(2, 3)]}))
        assert [f.code for f in report.errors] == ["mention-in-multiple-clusters"]
        assert "two clusters" in report.errors[0].message

    def test_summary_counts_then_lists_errors_before_warnings(self):
        doc = Document("d", ("Ann", "she", "x"), ("Ann",))
        report = validate(doc, cs({"Ann": [(0, 0), (1, 1), (5, 5)], "Bob": []}, stage="initialized"))
        assert report.summary().splitlines() == [
            "2 error(s), 2 warning(s)",
            "E span-out-of-bounds at Ann:(5,5): span out of bounds for 3 tokens",
            "E unknown-character at Bob: cluster key 'Bob' not in document character index",
            "W pronoun-span at Ann:(1,1): explicit-mention stage holds a pronoun span",
            "W empty-cluster at Bob: cluster has no mentions",
        ]

    def test_duplicate_mention_within_cluster(self):
        raw = ClusterSet("d", "gold", {"Darcy": (Mention(1, 2), Mention(1, 2))})
        report = validate(DOC, raw)
        assert [f.code for f in report.errors] == ["duplicate-mention"]

    def test_unknown_character_key(self):
        report = validate(DOC, cs({"Wickham": [(0, 0)]}))
        assert [f.code for f in report.errors] == ["unknown-character"]

    def test_duplicate_mention_given_apart_is_reported(self):
        raw = ClusterSet("d", "gold", {"Darcy": (Mention(0, 0), Mention(5, 5), Mention(0, 0))})
        report = validate(DOC, raw)
        assert [(f.code, f.location) for f in report.errors] == [("duplicate-mention", "Darcy:(0,0)")]

    def test_prediction_stage_allows_anonymous_keys(self):
        report = validate(DOC, cs({0: [(0, 0)], 1: [(2, 2)]}, stage="prediction"))
        assert report.ok

    def test_empty_cluster_is_only_a_warning(self):
        report = validate(DOC, cs({"Darcy": []}))
        assert report.ok
        assert [f.code for f in report.warnings] == ["empty-cluster"]

    def test_pronoun_span_in_initialized_stage_is_only_a_warning(self):
        doc = Document("d", ("she", "met", "Darcy"), ("Darcy",))
        report = validate(doc, cs({"Darcy": [(0, 0), (2, 2)]}, stage="initialized"))
        assert report.ok
        assert [f.code for f in report.warnings] == ["pronoun-span"]
        # pronouns are expected in every other stage
        assert validate(doc, cs({"Darcy": [(0, 0), (2, 2)]})).warnings == ()

    def test_findings_deterministically_ordered(self):
        bad = cs({"Bingley": [(8, 11)], "Darcy": [(7, 12)]})
        a = validate(DOC, bad)
        b = validate(DOC, bad)
        assert a == b


#: token texts, some of them pronouns in another case
VALIDATE_TOKENS = ["she", "He", "IT", "thou", "Darcy", "met", "the"]
VALIDATE_KEYS = ["Darcy", "Bingley", "Wickham", "1", 0, 1, 7]


@st.composite
def validated_sets(draw):
    """A document and a cluster set built without ``build``'s checks, in any
    stage: clusters hold duplicates, spans that
    also sit in another cluster, spans that end past the document, pronoun
    spans, and no mentions at all; keys are characters, strangers and ints."""
    tokens = tuple(draw(st.lists(st.sampled_from(VALIDATE_TOKENS), min_size=1, max_size=8)))
    doc = Document("d", tokens, tuple(draw(st.lists(st.sampled_from(["Darcy", "Bingley"]), unique=True))))
    span = st.tuples(st.integers(0, len(tokens) + 1), st.integers(0, 2)).map(lambda t: Mention(t[0], t[0] + t[1]))
    shared = draw(st.lists(span, max_size=3))  # spans that several clusters may draw
    clusters = {}
    for key in draw(st.lists(st.sampled_from(VALIDATE_KEYS), unique=True, max_size=5)):
        ms = draw(st.lists(span | st.sampled_from(shared) if shared else span, max_size=6))
        if ms and draw(st.booleans()):
            ms.append(draw(st.sampled_from(ms)))  # a duplicate
        clusters[key] = tuple(ms)
    stage = draw(st.sampled_from(["initialized", "refined", "gold", "prediction"]))
    return doc, ClusterSet("d", stage, clusters)


@settings(max_examples=1000, deadline=None)
@given(validated_sets())
def test_validate_equals_reference(case):
    """``validate`` builds a location only for a finding it records; its
    findings (code, location, message and order) equal the reference's."""
    doc, x = case
    assert validate(doc, x) == validate_reference(doc, x)


class TestRestrict:
    def test_containment_filter(self):
        out = restrict(cs({"Darcy": [(5, 6), (80, 80)]}), 0, 50)
        assert out.clusters["Darcy"] == (Mention(5, 6),)

    def test_full_range_is_identity(self):
        x = cs({"Darcy": [(0, 1), (8, 9)], "Bingley": [(4, 4)]})
        assert restrict(x, 0, 10) == x

    def test_boundary_mention_needs_full_containment(self):
        out = restrict(cs({"Darcy": [(48, 52)]}), 0, 50)
        assert out.clusters["Darcy"] == ()

    def test_empty_clusters_retained(self):
        out = restrict(cs({"Darcy": [(5, 6)], "Bingley": [(9, 9)]}), 0, 8)
        assert set(out.clusters) == {"Darcy", "Bingley"}
        assert out.clusters["Bingley"] == ()

    def test_invalid_range(self):
        with pytest.raises(SpanRangeError):
            restrict(cs({"Darcy": [(0, 1)]}), 5, 2)
        with pytest.raises(SpanRangeError):
            restrict(cs({"Darcy": [(0, 1)]}), -1, 2)

    def test_stage_preserved(self):
        assert restrict(cs({"Darcy": [(0, 1)]}, stage="refined"), 0, 5).stage == "refined"


def scan(x, lo, hi):
    """The reference restriction: a linear scan of every mention."""
    return {k: tuple(m for m in ms if within(m, lo, hi)) for k, ms in x.clusters.items()}


SPANS = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6)), max_size=8)


@st.composite
def raw_cluster_sets(draw):
    """Sets built directly, bypassing ``build``: each cluster in drawn
    (unsorted) order, sorted, or sorted with duplicates; empty clusters and
    mixed str/int keys included."""
    clusters = {}
    for key in range(draw(st.integers(0, 4))):
        ms = [Mention(s, s + n) for s, n in draw(SPANS)]
        order = draw(st.sampled_from(("drawn", "sorted", "duplicated")))
        if order != "drawn":
            ms = sorted(ms + ms[:2] if order == "duplicated" else ms)
        clusters[key if key % 2 else f"c{key}"] = tuple(ms)
    return ClusterSet("d", "prediction", clusters)


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_indexed_restrict_equals_scan(data):
    """``restrict``, which bisects the sorted clusters and keeps no start
    index (the test's name is older than that), equals a scan, and leaves
    the set as it found it."""
    x = data.draw(raw_cluster_sets())
    fresh = ClusterSet(x.doc_id, x.stage, dict(x.clusters))
    shown = repr(x)
    # range ends on mention edges as well as anywhere; every lo also as [lo, lo)
    edges = [0, 50] + [v for _, m in x.mentions() for v in (m.start, m.end, m.end + 1)]
    point = st.one_of(st.sampled_from(edges), st.integers(0, 50))
    ranges = [tuple(sorted(p)) for p in data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=5))]
    ranges += [(lo, lo) for lo, _ in ranges]
    for lo, hi in ranges + ranges[::-1]:  # restrict keeps no state: calls in either order answer alike
        got = restrict(x, lo, hi)
        assert list(got.clusters.items()) == list(scan(x, lo, hi).items()), (lo, hi)
        assert all(type(ms) is tuple for ms in got.clusters.values())
        assert (got.doc_id, got.stage) == (x.doc_id, x.stage)
    assert restrict(x, 0, 50) == x
    assert repr(x) == shown
    assert x == fresh and repr(fresh) == shown


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_cut_equals_a_scan_per_range(data):
    """``cut`` over a plan equals a scan per range, and ``crossing_mentions``
    of its parts equals a scan for the mentions that no range holds. The
    ranges are drawn as consecutive pairs of sorted points, each kept or
    not: a kept pair next to a kept pair shares its edge, a dropped one
    leaves a gap, and equal points make empty ranges; edges fall on mention
    edges as well as anywhere, so mentions straddle edges, and mentions
    start past the last range."""
    x = data.draw(raw_cluster_sets())
    shown = repr(x)
    edges = [0, 50] + [v for _, m in x.mentions() for v in (m.start, m.end, m.end + 1)]
    point = st.one_of(st.sampled_from(edges), st.integers(0, 50))
    points = sorted(data.draw(st.lists(point, max_size=10)))
    pairs = list(zip(points, points[1:]))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    ranges = [pair for pair, kept in zip(pairs, keep) if kept]
    got = cut(x, ranges)
    assert [list(part.clusters.items()) for part in got] == [list(scan(x, lo, hi).items()) for lo, hi in ranges]
    assert all(type(ms) is tuple for part in got for ms in part.clusters.values())
    assert all((part.doc_id, part.stage) == (x.doc_id, x.stage) for part in got)
    assert crossing_mentions(x, got) == [
        (k, m) for k, m in x.mentions() if not any(within(m, lo, hi) for lo, hi in ranges)
    ]
    assert repr(x) == shown


class TestCut:
    X = cs(
        {"Darcy": [(0, 1), (2, 4), (3, 3), (3, 3), (4, 6), (9, 9), (12, 12)], "Bingley": [], "Jane": [(5, 5), (7, 8)]}
    )

    def test_gaps_adjacent_and_empty_ranges(self):
        parts = cut(self.X, [(0, 4), (4, 4), (4, 7), (8, 11)])
        assert [part.clusters for part in parts] == [
            {"Darcy": ((0, 1), (3, 3), (3, 3)), "Bingley": (), "Jane": ()},
            {"Darcy": (), "Bingley": (), "Jane": ()},
            {"Darcy": ((4, 6),), "Bingley": (), "Jane": ((5, 5),)},
            {"Darcy": ((9, 9),), "Bingley": (), "Jane": ()},
        ]
        # (2, 4) straddles an edge of two adjacent ranges, (7, 8) the end of
        # a gap, and (12, 12) lies past the last range
        assert parts == [restrict(self.X, lo, hi) for lo, hi in [(0, 4), (4, 4), (4, 7), (8, 11)]]

    def test_no_ranges(self):
        assert cut(self.X, []) == []

    @pytest.mark.parametrize(
        "ranges, message",
        [
            ([(-1, 2)], r"^invalid restriction range \[-1, 2\)$"),
            ([(0, 3), (5, 2)], r"^invalid restriction range \[5, 2\)$"),
            ([(3, 6), (0, 2)], r"^restriction range \[0, 2\) overlaps or precedes the range before it, which ends at 6$"),
            ([(0, 5), (4, 8)], r"^restriction range \[4, 8\) overlaps or precedes the range before it, which ends at 5$"),
        ],
    )
    def test_bad_ranges_are_named(self, ranges, message):
        with pytest.raises(SpanRangeError, match=message):
            cut(self.X, ranges)

    def test_restrict_error_text_is_unchanged(self):
        for lo, hi in [(5, 2), (-1, 2)]:
            with pytest.raises(SpanRangeError, match=rf"^invalid restriction range \[{lo}, {hi}\)$"):
                restrict(self.X, lo, hi)


def test_restrict_from_eight_threads_is_identical():
    """Eight threads restricting one set at once each get a scan's answer:
    ``restrict`` reads the shared sorted clusters and writes nothing back."""
    rng = random.Random(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside restrict's bisects too
    try:
        for trial in range(25):
            x = random_cluster_set(rng, n_tokens=400)
            if trial % 2:  # half the sets carry an unsorted cluster
                x = ClusterSet("d", "gold", {**x.clusters, "u": tuple(reversed(x.clusters["c0"]))})
            windows = [(lo, lo + 37) for lo in range(0, 400, 37)] + [(0, 400), (5, 5)]
            expected = [scan(x, lo, hi) for lo, hi in windows]
            barrier = threading.Barrier(8)

            def work():
                barrier.wait(timeout=30)  # all eight threads restrict the same set at once
                return [restrict(x, lo, hi).clusters for lo, hi in windows]

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [f.result(timeout=30) for f in [pool.submit(work) for _ in range(8)]]
            assert all(r == expected for r in results), trial
    finally:
        sys.setswitchinterval(interval)


def test_drop_empty_keeps_order_and_nonempty_clusters():
    x = ClusterSet("d", "gold", {"b": (Mention(1, 1),), "a": (), "c": (Mention(0, 0),)})
    assert list(drop_empty(x).clusters) == ["b", "c"]
    assert drop_empty(x).stage == "gold"


class TestUnion:
    def test_per_character_set_union(self):
        out = union(
            [cs({"Darcy": [(1, 1)]}), cs({"Darcy": [(9, 9)], "Jane": [(4, 5)]}, doc_id="d")]
        )
        assert out.clusters["Darcy"] == (Mention(1, 1), Mention(9, 9))
        assert out.clusters["Jane"] == (Mention(4, 5),)

    def test_single_part_identity(self):
        x = cs({"Darcy": [(1, 1), (3, 4)]})
        assert union([x]) == x

    def test_idempotent(self):
        x = cs({"Darcy": [(1, 1)], "Jane": [(2, 2)]})
        assert union([x, x, x]) == x

    def test_mixed_documents_rejected(self):
        with pytest.raises(CompositionError):
            union([cs({"a": [(0, 0)]}, doc_id="d1"), cs({"a": [(0, 0)]}, doc_id="d2")])

    def test_mixed_stages_rejected(self):
        with pytest.raises(CompositionError):
            union([cs({"a": [(0, 0)]}, stage="gold"), cs({"a": [(0, 0)]}, stage="refined")])

    def test_empty_list_rejected(self):
        with pytest.raises(CompositionError):
            union([])


def random_cluster_set(rng, n_tokens=40, stage="gold"):
    n_chars = rng.randint(1, 4)
    clusters = {}
    spans_taken = set()
    for c in range(n_chars):
        ms = []
        for _ in range(rng.randint(0, 6)):
            s = rng.randrange(n_tokens)
            e = min(n_tokens - 1, s + rng.randint(0, 3))
            if (s, e) in spans_taken:
                continue
            spans_taken.add((s, e))
            ms.append((s, e))
        clusters[f"c{c}"] = ms
    return ClusterSet.build("d", stage, clusters)


def test_partition_reassembly_property():
    """Splitting at any uncrossed point and unioning the parts is identity."""
    rng = random.Random(7)
    checked = 0
    for _ in range(1200):
        x = random_cluster_set(rng)
        k = rng.randrange(41)
        if any(m.start < k <= m.end for _, m in x.mentions()):
            continue  # crossing mentions are out of scope for the law
        reassembled = union([restrict(x, 0, k), restrict(x, k, 41)])
        assert reassembled == union([x]), (x, k)
        checked += 1
    assert checked > 800


@settings(max_examples=200)
@given(st.integers(0, 10_000))
def test_union_associative_commutative(seed):
    rng = random.Random(seed)
    a, b, c = (random_cluster_set(rng) for _ in range(3))
    ab_c = union([union([a, b]), c])
    a_bc = union([a, union([b, c])])
    cba = union([c, b, a])
    assert ab_c.clusters == a_bc.clusters == cba.clusters


def test_shift_roundtrip():
    x = cs({"Darcy": [(5, 6), (8, 9)]})
    assert shift(shift(x, -5), 5) == x


# --- the JSON cluster codec ---------------------------------------------------

#: Keys that print alike in pairs (1 and "1"), integer-like names that are
#: not an int's canonical text, and names that are not ASCII or that JSON escapes.
KEY_POOL = [-1, 0, 1, 10, "-1", "0", "1", "10", "01", "+1", "-0", "\u00b2", "\u0663", " 1", "", 'A"b', "\u00e9", "Ann"]


def dumps(obj):
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


class _EchoClient:
    """Answers ``/expand`` with the request's own seeds, through JSON."""

    base_url = "http://echo"

    def __init__(self):
        self.posts = 0

    def post(self, route, payload):
        self.posts += 1
        return {"clusters": json.loads(dumps(payload["seeds"]))}


@settings(max_examples=1000, deadline=None)
@given(st.booleans(), st.lists(st.sampled_from(KEY_POOL), max_size=5, unique=True), st.integers(0, 2**16))
def test_cluster_codec_round_trip(prediction, keys, seed):
    """Gold maps have string keys; prediction maps mix int and string keys."""
    rng = random.Random(seed)
    if not prediction:
        keys = list(dict.fromkeys(str(k) for k in keys))
    clusters = {k: [Mention(s, s + rng.randrange(3)) for s in rng.choices(range(30), k=rng.randrange(5))] for k in keys}
    key = prediction_key if prediction else None
    expander = HttpExpander(_EchoClient())
    request = ExpandRequest("d", 0, 40, ("t",) * 40, clusters)
    texts = {str(k) for k in keys}
    if len(texts) < len(keys):
        # the encoder raises exactly when two keys print alike, before any request
        with pytest.raises(SchemaError, match=r"^document 'd': cluster keys .* both print as "):
            clusters_to_json(clusters, SchemaError, "document 'd'")
        with pytest.raises(ContractError, match=r"^/expand: cluster keys .* both print as "):
            expander.expand(request)
        assert expander.client.posts == 0
        return
    text = dumps(clusters_to_json(clusters, SchemaError, "document 'd'"))
    back = clusters_from_json(json.loads(text), SchemaError, "line 1", key)
    # every key but a string prediction key that is an int's canonical text
    # reads back as itself, with its mentions sorted
    assert all(prediction_key(str(k)) == k for k in keys if isinstance(k, int))
    assert back == {k if key is None else key(str(k)): tuple(sorted(ms)) for k, ms in clusters.items()}
    assert all(type(m) is Mention for ms in back.values() for m in ms)
    # decode -> encode of what the encoder wrote is byte-identical
    again = dumps(clusters_to_json(back, SchemaError, "document 'd'"))
    reread = clusters_from_json(json.loads(again), SchemaError, "line 1", key)
    assert reread == back
    assert dumps(clusters_to_json(reread, SchemaError, "document 'd'")) == again
    if back == {k: tuple(ms) for k, ms in clusters.items()}:
        assert again == text
    # the expander maps each wire name back to the request's own key
    assert expander.expand(request) == {k: tuple(sorted(ms)) for k, ms in clusters.items()}


@pytest.mark.parametrize(
    "raw, error",
    [
        ([], r"^line 3: 'clusters' must be an object, got list$"),
        ({"A": {}}, r"^line 3: spans of 'A' must be an array$"),
        ({"A": [[0]]}, r"^line 3: span \[0\] of 'A' is a malformed span, not \[start, end\] integers$"),
        ({"A": [[0, True]]}, r"malformed span"),
        ({"A": [[0.0, 1]]}, r"malformed span"),
        ({"A": [(0, 1)]}, r"malformed span"),
        ({"A": [None]}, r"malformed span"),
    ],
)
def test_cluster_decoder_names_the_bad_part(raw, error):
    with pytest.raises(SchemaError, match=error):
        clusters_from_json(raw, SchemaError, "line 3")


def test_cluster_decoder_checks_span_range():
    with pytest.raises(SpanRangeError, match=r"invalid mention span \(2, 1\)"):
        clusters_from_json({"A": [[2, 1]]}, SchemaError, "line 1")


@pytest.mark.parametrize(
    "text", ["0,0", "0,2],[5,5", "5,5],[0,2],[0,2", "0,1],[" + str(10**30) + "," + str(10**30), "7,10],[0,0"]
)
def test_span_text_decoder_equals_the_json_codec(text):
    """Spans in the writers' canonical form read as ``clusters_from_json``
    reads the same array, sorted, duplicates kept, each a ``Mention``."""
    want = clusters_from_json({"A": json.loads("[[" + text + "]]")}, SchemaError, "line 1")["A"]
    got = mentions_from_text(text)
    assert got == want and all(type(m) is Mention for m in got)


@pytest.mark.parametrize(
    "text",
    ["", "-0,1", "-1,0", "01,2", "0,01", "1.0,2", "1e2,200", "0, 1", " 0,1", "1", "1,2,3", "2,1", "9" * 4301 + ",9",
     "[0,1", "0,[1]", '"0",1', "null,1", "0,1],[", "0,1]],[2,3", "\\u0030,1", "\\u0663,1", "٣,٣"],
)
def test_span_text_decoder_leaves_any_other_text_to_the_json_path(text):
    assert mentions_from_text(text) is None
