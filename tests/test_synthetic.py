import hashlib
import math
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bookcoref import synthetic
from bookcoref.cli import main
from bookcoref.errors import GeneratorError
from bookcoref.formats import read_jsonl
from bookcoref.metrics import corpus_stats
from bookcoref.model import validate
from bookcoref.synthetic import BOOK_SPECS, DISTANCE_TARGET, WINDOW, BookSpec, _PlannedMention, make_reference_corpus
from helpers import jsonl_text
from oracles import order_mentions_reference, place_book_reference, pooled_distance_reference

#: sha256 of the default-seed corpus as JSONL; the benchmark and the
#: acceptance suite are measured on exactly this corpus.
SEED_13_SHA256 = "8f6a253c31f7cdde8757fff6b4638c0f8976f6c43d402ce02ad33956b70a6a35"
#: The same for seed 9, which the bracketing search calibrates, and seed 99,
#: which the multiplicative steps do.
SEED_9_SHA256 = "93bd2bf94059fdf70932f400e3c43681aadc5fbec1fdf1235c762bef6e4e16c0"
SEED_99_SHA256 = "237c6b065a4f062a1f4cdafc9b8173b9f33b8dd4215d563bda80cd6ac724d1a7"


def test_same_seed_is_bit_identical(gold_corpus):
    again = make_reference_corpus()
    assert jsonl_text(again) == jsonl_text(gold_corpus)


def test_default_corpus_is_pinned(gold_corpus):
    assert hashlib.sha256(jsonl_text(gold_corpus).encode()).hexdigest() == SEED_13_SHA256


def test_seed_9_calibrates(tmp_path, capsys):
    """The multiplicative steps stop 0.7% short of the distance target at
    seed 9; the bracketing search has to finish the calibration."""
    out = tmp_path / "seed9.jsonl"
    assert main(["--seed", "9", "synth", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SEED_9_SHA256
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
    assert hashlib.sha256(jsonl_text(other).encode()).hexdigest() == SEED_99_SHA256
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


@st.composite
def planned_books(draw):
    """One book's plan with the edge cases of a placement pass drawn often:
    equal chain centres, targets that clamp to 0 and to ``n`` (so they tie),
    anchors one ulp apart (in half the plans; in the other half, ties of two
    chains inside the book), mentions long enough to straddle a window
    boundary, a first mention on either side of a window's end, and budgets
    too small for the mentions. Half the plans list their mentions chain by
    chain, as ``_plan_book`` does, and half in any chain sequence. A seeded
    ``Random`` draws the sizes and fills the per-mention lists; Hypothesis
    would favour tiny books. ``--hypothesis-show-statistics`` shows how often
    each case comes up."""
    k = draw(st.integers(1, 6))
    longest = draw(st.sampled_from([1, 4, 40]))
    by_chain = draw(st.booleans())
    ulp_share = draw(st.sampled_from([0.0, 0.3]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(60, 3 * WINDOW + 100)
    m = rng.randint(1, n // 12)

    def pick(edges, lo, hi):
        return rng.choice(edges) if rng.random() < 0.3 else rng.uniform(lo, hi)

    centres = [pick((0.0, n / 2, float(n)), 0.0, float(n)) for _ in range(k)]
    chains = [rng.randrange(k) for _ in range(m)]
    if by_chain:
        chains.sort()
    anchors = [pick((-0.5, 0.0, 0.5), -0.5, 0.5)]
    for _ in range(m - 1):
        # an anchor one ulp from the last: targets that tie or not depending
        # on how the product alpha * n * anchor is rounded
        near = math.nextafter(anchors[-1], rng.choice((-1.0, 1.0)))
        anchors.append(near if rng.random() < ulp_share else pick((-0.5, 0.0, 0.5), -0.5, 0.5))
    lengths = [rng.randint(1, longest) for _ in range(m)]
    extras = [rng.expovariate(1.0) + 1e-6 for _ in range(m + 1)]
    if rng.random() < 0.3:
        # the first mention placed, whatever its index, ends on the first
        # window's last token (edge 0) or would cross its end by one token
        # (edge 1): all mentions get one length, and the first gap puts the
        # cursor half a token past that start
        edge = rng.choice((0, 1))
        length = rng.randint(1 + edge, max(longest, 1 + edge))
        lengths = [length] * m
        budget = n - m * (length + 1) - 8 * (n // WINDOW + 1)
        cursor = WINDOW - length + edge + 0.5
        if budget > cursor:
            extras[0] = cursor * sum(extras[1:]) / (budget - cursor)
    return BookSpec("book", n, k, m, 0, 0), chains, centres, anchors, lengths, extras


def unjumped_ends(spec, lengths, extras, starts):
    """Per placed mention, ``r + length`` for the offset ``r`` into its window
    of the start it had before any jump: ``WINDOW`` for a mention that ends on
    the window's last token, ``WINDOW + 1`` for one that would cross its end
    by one token and so jumps. Replays the cursor of ``place_book_reference``
    from the placed ``starts``."""
    n = spec.n_tokens
    scale = (n - sum(lengths) - len(lengths) - 8 * (n // WINDOW + 1)) / sum(extras)
    cursor = extras[0] * scale
    ends = []
    for length, extra, s in zip(lengths, extras[1:], starts):
        ends.append(int(cursor) % WINDOW + length)
        cursor = max(cursor, float(s)) + length + 1 + extra * scale
    return ends


def tie_repairs(book, alpha, n, order):
    """Where the pass's order differs from the sort of ``book.runs`` alone,
    so that a run of tied targets had to be put back in plan order: among
    the targets clamped to 0, among those clamped to ``n``, or inside."""
    an = alpha * n
    ts = [min(max(c + an * a, 0.0), float(n)) for c, a in zip(book.centres, book.anchors)]
    unrepaired = sorted(book.runs, key=ts.__getitem__)
    return {
        "clamped to 0" if ts[i] == 0.0 else "clamped to n" if ts[i] == n else "inside the book"
        for i, j in zip(order, unrepaired)
        if i != j
    }


@settings(max_examples=1000, deadline=None)
@given(st.lists(planned_books(), min_size=1, max_size=3), st.sampled_from([0.02, 4.0]) | st.floats(0.02, 4.0))
def test_placement_pass_equals_reference(books, alpha):
    """Order, starts and pooled distance over the chain runs, the gaps and
    the gathered per-mention lists equal the earlier pass over
    ``_PlannedMention`` objects, bit for bit. In about 55% of the cases a
    book's targets clamped to 0 needed their tie repair, in about 55% those
    clamped to ``n``, and in about 40% a run of ties inside the book."""
    reference, placed_chains, placed_starts = [], [], []
    for spec, chains, centres, anchors, lengths, extras in books:
        n = spec.n_tokens
        plan = [_PlannedMention(c, a, ("x",) * ln, "np") for c, a, ln in zip(chains, anchors, lengths)]
        ordered = order_mentions_reference(plan, centres, alpha, n)
        book = synthetic._ChainRuns.build(chains, centres, anchors)
        order = synthetic._order_mentions(book, alpha, n)
        assert [id(plan[i]) for i in order] == [id(pm) for pm in ordered]
        for group in sorted(tie_repairs(book, alpha, n, order)):
            event(f"tied targets {group} needed their repair")
        targets = [centres[c] + alpha * n * a for c, a in zip(chains, anchors)]
        if any(t <= 0.0 for t in targets) and any(t >= n for t in targets):
            event("targets clamp at both ends")
        take = synthetic._gather(order)
        try:
            placed = place_book_reference(spec, ordered, extras)
        except GeneratorError as e:
            event("budget too small" if "budget" in str(e) else "placement overflow")
            with pytest.raises(GeneratorError) as raised:
                synthetic._place_book(spec, take(lengths), synthetic._gaps(spec, lengths, extras))
            assert str(raised.value) == str(e)
            return
        starts = synthetic._place_book(spec, take(lengths), synthetic._gaps(spec, lengths, extras))
        assert starts == [s for s, _ in placed]
        if any(s % WINDOW == 0 and s for s in starts):
            event("a start jumped to a window boundary")
        ends = unjumped_ends(spec, take(lengths), extras, starts)
        if WINDOW in ends:
            event("a mention ends on a window's last token")
        if WINDOW + 1 in ends:
            event("a mention would cross a window's end by one token")
        reference.append(placed)
        placed_chains.append(take(chains))
        placed_starts.append(starts)
    n_chains = [spec.n_chains for spec, *_ in books]
    assert synthetic._pooled_distance(placed_chains, placed_starts, n_chains) == pooled_distance_reference(
        reference, n_chains
    )
