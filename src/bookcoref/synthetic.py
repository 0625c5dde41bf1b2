"""Deterministic generator for a gold-shaped benchmark stand-in.

The published gold benchmark is distributed externally; environments
without network access still need a corpus with the same measurable shape
to exercise the statistics, scorers and pipeline end to end. This module
builds one: three character-annotated "books" whose totals (tokens,
mentions, chains), per-document averages, micro-average pairwise mention
distance and exact-name-match precision/recall are calibrated to the
published figures.

Construction invariants (the tests and acceptance suite rely on these):

* every chain has at least two mentions (no singletons);
* mentions are pairwise disjoint with at least one filler token between
  them, and no mention straddles a 1500-token window boundary;
* a character's name token sequence occurs exactly at its explicit
  mentions and embedded inside its "extended" mentions (honorific-style
  maximal spans), and nowhere else, which pins exact-name matching to
  P ~ 95.6 / R ~ 18.9;
* generation is a pure function of the seed.

A seed whose corpus cannot be calibrated raises :class:`GeneratorError`.

Calibration places every book once per candidate interleaving factor
``alpha`` (23 passes at the default seed). What a pass reads but ``alpha``
does not change is built once per book, before the first pass: per mention,
in plan order, its chain id, that chain's centre, its anchor and its token
length; the plan indices chain by chain, each chain's by (anchor, index);
and the gaps between placed mentions, because the spare-token budget
depends only on the mentions' total length. Rounding is monotone, so no
chain's targets descend along its run at any ``alpha``: one pass sorts the
presorted chain runs by target (a merge of one run per chain), puts runs of
tied targets back in plan order, gathers lengths and chains in that order
with one ``itemgetter`` call each, and runs one placement loop. Passes deal
in plain index and start lists; only the placement calibration returns is
materialised as mentions and tokens.

A pass makes no builtin call per mention: targets are sorted unclamped
(clamping is monotone, and the clamped groups are found by bisection), the
placement loop reads the hoisted gaps, tests a window's end with one
remainder and tests overflow once, after the loop, and each chain's
distance is summed by :func:`~bookcoref.metrics.chain_distance` at C speed.
The float operations and their order are fixed, because the corpus of every
seed is pinned byte for byte.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, islice, pairwise
from operator import eq, itemgetter
from typing import Callable, Sequence

from .errors import GeneratorError
from .formats import CorpusFile, DocumentRecord
from .metrics import chain_distance, linking_prf
from .model import ClusterSet, Document, Mention, validate
from .pipeline import pattern_match
from .windowing import DEFAULT_WINDOW_LEN

DEFAULT_SEED = 13

#: Micro-average pairwise mention-start distance the corpus is calibrated to.
DISTANCE_TARGET = 34_880.0

#: Relative distance error the calibration aims for, and the one the
#: finished corpus must stay within.
_DISTANCE_AIM = 0.002
_DISTANCE_TOLERANCE = 0.005


@dataclass(frozen=True, slots=True)
class BookSpec:
    doc_id: str
    n_tokens: int
    n_chains: int
    n_mentions: int
    n_explicit: int  # gold mentions that spell the exact character name
    n_extended: int  # gold maximal spans with the name embedded inside


#: Three books shaped like the published gold split: totals of 229,257
#: tokens (76,419/doc), 23,532 mentions (7,844/doc) and 67 chains
#: (22.33/doc); 4,448 exact-name mentions and 205 extended spans give
#: exact-name matching P = 4448/4653 = 95.59 and R = 4448/23532 = 18.90.
BOOK_SPECS = (
    BookSpec("synthetic_fable", 36_504, 20, 3_900, 737, 34),
    BookSpec("synthetic_journey", 47_785, 9, 4_308, 814, 37),
    BookSpec("synthetic_manor", 144_968, 38, 15_324, 2_897, 134),
)

WINDOW = DEFAULT_WINDOW_LEN  # mentions are kept clear of multiples of this

_FILLER = (
    "the of and a to in that it was his with as had her for he at by on not "
    "be is all this from so they one were have which him she an or there what "
    "if would their when who will more no been its than then them we me my "
    "out up said very time only little like now some into could am are your "
    "our upon after before over under again most both any each few such own "
    "same too can just must while where why how never always often once here "
    "during between against about through down off above below other another "
    "things words house road garden river morning evening night day year long "
    "still light dark good great small last first next old new young many came "
    "come went gone look looked see seen saw know knew thought felt hand eyes "
    "face voice heart door room table chair window wall floor country town . , "
    "; ' laughed smiled walked turned stood sat spoke told asked answered "
    "replied cried called found left right near far away back again toward"
).split()

_PRONOUN_POOL = ("he", "she", "him", "her", "his", "hers", "they", "them", "i", "you")

_NP_POOL = (
    ("the", "gentleman"),
    ("the", "lady"),
    ("her", "friend"),
    ("his", "master"),
    ("the", "old", "man"),
    ("the", "young", "woman"),
    ("her", "companion"),
    ("his", "neighbour"),
    ("the", "visitor"),
    ("the", "stranger"),
)

_EXTENDED_PREFIXES = (("old",), ("young",), ("poor",), ("dear",), ("the", "good"))

_TITLES = ("Mr.", "Mrs.", "Miss", "Dr.", "Captain", "Lady", "Sir", "Colonel")

_SURNAME_HEADS = (
    "Var", "Tol", "Mar", "Ben", "Cro", "Fen", "Gal", "Har", "Irv", "Jas",
    "Kel", "Lor", "Mer", "Nor", "Oak", "Pem", "Quin", "Ros", "Sel", "Tre",
    "Ald", "Bram", "Cor", "Dun", "Elm", "Fair", "Grim", "Holt", "Ives", "Kirk",
)
_SURNAME_TAILS = (
    "ley", "ton", "wick", "bury", "field", "worth", "more", "den", "hart", "combe",
)

_FIRST_NAMES = (
    "Alric", "Berta", "Cedric", "Dora", "Edwin", "Flora", "Gideon", "Hattie",
    "Ivor", "Juna", "Kit", "Lyra", "Milo", "Nell", "Osric", "Prue", "Rafe",
    "Sibyl", "Tessa", "Ulric", "Vera", "Wilmot", "Yva", "Zede",
)


def _make_names(rng: random.Random, count: int) -> list[str]:
    """Unique character names; no name is a token subsequence of another."""
    surnames = [h + t for h in _SURNAME_HEADS for t in _SURNAME_TAILS]
    rng.shuffle(surnames)
    firsts = list(_FIRST_NAMES)
    rng.shuffle(firsts)
    names = []
    for i in range(count):
        surname = surnames[i]
        form = rng.random()
        if form < 0.35:
            names.append(surname)
        elif form < 0.80:
            names.append(f"{rng.choice(_TITLES)} {surname}")
        else:
            names.append(f"{firsts[i % len(firsts)]} {surname}")
    return names


def _chain_sizes(n_chains: int, n_mentions: int) -> list[int]:
    """Zipf-shaped chain sizes summing exactly to n_mentions, each >= 2."""
    weights = [1.0 / (i + 1) ** 0.85 for i in range(n_chains)]
    total = sum(weights)
    sizes = [max(2, int(n_mentions * w / total)) for w in weights]
    sizes[0] += n_mentions - sum(sizes)
    if sizes[0] < 2:
        raise GeneratorError("mention budget too small for the chain count")
    return sizes


def _spread_counts(total: int, sizes: list[int]) -> list[int]:
    """Split ``total`` across chains proportionally to size (largest remainder)."""
    grand = sum(sizes)
    raw = [total * s / grand for s in sizes]
    counts = [int(x) for x in raw]
    remainders = sorted(range(len(sizes)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in remainders[: total - sum(counts)]:
        counts[i] += 1
    return counts


@dataclass
class _PlannedMention:
    chain: int
    anchor: float  # relative position in [-0.5, 0.5] around the chain centre
    tokens: tuple[str, ...]
    kind: str  # explicit | extended | pronoun | np


def _plan_book(rng: random.Random, spec: BookSpec, names: list[str]) -> list[_PlannedMention]:
    sizes = _chain_sizes(spec.n_chains, spec.n_mentions)
    explicit = _spread_counts(spec.n_explicit, sizes)
    extended = _spread_counts(spec.n_extended, sizes)
    planned: list[_PlannedMention] = []
    for c, size in enumerate(sizes):
        name_toks = tuple(names[c].split())
        kinds = ["explicit"] * explicit[c] + ["extended"] * extended[c]
        while len(kinds) < size:
            kinds.append("pronoun" if rng.random() < 0.7 else "np")
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "explicit":
                toks = name_toks
            elif kind == "extended":
                toks = rng.choice(_EXTENDED_PREFIXES) + name_toks
            elif kind == "pronoun":
                toks = (rng.choice(_PRONOUN_POOL),)
            else:
                toks = rng.choice(_NP_POOL)
            planned.append(_PlannedMention(c, rng.uniform(-0.5, 0.5), toks, kind))
    return planned


@dataclass(frozen=True, slots=True)
class _ChainRuns:
    """What ordering one book's mentions reads but ``alpha`` does not change.

    ``centres[i]`` is the centre of plan mention ``i``'s chain and
    ``anchors[i]`` its offset from it. ``runs`` holds the plan indices chain
    by chain, each chain's by (anchor, index). Rounding is monotone, so no
    chain's targets descend along its run at any ``alpha``, and sorting
    ``runs`` by target merges one presorted run per chain.

    ``min_gap`` is the smallest gap between two unequal anchors of one
    chain: ``inf`` when there is none, and 0.0 when the plan does not list
    its mentions chain by chain in ascending chain order, which rules no tie
    out. ``max_anchor`` and ``max_centre`` bound the magnitudes the targets
    are rounded at.
    """

    centres: list[float]
    anchors: list[float]
    runs: list[int]
    min_gap: float
    max_anchor: float
    max_centre: float

    @classmethod
    def build(cls, chains: list[int], centres: list[float], anchors: list[float]) -> "_ChainRuns":
        """``chains[i]`` is plan mention ``i``'s chain, ``centres[c]`` the
        centre of chain ``c`` and ``anchors[i]`` the mention's anchor."""
        runs = sorted(range(len(chains)), key=lambda i: (chains[i], anchors[i]))
        if chains == sorted(chains):
            min_gap = min(
                (anchors[j] - anchors[i] for i, j in pairwise(runs) if chains[i] == chains[j] and anchors[j] > anchors[i]),
                default=math.inf,
            )
        else:
            min_gap = 0.0
        return cls(
            [centres[c] for c in chains],
            anchors,
            runs,
            min_gap,
            max(map(abs, anchors)),
            max(map(abs, centres)),
        )


def _order_mentions(book: _ChainRuns, alpha: float, n: int) -> list[int]:
    """Plan indices in book order, by each mention's chain-anchored target.

    ``alpha`` scales how far a mention may stray from its chain centre:
    small values give per-chain blocks, large values full interleaving.
    Targets clamp to ``[0, n]``; tied targets keep plan order, as in a
    stable sort of the plan indices by clamped target.

    Clamping is monotone, so sorting ``book.runs`` by the bare targets
    orders the clamped ones too, and only ties need work. The sort keeps
    tied targets in run order; each run of ties is put back in plan order:

    * the targets that clamp to 0 and to ``n`` tie. They are the first and
      the last, and two bisections find them;
    * unequal anchors of one chain give unequal targets once ``alpha * n``
      times their smallest gap outweighs the rounding of the two products
      and sums: at most ``2**-51 * (alpha * n * max_anchor + max_centre)``,
      and the pass asks for twice that, plus one. In a plan listed chain by
      chain, equal targets of two chains are already in plan order. Where
      the bound does not hold, or the plan is not listed chain by chain,
      every run of ties found between the two clamped groups is sorted by
      plan index.

    The bound pays for itself (ROADMAP.md's fast-path ledger, row
    ``synthetic._order_mentions``).
    """
    an = alpha * n  # exact: alpha * n * a is (alpha * n) * a; hoisting n * a instead rounds differently
    ts = [c + an * a for c, a in zip(book.centres, book.anchors)]
    target = ts.__getitem__
    order = sorted(book.runs, key=target)
    low = bisect_right(order, 0.0, key=target)
    high = bisect_left(order, float(n), lo=low, key=target)
    if low > 1:
        order[:low] = sorted(order[:low])
    if len(order) - high > 1:
        order[high:] = sorted(order[high:])
    if not an * book.min_gap > 2**-50 * (an * book.max_anchor + book.max_centre + 1.0):
        _sort_ties(order, ts, low, high)
    return order


def _sort_ties(order: list[int], ts: list[float], lo: int, hi: int) -> None:
    """Sort each run of equal targets ``ts`` in ``order[lo:hi]`` by plan
    index. It keeps the order exactly a stable sort, so it stays whatever
    its cost (ROADMAP.md's fast-path ledger, row ``synthetic._sort_ties``)."""
    placed = [ts[i] for i in order[lo:hi]]
    start = end = lo
    # each j whose target equals that of order[j - 1]
    for j in compress(range(lo + 1, hi), map(eq, placed, islice(placed, 1, None))):
        if j != end:  # a run of ties starts at j - 1
            order[start:end] = sorted(order[start:end])
            start = j - 1
        end = j + 1
    order[start:end] = sorted(order[start:end])


def _gather(order: list[int]) -> Callable[[Sequence], Sequence]:
    """A function that takes the items of a per-mention list in ``order``.

    One ``itemgetter`` call gathers a whole list. Given one index it returns
    the item, not a 1-tuple; the order of one mention is ``[0]``, and
    ``tuple`` gives that mention's 1-tuple.
    """
    return itemgetter(*order) if len(order) > 1 else tuple


def _gaps(spec: BookSpec, lengths: list[int], extras: list[float]) -> list[float]:
    """The gap before each placed mention, and one after the last: each
    ``extra`` is scaled to the spare-token budget. The budget depends only
    on the sum of ``lengths``, so the gaps are the same at every ``alpha``.

    The budget is what ``n`` tokens leave after the mentions, a mandatory
    one-token gap after each and headroom for the jumps to window
    boundaries.
    """
    n = spec.n_tokens
    headroom = 8 * (n // WINDOW + 1)
    budget = n - sum(lengths) - len(lengths) - headroom
    if budget <= 0:
        raise GeneratorError(f"{spec.doc_id}: token budget too small for its mentions")
    scale = budget / sum(extras)
    return [extra * scale for extra in extras]


def _place_book(spec: BookSpec, lengths: Sequence[int], gaps: list[float]) -> list[int]:
    """Lay mentions of ``lengths`` tokens out left to right, ``gaps`` (see
    :func:`_gaps`) apart; returns their starts, in the same order.

    Collision-free by construction: each mention starts after the previous
    one plus a mandatory one-token gap plus its gap. Starts that would
    straddle a window boundary jump to the boundary (the budget keeps
    headroom for those jumps). So the starts ascend strictly, and so do the
    ends: only the last mention can end past the book, and overflow is
    tested once, after the loop.

    The loop makes no builtin call per mention. A mention of ``length >= 1``
    tokens at offset ``r = s % WINDOW`` into its window crosses the window's
    end exactly when ``r + length > WINDOW``. The cursor only moves forward:
    without a jump ``s = int(cursor) <= cursor``, because the cursor is
    positive, and a jump puts ``s`` past it, so the cursor moves to ``s``
    only then.
    """
    starts: list[int] = []
    append = starts.append
    cursor = gaps[0]
    for length, gap in zip(lengths, islice(gaps, 1, None)):
        s = int(cursor)
        r = s % WINDOW
        if r + length > WINDOW:
            s += WINDOW - r
            cursor = float(s)
        append(s)
        cursor = cursor + length + 1 + gap  # not +=: the floats add left to right
    if s + length > spec.n_tokens:
        raise GeneratorError(f"placement overflow in {spec.doc_id}")
    return starts


def _pooled_distance(per_book_chains: list[Sequence[int]], per_book_positions: list[list[int]], n_chains: list[int]) -> float:
    """Micro-average pairwise start distance over every chain of every book.

    ``per_book_chains[b][j]`` is the chain of the mention placed at
    ``per_book_positions[b][j]``; starts ascend, so each chain's do too.
    """
    pairs = 0
    dist = 0
    for chains, placed, k in zip(per_book_chains, per_book_positions, n_chains):
        starts: list[list[int]] = [[] for _ in range(k)]
        for c, s in zip(chains, placed):
            starts[c].append(s)
        for positions in starts:
            p, d = chain_distance(positions)
            pairs += p
            dist += d
    return dist / pairs if pairs else 0.0


#: Per book, the plan indices in book order and their starts.
_Placement = list[tuple[list[int], list[int]]]


def _distance_error(distance: float) -> float:
    return abs(distance - DISTANCE_TARGET) / DISTANCE_TARGET


def _calibrate(place: Callable[[float], tuple[float, _Placement]]) -> _Placement:
    """Choose the global interleaving factor ``alpha`` so that the pooled
    micro-average pairwise distance hits the target; return that placement.

    ``place(alpha)`` returns the pooled distance and the placement. One
    pass costs, per book, one sort of its presorted chain runs by target,
    the repair of tied runs, one ``itemgetter`` gather and one placement
    loop. The per-mention chain centres, anchors, lengths and chain ids, the
    chain runs and the gaps are hoisted out of the pass, and only the
    placement returned here is materialised as mentions.

    First up to 24 multiplicative steps. Where the distance grows only
    slowly with ``alpha`` near the target, those steps shrink faster than
    the gap and stop short of it (seeds 0, 9 and 24 end 0.7-0.8% low). A
    result outside the tolerance then continues with a search: step
    ``alpha`` by a factor of 1.25 towards the target until the distance
    crosses it, then bisect. The search never runs for a seed the steps
    already calibrate, so those corpora (seed 13 among them) are unchanged.
    """
    alpha = 0.8
    for _ in range(24):
        tried = alpha
        got, placed = place(alpha)
        if _distance_error(got) < _DISTANCE_AIM:
            return placed
        alpha = min(max(alpha * (DISTANCE_TARGET / got) ** 0.9, 0.02), 4.0)
    if _distance_error(got) <= _DISTANCE_TOLERANCE:
        return placed

    def closeness(placement: tuple[float, _Placement]) -> float:
        return _distance_error(placement[0])

    low = got < DISTANCE_TARGET  # the side of the target ``near`` is on
    near = tried
    best = (got, placed)
    while True:  # ends at the clamp, if not before
        far = min(max(near * (1.25 if low else 0.8), 0.02), 4.0)
        if far == near:
            break
        got, placed = place(far)
        best = min(best, (got, placed), key=closeness)
        if (got < DISTANCE_TARGET) != low:
            break
        near = far
    if (got < DISTANCE_TARGET) == low:
        raise GeneratorError(
            f"distance calibration cannot reach {DISTANCE_TARGET:.0f}; closest {best[0]:.0f}"
        )
    for _ in range(30):
        if closeness(best) < _DISTANCE_AIM:
            break
        mid = (near + far) / 2
        got, placed = place(mid)
        best = min(best, (got, placed), key=closeness)
        if (got < DISTANCE_TARGET) == low:
            near = mid
        else:
            far = mid
    return best[1]


def _plan_and_place(rng: random.Random) -> list[tuple[list[str], list[_PlannedMention], tuple[list[int], list[int]]]]:
    """Per book of :data:`BOOK_SPECS`: its character names, its plan, and
    the calibrated placement, as the plan indices in book order and their
    starts. What the passes read is dropped on return, before the tokens of
    the corpus are made."""
    book_names = []
    book_plans = []
    # what a placement pass reads, hoisted out of it: the chain runs that
    # order a book; per mention, in plan order, its token length and its
    # chain; and the gaps
    hoisted = []
    for spec in BOOK_SPECS:
        names = _make_names(rng, spec.n_chains)
        planned = _plan_book(rng, spec, names)
        centres = [rng.uniform(0.10, 0.90) * spec.n_tokens for _ in range(spec.n_chains)]
        lengths = [len(pm.tokens) for pm in planned]
        gaps = _gaps(spec, lengths, [rng.expovariate(1.0) + 1e-6 for _ in range(len(planned) + 1)])
        book_names.append(names)
        book_plans.append(planned)
        chains = [pm.chain for pm in planned]
        book = _ChainRuns.build(chains, centres, [pm.anchor for pm in planned])
        hoisted.append((spec, book, lengths, chains, gaps))
    n_chains = [spec.n_chains for spec in BOOK_SPECS]

    def place(alpha: float) -> tuple[float, _Placement]:
        placement: _Placement = []
        placed_chains = []
        for spec, book, lengths, chains, gaps in hoisted:
            order = _order_mentions(book, alpha, spec.n_tokens)
            take = _gather(order)
            placement.append((order, _place_book(spec, take(lengths), gaps)))
            placed_chains.append(take(chains))
        return _pooled_distance(placed_chains, [starts for _, starts in placement], n_chains), placement

    return list(zip(book_names, book_plans, _calibrate(place)))


def make_reference_corpus(seed: int = DEFAULT_SEED) -> CorpusFile:
    """Build the calibrated three-book stand-in corpus."""
    corpus = CorpusFile()
    for spec, (names, plan, (order, starts)) in zip(BOOK_SPECS, _plan_and_place(random.Random(seed))):
        fill_rng = random.Random((seed, spec.doc_id).__repr__())
        tokens = fill_rng.choices(_FILLER, k=spec.n_tokens)
        clusters: dict[str, list[Mention]] = {name: [] for name in names}
        for i, s in zip(order, starts):
            pm = plan[i]
            tokens[s : s + len(pm.tokens)] = pm.tokens
            clusters[names[pm.chain]].append(Mention(s, s + len(pm.tokens) - 1))
        doc = Document(
            spec.doc_id,
            tuple(tokens),
            tuple(names),
            {"title": spec.doc_id.replace("_", " ").title(), "synthetic": True, "seed": seed},
        )
        gold = ClusterSet(spec.doc_id, "gold", clusters)
        report = validate(doc, gold)
        if not report.ok:
            raise GeneratorError(f"generator produced invalid gold for {spec.doc_id}: {report.summary()}")
        corpus.records.append(DocumentRecord(doc, {"gold": gold}))

    _self_check(corpus)
    return corpus


def _self_check(corpus: CorpusFile) -> None:
    """Cheap structural checks; tolerances well inside the acceptance ones."""
    from .metrics import corpus_stats

    stats = corpus_stats(corpus)
    shape = (stats.docs, stats.tokens, stats.mentions, stats.chains)
    want = (
        len(BOOK_SPECS),
        sum(s.n_tokens for s in BOOK_SPECS),
        sum(s.n_mentions for s in BOOK_SPECS),
        sum(s.n_chains for s in BOOK_SPECS),
    )
    if shape != want:
        raise GeneratorError(f"corpus shape (docs, tokens, mentions, chains) is {shape}, expected {want}")
    if _distance_error(stats.mention_distance) > _DISTANCE_TOLERANCE:
        raise GeneratorError(
            f"distance calibration failed: {stats.mention_distance:.0f} vs "
            f"{DISTANCE_TARGET:.0f} +/- {_DISTANCE_TOLERANCE:.1%}"
        )
    tp = fp = 0
    for rec in corpus.records:
        match = pattern_match(rec.document)
        prf = linking_prf(rec.cluster_sets["gold"], match)
        tp += prf.p_num
        fp += prf.p_den - prf.p_num
    precision = tp / (tp + fp)
    recall = tp / stats.mentions
    if abs(precision * 100 - 95.6) > 0.5 or abs(recall * 100 - 18.9) > 0.5:
        raise GeneratorError(f"name-match calibration failed: P={precision:.4f} R={recall:.4f}")
