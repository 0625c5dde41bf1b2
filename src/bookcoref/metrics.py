"""Coreference scorers (MUC, B3, CEAF-phi4, CoNLL-F1), character-linking
P/R/F1, and corpus statistics.

Scoring conventions follow the standard shared-task reference scorer:

* MUC: link-based Vilain counting; mentions absent from the other side
  partition as implicit singletons.
* B3: per-mention overlap ratios; a mention unknown to the other side
  contributes a zero-overlap term to that side's mean.
* CEAF-phi4: phi4(K, R) = 2|K & R| / (|K| + |R|) under a globally optimal
  one-to-one cluster alignment, not a greedy one, from
  :func:`linear_sum_assignment`: a pure-Python port of the shortest
  augmenting path solver (Crouse, 2016) that SciPy ships, which returns
  SciPy's pairs exactly, so the package has no runtime dependencies.

All three are functions of one key x response overlap table, the cluster
sizes plus intersection counts (Pradhan et al., 2014; Luo, 2005), which
:func:`conll` builds once per unit. Every scorer keeps its
numerator/denominator pairs so corpus-level results can pool counts across
documents before dividing (micro); per-document macro means are computed
separately. All scorers are pure functions and are sized for chains with
tens of thousands of mentions: counting is O(total mentions), never O(pairs).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from operator import mul, neg
from typing import Callable, Hashable, Iterable, Sequence

from .errors import ContractError
from .formats import CorpusFile
from .model import ClusterSet

Clustering = Iterable[Iterable[Hashable]]


def pct(x: float) -> float:
    """Fraction -> percentage with one decimal, round-half-up."""
    return float(Decimal(str(x * 100.0)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True, slots=True)
class PRF:
    """Precision/recall/F1 in [0, 1] plus the counts they came from."""

    precision: float
    recall: float
    f1: float
    p_num: float = 0.0
    p_den: float = 0.0
    r_num: float = 0.0
    r_den: float = 0.0

    @classmethod
    def from_counts(cls, p_num: float, p_den: float, r_num: float, r_den: float) -> "PRF":
        p = p_num / p_den if p_den > 0 else 0.0
        r = r_num / r_den if r_den > 0 else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(p, r, f1, p_num, p_den, r_num, r_den)

    def as_percentages(self) -> tuple[float, float, float]:
        return pct(self.precision), pct(self.recall), pct(self.f1)

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "counts": [self.p_num, self.p_den, self.r_num, self.r_den],
        }


def _norm(clustering: Clustering | ClusterSet) -> list[frozenset]:
    """The clusters as sets, empty ones dropped: an empty cluster is no entity."""
    if isinstance(clustering, ClusterSet):
        return clustering.partition()
    return [frozenset(c) for c in clustering if c]


_Rows = list[tuple[int, Counter]]


def _rows(clusters: list[frozenset], other: list[frozenset]) -> _Rows:
    """One side of the overlap table: per cluster, its size and a Counter of
    other-side cluster index -> mentions the two share. A mention the other
    side lacks is not counted; one in several of its clusters counts toward
    the last. Each side is counted from its own clusters rather than
    transposed from the other, so that rule holds for both."""
    owner = {m: j for j, cluster in enumerate(other) for m in cluster}
    rows = []
    for cluster in clusters:
        counts = Counter(map(owner.get, cluster))
        counts.pop(None, None)
        rows.append((len(cluster), counts))
    return rows


def _overlaps(key: list[frozenset], response: list[frozenset]) -> tuple[_Rows, _Rows]:
    """The key x response overlap table: (recall rows, precision rows)."""
    return _rows(key, response), _rows(response, key)


def _prf(side: Callable[[_Rows], tuple], recall: _Rows, precision: _Rows) -> PRF:
    return PRF.from_counts(*side(precision), *side(recall))


def _muc_links(rows: _Rows) -> tuple[int, int]:
    # a cluster of n mentions spread over p other-side clusters, u of its
    # mentions unknown there, keeps n - u - p of its n - 1 links
    return sum(sum(c.values()) - len(c) for _, c in rows), sum(n - 1 for n, _ in rows)


def _b3_overlap(rows: _Rows) -> tuple[float, int]:
    num = 0.0
    for n, counts in rows:
        # each of the c mentions shared with one other-side cluster sees
        # an intersection of size c, hence the c*c terms
        num += sum(c * c for c in counts.values()) / n
    return num, sum(n for n, _ in rows)


def linear_sum_assignment(cost: Sequence[Sequence[float]], maximize: bool = False) -> tuple[list[int], list[int]]:
    """An optimal one-to-one assignment of the rows of a dense ``cost`` table
    to its columns: ``(rows, cols)``, sorted by row, that minimize (or with
    ``maximize``, maximize) the sum of ``cost[rows[k]][cols[k]]``.

    A pure-Python port of the shortest augmenting path method of Crouse
    (2016, "On implementing 2D rectangular assignment algorithms", IEEE
    TAES), as SciPy's ``linear_sum_assignment`` implements it: the same
    reduced costs computed in the same order and the same tie-breaking, so
    it returns SciPy's pairs exactly, ties included. A table with more rows
    than columns is solved transposed; one augmenting path is found per row.
    The whole dense table is solved, as SciPy does: solving each connected
    part of the sparse overlap graph on its own adds the costs in another
    order, which was seen to move a CEAF-phi4 total by one ulp.
    """
    table = [list(map(neg, row)) if maximize else list(row) for row in cost]
    transpose = bool(table) and len(table[0]) < len(table)
    if transpose:
        table = [list(col) for col in zip(*table)]
    nr, nc = len(table), len(table[0]) if table else 0
    if not nr or not nc:
        return [], []
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # filled in reverse, so a constant table gets the identity assignment
        remaining = list(range(nc - 1, -1, -1))
        costs = [inf] * nc  # shortest path cost to each column
        rows_seen = []
        cols_seen = []
        min_val = 0.0
        i = cur
        while True:
            row, ui = table[i], u[i]
            lowest, index = inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                c = costs[j]
                if r < c:
                    path[j] = i
                    costs[j] = c = r
                # among equal costs prefer a column that ends the path
                if c < lowest or (c == lowest and row4col[j] < 0):
                    lowest, index = c, it
            if lowest == inf:
                raise ValueError("cost matrix is infeasible")
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows_seen.append(i)
        # update the dual variables, then augment along the path to sink j
        u[cur] += min_val
        for i in rows_seen:
            u[i] += min_val - costs[col4row[i]]
        for k in cols_seen:
            v[k] -= min_val - costs[k]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[c] for c in cols], cols
    return list(range(nr)), col4row


def _ceaf_phi4(recall: _Rows, precision: _Rows) -> PRF:
    if not recall or not precision:
        return PRF.from_counts(0.0, len(precision), 0.0, len(recall))
    sims = [[0.0] * len(precision) for _ in recall]
    for row, (n, counts) in zip(sims, recall):
        for j, c in counts.items():
            row[j] = 2.0 * c / (n + precision[j][0])
    key_idx, resp_idx = linear_sum_assignment(sims, maximize=True)
    total = float(sum(sims[i][j] for i, j in zip(key_idx, resp_idx)))
    return PRF.from_counts(total, len(precision), total, len(recall))


def muc(key: Clustering | ClusterSet, response: Clustering | ClusterSet) -> PRF:
    """Vilain et al. link-based metric."""
    return _prf(_muc_links, *_overlaps(_norm(key), _norm(response)))


def b_cubed(key: Clustering | ClusterSet, response: Clustering | ClusterSet) -> PRF:
    """Bagga & Baldwin mention-based metric."""
    return _prf(_b3_overlap, *_overlaps(_norm(key), _norm(response)))


def ceaf_phi4(key: Clustering | ClusterSet, response: Clustering | ClusterSet) -> PRF:
    """Luo's entity-alignment metric with the phi4 similarity."""
    return _ceaf_phi4(*_overlaps(_norm(key), _norm(response)))


@dataclass(frozen=True, slots=True)
class ScoreReport:
    """The three coreference metrics for one scoring unit, plus their mean.
    Character linking is scored apart, by :func:`linking_prf`."""

    muc: PRF
    b3: PRF
    ceaf: PRF
    conll_f1: float

    def to_dict(self) -> dict:
        return {
            "muc": self.muc.to_dict(),
            "b3": self.b3.to_dict(),
            "ceaf_phi4": self.ceaf.to_dict(),
            "conll_f1": self.conll_f1,
        }

    def row(self) -> str:
        return (
            f"{pct(self.muc.f1):5.1f} {pct(self.b3.f1):5.1f} "
            f"{pct(self.ceaf.f1):5.1f} {pct(self.conll_f1):5.1f}"
        )


def _prepare(clustering: Clustering | ClusterSet, drop_singletons: bool) -> list[frozenset]:
    parts = _norm(clustering)
    if drop_singletons:
        parts = [c for c in parts if len(c) > 1]
    return parts


def conll(
    key: Clustering | ClusterSet,
    response: Clustering | ClusterSet,
    drop_singletons: bool = True,
) -> ScoreReport:
    """Score all three metrics; CoNLL-F1 is exactly their arithmetic mean.
    Character linking is not part of the report (see :func:`linking_prf`).

    Empty clusters are always dropped before scoring; singletons are dropped
    by default (the gold data has none, and the established scorer setup on
    singleton-free keys ignores predicted singletons).
    """
    recall, precision = _overlaps(_prepare(key, drop_singletons), _prepare(response, drop_singletons))
    m = _prf(_muc_links, recall, precision)
    b = _prf(_b3_overlap, recall, precision)
    c = _ceaf_phi4(recall, precision)
    return ScoreReport(m, b, c, (m.f1 + b.f1 + c.f1) / 3.0)


def pool_prf(prfs: Sequence[PRF]) -> PRF:
    """Micro pooling: sum numerators/denominators across units, then divide.

    Uses exactly-rounded summation so pooling is bit-for-bit invariant
    under unit reordering.
    """
    return PRF.from_counts(
        math.fsum(x.p_num for x in prfs),
        math.fsum(x.p_den for x in prfs),
        math.fsum(x.r_num for x in prfs),
        math.fsum(x.r_den for x in prfs),
    )


def pool_reports(reports: Sequence[ScoreReport]) -> ScoreReport:
    """Micro pooling of every metric of the units' reports (:func:`pool_prf`)."""
    m = pool_prf([r.muc for r in reports])
    b = pool_prf([r.b3 for r in reports])
    c = pool_prf([r.ceaf for r in reports])
    return ScoreReport(m, b, c, (m.f1 + b.f1 + c.f1) / 3.0)


def macro_reports(reports: Sequence[ScoreReport]) -> ScoreReport:
    """Macro averaging: plain means of per-unit P/R/F1 (counts not carried)."""

    def mean(xs: Sequence[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    def avg(prfs: Sequence[PRF]) -> PRF:
        return PRF(
            mean([x.precision for x in prfs]),
            mean([x.recall for x in prfs]),
            mean([x.f1 for x in prfs]),
        )

    m = avg([r.muc for r in reports])
    b = avg([r.b3 for r in reports])
    c = avg([r.ceaf for r in reports])
    return ScoreReport(m, b, c, mean([r.conll_f1 for r in reports]))


def linking_prf(key: ClusterSet, response: ClusterSet) -> PRF:
    """Character-linking score over (span, character) pairs.

    A predicted pair is a true positive iff the identical pair (exact span,
    same character) exists in the key. Both sets must be character-keyed.
    """
    if any(not isinstance(k, str) for k in response.clusters):
        raise ContractError("linking requires character-keyed response clusters, got anonymous keys")
    if any(not isinstance(k, str) for k in key.clusters):
        raise ContractError("linking requires character-keyed key clusters, got anonymous keys")
    # counted per character, which equals counting the (span, key) pairs
    # without building a tuple per pair
    key_ms = key.clusters
    tp = sum(len(set(ms).intersection(key_ms[k])) for k, ms in response.clusters.items() if k in key_ms)
    n_response = sum(len(set(ms)) for ms in response.clusters.values())
    n_key = sum(len(set(ms)) for ms in key_ms.values())
    return PRF.from_counts(tp, n_response, tp, n_key)


def chain_distance(positions: Sequence[int]) -> tuple[int, int]:
    """Pair count and summed pairwise distance for one chain.

    ``positions`` are mention start offsets sorted ascending. Computes
    sum_{i<j}(p_j - p_i) in O(k) via prefix weighting: the i-th smallest of
    k positions is subtracted k - 1 - i times and added i times, so it is
    weighted 2i + 1 - k. The sum is exact integer arithmetic, bit-identical
    to the quadratic double loop. Fewer than two positions yield (0, 0).
    """
    k = len(positions)
    if k < 2:
        return (0, 0)
    return (k * (k - 1) // 2, sum(map(mul, positions, range(1 - k, k, 2))))


@dataclass(frozen=True, slots=True)
class CorpusStats:
    """Corpus totals and averages in the shape of the benchmark table.

    ``mentions_per_chain`` pools mentions and chains over the whole corpus
    before dividing (micro); ``mentions_per_chain_macro`` averages the
    per-document ratios. ``mention_distance`` is the micro-average pairwise
    token distance between same-chain mention starts.
    """

    docs: int
    tokens: int
    mentions: int
    chains: int
    tokens_per_doc: float
    mentions_per_doc: float
    chains_per_doc: float
    mentions_per_chain: float
    mentions_per_chain_macro: float
    mention_distance: float
    mention_pairs: int

    def to_dict(self) -> dict:
        return {
            "docs": self.docs,
            "tokens": self.tokens,
            "mentions": self.mentions,
            "chains": self.chains,
            "tokens_per_doc": self.tokens_per_doc,
            "mentions_per_doc": self.mentions_per_doc,
            "chains_per_doc": self.chains_per_doc,
            "mentions_per_chain": self.mentions_per_chain,
            "mentions_per_chain_macro": self.mentions_per_chain_macro,
            "mention_distance": self.mention_distance,
            "mention_pairs": self.mention_pairs,
        }

    def to_table(self) -> str:
        head = (
            "Docs", "Tok.", "Ment.", "Tok./Doc", "Ment./Doc",
            "Chains/Doc", "Ment./Chain", "Ment./Chain(doc)", "Ment. Dist.",
        )
        row = (
            f"{self.docs}",
            f"{self.tokens}",
            f"{self.mentions}",
            f"{self.tokens_per_doc:.0f}",
            f"{self.mentions_per_doc:.0f}",
            f"{self.chains_per_doc:.1f}",
            f"{self.mentions_per_chain:.1f}",
            f"{self.mentions_per_chain_macro:.1f}",
            f"{self.mention_distance:.0f}",
        )
        widths = [max(len(h), len(v)) for h, v in zip(head, row)]
        return (
            "  ".join(h.rjust(w) for h, w in zip(head, widths))
            + "\n"
            + "  ".join(v.rjust(w) for v, w in zip(row, widths))
        )


def corpus_stats(corpus: CorpusFile) -> CorpusStats:
    """Totals, per-document means, and micro-averaged chain statistics, from
    each record's :meth:`~bookcoref.formats.DocumentRecord.pick` of ``gold``.
    A record with no cluster set counts its document and tokens only."""
    docs = len(corpus.records)
    tokens = 0
    mentions = 0
    chains = 0
    pair_count = 0
    dist_sum = 0
    per_doc_ratio: list[float] = []
    for rec in corpus.records:
        tokens += len(rec.document.tokens)
        if not rec.cluster_sets:
            continue
        cs = rec.pick("gold")
        doc_mentions = 0
        doc_chains = 0
        for _, ms in cs.clusters.items():
            if not ms:
                continue
            doc_chains += 1
            doc_mentions += len(ms)
            pairs, dist = chain_distance([m.start for m in ms])
            pair_count += pairs
            dist_sum += dist
        mentions += doc_mentions
        chains += doc_chains
        if doc_chains:
            per_doc_ratio.append(doc_mentions / doc_chains)
    return CorpusStats(
        docs=docs,
        tokens=tokens,
        mentions=mentions,
        chains=chains,
        tokens_per_doc=tokens / docs if docs else 0.0,
        mentions_per_doc=mentions / docs if docs else 0.0,
        chains_per_doc=chains / docs if docs else 0.0,
        mentions_per_chain=mentions / chains if chains else 0.0,
        mentions_per_chain_macro=sum(per_doc_ratio) / len(per_doc_ratio) if per_doc_ratio else 0.0,
        mention_distance=dist_sum / pair_count if pair_count else 0.0,
        mention_pairs=pair_count,
    )
