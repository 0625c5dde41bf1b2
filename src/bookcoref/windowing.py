"""Deterministic document partitioning: expansion windows, grouped windows,
and the independent-window corpus split used for medium-length evaluation.

Windows are consecutive, non-overlapping [lo, hi) token ranges covering the
whole document, each at most ``max_len`` tokens (default 1500). Without a
guard cluster set they are exact ``max_len`` chunks; with one, each boundary
moves left off the guard's mentions, so none of them is split. The pipeline
plans around its seed mentions; the corpus split and the evaluation
settings cut exact chunks. Groups join ``G`` consecutive windows (default
10); a plan of N windows yields ceil(N / G) groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import ConfigError, PlanningError, require_int
from .formats import CorpusFile, DocumentRecord
# restrict is not called here; it stays bound for perfbench/test_smoke.py,
# which checks that the tracer wraps it in every windowed module
from .model import ClusterSet, Document, Mention, crossing_mentions, cut, drop_empty, restrict, shift  # noqa: F401

DEFAULT_WINDOW_LEN = 1500
DEFAULT_GROUP_SIZE = 10


@dataclass(frozen=True, slots=True)
class WindowPlan:
    """An ordered partition of [0, n_tokens) into windows."""

    windows: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.windows)


@dataclass(frozen=True, slots=True)
class GroupedWindowPlan:
    """Groups of consecutive windows; group j spans windows
    G*(j-1)+1 .. min(G*j, N) in 1-based window numbering."""

    groups: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.groups)


def plan_windows(doc: Document, max_len: int = DEFAULT_WINDOW_LEN, guard: ClusterSet | None = None) -> WindowPlan:
    """Partition a document into windows of at most ``max_len`` tokens.

    Without a guard, cut exact max_len chunks with a final remainder. With
    one, each proposed boundary moves left to the largest position that is
    not interior to any guard mention (never below the previous boundary +
    1), so no guard mention is ever split; a plan that cuts no guard mention
    as exact chunks is left as it is. When no boundary is left, the error
    names the first guard mention, in :meth:`ClusterSet.mentions` order,
    that the boundary after the window's first token would split.

    Cost: the positions that no boundary may follow are gathered into one
    set, a cluster at a time: one list of ranges for its mentions of more
    than one token, added by one C-level ``set.update``. The mention to
    name is looked up only when planning fails.
    """
    require_int("max_len", max_len)
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")

    n = len(doc.tokens)
    # a boundary at p, after token p - 1, splits (s, e) iff s <= p - 1 < e:
    # the tokens that a boundary may not follow are range(s, e)
    no_cut_after: set[int] = set()
    if guard is not None:
        for ms in guard.clusters.values():
            no_cut_after.update(chain.from_iterable([range(s, e) for s, e in ms if s < e]))

    windows: list[tuple[int, int]] = []
    lo = 0
    while lo < n:
        hi = min(lo + max_len, n)
        while lo < hi < n and hi - 1 in no_cut_after:
            hi -= 1
        if hi == lo:
            m = next(m for _, m in guard.mentions() if m[0] <= lo < m[1])
            if m[1] - m[0] + 1 > max_len:
                raise PlanningError(f"guard mention ({m.start},{m.end}) is longer than max_len={max_len}")
            raise PlanningError(
                f"overlapping guard mentions (e.g. ({m.start},{m.end})) leave no valid "
                f"boundary in [{lo + 1}, {lo + max_len}]"
            )
        windows.append((lo, hi))
        lo = hi
    return WindowPlan(tuple(windows))


def plan_groups(plan: WindowPlan, group_size: int = DEFAULT_GROUP_SIZE) -> GroupedWindowPlan:
    """Join consecutive windows into ceil(N / G) covering groups."""
    require_int("group_size", group_size)
    if group_size < 1:
        raise ConfigError(f"group_size must be >= 1, got {group_size}")
    ws = plan.windows
    groups = [
        (ws[i][0], ws[min(i + group_size, len(ws)) - 1][1])
        for i in range(0, len(ws), group_size)
    ]
    return GroupedWindowPlan(tuple(groups))


def window_doc_id(doc_id: str, index: int) -> str:
    """Stand-alone id for window ``index`` (1-based) of a document."""
    return f"{doc_id}#w{index}"


@dataclass
class SplitResult:
    """Outcome of :func:`split_corpus`: the window corpus plus the mentions
    dropped because they straddled a window boundary."""

    corpus: CorpusFile
    crossings: list[tuple[str, str, object, Mention]] = field(default_factory=list)

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)


def split_corpus(corpus: CorpusFile, max_len: int = DEFAULT_WINDOW_LEN) -> SplitResult:
    """Cut every document into independent window-documents.

    Windows are exact ``max_len`` chunks; every attached cluster set is sliced at
    every window of the plan by one :func:`~bookcoref.model.cut` (full
    containment, O(C log M + M) per set), stripped of empty clusters and
    re-based to window-local coordinates. Mentions crossing a boundary are
    dropped from both sides and reported. The character list is inherited
    whole.
    """
    require_int("max_len", max_len)
    out = CorpusFile()
    crossings: list[tuple[str, str, object, Mention]] = []
    for rec in corpus.records:
        doc = rec.document
        plan = plan_windows(doc, max_len)
        # each set is cut once per plan; crossings and records share the parts
        parts = {name: cut(cs, plan.windows) for name, cs in rec.cluster_sets.items()}
        for name, cs in rec.cluster_sets.items():
            crossings += [(doc.doc_id, name, key, m) for key, m in crossing_mentions(cs, parts[name])]
        for i, (lo, hi) in enumerate(plan.windows, 1):
            meta = dict(doc.source or {})
            meta.update(
                {"origin_doc_id": doc.doc_id, "window_index": i, "window_start": lo, "window_end": hi}
            )
            wdoc = Document(window_doc_id(doc.doc_id, i), doc.tokens[lo:hi], doc.characters, meta)
            sets = {name: shift(drop_empty(parts[name][i - 1]), -lo).with_doc_id(wdoc.doc_id) for name in parts}
            out.records.append(DocumentRecord(wdoc, sets))
    return SplitResult(out, crossings)
