"""Deterministic document partitioning: expansion windows, grouped windows,
and the independent-window corpus split used for medium-length evaluation.

Windows are consecutive, non-overlapping [lo, hi) token ranges covering the
whole document, each at most ``max_len`` tokens (default 1500). Groups join
``G`` consecutive windows (default 10); a plan of N windows yields
ceil(N / G) groups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ConfigError, PlanningError
from .formats import CorpusFile, DocumentRecord
# restrict is not called here; it stays bound for perfbench/test_smoke.py,
# which checks that the tracer wraps it in every windowed module
from .model import ClusterSet, Document, Mention, cut, drop_empty, restrict, shift  # noqa: F401

DEFAULT_WINDOW_LEN = 1500
DEFAULT_GROUP_SIZE = 10

BOUNDARY_RULES = ("strict", "mention_safe")


@dataclass(frozen=True, slots=True)
class WindowPlan:
    """An ordered partition of [0, n_tokens) into windows."""

    doc_id: str
    windows: tuple[tuple[int, int], ...]
    max_len: int
    boundary_rule: str

    def __len__(self) -> int:
        return len(self.windows)

    def to_json(self) -> str:
        return json.dumps(
            {
                "doc_id": self.doc_id,
                "max_len": self.max_len,
                "boundary_rule": self.boundary_rule,
                "windows": [list(w) for w in self.windows],
            },
            separators=(",", ":"),
        )


@dataclass(frozen=True, slots=True)
class GroupedWindowPlan:
    """Groups of consecutive windows; group j spans windows
    G*(j-1)+1 .. min(G*j, N) in 1-based window numbering."""

    plan: WindowPlan
    group_size: int
    groups: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.groups)

    def to_json(self) -> str:
        return json.dumps(
            {
                "doc_id": self.plan.doc_id,
                "max_len": self.plan.max_len,
                "boundary_rule": self.plan.boundary_rule,
                "group_size": self.group_size,
                "windows": [list(w) for w in self.plan.windows],
                "groups": [list(g) for g in self.groups],
            },
            separators=(",", ":"),
        )


def plan_windows(
    doc: Document,
    max_len: int = DEFAULT_WINDOW_LEN,
    boundary_rule: str = "strict",
    guard: ClusterSet | None = None,
) -> WindowPlan:
    """Partition a document into windows of at most ``max_len`` tokens.

    ``strict`` cuts exact max_len chunks with a final remainder. Under
    ``mention_safe`` each proposed boundary moves left to the largest
    position that is not interior to any guard mention (never below the
    previous boundary + 1), so no guard mention is ever split.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if boundary_rule not in BOUNDARY_RULES:
        raise ConfigError(f"unknown boundary rule {boundary_rule!r}")
    if boundary_rule == "mention_safe" and guard is None:
        raise ConfigError("mention_safe planning requires a guard cluster set")

    n = len(doc.tokens)
    forbidden: dict[int, Mention] = {}
    if boundary_rule == "mention_safe":
        assert guard is not None
        for _, m in guard.mentions():
            # a boundary at p splits (s, e) iff s < p <= e
            for p in range(m.start + 1, m.end + 1):
                forbidden.setdefault(p, m)

    windows: list[tuple[int, int]] = []
    lo = 0
    while lo < n:
        hi = min(lo + max_len, n)
        if boundary_rule == "mention_safe" and hi < n:
            while hi > lo and hi in forbidden:
                hi -= 1
            if hi == lo:
                m = forbidden[lo + 1]
                if len(m) > max_len:
                    raise PlanningError(
                        f"guard mention ({m.start},{m.end}) is longer than max_len={max_len}"
                    )
                raise PlanningError(
                    f"overlapping guard mentions (e.g. ({m.start},{m.end})) leave no valid "
                    f"boundary in [{lo + 1}, {lo + max_len}]"
                )
        windows.append((lo, hi))
        lo = hi
    return WindowPlan(doc.doc_id, tuple(windows), max_len, boundary_rule)


def plan_groups(plan: WindowPlan, group_size: int = DEFAULT_GROUP_SIZE) -> GroupedWindowPlan:
    """Join consecutive windows into ceil(N / G) covering groups."""
    if group_size < 1:
        raise ConfigError(f"group_size must be >= 1, got {group_size}")
    ws = plan.windows
    groups = [
        (ws[i][0], ws[min(i + group_size, len(ws)) - 1][1])
        for i in range(0, len(ws), group_size)
    ]
    return GroupedWindowPlan(plan, group_size, tuple(groups))


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

    Windows use strict boundaries; every attached cluster set is sliced at
    every window of the plan by one :func:`~bookcoref.model.cut` (full
    containment, O(C log M + M) per set), stripped of empty clusters and
    re-based to window-local coordinates. Mentions crossing a boundary are
    dropped from both sides and reported. The character list is inherited
    whole.
    """
    out = CorpusFile()
    crossings: list[tuple[str, str, object, Mention]] = []
    for rec in corpus.records:
        doc = rec.document
        plan = plan_windows(doc, max_len, "strict")
        # each set is cut once per plan; crossings and records share the parts
        parts = {name: cut(cs, plan.windows) for name, cs in rec.cluster_sets.items()}
        for name, cs in rec.cluster_sets.items():
            if sum(part.n_mentions for part in parts[name]) != cs.n_mentions:
                contained = {m for part in parts[name] for _, m in part.mentions()}
                for key, m in cs.mentions():
                    if m not in contained:
                        crossings.append((doc.doc_id, name, key, m))
        for i, (lo, hi) in enumerate(plan.windows, 1):
            meta = dict(doc.source or {})
            meta.update(
                {"origin_doc_id": doc.doc_id, "window_index": i, "window_start": lo, "window_end": hi}
            )
            wdoc = Document(window_doc_id(doc.doc_id, i), doc.tokens[lo:hi], doc.characters, meta)
            sets = {name: shift(drop_empty(parts[name][i - 1]), -lo).with_doc_id(wdoc.doc_id) for name in parts}
            out.records.append(DocumentRecord(wdoc, sets))
    return SplitResult(out, crossings)


def covers(ranges: Iterable[tuple[int, int]], n: int) -> bool:
    """True if the ranges are contiguous, non-overlapping and cover [0, n)."""
    pos = 0
    for lo, hi in ranges:
        if lo != pos or hi < lo:
            return False
        pos = hi
    return pos == n
