"""Three-stage annotation pipeline: seed character clusters from explicit
mentions, filter them with a yes/no judge, then complete them window by
window and again over grouped windows, merging everything by per-character
union.

The neural annotators live behind three pluggable interfaces (:class:`Linker`,
:class:`Judge`, :class:`Expander`); this module ships deterministic reference
implementations (exact name matching, accept/reject judges, identity and
gold-oracle components) and :mod:`bookcoref.remote` provides HTTP-backed ones.

Hard contracts, enforced with errors rather than silent repair:

* linkers may only return spans in bounds and keys from the document's
  character index;
* expanders take and return book offsets, must preserve every seed mention
  (clusters only grow), stay inside their window, and may introduce mentions
  only for keys present in the seed map (empty-seeded keys included, so
  characters unseen in a window can be recovered at group level). Only the
  window-local ``/expand`` wire re-bases, in :class:`bookcoref.remote.HttpExpander`.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from concurrent.futures import CancelledError, Executor, Future, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence, TypeVar

from .errors import ConfigError, ContractError, PlanningError, StageError, TransportError
from .model import (
    PRONOUNS,
    ClusterKey,
    ClusterSet,
    Document,
    Mention,
    crossing_mentions,
    cut,
    restrict,
    union,
)
from .windowing import DEFAULT_GROUP_SIZE, DEFAULT_WINDOW_LEN, GroupedWindowPlan, WindowPlan, plan_groups, plan_windows

#: Verbatim refinement prompt; the excerpt highlights the mention with [ ].
PROMPT_TEMPLATE = (
    "I will give you an excerpt from a book with a highlighted mention of a "
    "character with []. You will need to answer if the assigned character is "
    "correct (Yes), or not (No).\n"
    "\n"
    "Book excerpt: {book}\n"
    "\n"
    "Does the mention [{mention}] correspond to the character {character}? (Yes/No)"
)

DEFAULT_CONTEXT_WORDS = 400


@dataclass(frozen=True, slots=True)
class JudgeRequest:
    """One mention-validation question for the judge: the document, the
    mention, the character it is assigned to and the excerpt size.

    ``prompt`` is rendered by :func:`build_prompt` on each read, so a judge
    that never reads it (the oracle, accept/reject) builds no prompt, and a
    judge that reads it twice builds it twice. Neither the repr nor the
    hash reads the document (its ``source`` may hold unhashable metadata).
    """

    doc: Document = field(repr=False, hash=False)
    mention: Mention
    character: str
    context_words: int = DEFAULT_CONTEXT_WORDS

    @property
    def doc_id(self) -> str:
        return self.doc.doc_id

    @property
    def prompt(self) -> str:
        return build_prompt(self.doc, self.mention, self.character, self.context_words)


@dataclass(frozen=True, slots=True)
class ExpandRequest:
    """One window (or grouped window) ``[lo, hi)`` of a book: ``tokens`` is
    its text, so ``tokens[i]`` is book token ``lo + i``; ``seeds`` and the
    expander's reply are in book offsets."""

    doc_id: str
    lo: int
    hi: int
    tokens: tuple[str, ...]
    seeds: Mapping[ClusterKey, tuple[Mention, ...]]


class Linker(Protocol):
    name: str

    def link(self, doc: Document) -> ClusterSet: ...


class Judge(Protocol):
    """Answers one yes/no question per mention. Reading ``request.prompt``
    renders the prompt each time; a judge that needs it twice keeps it."""

    name: str

    def judge(self, request: JudgeRequest) -> bool: ...


class Expander(Protocol):
    """Completes one window's seed clusters, in book offsets (see :class:`ExpandRequest`)."""

    name: str

    def expand(self, request: ExpandRequest) -> Mapping[ClusterKey, Iterable[Mention]]: ...


ALL_STAGES = ("init", "refine", "window", "group")


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline constants; defaults mirror the published procedure
    (1500-token windows, groups of 10, 400 context words). Windows are
    planned around the seed mentions that enter the window stage (see
    :func:`~bookcoref.windowing.plan_windows`), so no seed is cut.

    ``jobs`` is the size of the thread pool that :func:`run` hands to the
    refine stage (one judge call per mention) and to each expansion pass
    (one expander call per window or group). Verdicts, expansions and trace
    records are kept in the serial order whatever order the calls complete
    in, so results do not depend on ``jobs``; with ``jobs=1`` every call
    runs on the calling thread. Failed component calls are not retried
    here: retrying is the HTTP client's job (``ServiceClient(retries=...)``).
    """

    window_len: int = DEFAULT_WINDOW_LEN
    group_size: int = DEFAULT_GROUP_SIZE
    judge_context_words: int = DEFAULT_CONTEXT_WORDS
    stages: tuple[str, ...] = ("init", "refine", "window", "group")
    jobs: int = 1
    endpoints: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        if self.window_len < 1 or self.group_size < 1 or self.judge_context_words < 1:
            raise ConfigError("window_len, group_size and judge_context_words must be positive")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        unknown = set(self.stages) - set(ALL_STAGES)
        if unknown:
            raise ConfigError(f"unknown pipeline stages {sorted(unknown)}")
        if "init" not in self.stages:
            raise ConfigError("the init stage cannot be disabled")
        if "group" in self.stages and "window" not in self.stages:
            raise ConfigError("the group stage requires the window stage")

    def config_hash(self) -> str:
        payload = {
            "window_len": self.window_len,
            "group_size": self.group_size,
            "judge_context_words": self.judge_context_words,
            # windows are always planned around the seeds; the key stays so the
            # payload bytes, and with them the hash that every trace carries
            # (pinned by the seed-13 trace digest), keep their value
            "boundary_rule": "mention_safe",
            "stages": list(self.stages),
            "endpoints": dict(self.endpoints or {}),
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class PipelineTrace:
    """Replayable record of one pipeline run."""

    doc_id: str
    config_hash: str
    components: dict[str, str] = field(default_factory=dict)
    #: what varies from run to run: each stage's seconds
    timings: dict[str, float] = field(default_factory=dict)
    snapshots: dict[str, ClusterSet] = field(default_factory=dict)
    judge_verdicts: list[tuple[ClusterKey, Mention, bool]] = field(default_factory=list)
    window_records: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "config_hash": self.config_hash,
            "components": self.components,
            "timings": self.timings,
            "mention_counts": {name: cs.n_mentions for name, cs in self.snapshots.items()},
            "judge_verdicts": [
                [str(k), [m.start, m.end], v] for k, m, v in self.judge_verdicts
            ],
            "window_records": self.window_records,
            "warnings": self.warnings,
        }


def build_prompt(
    doc: Document,
    mention: Mention,
    character: str,
    context_words: int = DEFAULT_CONTEXT_WORDS,
) -> str:
    """Instantiate the refinement prompt for one mention.

    The excerpt carries ``context_words`` surrounding tokens, split evenly
    before and after the mention and clamped at document bounds; the mention
    itself is bracketed in the excerpt.
    """
    if mention.end >= len(doc.tokens):
        raise ContractError(f"mention ({mention.start},{mention.end}) out of bounds")
    half = context_words // 2
    before = doc.tokens[max(0, mention.start - half) : mention.start]
    after = doc.tokens[mention.end + 1 : mention.end + 1 + half]
    text = doc.text(mention)
    excerpt = " ".join(before)
    excerpt += (" [" if excerpt else "[") + text + "]"
    if after:
        excerpt += " " + " ".join(after)
    return PROMPT_TEMPLATE.format(book=excerpt, mention=text, character=character)


def pattern_match(doc: Document) -> ClusterSet:
    """Reference linker: case-sensitive exact token-sequence match of each
    full character name (whitespace-tokenized). Overlapping matches of the
    same character keep the leftmost; overlapping matches of different
    characters are all kept. Only the tokens that begin a name are indexed."""
    names = [tuple(name.split()) for name in doc.characters]
    starts: dict[str, list[int]] = {toks[0]: [] for toks in names if toks}
    for i, tok in enumerate(doc.tokens):
        if tok in starts:
            starts[tok].append(i)
    clusters: dict[ClusterKey, list[Mention]] = {}
    for name, name_toks in zip(doc.characters, names):
        length = len(name_toks)
        kept: list[Mention] = []
        last_end = -1
        for i in starts[name_toks[0]]:
            if tuple(doc.tokens[i : i + length]) == name_toks and i > last_end:
                kept.append(Mention(i, i + length - 1))
                last_end = i + length - 1
        clusters[name] = kept
    return ClusterSet(doc.doc_id, "initialized", clusters)


class PatternMatchLinker:
    name = "pattern"

    def link(self, doc: Document) -> ClusterSet:
        return pattern_match(doc)


class AcceptAllJudge:
    name = "accept-all"

    def judge(self, request: JudgeRequest) -> bool:
        return True


class RejectAllJudge:
    name = "reject-all"

    def judge(self, request: JudgeRequest) -> bool:
        return False


class IdentityExpander:
    name = "identity"

    def expand(self, request: ExpandRequest) -> Mapping[ClusterKey, Iterable[Mention]]:
        return request.seeds


def explicit_mentions(doc: Document, cs: ClusterSet) -> ClusterSet:
    """Drop single-token pronoun spans, keeping explicit mentions only."""
    kept = {
        key: tuple(
            m
            for m in ms
            if not (m.start == m.end and doc.tokens[m.start].lower() in PRONOUNS)
        )
        for key, ms in cs.clusters.items()
    }
    return ClusterSet(cs.doc_id, cs.stage, kept)


class OracleLinker:
    """Gold-derived linker: returns the gold clusters minus pronoun spans."""

    name = "oracle"

    def __init__(self, gold: ClusterSet):
        self._gold = gold

    def link(self, doc: Document) -> ClusterSet:
        return explicit_mentions(doc, self._gold).with_stage("initialized")


class OracleJudge:
    """Gold-derived judge: accepts exactly the (span, character) pairs
    present in gold."""

    name = "oracle"

    def __init__(self, gold: ClusterSet):
        self._pairs = gold.pairs()

    def judge(self, request: JudgeRequest) -> bool:
        return (request.mention, request.character) in self._pairs


class OracleExpander:
    """Gold-derived expander: returns gold restricted to the window,
    regardless of seeds (a perfect window-local annotator)."""

    name = "oracle"

    def __init__(self, gold: ClusterSet):
        self._gold = gold

    def expand(self, request: ExpandRequest) -> Mapping[ClusterKey, Iterable[Mention]]:
        window = restrict(self._gold, request.lo, request.hi).clusters
        return {key: window.get(key, ()) for key in request.seeds}


def initialize(
    doc: Document,
    linker: Linker,
    trace: PipelineTrace | None = None,
) -> ClusterSet:
    """Run the linker and validate its output into stage "initialized".

    Unknown character keys, out-of-bounds spans and a span placed in two
    clusters are contract errors; single-token pronoun spans are kept but
    recorded as warnings (linkers are supposed to return explicit mentions
    only).
    """
    out = linker.link(doc)
    n = len(doc.tokens)
    known = set(doc.characters)
    for key in out.clusters:
        if key not in known:
            raise ContractError(f"linker returned unknown character {key!r}")
    owner: dict[Mention, ClusterKey] = {}
    for key, m in out.mentions():
        if m.end >= n:
            raise ContractError(f"linker span ({m.start},{m.end}) out of bounds for {key!r}")
        if owner.setdefault(m, key) != key:
            raise ContractError(f"linker placed span ({m.start},{m.end}) in clusters {owner[m]!r} and {key!r}")
        if m.start == m.end and doc.tokens[m.start].lower() in PRONOUNS:
            msg = f"linker returned pronoun span ({m.start},{m.end}) {doc.tokens[m.start]!r} for {key!r}"
            if trace is not None:
                trace.warnings.append(msg)
    return ClusterSet(doc.doc_id, "initialized", dict(out.clusters))


_T = TypeVar("_T")
_R = TypeVar("_R")


def _map_in_order(fn: Callable[[_T], _R], items: Sequence[_T], pool: Executor | None) -> list[_R]:
    """``[fn(item) for item in items]``, with the calls run on ``pool``.

    Results come back in input order whatever order the calls finish in.
    Once a call fails no further call of this batch starts, so a failing
    component sees at most the calls already in flight; the batch's queued
    calls are cancelled, its running ones are waited for, and the failure
    earliest in input order is raised. Without a pool every call runs on the
    calling thread.
    """
    if pool is None:
        return [fn(item) for item in items]
    failed = threading.Event()

    def guarded(item: _T) -> _R:
        if failed.is_set():
            raise CancelledError()
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    futures: list[Future[_R]] = []
    try:
        for item in items:
            futures.append(pool.submit(guarded, item))
        # the work queue is FIFO, so every call skipped or cancelled after a
        # failure comes later in input order: reading in order meets it first
        return [f.result() for f in futures]
    finally:
        failed.set()
        for f in futures:
            f.cancel()
        wait(futures)


def refine(
    doc: Document,
    cs: ClusterSet,
    judge: Judge,
    context_words: int = DEFAULT_CONTEXT_WORDS,
    trace: PipelineTrace | None = None,
    *,
    executor: Executor | None = None,
) -> ClusterSet:
    """Keep each mention iff the judge accepts its prompt.

    Each judge call gets a :class:`JudgeRequest`; its prompt is built only
    when the judge reads ``request.prompt`` (once per read). A mention past
    the end of the document is a contract error whatever the judge.

    Characters whose clusters empty out keep their (empty) entries. The
    judge calls run on ``executor`` if one is given, else on the calling
    thread; verdicts are recorded in sorted key order, then span order,
    whatever order the calls finish in. A judge transport failure is not
    retried (the HTTP client has its own retries): it surfaces as a stage
    error naming the first failing mention in that order.
    """
    if cs.stage != "initialized":
        raise StageError(f"refine expects stage 'initialized', got {cs.stage!r}")
    n_tokens = len(doc.tokens)

    def verdict(item: tuple[ClusterKey, Mention]) -> bool:
        key, m = item
        if m.end >= n_tokens:
            raise ContractError(f"mention ({m.start},{m.end}) out of bounds")
        try:
            return judge.judge(JudgeRequest(doc, m, str(key), context_words))
        except TransportError as e:
            raise StageError(f"judge failed for mention ({m.start},{m.end}) of {key!r}: {e}") from e

    items = [(key, m) for key in cs.sorted_keys() for m in cs.clusters[key]]
    verdicts = _map_in_order(verdict, items, executor)
    kept: dict[ClusterKey, list[Mention]] = {key: [] for key in cs.clusters}
    for (key, m), accepted in zip(items, verdicts):
        if trace is not None:
            trace.judge_verdicts.append((key, m, accepted))
        if accepted:
            kept[key].append(m)
    # judge in sorted order, store in the input's key order
    return ClusterSet(cs.doc_id, "refined", {k: tuple(v) for k, v in kept.items()})


def _expand_window(
    doc: Document,
    seeds: ClusterSet,
    lo: int,
    hi: int,
    expander: Expander,
    target_stage: str,
) -> tuple[ClusterSet, int]:
    """Expand one range from its seeds (the set cut to the range); returns
    the expanded part and its seed count."""
    raw = expander.expand(ExpandRequest(doc.doc_id, lo, hi, doc.tokens[lo:hi], seeds.clusters))
    span_owner: dict[Mention, ClusterKey] = {}
    out: dict[ClusterKey, tuple[Mention, ...]] = dict.fromkeys(seeds.clusters, ())
    for key, mentions in raw.items():
        if key not in out:
            raise ContractError(f"expander emitted unknown cluster key {key!r} in window [{lo},{hi})")
        ms = set(mentions)
        for m in ms:
            if not (lo <= m.start and m.end < hi):
                raise ContractError(
                    f"expander span ({m.start},{m.end}) outside window [{lo},{hi}) for {key!r}"
                )
            if span_owner.setdefault(m, key) != key:
                raise ContractError(
                    f"expander placed span ({m.start},{m.end}) in clusters "
                    f"{span_owner[m]!r} and {key!r} in window [{lo},{hi})"
                )
        out[key] = tuple(sorted(ms))
    for key, seed_ms in seeds.clusters.items():
        for m in seed_ms:
            if span_owner.get(m) != key:
                raise ContractError(
                    f"expander dropped seed mention ({m.start},{m.end}) of {key!r} in window [{lo},{hi})"
                )
    return ClusterSet(seeds.doc_id, target_stage, out), seeds.n_mentions


def expand_pass(
    doc: Document,
    cs: ClusterSet,
    plan: WindowPlan | GroupedWindowPlan,
    expander: Expander,
    trace: PipelineTrace | None = None,
    *,
    executor: Executor | None = None,
) -> ClusterSet:
    """One expansion sweep: cut the set at every plan range, expand each
    range from its seeds, verify the contracts, and union across ranges. The
    set is sliced once, on the calling thread, by
    :func:`~bookcoref.model.cut` (O(C log M + M) for C clusters and M
    mentions); the expander calls run on ``executor`` if one is given, else
    on the calling thread; component errors pass through unretried.

    A window plan advances refined -> window_expanded; a grouped plan
    advances window_expanded -> final.
    """
    if isinstance(plan, GroupedWindowPlan):
        ranges = plan.groups
        expected, target = "window_expanded", "final"
        label = "group"
    else:
        ranges = plan.windows
        expected, target = "refined", "window_expanded"
        label = "window"
    if cs.stage != expected:
        raise StageError(f"{label} expansion expects stage {expected!r}, got {cs.stage!r}")
    parts = cut(cs, ranges)
    # refuse plans that would silently lose boundary-crossing mentions
    crossing = crossing_mentions(cs, parts)
    if crossing:
        key, m = crossing[0]
        raise PlanningError(
            f"mention ({m.start},{m.end}) of {key!r} crosses a {label} boundary; "
            f"plan the windows with this cluster set as guard"
        )
    results = _map_in_order(
        lambda item: _expand_window(doc, item[1], *item[0], expander, target), list(zip(ranges, parts)), executor
    )

    if trace is not None:
        for rng, (part, seeds) in zip(ranges, results):
            trace.window_records.append(
                {"kind": label, "range": list(rng), "seeds": seeds, "expanded": part.n_mentions}
            )
    return union([part for part, _ in results])


def run(
    doc: Document,
    config: PipelineConfig,
    linker: Linker,
    judge: Judge,
    expander: Expander,
    *,
    executor: Executor | None = None,
) -> tuple[ClusterSet, PipelineTrace]:
    """Full pipeline: initialize -> refine -> window expansion -> grouped
    expansion, with stages beyond init optional via ``config.stages``.

    Disabled stages advance the stage tag without calling their component,
    so ablation runs stay within the legal stage chain. The run's stages
    share one pool, so each worker keeps one connection to a remote
    component: ``executor`` if one is given (the caller owns it and may
    share it across documents), else, with ``jobs > 1``, a pool of ``jobs``
    threads opened and shut down by this run.
    """
    trace = PipelineTrace(doc.doc_id, config.config_hash())
    trace.components = {
        "linker": getattr(linker, "name", type(linker).__name__),
        "judge": getattr(judge, "name", type(judge).__name__),
        "expander": getattr(expander, "name", type(expander).__name__),
    }

    own_pool = executor is None and config.jobs > 1
    with ThreadPoolExecutor(max_workers=config.jobs) if own_pool else nullcontext(executor) as pool:
        marks = [time.perf_counter()]

        def record(stage: str, snapshot: str, cs: ClusterSet) -> ClusterSet:
            # a stage's time runs from the end of the one before
            marks.append(time.perf_counter())
            trace.timings[stage] = marks[-1] - marks[-2]
            trace.snapshots[snapshot] = cs
            return cs

        cs = record("init", "initialized", initialize(doc, linker, trace))
        if "refine" in config.stages:
            cs = record("refine", "refined", refine(doc, cs, judge, config.judge_context_words, trace, executor=pool))
        elif "window" in config.stages:
            # stage tag still advances so the window-expansion gate holds
            cs = cs.advanced()

        if "window" in config.stages:
            plan = plan_windows(doc, config.window_len, guard=cs)
            cs = record("window", "window_expanded", expand_pass(doc, cs, plan, expander, trace, executor=pool))
            if "group" in config.stages:
                grouped = plan_groups(plan, config.group_size)
                cs = record("group", "final", expand_pass(doc, cs, grouped, expander, trace, executor=pool))

    return cs, trace
