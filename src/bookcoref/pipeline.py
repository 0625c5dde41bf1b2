"""Three-stage annotation pipeline: seed character clusters from explicit
mentions, filter them with a yes/no judge, then complete them window by
window and again over grouped windows, merging everything by per-character
union.

The neural annotators live behind three pluggable interfaces (:class:`Linker`,
:class:`Judge`, :class:`Expander`); this module ships deterministic reference
implementations (exact name matching, accept/reject judges, identity and
gold-oracle components) and :mod:`bookcoref.remote` provides HTTP-backed ones.

Hard contracts, enforced with errors rather than silent repair:

* a linker returns a :class:`ClusterSet` and an expander a mapping, and
  their clusters pass one check, :func:`_checked_reply`: every key is known
  (a character of the document, or a seed key of the window, empty-seeded
  keys included, so characters unseen in a window can be recovered at group
  level), every cluster is an iterable of spans and every span a valid
  mention (two ``int``s with ``0 <= start <= end``, tested by
  :func:`~bookcoref.model.sorted_mentions`, the gate of every
  :class:`ClusterSet`), every span lies in the document or the window, and
  no span is in two clusters. Keys are read in sorted key order and each
  cluster's distinct spans in ``(start, end)`` order, and the first offence
  in that order is named, whatever order the reply uses; a cluster that is
  not iterable or a span that is not a mention has no such order, so within
  its cluster it is named first, the first in the reply's own order. A span
  listed twice in one cluster is kept once;
* a judge returns a ``bool`` for each mention; any other verdict, even one
  that reads as true or false, is a :class:`ContractError` naming it, the
  mention and its key;
* expanders take and return book offsets and must keep every seed mention
  (clusters only grow); the first dropped seed in the same order is named.
  Only the window-local ``/expand`` wire re-bases, in
  :class:`bookcoref.remote.HttpExpander`.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections.abc import Callable, Container, Iterable, Mapping, Sequence
from concurrent.futures import CancelledError, Executor, Future, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import itemgetter, lt
from types import MappingProxyType
from typing import Protocol, TypeVar

from .errors import ConfigError, ContractError, PlanningError, SpanRangeError, StageError, TransportError, require_int
from .model import (
    PRONOUNS,
    ClusterKey,
    ClusterSet,
    Document,
    Mention,
    _end,
    _key_order,
    _new_tuple,
    _sorted_set,
    crossing_mentions,
    cut,
    restrict,
    sorted_mentions,
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


class JudgeRequest(tuple):
    """One mention-validation question for the judge: the document, the
    mention, the character it is assigned to and the excerpt size.

    ``prompt`` is rendered by :func:`build_prompt` on each read, so a judge
    that never reads it (the oracle, accept/reject) builds no prompt, and a
    judge that reads it twice builds it twice. Neither the repr nor the
    hash reads the document (its ``source`` may hold unhashable metadata).

    A request is the tuple ``(doc, mention, character, context_words)``
    behind read-only properties, so it is immutable; two requests are equal
    when their fields are, and a request equals nothing else. Its hash is
    that of the tuple without the document.

    Cost: :func:`refine` builds one request per mention with a single
    ``tuple.__new__``, a C-level call, where a frozen dataclass would set
    each of its fields through ``object.__setattr__``.
    """

    __slots__ = ()

    def __new__(
        cls, doc: Document, mention: Mention, character: str, context_words: int = DEFAULT_CONTEXT_WORDS
    ) -> "JudgeRequest":
        return tuple.__new__(cls, (doc, mention, character, context_words))

    doc = property(itemgetter(0), doc="The document the mention is in.")
    mention = property(itemgetter(1), doc="The mention to validate.")
    character = property(itemgetter(2), doc="The name of the character the mention is assigned to.")
    context_words = property(itemgetter(3), doc="The excerpt's size in tokens around the mention.")

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        return tuple.__eq__(self, other) if type(other) is JudgeRequest else NotImplemented

    def __ne__(self, other: object) -> bool:
        return tuple.__ne__(self, other) if type(other) is JudgeRequest else NotImplemented

    def __hash__(self) -> int:
        return hash(self[1:])

    def __repr__(self) -> str:
        return f"JudgeRequest(mention={self[1]!r}, character={self[2]!r}, context_words={self[3]!r})"

    @property
    def doc_id(self) -> str:
        return self[0].doc_id

    @property
    def prompt(self) -> str:
        return build_prompt(*self)


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
    #: read-only; compared by ``==`` but not hashed, as a mapping has no hash
    endpoints: Mapping[str, str] | None = field(default=None, hash=False)

    def __post_init__(self) -> None:
        for name in ("window_len", "group_size", "judge_context_words", "jobs"):
            require_int(name, getattr(self, name))
        if self.window_len < 1 or self.group_size < 1 or self.judge_context_words < 1:
            raise ConfigError("window_len, group_size and judge_context_words must be positive")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        # a str would be read as its characters, a list makes the config
        # unhashable, and a set's order (and with it config_hash) follows
        # the string-hash seed
        if type(self.stages) is not tuple or not all(type(s) is str for s in self.stages):
            raise ConfigError(f"stages must be a tuple of stage names, got {self.stages!r}")
        unknown = set(self.stages) - set(ALL_STAGES)
        if unknown:
            raise ConfigError(f"unknown pipeline stages {sorted(unknown)}")
        if "init" not in self.stages:
            raise ConfigError("the init stage cannot be disabled")
        if "group" in self.stages and "window" not in self.stages:
            raise ConfigError("the group stage requires the window stage")
        if self.endpoints is not None:
            # a copy, so that the caller's mapping cannot change a config already hashed
            object.__setattr__(self, "endpoints", MappingProxyType(dict(self.endpoints)))

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
    tokens = doc.tokens
    kept = {
        key: tuple([m for m in ms if not (m[0] == m[1] and tokens[m[0]].lower() in PRONOUNS)])
        for key, ms in cs.clusters.items()
    }
    # a subsequence of each of a set's clusters is sorted and valid
    return _sorted_set(cs.doc_id, cs.stage, kept)


class OracleLinker:
    """Gold-derived linker: returns the gold clusters minus pronoun spans."""

    name = "oracle"

    def __init__(self, gold: ClusterSet):
        self._gold = gold

    def link(self, doc: Document) -> ClusterSet:
        return explicit_mentions(doc, self._gold).with_stage("initialized")


class OracleJudge:
    """Gold-derived judge: accepts exactly the (span, character) pairs
    present in gold. The request names its character by text, so a gold
    cluster with an ``int`` key never matches."""

    name = "oracle"

    def __init__(self, gold: ClusterSet):
        self._spans = {key: frozenset(ms) for key, ms in gold.clusters.items()}

    def judge(self, request: JudgeRequest) -> bool:
        spans = self._spans.get(request.character)
        return spans is not None and request.mention in spans


class OracleExpander:
    """Gold-derived expander: returns gold restricted to the window,
    regardless of seeds (a perfect window-local annotator)."""

    name = "oracle"

    def __init__(self, gold: ClusterSet):
        self._gold = gold

    def expand(self, request: ExpandRequest) -> Mapping[ClusterKey, Iterable[Mention]]:
        window = restrict(self._gold, request.lo, request.hi).clusters
        return {key: window.get(key, ()) for key in request.seeds}


def _checked_reply(
    who: str, reply: Mapping[ClusterKey, Iterable[Mention]], known: Container[ClusterKey],
    lo: int, hi: int, where: str = "",
) -> dict[ClusterKey, tuple[Mention, ...]]:
    """A linker's or an expander's clusters, in the reply's key order, each
    as its distinct mentions in ``(start, end)`` order.

    Keys are read in sorted key order. A reply that is not a mapping is
    refused first. A cluster's first offence is a key not in ``known``, then
    a cluster that is not iterable or a span that is not a valid mention,
    the first in the reply's own order (such spans have no sort order), then,
    among its distinct spans in ``(start, end)`` order, a span outside
    ``[lo, hi)`` or one already placed in another cluster. The first offence
    raises a :class:`ContractError` naming ``who``, the span, the key and
    ``where``. Spans given as ``(start, end)`` pairs, tuples or lists, are
    accepted as mentions.

    Cost: an empty tuple is one test. A cluster that is a tuple of mentions
    that strictly increase (as an oracle's cut of gold, or a window's part
    of a checked set) is already valid, sorted and distinct, and is kept as
    it is, after a C-level pass over the spans' types and one of
    comparisons (ROADMAP.md's fast-path ledger, row
    ``_checked_reply`` clean tuple); any other is rebuilt by
    :func:`~bookcoref.model.sorted_mentions`, the gate of every
    :class:`ClusterSet`, and its repeats dropped. A cluster is then tested
    whole: its bounds from its first start and its largest end, and its
    spans against those of the clusters before it by one ``set.update`` of
    the spans placed so far and a length check, so a clean reply costs a
    few C-level passes per cluster. Only a cluster that fails is walked span
    by span, to name its first offence.
    """
    if not isinstance(reply, Mapping):
        raise ContractError(f"{who} returned {type(reply).__name__}, not a mapping of clusters{where}")
    # filled in sorted key order, kept in the reply's
    out: dict[ClusterKey, tuple[Mention, ...]] = dict.fromkeys(reply, ())
    keys = sorted(out, key=_key_order)
    seen: set[Mention] = set()
    for key in keys:
        if key not in known:
            raise ContractError(f"{who} returned unknown cluster key {key!r}{where}")
        ms = reply[key]
        if ms == ():
            continue
        if not (type(ms) is tuple and {Mention}.issuperset(map(type, ms)) and all(map(lt, ms, islice(ms, 1, None)))):
            try:
                ms = tuple(dict.fromkeys(sorted_mentions(ms)))
            except SpanRangeError as e:
                raise ContractError(f"{who} returned an {e} for {key!r}{where}") from None
            if not ms:
                continue
        placed = len(seen)
        seen.update(ms)
        if not (lo <= ms[0][0] and max(map(_end, ms)) < hi and len(seen) == placed + len(ms)):
            for m in ms:
                if not (lo <= m[0] and m[1] < hi):
                    raise ContractError(f"{who} span ({m[0]},{m[1]}) out of bounds for {key!r}{where}")
                # the clusters of the keys before this one (this key's and later ones' are still empty)
                owner = next((k for k in keys if m in out[k]), None)
                if owner is not None:
                    raise ContractError(f"{who} placed span ({m[0]},{m[1]}) in clusters {owner!r} and {key!r}{where}")
        out[key] = ms
    return out


def initialize(
    doc: Document,
    linker: Linker,
    trace: PipelineTrace | None = None,
) -> ClusterSet:
    """Run the linker and check its output (see :func:`_checked_reply`) into
    stage "initialized".

    Single-token pronoun spans are kept but recorded as warnings (linkers
    are supposed to return explicit mentions only).
    """
    tokens = doc.tokens
    linked = linker.link(doc)
    if not isinstance(linked, ClusterSet):
        raise ContractError(f"linker returned {type(linked).__name__}, not a ClusterSet")
    clusters = _checked_reply("linker", linked.clusters, set(doc.characters), 0, len(tokens))
    if trace is not None:
        for key in sorted(clusters, key=_key_order):
            for s, e in clusters[key]:
                if s == e and tokens[s].lower() in PRONOUNS:
                    trace.warnings.append(f"linker returned pronoun span ({s},{e}) {tokens[s]!r} for {key!r}")
    return _sorted_set(doc.doc_id, "initialized", clusters)


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
    the end of the document is a contract error whatever the judge, and so
    is a verdict that is not a ``bool``.

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
    clusters = cs.clusters
    keys = cs.sorted_keys()
    sizes = [len(clusters[key]) for key in keys]
    # the items to judge, in sorted key order, then span order: each
    # mention, its key, and its request, built by tuple.__new__ (a C-level
    # call; see JudgeRequest) and naming its character by text
    mentions = list(chain.from_iterable(map(clusters.__getitem__, keys)))
    owners = list(chain.from_iterable(map(repeat, keys, sizes)))
    names = chain.from_iterable(map(repeat, map(str, keys), sizes))
    requests = list(map(_new_tuple, repeat(JudgeRequest), zip(repeat(doc), mentions, names, repeat(context_words))))

    def verdict(i: int) -> bool:
        m = mentions[i]
        if m[1] >= n_tokens:
            raise ContractError(f"mention ({m[0]},{m[1]}) out of bounds")
        try:
            answer = judge.judge(requests[i])
        except TransportError as e:
            raise StageError(f"judge failed for mention ({m.start},{m.end}) of {owners[i]!r}: {e}") from e
        if not isinstance(answer, bool):
            raise ContractError(f"judge verdict {answer!r} for mention ({m[0]},{m[1]}) of {owners[i]!r} is not a bool")
        return answer

    verdicts = _map_in_order(verdict, range(len(requests)), executor)
    if trace is not None:
        trace.judge_verdicts += zip(owners, mentions, verdicts)
    # each cluster keeps its mentions' order, and the set the input's key order
    flags = iter(verdicts)
    kept = {key: tuple(compress(clusters[key], islice(flags, n))) for key, n in zip(keys, sizes)}
    return _sorted_set(cs.doc_id, "refined", {key: kept[key] for key in clusters})


def _expand_window(
    doc: Document,
    seeds: ClusterSet,
    lo: int,
    hi: int,
    expander: Expander,
    target_stage: str,
) -> tuple[ClusterSet, int]:
    """Expand one range from its seeds (the set cut to the range); returns
    the expanded part and its seed count. The part holds the seeds' keys in
    their order, each cluster sorted, distinct and inside the range."""
    raw = expander.expand(ExpandRequest(doc.doc_id, lo, hi, doc.tokens[lo:hi], seeds.clusters))
    where = f" in window [{lo},{hi})"
    out: dict[ClusterKey, tuple[Mention, ...]] = dict.fromkeys(seeds.clusters, ())
    out.update(_checked_reply("expander", raw, seeds.clusters, lo, hi, where))
    # out holds the seeds' keys in their order: one C-level pass over the keys
    # (ROADMAP.md's fast-path ledger, row ``_expand_window`` seed check)
    if not all(map(set.issuperset, map(set, out.values()), seeds.clusters.values())):
        lost = {key: set(ms).difference(out[key]) for key, ms in seeds.clusters.items()}
        _, (s, e), key = min((_key_order(key), min(ms), key) for key, ms in lost.items() if ms)
        raise ContractError(f"expander dropped seed mention ({s},{e}) of {key!r}{where}")
    return _sorted_set(seeds.doc_id, target_stage, out), seeds.n_mentions


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
    range from its seeds, verify the contracts, and join the ranges' parts.
    The set is sliced once, on the calling thread, by
    :func:`~bookcoref.model.cut` (O(C log M + M) for C clusters and M
    mentions); the expander calls run on ``executor`` if one is given, else
    on the calling thread; component errors pass through unretried.

    The parts are merged by concatenation: per key, in the set's key order,
    the ranges' clusters in range order. The ranges are disjoint and sorted
    and each part's clusters are sorted, distinct and inside their range
    (see :func:`_checked_reply`), so this is exactly
    :func:`~bookcoref.model.union` of the parts, in O(C W + M) for W ranges,
    with no per-character set or sort.

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
    clusters = [part.clusters for part, _ in results]
    merged = {key: tuple(chain.from_iterable(map(itemgetter(key), clusters))) for key in cs.clusters}
    return _sorted_set(cs.doc_id, target, merged)


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
            cs = cs.with_stage("refined")

        if "window" in config.stages:
            plan = plan_windows(doc, config.window_len, guard=cs)
            cs = record("window", "window_expanded", expand_pass(doc, cs, plan, expander, trace, executor=pool))
            if "group" in config.stages:
                grouped = plan_groups(plan, config.group_size)
                cs = record("group", "final", expand_pass(doc, cs, grouped, expander, trace, executor=pool))

    return cs, trace
