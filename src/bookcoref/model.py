"""Core domain model: documents, mention spans, character clusters.

Span convention: token indices are 0-based and end-INCLUSIVE, i.e. the
mention ``(3, 5)`` covers tokens 3, 4 and 5. This matches the CoNLL-2012
shared-task convention and the JSONL interchange schema.

A :class:`Mention` is the validated tuple ``(start, end)``: it equals,
hashes and sorts like that plain tuple, so sets, sorts and comparisons of
mentions run at C speed, and only construction checks the range.

All types are immutable after construction; the operations in this module
(:func:`validate`, :func:`cut`, :func:`crossing_mentions`,
:func:`restrict`, :func:`union`, :func:`shift`, :func:`drop_empty`) are pure
functions, so values can be shared freely across threads.

The JSON form of a cluster map, ``{name: [[start, end], ...]}``, is built
and read only here, by :func:`clusters_to_json` and
:func:`clusters_from_json`, for JSONL and the annotator wire alike;
:func:`mentions_from_text` reads one cluster's spans straight from the text
the JSONL writer lays out, without a list per span.

A :class:`ClusterSet` holds only valid mentions, each cluster as a tuple
sorted by ``(start, end)``. One function keeps that invariant,
:func:`sorted_mentions`: the constructor passes every cluster through it,
and so does the pipeline's check of a linker's or an expander's reply. It
refuses a span that is not two ``int``s with ``0 <= start <= end`` with a
:class:`SpanRangeError`, turns ``(start, end)`` pairs into mentions and
sorts each cluster, so sets built from the same mentions in any order are
equal. Code that reads a set (the writers, the scorers, the simulator) does
not test a span's form again, and this module's operations keep the
invariant by construction.

:func:`cut` is the one window-slicing operation: it slices a set at every
range of a window plan in one pass, bisecting each sorted cluster for the
mentions that start inside the plan and walking those once, so a plan of W
windows costs O(C log M + M) for C clusters and M mentions (plus the O(W C)
entries of its W result sets) rather than W passes over every cluster.
:func:`restrict` is its one-range case, O(C log M + k) for the k mentions
that start in the range. :func:`crossing_mentions` names the mentions a
plan's cut drops because they cross a range edge: the corpus split reports
them, and an expansion pass refuses them.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import itemgetter, le
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import BookcorefError, CompositionError, SchemaError, SpanRangeError, StageError

ClusterKey = Union[str, int]

# builds a Mention (or a pipeline JudgeRequest) without its constructor's
# checks, where the caller has made the fields valid: ROADMAP.md's fast-path
# ledger, row ``model._new_tuple``, waits for mentions as plain tuples
_new_tuple = tuple.__new__

#: Stages a cluster set can be in. ``initialized -> refined ->
#: window_expanded -> final`` is the pipeline's chain, which the stage gates of
#: :mod:`bookcoref.pipeline` enforce; ``gold`` and ``prediction`` are standalone.
STAGES = ("initialized", "refined", "window_expanded", "final", "gold", "prediction")

#: Closed-class pronouns used to flag spans that a character linker should
#: not have produced (linkers return explicit mentions only).
PRONOUNS = frozenset(
    """
    i me my mine myself you your yours yourself yourselves he him his himself
    she her hers herself it its itself we us our ours ourselves they them
    their theirs themselves thou thee thy thine ye
    """.split()
)


def _key_order(key: ClusterKey) -> tuple[str, str]:
    # stable sort for mixed str/int cluster keys
    return (key.__class__.__name__, str(key))


def str_keyed(items: Iterable[tuple[Hashable, Any]], error: type[BookcorefError], where: str) -> dict[str, Any]:
    """``items`` keyed by ``str(key)``, the form cluster keys take in JSON.
    Keys that print alike (``1`` and ``"1"``) raise ``error`` rather than merge."""
    out: dict[str, Any] = {}
    keys: dict[str, Hashable] = {}
    for key, value in items:
        text = str(key)
        if text in keys:
            raise error(f"{where}: cluster keys {keys[text]!r} and {key!r} both print as {text!r}")
        keys[text] = key
        out[text] = value
    return out


def prediction_key(key: str) -> ClusterKey:
    """A prediction key as written by a system: an ``int`` when it is the
    canonical ASCII decimal form of one (``"-1"``, not ``"01"``, ``"+1"``,
    ``"-0"`` or ``"²"``), so that no two keys read alike."""
    if key.isascii():
        try:
            number = int(key)
        except ValueError:
            return key
        if str(number) == key:
            return number
    return key


def clusters_to_json(
    clusters: Mapping[ClusterKey, Sequence[Mention]], error: type[BookcorefError], where: str
) -> dict[str, Sequence[Mention]]:
    """The JSON form of a cluster map, for JSONL and the annotator wire:
    keys sorted by type and text and printed with ``str``, mentions as they
    are (``json`` writes a mention as ``[start, end]``). Keys that print
    alike raise ``error`` (see :func:`str_keyed`)."""
    return str_keyed(sorted(clusters.items(), key=lambda kv: _key_order(kv[0])), error, where)


def clusters_from_json(
    raw: object, error: type[BookcorefError], where: str, key: Callable[[str], ClusterKey] | None = None
) -> dict[ClusterKey, tuple[Mention, ...]]:
    """Read the JSON form of a cluster map back: each name (mapped through
    ``key``, if given) to its sorted mentions, ready for ``ClusterSet(...)``.
    A value that is not ``{name: [[start, end], ...]}`` raises ``error``
    naming ``where``; a span with ``end < start`` or ``start < 0`` raises
    :class:`SpanRangeError`."""
    if not isinstance(raw, dict):
        raise error(f"{where}: 'clusters' must be an object, got {type(raw).__name__}")
    out: dict[ClusterKey, tuple[Mention, ...]] = {}
    for name, spans in raw.items():
        if not isinstance(spans, list):
            raise error(f"{where}: spans of {name!r} must be an array")
        ms = []
        for span in spans:
            if type(span) is not list or len(span) != 2 or type(span[0]) is not int or type(span[1]) is not int:
                raise error(f"{where}: span {span!r} of {name!r} is a malformed span, not [start, end] integers")
            ms.append(Mention(span[0], span[1]))
        out[name if key is None else key(name)] = tuple(sorted(ms))
    return out


#: A cluster's spans as the JSONL writer lays them out, without the array's
#: outer brackets: ``s,e],[s,e`` and so on, each a non-negative integer in
#: canonical form (no sign, no leading zero, no fraction or exponent).
_SPAN_TEXT = re.compile(r"(?:0|[1-9][0-9]*),(?:0|[1-9][0-9]*)(?:\],\[(?:0|[1-9][0-9]*),(?:0|[1-9][0-9]*))*")


def mentions_from_text(text: str) -> tuple[Mention, ...] | None:
    """One cluster's sorted mentions, read from the text between the ``[[``
    and ``]]`` of its span array in the writers' layout (``"0,2],[5,5"`` for
    ``[[0,2],[5,5]]``), or ``None`` when the text is not in that form: a
    space, a sign, a leading zero, a fraction or an exponent, a span of other
    than two elements or nested deeper, an integer of more digits than
    ``int`` converts, or a span with ``end < start``. The caller then decodes
    the line with ``json.loads`` and :func:`clusters_from_json`, which stays
    the one codec and words every error; where both accept, they give the
    same mentions.

    Cost: one regular-expression match of the text and one ``json.loads`` of
    its integers as a single flat list, so a cluster of k spans allocates k
    mentions and a few containers, not a list per span as well.
    """
    if _SPAN_TEXT.fullmatch(text) is None:
        return None
    try:
        flat = json.loads("[" + text.replace("],[", ",") + "]")
    except ValueError:  # an integer literal too long to convert
        return None
    if not all(map(le, islice(flat, 0, None, 2), islice(flat, 1, None, 2))):
        return None
    pairs = iter(flat)
    return tuple(sorted(map(_new_tuple, repeat(Mention), zip(pairs, pairs))))


class Mention(tuple):
    """A token span, 0-based, end-inclusive: the validated tuple ``(start, end)``.

    Construction raises :class:`SpanRangeError` unless ``start`` and ``end``
    are ``int``s (not ``bool``s) with ``0 <= start <= end``.
    Hashing, equality and ordering are the tuple's own: a mention equals the
    tuple ``(start, end)`` and hashes like it, sorts by ``(start, end)``,
    unpacks as ``start, end = m``, and ``json.dumps`` writes it as
    ``[start, end]``. The class is a plain tuple subclass, not a
    ``NamedTuple``: a ``NamedTuple``'s ``_make`` and ``_replace`` would build
    a mention without the range check. ``pickle`` and ``copy`` rebuild a
    mention through the checking constructor.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> "Mention":
        if type(start) is not int or type(end) is not int or start < 0 or end < start:
            raise SpanRangeError(f"invalid mention span ({start!r}, {end!r})")
        return tuple.__new__(cls, (start, end))

    start = property(itemgetter(0), doc="First token of the span.")
    end = property(itemgetter(1), doc="Last token of the span (inclusive).")

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Mention(start={self[0]!r}, end={self[1]!r})"


def _mention(span: Mention | Sequence[int]) -> Mention:
    """``span`` as a mention: a mention as it is, a ``(start, end)`` tuple or
    list through the checking constructor, which names a pair it refuses.
    Anything else raises :class:`SpanRangeError` naming ``span``."""
    if type(span) is Mention:
        return span
    if isinstance(span, (tuple, list)) and len(span) == 2:
        return Mention(*span)
    raise SpanRangeError(f"invalid mention span {span!r}")


def sorted_mentions(spans: Iterable[Mention | Sequence[int]]) -> tuple[Mention, ...]:
    """A cluster's spans as a new tuple of mentions sorted by ``(start,
    end)``, duplicates kept: the one gate through which spans enter a
    :class:`ClusterSet`. Each span is passed through the checking
    constructor unless it already is a :class:`Mention`, so a span that is
    not two ``int``s with ``0 <= start <= end`` raises
    :class:`SpanRangeError` naming the first such span in the input's order;
    so does input that is not iterable, naming its type.

    Cost: input that is all mentions (the readers', the wire's, this
    module's operations') is tested whole, by one C-level pass over its
    spans' types, and sorted, which takes a single pass over input that is
    already sorted; only other input is converted a span at a time.
    """
    if type(spans) is tuple:
        ms = spans
    else:
        try:
            spans = iter(spans)
        except TypeError:
            raise SpanRangeError(f"invalid cluster of type {type(spans).__name__}, not an iterable of spans") from None
        ms = tuple(spans)
    if not {Mention}.issuperset(map(type, ms)):
        return tuple(sorted(map(_mention, ms)))
    return tuple(sorted(ms))


@dataclass(frozen=True, slots=True)
class Document:
    """A tokenized book plus its character index.

    ``source`` carries opaque metadata (title, author, unknown interchange
    keys); it is preserved verbatim by the format readers/writers.
    """

    doc_id: str
    tokens: tuple[str, ...]
    characters: tuple[str, ...] = ()
    source: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.tokens:
            raise SpanRangeError(f"document {self.doc_id!r} has no tokens")
        if len(set(self.characters)) != len(self.characters):
            raise CompositionError(f"document {self.doc_id!r} has duplicate character names")

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self, mention: Mention) -> str:
        return " ".join(self.tokens[mention.start : mention.end + 1])


#: The types a cluster key may have, tested by exact type (so no ``bool``).
_KEY_TYPES = frozenset((str, int))


def _check_stage(stage: str) -> None:
    if stage not in STAGES:
        raise StageError(f"unknown stage {stage!r}")


@dataclass(frozen=True, slots=True)
class ClusterSet:
    """Stage-tagged mapping character -> mentions for one document.

    ``clusters`` is a dict of tuples of :class:`Mention`, each sorted by
    ``(start, end)``. The constructor passes every cluster through
    :func:`sorted_mentions` into a new dict, so a set holds only valid
    mentions: a span that is not two ``int``s with ``0 <= start <= end``
    raises :class:`SpanRangeError`, and ``(start, end)`` pairs, tuples or
    lists, are stored as mentions. Every cluster is stored as a sorted
    tuple, so sets built from the same mentions in any order are equal.
    Duplicates are kept as given, next to each other, so that
    :func:`validate` can report them;
    :func:`union` applies set semantics. Character keys are strings;
    ``stage="prediction"`` may use anonymous integer keys instead. A key of
    any other type (a ``bool`` included, and so a key that would be written
    as a text it cannot be read back as) raises :class:`SchemaError` naming
    it and its type.
    """

    doc_id: str
    stage: str
    clusters: Mapping[ClusterKey, tuple[Mention, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_stage(self.stage)
        given = self.clusters
        if not _KEY_TYPES.issuperset(map(type, given)):
            key = next(key for key in given if type(key) not in _KEY_TYPES)
            raise SchemaError(f"cluster key {key!r} is a {type(key).__name__}, not a str or an int")
        object.__setattr__(self, "clusters", {key: sorted_mentions(ms) for key, ms in given.items()})

    @classmethod
    def build(cls, doc_id: str, stage: str, clusters: Mapping[ClusterKey, Iterable]) -> ClusterSet:
        """The constructor under another name, kept for callers that use it."""
        return cls(doc_id, stage, clusters)

    def sorted_keys(self) -> list[ClusterKey]:
        return sorted(self.clusters, key=_key_order)

    def mentions(self) -> Iterator[tuple[ClusterKey, Mention]]:
        """All (key, mention) pairs in deterministic order."""
        for key in self.sorted_keys():
            for m in self.clusters[key]:
                yield key, m

    @property
    def n_mentions(self) -> int:
        return sum(map(len, self.clusters.values()))

    def partition(self) -> list[frozenset[Mention]]:
        """Non-empty clusters as mention sets, for the coreference scorers."""
        return [frozenset(self.clusters[key]) for key in self.sorted_keys() if self.clusters[key]]

    def with_stage(self, stage: str) -> "ClusterSet":
        _check_stage(stage)
        return _sorted_set(self.doc_id, stage, self.clusters)

    def with_doc_id(self, doc_id: str) -> "ClusterSet":
        """The same clusters and stage under another document id (a window's)."""
        return _sorted_set(doc_id, self.stage, self.clusters)


def _sorted_set(doc_id: str, stage: str, clusters: Mapping[ClusterKey, tuple[Mention, ...]]) -> ClusterSet:
    """A set whose clusters are sorted tuples of mentions by construction
    (from this module's operations, the readers, or clusters the pipeline
    has checked) and whose stage is known: the constructor's checks are
    skipped."""
    cs = object.__new__(ClusterSet)
    object.__setattr__(cs, "doc_id", doc_id)
    object.__setattr__(cs, "stage", stage)
    object.__setattr__(cs, "clusters", clusters)
    return cs


class Finding(NamedTuple):
    code: str
    location: str
    message: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    errors: tuple[Finding, ...]
    warnings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"]
        lines += [f"E {f.code} at {f.location}: {f.message}" for f in self.errors]
        lines += [f"W {f.code} at {f.location}: {f.message}" for f in self.warnings]
        return "\n".join(lines)


def _at(key_text: str, m: Mention) -> str:
    """A finding's location: the cluster key's text and the span."""
    return f"{key_text}:({m[0]},{m[1]})"


def validate(doc: Document, cs: ClusterSet) -> ValidationReport:
    """Check a cluster set against its document.

    Errors: out-of-bounds spans, exact duplicate mentions within a cluster,
    a mention span shared by two clusters, and cluster keys missing from the
    document's character index (anonymous keys are legal only for
    ``stage="prediction"``). Mention-category problems are warnings only:
    empty clusters, and pronoun spans in a ``stage="initialized"`` set
    (that stage holds explicit mentions). Finding order is deterministic.
    """
    errors: list[Finding] = []
    warnings: list[Finding] = []
    n = len(doc.tokens)
    initialized = cs.stage == "initialized"
    seen_spans: dict[Mention, ClusterKey] = {}

    for key in cs.sorted_keys():
        ms = cs.clusters[key]
        loc_key = str(key)
        if cs.stage != "prediction" and (not isinstance(key, str) or key not in doc.characters):
            errors.append(
                Finding("unknown-character", loc_key, f"cluster key {key!r} not in document character index")
            )
        if not ms:
            warnings.append(Finding("empty-cluster", loc_key, "cluster has no mentions"))
        prev: Mention | None = None
        for m in ms:
            if m[1] >= n:
                errors.append(Finding("span-out-of-bounds", _at(loc_key, m), f"span out of bounds for {n} tokens"))
            elif initialized and m[0] == m[1] and doc.tokens[m[0]].lower() in PRONOUNS:
                warnings.append(Finding("pronoun-span", _at(loc_key, m), "explicit-mention stage holds a pronoun span"))
            if m == prev:
                errors.append(Finding("duplicate-mention", _at(loc_key, m), "exact duplicate mention within cluster"))
            else:
                owner = seen_spans.setdefault(m, key)
                if owner != key:
                    message = f"mention in two clusters ({owner!r} and {key!r})"
                    errors.append(Finding("mention-in-multiple-clusters", _at(loc_key, m), message))
            prev = m

    return ValidationReport(tuple(errors), tuple(warnings))


_end = itemgetter(1)


def check_bounds(cs: ClusterSet, n_tokens: int) -> None:
    """Raise :class:`SpanRangeError` naming the document, the cluster and
    the span when a span of ``cs`` ends past the last of ``n_tokens``
    tokens: the first such span in sorted key order, then span order
    (:func:`validate` reports each such span as a finding instead)."""
    for key in cs.sorted_keys():
        ms = cs.clusters[key]
        if ms and max(map(_end, ms)) >= n_tokens:
            start, end = next(m for m in ms if m[1] >= n_tokens)
            raise SpanRangeError(
                f"document {cs.doc_id!r}: span ({start}, {end}) of cluster {key!r} "
                f"ends past the last token ({n_tokens} tokens)"
            )


def cut(cs: ClusterSet, ranges: Sequence[tuple[int, int]]) -> list[ClusterSet]:
    """Slice ``cs`` at every range of a plan at once: element ``i`` equals
    ``restrict(cs, *ranges[i])``, the same keys in the same order, empty
    clusters and duplicates kept, offsets in global coordinates.

    ``ranges`` are ``[lo, hi)`` token ranges, sorted and non-overlapping;
    gaps between them and empty ``[lo, lo)`` ranges are allowed. A range
    with ``lo < 0`` or ``hi < lo``, or one that starts before the previous
    range ends, raises :class:`SpanRangeError` naming it.

    Cost: each cluster is sorted by ``(start, end)``, so two ``bisect``
    lookups find the mentions that start inside the plan's span, and a
    bisect per range that holds some of them finds each range's run, which
    is walked once to drop a mention that ends past its range. So a plan
    over C clusters and M mentions costs O(C log M + M), plus a bisect per
    cluster and range it holds mentions in, and :func:`restrict` costs three
    bisects per cluster and one pass over the mentions that start in its
    range. The W result sets share one key order and hold O(W C) entries,
    as W calls of :func:`restrict` would.
    """
    prev = 0
    for lo, hi in ranges:
        if lo < 0 or hi < lo:
            raise SpanRangeError(f"invalid restriction range [{lo}, {hi})")
        if lo < prev:
            raise SpanRangeError(
                f"restriction range [{lo}, {hi}) overlaps or precedes the range before it, which ends at {prev}"
            )
        prev = hi
    if not ranges:
        return []
    los = [lo for lo, _ in ranges]
    his = [hi for _, hi in ranges]
    first, last = (los[0],), (his[-1],)
    out: list[dict[ClusterKey, tuple[Mention, ...]]] = [dict.fromkeys(cs.clusters, ()) for _ in ranges]
    for key, ms in cs.clusters.items():
        i = bisect_left(ms, first)
        end = bisect_left(ms, last, i)
        while i < end:
            # the last range that starts at or before this mention
            j = bisect_right(los, ms[i][0]) - 1
            hi = his[j]
            if ms[i][0] >= hi:  # in the gap after range j: skip to range j + 1
                i = bisect_left(ms, (los[j + 1],), i, end)
                continue
            # the mentions that start in range j
            k = bisect_left(ms, (hi,), i, end)
            out[j][key] = tuple([m for m in ms[i:k] if m[1] < hi])
            i = k
    return [_sorted_set(cs.doc_id, cs.stage, clusters) for clusters in out]


def crossing_mentions(cs: ClusterSet, parts: Sequence[ClusterSet]) -> list[tuple[ClusterKey, Mention]]:
    """The ``(key, mention)`` pairs of ``cs`` that no range of a plan holds
    whole, in :meth:`ClusterSet.mentions` order, where ``parts`` is
    ``cut(cs, ranges)``. The parts keep every mention that does not cross a
    range edge, so when their sizes add up to ``cs.n_mentions`` there is
    none and nothing is looked up (ROADMAP.md's fast-path ledger, row
    ``model.crossing_mentions``)."""
    if sum(part.n_mentions for part in parts) == cs.n_mentions:
        return []
    contained = {m for part in parts for ms in part.clusters.values() for m in ms}
    return [(key, m) for key, m in cs.mentions() if m not in contained]


def restrict(cs: ClusterSet, lo: int, hi: int) -> ClusterSet:
    """Keep exactly the mentions fully contained in the token range [lo, hi).

    Offsets stay in global coordinates. Clusters that become empty are kept
    as empty entries so character keys survive a later :func:`union`.
    Mentions keep their order, and duplicates are kept.

    This is :func:`cut` over the one range ``[lo, hi)``: two ``bisect``
    lookups per sorted cluster find the mentions that start inside the
    range, and only those are examined, so it costs O(C log M + k) for C
    clusters and k mentions starting in the range. To slice a whole plan,
    call :func:`cut` once rather than this once per window. Its one caller
    in the library is the oracle expander (ROADMAP.md's fast-path ledger,
    row ``model.restrict``).
    """
    return cut(cs, [(lo, hi)])[0]


def drop_empty(cs: ClusterSet) -> ClusterSet:
    """The same set without its empty clusters (e.g. after :func:`cut`,
    when a window is scored or written out on its own)."""
    return _sorted_set(cs.doc_id, cs.stage, {key: ms for key, ms in cs.clusters.items() if ms})


def shift(cs: ClusterSet, delta: int) -> ClusterSet:
    """Translate every mention by ``delta`` tokens (re-basing helper).

    A shift keeps each span's length and the clusters' order, so a cluster's
    shifted mentions are valid exactly when its first one is: that one goes
    through the checking constructor (raising :class:`SpanRangeError` if the
    shift leaves the book), and the rest are built as tuples directly. A
    ``delta`` that is not an ``int`` (a bool included) raises
    :class:`SpanRangeError` before anything is built.
    """
    if type(delta) is not int:
        raise SpanRangeError(f"shift delta {delta!r} is not an int")
    out: dict[ClusterKey, tuple[Mention, ...]] = {}
    for key, ms in cs.clusters.items():
        if delta < 0 and ms:
            Mention(ms[0][0] + delta, ms[0][1] + delta)
        out[key] = tuple([_new_tuple(Mention, (s + delta, e + delta)) for s, e in ms])
    return _sorted_set(cs.doc_id, cs.stage, out)


def union(parts: Sequence[ClusterSet]) -> ClusterSet:
    """Per-character set union of cluster sets from one document and stage.

    Idempotent and order-independent; the result's key set is the union of
    the parts' key sets.
    """
    if not parts:
        raise CompositionError("union of zero cluster sets")
    doc_id = parts[0].doc_id
    stage = parts[0].stage
    for p in parts[1:]:
        if p.doc_id != doc_id:
            raise CompositionError(f"union across documents {doc_id!r} and {p.doc_id!r}")
        if p.stage != stage:
            raise CompositionError(f"union across stages {stage!r} and {p.stage!r}")
    merged: dict[ClusterKey, set[Mention]] = {}
    for p in parts:
        for key, ms in p.clusters.items():
            merged.setdefault(key, set()).update(ms)
    return _sorted_set(doc_id, stage, {key: tuple(sorted(ms)) for key, ms in merged.items()})
