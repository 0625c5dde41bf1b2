"""Evaluation harness: the three scoring settings, count pooling, and run
artifacts.

Settings differ only in their units; one loop scores them all. A key
document is scored from its ``gold`` cluster set and a response document
from its ``prediction`` set; a record that carries one set under another
name is scored from that set, and any other record is a
:class:`~bookcoref.errors.SchemaError` (see
:meth:`~bookcoref.formats.DocumentRecord.pick`).

* ``full_book``        - score whole documents against each other; every key
  document is a unit, even one with no mentions on either side.
* ``split``            - the key corpus is cut into independent windows;
  response documents must carry the matching window ids ("<doc>#w<i>").
* ``gold_plus_window`` - full-book responses are evaluated window by
  window: both sides are restricted to each window (full containment),
  empty clusters dropped, and each window scored as its own unit.

One generator walks the key corpus a book at a time and yields that
book's units under the setting: the whole book in ``full_book``, each of
its windows in the other two. It slices a windowed book's cluster sets at
all of its windows with one :func:`~bookcoref.model.cut`, O(C log M + M) for
C clusters and M mentions, rather than one
:func:`~bookcoref.model.restrict` (O(C log M + k) for k kept) per window. A
cut part keeps its set's keys, so the walk sorts a book's keys once per
side and builds each window's clusters in that order, and no window sorts
them again. ``split`` cuts the key lazily, a book at a time, and re-bases
each part to its window only as that window is scored, so it never copies
the key corpus into window documents. It picks every key record's set
before it scores any window, so a record without one is reported ahead of
an earlier book's response of the wrong length.

In ``split`` and ``gold_plus_window``, a window where both sides are empty (a
missing response counts as empty) carries no signal and is skipped. A unit
without a response is flagged in ``missing_units``; ``gold_plus_window``
flags the document instead, once, before its windows. Units pool their
metric counts for the corpus-level (micro) report; macro means over units
are reported alongside.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import ConfigError, ContractError, require_int
from .formats import CorpusFile, replaced
from .metrics import ScoreReport, conll, macro_reports, pool_reports
# restrict is not called here; it stays bound for perfbench/test_smoke.py,
# which checks that the tracer wraps it in every windowed module
from .model import ClusterKey, ClusterSet, Document, cut, restrict  # noqa: F401
from .windowing import DEFAULT_WINDOW_LEN, plan_windows, window_doc_id

SETTINGS = ("full_book", "split", "gold_plus_window")


@dataclass(frozen=True, slots=True)
class Setting:
    kind: str
    window_len: int = DEFAULT_WINDOW_LEN

    def __post_init__(self) -> None:
        if self.kind not in SETTINGS:
            raise ConfigError(f"unknown setting {self.kind!r}; expected one of {SETTINGS}")
        require_int("window_len", self.window_len)
        if self.window_len < 1:
            raise ConfigError("window_len must be positive")


@dataclass
class EvalRun:
    """Scores for one evaluation: per-unit reports plus pooled/macro corpus
    aggregates. What varies from run to run is kept apart, in ``timings``:
    the wall-clock ``seconds``, ``scoring_s``, the part of them spent in the
    scorer core (the rest is unit planning and slicing), and
    ``process_peak_rss_mb``, the best-effort peak memory of the whole
    process so far, not of this call."""

    setting: Setting
    units: list[tuple[str, ScoreReport]] = field(default_factory=list)
    pooled: ScoreReport | None = None
    macro: ScoreReport | None = None
    missing_units: list[str] = field(default_factory=list)
    unmatched_responses: list[str] = field(default_factory=list)
    timings: dict[str, float | None] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "setting": {"kind": self.setting.kind, "window_len": self.setting.window_len},
            "pooled": self.pooled.to_dict() if self.pooled else None,
            "macro": self.macro.to_dict() if self.macro else None,
            "units": {unit: report.to_dict() for unit, report in self.units},
            "missing_units": self.missing_units,
            "unmatched_responses": self.unmatched_responses,
            "timings": self.timings,
        }

    def summary_table(self) -> str:
        """The plain-text score table. It shows nothing from ``timings``, so
        equal runs print it, and ``save`` writes it, byte for byte alike."""
        lines = [f"setting: {self.setting.kind} (window_len={self.setting.window_len})"]
        width = max([len(u) for u, _ in self.units] + [len("corpus (pooled)"), len("corpus (macro)")])
        lines.append(f"{'unit'.ljust(width)}    MUC    B3  C_p4 CoNLL")
        for unit, report in self.units:
            lines.append(f"{unit.ljust(width)}  {report.row()}")
        if self.pooled:
            lines.append(f"{'corpus (pooled)'.ljust(width)}  {self.pooled.row()}")
        if self.macro:
            lines.append(f"{'corpus (macro)'.ljust(width)}  {self.macro.row()}")
        if self.missing_units:
            lines.append(f"missing responses for: {', '.join(self.missing_units)}")
        if self.unmatched_responses:
            lines.append(f"unmatched response docs: {', '.join(self.unmatched_responses)}")
        return "\n".join(lines)

    def save(self, out_dir: str) -> None:
        """Write run.json, per-unit JSONL and a plain-text summary. All three
        are claimed (see :func:`~bookcoref.formats.replaced`) before any is
        written, so a save that fails leaves each as it was."""
        os.makedirs(out_dir, exist_ok=True)
        with ExitStack() as stack:
            names = ("run.json", "units.jsonl", "summary.txt")
            run, units, summary = (stack.enter_context(replaced(os.path.join(out_dir, n))) for n in names)
            print(json.dumps(self.to_dict(), indent=2), file=run)
            for unit, report in self.units:
                print(json.dumps({"unit": unit, **report.to_dict()}, separators=(",", ":")), file=units)
            print(self.summary_table(), file=summary)


def _peak_rss_mb() -> float | None:
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:
        return None


_Parts = list[frozenset]


def _partition(part: ClusterSet, order: list[ClusterKey]) -> _Parts:
    """``part.partition()`` for a part cut from a set whose keys sort to
    ``order``: a cut part keeps its set's keys, so they need no new sort
    (ROADMAP.md's fast-path ledger, row ``harness._partition``)."""
    clusters = part.clusters
    return [frozenset(ms) for ms in map(clusters.__getitem__, order) if ms]


def _units(
    setting: Setting, key_corpus: CorpusFile, response_for: Callable[[str, int], ClusterSet | None], missing: list[str]
) -> Iterator[tuple[str, _Parts, _Parts | None]]:
    """Every unit of ``setting``, a key book at a time: its id, its key
    partition, and its response partition (``None`` if it has no response).

    A windowed book's key set is sliced at every window by one
    :func:`~bookcoref.model.cut`, its keys are sorted once, and each part is
    made ready only as its window is scored. In ``split`` each window is a
    response document of its own, so its key part is re-based to the
    window's coordinates, as plain ``(start, end)`` tuples, which equal and
    hash like the response's mentions. In ``gold_plus_window`` the response
    is cut at the same windows and its keys are sorted once too; a missing
    one is flagged here, for the document, and its windows are scored
    against an empty set.
    """
    keys: Iterable[tuple[Document, ClusterSet]] = ((rec.document, rec.pick("gold")) for rec in key_corpus.records)
    if setting.kind == "split":
        # a record without a set is reported before any window is scored
        keys = list(keys)
    for doc, key_cs in keys:
        doc_id = doc.doc_id
        if setting.kind == "full_book":
            resp_cs = response_for(doc_id, len(doc))
            yield doc_id, key_cs.partition(), None if resp_cs is None else resp_cs.partition()
            continue
        windows = plan_windows(doc, setting.window_len).windows
        key_order = key_cs.sorted_keys()
        if setting.kind == "split":
            for i, ((lo, hi), key_part) in enumerate(zip(windows, cut(key_cs, windows)), 1):
                unit_id = window_doc_id(doc_id, i)
                clusters = key_part.clusters
                key_parts = [
                    frozenset([(s - lo, e - lo) for s, e in ms]) for ms in map(clusters.__getitem__, key_order) if ms
                ]
                resp_cs = response_for(unit_id, hi - lo)
                yield unit_id, key_parts, None if resp_cs is None else resp_cs.partition()
            continue
        resp_cs = response_for(doc_id, len(doc))
        if resp_cs is None:
            missing.append(doc_id)
            resp_cs = ClusterSet(doc_id, "prediction")
        resp_order = resp_cs.sorted_keys()
        for i, (key_part, resp_part) in enumerate(zip(cut(key_cs, windows), cut(resp_cs, windows)), 1):
            yield window_doc_id(doc_id, i), _partition(key_part, key_order), _partition(resp_part, resp_order)


def check_token_counts(key_id: str, n_tokens: int, resp_doc: Document) -> None:
    """A response document must have as many tokens as the key document
    ``key_id`` (``n_tokens``); one that does not is a :class:`ContractError`."""
    if len(resp_doc) != n_tokens:
        raise ContractError(
            f"response document {resp_doc.doc_id!r} has {len(resp_doc)} tokens, "
            f"but key document {key_id!r} has {n_tokens}"
        )


def evaluate(
    setting: Setting,
    key_corpus: CorpusFile,
    response_corpus: CorpusFile,
    drop_singletons: bool = True,
) -> EvalRun:
    """Score a response corpus against a key corpus under one setting.

    A key unit without a matching response is scored against an empty
    response (a pure recall penalty) and flagged; response documents that
    match no key unit are flagged and not scored. A response whose token
    count differs from its key document's is a :class:`ContractError`.
    """
    started = time.perf_counter()
    run = EvalRun(setting)

    responses = response_corpus.by_id()
    looked_up: set[str] = set()

    def response_for(doc_id: str, n_tokens: int) -> ClusterSet | None:
        looked_up.add(doc_id)
        resp = responses.get(doc_id)
        if resp is None:
            return None
        check_token_counts(doc_id, n_tokens, resp.document)
        return resp.pick("prediction")

    skip_empty = setting.kind != "full_book"
    scoring_s = 0.0
    for unit_id, key_parts, resp_parts in _units(setting, key_corpus, response_for, run.missing_units):
        if skip_empty and not key_parts and not resp_parts:
            continue
        if resp_parts is None:
            run.missing_units.append(unit_id)
        scoring_started = time.perf_counter()
        run.units.append((unit_id, conll(key_parts, resp_parts or [], drop_singletons)))
        scoring_s += time.perf_counter() - scoring_started

    run.unmatched_responses = sorted(set(responses) - looked_up)
    if run.units:
        run.pooled = pool_reports([r for _, r in run.units])
        run.macro = macro_reports([r for _, r in run.units])
    run.timings = {
        "seconds": time.perf_counter() - started,
        "scoring_s": scoring_s,
        "process_peak_rss_mb": _peak_rss_mb(),
    }
    return run
