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

``split`` and ``gold_plus_window`` share one per-document window loop. It
slices each cluster set at all of a document's windows with one
:func:`~bookcoref.model.cut`, O(C log M + M) for C clusters and M mentions,
rather than one :func:`~bookcoref.model.restrict` (O(C log M + k) for k
kept) per window. ``split`` cuts the key lazily, a book at a time, and
re-bases each part to its window with :func:`~bookcoref.model.shift` only
as that window is scored, so it never copies the key corpus into window
documents. It picks every key record's set before it scores any window, so
a record without one is reported ahead of an earlier book's response of
the wrong length.

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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import ConfigError, ContractError
from .formats import CorpusFile
from .metrics import ScoreReport, conll, macro_reports, pool_reports
# restrict is not called here; it stays bound for perfbench/test_smoke.py,
# which checks that the tracer wraps it in every windowed module
from .model import ClusterSet, Document, cut, drop_empty, restrict, shift  # noqa: F401
from .windowing import DEFAULT_WINDOW_LEN, plan_windows, window_doc_id

SETTINGS = ("full_book", "split", "gold_plus_window")


@dataclass(frozen=True, slots=True)
class Setting:
    kind: str
    window_len: int = DEFAULT_WINDOW_LEN

    def __post_init__(self) -> None:
        if self.kind not in SETTINGS:
            raise ConfigError(f"unknown setting {self.kind!r}; expected one of {SETTINGS}")
        if self.window_len < 1:
            raise ConfigError("window_len must be positive")


@dataclass
class EvalRun:
    """Scores for one evaluation: per-unit reports plus pooled/macro corpus
    aggregates. What varies from run to run is kept apart, in ``timings``:
    the wall-clock ``seconds`` and ``process_peak_rss_mb``, the best-effort
    peak memory of the whole process so far, not of this call."""

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
        lines.append(f"scored in {self.timings.get('seconds', 0.0):.2f}s")
        return "\n".join(lines)

    def save(self, out_dir: str) -> None:
        """Write run.json, per-unit JSONL and a plain-text summary."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")
        with open(os.path.join(out_dir, "units.jsonl"), "w", encoding="utf-8") as f:
            for unit, report in self.units:
                f.write(json.dumps({"unit": unit, **report.to_dict()}, separators=(",", ":")))
                f.write("\n")
        with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as f:
            f.write(self.summary_table())
            f.write("\n")


def _peak_rss_mb() -> float | None:
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:
        return None


_Unit = tuple[str, ClusterSet, ClusterSet | None]
_Lookup = Callable[[str, int], ClusterSet | None]


def _window_units(
    keys: Iterable[tuple[Document, ClusterSet]], split: bool, window_len: int, response_for: _Lookup, missing: list[str]
) -> Iterator[_Unit]:
    """split's and gold_plus_window's units: each key set is sliced at every
    window by one :func:`~bookcoref.model.cut`, and each part is made ready
    only as its window is scored.

    In ``split`` each window is a response document of its own, so its key
    part is re-based to the window's coordinates with
    :func:`~bookcoref.model.shift`. In ``gold_plus_window`` the response is
    cut at the same windows; a missing one is flagged here, for the
    document, and its windows are scored against an empty set.
    """
    for doc, key_cs in keys:
        doc_id = doc.doc_id
        windows = plan_windows(doc, window_len).windows
        if split:
            for i, ((lo, hi), key_part) in enumerate(zip(windows, cut(key_cs, windows)), 1):
                unit_id = window_doc_id(doc_id, i)
                yield unit_id, shift(drop_empty(key_part), -lo), response_for(unit_id, hi - lo)
            continue
        resp_cs = response_for(doc_id, len(doc))
        if resp_cs is None:
            missing.append(doc_id)
            resp_cs = ClusterSet(doc_id, "prediction")
        for i, (key_part, resp_part) in enumerate(zip(cut(key_cs, windows), cut(resp_cs, windows)), 1):
            yield window_doc_id(doc_id, i), drop_empty(key_part), drop_empty(resp_part)


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

    if setting.kind == "full_book":
        units: Iterator[_Unit] = (
            (rec.document.doc_id, rec.pick("gold"), response_for(rec.document.doc_id, len(rec.document)))
            for rec in key_corpus.records
        )
    else:
        keys: Iterable[tuple[Document, ClusterSet]] = ((rec.document, rec.pick("gold")) for rec in key_corpus.records)
        if setting.kind == "split":
            # a record without a set is reported before any window is scored
            keys = list(keys)
        units = _window_units(keys, setting.kind == "split", setting.window_len, response_for, run.missing_units)

    skip_empty = setting.kind != "full_book"
    for unit_id, key_cs, resp_cs in units:
        if skip_empty and key_cs.n_mentions == 0 and (resp_cs is None or resp_cs.n_mentions == 0):
            continue
        if resp_cs is None:
            run.missing_units.append(unit_id)
        resp_partition = resp_cs.partition() if resp_cs is not None else []
        run.units.append((unit_id, conll(key_cs.partition(), resp_partition, drop_singletons)))

    run.unmatched_responses = sorted(set(responses) - looked_up)
    if run.units:
        run.pooled = pool_reports([r for _, r in run.units])
        run.macro = macro_reports([r for _, r in run.units])
    run.timings = {"seconds": time.perf_counter() - started, "process_peak_rss_mb": _peak_rss_mb()}
    return run
