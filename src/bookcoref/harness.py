"""Evaluation harness: the three scoring settings, count pooling, and run
artifacts.

Settings differ only in their units; one loop scores them all.

* ``full_book``        - score whole documents against each other; every key
  document is a unit, even one with no mentions on either side.
* ``split``            - the key corpus is cut into independent windows;
  response documents must carry the matching window ids ("<doc>#w<i>").
* ``gold_plus_window`` - full-book responses are evaluated window by
  window: both sides are restricted to each window (full containment),
  empty clusters dropped, and each window scored as its own unit.

``split`` and ``gold_plus_window`` slice each cluster set at all of a
document's windows with one :func:`~bookcoref.model.cut`, O(C log M + M) for
C clusters and M mentions, rather than one :func:`~bookcoref.model.restrict`
(O(C log M + k) for k kept) per window.

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
from typing import Callable, Iterator

from .errors import ConfigError, ContractError
from .formats import CorpusFile, DocumentRecord
from .metrics import ScoreReport, conll, macro_reports, pool_reports
# restrict is not called here; it stays bound for perfbench/test_smoke.py,
# which checks that the tracer wraps it in every windowed module
from .model import ClusterSet, Document, cut, drop_empty, restrict  # noqa: F401
from .windowing import plan_windows, split_corpus, window_doc_id

SETTINGS = ("full_book", "split", "gold_plus_window")


@dataclass(frozen=True, slots=True)
class Setting:
    kind: str
    window_len: int = 1500

    def __post_init__(self) -> None:
        if self.kind not in SETTINGS:
            raise ConfigError(f"unknown setting {self.kind!r}; expected one of {SETTINGS}")
        if self.window_len < 1:
            raise ConfigError("window_len must be positive")


@dataclass
class EvalRun:
    """Scores for one evaluation: per-unit reports plus pooled/macro corpus
    aggregates, wall-clock seconds and best-effort peak memory."""

    setting: Setting
    units: list[tuple[str, ScoreReport]] = field(default_factory=list)
    pooled: ScoreReport | None = None
    macro: ScoreReport | None = None
    missing_units: list[str] = field(default_factory=list)
    unmatched_responses: list[str] = field(default_factory=list)
    seconds: float = 0.0
    peak_rss_mb: float | None = None

    def to_dict(self) -> dict:
        return {
            "setting": {"kind": self.setting.kind, "window_len": self.setting.window_len},
            "pooled": self.pooled.to_dict() if self.pooled else None,
            "macro": self.macro.to_dict() if self.macro else None,
            "units": {unit: report.to_dict() for unit, report in self.units},
            "missing_units": self.missing_units,
            "unmatched_responses": self.unmatched_responses,
            "seconds": self.seconds,
            "peak_rss_mb": self.peak_rss_mb,
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
        lines.append(f"scored in {self.seconds:.2f}s")
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


def _pick(rec: DocumentRecord, name: str) -> ClusterSet | None:
    cs = rec.cluster_sets.get(name)
    if cs is None and len(rec.cluster_sets) == 1:
        cs = next(iter(rec.cluster_sets.values()))
    return cs


_Unit = tuple[str, ClusterSet, ClusterSet | None]
_Lookup = Callable[[Document], ClusterSet | None]


def _document_units(docs: CorpusFile, key_name: str, response_for: _Lookup) -> Iterator[_Unit]:
    """full_book's units, and split's once the key corpus is cut into windows."""
    for rec in docs.records:
        key_cs = _pick(rec, key_name)
        if key_cs is not None:
            yield rec.document.doc_id, key_cs, response_for(rec.document)


def _window_units(
    docs: CorpusFile, key_name: str, response_for: _Lookup, window_len: int, missing: list[str]
) -> Iterator[_Unit]:
    """gold_plus_window's units: each side of a document is sliced at every
    window by one :func:`~bookcoref.model.cut`. A missing response is flagged
    here, for the document, and its windows are scored against an empty set."""
    for rec in docs.records:
        key_cs = _pick(rec, key_name)
        if key_cs is None:
            continue
        doc_id = rec.document.doc_id
        resp_cs = response_for(rec.document)
        if resp_cs is None:
            missing.append(doc_id)
            resp_cs = ClusterSet(doc_id, "prediction")
        windows = plan_windows(rec.document, window_len, "strict").windows
        for i, (key_part, resp_part) in enumerate(zip(cut(key_cs, windows), cut(resp_cs, windows)), 1):
            yield window_doc_id(doc_id, i), drop_empty(key_part), drop_empty(resp_part)


def evaluate(
    setting: Setting,
    key_corpus: CorpusFile,
    response_corpus: CorpusFile,
    key_name: str = "gold",
    response_name: str = "prediction",
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

    def response_for(key_doc: Document) -> ClusterSet | None:
        looked_up.add(key_doc.doc_id)
        resp = responses.get(key_doc.doc_id)
        if resp is not None and len(resp.document) != len(key_doc):
            raise ContractError(
                f"response document {resp.document.doc_id!r} has {len(resp.document)} tokens, "
                f"but key document {key_doc.doc_id!r} has {len(key_doc)}"
            )
        return _pick(resp, response_name) if resp is not None else None

    if setting.kind == "gold_plus_window":
        units = _window_units(key_corpus, key_name, response_for, setting.window_len, run.missing_units)
    elif setting.kind == "split":
        units = _document_units(split_corpus(key_corpus, setting.window_len).corpus, key_name, response_for)
    else:
        units = _document_units(key_corpus, key_name, response_for)

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
    run.seconds = time.perf_counter() - started
    run.peak_rss_mb = _peak_rss_mb()
    return run
