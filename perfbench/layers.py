"""What the traced run wraps, the per-layer metrics it reports, and which
end-to-end metric each layer should move on which workload.

Per-layer names are ``<module>.<function>.<qty>``; every wrapped function
reports ``calls``, ``s`` (total seconds) and ``self_s`` (seconds not spent in
a wrapped callee).
"""

from __future__ import annotations

import math
import os
import sys

from bookcoref import formats, harness, memsim, metrics, model, pipeline, remote, synthetic, windowing
from bookcoref.windowing import GroupedWindowPlan

from tracer import Target, Tracer
from workloads import PHASES


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _bytes_written(tr: Tracer, args, kwargs, result) -> None:
    tr.add("formats.bytes_written", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _restrict(tr: Tracer, args, kwargs, result) -> None:
    tr.add("model.restrict.mentions_scanned", args[0].n_mentions)
    tr.add("model.restrict.mentions_kept", result.n_mentions)


def _windows(tr: Tracer, args, kwargs, result) -> None:
    tr.add("windowing.windows", len(result))


def _units(tr: Tracer, args, kwargs, result) -> None:
    tr.add("harness.units", len(result.units))


def _pass_name(args, kwargs) -> str:
    grouped = isinstance(_arg(args, kwargs, 2, "plan"), GroupedWindowPlan)
    return "pipeline.expand_pass." + ("group" if grouped else "window")


def _evaluate_name(args, kwargs) -> str:
    return "harness.evaluate." + _arg(args, kwargs, 0, "setting").kind


#: The span names a target that names its spans per call can give.
CALL_NAMES = {
    _pass_name: ("pipeline.expand_pass.window", "pipeline.expand_pass.group"),
    _evaluate_name: tuple(f"harness.evaluate.{kind}" for kind in ("full_book", "split", "gold_plus_window")),
}
#: Spans reported by metrics of their own (see ``EXTRA``), not by calls / s / self_s.
OWN_METRICS = ("remote.ServiceClient.post", "pipeline.judge", "pipeline.expand")


def phase_targets() -> list[Target]:
    """Wrapped while a phase runs."""
    targets = [
        Target(formats, "read_jsonl", "formats.read_jsonl"),
        Target(formats, "write_jsonl", "formats.write_jsonl", _bytes_written),
        Target(formats, "write_conll", "formats.write_conll", _bytes_written),
        Target(formats, "read_conll", "formats.read_conll"),
        Target(model, "restrict", "model.restrict", _restrict),
        Target(model, "shift", "model.shift"),
        Target(model, "union", "model.union"),
        Target(model, "validate", "model.validate"),
        Target(windowing, "plan_windows", "windowing.plan_windows", _windows),
        Target(windowing, "plan_groups", "windowing.plan_groups"),
        Target(windowing, "split_corpus", "windowing.split_corpus"),
        Target(pipeline, "initialize", "pipeline.initialize"),
        Target(pipeline, "refine", "pipeline.refine"),
        Target(pipeline, "expand_pass", _pass_name, is_pass=True),
        Target(pipeline, "build_prompt", "pipeline.build_prompt"),
        Target(remote.ServiceClient, "post", "remote.ServiceClient.post"),
    ]
    for fn in ("conll", "muc", "b_cubed", "ceaf_phi4", "linear_sum_assignment", "pool_reports", "corpus_stats", "linking_prf"):
        targets.append(Target(metrics, fn, f"metrics.{fn}"))
    targets += [
        Target(harness, "evaluate", _evaluate_name, _units),
        Target(memsim, "sweep", "memsim.sweep"),
        Target(memsim, "simulate", "memsim.simulate"),
        Target(memsim, "mention_stream", "memsim.mention_stream"),
    ]
    # the components' calls: time the pipeline spends waiting on them
    for cls in (pipeline.OracleJudge, remote.HttpJudge):
        targets.append(Target(cls, "judge", "pipeline.judge"))
    for cls in (pipeline.OracleExpander, remote.HttpExpander):
        targets.append(Target(cls, "expand", "pipeline.expand"))
    return targets


def setup_targets() -> list[Target]:
    """Wrapped while set-up runs."""
    return [Target(synthetic, "make_reference_corpus", "synthetic.make_reference_corpus")]


def program_modules() -> list:
    """Modules whose bindings the tracer patches."""
    return [m for name, m in sys.modules.items() if name == "bookcoref" or name.startswith("bookcoref.")]


def _functions() -> tuple[str, ...]:
    names: list[str] = []
    for t in phase_targets() + setup_targets():
        names += CALL_NAMES[t.name] if callable(t.name) else [t.name]
    return tuple(n for n in dict.fromkeys(names) if n not in OWN_METRICS)


#: Every wrapped function that reports calls, s and self_s, in report order.
FUNCTIONS = _functions()

#: Per-layer metrics beside each function's calls / s / self_s:
#: (name, unit, better).
EXTRA = (
    ("formats.bytes_written", "bytes", "lower"),
    ("model.restrict.mentions_scanned", "count", "lower"),
    ("model.restrict.kept_ratio", "ratio", "higher"),
) + tuple((f"model.restrict.{phase}_self_s", "s", "lower") for phase in PHASES) + (
    ("windowing.windows", "count", "lower"),
    ("pipeline.judge.calls", "count", "lower"),
    ("pipeline.judge.wait_s", "s", "lower"),
    ("pipeline.expand.calls", "count", "lower"),
    ("pipeline.expand.wait_s", "s", "lower"),
    ("harness.units", "count", "lower"),
    ("remote.ServiceClient.post.calls", "count", "lower"),
    ("remote.ServiceClient.post.s", "s", "lower"),
    ("remote.ServiceClient.post.p50_ms", "ms", "lower"),
    ("remote.ServiceClient.post.p95_ms", "ms", "lower"),
    ("remote.useful_ratio", "ratio", "higher"),
    ("remote.replay.s", "s", "lower"),
    ("remote.cache_hit_ratio", "ratio", "higher"),
    ("service_calls", "count", "lower"),
    ("stub.requests.link", "count", "lower"),
    ("stub.requests.judge", "count", "lower"),
    ("stub.requests.expand", "count", "lower"),
    ("stub.bytes_in", "bytes", "lower"),
    ("stub.bytes_out", "bytes", "lower"),
    ("stub.max_inflight", "count", "higher"),
    ("stub.service_s", "s", "lower"),
) + tuple(
    (f"{phase}.{qty}", unit, "lower")
    for phase in PHASES
    for qty, unit in (("rss_growth_mb", "MB"), ("trace_overhead", "s"))
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for fn in FUNCTIONS:
        spec += [(f"{fn}.calls", "count", "lower"), (f"{fn}.s", "s", "lower"), (f"{fn}.self_s", "s", "lower")]
    return spec + list(EXTRA)


#: Which end-to-end metric each layer should move, and where. Layers that
#: the remote workload barely exercises should leave it unchanged.
LAYER_EFFECTS = {
    "formats": "analyse_s (CoNLL) and annotate_s / score_s (JSONL), mostly on longbook-local",
    "model": "annotate_s and score_s on longbook-local, less on reference-local, ~0 on remote-2ms",
    "windowing": "score_s (split) on the local workloads",
    "pipeline": "annotate_s on every workload",
    "remote": "annotate_s and service_calls on remote-2ms",
    "stub": "annotate_s on remote-2ms",
    "metrics": "score_s on the local workloads, largest share on reference-local",
    "harness": "score_s",
    "memsim": "analyse_s",
    "synthetic": "setup_s only",
}


def _percentile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(0, math.ceil(q * len(ordered)) - 1)  # nearest rank
    return ordered[rank] * 1000.0


def collect(tracer: Tracer, extra: dict[str, float]) -> dict[str, dict]:
    """Reduce the trace to the per-layer metrics; ``extra`` holds values
    measured outside the tracer (stub counters, replay, memory, overhead)."""
    summary = tracer.summary()
    values: dict[str, float] = {}
    for fn in FUNCTIONS:
        row = summary.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
        values[f"{fn}.calls"] = row["calls"]
        values[f"{fn}.s"] = row["s"]
        values[f"{fn}.self_s"] = row["self_s"]
    counts = tracer.counts
    scanned = counts["model.restrict.mentions_scanned"]
    post = tracer.durations("remote.ServiceClient.post")
    values.update(
        {
            "formats.bytes_written": counts["formats.bytes_written"],
            "model.restrict.mentions_scanned": scanned,
            "model.restrict.kept_ratio": counts["model.restrict.mentions_kept"] / scanned if scanned else 0.0,
            "windowing.windows": counts["windowing.windows"],
            "harness.units": counts["harness.units"],
            "remote.ServiceClient.post.calls": len(post),
            "remote.ServiceClient.post.s": sum(post),
            "remote.ServiceClient.post.p50_ms": _percentile_ms(post, 0.50),
            "remote.ServiceClient.post.p95_ms": _percentile_ms(post, 0.95),
        }
    )
    for phase in PHASES:
        row = tracer.summary(root=f"phase.{phase}").get("model.restrict", {"self_s": 0.0})
        values[f"model.restrict.{phase}_self_s"] = row["self_s"]
    for component in ("judge", "expand"):
        waits = tracer.durations(f"pipeline.{component}")
        values[f"pipeline.{component}.calls"] = len(waits)
        values[f"pipeline.{component}.wait_s"] = sum(waits)
    values.update(extra)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}
