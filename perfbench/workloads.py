"""The benchmark's workloads: input generation, the three timed phases and
the untimed checks of their outputs.

Every workload annotates a gold corpus, scores a split-chain response
against it and analyses it:

* ``annotate`` - gold JSONL on disk -> ``pipeline.run`` per document ->
  predictions JSONL on disk;
* ``score``    - read key and response, ``split_corpus`` the response,
  ``evaluate`` under the three settings, plus ``linking_prf``;
* ``analyse``  - ``corpus_stats``, ``validate``, a ``write_conll`` ->
  ``read_conll`` round trip and a ``memsim.sweep`` over LRU and dual
  policies at fixed capacities.

The gold corpus is the generator's calibrated reference corpus at its
default seed, ``synthetic.DEFAULT_SEED``, whatever the benchmark's seed. The
benchmark's seed draws where the response cuts each gold chain: the first
part keeps the character's name, the second part is keyed ``<name>#2``. Its
scores have closed forms that are computed here without the scorer.

Library functions are called through their modules, so that the tracer's
patching of module bindings reaches these calls too.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from dataclasses import dataclass

from bookcoref import formats, harness, memsim, metrics, model, pipeline, remote, synthetic, windowing
from bookcoref.formats import CorpusFile, DocumentRecord
from bookcoref.model import ClusterSet, Document, Mention

from stub import StubProcess, judge_answer

#: Capacities of the LRU and dual memory-policy sweep.
CAPACITIES = (1, 2, 4, 8, 16, 32)
PHASES = ("annotate", "score", "analyse")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc_ids: tuple[str, ...]
    tile: int = 1
    remote: bool = False
    jobs: int = 1

    def runs_alone(self, phase: str) -> bool:
        """Whether ``phase`` runs on the calling thread and waits on no other
        process, so its time tracks that thread's CPU speed. The remote
        annotate waits on the stub and, with ``jobs=2``, runs expansion on
        pool threads. (The remote set-up starts the stub, a small share.)"""
        return not (self.remote and phase == "annotate")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "remote-2ms",
            "call-bound: HTTP link/judge/expand against a loopback stub adding 2 ms per request, jobs=2",
            ("synthetic_fable", "synthetic_journey"),
            remote=True,
            jobs=2,
        ),
        Workload(
            "reference-local",
            "the calibrated 3-book corpus (229k tokens) with oracle components: every local layer, CPU-bound",
            ("synthetic_fable", "synthetic_journey", "synthetic_manor"),
        ),
        Workload(
            "longbook-local",
            "one 291k-token book (synthetic_manor tiled 2x): the layers that grow quadratically dominate",
            ("synthetic_manor",),
            tile=2,
        ),
    )
}


class HashJudge:
    """Local twin of the stub's judge, for the remote reference run."""

    name = "hash"

    def judge(self, request: pipeline.JudgeRequest) -> bool:
        return judge_answer(request.prompt) == "Yes"


def tile(rec: DocumentRecord, copies: int) -> DocumentRecord:
    """Repeat a book ``copies`` times, each copy padded to a whole number of
    windows so that, as in the generator, no mention straddles a window
    boundary. Chains continue across copies under the same names."""
    doc, gold = rec.document, rec.cluster_sets["gold"]
    n = len(doc.tokens)
    period = -(-n // windowing.DEFAULT_WINDOW_LEN) * windowing.DEFAULT_WINDOW_LEN
    tokens = (doc.tokens + (".",) * (period - n)) * copies
    clusters = {
        key: [Mention(m.start + i * period, m.end + i * period) for i in range(copies) for m in ms]
        for key, ms in gold.clusters.items()
    }
    doc_id = f"{doc.doc_id}_x{copies}"
    source = dict(doc.source or {}, tiled=copies)
    return DocumentRecord(
        Document(doc_id, tokens, doc.characters, source),
        {"gold": ClusterSet.build(doc_id, "gold", clusters)},
    )


def cut_points(corpus: CorpusFile, seed: int) -> dict[tuple[str, str], int]:
    """Where the response cuts each gold chain, keyed by (doc_id, chain): a
    mention index drawn from ``seed`` that leaves both parts non-empty. A
    chain of one mention is cut before it."""
    rng = random.Random(seed)
    return {
        (rec.document.doc_id, key): rng.randint(1, len(ms) - 1) if len(ms) > 1 else 0
        for rec in corpus.records
        for key, ms in rec.cluster_sets["gold"].clusters.items()
    }


def split_chains(corpus: CorpusFile, cuts: dict[tuple[str, str], int]) -> CorpusFile:
    """The response to score: each gold chain cut at its cut point."""
    out = CorpusFile()
    for rec in corpus.records:
        gold = rec.cluster_sets["gold"]
        clusters: dict[str, tuple[Mention, ...]] = {}
        for key, ms in gold.clusters.items():
            cut = cuts[(rec.document.doc_id, key)]
            clusters[key] = ms[:cut]
            clusters[f"{key}#2"] = ms[cut:]
        out.records.append(
            DocumentRecord(rec.document, {"prediction": ClusterSet(gold.doc_id, "prediction", clusters)})
        )
    return out


@dataclass(frozen=True)
class Expected:
    """Reference values the checks compare against, computed without the
    library's scorers."""

    tokens: int
    mentions: int
    chains: int
    muc_recall_counts: tuple[int, int]  # sum(n - 2), sum(n - 1)
    b3_recall_counts: tuple[float, int]  # sum((a^2 + b^2) / n), sum(n)
    linking_tp: int  # sum(a)
    remote_final: dict[str, dict] | None = None
    service_calls: int = 0


def closed_forms(corpus: CorpusFile, cuts: dict[tuple[str, str], int]) -> Expected:
    """Scores of the split-chain response in closed form. A chain of n
    mentions split into parts a and b has MUC recall (n - 2) / (n - 1) and B3
    recall (a^2 + b^2) / n over n; precision is 1 for both. A part of one
    mention is a singleton, which scoring drops, so it adds 0 to B3."""
    muc_num = muc_den = n_total = tp = 0
    b3_num = 0.0
    tokens = chains = 0
    for rec in corpus.records:
        tokens += len(rec.document.tokens)
        for key, ms in rec.cluster_sets["gold"].clusters.items():
            n = len(ms)
            if n == 0:
                continue
            a = cuts[(rec.document.doc_id, key)]
            b = n - a
            chains += 1
            muc_num += n - 2
            muc_den += n - 1
            b3_num += sum(p * p for p in (a, b) if p > 1) / n
            n_total += n
            tp += a
    return Expected(tokens, n_total, chains, (muc_num, muc_den), (b3_num, n_total), tp)


@dataclass
class Setup:
    """Generated inputs on disk plus what the checks need."""

    workload: Workload
    workdir: str
    corpus: CorpusFile
    key_path: str
    response_path: str
    expected: Expected
    stub: StubProcess | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


def make_corpus(workload: Workload) -> CorpusFile:
    """The workload's corpus, cut from the reference corpus at the
    generator's default seed. (``make_reference_corpus`` fails its own
    calibration self-check at some other seeds, e.g. 0, 9 and 24.)"""
    full = synthetic.make_reference_corpus(synthetic.DEFAULT_SEED).by_id()
    records = [full[doc_id] for doc_id in workload.doc_ids]
    if workload.tile > 1:
        records = [tile(rec, workload.tile) for rec in records]
    return CorpusFile(records)


def _final_clusters(cs: ClusterSet) -> dict:
    return {str(k): [[m.start, m.end] for m in ms] for k, ms in cs.clusters.items()}


def setup(workload: Workload, seed: int, workdir: str) -> Setup:
    """Generate the inputs (``seed`` draws the response's cut points), write
    them, start the stub and compute the check references."""
    os.makedirs(workdir, exist_ok=True)
    corpus = make_corpus(workload)
    cuts = cut_points(corpus, seed)
    key_path = os.path.join(workdir, "gold.jsonl")
    response_path = os.path.join(workdir, "response.jsonl")
    formats.write_jsonl(corpus, key_path)
    formats.write_jsonl(split_chains(corpus, cuts), response_path, clusters_from="prediction")
    expected = closed_forms(corpus, cuts)
    s = Setup(workload, workdir, corpus, key_path, response_path, expected)
    if workload.remote:
        links = {rec.document.doc_id: _final_clusters(pipeline.pattern_match(rec.document)) for rec in corpus}
        links_path = s.path("links.json")
        with open(links_path, "w", encoding="utf-8") as f:
            json.dump(links, f)
        config = pipeline.PipelineConfig(jobs=1)
        finals, calls = {}, 0
        for rec in corpus:
            final, trace = pipeline.run(
                rec.document, config, pipeline.PatternMatchLinker(), HashJudge(), pipeline.IdentityExpander()
            )
            finals[rec.document.doc_id] = _final_clusters(final)
            calls += len(trace.judge_verdicts) + len(trace.window_records) + 1
        s.expected = dataclasses.replace(expected, remote_final=finals, service_calls=calls)
        s.stub = StubProcess(links_path, s.path("stub.log"))
    return s


# --- phases -----------------------------------------------------------------


@dataclass
class Annotated:
    finals: dict[str, ClusterSet]
    out_path: str
    client: remote.ServiceClient | None = None


def annotate(s: Setup, out_path: str, cache_dir: str | None = None) -> Annotated:
    """Gold JSONL -> pipeline.run per document -> predictions JSONL."""
    wl = s.workload
    corpus = formats.read_jsonl(s.key_path)
    config = pipeline.PipelineConfig(jobs=wl.jobs)
    client = None
    if wl.remote:
        client = remote.ServiceClient(s.stub.url, cache_dir=cache_dir)
        components = (remote.HttpLinker(client), remote.HttpJudge(client), remote.HttpExpander(client))
    out = CorpusFile()
    finals = {}
    for rec in corpus.records:
        if not wl.remote:
            gold = rec.cluster_sets["gold"]
            components = (pipeline.OracleLinker(gold), pipeline.OracleJudge(gold), pipeline.OracleExpander(gold))
        final, _ = pipeline.run(rec.document, config, *components)
        finals[rec.document.doc_id] = final
        out.records.append(DocumentRecord(rec.document, {"prediction": final.with_stage("prediction")}))
    formats.write_jsonl(out, out_path, clusters_from="prediction")
    return Annotated(finals, out_path, client)


@dataclass
class Scored:
    runs: dict[str, harness.EvalRun]
    linking: metrics.PRF


def score(s: Setup) -> Scored:
    key = formats.read_jsonl(s.key_path)
    response = formats.read_jsonl(s.response_path, clusters_as="prediction")
    split = windowing.split_corpus(response)
    runs = {
        "full_book": harness.evaluate(harness.Setting("full_book"), key, response),
        "split": harness.evaluate(harness.Setting("split"), key, split.corpus),
        "gold_plus_window": harness.evaluate(harness.Setting("gold_plus_window"), key, response),
    }
    responses = response.by_id()
    prfs = [
        metrics.linking_prf(rec.cluster_sets["gold"], responses[rec.document.doc_id].cluster_sets["prediction"])
        for rec in key.records
    ]
    linking = metrics.PRF.from_counts(
        sum(p.p_num for p in prfs), sum(p.p_den for p in prfs), sum(p.r_num for p in prfs), sum(p.r_den for p in prfs)
    )
    return Scored(runs, linking)


@dataclass
class Analysed:
    stats: metrics.CorpusStats
    reports: list[model.ValidationReport]
    conll: CorpusFile
    sweeps: dict[str, list]


def policies() -> list[memsim.Policy]:
    return [memsim.Policy.lru(k) for k in CAPACITIES] + [memsim.Policy.dual(k, k) for k in CAPACITIES]


def analyse(s: Setup, conll_path: str) -> Analysed:
    corpus = s.corpus
    stats = metrics.corpus_stats(corpus)
    reports = [model.validate(rec.document, rec.cluster_sets["gold"]) for rec in corpus]
    formats.write_conll(corpus, conll_path)
    back = formats.read_conll(conll_path)
    sweeps = {rec.document.doc_id: memsim.sweep(rec.cluster_sets["gold"], policies()) for rec in corpus}
    return Analysed(stats, reports, back, sweeps)


# --- checks (untimed) ---------------------------------------------------------
# Each returns a list of failure messages; empty means the phase is correct.


def check_annotate(s: Setup, got: Annotated) -> list[str]:
    problems = []
    if not os.path.exists(got.out_path):
        problems.append("annotate wrote no predictions file")
    for rec in s.corpus:
        doc_id = rec.document.doc_id
        final = got.finals.get(doc_id)
        if final is None:
            problems.append(f"annotate: no output for {doc_id}")
        elif s.workload.remote:
            if _final_clusters(final) != s.expected.remote_final[doc_id]:
                problems.append(f"annotate: {doc_id} differs from the local run with the same rules")
        elif dict(final.clusters) != dict(rec.cluster_sets["gold"].clusters):
            problems.append(f"annotate: oracle output for {doc_id} differs from gold")
    return problems


def check_service_calls(s: Setup, stub_stats: dict) -> list[str]:
    got, want = stub_stats["attempts"], s.expected.service_calls
    if got != want:
        return [f"annotate: stub received {got} requests, expected {want}"]
    return []


def replay(s: Setup, got: Annotated, cache_dir: str) -> tuple[Annotated, list[str]]:
    """Re-run annotate over the warm cache; it must not reach the stub and
    must write byte-identical predictions."""
    before = s.stub.stats()["attempts"]
    again = annotate(s, s.path("replay.jsonl"), cache_dir)
    problems = []
    reached = s.stub.stats()["attempts"] - before
    if reached:
        problems.append(f"replay: {reached} requests reached the stub")
    if cache_hit_ratio(again.client) != 1.0:
        problems.append(f"replay: cache hit ratio {cache_hit_ratio(again.client)}")
    with open(got.out_path, "rb") as a, open(again.out_path, "rb") as b:
        if a.read() != b.read():
            problems.append("replay: predictions are not byte-identical")
    return again, problems


def cache_hit_ratio(client: remote.ServiceClient) -> float:
    log = client.log
    return sum(1 for entry in log if entry["cached"]) / len(log) if log else 0.0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_score(s: Setup, got: Scored) -> list[str]:
    exp = s.expected
    problems = []
    full = got.runs["full_book"].pooled
    if (full.muc.r_num, full.muc.r_den) != exp.muc_recall_counts:
        problems.append(f"score: full_book MUC recall counts {full.muc.r_num}/{full.muc.r_den} != {exp.muc_recall_counts}")
    if not (_close(full.b3.r_num, exp.b3_recall_counts[0]) and full.b3.r_den == exp.b3_recall_counts[1]):
        problems.append(f"score: full_book B3 recall counts {full.b3.r_num}/{full.b3.r_den} != {exp.b3_recall_counts}")
    for kind, run in got.runs.items():
        if run.pooled is None or run.missing_units or run.unmatched_responses:
            problems.append(f"score: {kind} did not match every unit")
            continue
        for metric in ("muc", "b3"):
            p = getattr(run.pooled, metric).precision
            if not _close(p, 1.0):
                problems.append(f"score: {kind} {metric} precision {p} != 1")
    want = exp.linking_tp / exp.mentions
    if not (_close(got.linking.precision, want) and _close(got.linking.recall, want)):
        problems.append(f"score: linking P/R {got.linking.precision}/{got.linking.recall} != {want}")
    return problems


def _partition(cs: ClusterSet) -> set[frozenset]:
    return {frozenset(ms) for ms in cs.clusters.values() if ms}


def check_analyse(s: Setup, got: Analysed) -> list[str]:
    exp = s.expected
    problems = []
    st = got.stats
    if (st.tokens, st.mentions, st.chains) != (exp.tokens, exp.mentions, exp.chains):
        problems.append(f"analyse: corpus_stats {st.tokens}/{st.mentions}/{st.chains} wrong")
    if not all(r.ok for r in got.reports):
        problems.append("analyse: validate reported errors on gold")
    back = got.conll.by_id()
    for rec in s.corpus:
        doc_id = rec.document.doc_id
        r = back.get(doc_id)
        if r is None or r.document.tokens != rec.document.tokens:
            problems.append(f"analyse: CoNLL round trip lost {doc_id} or its tokens")
        elif _partition(r.cluster_sets["prediction"]) != _partition(rec.cluster_sets["gold"]):
            problems.append(f"analyse: CoNLL round trip changed the partition of {doc_id}")
        results = got.sweeps[doc_id]
        lru = [(p, rep) for p, rep in results if p.kind == "lru"]
        stream = memsim.mention_stream(rec.cluster_sets["gold"])
        if any(rep != memsim.simulate(stream, p) for p, rep in lru):
            problems.append(f"analyse: LRU sweep of {doc_id} differs from per-capacity simulate")
        errors = [rep.forced_errors for _, rep in lru]
        if any(b > a for a, b in zip(errors, errors[1:])):
            problems.append(f"analyse: LRU forced errors of {doc_id} rise with capacity: {errors}")
    return problems
