"""Smoke tests for the benchmark's own parts, on small inputs.

    python3 -m pytest perfbench/test_smoke.py -q

They sit outside ``tests/`` so the project's test run does not collect them.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from bookcoref import harness, model, pipeline, remote, windowing  # noqa: E402
from bookcoref.formats import CorpusFile, DocumentRecord, write_jsonl  # noqa: E402
from bookcoref.model import ClusterSet, Document, Mention  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from stub import StubProcess, judge_answer  # noqa: E402
from tracer import Tracer, covered, installed  # noqa: E402


def tiny_corpus() -> CorpusFile:
    tokens = tuple(f"t{i}" for i in range(60))
    chains = {
        "Ann": [Mention(i, i) for i in (1, 5, 9, 13, 30)],
        "Ben": [Mention(i, i + 1) for i in (3, 17, 40, 50)],
        "Cy": [Mention(i, i) for i in (22, 44)],
    }
    doc = Document("tiny", tokens, ("Ann", "Ben", "Cy"))
    return CorpusFile([DocumentRecord(doc, {"gold": ClusterSet.build("tiny", "gold", chains)})])


#: Ann 5 -> 2+3, Ben 4 -> 3+1 (second part a singleton), Cy 2 -> 1+1 (both singletons)
TINY_CUTS = {("tiny", "Ann"): 2, ("tiny", "Ben"): 3, ("tiny", "Cy"): 1}


def tiny_setup(tmp_path, cuts=TINY_CUTS) -> wl.Setup:
    corpus = tiny_corpus()
    key, response = str(tmp_path / "gold.jsonl"), str(tmp_path / "response.jsonl")
    write_jsonl(corpus, key)
    write_jsonl(wl.split_chains(corpus, cuts), response, clusters_from="prediction")
    workload = wl.Workload("tiny", "smoke", ("tiny",))
    return wl.Setup(workload, str(tmp_path), corpus, key, response, wl.closed_forms(corpus, cuts))


class TestStub:
    @pytest.fixture()
    def stub(self, tmp_path):
        links = tmp_path / "links.json"
        links.write_text(json.dumps({"d1": {"Ann": [[0, 0]]}}))
        with StubProcess(str(links), str(tmp_path / "stub.log")) as s:
            yield s

    def post(self, conn, route, body):
        conn.request("POST", route, json.dumps(body), {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())

    def test_wire_replies_and_counters(self, stub):
        conn = http.client.HTTPConnection("127.0.0.1", stub.port, timeout=10)
        try:
            assert self.post(conn, "/link", {"doc_id": "d1", "tokens": ["Ann"], "characters": ["Ann"]}) == (
                200,
                {"clusters": {"Ann": [[0, 0]]}},
            )
            prompts = [f"prompt {i}" for i in range(30)]
            answers = [self.post(conn, "/judge", {"prompt": p, "decoding": remote.DECODING}) for p in prompts]
            assert [a[1]["answer"] for a in answers] == [judge_answer(p) for p in prompts]
            assert {judge_answer(p) for p in prompts} == {"Yes", "No"}
            seeds = {"Ann": [[1, 2]], "Ben": []}
            assert self.post(conn, "/expand", {"tokens": ["a"] * 3, "seeds": seeds}) == (200, {"clusters": seeds})
            assert self.post(conn, "/nope", {})[0] == 404
        finally:
            conn.close()
        stats = stub.stats()
        assert stats["requests"] == {"link": 1, "judge": 30, "expand": 1}
        assert stats["attempts"] == 33 and stats["non_2xx"] == 1
        assert stats["max_inflight"] == 1 and stats["bytes_in"] > 0 and stats["bytes_out"] > 0
        stub.reset()
        assert stub.stats()["attempts"] == 0

    def test_keep_alive_requests_do_not_stall(self, stub):
        # headers and body written apart would add a delayed-ACK stall (~40 ms)
        conn = http.client.HTTPConnection("127.0.0.1", stub.port, timeout=10)
        times = []
        try:
            for i in range(20):
                started = time.perf_counter()
                self.post(conn, "/judge", {"prompt": f"p{i}", "decoding": remote.DECODING})
                times.append(time.perf_counter() - started)
        finally:
            conn.close()
        assert statistics.median(times) < 0.025

    def test_stub_exits_when_closed(self, tmp_path):
        links = tmp_path / "links.json"
        links.write_text("{}")
        s = StubProcess(str(links), str(tmp_path / "stub.log"))
        s.close()
        assert s.proc.poll() is not None


class TestClosedForms:
    def test_split_chain_scores_match_closed_forms(self, tmp_path):
        s = tiny_setup(tmp_path)
        assert s.expected.muc_recall_counts == (3 + 2 + 0, 4 + 3 + 1)
        assert s.expected.b3_recall_counts == pytest.approx(((4 + 9) / 5 + 9 / 4 + 0.0, 11))
        assert s.expected.linking_tp == 2 + 3 + 1
        assert wl.check_score(s, wl.score(s)) == []

    @pytest.mark.parametrize("seed", [1, 13, 14])
    def test_seeded_cuts_leave_both_parts_and_pass_the_check(self, tmp_path, seed):
        cuts = wl.cut_points(tiny_corpus(), seed)
        assert cuts == wl.cut_points(tiny_corpus(), seed)
        sizes = {"Ann": 5, "Ben": 4, "Cy": 2}
        assert all(1 <= cuts[("tiny", k)] < n for k, n in sizes.items())
        s = tiny_setup(tmp_path, cuts)
        assert wl.check_score(s, wl.score(s)) == []

    def test_check_catches_a_wrong_score(self, tmp_path):
        s = tiny_setup(tmp_path)
        got = wl.score(s)
        pooled = got.runs["full_book"].pooled
        wrong = pooled.muc.__class__.from_counts(pooled.muc.p_num, pooled.muc.p_den, pooled.muc.r_num + 1, pooled.muc.r_den)
        got.runs["full_book"].pooled = pooled.__class__(wrong, pooled.b3, pooled.ceaf, pooled.conll_f1)
        assert any("MUC recall" in p for p in wl.check_score(s, got))

    def test_analyse_and_annotate_checks_pass(self, tmp_path):
        s = tiny_setup(tmp_path)
        assert wl.check_analyse(s, wl.analyse(s, str(tmp_path / "gold.conll"))) == []
        assert wl.check_annotate(s, wl.annotate(s, str(tmp_path / "pred.jsonl"))) == []


def test_cpu_speed_samples_while_the_phase_runs():
    speed = run.CpuSpeed()
    with speed.phase("busy"):
        started = time.perf_counter()
        while time.perf_counter() - started < 0.3:
            pass
    assert speed.kernel_s["busy"][0] > 0
    assert speed.factors["busy"][0] > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert speed.rescaled("busy", [0.3])[0] > 0


class TestTracer:
    def snapshot(self):
        modules = layers.program_modules()
        return {(m.__name__, name): value for m in modules for name, value in vars(m).items() if callable(value)}

    def test_every_binding_is_wrapped_and_restored(self, tmp_path):
        before = self.snapshot()
        methods = {(cls, "judge"): vars(cls)["judge"] for cls in (pipeline.OracleJudge, remote.HttpJudge)}
        tracer = Tracer()
        with installed(tracer, layers.phase_targets(), layers.program_modules()):
            # restrict is bound in model, pipeline, harness, windowing and the package
            for mod in (model, pipeline, harness, windowing):
                assert mod.restrict is not before[(mod.__name__, "restrict")]
            assert vars(pipeline.OracleJudge)["judge"] is not methods[(pipeline.OracleJudge, "judge")]
            s = tiny_setup(tmp_path)
            wl.annotate(s, str(tmp_path / "pred.jsonl"))
            wl.score(s)
        assert self.snapshot() == before
        assert all(vars(cls)[attr] is fn for (cls, attr), fn in methods.items())
        summary = tracer.summary()
        assert summary["model.restrict"]["calls"] > 0
        assert summary["harness.evaluate.split"]["calls"] == 1
        assert summary["pipeline.judge"]["calls"] == 5 + 4 + 2  # every tiny-corpus mention is explicit

    def test_pool_thread_spans_belong_to_their_pass(self, tmp_path):
        corpus = tiny_corpus()
        rec = corpus.records[0]
        gold = rec.cluster_sets["gold"]
        config = pipeline.PipelineConfig(window_len=10, group_size=2, jobs=2)
        tracer = Tracer()
        with installed(tracer, layers.phase_targets(), layers.program_modules()):
            pipeline.run(
                rec.document, config, pipeline.OracleLinker(gold), pipeline.OracleJudge(gold), pipeline.OracleExpander(gold)
            )
        names = [span[0] for span in tracer.spans]
        for name, _, _, parent in tracer.spans:
            if name == "pipeline.expand":
                while tracer.spans[parent][0] not in ("pipeline.expand_pass.window", "pipeline.expand_pass.group"):
                    parent = tracer.spans[parent][3]
                    assert parent is not None
        assert "pipeline.expand" in names
        summary = tracer.summary()
        for label in ("window", "group"):
            row = summary[f"pipeline.expand_pass.{label}"]
            assert 0 <= row["self_s"] <= row["s"]

    def test_summary_by_top_level_span(self):
        tracer = Tracer()
        with tracer.span("phase.a"), tracer.span("f"):
            pass
        with tracer.span("phase.b"), tracer.span("f"), tracer.span("f"):
            pass
        assert tracer.summary(root="phase.a")["f"]["calls"] == 1
        assert tracer.summary(root="phase.b")["f"]["calls"] == 2
        assert tracer.summary()["f"]["calls"] == 3

    def test_covered_counts_overlap_once(self):
        assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(4.0)
        assert covered([(0.0, 20.0)], 1.0, 2.0) == pytest.approx(1.0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(wl.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in wl.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.per_layer_spec()
