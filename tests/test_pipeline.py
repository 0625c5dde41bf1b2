import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import pytest

from bookcoref import pipeline
from bookcoref.errors import (
    ConfigError,
    ContractError,
    FinalTransportError,
    PlanningError,
    StageError,
    TransportError,
)
from bookcoref.metrics import conll, linking_prf
from bookcoref.model import ClusterSet, Document, Mention, restrict
from bookcoref.pipeline import (
    DEFAULT_CONTEXT_WORDS,
    AcceptAllJudge,
    IdentityExpander,
    JudgeRequest,
    OracleExpander,
    OracleJudge,
    OracleLinker,
    PatternMatchLinker,
    PipelineConfig,
    PipelineTrace,
    RejectAllJudge,
    build_prompt,
    expand_pass,
    explicit_mentions,
    initialize,
    pattern_match,
    refine,
    run,
)
from bookcoref.windowing import plan_groups, plan_windows

from helpers import drop_timings


def make_doc(n=40, doc_id="d", characters=("Mr. Darcy", "Jane")):
    tokens = [f"w{i}" for i in range(n)]
    return Document(doc_id, tuple(tokens), characters)


class TestBuildPrompt:
    DOC = Document("d", tuple(f"t{i}" for i in range(1000)), ("X",))

    def test_contains_the_fixed_instruction_sentence(self):
        prompt = build_prompt(self.DOC, Mention(500, 500), "X")
        assert (
            "You will need to answer if the assigned character is correct (Yes), or not (No)."
            in prompt
        )
        assert prompt.endswith("Does the mention [t500] correspond to the character X? (Yes/No)")

    def test_mention_bracketed_with_symmetric_context(self):
        prompt = build_prompt(self.DOC, Mention(500, 501), "X", context_words=10)
        excerpt = prompt.split("Book excerpt: ")[1].split("\n")[0]
        assert excerpt == "t495 t496 t497 t498 t499 [t500 t501] t502 t503 t504 t505 t506"

    def test_clamped_at_document_start(self):
        prompt = build_prompt(self.DOC, Mention(0, 0), "X", context_words=10)
        excerpt = prompt.split("Book excerpt: ")[1].split("\n")[0]
        assert excerpt.startswith("[t0]")

    def test_clamped_at_document_end(self):
        prompt = build_prompt(self.DOC, Mention(999, 999), "X", context_words=10)
        excerpt = prompt.split("Book excerpt: ")[1].split("\n")[0]
        assert excerpt.endswith("[t999]")

    def test_identical_surroundings_identical_prompts(self):
        doc = Document("d", ("a", "b", "c", "x", "a", "b", "c", "x"), ("X",))
        p1 = build_prompt(doc, Mention(1, 1), "X", context_words=2)
        p2 = build_prompt(doc, Mention(5, 5), "X", context_words=2)
        assert p1 == p2


class TestPatternMatch:
    def test_exact_name_match(self):
        doc = Document("d", ("Mr.", "Darcy", "smiled"), ("Mr. Darcy",))
        cs = pattern_match(doc)
        assert cs.clusters["Mr. Darcy"] == (Mention(0, 1),)
        assert cs.stage == "initialized"

    def test_two_occurrences(self):
        doc = Document("d", ("Darcy", ",", "said", "Darcy"), ("Darcy",))
        assert pattern_match(doc).clusters["Darcy"] == (Mention(0, 0), Mention(3, 3))

    def test_full_name_rule_no_partial_match(self):
        doc = Document("d", ("only", "Darcy", "here"), ("Mr. Darcy",))
        assert pattern_match(doc).clusters["Mr. Darcy"] == ()

    def test_case_sensitive(self):
        doc = Document("d", ("darcy",), ("Darcy",))
        assert pattern_match(doc).clusters["Darcy"] == ()

    def test_overlapping_matches_of_different_characters_both_kept(self):
        doc = Document("d", ("Mr.", "Darcy",), ("Mr. Darcy", "Darcy"))
        cs = pattern_match(doc)
        assert cs.clusters["Mr. Darcy"] == (Mention(0, 1),)
        assert cs.clusters["Darcy"] == (Mention(1, 1),)

    def test_overlapping_matches_of_same_character_deduplicated(self):
        doc = Document("d", ("a", "a", "a"), ("a a",))
        assert pattern_match(doc).clusters["a a"] == (Mention(0, 1),)


class TestInitialize:
    def test_pattern_linker_end_to_end(self):
        doc = Document("d", ("Mr.", "Darcy", "smiled"), ("Mr. Darcy",))
        cs = initialize(doc, PatternMatchLinker())
        assert cs.stage == "initialized"
        assert cs.clusters["Mr. Darcy"] == (Mention(0, 1),)

    def test_empty_linker_output_is_legal(self):
        class EmptyLinker:
            name = "empty"

            def link(self, doc):
                return ClusterSet.build(doc.doc_id, "initialized", {})

        cs = initialize(make_doc(), EmptyLinker())
        assert cs.n_mentions == 0

    def test_unknown_character_is_contract_error(self):
        class BadLinker:
            name = "bad"

            def link(self, doc):
                return ClusterSet.build(doc.doc_id, "initialized", {"Wickham": [(0, 0)]})

        with pytest.raises(ContractError, match="unknown character"):
            initialize(make_doc(), BadLinker())

    def test_out_of_bounds_span_is_contract_error(self):
        class BadLinker:
            name = "bad"

            def link(self, doc):
                return ClusterSet.build(doc.doc_id, "initialized", {"Jane": [(0, 999)]})

        with pytest.raises(ContractError, match="out of bounds"):
            initialize(make_doc(), BadLinker())

    def test_span_in_two_clusters_is_the_linkers_contract_error(self):
        class DoubleLinker:
            name = "double"

            def link(self, doc):
                return ClusterSet.build(doc.doc_id, "initialized", {"B": [(1, 1)], "A": [(0, 0), (1, 1)]})

        doc = make_doc(3, characters=("A", "B"))
        message = r"^linker placed span \(1,1\) in clusters 'A' and 'B'$"
        with pytest.raises(ContractError, match=message):
            initialize(doc, DoubleLinker())
        # refused before any expander runs, so the expander is not blamed
        with pytest.raises(ContractError, match=message):
            run(doc, PipelineConfig(window_len=3), DoubleLinker(), AcceptAllJudge(), IdentityExpander())

    def test_pronoun_span_kept_with_warning(self):
        doc = Document("d", ("she", "smiled"), ("Jane",))

        class PronounLinker:
            name = "pronoun"

            def link(self, doc):
                return ClusterSet.build(doc.doc_id, "initialized", {"Jane": [(0, 0)]})

        from bookcoref.pipeline import PipelineTrace

        trace = PipelineTrace("d", "x")
        cs = initialize(doc, PronounLinker(), trace)
        assert cs.clusters["Jane"] == (Mention(0, 0),)
        assert any("pronoun" in w for w in trace.warnings)

    def test_oracle_linker_returns_gold_minus_pronouns(self, gold_corpus):
        rec = gold_corpus.records[0]
        gold = rec.cluster_sets["gold"]
        cs = initialize(rec.document, OracleLinker(gold))
        assert cs.clusters == explicit_mentions(rec.document, gold).clusters
        assert 0 < cs.n_mentions < gold.n_mentions
        # explicit mentions only: no single-token pronoun spans survive
        from bookcoref.model import PRONOUNS

        for _, m in cs.mentions():
            if m.start == m.end:
                assert rec.document.tokens[m.start].lower() not in PRONOUNS


class TestRefine:
    DOC = Document("d", ("Darcy", "smiled", "at", "Bingley"), ("Darcy", "Bingley"))
    INIT = ClusterSet.build(
        "d", "initialized", {"Darcy": [(0, 0)], "Bingley": [(3, 3)]}
    )

    def test_accept_all_is_identity(self):
        out = refine(self.DOC, self.INIT, AcceptAllJudge())
        assert out.clusters == self.INIT.clusters
        assert out.stage == "refined"

    def test_reject_all_empties_every_cluster_but_keeps_keys(self):
        out = refine(self.DOC, self.INIT, RejectAllJudge())
        assert set(out.clusters) == {"Darcy", "Bingley"}
        assert out.n_mentions == 0

    def test_requires_initialized_stage(self):
        with pytest.raises(StageError):
            refine(self.DOC, self.INIT.with_stage("gold"), AcceptAllJudge())

    def test_transport_failure_retries_then_stage_error(self):
        """The pipeline does not retry (that is the HTTP client's job): the
        first transport failure is the stage's error."""
        calls = []

        class FlakyJudge:
            name = "flaky"

            def judge(self, request):
                calls.append(request.mention)
                raise TransportError("boom")

        # keys are judged in sorted order, so Bingley's mention comes first
        with pytest.raises(StageError, match=r"mention \(3,3\) of 'Bingley': boom$"):
            refine(self.DOC, self.INIT, FlakyJudge())
        assert calls == [Mention(3, 3)]

    def test_filtering_noise_raises_linking_precision(self):
        """A judge that rejects mentions whose text differs from the
        character's surname must not lower precision on a corpus with
        injected wrong links."""
        tokens = ("Darcy", "went", "Bingley", "came", "Darcy", "left", "Bingley", "again")
        doc = Document("noisy", tokens, ("Darcy", "Bingley"))
        gold = ClusterSet.build(
            "noisy", "gold", {"Darcy": [(0, 0), (4, 4)], "Bingley": [(2, 2), (6, 6)]}
        )
        # linker output with two wrong links injected
        noisy = ClusterSet.build(
            "noisy",
            "initialized",
            {"Darcy": [(0, 0), (2, 2), (4, 4)], "Bingley": [(4, 4), (6, 6)]},
        )

        class SurnameJudge:
            name = "surname"

            def judge(self, request):
                mention_text = request.prompt.rsplit("Does the mention [", 1)[1].split("]")[0]
                return mention_text == request.character

        refined = refine(doc, noisy, SurnameJudge())
        before = linking_prf(gold, noisy.with_stage("prediction")).precision
        after = linking_prf(gold, refined.with_stage("prediction")).precision
        assert after >= before
        assert after == 1.0

    def test_verdicts_recorded_in_trace(self):
        from bookcoref.pipeline import PipelineTrace

        trace = PipelineTrace("d", "x")
        refine(self.DOC, self.INIT, AcceptAllJudge(), trace=trace)
        assert len(trace.judge_verdicts) == 2
        assert all(v is True for _, _, v in trace.judge_verdicts)

    @pytest.mark.parametrize(
        "make_judge",
        [lambda gold: OracleJudge(gold), lambda gold: AcceptAllJudge(), lambda gold: RejectAllJudge()],
        ids=["oracle", "accept-all", "reject-all"],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_judges_that_never_read_the_prompt_build_none(self, monkeypatch, make_judge, jobs):
        doc, gold = gold_small()
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return build_prompt(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_prompt", counting)
        init = OracleLinker(gold).link(doc)
        with ThreadPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
            refine(doc, init, make_judge(gold), executor=pool)
        assert built == []

    @pytest.mark.parametrize("context_words", [DEFAULT_CONTEXT_WORDS, 3])
    def test_request_prompt_is_the_built_prompt(self, context_words):
        doc, gold = gold_small()
        requests = []

        class RecordingJudge:
            name = "recording"

            def judge(self, request):
                requests.append(request)
                return True

        init = OracleLinker(gold).link(doc)
        refine(doc, init, RecordingJudge(), context_words)
        assert [(r.character, r.mention) for r in requests] == [(k, m) for k in init.sorted_keys() for m in init.clusters[k]]
        for r in requests:
            assert r.doc is doc and r.doc_id == "small" and r.context_words == context_words
            assert r.prompt == build_prompt(doc, r.mention, r.character, context_words)

    def test_request_hashes_and_prints_without_the_document(self):
        doc = Document("d", ("Ann", "left"), ("Ann",), {"title": "unhashable metadata"})
        request = JudgeRequest(doc, Mention(0, 0), "Ann")
        assert hash(request) == hash(JudgeRequest(doc, Mention(0, 0), "Ann"))
        assert request != JudgeRequest(Document("e", doc.tokens, doc.characters), Mention(0, 0), "Ann")
        assert repr(request) == "JudgeRequest(mention=Mention(start=0, end=0), character='Ann', context_words=400)"

    def test_mention_past_the_document_end_is_contract_error_for_any_judge(self):
        calls = []

        class RecordingJudge(AcceptAllJudge):
            def judge(self, request):
                calls.append(request.mention)
                return True

        # judged in sorted key order: Bingley (3,3), Bingley (4,4), Darcy (0,0)
        past_end = ClusterSet.build("d", "initialized", {"Darcy": [(0, 0)], "Bingley": [(3, 3), (4, 4)]})
        for judge in (AcceptAllJudge(), RecordingJudge()):
            with pytest.raises(ContractError, match=r"^mention \(4,4\) out of bounds$"):
                refine(self.DOC, past_end, judge)
        assert calls == [Mention(3, 3)]


def gold_small():
    """20-token, 2-window document with pronouns and names."""
    tokens = (
        "Ann", "saw", "her", "dog", "by", "the", "road", "and", "Ben", "waved",
        "then", "she", "met", "Ben", "near", "his", "house", "at", "noon", ".",
    )
    doc = Document("small", tokens, ("Ann", "Ben"))
    gold = ClusterSet.build(
        "small",
        "gold",
        {"Ann": [(0, 0), (2, 2), (11, 11)], "Ben": [(8, 8), (13, 13), (15, 15)]},
    )
    return doc, gold


class TestExpandPass:
    def test_identity_expander_preserves_clusters(self):
        doc, gold = gold_small()
        cs = explicit_mentions(doc, gold).with_stage("refined")
        plan = plan_windows(doc, 10)
        out = expand_pass(doc, cs, plan, IdentityExpander())
        assert out.stage == "window_expanded"
        assert out.clusters == cs.clusters

    def test_oracle_closure_window_and_group(self):
        doc, gold = gold_small()
        cs = explicit_mentions(doc, gold).with_stage("refined")
        plan = plan_windows(doc, 10)
        out = expand_pass(doc, cs, plan, OracleExpander(gold))
        assert out.clusters == gold.clusters
        grouped = plan_groups(plan, 2)
        final = expand_pass(doc, out, grouped, OracleExpander(gold))
        assert final.stage == "final"
        assert final.clusters == gold.clusters

    def test_stage_gates(self):
        doc, gold = gold_small()
        plan = plan_windows(doc, 10)
        with pytest.raises(StageError):
            expand_pass(doc, gold, plan, IdentityExpander())
        grouped = plan_groups(plan, 2)
        refined = explicit_mentions(doc, gold).with_stage("refined")
        with pytest.raises(StageError):
            expand_pass(doc, refined, grouped, IdentityExpander())

    def test_dropped_seed_is_contract_violation_naming_window_and_mention(self):
        doc, gold = gold_small()
        cs = explicit_mentions(doc, gold).with_stage("refined")

        class DropsOne:
            name = "drops"

            def expand(self, request):
                out = {k: list(ms) for k, ms in request.seeds.items()}
                for k, ms in out.items():
                    if ms:
                        ms.pop()
                        break
                return out

        plan = plan_windows(doc, 10)
        with pytest.raises(ContractError, match=r"dropped seed mention \(\d+,\d+\) of .* in window"):
            expand_pass(doc, cs, plan, DropsOne())

    def test_omitting_a_seeded_key_is_also_a_drop(self):
        doc, gold = gold_small()
        cs = explicit_mentions(doc, gold).with_stage("refined")

        class OmitsKey:
            name = "omits"

            def expand(self, request):
                return {k: ms for k, ms in request.seeds.items() if not ms or k != "Ann"}

        plan = plan_windows(doc, 10)
        with pytest.raises(ContractError, match="dropped seed mention"):
            expand_pass(doc, cs, plan, OmitsKey())

    def test_out_of_window_span_rejected(self):
        doc, gold = gold_small()
        cs = explicit_mentions(doc, gold).with_stage("refined")

        class Overflows:
            name = "overflow"

            def expand(self, request):
                out = {k: list(ms) for k, ms in request.seeds.items()}
                out["Ann"] = list(out["Ann"]) + [Mention(request.hi, request.hi)]
                return out

        plan = plan_windows(doc, 10)
        with pytest.raises(ContractError, match="outside window"):
            expand_pass(doc, cs, plan, Overflows())

    def test_unknown_key_rejected(self):
        doc, gold = gold_small()
        cs = explicit_mentions(doc, gold).with_stage("refined")

        class Invents:
            name = "invents"

            def expand(self, request):
                out = dict(request.seeds)
                out["Ghost"] = [Mention(request.lo, request.lo)]
                return out

        plan = plan_windows(doc, 10)
        with pytest.raises(ContractError, match="unknown cluster key"):
            expand_pass(doc, cs, plan, Invents())

    def test_same_span_in_two_clusters_rejected(self):
        doc, gold = gold_small()
        cs = explicit_mentions(doc, gold).with_stage("refined")

        class DoubleBooks:
            name = "doublebooks"

            def expand(self, request):
                out = {k: list(ms) for k, ms in request.seeds.items()}
                out["Ann"] = list(out["Ann"]) + [Mention(request.lo, request.lo)]
                out["Ben"] = list(out["Ben"]) + [Mention(request.lo, request.lo)]
                return out

        plan = plan_windows(doc, 10)
        with pytest.raises(ContractError, match="in clusters"):
            expand_pass(doc, cs, plan, DoubleBooks())

    def test_character_with_zero_seeds_recoverable_at_group_level(self):
        """A character unseen in one window is absent from that window's
        expansion but comes back in the grouped pass (the wider-context
        recovery the grouping step exists for)."""
        doc, gold = gold_small()

        class SeededOnlyOracle:
            """Window-local annotator that can only expand clusters it has
            at least one seed for."""

            name = "seeded-only"

            def __init__(self, gold):
                self._gold = gold

            def expand(self, request):
                window = restrict(self._gold, request.lo, request.hi)
                return {
                    k: (window.clusters.get(k, ()) if request.seeds[k] else ())
                    for k in request.seeds
                }

        # Ben has no explicit seed in window 1 (tokens 0-9 hold only "Ben"@8,
        # drop it to create the gap), Ann has no seed in window 2
        seeds = ClusterSet.build("small", "refined", {"Ann": [(0, 0)], "Ben": [(13, 13)]})
        plan = plan_windows(doc, 10)
        expander = SeededOnlyOracle(gold)
        after_windows = expand_pass(doc, seeds, plan, expander)
        # window pass: Ben missing from window 1, Ann missing from window 2
        assert Mention(8, 8) not in after_windows.clusters["Ben"]
        assert Mention(11, 11) not in after_windows.clusters["Ann"]
        grouped = plan_groups(plan, 2)
        final = expand_pass(doc, after_windows, grouped, expander)
        assert final.clusters == gold.clusters

    def test_boundary_crossing_input_mention_is_refused_loudly(self):
        """An unguarded plan that would silently lose a boundary-crossing
        seed is rejected instead (planning with the seeds as guard avoids
        the situation)."""
        doc, _ = gold_small()
        cs = ClusterSet.build("small", "refined", {"Ann": [(9, 10)], "Ben": []})
        plain = plan_windows(doc, 10)
        with pytest.raises(PlanningError, match=r"\(9,10\) of 'Ann' crosses"):
            expand_pass(doc, cs, plain, IdentityExpander())
        safe = plan_windows(doc, 10, guard=cs)
        out = expand_pass(doc, cs, safe, IdentityExpander())
        assert out.clusters == cs.clusters

    def test_window_order_independence_via_parallel_jobs(self):
        doc, gold = gold_small()
        cs = explicit_mentions(doc, gold).with_stage("refined")
        plan = plan_windows(doc, 5)
        serial = expand_pass(doc, cs, plan, OracleExpander(gold))
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = expand_pass(doc, cs, plan, OracleExpander(gold), executor=pool)
        assert serial == parallel

    def test_monotone_growth_through_expansion(self):
        doc, gold = gold_small()
        cs = explicit_mentions(doc, gold).with_stage("refined")
        plan = plan_windows(doc, 10)
        out = expand_pass(doc, cs, plan, OracleExpander(gold))
        assert out.n_mentions >= cs.n_mentions


class TestRun:
    def test_all_reference_components_reduce_to_pattern_links(self):
        doc, _ = gold_small()
        config = PipelineConfig(window_len=10, group_size=2)
        final, trace = run(doc, config, PatternMatchLinker(), AcceptAllJudge(), IdentityExpander())
        assert final.stage == "final"
        assert final.clusters == pattern_match(doc).clusters
        assert trace.components == {"linker": "pattern", "judge": "accept-all", "expander": "identity"}

    def test_oracle_components_reproduce_gold(self, gold_corpus):
        rec = gold_corpus.records[1]
        gold = rec.cluster_sets["gold"]
        config = PipelineConfig()
        final, _ = run(rec.document, config, OracleLinker(gold), OracleJudge(gold), OracleExpander(gold))
        assert conll(gold, final).conll_f1 == 1.0

    def test_seven_ablation_configurations(self):
        """Every stage subset behind the published ablation rows runs and
        lands in the right stage."""
        doc, gold = gold_small()
        rows = {
            ("init",): "initialized",
            ("init", "refine"): "refined",
            ("init", "window"): "window_expanded",
            ("init", "refine", "window"): "window_expanded",
            ("init", "window", "group"): "final",
            ("init", "refine", "window", "group"): "final",
        }
        for linker in (PatternMatchLinker(), OracleLinker(gold)):
            for stages, want_stage in rows.items():
                config = PipelineConfig(window_len=10, group_size=2, stages=stages)
                final, _ = run(doc, config, linker, OracleJudge(gold), OracleExpander(gold))
                assert final.stage == want_stage, (linker.name, stages)

    def test_group_without_window_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(stages=("init", "group"))

    def test_refine_disabled_advances_stage_without_judging(self):
        doc, gold = gold_small()
        calls = []

        class CountingJudge:
            name = "counting"

            def judge(self, request):
                calls.append(request)
                return True

        config = PipelineConfig(window_len=10, group_size=2, stages=("init", "window"))
        run(doc, config, OracleLinker(gold), CountingJudge(), OracleExpander(gold))
        assert calls == []

    def test_rerun_is_bit_identical(self, gold_corpus):
        rec = gold_corpus.records[0]
        gold = rec.cluster_sets["gold"]
        config = PipelineConfig(jobs=2)

        def one_run():
            final, trace = run(
                rec.document, config, OracleLinker(gold), OracleJudge(gold), OracleExpander(gold)
            )
            return final, drop_timings(trace.to_dict())

        (f1, t1), (f2, t2) = one_run(), one_run()
        assert f1 == f2
        assert t1 == t2

    def test_mention_counts_monotone_through_stages(self, gold_corpus):
        rec = gold_corpus.records[0]
        gold = rec.cluster_sets["gold"]
        final, trace = run(
            rec.document, PipelineConfig(), OracleLinker(gold), OracleJudge(gold), OracleExpander(gold)
        )
        counts = {name: cs.n_mentions for name, cs in trace.snapshots.items()}
        assert counts["refined"] <= counts["initialized"]
        assert counts["window_expanded"] >= counts["refined"]
        assert counts["final"] >= counts["window_expanded"]


def names_doc(n_tokens=240):
    """A book of repeated names and filler: dozens of mentions per character."""
    names = ("Ann", "Ben", "Cat")
    tokens = tuple(names[i % 3] if i % 4 == 0 else f"w{i}" for i in range(n_tokens))
    return Document("names", tokens, names)


class SleepyJudge:
    """Accepts mentions by position after a delay that varies per mention,
    so concurrent calls finish out of order; records the finishing order."""

    name = "sleepy"

    def __init__(self):
        self.finished = []

    def judge(self, request):
        time.sleep(((request.mention.start * 7) % 5) / 1000)
        self.finished.append(request.mention)
        return request.mention.start % 3 != 0


class SleepyExpander:
    name = "sleepy"

    def expand(self, request):
        time.sleep(((request.lo * 7) % 5) / 1000)
        return request.seeds


class TestConcurrentJudging:
    def test_refine_is_bit_identical_for_any_jobs(self):
        doc = names_doc()
        cs = pattern_match(doc)
        outs = {}
        for jobs in (1, 8):
            judge, trace = SleepyJudge(), PipelineTrace(doc.doc_id, "x")
            with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
                outs[jobs] = refine(doc, cs, judge, trace=trace, executor=pool), drop_timings(trace.to_dict())
            judged = [m for _, m, _ in trace.judge_verdicts]
            if jobs > 1:
                assert judge.finished != judged  # calls really completed out of order
        assert outs[1] == outs[8]
        assert 0 < outs[8][0].n_mentions < cs.n_mentions

    def test_run_is_bit_identical_for_any_jobs(self):
        doc = names_doc()
        outs = {}
        for jobs in (1, 8):
            config = PipelineConfig(window_len=20, group_size=3, jobs=jobs)
            final, trace = run(doc, config, PatternMatchLinker(), SleepyJudge(), SleepyExpander())
            outs[jobs] = final, drop_timings(trace.to_dict())
        assert outs[1] == outs[8]

    def test_failing_judge_stops_after_calls_in_flight(self):
        doc = names_doc()
        cs = pattern_match(doc)
        calls = []

        class DeadJudge:
            name = "dead"

            def judge(self, request):
                calls.append(request.mention)
                # the first mention in sorted order fails last
                time.sleep(0.02 if request.mention == Mention(0, 0) else 0.001)
                raise TransportError("down")

        with ThreadPoolExecutor(max_workers=4) as pool:
            with pytest.raises(StageError, match=r"mention \(0,0\) of 'Ann': down$"):
                refine(doc, cs, DeadJudge(), executor=pool)
        assert 0 < len(calls) <= 4

    def test_failing_expander_stops_after_calls_in_flight(self):
        doc = names_doc()
        cs = pattern_match(doc).advanced()
        plan = plan_windows(doc, 10, guard=cs)
        calls = []

        class DeadExpander:
            name = "dead"

            def expand(self, request):
                calls.append(request.lo)
                time.sleep(0.005)
                raise TransportError("down")

        with ThreadPoolExecutor(max_workers=4) as pool:
            with pytest.raises(TransportError):
                expand_pass(doc, cs, plan, DeadExpander(), executor=pool)
        assert len(plan.windows) > 4
        assert 0 < len(calls) <= 4

    def test_failed_batch_on_a_shared_executor_leaves_nothing_running(self):
        doc = names_doc()
        cs = pattern_match(doc)
        started, finished = [], []

        class DeadJudge:
            name = "dead"

            def judge(self, request):
                started.append(request.mention)
                try:
                    time.sleep(0.005)
                    raise TransportError("down")
                finally:
                    finished.append(request.mention)

        with ThreadPoolExecutor(max_workers=4) as pool:
            with pytest.raises(StageError, match=r"mention \(0,0\) of 'Ann'"):
                refine(doc, cs, DeadJudge(), executor=pool)
            # the calls in flight were waited for, and no queued call starts later
            assert 0 < len(finished) == len(started) <= 4
            time.sleep(0.05)
            assert len(started) == len(finished) <= 4
            # the pool is left usable for the next batch
            assert refine(doc, cs, AcceptAllJudge(), executor=pool) == cs.advanced()

    def test_final_transport_error_is_not_retried_again(self):
        calls = []

        class GaveUpJudge:
            name = "gave-up"

            def judge(self, request):
                calls.append(request.mention)
                raise FinalTransportError("unreachable after 3 attempts")

        with pytest.raises(StageError, match=r"mention \(3,3\) of 'Bingley': unreachable after 3 attempts"):
            refine(TestRefine.DOC, TestRefine.INIT, GaveUpJudge())
        assert calls == [Mention(3, 3)]

    def test_failing_run_shuts_its_pool_down(self):
        doc = names_doc()
        before = threading.active_count()

        class DeadExpander:
            name = "dead"

            def expand(self, request):
                time.sleep(0.005)
                raise TransportError("down")

        config = PipelineConfig(window_len=20, group_size=3, jobs=4)
        with pytest.raises(TransportError, match="down"):
            run(doc, config, PatternMatchLinker(), SleepyJudge(), DeadExpander())
        assert threading.active_count() == before
