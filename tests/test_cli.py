import json
import sys

import pytest

from bookcoref import cli
from bookcoref.cli import main
from bookcoref.formats import CorpusFile, DocumentRecord, read_jsonl, write_jsonl
from bookcoref.model import ClusterSet, Document

from helpers import drop_timings


@pytest.fixture()
def tiny_jsonl(tmp_path):
    tokens = (
        "Ann", "saw", "her", "dog", "by", "the", "road", "and", "Ben", "waved",
        "then", "she", "met", "Ben", "near", "his", "house", "at", "noon", ".",
    )
    doc = Document("tiny", tokens, ("Ann", "Ben"))
    gold = ClusterSet.build(
        "tiny", "gold", {"Ann": [(0, 0), (2, 2), (11, 11)], "Ben": [(8, 8), (13, 13), (15, 15)]}
    )
    path = tmp_path / "tiny.jsonl"
    write_jsonl(CorpusFile([DocumentRecord(doc, {"gold": gold})]), str(path))
    return str(path)


SUBCOMMANDS = ("synth", "convert", "validate", "stats", "split", "score", "score-linking", "pipeline", "simulate")

FLAGS = {
    "synth": ["--out", "--json"],
    "convert": ["--to", "--out", "--json"],
    "validate": ["--out", "--json"],
    "stats": ["--out", "--json"],
    "split": ["--window-len", "--out", "--json"],
    "score": ["--setting", "--window-len", "--keep-singletons", "--results", "--out", "--json"],
    "score-linking": ["--out", "--json"],
    "simulate": ["--policy", "--capacity", "--l-cap", "--g-cap", "--sweep", "--csv", "--out", "--json"],
}


class TestParser:
    def test_help_enumerates_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in SUBCOMMANDS:
            assert sub in out
        for flag in ("--config", "--seed", "--jobs", "--version"):
            assert flag in out

    @pytest.mark.parametrize("sub", sorted(FLAGS))
    def test_subcommand_help_enumerates_flags(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in FLAGS[sub]:
            assert flag in out, (sub, flag)

    def test_pipeline_run_help_enumerates_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "run", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in (
            "--stages", "--linker", "--judge", "--expander", "--endpoint",
            "--window-len", "--group-size", "--context-words",
            "--retries", "--timeout", "--cache-dir",
        ):
            assert flag in out

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_retries_exit_1_without_traceback(self, tiny_jsonl, tmp_path, capsys, source):
        pred = tmp_path / "pred.jsonl"
        argv = ["pipeline", "run", tiny_jsonl, str(pred), "--linker", "pattern"]
        if source == "flag":
            argv += ["--retries", "-1"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"retries": -1}))
            argv = ["--config", str(config), *argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--retries: must be >= 0, got -1" in err and "Traceback" not in err
        assert not pred.exists()

    @pytest.mark.parametrize(
        "sub, config, key",
        [
            ("simulate", {"sweep": 4, "policy": "lru"}, "sweep"),
            ("simulate", {"policy": 1}, "policy"),
            ("simulate", {"csv": None, "sweep": "1,2"}, "csv"),
            ("pipeline", {"stages": ["init"]}, "stages"),
            ("pipeline", {"endpoint": 8080}, "endpoint"),
            ("pipeline", {"cache-dir": False}, "cache-dir"),
            ("stats", {"out": 1}, "out"),
        ],
    )
    def test_non_string_config_value_for_untyped_flag_exits_2(self, tiny_jsonl, tmp_path, capsys, sub, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = {
            "simulate": ["simulate", tiny_jsonl],
            "pipeline": ["pipeline", "run", tiny_jsonl, str(tmp_path / "pred.jsonl")],
            "stats": ["stats", tiny_jsonl],
        }[sub]
        assert main(["--config", str(path), *argv]) == 2
        err = capsys.readouterr().err
        assert f"{key!r} must be a string, got {json.dumps(config[key])}" in err
        assert "Traceback" not in err

    def test_config_strings_and_switches_still_apply(self, tiny_jsonl, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sweep": "1,2", "policy": "lru", "json": True}))
        assert main(["--config", str(path), "simulate", tiny_jsonl]) == 0
        out = capsys.readouterr().out
        assert "lru(1)" in out and "lru(2)" in out
        assert '"command": "simulate"' in out

    def test_unknown_flag_exits_1_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--nope", "x"])
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_missing_input_file_exits_2(self, capsys):
        assert main(["stats", "/nonexistent/gold.jsonl"]) == 2


class TestValidateCommand:
    def test_clean_file_exits_0(self, tiny_jsonl, capsys):
        assert main(["validate", tiny_jsonl]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_spans_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"doc_id":"x","tokens":["a","b"],"characters":["A"],"clusters":{"A":[[0,5]]}}\n'
        )
        assert main(["validate", str(bad)]) == 1
        assert "span-out-of-bounds" in capsys.readouterr().out

    def test_malformed_jsonl_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["validate", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err


class TestStatsCommand:
    def test_table_and_json(self, tiny_jsonl, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["stats", tiny_jsonl, "--out", str(out), "--json"]) == 0
        printed = capsys.readouterr().out
        assert "Ment./Chain" in printed
        payload = json.loads(out.read_text())
        assert payload["stats"]["docs"] == 1
        assert payload["stats"]["mentions"] == 6


class TestConvertAndSplit:
    def test_jsonl_conll_roundtrip(self, tiny_jsonl, tmp_path, capsys):
        """Every suffix that the readers take for CoNLL is written as CoNLL."""
        original = {
            frozenset(ms)
            for ms in read_jsonl(tiny_jsonl).records[0].cluster_sets["gold"].clusters.values()
        }
        for suffix in (".conll", ".conll12", ".v4_gold_conll"):
            conll_path = tmp_path / f"tiny{suffix}"
            back = tmp_path / "back.jsonl"
            assert main(["convert", tiny_jsonl, str(conll_path)]) == 0
            assert conll_path.read_text().startswith("#begin document (tiny)")
            assert main(["convert", str(conll_path), str(back), "--to", "jsonl"]) == 0
            spans = {
                frozenset(ms)
                for ms in read_jsonl(str(back), clusters_as="prediction").records[0]
                .cluster_sets["prediction"]
                .clusters.values()
            }
            assert spans == original

    def test_jsonl_from_conll_names_its_keys_and_validates(self, tmp_path, capsys):
        """CoNLL carries no character names, so the JSONL written from it lists
        its integer keys as characters, in numbered order, and validates."""
        doc = Document("d", tuple(f"t{i}" for i in range(12)), tuple(f"C{i}" for i in range(12)))
        gold = ClusterSet.build("d", "gold", {f"C{i}": [(i, i)] for i in range(12)})
        src = tmp_path / "gold.jsonl"
        write_jsonl(CorpusFile([DocumentRecord(doc, {"gold": gold})]), str(src))
        conll_path, back, again = tmp_path / "gold.conll", tmp_path / "back.jsonl", tmp_path / "again.jsonl"
        assert main(["convert", str(src), str(conll_path)]) == 0
        assert main(["convert", str(conll_path), str(back)]) == 0
        assert json.loads(back.read_text())["characters"] == [str(i) for i in range(12)]
        assert main(["validate", str(back)]) == 0
        assert main(["convert", str(back), str(again)]) == 0
        assert again.read_bytes() == back.read_bytes()

    def test_span_past_document_end_exits_1_and_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"doc_id":"d","tokens":["a","b"],"characters":["A"],"clusters":{"A":[[0,5]]}}\n'
        )
        out = tmp_path / "bad.conll"
        assert main(["convert", str(bad), str(out)]) == 1
        err = capsys.readouterr().err
        assert "'d'" in err and "(0, 5)" in err and "Traceback" not in err
        assert not out.exists()

    def test_cluster_keys_that_print_alike_exit_2_and_write_nothing(self, tmp_path, capsys, monkeypatch):
        doc = Document("d", ("a", "b", "c"))
        corpus = CorpusFile([DocumentRecord(doc, {"gold": ClusterSet.build("d", "gold", {1: [(0, 0)], "1": [(2, 2)]})})])
        monkeypatch.setattr(cli, "_read_corpus", lambda path, clusters_as="gold": corpus)
        out = tmp_path / "out.jsonl"
        assert main(["convert", "in.jsonl", str(out)]) == 2
        err = capsys.readouterr().err
        assert "document 'd'" in err and "1 and '1'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".jsonl", ".conll"])
    def test_non_utf8_input_exits_2_naming_the_line(self, tmp_path, capsys, suffix):
        bad = tmp_path / f"bad{suffix}"
        if suffix == ".jsonl":
            good = '{"doc_id":"d","tokens":["a"],"characters":[],"clusters":{}}\n'
        else:
            good = "#begin document (d); part 000\nd\t0\t0\ta\t-\n"
        bad.write_bytes(good.encode() + b"\xff\n")
        target = "out.conll" if suffix == ".jsonl" else "out.jsonl"
        assert main(["convert", str(bad), str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err
        assert f"line {good.count(chr(10)) + 1}" in err

    def test_split_writes_window_corpus(self, tiny_jsonl, tmp_path, capsys):
        out = tmp_path / "windows.jsonl"
        assert main(["split", tiny_jsonl, str(out), "--window-len", "10"]) == 0
        corpus = read_jsonl(str(out))
        assert list(corpus.by_id()) == ["tiny#w1", "tiny#w2"]
        assert "0 boundary-crossing" in capsys.readouterr().out


class TestScoreCommands:
    def test_identity_full_book_scores_100(self, tiny_jsonl, tmp_path, capsys):
        results = tmp_path / "results"
        code = main(
            ["score", "--setting", "full", tiny_jsonl, tiny_jsonl, "--results", str(results)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "100.0 100.0 100.0 100.0" in out
        run = json.loads((results / "run.json").read_text())
        assert run["pooled"]["conll_f1"] == pytest.approx(1.0)

    def test_rescore_equals_the_first_outside_timings(self, tiny_jsonl, tmp_path, capsys):
        """The ``--json`` payload and ``run.json`` keep the seconds and the
        process's peak memory under ``timings``, and nothing else varies."""
        results = tmp_path / "results"
        runs = []
        for _ in range(2):
            assert main(["score", "--json", tiny_jsonl, tiny_jsonl, "--results", str(results)]) == 0
            out = capsys.readouterr().out
            payload = json.loads(out[out.index("\n{") + 1 :])
            run_json = json.loads((results / "run.json").read_text())
            assert set(payload["timings"]) == set(run_json["timings"]) == {"seconds", "process_peak_rss_mb"}
            runs.append(
                [json.dumps(drop_timings(d), indent=2, sort_keys=True) for d in (payload, run_json)]
                + [(results / "units.jsonl").read_bytes()]
            )
        assert runs[0] == runs[1]

    def test_gold_plus_window_setting(self, tiny_jsonl, capsys):
        assert main(["score", "--setting", "gold+window", tiny_jsonl, tiny_jsonl, "--window-len", "10"]) == 0
        assert "100.0" in capsys.readouterr().out

    def test_pipeline_then_score_linking(self, tiny_jsonl, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        assert (
            main(
                ["pipeline", "run", tiny_jsonl, str(pred), "--stages", "init", "--linker", "pattern"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["score-linking", tiny_jsonl, str(pred)]) == 0
        out = capsys.readouterr().out
        # pattern matching finds Ann@0, Ben@8, Ben@13: precision 1, recall 3/6
        assert "pooled: P=100.0 R=50.0" in out

    def test_score_linking_pools_f1_and_counts(self, tiny_jsonl, tmp_path, capsys):
        """The pooled report carries F1 and the counts, as ``score``'s do."""
        pred = tmp_path / "pred.jsonl"
        assert main(["pipeline", "run", tiny_jsonl, str(pred), "--stages", "init", "--linker", "pattern"]) == 0
        capsys.readouterr()
        assert main(["score-linking", "--json", tiny_jsonl, str(pred)]) == 0
        out = capsys.readouterr().out
        assert "pooled: P=100.0 R=50.0 F1=66.7\n" in out
        pooled = json.loads(out[out.index("\n{") + 1 :])["pooled"]
        assert pooled == {"precision_pct": 100.0, "recall_pct": 50.0, "f1_pct": 66.7, "counts": [3, 3, 3, 6]}

    def test_rescores_external_prediction_file_with_anonymous_keys(self, tiny_jsonl, tmp_path, capsys):
        """Prediction files from third-party systems carry integer cluster
        keys; the scorer recomputes their metrics as-is."""
        pred = tmp_path / "external.jsonl"
        pred.write_text(
            json.dumps(
                {
                    "doc_id": "tiny",
                    "tokens": ["x"] * 20,
                    "characters": [],
                    # fuses Ann and Ben into one anonymous cluster
                    "clusters": {"0": [[0, 0], [2, 2], [11, 11], [8, 8], [13, 13], [15, 15]]},
                }
            )
            + "\n"
        )
        assert main(["score", "--setting", "full", tiny_jsonl, str(pred)]) == 0
        out = capsys.readouterr().out
        assert "corpus (pooled)" in out and "100.0 100.0 100.0 100.0" not in out

    def test_prediction_key_that_is_not_an_ascii_integer_is_scored(self, tiny_jsonl, tmp_path, capsys):
        pred = tmp_path / "external.jsonl"
        clusters = {"\u00b2": [[0, 0], [2, 2], [11, 11]], "1": [[8, 8], [13, 13], [15, 15]]}
        pred.write_text(json.dumps({"doc_id": "tiny", "tokens": ["x"] * 20, "characters": [], "clusters": clusters}) + "\n")
        assert main(["score", "--setting", "full", tiny_jsonl, str(pred)]) == 0
        assert "100.0 100.0 100.0 100.0" in capsys.readouterr().out

    def test_oracle_pipeline_scores_100(self, tiny_jsonl, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        code = main(
            [
                "pipeline", "run", tiny_jsonl, str(pred),
                "--linker", "oracle", "--judge", "oracle", "--expander", "oracle",
                "--window-len", "10", "--group-size", "2",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["score", "--setting", "full", tiny_jsonl, str(pred)]) == 0
        assert "100.0 100.0 100.0 100.0" in capsys.readouterr().out


class TestHostileInput:
    @pytest.mark.parametrize("doc_id", [["x"], 7, None, True])
    @pytest.mark.parametrize("sub", ["stats", "validate", "score"])
    def test_doc_id_that_is_not_a_string_exits_2(self, tmp_path, capsys, doc_id, sub):
        path = tmp_path / "bad.jsonl"
        record = {"doc_id": doc_id, "tokens": ["A"], "characters": ["A"], "clusters": {"A": [[0, 0]]}}
        path.write_text("\n" + json.dumps(record) + "\n")
        argv = [sub, str(path)] + ([str(path)] if sub == "score" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        kind = {list: "list", int: "int", type(None): "NoneType", bool: "bool"}[type(doc_id)]
        assert f"bookcoref: line 2: 'doc_id' must be a string, got {kind}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ["1", "1.0", "true", "null", '["a"]', '{"a":1}', '["a", 1]'])
    def test_token_that_is_not_a_string_exits_2_and_writes_nothing(self, tmp_path, capsys, token):
        """Line 1 holds the texts "a" and "b" already, so the bad token is the
        only text new to line 2; an unhashable one (a list or an object) is
        refused too."""
        src = tmp_path / "bad.jsonl"
        src.write_text(
            '{"doc_id":"x","tokens":["a","b"],"characters":[],"clusters":{}}\n'
            f'{{"doc_id":"y","tokens":["a",{token},"b"],"characters":[],"clusters":{{}}}}\n'
        )
        out = tmp_path / "out.jsonl"
        assert main(["convert", str(src), str(out)]) == 2
        err = capsys.readouterr().err
        assert "bookcoref: line 2: 'tokens' must be an array of strings" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["tokens", "doc_id"])
    def test_lone_surrogate_escape_exits_2_and_writes_nothing(self, tmp_path, capsys, field):
        """A lone "\\ud800" escape is refused when read; an escaped surrogate
        pair (line 1) is one character and reads fine."""
        record = {"doc_id": "x", "tokens": ["a"], "characters": [], "clusters": {}}
        record[field] = ["\ud800"] if field == "tokens" else "\ud800"
        src = tmp_path / "sur.jsonl"
        pair = {"doc_id": "ok", "tokens": ["\U0001f600"], "characters": [], "clusters": {}}
        src.write_text(json.dumps(pair) + "\n" + json.dumps(record) + "\n")
        assert "\\ud83d\\ude00" in src.read_text() and "\\ud800" in src.read_text()
        out = tmp_path / "out.jsonl"
        assert main(["convert", str(src), str(out)]) == 2
        err = capsys.readouterr().err
        assert "bookcoref: line 2: a string holds the lone surrogate '\\ud800'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["convert", "{bad}", "{out}.jsonl"], id="convert-jsonl"),
            pytest.param(["stats", "{bad}", "--out", "{out}"], id="stats"),
            pytest.param(["split", "{bad}", "{out}"], id="split"),
            pytest.param(["simulate", "{bad}", "--sweep", "1,2", "--csv", "{out}"], id="simulate"),
            pytest.param(["score", "{good}", "{bad}", "--results", "{out}"], id="score-response"),
            pytest.param(["score", "{bad}", "{good}", "--out", "{out}"], id="score-key"),
            pytest.param(["score", "--setting", "split", "{good}", "{bad}", "--out", "{out}"], id="score-split"),
            pytest.param(["score-linking", "{good}", "{bad}", "--out", "{out}"], id="score-linking"),
            pytest.param(["pipeline", "run", "{bad}", "{out}", "--linker", "oracle"], id="pipeline-run"),
        ],
    )
    def test_span_past_the_last_token_exits_1_and_writes_nothing(self, tmp_path, capsys, argv):
        """Every command but validate refuses the span before it computes or
        writes anything; validate reports it as a finding."""
        good = tmp_path / "good.jsonl"
        bad = tmp_path / "bad.jsonl"
        record = {"doc_id": "d", "tokens": ["a", "b", "c"], "characters": ["A"], "clusters": {"A": [[0, 0], [2, 2]]}}
        good.write_text(json.dumps(record) + "\n")
        record["clusters"] = {"A": [[0, 0], [2, 5]]}
        bad.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out"
        paths = {"good": good, "bad": bad, "out": out}
        assert main([a.format(**paths) for a in argv]) == 1
        err = capsys.readouterr().err
        assert "bookcoref: document 'd': span (2, 5) of cluster 'A' ends past the last token (3 tokens)" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "good.jsonl"]
        assert main(["validate", str(bad)]) == 1
        assert "E span-out-of-bounds at A:(2,5)" in capsys.readouterr().out

    @pytest.mark.parametrize("setting, unit", [("full", "d"), ("gold+window", "d"), ("split", "d#w1")])
    def test_response_with_another_token_count_exits_1_and_writes_nothing(self, tmp_path, capsys, setting, unit):
        """A 10-token response is not scored against a 3-token key unit,
        though each file's spans fit its own tokens."""
        key = tmp_path / "key.jsonl"
        response = tmp_path / "long.jsonl"
        key.write_text(json.dumps({"doc_id": "d", "tokens": ["a", "b", "c"], "characters": ["A"], "clusters": {"A": [[0, 0], [2, 2]]}}) + "\n")
        response.write_text(json.dumps({"doc_id": unit, "tokens": ["a"] * 10, "characters": [], "clusters": {"0": [[0, 0], [5, 8]]}}) + "\n")
        assert main(["score", "--setting", setting, str(key), str(response), "--results", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"bookcoref: response document '{unit}' has 10 tokens, but key document '{unit}' has 3" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["key.jsonl", "long.jsonl"]

    def test_score_linking_refuses_a_response_with_another_token_count(self, tmp_path, capsys):
        """Linking scores pair spans by offset, so a 10-token response is not
        scored against a 3-token key document, as under ``score``."""
        key = tmp_path / "short.jsonl"
        response = tmp_path / "long.jsonl"
        key.write_text(json.dumps({"doc_id": "d", "tokens": ["a", "b", "c"], "characters": ["A"], "clusters": {"A": [[0, 0], [2, 2]]}}) + "\n")
        response.write_text(json.dumps({"doc_id": "d", "tokens": ["a"] * 10, "characters": ["A"], "clusters": {"A": [[0, 0], [5, 8]]}}) + "\n")
        assert main(["score-linking", str(key), str(response), "--out", str(tmp_path / "out.json")]) == 1
        captured = capsys.readouterr()
        assert "bookcoref: response document 'd' has 10 tokens, but key document 'd' has 3" in captured.err
        assert "Traceback" not in captured.err
        assert "P=" not in captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["long.jsonl", "short.jsonl"]

    def test_score_linking_missing_response_document_exits_2(self, tmp_path, capsys):
        key = tmp_path / "key.jsonl"
        response = tmp_path / "other.jsonl"
        key.write_text(json.dumps({"doc_id": "d", "tokens": ["a"], "characters": ["A"], "clusters": {"A": [[0, 0]]}}) + "\n")
        response.write_text(json.dumps({"doc_id": "e", "tokens": ["a"], "characters": [], "clusters": {}}) + "\n")
        assert main(["score-linking", str(key), str(response)]) == 2
        err = capsys.readouterr().err
        assert "bookcoref: response corpus is missing document 'd'" in err and "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits")
    @pytest.mark.parametrize("sep", [(",", ":"), (", ", ": ")], ids=["compact", "spaced"])
    def test_integer_literal_past_the_digit_limit_exits_2(self, tiny_jsonl, tmp_path, capsys, sep):
        """``json`` refuses an integer of more than 4,300 digits with a plain
        ``ValueError``. A compact line tries the sliced read first and falls
        back to the whole-line one; a spaced line takes the whole-line read."""
        comma, colon = sep
        path = tmp_path / "big.jsonl"
        head = comma.join(f'"{k}"{colon}{v}' for k, v in (("doc_id", '"d"'), ("tokens", '["a"]'), ("characters", "[]")))
        path.write_text(open(tiny_jsonl).read() + f'{{{head}{comma}"clusters"{colon}{{"A"{colon}[[0{comma}{"1" * 5000}]]}}}}\n')
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bookcoref: line 2: malformed JSON (Exceeds the limit (4300 digits)" in err
        assert "Traceback" not in err

    def test_deeply_nested_line_exits_2(self, tiny_jsonl, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        path.write_text(open(tiny_jsonl).read() + "[" * 100_000 + "\n")
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bookcoref: line 2: JSON nested too deeply" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc_id, token, refused",
        [
            ("d", "a\tb", "token 1 ('a\\tb')"),
            ("d", "a\nb", "token 1 ('a\\nb')"),
            ("d", "a\rb", "token 1 ('a\\rb')"),
            ("x\ny", "a", "document 'x\\ny': a doc id with a line break"),
            ("x\ry", "a", "document 'x\\ry': a doc id with a line break"),
            ("#x", "a", "document '#x': a doc id that starts with '#'"),
        ],
    )
    def test_conll_export_refuses_what_a_row_cannot_carry(self, tmp_path, capsys, doc_id, token, refused):
        src = tmp_path / "in.jsonl"
        good = {"doc_id": "ok", "tokens": ["A"], "characters": [], "clusters": {}}
        bad = {"doc_id": doc_id, "tokens": ["A", token], "characters": ["A"], "clusters": {"A": [[0, 0]]}}
        src.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        out = tmp_path / "out.conll"
        assert main(["convert", str(src), str(out)]) == 2
        err = capsys.readouterr().err
        assert refused in err and "Traceback" not in err
        assert not out.exists()

    def test_conll_export_keeps_spaces_and_tabs_in_doc_ids(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        record = {"doc_id": "a\tb c", "tokens": ["A b", "-"], "characters": ["A"], "clusters": {"A": [[0, 1]]}}
        src.write_text(json.dumps(record) + "\n")
        conll, back = tmp_path / "out.conll", tmp_path / "back.jsonl"
        assert main(["convert", str(src), str(conll)]) == 0
        assert main(["convert", str(conll), str(back)]) == 0
        got = read_jsonl(str(back)).records[0]
        assert (got.document.doc_id, got.document.tokens) == ("a\tb c", ("A b", "-"))


class TestSimulateCommand:
    def test_single_policy(self, tiny_jsonl, capsys):
        assert main(["simulate", tiny_jsonl, "--policy", "lru", "--capacity", "1"]) == 0
        out = capsys.readouterr().out
        assert "lru(1)" in out and "rate=" in out

    def test_sweep_with_csv(self, tiny_jsonl, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            ["simulate", tiny_jsonl, "--policy", "lru", "--sweep", "1,2,3", "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "# tiny"
        assert lines[1].startswith("policy,capacity")
        assert len(lines) == 5

    @pytest.mark.parametrize("sweep, item", [("1,x", "x"), ("1,,2", ""), ("2.5", "2.5")])
    def test_sweep_item_that_is_not_an_integer_exits_1(self, tiny_jsonl, capsys, sweep, item):
        assert main(["simulate", tiny_jsonl, "--policy", "lru", "--sweep", sweep]) == 1
        err = capsys.readouterr().err
        assert f"bookcoref: --sweep: {item!r} is not an integer" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("corpus", ["empty", "one document"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sweep", "abc"], "--sweep: 'abc' is not an integer"),
            (["--policy", "unbounded", "--sweep", "1,2"], "--sweep requires --policy lru or dual"),
            (["--policy", "lru", "--csv", "sweep.csv"], "--csv requires --sweep"),
        ],
        ids=["sweep not an integer", "sweep with unbounded", "csv without sweep"],
    )
    def test_flag_misuse_exits_1_before_any_document(
        self, tiny_jsonl, tmp_path, capsys, monkeypatch, corpus, flags, message
    ):
        """The sweep flags are checked once, before the first document, so an
        empty corpus is refused too, and ``--csv`` alone writes no file."""
        path = tiny_jsonl
        if corpus == "empty":
            path = tmp_path / "empty.jsonl"
            path.write_text("")
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert f"bookcoref: {message}" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "sweep.csv").exists()

class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tiny_jsonl, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"window_len": 10}))
        out = tmp_path / "split.jsonl"
        assert main(["--config", str(config), "split", tiny_jsonl, str(out)]) == 0
        assert len(read_jsonl(str(out))) == 2  # config's window_len applied
        out2 = tmp_path / "split2.jsonl"
        assert main(["--config", str(config), "split", tiny_jsonl, str(out2), "--window-len", "5"]) == 0
        assert len(read_jsonl(str(out2))) == 4  # explicit flag beats config

    def test_bad_config_exits_2(self, tiny_jsonl, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1,2]")
        assert main(["--config", str(config), "stats", tiny_jsonl]) == 2

    def test_deeply_nested_config_exits_2(self, tiny_jsonl, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000)
        assert main(["--config", str(config), "stats", tiny_jsonl]) == 2
        err = capsys.readouterr().err
        assert f"bookcoref: config file {str(config)!r}: JSON nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"window_len": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
            (b'{"out": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["integer past the digit limit", "not UTF-8"],
    )
    def test_config_that_json_refuses_with_a_value_error_exits_2(self, tiny_jsonl, tmp_path, capsys, content, message):
        """``json`` refuses both with a plain ``ValueError``, not a ``JSONDecodeError``."""
        if message.startswith("Exceeds") and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("no limit on integer digits")
        config = tmp_path / "config.json"
        config.write_bytes(content)
        assert main(["--config", str(config), "stats", tiny_jsonl]) == 2
        err = capsys.readouterr().err
        assert f"bookcoref: config file {str(config)!r}: {message}" in err
        assert "Traceback" not in err

    def test_config_key_that_names_no_flag_exits_2(self, tiny_jsonl, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"window-len": 10, "nonexistent": 3}))
        assert main(["--config", str(config), "stats", tiny_jsonl]) == 2
        err = capsys.readouterr().err
        assert f"bookcoref: config file {str(config)!r}: 'nonexistent' names no flag" in err
        assert "Traceback" not in err


class TestSynthCommand:
    def test_synth_writes_canonical_corpus(self, tmp_path, capsys, gold_corpus):
        out = tmp_path / "gold.jsonl"
        assert main(["synth", str(out)]) == 0
        assert "3 docs, 229257 tokens" in capsys.readouterr().out
        corpus = read_jsonl(str(out))
        assert list(corpus.by_id()) == list(gold_corpus.by_id())
