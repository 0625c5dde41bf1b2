import builtins
import errno
import hashlib
import json
import os
import socket
import stat
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from bookcoref import cli
from bookcoref.cli import main
from bookcoref.formats import CorpusFile, DocumentRecord, read_jsonl, write_jsonl
from bookcoref.memsim import Policy, simulate, sweep, sweep_csv
from bookcoref.model import ClusterSet, Document

from helpers import drop_timings
from test_synthetic import SEED_9_SHA256


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

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf", "1e10"])
    def test_unusable_timeout_exits_1_before_any_socket(self, tiny_jsonl, tmp_path, capsys, monkeypatch, timeout):
        opened = []
        monkeypatch.setattr(socket.socket, "connect", lambda sock, address: opened.append(address))
        pred = tmp_path / "pred.jsonl"
        argv = ["pipeline", "run", tiny_jsonl, str(pred), "--linker", "http", "--endpoint", "http://127.0.0.1:1"]
        assert main([*argv, "--timeout", timeout]) == 1
        err = capsys.readouterr().err
        assert "timeout must be > 0 and <= " in err and f"got {float(timeout)!r}" in err
        assert "Traceback" not in err
        assert not pred.exists() and opened == []

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

    @pytest.mark.parametrize(
        "sub, key, value, allowed",
        [
            ("pipeline", "linker", "nope", "'pattern', 'oracle', 'http'"),
            ("pipeline", "judge", "nope", "'accept', 'reject', 'oracle', 'http'"),
            ("pipeline", "expander", "Oracle", "'identity', 'oracle', 'http'"),
            ("score", "setting", "nope", "'full', 'gold+window', 'split'"),
            ("simulate", "policy", "nope", "'unbounded', 'lru', 'dual'"),
            ("convert", "to", "xml", "'jsonl', 'conll'"),
        ],
        ids=["linker", "judge", "expander", "setting", "policy", "to"],
    )
    def test_config_value_outside_a_flags_choices_exits_2(self, tiny_jsonl, tmp_path, capsys, sub, key, value, allowed):
        """argparse checks choices only on the command line, so a config file's
        value is checked where it is read, before any command runs."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        output = tmp_path / "out.jsonl"
        argv = {
            "pipeline": ["pipeline", "run", tiny_jsonl, str(output)],
            "score": ["score", tiny_jsonl, tiny_jsonl],
            "simulate": ["simulate", tiny_jsonl],
            "convert": ["convert", tiny_jsonl, str(output)],
        }[sub]
        assert main(["--config", str(path), *argv]) == 2
        captured = capsys.readouterr()
        assert f"{key!r} must be one of {allowed}, got {json.dumps(value)}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not output.exists()

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


#: each leaf command's argv on the tiny corpus ("{tiny}"), writing under "{tmp}"
LEAF_ARGV = {
    "synth": ["synth", "{tmp}/synth.jsonl"],
    "convert": ["convert", "{tiny}", "{tmp}/tiny.conll"],
    "validate": ["validate", "{tiny}"],
    "stats": ["stats", "{tiny}"],
    "split": ["split", "{tiny}", "{tmp}/split.jsonl"],
    "score": ["score", "{tiny}", "{tiny}"],
    "score-linking": ["score-linking", "{tiny}", "{tiny}"],
    "pipeline-run": ["pipeline", "run", "{tiny}", "{tmp}/pred.jsonl"],
    "simulate": ["simulate", "{tiny}"],
}


class TestResultOutput:
    def test_every_leaf_command_is_covered(self):
        leaves = [p.prog for p in cli._walk_parsers(cli.build_parser()) if p.get_default("func")]
        assert sorted(prog.removeprefix("bookcoref ").replace(" ", "-") for prog in leaves) == sorted(LEAF_ARGV)

    @pytest.mark.parametrize("name", list(LEAF_ARGV))
    def test_out_file_equals_json_payload(self, tiny_jsonl, tmp_path, capsys, name):
        """Every command's result takes one path: the ``--out`` file holds the
        bytes that ``--json`` prints, invocation and hash included."""
        out = tmp_path / "result.json"
        argv = [a.format(tiny=tiny_jsonl, tmp=tmp_path) for a in LEAF_ARGV[name]]
        assert main([*argv, "--out", str(out), "--json"]) == 0
        printed = capsys.readouterr().out
        text = out.read_text()
        assert printed.endswith("\n" + text)
        payload = json.loads(text)
        assert payload["command"] == name
        assert len(payload["invocation_hash"]) == 16 and payload["invocation"]["out"] == str(out)
        if name == "stats":
            assert "Ment./Chain" in printed
            assert payload["stats"]["docs"] == 1
            assert payload["stats"]["mentions"] == 6

    @pytest.mark.parametrize("name", ["convert", "pipeline-run"])
    def test_out_in_a_missing_directory_exits_2_and_writes_nothing(self, tiny_jsonl, tmp_path, capsys, name):
        """``--out`` is claimed before the command runs, so the command's own
        output is not written either."""
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "nodir" / "r.json"
        argv = [a.format(tiny=tiny_jsonl, tmp=tmp_path) for a in LEAF_ARGV[name]]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"No such file or directory: {str(out)!r}" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    def test_out_that_names_a_directory_exits_2_and_writes_nothing(self, tiny_jsonl, tmp_path, capsys):
        before = sorted(tmp_path.iterdir())
        assert main(["convert", tiny_jsonl, str(tmp_path / "tiny.conll"), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert f"Is a directory: {str(tmp_path)!r}" in captured.err and captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    def test_failed_command_leaves_an_existing_out_as_it_was(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"doc_id":"x","tokens":["a"],"characters":["A"],"clusters":{"A":[[0,5]]}}\n')
        out = tmp_path / "r.json"
        out.write_text("old\n")
        before = sorted(tmp_path.iterdir())
        assert main(["convert", str(src), str(tmp_path / "x.conll"), "--out", str(out)]) == 1
        assert out.read_text() == "old\n" and sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("existing", [True, False], ids=["existing target", "new target"])
    def test_out_through_a_symlink_writes_its_target(self, tiny_jsonl, tmp_path, capsys, existing):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        if existing:
            real.write_text("old\n")
        link.symlink_to(real)
        assert main(["stats", tiny_jsonl, "--out", str(link)]) == 0
        assert link.is_symlink() and json.loads(real.read_text())["command"] == "stats"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_out_that_names_a_pipe_is_written_in_place(self, tiny_jsonl, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(["stats", tiny_jsonl, "--out", str(fifo)]) == 0
        reader.join(10)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode) and json.loads(got[0])["command"] == "stats"

    def test_out_gets_the_mode_of_a_new_file(self, tiny_jsonl, tmp_path, capsys):
        """The result is written to a temporary file first; it still gets the
        mode that ``open`` gives a new file, not ``mkstemp``'s owner-only one."""
        out, plain = tmp_path / "r.json", tmp_path / "plain"
        plain.write_text("")
        assert main(["stats", tiny_jsonl, "--out", str(out)]) == 0
        assert os.stat(out).st_mode == os.stat(plain).st_mode
        assert json.loads(out.read_text())["command"] == "stats"


#: each writer of a file, by the argv on the tiny corpus ("{tiny}") that has
#: it write into the directory "{out}"
WRITTEN_FILES = {
    "write_jsonl": ["convert", "{tiny}", "{out}/c.jsonl"],
    "write_conll": ["convert", "{tiny}", "{out}/c.conll"],
    "EvalRun.save": ["score", "{tiny}", "{tiny}", "--results", "{out}"],
    "simulate --csv": ["simulate", "{tiny}", "--policy", "lru", "--sweep", "1,2", "--csv", "{out}/s.csv"],
    "--out": ["stats", "{tiny}", "--out", "{out}/r.json"],
}


def _written_file_argv(name, tiny, out):
    """The argv of ``WRITTEN_FILES[name]``, with its directory ``out`` made."""
    out.mkdir()
    return [a.format(tiny=tiny, out=out) for a in WRITTEN_FILES[name]]


def _contents(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class _FullAfterOneWrite:
    """A text file whose second ``write`` raises ``ENOSPC``, as on a disk that
    fills up while the file is written."""

    def __init__(self, f):
        self._f, self._writes = f, 0

    def write(self, text):
        self._writes += 1
        if self._writes == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._f.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def __getattr__(self, name):
        return getattr(self._f, name)


class TestFileWrites:
    """Every file a command writes replaces its target only when it is
    written whole (``formats.replaced``)."""

    @pytest.mark.parametrize("name", list(WRITTEN_FILES))
    def test_a_full_disk_leaves_an_existing_target_as_it_was(self, tiny_jsonl, tmp_path, capsys, monkeypatch, name):
        out = tmp_path / "out"
        argv = _written_file_argv(name, tiny_jsonl, out)
        assert main(argv) == 0
        before = _contents(out)
        real_open = open

        def open_full(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return _FullAfterOneWrite(f) if "w" in mode else f

        monkeypatch.setattr(builtins, "open", open_full)
        assert main(argv) == 2
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert "No space left on device" in err and "Traceback" not in err
        assert _contents(out) == before

    @pytest.mark.parametrize("name", list(WRITTEN_FILES))
    def test_a_new_file_gets_its_mode_without_a_umask_call(self, tiny_jsonl, tmp_path, capsys, monkeypatch, name):
        """The temporary file is created with mode 0o666 for the kernel to
        apply the umask to: no writer reads the umask by setting it, which
        would race any thread that makes a file meanwhile."""
        out = tmp_path / "out"
        argv = _written_file_argv(name, tiny_jsonl, out)
        plain = tmp_path / "plain"
        plain.write_text("")

        def no_umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", no_umask)
        assert main(argv) == 0
        modes = {p.name: p.stat().st_mode for p in out.iterdir()}
        assert modes and set(modes.values()) == {plain.stat().st_mode}

    @pytest.mark.parametrize("name", list(WRITTEN_FILES))
    def test_an_existing_target_keeps_its_mode(self, tiny_jsonl, tmp_path, capsys, name):
        """The temporary file takes a replaced file's permission bits, so a
        private output does not become readable by others when rewritten."""
        out = tmp_path / "out"
        argv = _written_file_argv(name, tiny_jsonl, out)
        assert main(argv) == 0
        for p in out.iterdir():
            p.chmod(0o600)
        assert main(argv) == 0
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes and set(modes.values()) == {0o600}

    def test_results_with_a_directory_in_the_way_exit_2_and_write_nothing(self, tiny_jsonl, tmp_path, capsys):
        """``--results`` claims run.json, units.jsonl and summary.txt before it
        writes any, so one that cannot be written leaves none of the others."""
        results = tmp_path / "rr"
        (results / "units.jsonl").mkdir(parents=True)
        assert main(["score", tiny_jsonl, tiny_jsonl, "--results", str(results)]) == 2
        err = capsys.readouterr().err
        assert f"Is a directory: {str(results / 'units.jsonl')!r}" in err and "Traceback" not in err
        assert [p.name for p in results.iterdir()] == ["units.jsonl"]


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

    def test_split_json_lists_the_boundary_crossing_mentions(self, tmp_path, capsys):
        doc = Document("d", tuple(f"t{i}" for i in range(20)), ("Ann", "Ben"))
        gold = ClusterSet.build("d", "gold", {"Ann": [(0, 0), (9, 11)], "Ben": [(8, 8), (19, 19)]})
        src, out = tmp_path / "cross.jsonl", tmp_path / "windows.jsonl"
        write_jsonl(CorpusFile([DocumentRecord(doc, {"gold": gold})]), str(src))
        assert main(["split", str(src), str(out), "--window-len", "10", "--json"]) == 0
        printed = capsys.readouterr().out
        assert "1 boundary-crossing mention(s) dropped" in printed
        payload = json.loads(printed[printed.index("\n{") + 1 :])
        assert payload["windows"] == 2
        assert payload["crossings"] == [{"doc_id": "d", "cluster_set": "gold", "key": "Ann", "span": [9, 11]}]
        windows = read_jsonl(str(out)).by_id()
        assert windows["d#w1"].cluster_sets["gold"].clusters == {"Ann": ((0, 0),), "Ben": ((8, 8),)}

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
        """The ``--json`` payload and ``run.json`` keep the seconds, the part
        of them spent scoring and the process's peak memory under
        ``timings``, and nothing else varies."""
        results = tmp_path / "results"
        runs = []
        for _ in range(2):
            assert main(["score", "--json", tiny_jsonl, tiny_jsonl, "--results", str(results)]) == 0
            out = capsys.readouterr().out
            payload = json.loads(out[out.index("\n{") + 1 :])
            run_json = json.loads((results / "run.json").read_text())
            assert set(payload["timings"]) == set(run_json["timings"]) == {"seconds", "scoring_s", "process_peak_rss_mb"}
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

    def test_reject_judge_keeps_every_key_empty_and_the_output_validates(self, tiny_jsonl, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        argv = ["pipeline", "run", tiny_jsonl, str(pred), "--linker", "pattern", "--judge", "reject"]
        assert main(argv + ["--window-len", "5", "--group-size", "2"]) == 0
        assert "refined=0, window_expanded=0, final=0" in capsys.readouterr().out
        record = read_jsonl(str(pred), clusters_as="prediction").records[0]
        assert record.cluster_sets["prediction"].clusters == {"Ann": (), "Ben": ()}
        assert main(["validate", str(pred)]) == 0

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
    @pytest.mark.parametrize("sub", ["stats", "score"])
    def test_repeated_conll_document_id_exits_2(self, tmp_path, capsys, sub):
        block = "#begin document (d); part 000\nd\t0\t0\ta\t(0)\nd\t0\t1\tb\t-\n#end document\n"
        path = tmp_path / "twice.conll"
        path.write_text(block * 2, encoding="utf-8")
        argv = [sub, str(path)] + ([str(path)] if sub == "score" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "bookcoref: line 5: duplicate doc_id 'd' (part 000)" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

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
        path.write_text(Path(tiny_jsonl).read_text() + f'{{{head}{comma}"clusters"{colon}{{"A"{colon}[[0{comma}{"1" * 5000}]]}}}}\n')
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bookcoref: line 2: malformed JSON (Exceeds the limit (4300 digits)" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits")
    def test_conll_cluster_id_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        """``int`` refuses a cluster id of more than 4,300 digits with a plain
        ``ValueError``; the CoNLL reader names the row instead."""
        path = tmp_path / "big.conll"
        path.write_text(f"#begin document (d); part 000\nd\t0\t0\ta\t-\nd\t0\t1\tb\t({'1' * 5000})\n#end document\n")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bookcoref: line 3: cluster id of 5000 digits is too long" in err
        assert "Traceback" not in err

    def test_deeply_nested_line_exits_2(self, tiny_jsonl, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        path.write_text(Path(tiny_jsonl).read_text() + "[" * 100_000 + "\n")
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

    def test_dual_sweep_prints_writes_csv_and_json(self, tmp_path, capsys):
        """Each capacity ``c`` of a dual sweep runs ``Policy.dual(c, c)``."""
        doc = Document("abc", tuple("ABCABCA"), ("A", "B", "C"))
        gold = ClusterSet.build("abc", "gold", {"A": [(0, 0), (3, 3), (6, 6)], "B": [(1, 1), (4, 4)], "C": [(2, 2), (5, 5)]})
        src, csv_path, out = tmp_path / "abc.jsonl", tmp_path / "sweep.csv", tmp_path / "out.json"
        write_jsonl(CorpusFile([DocumentRecord(doc, {"gold": gold})]), str(src))
        argv = ["simulate", str(src), "--policy", "dual", "--sweep", "1,2", "--csv", str(csv_path), "--out", str(out)]
        assert main(argv) == 0
        swept = sweep(gold, [Policy.dual(1, 1), Policy.dual(2, 2)])
        assert [r.to_dict() for _, r in swept] == [simulate(gold, Policy.dual(c, c)).to_dict() for c in (1, 2)]
        assert swept[0][1].evictions > 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[:2] == [
            f"abc dual({c},{c}): evictions={r.evictions} forced={r.forced_errors} rate={r.forced_error_rate:.4f}"
            for c, (_, r) in zip((1, 2), swept)
        ]
        assert printed[2] == f"sweep table written to {csv_path}"
        assert csv_path.read_text() == "# abc\n" + sweep_csv(swept)
        assert json.loads(out.read_text())["results"] == {"abc": [r.to_dict() for _, r in swept]}

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

    def test_config_does_not_override_an_explicit_root_flag(self, tmp_path, capsys):
        """argparse copies a subcommand's namespace over the root's, so a
        config value must reach only the parsers that own its flag."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        out = tmp_path / "gold.jsonl"
        assert main(["--config", str(config), "--seed", "9", "synth", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SEED_9_SHA256

    def test_config_seed_writes_the_seed_9_corpus(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9}))
        out = tmp_path / "gold.jsonl"
        assert main(["--config", str(config), "synth", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SEED_9_SHA256

    @pytest.mark.parametrize(
        "config, argv, wanted",
        [
            ({"seed": True}, ["synth", "{out}"], "an integer"),
            ({"window-len": "x"}, ["split", "{tiny}", "{out}"], "an integer"),
            ({"timeout": False}, ["pipeline", "run", "{tiny}", "{out}"], "a number"),
        ],
        ids=["seed-true", "window-len-x", "timeout-false"],
    )
    def test_config_value_a_typed_flag_cannot_read_exits_2_naming_file_and_key(
        self, tiny_jsonl, tmp_path, capsys, config, argv, wanted
    ):
        """argparse would refuse such a value with exit 1, in words that name
        neither the config file nor its key."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.jsonl"
        assert main(["--config", str(path), *(a.format(tiny=tiny_jsonl, out=out) for a in argv)]) == 2
        captured = capsys.readouterr()
        [(key, value)] = config.items()
        assert f"bookcoref: config file {str(path)!r}: {key!r} must be {wanted}, got {json.dumps(value)}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_config_jobs_does_not_override_an_explicit_jobs_flag(self, tiny_jsonl, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"jobs": 1}))
        pools = []

        def recording_pool(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", recording_pool)
        argv = ["--config", str(config), "--jobs", "2", "pipeline", "run", tiny_jsonl, str(tmp_path / "p.jsonl")]
        assert main(argv) == 0
        assert pools == [2]

    @pytest.mark.parametrize(
        "config, argv",
        [
            ({"keep-singletons": "false"}, ["score", "{tiny}", "{tiny}"]),
            ({"json": "no"}, ["stats", "{tiny}"]),
            ({"json": 0}, ["stats", "{tiny}"]),
        ],
        ids=["keep-singletons", "json", "json-0"],
    )
    def test_config_switch_that_is_not_a_boolean_exits_2(self, tiny_jsonl, tmp_path, capsys, config, argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), *(a.format(tiny=tiny_jsonl) for a in argv)]) == 2
        captured = capsys.readouterr()
        [(key, value)] = config.items()
        assert f"{key!r} must be true or false, got {json.dumps(value)}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

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
