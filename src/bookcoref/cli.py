"""Command-line entry point.

One subcommand per capability: convert, validate, stats, split, score,
score-linking, pipeline run, simulate, synth. Every subcommand prints a
human-readable summary and can also write its full result as JSON via
``--out``. A JSON config file (``--config``) supplies defaults; explicit
flags win. Exit codes: 0 success, 1 contract/validation errors, 2 I/O or
parse errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from . import __version__
from .errors import BookcorefError, CacheError, ConfigError, ParseError, SchemaError
from .formats import CorpusFile, DocumentRecord, read_conll, read_jsonl, write_conll, write_jsonl
from .harness import Setting, check_token_counts, evaluate
from .memsim import Policy, simulate, sweep, sweep_csv
from .metrics import corpus_stats, linking_prf, pool_prf
from .model import Document, check_bounds, validate
from .pipeline import (
    DEFAULT_CONTEXT_WORDS,
    AcceptAllJudge,
    IdentityExpander,
    OracleExpander,
    OracleJudge,
    OracleLinker,
    PatternMatchLinker,
    PipelineConfig,
    RejectAllJudge,
    run,
)
from .remote import HttpExpander, HttpJudge, HttpLinker, ServiceClient
from .synthetic import DEFAULT_SEED, make_reference_corpus
from .windowing import DEFAULT_GROUP_SIZE, DEFAULT_WINDOW_LEN, split_corpus

_SETTINGS = {"full": "full_book", "split": "split", "gold+window": "gold_plus_window"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> "None":  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _write_json(args: argparse.Namespace, payload: dict) -> None:
    invocation = {
        k: v
        for k, v in sorted(vars(args).items())
        if k != "func" and isinstance(v, (str, int, float, bool, type(None)))
    }
    digest = hashlib.sha256(json.dumps(invocation, sort_keys=True).encode()).hexdigest()[:16]
    payload = {**payload, "invocation": invocation, "invocation_hash": digest}
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))


def _is_conll(path: str) -> bool:
    return path.endswith((".conll", ".conll12", ".v4_gold_conll"))


def _load_corpus(path: str, clusters_as: str = "gold") -> CorpusFile:
    if _is_conll(path):
        return read_conll(path, clusters_as=clusters_as)
    return read_jsonl(path, clusters_as=clusters_as)


def _read_corpus(path: str, clusters_as: str = "gold") -> CorpusFile:
    """The corpus at ``path``; a span past the last token of its document is
    a :class:`SpanRangeError` (exit 1). Only ``validate`` reads without this
    check, to report such spans as findings."""
    corpus = _load_corpus(path, clusters_as)
    for rec in corpus.records:
        for cs in rec.cluster_sets.values():
            check_bounds(cs, len(rec.document.tokens))
    return corpus


def _cmd_synth(args: argparse.Namespace) -> int:
    corpus = make_reference_corpus(args.seed)
    write_jsonl(corpus, args.output)
    s = corpus_stats(corpus)
    print(f"wrote {args.output}: {s.docs} docs, {s.tokens} tokens, {s.mentions} mentions (seed={args.seed})")
    _write_json(args, {"command": "synth", "seed": args.seed, "output": args.output, "stats": s.to_dict()})
    return 0


def _with_key_names(corpus: CorpusFile) -> CorpusFile:
    """A corpus read from CoNLL, each document's character index naming its
    integer cluster keys in numbered order, so that the JSONL written from it
    validates: CoNLL carries no character names."""
    records = []
    for rec in corpus.records:
        doc = rec.document
        names = tuple(str(k) for k in sorted(rec.pick("gold").clusters))
        records.append(DocumentRecord(Document(doc.doc_id, doc.tokens, names, doc.source), rec.cluster_sets))
    return CorpusFile(records)


def _cmd_convert(args: argparse.Namespace) -> int:
    to = args.to
    if to is None:
        to = "conll" if _is_conll(args.output) else "jsonl"
    corpus = _read_corpus(args.input)
    if to == "conll":
        write_conll(corpus, args.output)
    else:
        if _is_conll(args.input):
            corpus = _with_key_names(corpus)
        write_jsonl(corpus, args.output)
    print(f"converted {args.input} -> {args.output} ({len(corpus)} documents, format {to})")
    _write_json(args, {"command": "convert", "input": args.input, "output": args.output, "format": to})
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.input)
    total_errors = 0
    reports = {}
    for rec in corpus.records:
        for name, cs in rec.cluster_sets.items():
            report = validate(rec.document, cs)
            total_errors += len(report.errors)
            reports[f"{rec.document.doc_id}/{name}"] = {
                "errors": [list(f) for f in report.errors],
                "warnings": [list(f) for f in report.warnings],
            }
            status = "ok" if report.ok else f"{len(report.errors)} error(s)"
            print(f"{rec.document.doc_id}/{name}: {status}, {len(report.warnings)} warning(s)")
            for f in report.errors:
                print(f"  E {f.code} at {f.location}: {f.message}")
    _write_json(args, {"command": "validate", "input": args.input, "reports": reports})
    return 1 if total_errors else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.input)
    s = corpus_stats(corpus)
    print(s.to_table())
    _write_json(args, {"command": "stats", "input": args.input, "stats": s.to_dict()})
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.input)
    result = split_corpus(corpus, args.window_len)
    write_jsonl(result.corpus, args.output)
    print(
        f"split {len(corpus)} documents into {len(result.corpus)} windows of <= {args.window_len} tokens; "
        f"{result.n_crossings} boundary-crossing mention(s) dropped"
    )
    _write_json(
        args,
        {
            "command": "split",
            "input": args.input,
            "output": args.output,
            "window_len": args.window_len,
            "windows": len(result.corpus),
            "crossings": [
                {"doc_id": d, "cluster_set": n, "key": str(k), "span": [m.start, m.end]}
                for d, n, k, m in result.crossings
            ],
        },
    )
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    setting = Setting(_SETTINGS[args.setting], args.window_len)
    key = _read_corpus(args.key)
    response = _read_corpus(args.response, clusters_as="prediction")
    eval_run = evaluate(setting, key, response, drop_singletons=not args.keep_singletons)
    print(eval_run.summary_table())
    print(f"scored in {eval_run.timings['seconds']:.2f}s")
    if args.results:
        eval_run.save(args.results)
        print(f"run artifacts written to {args.results}/")
    _write_json(args, {"command": "score", **eval_run.to_dict()})
    return 0


def _cmd_score_linking(args: argparse.Namespace) -> int:
    key = _read_corpus(args.key)
    response = _read_corpus(args.response, clusters_as="prediction")
    responses = response.by_id()
    per_doc = []
    for rec in key.records:
        resp = responses.get(rec.document.doc_id)
        if resp is None:
            raise SchemaError(f"response corpus is missing document {rec.document.doc_id!r}")
        check_token_counts(rec.document.doc_id, len(rec.document), resp.document)
        prf = linking_prf(rec.cluster_sets["gold"], resp.cluster_sets["prediction"])
        per_doc.append((rec.document.doc_id, prf))
        p, r, f1 = prf.as_percentages()
        print(f"{rec.document.doc_id}: P={p:.1f} R={r:.1f} F1={f1:.1f}")
    pooled = pool_prf([prf for _, prf in per_doc])
    pp, rr, ff = pooled.as_percentages()
    print(f"pooled: P={pp:.1f} R={rr:.1f} F1={ff:.1f}")
    _write_json(
        args,
        {
            "command": "score-linking",
            "per_doc": {doc: prf.to_dict() for doc, prf in per_doc},
            "pooled": {"precision_pct": pp, "recall_pct": rr, "f1_pct": ff, "counts": pooled.to_dict()["counts"]},
        },
    )
    return 0


def _components(args: argparse.Namespace, gold, client):
    if args.linker == "pattern":
        linker = PatternMatchLinker()
    elif args.linker == "oracle":
        linker = OracleLinker(gold)
    else:
        linker = HttpLinker(client)
    if args.judge == "accept":
        judge = AcceptAllJudge()
    elif args.judge == "reject":
        judge = RejectAllJudge()
    elif args.judge == "oracle":
        judge = OracleJudge(gold)
    else:
        judge = HttpJudge(client)
    if args.expander == "identity":
        expander = IdentityExpander()
    elif args.expander == "oracle":
        expander = OracleExpander(gold)
    else:
        expander = HttpExpander(client)
    return linker, judge, expander


def _cmd_pipeline_run(args: argparse.Namespace) -> int:
    stages = tuple(s.strip() for s in args.stages.split(",") if s.strip())
    config = PipelineConfig(
        window_len=args.window_len,
        group_size=args.group_size,
        judge_context_words=args.context_words,
        stages=stages,
        jobs=args.jobs,
        endpoints={"all": args.endpoint} if args.endpoint else None,
    )
    needs_gold = "oracle" in (args.linker, args.judge, args.expander)
    client = None
    if "http" in (args.linker, args.judge, args.expander):
        if not args.endpoint:
            raise ConfigError("--endpoint is required when a component is 'http'")
        client = ServiceClient(
            args.endpoint, timeout=args.timeout, retries=args.retries, cache_dir=args.cache_dir
        )
    # one pool for the whole corpus, so a run opens jobs + 1 connections
    # (the workers' and the linker's on this thread) however many books
    pool = ThreadPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else None
    try:
        corpus = _read_corpus(args.input)
        out = CorpusFile()
        traces = {}
        for rec in corpus.records:
            gold = rec.cluster_sets.get("gold")
            if needs_gold and gold is None:
                raise SchemaError(f"oracle components need gold clusters; missing for {rec.document.doc_id!r}")
            linker, judge, expander = _components(args, gold, client)
            final, trace = run(rec.document, config, linker, judge, expander, executor=pool)
            out.records.append(DocumentRecord(rec.document, {"prediction": final.with_stage("prediction")}))
            traces[rec.document.doc_id] = trace_dict = trace.to_dict()
            counts = trace_dict["mention_counts"]
            print(f"{rec.document.doc_id}: stages {', '.join(f'{k}={v}' for k, v in counts.items())}")
        write_jsonl(out, args.output, clusters_from="prediction")
        print(f"wrote predictions to {args.output} (config {config.config_hash()})")
        payload = {"command": "pipeline-run", "config_hash": config.config_hash(), "stages": list(stages), "traces": traces}
        if client is not None:
            # cache hits and completion order vary from run to run
            payload["timings"] = {"service_log": client.log}
    finally:
        if pool is not None:
            pool.shutdown()
        if client is not None:
            client.close()
    _write_json(args, payload)
    return 0


def _sweep_capacities(spec: str) -> list[int]:
    capacities = []
    for item in spec.split(","):
        try:
            capacities.append(int(item))
        except ValueError:
            raise ConfigError(f"--sweep: {item!r} is not an integer") from None
    return capacities


def _cmd_simulate(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.input)
    if args.policy == "unbounded":
        base = Policy.unbounded()
    elif args.policy == "lru":
        base = Policy.lru(args.capacity)
    else:
        base = Policy.dual(args.l_cap, args.g_cap)
    policies = []
    if args.sweep:
        capacities = _sweep_capacities(args.sweep)
        if args.policy == "lru":
            policies = [Policy.lru(c) for c in capacities]
        elif args.policy == "dual":
            policies = [Policy.dual(c, c) for c in capacities]
        else:
            raise ConfigError("--sweep requires --policy lru or dual")
    elif args.csv:
        raise ConfigError("--csv requires --sweep")
    results = {}
    csv_chunks = []
    for rec in corpus.records:
        gold = rec.cluster_sets["gold"]
        if policies:
            swept = sweep(gold, policies)
            results[rec.document.doc_id] = [r.to_dict() for _, r in swept]
            csv_chunks.append((rec.document.doc_id, sweep_csv(swept)))
            for policy, report in swept:
                print(
                    f"{rec.document.doc_id} {policy.label()}: evictions={report.evictions} "
                    f"forced={report.forced_errors} rate={report.forced_error_rate:.4f}"
                )
        else:
            report = simulate(gold, base)
            results[rec.document.doc_id] = report.to_dict()
            print(
                f"{rec.document.doc_id} {report.policy}: mentions={report.total_mentions} "
                f"evictions={report.evictions} forced={report.forced_errors} "
                f"rate={report.forced_error_rate:.4f}"
            )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            for doc_id, chunk in csv_chunks:
                f.write(f"# {doc_id}\n")
                f.write(chunk)
        print(f"sweep table written to {args.csv}")
    _write_json(args, {"command": "simulate", "policy": base.label(), "results": results})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bookcoref", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bookcoref {__version__}")
    parser.add_argument("--config", help="JSON file with default values for any flag")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized test-support behavior")
    parser.add_argument("--jobs", type=int, default=1, help="cap on concurrent judge and expander calls; results do not depend on it")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="also write the full result as JSON to this path")
        p.add_argument("--json", action="store_true", help="print the JSON result to stdout")

    p = sub.add_parser("synth", help="generate the gold-shaped synthetic benchmark corpus")
    p.add_argument("output")
    common_out(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("convert", help="convert between JSONL and CoNLL-2012")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=("jsonl", "conll"), help="target format (default: by output extension)")
    common_out(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("validate", help="check spans, duplicates and character keys")
    p.add_argument("input")
    common_out(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="corpus statistics table")
    p.add_argument("input")
    common_out(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("split", help="cut books into independent window-documents")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--window-len", type=int, default=DEFAULT_WINDOW_LEN)
    common_out(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("score", help="coreference scoring under an evaluation setting")
    p.add_argument("--setting", choices=sorted(_SETTINGS), default="full")
    p.add_argument("key")
    p.add_argument("response")
    p.add_argument("--window-len", type=int, default=DEFAULT_WINDOW_LEN)
    p.add_argument("--keep-singletons", action="store_true", help="score singleton clusters too")
    p.add_argument("--results", help="directory for run.json / units.jsonl / summary.txt")
    common_out(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("score-linking", help="character-linking P/R/F1 over (span, character) pairs")
    p.add_argument("key")
    p.add_argument("response")
    common_out(p)
    p.set_defaults(func=_cmd_score_linking)

    p = sub.add_parser("pipeline", help="annotation pipeline").add_subparsers(
        dest="pipeline_command", required=True, metavar="run"
    )
    pr = p.add_parser("run", help="run the staged annotation pipeline")
    pr.add_argument("input")
    pr.add_argument("output")
    pr.add_argument("--stages", default="init,refine,window,group", help="comma list from: init,refine,window,group")
    pr.add_argument("--linker", choices=("pattern", "oracle", "http"), default="pattern")
    pr.add_argument("--judge", choices=("accept", "reject", "oracle", "http"), default="accept")
    pr.add_argument("--expander", choices=("identity", "oracle", "http"), default="identity")
    pr.add_argument("--endpoint", help="base URL of the annotator service")
    pr.add_argument("--window-len", type=int, default=DEFAULT_WINDOW_LEN)
    pr.add_argument("--group-size", type=int, default=DEFAULT_GROUP_SIZE)
    pr.add_argument("--context-words", type=int, default=DEFAULT_CONTEXT_WORDS)
    pr.add_argument("--retries", type=_non_negative_int, default=2, help="HTTP attempts after the first")
    pr.add_argument("--timeout", type=float, default=30.0)
    pr.add_argument("--cache-dir", help="service response cache (default: $BOOKCOREF_CACHE_DIR)")
    common_out(pr)
    pr.set_defaults(func=_cmd_pipeline_run)

    p = sub.add_parser("simulate", help="replay gold mention streams against a memory policy")
    p.add_argument("input")
    p.add_argument("--policy", choices=("unbounded", "lru", "dual"), default="unbounded")
    p.add_argument("--capacity", type=int, default=25, help="cluster capacity for --policy lru")
    p.add_argument("--l-cap", type=int, default=25, help="L-cache capacity for --policy dual")
    p.add_argument("--g-cap", type=int, default=25, help="G-cache capacity for --policy dual")
    p.add_argument("--sweep", help="comma list of capacities to sweep")
    p.add_argument("--csv", help="write the sweep table as CSV")
    common_out(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


def _walk_parsers(parser: argparse.ArgumentParser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _walk_parsers(child)


def _apply_config(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    probe = _Parser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if known.config:
        with open(known.config, encoding="utf-8") as f:
            try:
                defaults = json.load(f)
            except ValueError as e:  # a JSONDecodeError, or an integer literal too long to convert
                line = getattr(e, "lineno", None)
                raise ParseError(f"config file {known.config!r}: {getattr(e, 'msg', e)}", line) from e
            except RecursionError as e:
                raise ParseError(f"config file {known.config!r}: JSON nested too deeply") from e
        if not isinstance(defaults, dict):
            raise SchemaError(f"config file {known.config!r} must hold a JSON object")
        normalized = {k.replace("-", "_"): (k, v) for k, v in defaults.items()}
        flags = {a.dest for p in _walk_parsers(parser) for a in p._actions if a.option_strings}
        unknown = [key for dest, (key, _) in normalized.items() if dest not in flags]
        if unknown:
            raise SchemaError(f"config file {known.config!r}: {unknown[0]!r} names no flag")
        # subcommands parse into a fresh namespace, so defaults must reach
        # every parser in the tree; argparse applies type= only to string
        # defaults, so typed flags get theirs as text and keep their checks,
        # and an untyped value-taking flag reaches its command as given, so
        # it must be text already
        for p in _walk_parsers(parser):
            typed = {a.dest for a in p._actions if a.type is not None}
            untyped = {a.dest for a in p._actions if isinstance(a, argparse._StoreAction) and a.type is None}
            for dest, (key, value) in normalized.items():
                if dest in untyped and not isinstance(value, str):
                    raise SchemaError(
                        f"config file {known.config!r}: {key!r} must be a string, got {json.dumps(value)}"
                    )
            p.set_defaults(**{k: str(v) if k in typed else v for k, (_, v) in normalized.items()})
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config(parser, argv)
        return args.func(args)
    except (ParseError, SchemaError, CacheError, OSError) as e:
        print(f"bookcoref: {e}", file=sys.stderr)
        return 2
    except BookcorefError as e:
        print(f"bookcoref: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
