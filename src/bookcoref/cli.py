"""Command-line entry point.

One subcommand per capability: convert, validate, stats, split, score,
score-linking, pipeline run, simulate, synth. Every subcommand prints a
human-readable summary and can also write its full result as JSON via
``--out``. A JSON config file (``--config``) supplies defaults; explicit
flags win. Exit codes: 0 success, 1 contract/validation errors, 2 I/O or
parse errors.

(``--help`` shows the two paragraphs above; the rest is for readers of the
code.) Each ``_cmd_*`` function prints its summary and returns ``(exit code,
payload)``; it never writes the JSON itself. :func:`main` is the one output
path: it claims the ``--out`` target with
:func:`~bookcoref.formats.replaced` before the command runs, so a ``--out``
that cannot be written fails before the command writes anything, and a
command that stops on an error leaves ``--out`` as it was. Then
:func:`_write_json` adds the invocation and its hash and writes the payload;
``validate`` returns exit code 1 with its findings as a payload, which is
written like any other. Every file a command writes (its output, the
``--results`` files, the ``--csv`` table) goes through ``replaced`` too.

Each flag with a fixed set of choices reads them from one table:
``_LINKERS``, ``_JUDGES`` and ``_EXPANDERS`` map a component name to a
factory of ``(gold clusters, service client)``, ``_POLICIES`` maps a policy
name to its policy and its sweep, and ``_SETTINGS`` and ``_WRITERS`` name
the evaluation settings and the export formats. The parser's ``choices=``
are those tables, so each name is written once, and :func:`_apply_config`
checks a config file's value against them too. :func:`command` declares a
subcommand with its positionals, and :func:`build_parser` adds ``--out`` and
``--json`` to every subcommand after its own flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Sequence, TextIO

from . import __version__
from .errors import BookcorefError, CacheError, ConfigError, ParseError, SchemaError
from .formats import CorpusFile, DocumentRecord, read_conll, read_jsonl, replaced, write_conll, write_jsonl
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


#: what a config file's value for a flag of each ``type=`` must be
_TYPE_WORDS = {int: "an integer", _non_negative_int: "an integer", float: "a number"}


def _converts(type_: object, text: str) -> bool:
    """Whether a flag's ``type=`` converts ``text``; a value that it refuses
    with an ``ArgumentTypeError`` (a range check) converts, for argparse to
    refuse in the flag's own words."""
    try:
        type_(text)  # type: ignore[operator]
    except (TypeError, ValueError):
        return False
    except argparse.ArgumentTypeError:
        pass
    return True


def _write_json(args: argparse.Namespace, payload: dict, out: TextIO | None) -> None:
    """Write a command's result, with the invocation that made it, to the
    ``--out`` file ``out`` and, for ``--json``, to stdout."""
    plain = (str, int, float, bool, type(None))
    invocation = {k: v for k, v in sorted(vars(args).items()) if k != "func" and isinstance(v, plain)}
    digest = hashlib.sha256(json.dumps(invocation, sort_keys=True).encode()).hexdigest()[:16]
    text = json.dumps({**payload, "invocation": invocation, "invocation_hash": digest}, indent=2, sort_keys=True)
    if out is not None:
        print(text, file=out)
    if args.json:
        print(text)


def _is_conll(path: str) -> bool:
    return path.endswith((".conll", ".conll12", ".v4_gold_conll"))


def _load_corpus(path: str, clusters_as: str = "gold") -> CorpusFile:
    return (read_conll if _is_conll(path) else read_jsonl)(path, clusters_as=clusters_as)


def _read_corpus(path: str, clusters_as: str = "gold") -> CorpusFile:
    """The corpus at ``path``; a span past the last token of its document is
    a :class:`SpanRangeError` (exit 1). Only ``validate`` reads without this
    check, to report such spans as findings."""
    corpus = _load_corpus(path, clusters_as)
    for rec in corpus.records:
        for cs in rec.cluster_sets.values():
            check_bounds(cs, len(rec.document.tokens))
    return corpus


def _cmd_synth(args: argparse.Namespace) -> tuple[int, dict]:
    corpus = make_reference_corpus(args.seed)
    write_jsonl(corpus, args.output)
    s = corpus_stats(corpus)
    print(f"wrote {args.output}: {s.docs} docs, {s.tokens} tokens, {s.mentions} mentions (seed={args.seed})")
    return 0, {"command": "synth", "seed": args.seed, "output": args.output, "stats": s.to_dict()}


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


# each --to choice, as the writer of that format
_WRITERS = {"jsonl": write_jsonl, "conll": write_conll}


def _cmd_convert(args: argparse.Namespace) -> tuple[int, dict]:
    to = args.to or ("conll" if _is_conll(args.output) else "jsonl")
    corpus = _read_corpus(args.input)
    if to == "jsonl" and _is_conll(args.input):
        corpus = _with_key_names(corpus)
    _WRITERS[to](corpus, args.output)
    print(f"converted {args.input} -> {args.output} ({len(corpus)} documents, format {to})")
    return 0, {"command": "convert", "input": args.input, "output": args.output, "format": to}


def _cmd_validate(args: argparse.Namespace) -> tuple[int, dict]:
    corpus = _load_corpus(args.input)
    reports = {}
    for rec in corpus.records:
        for name, cs in rec.cluster_sets.items():
            report = validate(rec.document, cs)
            reports[f"{rec.document.doc_id}/{name}"] = {
                "errors": [list(f) for f in report.errors],
                "warnings": [list(f) for f in report.warnings],
            }
            status = "ok" if report.ok else f"{len(report.errors)} error(s)"
            print(f"{rec.document.doc_id}/{name}: {status}, {len(report.warnings)} warning(s)")
            for f in report.errors:
                print(f"  E {f.code} at {f.location}: {f.message}")
    failed = any(r["errors"] for r in reports.values())
    return 1 if failed else 0, {"command": "validate", "input": args.input, "reports": reports}


def _cmd_stats(args: argparse.Namespace) -> tuple[int, dict]:
    s = corpus_stats(_read_corpus(args.input))
    print(s.to_table())
    return 0, {"command": "stats", "input": args.input, "stats": s.to_dict()}


def _cmd_split(args: argparse.Namespace) -> tuple[int, dict]:
    corpus = _read_corpus(args.input)
    result = split_corpus(corpus, args.window_len)
    write_jsonl(result.corpus, args.output)
    print(
        f"split {len(corpus)} documents into {len(result.corpus)} windows of <= {args.window_len} tokens; "
        f"{result.n_crossings} boundary-crossing mention(s) dropped"
    )
    crossings = [{"doc_id": d, "cluster_set": n, "key": str(k), "span": list(m)} for d, n, k, m in result.crossings]
    payload = {"command": "split", "input": args.input, "output": args.output, "window_len": args.window_len}
    return 0, {**payload, "windows": len(result.corpus), "crossings": crossings}


def _cmd_score(args: argparse.Namespace) -> tuple[int, dict]:
    setting = Setting(_SETTINGS[args.setting], args.window_len)
    key = _read_corpus(args.key)
    response = _read_corpus(args.response, clusters_as="prediction")
    eval_run = evaluate(setting, key, response, drop_singletons=not args.keep_singletons)
    print(eval_run.summary_table())
    print(f"scored in {eval_run.timings['seconds']:.2f}s")
    if args.results:
        eval_run.save(args.results)
        print(f"run artifacts written to {args.results}/")
    return 0, {"command": "score", **eval_run.to_dict()}


def _cmd_score_linking(args: argparse.Namespace) -> tuple[int, dict]:
    key = _read_corpus(args.key)
    responses = _read_corpus(args.response, clusters_as="prediction").by_id()
    per_doc = {}
    for rec in key.records:
        resp = responses.get(rec.document.doc_id)
        if resp is None:
            raise SchemaError(f"response corpus is missing document {rec.document.doc_id!r}")
        check_token_counts(rec.document.doc_id, len(rec.document), resp.document)
        per_doc[rec.document.doc_id] = prf = linking_prf(rec.cluster_sets["gold"], resp.cluster_sets["prediction"])
        p, r, f1 = prf.as_percentages()
        print(f"{rec.document.doc_id}: P={p:.1f} R={r:.1f} F1={f1:.1f}")
    pooled = pool_prf(list(per_doc.values()))
    pp, rr, ff = pooled.as_percentages()
    print(f"pooled: P={pp:.1f} R={rr:.1f} F1={ff:.1f}")
    return 0, {
        "command": "score-linking",
        "per_doc": {doc: prf.to_dict() for doc, prf in per_doc.items()},
        "pooled": {"precision_pct": pp, "recall_pct": rr, "f1_pct": ff, "counts": pooled.to_dict()["counts"]},
    }


# each --linker, --judge and --expander choice, as a factory of (gold clusters, service client)
_LINKERS = {
    "pattern": lambda gold, client: PatternMatchLinker(),
    "oracle": lambda gold, client: OracleLinker(gold),
    "http": lambda gold, client: HttpLinker(client),
}
_JUDGES = {
    "accept": lambda gold, client: AcceptAllJudge(),
    "reject": lambda gold, client: RejectAllJudge(),
    "oracle": lambda gold, client: OracleJudge(gold),
    "http": lambda gold, client: HttpJudge(client),
}
_EXPANDERS = {
    "identity": lambda gold, client: IdentityExpander(),
    "oracle": lambda gold, client: OracleExpander(gold),
    "http": lambda gold, client: HttpExpander(client),
}


def _cmd_pipeline_run(args: argparse.Namespace) -> tuple[int, dict]:
    stages = tuple(s.strip() for s in args.stages.split(",") if s.strip())
    config = PipelineConfig(
        window_len=args.window_len,
        group_size=args.group_size,
        judge_context_words=args.context_words,
        stages=stages,
        jobs=args.jobs,
        endpoints={"all": args.endpoint} if args.endpoint else None,
    )
    choices = (args.linker, args.judge, args.expander)
    factories = (_LINKERS[args.linker], _JUDGES[args.judge], _EXPANDERS[args.expander])
    client = None
    if "http" in choices:
        if not args.endpoint:
            raise ConfigError("--endpoint is required when a component is 'http'")
        client = ServiceClient(args.endpoint, timeout=args.timeout, retries=args.retries, cache_dir=args.cache_dir)
    # one pool for the whole corpus, so a run opens jobs + 1 connections
    # (the workers' and the linker's on this thread) however many books
    pool = ThreadPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else None
    try:
        corpus = _read_corpus(args.input)
        out = CorpusFile()
        traces = {}
        for rec in corpus.records:
            gold = rec.cluster_sets.get("gold")
            if "oracle" in choices and gold is None:
                raise SchemaError(f"oracle components need gold clusters; missing for {rec.document.doc_id!r}")
            linker, judge, expander = (make(gold, client) for make in factories)
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
    return 0, payload


def _sweep_capacities(spec: str) -> list[int]:
    capacities = []
    for item in spec.split(","):
        try:
            capacities.append(int(item))
        except ValueError:
            raise ConfigError(f"--sweep: {item!r} is not an integer") from None
    return capacities


# each --policy choice: its policy from the flags, and the policy of one --sweep capacity (None: it does not sweep)
_POLICIES = {
    "unbounded": (lambda args: Policy.unbounded(), None),
    "lru": (lambda args: Policy.lru(args.capacity), Policy.lru),
    "dual": (lambda args: Policy.dual(args.l_cap, args.g_cap), lambda c: Policy.dual(c, c)),
}


def _counts(report) -> str:
    return f"evictions={report.evictions} forced={report.forced_errors} rate={report.forced_error_rate:.4f}"


def _cmd_simulate(args: argparse.Namespace) -> tuple[int, dict]:
    corpus = _read_corpus(args.input)
    make, make_swept = _POLICIES[args.policy]
    base = make(args)
    policies = []
    if args.sweep:
        capacities = _sweep_capacities(args.sweep)
        if make_swept is None:
            raise ConfigError("--sweep requires --policy lru or dual")
        policies = [make_swept(c) for c in capacities]
    elif args.csv:
        raise ConfigError("--csv requires --sweep")
    results = {}
    csv_chunks = []
    for rec in corpus.records:
        doc_id, gold = rec.document.doc_id, rec.cluster_sets["gold"]
        if policies:
            swept = sweep(gold, policies)
            results[doc_id] = [r.to_dict() for _, r in swept]
            csv_chunks.append((doc_id, sweep_csv(swept)))
            for policy, report in swept:
                print(f"{doc_id} {policy.label()}: {_counts(report)}")
        else:
            report = simulate(gold, base)
            results[doc_id] = report.to_dict()
            print(f"{doc_id} {report.policy}: mentions={report.total_mentions} {_counts(report)}")
    if args.csv:
        with replaced(args.csv) as f:
            for doc_id, chunk in csv_chunks:
                f.write(f"# {doc_id}\n")
                f.write(chunk)
        print(f"sweep table written to {args.csv}")
    return 0, {"command": "simulate", "policy": base.label(), "results": results}


def command(parent, name: str, help: str, func, *inputs: str) -> argparse.ArgumentParser:
    """Declare subcommand ``name`` of ``parent`` (a subparsers action): its
    positional ``inputs`` and the ``func`` that runs it. :func:`build_parser`
    adds ``--out`` and ``--json`` to each, after every command's own flags."""
    p = parent.add_parser(name, help=help)
    for dest in inputs:
        p.add_argument(dest)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring's first two paragraphs; the rest is for readers of the code
    parser = _Parser(prog="bookcoref", description=" ".join((__doc__ or "").split("\n\n")[:2]))
    parser.add_argument("--version", action="version", version=f"bookcoref {__version__}")
    parser.add_argument("--config", help="JSON file with default values for any flag")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized test-support behavior")
    parser.add_argument("--jobs", type=int, default=1, help="cap on concurrent judge and expander calls; results do not depend on it")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    command(sub, "synth", "generate the gold-shaped synthetic benchmark corpus", _cmd_synth, "output")
    p = command(sub, "convert", "convert between JSONL and CoNLL-2012", _cmd_convert, "input", "output")
    p.add_argument("--to", choices=_WRITERS, help="target format (default: by output extension)")
    command(sub, "validate", "check spans, duplicates and character keys", _cmd_validate, "input")
    command(sub, "stats", "corpus statistics table", _cmd_stats, "input")
    p = command(sub, "split", "cut books into independent window-documents", _cmd_split, "input", "output")
    p.add_argument("--window-len", type=int, default=DEFAULT_WINDOW_LEN)

    p = command(sub, "score", "coreference scoring under an evaluation setting", _cmd_score, "key", "response")
    p.add_argument("--setting", choices=sorted(_SETTINGS), default="full")
    p.add_argument("--window-len", type=int, default=DEFAULT_WINDOW_LEN)
    p.add_argument("--keep-singletons", action="store_true", help="score singleton clusters too")
    p.add_argument("--results", help="directory for run.json / units.jsonl / summary.txt")
    linking = "character-linking P/R/F1 over (span, character) pairs"
    command(sub, "score-linking", linking, _cmd_score_linking, "key", "response")

    pipeline = sub.add_parser("pipeline", help="annotation pipeline")
    pipeline = pipeline.add_subparsers(dest="pipeline_command", required=True, metavar="run")
    p = command(pipeline, "run", "run the staged annotation pipeline", _cmd_pipeline_run, "input", "output")
    p.add_argument("--stages", default="init,refine,window,group", help="comma list from: init,refine,window,group")
    p.add_argument("--linker", choices=_LINKERS, default="pattern")
    p.add_argument("--judge", choices=_JUDGES, default="accept")
    p.add_argument("--expander", choices=_EXPANDERS, default="identity")
    p.add_argument("--endpoint", help="base URL of the annotator service")
    p.add_argument("--window-len", type=int, default=DEFAULT_WINDOW_LEN)
    p.add_argument("--group-size", type=int, default=DEFAULT_GROUP_SIZE)
    p.add_argument("--context-words", type=int, default=DEFAULT_CONTEXT_WORDS)
    p.add_argument("--retries", type=_non_negative_int, default=2, help="HTTP attempts after the first")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--cache-dir", help="service response cache (default: $BOOKCOREF_CACHE_DIR)")

    p = command(sub, "simulate", "replay gold mention streams against a memory policy", _cmd_simulate, "input")
    p.add_argument("--policy", choices=_POLICIES, default="unbounded")
    p.add_argument("--capacity", type=int, default=25, help="cluster capacity for --policy lru")
    p.add_argument("--l-cap", type=int, default=25, help="L-cache capacity for --policy dual")
    p.add_argument("--g-cap", type=int, default=25, help="G-cache capacity for --policy dual")
    p.add_argument("--sweep", help="comma list of capacities to sweep")
    p.add_argument("--csv", help="write the sweep table as CSV")

    for p in _walk_parsers(parser):
        if p.get_default("func"):
            p.add_argument("--out", help="also write the full result as JSON to this path")
            p.add_argument("--json", action="store_true", help="print the JSON result to stdout")
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
        # a value goes only to the parsers that own its flag: argparse copies
        # a subcommand's namespace over its parent's, so a default set on a
        # subcommand would override the parent's explicit flag. argparse
        # applies type= only to string defaults, so a typed flag's value must
        # be a JSON number or text that its type converts (a range check such
        # as --retries' is left for argparse to word), and it gets its value
        # as text; any other value reaches its command as given, so an on/off
        # flag's must be a boolean already, an untyped value-taking flag's
        # must be text, and either must be one of the flag's choices if it has
        # them (argparse checks those only on the command line)
        def refused(key: str, wanted: str, value: object) -> SchemaError:
            return SchemaError(f"config file {known.config!r}: {key!r} must be {wanted}, got {json.dumps(value)}")

        for p in _walk_parsers(parser):
            owned = [(a, *normalized[a.dest]) for a in p._actions if a.option_strings and a.dest in normalized]
            for a, key, value in owned:
                switch = isinstance(a, (argparse._StoreTrueAction, argparse._StoreFalseAction))
                if switch and not isinstance(value, bool):
                    raise refused(key, "true or false", value)
                if isinstance(a, argparse._StoreAction) and a.type is None and not isinstance(value, str):
                    raise refused(key, "a string", value)
                if a.type is not None and (isinstance(value, bool) or not _converts(a.type, str(value))):
                    raise refused(key, _TYPE_WORDS[a.type], value)
                if a.choices is not None and value not in a.choices:
                    raise refused(key, f"one of {', '.join(map(repr, a.choices))}", value)
            p.set_defaults(**{a.dest: value if a.type is None else str(value) for a, _, value in owned})
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config(parser, argv)
        with replaced(args.out) if args.out else nullcontext() as out:
            code, payload = args.func(args)
            _write_json(args, payload, out)
        return code
    except (ParseError, SchemaError, CacheError, OSError) as e:
        print(f"bookcoref: {e}", file=sys.stderr)
        return 2
    except BookcorefError as e:
        print(f"bookcoref: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
