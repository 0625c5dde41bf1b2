"""Interchange formats: JSONL (canonical) and CoNLL-2012 (export).

JSONL schema, one object per line, UTF-8, LF newlines:

    {"doc_id": str,
     "tokens": [str, ...],
     "characters": [str, ...],
     "clusters": {character: [[start, end], ...]},   # 0-based, end-inclusive
     ...}                                            # unknown keys preserved

JSONL is canonical because it carries character names; CoNLL-2012 drops
them (clusters are re-keyed to integers in first-mention order) and exists
for interop with legacy scorers. Writers emit a canonical form: compact
separators, spans sorted per cluster, known keys first and unknown keys in
their original order. Re-writing a file produced by these writers is
byte-identical.

Cost: the CoNLL writer labels only the tokens where a mention starts or ends
and writes each document with one call, so an export is linear in tokens plus
mentions; the CoNLL reader is one pass over the rows. Both
readers report a file that is not UTF-8 as a :class:`ParseError` naming the
line of the first bad byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

from .errors import ParseError, SchemaError
from .model import STAGES, ClusterSet, Document, Mention, _key_order, clusters_from_json, clusters_to_json, prediction_key

_REQUIRED_KEYS = ("doc_id", "tokens", "characters", "clusters")


@dataclass
class DocumentRecord:
    """One document plus its named cluster sets (e.g. "gold", "prediction")."""

    document: Document
    cluster_sets: dict[str, ClusterSet] = field(default_factory=dict)

    def get(self, name: str) -> ClusterSet | None:
        return self.cluster_sets.get(name)

    def only(self) -> ClusterSet:
        """The sole cluster set, when exactly one is attached."""
        if len(self.cluster_sets) != 1:
            raise SchemaError(
                f"document {self.document.doc_id!r} has {len(self.cluster_sets)} cluster sets, expected 1"
            )
        return next(iter(self.cluster_sets.values()))


@dataclass
class CorpusFile:
    """An ordered collection of documents with attached annotations."""

    records: list[DocumentRecord] = field(default_factory=list)

    def __iter__(self) -> Iterator[DocumentRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def by_id(self) -> dict[str, DocumentRecord]:
        return {r.document.doc_id: r for r in self.records}

    def doc_ids(self) -> list[str]:
        return [r.document.doc_id for r in self.records]


def _undecodable(path: str) -> ParseError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte.

    The readers decode in blocks, so the line is found here, on the error path,
    by decoding the whole file again.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        # text-mode readers split lines on \n, \r\n and \r alike
        before = data[: e.start].decode("utf-8")
        line = before.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        return ParseError(f"not valid UTF-8 (byte 0x{data[e.start]:02x})", line)
    return ParseError("not valid UTF-8")


_SURROGATE = re.compile("[\ud800-\udfff]")


def read_jsonl(path: str, clusters_as: str = "gold") -> CorpusFile:
    """Read a JSONL corpus; the "clusters" key becomes a set named ``clusters_as``.

    The set's stage is ``clusters_as`` when that is a known stage name,
    else "gold". Unknown record keys land in ``Document.source``.
    """
    stage = clusters_as if clusters_as in STAGES else "gold"
    key = prediction_key if stage == "prediction" else None
    corpus = CorpusFile()
    seen_ids: set[str] = set()
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    # an escape such as "\ud800" reads as a lone surrogate, which
                    # no writer can encode; only a line with such an escape is searched
                    lone = ("\\ud" in line or "\\uD" in line) and _SURROGATE.search(json.dumps(obj, ensure_ascii=False))
                except json.JSONDecodeError as e:
                    raise ParseError(f"malformed JSON ({e.msg})", lineno) from e
                except RecursionError as e:
                    raise ParseError("JSON nested too deeply", lineno) from e
                if not isinstance(obj, dict):
                    raise ParseError("record is not a JSON object", lineno)
                if lone:
                    raise SchemaError(f"line {lineno}: a string holds the lone surrogate {lone.group()!r}")
                missing = [k for k in _REQUIRED_KEYS if k not in obj]
                if missing:
                    raise SchemaError(f"line {lineno}: missing required keys {missing}")
                doc_id = obj["doc_id"]
                if not isinstance(doc_id, str):
                    raise SchemaError(f"line {lineno}: 'doc_id' must be a string, got {type(doc_id).__name__}")
                tokens = obj["tokens"]
                characters = obj["characters"]
                # map(isinstance, ...) checks each item at C speed
                if not isinstance(tokens, list) or not all(map(isinstance, tokens, repeat(str))):
                    raise SchemaError(f"line {lineno}: 'tokens' must be an array of strings")
                if not isinstance(characters, list) or not all(map(isinstance, characters, repeat(str))):
                    raise SchemaError(f"line {lineno}: 'characters' must be an array of strings")
                if doc_id in seen_ids:
                    raise SchemaError(f"line {lineno}: duplicate doc_id {doc_id!r}")
                seen_ids.add(doc_id)
                extra = {k: v for k, v in obj.items() if k not in _REQUIRED_KEYS}
                doc = Document(doc_id, tuple(tokens), tuple(characters), extra or None)
                clusters = clusters_from_json(obj["clusters"], SchemaError, f"line {lineno}", key)
                cs = ClusterSet(doc_id, stage, clusters)
                corpus.records.append(DocumentRecord(doc, {clusters_as: cs}))
    except UnicodeDecodeError as e:
        raise _undecodable(path) from e
    return corpus


def _pick_clusters(rec: DocumentRecord, clusters_from: str | None) -> ClusterSet:
    if clusters_from is not None:
        cs = rec.cluster_sets.get(clusters_from)
        if cs is None:
            raise SchemaError(f"document {rec.document.doc_id!r} has no cluster set {clusters_from!r}")
        return cs
    if "gold" in rec.cluster_sets:
        return rec.cluster_sets["gold"]
    return rec.only()


def _record_line(rec: DocumentRecord, clusters_from: str | None) -> str:
    doc = rec.document
    cs = _pick_clusters(rec, clusters_from)
    obj: dict = {
        "doc_id": doc.doc_id,
        "tokens": list(doc.tokens),
        "characters": list(doc.characters),
        "clusters": clusters_to_json(cs.clusters, SchemaError, f"document {cs.doc_id!r}"),
    }
    for k, v in (doc.source or {}).items():
        obj.setdefault(k, v)
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_jsonl(corpus: CorpusFile, path: str, clusters_from: str | None = None) -> None:
    """Write a corpus in canonical JSONL form.

    ``clusters_from`` picks the named set to serialize; default: "gold" if
    present, else the record's sole set. Every record is serialized before
    the file is opened, so a bad record leaves no output behind.
    """
    lines = [_record_line(rec, clusters_from) for rec in corpus.records]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


# --- CoNLL-2012 -------------------------------------------------------------

_CONLL_BEGIN = re.compile(r"#begin document \((?P<id>.*)\); part (?P<part>\d+)\s*$")
_COREF_ITEM = re.compile(r"^(\()?(\d+)(\))?$")


def _coref_labels(cs: ClusterSet, n_tokens: int) -> list[str]:
    """Per-token coreference column using (k / k) / (k) bracket notation.

    Starts from ``"-"`` everywhere and fills only the tokens where a mention
    starts or ends; each of those sorts only its own marks, so the cost is
    linear in tokens plus mentions. A span that ends past the document is a
    :class:`SchemaError`.
    """
    # integer ids in first-mention order
    firsts = sorted((ms[0], _key_order(key), key) for key, ms in cs.clusters.items() if ms)
    ids = {key: i for i, (_, _, key) in enumerate(firsts)}

    # per token: (group, order, id, text); sorting puts the opening brackets
    # first, outermost first, then single-token mentions, then the closing
    # brackets, innermost first
    marks: dict[int, list[tuple[int, int, int, str]]] = {}
    for key, ms in cs.clusters.items():
        if not ms:
            continue
        k = ids[key]
        for m in set(ms):
            start, end = m
            if end >= n_tokens:
                raise SchemaError(
                    f"document {cs.doc_id!r}: span ({start}, {end}) of cluster {key!r} "
                    f"ends past the last token ({n_tokens} tokens)"
                )
            if start == end:
                marks.setdefault(start, []).append((1, 0, k, f"({k})"))
            else:
                marks.setdefault(start, []).append((0, -end, k, f"({k}"))
                marks.setdefault(end, []).append((2, -start, k, f"{k})"))

    labels = ["-"] * n_tokens
    for i, parts in marks.items():
        parts.sort()
        labels[i] = "|".join([p[3] for p in parts])
    return labels


def _check_row_text(doc: Document) -> None:
    """A CoNLL row is one line of tab-separated columns, so a token that
    holds a tab or a line break, or a doc id that holds a line break, would
    not read back as written, and a doc id that starts with ``#`` would make
    every row of its document read as a comment: refuse them with a
    :class:`SchemaError`."""
    if "\n" in doc.doc_id or "\r" in doc.doc_id:
        raise SchemaError(f"document {doc.doc_id!r}: a doc id with a line break cannot be written as CoNLL")
    if doc.doc_id.startswith("#"):
        raise SchemaError(f"document {doc.doc_id!r}: a doc id that starts with '#' would make its CoNLL rows comments")
    text = "".join(doc.tokens)
    if "\t" in text or "\n" in text or "\r" in text:
        i = next(i for i, tok in enumerate(doc.tokens) if "\t" in tok or "\n" in tok or "\r" in tok)
        raise SchemaError(
            f"document {doc.doc_id!r}: token {i} ({doc.tokens[i]!r}) holds a tab or line break, "
            "which a CoNLL row cannot carry"
        )


def write_conll(corpus: CorpusFile, path: str, clusters_from: str | None = None) -> None:
    """Export to CoNLL-2012 layout: doc id, part, index, token, coref column.

    Character names are lost; cluster keys become integer ids assigned in
    first-mention order. Every record is checked and labelled before the file
    is opened, so a bad record (see :func:`_check_row_text`) leaves no output
    behind; each document is then written with one call. The cost is linear
    in tokens plus mentions.
    """
    docs = []
    for rec in corpus.records:
        doc = rec.document
        _check_row_text(doc)
        docs.append((doc, _coref_labels(_pick_clusters(rec, clusters_from), len(doc.tokens))))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc, labels in docs:
            prefix = f"{doc.doc_id}\t0\t"
            rows = [f"{prefix}{i}\t{tok}\t{label}\n" for i, (tok, label) in enumerate(zip(doc.tokens, labels))]
            f.write(f"#begin document ({doc.doc_id}); part 000\n{''.join(rows)}#end document\n")


def read_conll(path: str, clusters_as: str = "prediction") -> CorpusFile:
    """Read a CoNLL-2012 export back into a corpus.

    Clusters come back integer-keyed (names are not representable), so the
    attached set defaults to stage "prediction".
    """
    corpus = CorpusFile()
    doc_id: str | None = None
    tokens: list[str] = []
    open_stacks: dict[int, list[int]] = {}
    clusters: dict[int, list[Mention]] = {}

    def flush(row: int) -> None:
        nonlocal doc_id, tokens, open_stacks, clusters
        if doc_id is None:
            return
        dangling = [cid for cid, stack in open_stacks.items() if stack]
        if dangling:
            raise ParseError(f"unbalanced coreference brackets for cluster(s) {sorted(dangling)}", row)
        if not tokens:
            raise ParseError(f"document {doc_id!r} has no token rows", row)
        doc = Document(doc_id, tuple(tokens))
        cs = ClusterSet(doc_id, "prediction", clusters)
        corpus.records.append(DocumentRecord(doc, {clusters_as: cs}))
        doc_id, tokens, open_stacks, clusters = None, [], {}, {}

    try:
        with open(path, encoding="utf-8") as f:
            row = 0
            for row, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if line.startswith("#"):
                    m = _CONLL_BEGIN.match(line)
                    if m:
                        flush(row)
                        doc_id = m.group("id")
                    elif line.startswith("#end document"):
                        flush(row)
                    continue
                if not line or line.isspace():
                    continue
                if doc_id is None:
                    raise ParseError("token row outside a document block", row)
                cols = line.rsplit("\t", 2)
                if len(cols) < 2:
                    cols = line.split()
                if len(cols) < 2:
                    raise ParseError("expected at least token and coreference columns", row)
                token, label = cols[-2], cols[-1]
                idx = len(tokens)
                tokens.append(token)
                if label != "-":
                    for item in label.split("|"):
                        im = _COREF_ITEM.match(item)
                        if not im:
                            raise ParseError(f"malformed coreference item {item!r}", row)
                        opened, cid_s, closed = im.groups()
                        cid = int(cid_s)
                        if opened:
                            open_stacks.setdefault(cid, []).append(idx)
                        if closed:
                            stack = open_stacks.get(cid) or []
                            if not stack:
                                raise ParseError(f"close bracket without open for cluster {cid}", row)
                            start = stack.pop()
                            clusters.setdefault(cid, []).append(Mention(start, idx))
            flush(row)
    except UnicodeDecodeError as e:
        raise _undecodable(path) from e
    return corpus


def dumps_jsonl(corpus: CorpusFile, clusters_from: str | None = None) -> str:
    """In-memory variant of :func:`write_jsonl`: the file's text as a string."""
    out = [_record_line(rec, clusters_from) for rec in corpus.records]
    return "\n".join(out) + ("\n" if out else "")
