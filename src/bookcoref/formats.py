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
and writes each document in chunks of rows, so an export is linear in tokens
plus mentions; the CoNLL reader is one pass over the rows. Memory goes on
token text, not on clusters: both readers keep one string per distinct token
text in a file, so a read book holds about 22 bytes a token (its tokens tuple
and its mentions) rather than a fresh string each. A read's transient is its
current line and one slice of it: the JSONL reader decodes the tokens of a
written line about 64 KB of text at a time and maps each slice to the shared
strings before it decodes the next, so it never holds one fresh string per
token of a book. The writer holds a document's labels and one chunk of rows,
not its whole text, and builds the labels from one int per bracket. Both
readers report a file that is not UTF-8 as a :class:`ParseError` naming the
line of the first bad byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import islice, repeat
from json.decoder import scanstring
from operator import itemgetter
from typing import Iterator

from .errors import ParseError, SchemaError
from .model import STAGES, ClusterSet, Document, Mention, _key_order, clusters_from_json, clusters_to_json, prediction_key

_REQUIRED_KEYS = ("doc_id", "tokens", "characters", "clusters")
_end = itemgetter(1)


@dataclass
class DocumentRecord:
    """One document plus its named cluster sets (e.g. "gold", "prediction")."""

    document: Document
    cluster_sets: dict[str, ClusterSet] = field(default_factory=dict)

    def pick(self, name: str) -> ClusterSet:
        """The cluster set called ``name``, else the sole set attached; a
        record with neither is a :class:`SchemaError`."""
        sets = self.cluster_sets
        cs = sets.get(name)
        if cs is not None:
            return cs
        if len(sets) == 1:
            return next(iter(sets.values()))
        raise SchemaError(
            f"document {self.document.doc_id!r} has no cluster set {name!r} and not exactly one other: "
            f"it has {sorted(sets)}"
        )


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

#: ``read_jsonl`` decodes a line's ``tokens`` array about this many characters
#: of line text at a time.
_TOKEN_SLICE = 1 << 16
_HEAD = '{"doc_id":"'
_TOKENS = ',"tokens":['
_TOKENS_END = '"],"characters":'
# In an array of strings, a '","' that is not between two elements (the
# comma token's own text, or a string that holds '",') ends with a closing
# quote, so ',' or ']' follows it; a boundary is followed by the next
# element's text.
_ELEMENT_BOUNDARY = re.compile(r'","(?![,\]])')


def _new_texts_are_strings(texts: dict[str, str], known: int) -> bool:
    """Whether the texts added to ``texts`` since it held ``known`` are all
    strings. Each token is mapped to the file's first string of its text by
    ``texts.setdefault``, and a str never equals a non-str, so a line's tokens
    are all strings exactly when the texts new to it are (newest last, hence
    reversed)."""
    return all(map(isinstance, islice(reversed(texts), len(texts) - known), repeat(str)))


def _sliced_object(line: str, texts: dict[str, str]) -> dict | None:
    """The object of a line in the writers' layout, its tokens decoded
    ``_TOKEN_SLICE`` characters of text at a time and each slice mapped to
    the file's shared strings (``texts``) before the next is decoded, so a
    read never holds one fresh string per token of a book.

    The line is cut into its head, token slices at element boundaries, and
    its other members; each piece is decoded on its own, so when every piece
    decodes, the line is valid JSON and this is exactly its ``json.loads``
    object, with ``"tokens"`` a tuple of strings (which JSON never decodes
    to). Anything else returns ``None``, for the whole-line path to read and
    word every error: another layout, a token that is not a string, a slice
    that does not decode, and a ``\\u`` escape that may be a lone
    surrogate. ``texts`` is then as it was.
    """
    if not line.startswith(_HEAD) or "\\ud" in line or "\\uD" in line:
        return None
    known = len(texts)
    try:
        doc_id, lo = scanstring(line, len(_HEAD))
        if not line.startswith(_TOKENS + '"', lo):
            return None
        lo += len(_TOKENS)
        end = line.find(_TOKENS_END, lo)  # the last token's closing quote
        if end < 0:
            return None
        tokens: list[str] = []
        while True:
            cut = _ELEMENT_BOUNDARY.search(line, lo + _TOKEN_SLICE, end)
            hi = cut.start() + 1 if cut else end + 1
            part = json.loads("[" + line[lo:hi] + "]")
            tokens += map(texts.setdefault, part, part)
            del part
            if cut is None:
                break
            lo = hi + 1
        rest = json.loads("{" + line[end + 3 :])
    except (ValueError, RecursionError, TypeError):  # TypeError: an unhashable token
        rest = None
    if rest is None or not _new_texts_are_strings(texts, known):
        while len(texts) > known:
            texts.popitem()
        return None
    # a later "doc_id" or "tokens" member wins, keeping the first one's place, as in json.loads
    return {"doc_id": doc_id, "tokens": tuple(tokens), **rest}


def _jsonl_record(
    line: str, lineno: int, texts: dict[str, str], seen_ids: set[str], clusters_as: str, stage: str
) -> DocumentRecord:
    """The record of one non-blank line of a JSONL corpus (see :func:`read_jsonl`)."""
    obj = _sliced_object(line, texts)
    if obj is None:
        try:
            obj = json.loads(line)
            # an escape such as "\ud800" reads as a lone surrogate, which
            # no writer can encode; only a line with such an escape is searched
            lone = ("\\ud" in line or "\\uD" in line) and _SURROGATE.search(json.dumps(obj, ensure_ascii=False))
        except ValueError as e:  # a JSONDecodeError, or an integer literal too long to convert
            raise ParseError(f"malformed JSON ({getattr(e, 'msg', e)})", lineno) from e
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
    if type(tokens) is not tuple:  # the whole-line path: share and check the tokens here
        known = len(texts)
        try:
            tokens = tuple(map(texts.setdefault, tokens, tokens)) if isinstance(tokens, list) else None
        except TypeError:  # an unhashable token
            tokens = None
        if tokens is None or not _new_texts_are_strings(texts, known):
            raise SchemaError(f"line {lineno}: 'tokens' must be an array of strings")
    if not isinstance(characters, list) or not all(map(isinstance, characters, repeat(str))):
        raise SchemaError(f"line {lineno}: 'characters' must be an array of strings")
    if doc_id in seen_ids:
        raise SchemaError(f"line {lineno}: duplicate doc_id {doc_id!r}")
    seen_ids.add(doc_id)
    extra = {k: v for k, v in obj.items() if k not in _REQUIRED_KEYS}
    doc = Document(doc_id, tokens, tuple(characters), extra or None)
    key = prediction_key if stage == "prediction" else None
    clusters = clusters_from_json(obj["clusters"], SchemaError, f"line {lineno}", key)
    return DocumentRecord(doc, {clusters_as: ClusterSet(doc_id, stage, clusters)})


def read_jsonl(path: str, clusters_as: str = "gold") -> CorpusFile:
    """Read a JSONL corpus; the "clusters" key becomes a set named ``clusters_as``.

    The set's stage is ``clusters_as`` when that is a known stage name,
    else "gold". Unknown record keys land in ``Document.source``. Every
    token of the file with the same text is the same string object, so the
    corpus holds one string per distinct token text.

    A line in the writers' layout has its ``tokens`` decoded a slice of
    about ``_TOKEN_SLICE`` characters at a time (see :func:`_sliced_object`),
    so beyond the records it returns, a read holds the current line, one
    slice's fresh strings and the record being built; each record's decoded
    object is dropped before the next line is read. Any other line (spaces
    between elements, another key order, a token that is not a string) is
    decoded whole by ``json.loads``. Both paths give the same records and
    the same errors, which name the line.
    """
    stage = clusters_as if clusters_as in STAGES else "gold"
    corpus = CorpusFile()
    seen_ids: set[str] = set()
    texts: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if not line.isspace():
                    corpus.records.append(_jsonl_record(line, lineno, texts, seen_ids, clusters_as, stage))
    except UnicodeDecodeError as e:
        raise _undecodable(path) from e
    return corpus


def _record_line(rec: DocumentRecord, clusters_from: str | None) -> str:
    doc = rec.document
    if clusters_from is None:
        cs = rec.pick("gold")
    else:
        cs = rec.cluster_sets.get(clusters_from)
        if cs is None:
            raise SchemaError(f"document {doc.doc_id!r} has no cluster set {clusters_from!r}")
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

    ``clusters_from`` names the set to serialize, and a record without it is
    a :class:`SchemaError`; by default each record's
    :meth:`~DocumentRecord.pick` of "gold" is written. Every record is
    serialized before the file is opened, so a bad record leaves no output
    behind.
    """
    lines = [_record_line(rec, clusters_from) for rec in corpus.records]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


# --- CoNLL-2012 -------------------------------------------------------------

_CONLL_BEGIN = re.compile(r"#begin document \((?P<id>.*)\); part (?P<part>\d+)\s*$")
_COREF_ITEM = re.compile(r"^(\()?(\d+)(\))?$")
#: ``write_conll`` joins and writes a document's rows this many at a time.
_CONLL_CHUNK_ROWS = 4096


def _coref_labels(cs: ClusterSet, n_tokens: int) -> list[str]:
    """Per-token coreference column using (k / k) / (k) bracket notation.

    Starts from ``"-"`` everywhere and fills only the tokens where a mention
    starts or ends, so the cost is linear in tokens plus mentions (and a sort
    of the marks). A span that ends past the document is a
    :class:`SchemaError`.
    """
    clusters = cs.clusters
    for key, ms in clusters.items():
        if ms and max(map(_end, ms)) >= n_tokens:
            start, end = next(m for m in set(ms) if m[1] >= n_tokens)
            raise SchemaError(
                f"document {cs.doc_id!r}: span ({start}, {end}) of cluster {key!r} "
                f"ends past the last token ({n_tokens} tokens)"
            )
    # integer ids in first-mention order
    firsts = sorted((ms[0], _key_order(key), key) for key, ms in clusters.items() if ms)
    ids = {key: i for i, (_, _, key) in enumerate(firsts)}
    n, width = n_tokens, len(ids)

    # Each mark is one int that sorts by its token, then by bracket order, then
    # by cluster id: a mention opens at its start, outermost (last-ending) first,
    # with a single-token mention last, and closes at its end, innermost
    # (last-starting) first, after the token's openings. Equal marks (a
    # mention given twice in a cluster) are written once.
    labels = ["-"] * n
    opening = sorted([(s * n + n - 1 - e) * width + ids[key] for key, ms in clusters.items() for s, e in ms])
    _write_marks(labels, opening, n, width, closing=False)
    del opening
    closing = sorted([(e * n + n - 1 - s) * width + ids[key] for key, ms in clusters.items() for s, e in ms if s < e])
    _write_marks(labels, closing, n, width, closing=True)
    return labels


def _write_marks(labels: list[str], marks: list[int], n: int, width: int, closing: bool) -> None:
    """Append each of ``_coref_labels``' sorted ``marks`` to its token's label."""
    prev = -1
    for mark in marks:
        if mark == prev:
            continue
        prev = mark
        rest, k = divmod(mark, width)
        i, other = divmod(rest, n)
        text = f"{k})" if closing else f"({k})" if other == n - 1 - i else f"({k}"
        label = labels[i]
        labels[i] = text if label == "-" else f"{label}|{text}"


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


def write_conll(corpus: CorpusFile, path: str) -> None:
    """Export to CoNLL-2012 layout: doc id, part, index, token, coref column.

    Each record's :meth:`~DocumentRecord.pick` of "gold" is written.
    Character names are lost; cluster keys become integer ids assigned in
    first-mention order. Every record is checked and labelled before the
    file is opened, so a bad record (see :func:`_check_row_text`) leaves no
    output behind. Each document is then written as its header, its rows
    joined ``_CONLL_CHUNK_ROWS`` at a time, and its end line, so beyond the
    labels the writer holds one chunk of rows, not a copy of the document's
    text. The cost is linear in tokens plus mentions.
    """
    docs = []
    for rec in corpus.records:
        doc = rec.document
        _check_row_text(doc)
        docs.append((doc, _coref_labels(rec.pick("gold"), len(doc.tokens))))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc, labels in docs:
            f.write(f"#begin document ({doc.doc_id}); part 000\n")
            prefix = f"{doc.doc_id}\t0\t"
            tokens = doc.tokens
            for lo in range(0, len(tokens), _CONLL_CHUNK_ROWS):
                hi = lo + _CONLL_CHUNK_ROWS
                rows = zip(range(lo, hi), tokens[lo:hi], labels[lo:hi])
                f.write("".join([f"{prefix}{i}\t{tok}\t{label}\n" for i, tok, label in rows]))
            f.write("#end document\n")


def read_conll(path: str, clusters_as: str = "prediction") -> CorpusFile:
    """Read a CoNLL-2012 export back into a corpus.

    Clusters come back integer-keyed (names are not representable), so the
    attached set defaults to stage "prediction". Each row's token is replaced
    by the file's first string of the same text as it is read, so the corpus
    holds one string per distinct token text.
    """
    corpus = CorpusFile()
    texts: dict[str, str] = {}
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
                tokens.append(texts.setdefault(token, token))
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
