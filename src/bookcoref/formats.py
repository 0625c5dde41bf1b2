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

Cost: the JSONL writer joins each cluster's spans as text, and a document's
tokens when none needs an escape (their joined text is printable and holds no
``"`` or ``\\``), which is byte for byte what ``json.dumps`` writes; only the
doc id, the characters, the cluster names, the unknown keys and a tokens
array that needs an escape go through ``json.dumps``. The writers test no
span: a :class:`~bookcoref.model.ClusterSet` holds only valid mentions (see
:func:`~bookcoref.model.sorted_mentions`), and the CoNLL writer finds a span
past the end of its document on the error path of its labelling pass. Both
refuse, searching only text that is neither ASCII nor printable, a lone
surrogate, which UTF-8 cannot encode (a :class:`SchemaError`), at no cost on
plain text. Both stream, a record at a time, into :func:`replaced`, which
every file this package writes goes through: a write that fails, on a bad
record or on a full disk, leaves the target as it was. The JSONL reader
reads a line in the writers' layout in pieces (see :func:`_sliced_object`):
each cluster's spans, when they are canonical non-negative integers, as one
flat list of integers, so it builds one mention per span and no list per
span. The CoNLL writer writes each bracket straight into its token's label
in one pass over the clusters, sorting only the brackets of a token that
carries several, and writes each document in chunks of rows, so an export is
linear in tokens plus mentions.
The CoNLL reader reads about 64 KB of whole lines at a time and splits a
run of rows in the writer's layout on tabs once, so a plain row (a token
labelled ``-``, most rows of a book) runs no Python code of its own; any
other row is split into columns alone. Each distinct label text is parsed
once per read, so a labelled row costs a dictionary lookup and the bracket
updates its items make; a closing bracket builds its mention directly, with
no range check, from the index its opening pushed.

Memory goes on token text, not on clusters: both readers keep one string per
distinct token text in a file, so a read book holds about 22 bytes a token
(its tokens tuple and its mentions) rather than a fresh string each. A JSONL
read's transient is its current line and one slice of it: the reader decodes
the tokens of a written line about 64 KB of text at a time and maps each
slice to the shared strings before it decodes the next, so it never holds one
fresh string per token of a book, and reads the clusters one at a time, so
it holds one cluster's flat list of integers, not a list per span. The
JSONL writer holds one record's line, and the CoNLL writer one document's
labels and one chunk of rows, not its whole text, and shares each cluster's
three bracket texts among its labels. The CoNLL reader holds one batch of
text and its split on tabs, about 0.3 MB whatever the length of a book.
Both readers report a file that is not UTF-8 as a :class:`ParseError`
naming the line of the first bad byte.
"""

from __future__ import annotations

import errno
import json
import os
import re
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from json.decoder import scanstring
from typing import Iterator, Sequence, TextIO

from .errors import ParseError, SchemaError, SpanRangeError
from .model import (
    STAGES, ClusterSet, Document, Mention, _key_order, _new_tuple, _sorted_set, check_bounds, clusters_from_json,
    clusters_to_json, mentions_from_text, prediction_key,
)

_REQUIRED_KEYS = ("doc_id", "tokens", "characters", "clusters")


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
_COMPACT = (",", ":")

#: ``read_jsonl`` decodes a line's ``tokens`` array about this many characters
#: of line text at a time.
_TOKEN_SLICE = 1 << 16
_HEAD = '{"doc_id":"'
_TOKENS = ',"tokens":['
_TOKENS_END = '"],"characters":'
_CLUSTERS = ',"clusters":{'
_scan_value = json.JSONDecoder().scan_once
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


def _sliced_clusters(line: str, pos: int) -> tuple[dict[str, tuple[Mention, ...]], int] | None:
    """The clusters object of a line in the writers' layout that opens just
    before ``pos``, each name's spans read as text by
    :func:`~bookcoref.model.mentions_from_text`, and the position after its
    closing brace; ``None`` when a cluster is not ``"name":[]`` or
    ``"name":[[s,e],...]`` in canonical form. A name given twice keeps its
    first place and its last spans, as in ``json.loads``."""
    clusters: dict[str, tuple[Mention, ...]] = {}
    if line.startswith("}", pos):
        return clusters, pos + 1
    while line.startswith('"', pos):
        name, pos = scanstring(line, pos + 1)
        if line.startswith(":[]", pos):
            ms: tuple[Mention, ...] | None = ()
            pos += 3
        elif line.startswith(":[[", pos):
            # spans hold no "]]", so the first one after a canonical span array ends it
            close = line.find("]]", pos)
            ms = mentions_from_text(line[pos + 3 : close]) if close >= 0 else None
            if ms is None:
                return None
            pos = close + 2
        else:
            return None
        clusters[name] = ms
        if line.startswith("}", pos):
            return clusters, pos + 1
        if not line.startswith(',"', pos):
            return None
        pos += 1
    return None


def _sliced_object(line: str, texts: dict[str, str]) -> dict | None:
    """The object of a line in the writers' layout, its tokens decoded
    ``_TOKEN_SLICE`` characters of text at a time and each slice mapped to
    the file's shared strings (``texts``) before the next is decoded, so a
    read never holds one fresh string per token of a book, and its clusters
    read as text a cluster at a time (see :func:`_sliced_clusters`), so it
    never builds a list per span.

    The line is cut into its head, token slices at element boundaries, its
    characters, each cluster, and its other members; each piece is decoded
    on its own, so when every piece decodes, the line is valid JSON and this
    is its ``json.loads`` object with ``"tokens"`` a tuple of strings and
    ``"clusters"`` each name's sorted mentions (which JSON never decodes
    to), what :func:`~bookcoref.model.clusters_from_json` makes of them.
    Anything else returns ``None``, for the whole-line path to read and word
    every error: another layout, a token that is not a string, a slice that
    does not decode, a ``\\u`` escape that may be a lone surrogate, a span
    not in canonical form or with ``end < start``, and a second
    ``"characters"`` or ``"clusters"`` member. ``texts`` is then as it was.
    """
    if not line.startswith(_HEAD) or "\\ud" in line or "\\uD" in line:
        return None
    known = len(texts)
    obj = None
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
        characters, pos = _scan_value(line, end + len(_TOKENS_END))
        sliced = line.startswith(_CLUSTERS, pos) and _sliced_clusters(line, pos + len(_CLUSTERS))
        if sliced:
            clusters, pos = sliced
            # the members after the clusters, if any, with the closing brace
            rest = json.loads("{" + line[pos + 1 if line.startswith(',"', pos) else pos :])
            if "characters" not in rest and "clusters" not in rest:
                # a later "doc_id" or "tokens" member wins, keeping the first one's place, as in json.loads
                obj = {"doc_id": doc_id, "tokens": tuple(tokens), "characters": characters, "clusters": clusters, **rest}
    except (ValueError, RecursionError, TypeError, StopIteration):  # TypeError: an unhashable token
        obj = None
    if obj is None or not _new_texts_are_strings(texts, known):
        while len(texts) > known:
            texts.popitem()
        return None
    return obj


def _jsonl_record(
    line: str, lineno: int, texts: dict[str, str], seen_ids: set[str], clusters_as: str, stage: str
) -> DocumentRecord:
    """The record of one non-blank line of a JSONL corpus (see :func:`read_jsonl`)."""
    obj = _sliced_object(line, texts)
    sliced = obj is not None
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
    if not sliced:
        clusters = clusters_from_json(obj["clusters"], SchemaError, f"line {lineno}", key)
    elif key is None:
        clusters = obj["clusters"]
    else:
        clusters = {key(name): ms for name, ms in obj["clusters"].items()}
    # both paths give each cluster as a sorted tuple of mentions
    return DocumentRecord(doc, {clusters_as: _sorted_set(doc_id, stage, clusters)})


def read_jsonl(path: str, clusters_as: str = "gold") -> CorpusFile:
    """Read a JSONL corpus; the "clusters" key becomes a set named ``clusters_as``.

    The set's stage is ``clusters_as`` when that is a known stage name,
    else "gold". Unknown record keys land in ``Document.source``. Every
    token of the file with the same text is the same string object, so the
    corpus holds one string per distinct token text.

    A line in the writers' layout has its ``tokens`` decoded a slice of
    about ``_TOKEN_SLICE`` characters at a time and its clusters' spans read
    as text (see :func:`_sliced_object`), so beyond the records it returns,
    a read holds the current line, one slice's fresh strings or one
    cluster's integers, and the record being built; each record's decoded
    object is dropped before the next line is read. Any other line (spaces
    between elements, another key order, a token that is not a string, a
    span not in canonical form) is decoded whole by ``json.loads``. Both
    paths give the same records and the same errors, which name the line.
    The sliced path pays for itself in time and memory (ROADMAP.md's
    fast-path ledger, row ``formats._sliced_object``).
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


def _check_encodable(doc_id: str, text: str) -> None:
    """Refuse ``text``, written for document ``doc_id``, when it holds a lone
    surrogate, which UTF-8 cannot encode, with a :class:`SchemaError`. Only
    text that is neither ASCII nor printable is searched."""
    if not text.isascii() and not text.isprintable():
        lone = _SURROGATE.search(text)
        if lone:
            raise SchemaError(
                f"document {doc_id!r}: the lone surrogate {lone.group()!r} cannot be written as UTF-8"
            )


def _spans_text(ms: Sequence[Mention]) -> str:
    """A cluster's span array as JSON text, byte for byte what ``json.dumps``
    writes for its mentions, each two ``int``s (a :class:`ClusterSet` holds
    no other span)."""
    return "[" + ("[%d,%d]," * len(ms))[:-1] % tuple(chain.from_iterable(ms)) + "]"


def _record_line(rec: DocumentRecord, clusters_from: str | None) -> str:
    """The canonical JSONL line of a record: ``json.dumps`` of its object,
    compact, with ``ensure_ascii=False``, byte for byte.

    Each cluster's spans are joined as text (see :func:`_spans_text`), and so
    are the tokens when a document's tokens are printable and hold no ``"``
    or ``\\``, so that none needs an escape; the doc id, the characters, each
    cluster name, the unknown keys and any other tokens array go through
    ``json.dumps``. A line that holds a lone surrogate (see
    :func:`_check_encodable`) is a :class:`SchemaError`. The joins pay for
    themselves (ROADMAP.md's fast-path ledger, row ``formats._record_line``).
    """
    doc = rec.document
    if clusters_from is None:
        cs = rec.pick("gold")
    else:
        cs = rec.cluster_sets.get(clusters_from)
        if cs is None:
            raise SchemaError(f"document {doc.doc_id!r} has no cluster set {clusters_from!r}")
    clusters = clusters_to_json(cs.clusters, SchemaError, f"document {cs.doc_id!r}")
    head = json.dumps(doc.doc_id, ensure_ascii=False)
    tokens = doc.tokens
    try:
        text: str | None = "".join(tokens)
    except TypeError:  # a token that is not a string, which json.dumps writes as it is
        text = None
    if text is not None and text.isprintable() and '"' not in text and "\\" not in text:
        # printable text holds no lone surrogate, so only the other parts are searched
        tokens_text, checked = '["' + '","'.join(tokens) + '"]', ""
    else:
        tokens_text = checked = json.dumps(list(tokens), ensure_ascii=False, separators=_COMPACT)
    characters = json.dumps(list(doc.characters), ensure_ascii=False, separators=_COMPACT)
    names = [json.dumps(name, ensure_ascii=False) for name in clusters]
    # unknown keys follow in their order; the document's own values win
    extra = {k: v for k, v in (doc.source or {}).items() if k not in _REQUIRED_KEYS}
    extra_text = json.dumps(extra, ensure_ascii=False, separators=_COMPACT)
    _check_encodable(doc.doc_id, "".join([head, checked, characters, *names, extra_text]))
    spans = ",".join([f"{name}:{_spans_text(ms)}" for name, ms in zip(names, clusters.values())])
    end = "}," + extra_text[1:] if extra else "}}"
    return "".join(['{"doc_id":', head, ',"tokens":', tokens_text, ',"characters":', characters, ',"clusters":{', spans, end])


@contextmanager
def replaced(path: str) -> Iterator[TextIO]:
    """A UTF-8 text file with LF line ends that replaces ``path`` only if the
    ``with`` block completes; every file this package writes goes through it.

    A directory is refused up front (``EISDIR``), and a pipe or a device is
    written in place. Otherwise a temporary file is made beside the target
    (a symlink is written through, as ``open`` would) before the block runs,
    so a target that cannot be written fails before any work; it is moved
    over the target with ``os.replace`` when the block completes and removed
    when it fails, so a failed write leaves the target as it was. The
    temporary file is created with mode ``0o666`` for the kernel to apply the
    umask to, so it gets the mode of any new file; when the target is an
    existing file, the temporary file takes that file's permission bits
    before the block writes to it, so a private file stays private.
    """
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            yield f
        return
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".bookcoref-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:  # name the target, not the temporary file
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as f:
            if os.path.isfile(target):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            yield f
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_jsonl(corpus: CorpusFile, path: str, clusters_from: str | None = None) -> None:
    """Write a corpus in canonical JSONL form, a record at a time, through
    :func:`replaced`, so a bad record leaves ``path`` as it was.

    ``clusters_from`` names the set to serialize, and a record without it is
    a :class:`SchemaError`; by default each record's
    :meth:`~DocumentRecord.pick` of "gold" is written.
    """
    with replaced(path) as f:
        for rec in corpus.records:
            f.write(_record_line(rec, clusters_from))
            f.write("\n")


# --- CoNLL-2012 -------------------------------------------------------------

_CONLL_BEGIN = re.compile(r"#begin document \((?P<id>.*)\); part (?P<part>\d+)\s*$")
_COREF_ITEM = re.compile(r"^(\()?(\d+)(\))?$")
#: ``write_conll`` joins and writes a document's rows this many at a time.
_CONLL_CHUNK_ROWS = 4096
#: ``read_conll`` reads this many characters at a time, and the rest of the last line.
_CONLL_BATCH = 1 << 16


def _coref_labels(cs: ClusterSet, n_tokens: int) -> list[str]:
    """Per-token coreference column using (k / k) / (k) bracket notation.

    Starts from ``"-"`` everywhere and writes each bracket straight into its
    token's label in one pass over the clusters, so the cost is linear in
    tokens plus mentions, with no sort of the brackets. A token that gets a
    second bracket is crowded: a second pass over the mentions collects
    each crowded token's brackets, and only those are sorted.

    No span is tested first: a set holds only mentions, non-negative
    ``int``s (see :func:`~bookcoref.model.sorted_mentions`), so a span that
    ends past the document is met as an ``IndexError`` in the pass. Only
    then does :func:`~bookcoref.model.check_bounds` search the set, so that
    the :class:`SchemaError` names the span it names: the first past the end
    in sorted key order, not the first the pass met.

    The one pass keeps the writer's memory bound: one sort of every bracket
    peaks at about 47 bytes a token on the seed-13 manor book, past the 30
    that ``write_conll`` is held to (ROADMAP.md's fast-path ledger, row
    ``formats._coref_labels``).
    """
    clusters = cs.clusters
    # integer ids in first-mention order
    keys = [key for _, _, key in sorted((ms[0], _key_order(key), key) for key, ms in clusters.items() if ms)]
    labels = ["-"] * n_tokens
    crowded = set()
    try:
        for k, key in enumerate(keys):
            opening, closing, single = f"({k}", f"{k})", f"({k})"
            for s, e in clusters[key]:
                if s == e:
                    if labels[s] == "-":
                        labels[s] = single
                    else:
                        crowded.add(s)
                    continue
                if labels[s] == "-":
                    labels[s] = opening
                else:
                    crowded.add(s)
                if labels[e] == "-":
                    labels[e] = closing
                else:
                    crowded.add(e)
    except IndexError:
        try:
            check_bounds(cs, n_tokens)
        except SpanRangeError as e:
            raise SchemaError(str(e)) from None
        raise
    if not crowded:
        return labels

    # A crowded token's brackets sort by kind, then span, then cluster id: a
    # mention opens at its start, outermost (last-ending) first, with a
    # single-token mention last, and closes at its end, innermost
    # (last-starting) first, after the token's openings. Equal brackets (a
    # mention given twice in a cluster) are written once.
    marks: dict[int, set[tuple[int, int, int, str]]] = {i: set() for i in crowded}
    for k, key in enumerate(keys):
        for s, e in clusters[key]:
            if s in marks:
                marks[s].add((0, -e, k, f"({k})" if s == e else f"({k}"))
            if e in marks and s < e:
                marks[e].add((1, -s, k, f"{k})"))
    for i, brackets in marks.items():
        labels[i] = "|".join([text for *_, text in sorted(brackets)])
    return labels


def _check_row_text(doc: Document) -> None:
    """A CoNLL row is one line of tab-separated columns, so a token that
    holds a tab or a line break, or a doc id that holds a line break, would
    not read back as written, and a doc id that starts with ``#`` would make
    every row of its document read as a comment: refuse them, and a doc id
    or token that holds a lone surrogate (see :func:`_check_encodable`),
    with a :class:`SchemaError`."""
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
    _check_encodable(doc.doc_id, doc.doc_id)
    _check_encodable(doc.doc_id, text)


def write_conll(corpus: CorpusFile, path: str) -> None:
    """Export to CoNLL-2012 layout: doc id, part, index, token, coref column.

    Each record's :meth:`~DocumentRecord.pick` of "gold" is written.
    Character names are lost; cluster keys become integer ids assigned in
    first-mention order. The records stream through :func:`replaced`, so a
    bad record (see :func:`_check_row_text`) leaves ``path`` as it was. Each
    document is checked and labelled, then written as its header, its rows
    joined ``_CONLL_CHUNK_ROWS`` at a time, and its end line, so the writer
    holds one document's labels and one chunk of rows, not a copy of the
    document's text. The cost is linear in tokens plus mentions (see
    :func:`_coref_labels`).
    """
    with replaced(path) as f:
        for rec in corpus.records:
            doc = rec.document
            _check_row_text(doc)
            labels = _coref_labels(rec.pick("gold"), len(doc.tokens))
            f.write(f"#begin document ({doc.doc_id}); part 000\n")
            prefix = f"{doc.doc_id}\t0\t"
            tokens = doc.tokens
            for lo in range(0, len(tokens), _CONLL_CHUNK_ROWS):
                hi = lo + _CONLL_CHUNK_ROWS
                rows = zip(range(lo, hi), tokens[lo:hi], labels[lo:hi])
                f.write("".join([f"{prefix}{i}\t{tok}\t{label}\n" for i, tok, label in rows]))
            f.write("#end document\n")
            del labels  # so that the next document's labels are not built beside them


def _label_items(label: str) -> tuple[list[tuple[bool, int, bool]], str | None]:
    """The items of a coreference label, ``(opens, cluster id, closes)`` each,
    up to the first malformed one, and the error that one makes (else
    ``None``), which :func:`read_conll` raises after applying the items
    before it, as a per-item loop would."""
    items = []
    for item in label.split("|"):
        im = _COREF_ITEM.match(item)
        if not im:
            return items, f"malformed coreference item {item!r}"
        opened, cid_s, closed = im.groups()
        try:
            cid = int(cid_s)
        except ValueError:  # more digits than the interpreter converts
            return items, f"cluster id of {len(cid_s)} digits is too long"
        items.append((bool(opened), cid, bool(closed)))
    return items, None


def _batches(f: TextIO) -> Iterator[str]:
    """The text of ``f`` about ``_CONLL_BATCH`` characters at a time, in whole
    lines, each cut before and after every line that starts with ``#``: each
    part is one such line or a run of lines with none. Most batches hold no
    ``#``, which one ``find`` of it tells, and are one part.

    In a file that can seek (not a pipe), a batch that holds a byte that is
    not UTF-8 is read again from its start a line at a time, up to the block
    of text that holds the bad byte, so that the rows before it are read
    first, and their errors raised first, as a read a line at a time raises
    them."""
    seekable = f.seekable()
    while True:
        start = f.tell() if seekable else None
        try:
            text = f.read(_CONLL_BATCH)
            if not text.endswith("\n"):
                text += f.readline()
        except UnicodeDecodeError:
            if start is None:
                raise
            f.seek(start)
            yield from f  # raises the error again, at the block that holds the bad byte
            raise
        if not text:
            return
        pos, end = 0, len(text)
        while pos < end:
            if text.startswith("#", pos):
                nl = text.find("\n", pos)
            else:
                nl = text.find("#", pos)
                if nl >= 0:
                    nl = text.find("\n#", nl - 1)
            stop = nl + 1 if nl >= 0 else end
            yield text[pos:stop]
            pos = stop


def _layout_rows(run: str, doc_id: str | None) -> tuple[list[str], list[int], list[str]] | None:
    """The rows of ``run`` read as rows of document ``doc_id`` in the writer's
    layout, ``{doc_id}\\t...\\t...\\t{token}\\t{label}`` and a line break each:
    the tokens, and the offsets and labels of the rows not labelled ``-``;
    ``None`` when a row is not in that layout, and for a doc id that is empty,
    whitespace only, starts with ``#`` or holds a tab, where such a row could
    be a blank row or a comment, or have its columns cut elsewhere.

    ``run`` is split on tabs once. It has ``n`` line breaks, one a row, so
    when it splits into ``4n + 1`` pieces and each of the pieces ``4, 8, ...,
    4n`` holds a line break, each holds exactly one, and each row has exactly
    four tabs: piece ``4k`` is row ``k``'s label, its line break and the next
    row's first column, which must be the doc id. A row labelled ``-`` is
    found by one comparison of each such piece with ``-\\n`` and the doc id,
    so only a labelled row is looked at alone. The rows read as
    :func:`read_conll` reads them one at a time.
    """
    if not doc_id or doc_id.isspace() or doc_id[0] == "#" or "\t" in doc_id:
        return None
    if not run.startswith(doc_id + "\t") or not run.endswith("\n"):
        return None
    n = run.count("\n")
    pieces = run.split("\t")
    if len(pieces) != 4 * n + 1:
        return None
    ends = pieces[4::4]
    ends[-1] += doc_id  # as if the run went on with another row of the document
    marked = list(compress(range(n), map(f"-\n{doc_id}".__ne__, ends)))
    ends = list(map(ends.__getitem__, marked))
    after = "\n" + doc_id
    if not all(map(str.endswith, ends, repeat(after))):
        return None
    return pieces[3::4], marked, [end[: -len(after)] for end in ends]


def read_conll(path: str, clusters_as: str = "prediction") -> CorpusFile:
    """Read a CoNLL-2012 export back into a corpus.

    Clusters come back integer-keyed (names are not representable), so the
    attached set defaults to stage "prediction". Each row's token is replaced
    by the file's first string of the same text as it is read, so the corpus
    holds one string per distinct token text.

    A document id that a second ``#begin document`` line repeats is a
    :class:`SchemaError` naming the row, the id and its part, as in
    :func:`read_jsonl`: a CoNLL-2012 document split into parts is not
    supported.

    Cost: the file is read about ``_CONLL_BATCH`` characters at a time, in
    whole lines, cut at the lines that start with ``#`` (see
    :func:`_batches`). A run of rows in the writer's layout is split on tabs
    once (see :func:`_layout_rows`), its tokens are shared in one ``map``,
    and only its labelled rows run Python code. Any other run (columns
    joined by spaces, another first column, a blank row) is read a row at a
    time, each row split into columns. Each distinct label text is
    parsed once per read (see :func:`_label_items`). A closing bracket builds
    its mention as a tuple, without the constructor's check: its start is a
    row index that its cluster's stack of openings held, so ``0 <= start <=
    end`` holds by construction. The batched path and the label cache pay
    for themselves (ROADMAP.md's fast-path ledger, row
    ``formats.read_conll``). Beyond the corpus, a read holds one batch's
    text and its split on tabs, about 0.3 MB.
    """
    corpus = CorpusFile()
    texts: dict[str, str] = {}
    labels: dict[str, tuple[list[tuple[bool, int, bool]], str | None]] = {}
    seen_ids: set[str] = set()
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

    def bracket(label: str, idx: int, row: int) -> None:
        """Apply the items of ``label``, not ``-``, to the token at ``idx``."""
        parsed = labels.get(label)
        if parsed is None:
            parsed = labels[label] = _label_items(label)
        items, error = parsed
        for opened, cid, closed in items:
            stack = open_stacks.get(cid)
            if opened:
                if stack is None:
                    stack = open_stacks[cid] = []
                stack.append(idx)
            if closed:
                if not stack:
                    raise ParseError(f"close bracket without open for cluster {cid}", row)
                # the start was an earlier row's index, so 0 <= start <= idx
                mention = _new_tuple(Mention, (stack.pop(), idx))
                ms = clusters.get(cid)
                if ms is None:
                    clusters[cid] = [mention]
                else:
                    ms.append(mention)
        if error is not None:
            raise ParseError(error, row)

    try:
        with open(path, encoding="utf-8") as f:
            row = 0
            for part in _batches(f):
                rows = _layout_rows(part, doc_id)
                if rows is not None:
                    run_tokens, offsets, run_labels = rows
                    base = len(tokens)
                    tokens += map(texts.setdefault, run_tokens, run_tokens)
                    for k, label in zip(offsets, run_labels):
                        bracket(label, base + k, row + 1 + k)
                    row += len(run_tokens)
                    continue
                lines = part.split("\n")
                if not lines[-1]:  # the part's last line break
                    lines.pop()
                for row, line in enumerate(lines, row + 1):
                    if line.startswith("#"):
                        m = _CONLL_BEGIN.match(line)
                        if m:
                            flush(row)
                            doc_id = m.group("id")
                            if doc_id in seen_ids:
                                raise SchemaError(f"line {row}: duplicate doc_id {doc_id!r} (part {m.group('part')})")
                            seen_ids.add(doc_id)
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
                    tokens.append(texts.setdefault(token, token))
                    if label != "-":
                        bracket(label, len(tokens) - 1, row)
            flush(row)
    except UnicodeDecodeError as e:
        raise _undecodable(path) from e
    return corpus
