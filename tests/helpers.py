"""Small helpers the tests share: a plan-coverage check, the text of a JSONL
corpus, the CoNLL export formatted one string per document, the
containment test that the reference restriction scans with, and the filter
that keeps what must replay bit for bit."""

from bookcoref.formats import _coref_labels, _record_line


def covers(ranges, n):
    """True if the ranges are contiguous, non-overlapping and cover [0, n)."""
    pos = 0
    for lo, hi in ranges:
        if lo != pos or hi < lo:
            return False
        pos = hi
    return pos == n


def jsonl_text(corpus, clusters_from=None):
    """The text that ``write_jsonl(corpus, path, clusters_from)`` writes."""
    out = [_record_line(rec, clusters_from) for rec in corpus.records]
    return "\n".join(out) + ("\n" if out else "")


def conll_text(corpus):
    """The CoNLL export of ``corpus``, each document formatted as one string:
    the bytes that ``write_conll`` writes in chunks of rows."""
    out = []
    for rec in corpus.records:
        doc = rec.document
        labels = _coref_labels(rec.pick("gold"), len(doc.tokens))
        prefix = f"{doc.doc_id}\t0\t"
        rows = [f"{prefix}{i}\t{tok}\t{label}\n" for i, (tok, label) in enumerate(zip(doc.tokens, labels))]
        out.append(f"#begin document ({doc.doc_id}); part 000\n{''.join(rows)}#end document\n")
    return "".join(out)


def within(m, lo, hi):
    """True if the span ``m`` lies fully inside the token range [lo, hi)."""
    return lo <= m[0] and m[1] < hi


def drop_timings(obj):
    """``obj`` without any ``timings`` key, at any depth: what is left of a
    JSON output or a trace's ``to_dict()`` is the same on every run."""
    if isinstance(obj, dict):
        return {k: drop_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [drop_timings(v) for v in obj]
    return obj
