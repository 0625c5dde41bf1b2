"""Independent brute-force oracles for the scorers, and reference
implementations for the CoNLL labeller and the memory-policy simulator.

The scorer oracles deliberately compute straight from the metric definitions
(membership scans, exact Fraction arithmetic, exhaustive alignment search) so
they share no code path with the production implementations they check.

``coref_labels_reference``, ``mention_stream_reference`` and
``simulate_reference`` are the straightforward dense labeller and
one-replay-per-policy simulator that the sparse labeller and the one
recency-stack pass over every policy must reproduce exactly.

``conll_reference`` (with ``muc_reference``, ``b_cubed_reference`` and
``ceaf_phi4_reference``) is the earlier scorer, which normalised both sides
and rebuilt a mention index for each metric; the one-table scorer core must
reproduce its reports bit for bit.

``order_mentions_reference``, ``place_book_reference`` and
``pooled_distance_reference`` are the generator's earlier calibration pass,
which keyed, ordered and placed ``_PlannedMention`` objects on every pass;
the pass over hoisted per-mention lists must reproduce its order, starts and
pooled distance exactly. Their bodies are kept as they were.

``read_jsonl_reference`` is the earlier JSONL reader, which decoded every
line whole with ``json.loads``; the reader that decodes a line's tokens a
slice at a time must give the same corpus, or the same error, for any line.
Its body is kept as it was.

``read_conll_reference`` is the earlier CoNLL reader, which split every row
into columns and parsed every label item in turn; the reader that takes a
plain row with one ``rfind`` and parses each distinct label once must give
the same corpus, or the same error, for any text. Its body is kept as it
was, but for the ``ParseError`` on a cluster id too long for ``int`` and
the ``SchemaError`` on a repeated document id.
``validate_reference`` is the earlier ``validate``, which built every
mention's location string; its body is kept as it was.

``reply_offence_reference`` finds the first contract offence of a linker's
or an expander's reply by brute force, straight from the stated order: keys
by type name and text, then each cluster's first span that is not a
mention, tested span by span, then its distinct spans, with every
"in two clusters" question answered by scanning the earlier keys.

``evaluate_reference`` (with ``_window_units_reference``) is the earlier
``evaluate``, which scored each unit's cluster sets through
``partition()``, re-sorting a book's keys at every window, and re-based
split's key parts with ``shift``; its body is kept as it was, but that it
scores through ``conll_reference``. The harness over the one-table scorer
core must give the same run, outside ``timings``, for any corpora.

``expand_pass_reference`` is the earlier expansion pass, which merged its
ranges' parts with ``model.union``, a set and a sort per character; the pass
that concatenates the parts' clusters must give the same set, key order
included, or the same error. Its body is kept as it was.

``record_line_reference`` is the earlier JSONL line writer, which passed a
record's whole object, every token included, through ``json.dumps``; the
writer that joins plain tokens as text must give the same line. Its body is
kept as it was, but for the ``SchemaError`` on a line that holds a lone
surrogate, which UTF-8 cannot encode.
"""

import json
import time
from collections import Counter, OrderedDict
from collections.abc import Mapping
from fractions import Fraction
from itertools import islice, permutations, repeat

from scipy.optimize import linear_sum_assignment

from bookcoref.errors import ContractError, GeneratorError, ParseError, PlanningError, SchemaError, StageError
from bookcoref.formats import (
    _CONLL_BEGIN,
    _COREF_ITEM,
    _REQUIRED_KEYS,
    _SURROGATE,
    CorpusFile,
    DocumentRecord,
    _undecodable,
)
from bookcoref.harness import EvalRun, _peak_rss_mb, check_token_counts
from bookcoref.memsim import SimReport
from bookcoref.metrics import PRF, ScoreReport, chain_distance, macro_reports, pool_reports
from bookcoref.model import (
    PRONOUNS,
    STAGES,
    ClusterSet,
    Document,
    Finding,
    Mention,
    ValidationReport,
    _key_order,
    clusters_from_json,
    clusters_to_json,
    cut,
    drop_empty,
    prediction_key,
    shift,
    union,
)
from bookcoref.pipeline import ExpandRequest
from bookcoref.synthetic import WINDOW, BookSpec, _PlannedMention
from bookcoref.windowing import GroupedWindowPlan, plan_windows, window_doc_id


def muc_brute(key, response):
    """Link counts by explicitly partitioning each chain with the other side."""

    def side(chains, other):
        num = den = 0
        for chain in chains:
            partitions = set()
            singletons = 0
            for m in chain:
                owner = None
                for j, o in enumerate(other):
                    if m in o:
                        owner = j
                        break
                if owner is None:
                    singletons += 1
                else:
                    partitions.add(owner)
            num += len(chain) - (len(partitions) + singletons)
            den += len(chain) - 1
        return num, den

    r_num, r_den = side(key, response)
    p_num, p_den = side(response, key)
    return p_num, p_den, r_num, r_den


def b3_brute(key, response):
    """Per-mention overlap ratios in exact arithmetic."""

    def side(a_chains, b_chains):
        num = Fraction(0)
        den = 0
        for chain in a_chains:
            for m in chain:
                b = next((c for c in b_chains if m in c), frozenset())
                num += Fraction(len(chain & b), len(chain))
                den += 1
        return num, den

    r_num, r_den = side(key, response)
    p_num, p_den = side(response, key)
    return p_num, p_den, r_num, r_den


def ceaf_phi4_brute(key, response):
    """Best one-to-one cluster alignment by exhaustive permutation search."""

    def phi4(a, b):
        return Fraction(2 * len(a & b), len(a) + len(b))

    if not key or not response:
        return Fraction(0), len(response), Fraction(0), len(key)
    small, large = (key, response) if len(key) <= len(response) else (response, key)
    best = max(
        (
            sum((phi4(c, large[j]) for c, j in zip(small, perm)), Fraction(0))
            for perm in permutations(range(len(large)), len(small))
        ),
    )
    return best, len(response), best, len(key)


def chain_distance_brute(positions):
    """The O(k^2) double loop the closed form must reproduce."""
    pairs = 0
    total = 0
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            pairs += 1
            total += abs(positions[j] - positions[i])
    return pairs, total


def random_partition_pair(rng, max_mentions=10, max_clusters=6):
    """Two random clusterings over overlapping mention subsets.

    Either side may lose mentions the other has (twinless mentions), contain
    singletons, or be empty, so all scorer conventions get exercised.
    """
    universe = list(range(rng.randint(1, max_mentions)))

    def make(side):
        side = [m for m in side if rng.random() < 0.92]
        if not side:
            return []
        rng.shuffle(side)
        k = rng.randint(1, min(max_clusters, len(side)))
        clusters = [[] for _ in range(k)]
        for m in side:
            clusters[rng.randrange(k)].append(m)
        return [frozenset(c) for c in clusters if c]

    return make(list(universe)), make(list(universe))


def coref_labels_reference(cs, n_tokens):
    """Per-token bracket labels from dense per-token open/close/single lists."""
    firsts = []
    for key in cs.sorted_keys():
        ms = cs.clusters[key]
        if ms:
            firsts.append((ms[0], key))
    firsts.sort(key=lambda t: (t[0], _key_order(t[1])))
    ids = {key: i for i, (_, key) in enumerate(firsts)}

    opens = {i: [] for i in range(n_tokens)}
    closes = {i: [] for i in range(n_tokens)}
    singles = {i: [] for i in range(n_tokens)}
    for key, ms in cs.clusters.items():
        if not ms:
            continue
        k = ids[key]
        for m in set(ms):
            if m.start == m.end:
                singles[m.start].append(k)
            else:
                opens[m.start].append((m.end, k))
                closes[m.end].append((m.start, k))

    labels = []
    for i in range(n_tokens):
        parts = []
        # outermost mentions open first; innermost close first
        for end, k in sorted(opens[i], key=lambda t: (-t[0], t[1])):
            parts.append(f"({k}")
        for k in sorted(singles[i]):
            parts.append(f"({k})")
        for start, k in sorted(closes[i], key=lambda t: (-t[0], t[1])):
            parts.append(f"{k})")
        labels.append("|".join(parts) if parts else "-")
    return labels


def mention_stream_reference(gold):
    """Cluster keys in (mention, str(key)) order, comparing Mention objects."""
    arrivals = [(m, key) for key, ms in gold.clusters.items() for m in ms]
    arrivals.sort(key=lambda t: (t[0], str(t[1])))
    return [key for _, key in arrivals]


def simulate_reference(keys, policy, keep_events=False):
    """One full replay of ``keys`` per policy: an OrderedDict LRU, and a
    dual policy that finds each G-cache victim with a linear ``min`` scan."""
    seen = set()
    evictions = 0
    forced = 0
    per_cluster = Counter()
    events = []

    lcache = OrderedDict()  # recency order, MRU last
    gcache = {}  # cluster -> (frequency, last access seq)
    freq = Counter()
    last_access = {}
    unbounded = set()

    def note(seq, event, cluster):
        if keep_events:
            events.append((seq, event, str(cluster)))

    def evict(seq, cluster):
        nonlocal evictions
        evictions += 1
        per_cluster[cluster] += 1
        freq.pop(cluster, None)
        note(seq, "evict", cluster)

    for seq, c in enumerate(keys):
        if policy.kind == "unbounded":
            if c in unbounded:
                note(seq, "hit", c)
            else:
                unbounded.add(c)
                seen.add(c)
                note(seq, "insert", c)
            continue

        if policy.kind == "lru":
            if c in lcache:
                lcache.move_to_end(c)
                note(seq, "hit", c)
            else:
                if c in seen:
                    forced += 1
                    note(seq, "forced-miss", c)
                else:
                    seen.add(c)
                lcache[c] = None
                note(seq, "insert", c)
                while len(lcache) > policy.capacity:
                    victim, _ = lcache.popitem(last=False)
                    evict(seq, victim)
            continue

        resident = c in lcache or c in gcache
        if resident:
            freq[c] += 1
            if c in gcache:
                del gcache[c]
            else:
                del lcache[c]
            lcache[c] = None
            note(seq, "hit", c)
        else:
            if c in seen:
                forced += 1
                note(seq, "forced-miss", c)
            else:
                seen.add(c)
            freq[c] = 1
            lcache[c] = None
            note(seq, "insert", c)
        last_access[c] = seq
        while len(lcache) > policy.l_capacity:
            demoted, _ = lcache.popitem(last=False)
            gcache[demoted] = (freq[demoted], last_access[demoted])
            note(seq, "demote", demoted)
            while len(gcache) > policy.g_capacity:
                victim = min(gcache, key=lambda k: (gcache[k][0], gcache[k][1]))
                del gcache[victim]
                evict(seq, victim)

    total = len(keys)
    return SimReport(
        policy=policy.label(),
        total_mentions=total,
        evictions=evictions,
        forced_errors=forced,
        forced_error_rate=forced / total if total else 0.0,
        cluster_evictions=dict(per_cluster),
        events=tuple(events) if keep_events else None,
    )


def _norm_reference(clustering):
    if isinstance(clustering, ClusterSet):
        return [frozenset(p) for p in clustering.partition()]
    return [frozenset(c) for c in clustering]


def _mention_index_reference(clusters):
    return {m: i for i, cluster in enumerate(clusters) for m in cluster}


def _vilain_reference(clusters, other):
    num = den = 0
    for cluster in clusters:
        partitions = set()
        unaligned = 0
        for m in cluster:
            i = other.get(m)
            if i is None:
                unaligned += 1
            else:
                partitions.add(i)
        num += len(cluster) - unaligned - len(partitions)
        den += len(cluster) - 1
    return num, den


def muc_reference(key, response):
    k, r = _norm_reference(key), _norm_reference(response)
    r_num, r_den = _vilain_reference(k, _mention_index_reference(r))
    p_num, p_den = _vilain_reference(r, _mention_index_reference(k))
    return PRF.from_counts(p_num, p_den, r_num, r_den)


def _b3_side_reference(clusters, other):
    num = 0.0
    den = 0
    for cluster in clusters:
        size = len(cluster)
        den += size
        counts = Counter(other.get(m) for m in cluster)
        counts.pop(None, None)
        num += sum(c * c for c in counts.values()) / size
    return num, den


def b_cubed_reference(key, response):
    k, r = _norm_reference(key), _norm_reference(response)
    r_num, r_den = _b3_side_reference(k, _mention_index_reference(r))
    p_num, p_den = _b3_side_reference(r, _mention_index_reference(k))
    return PRF.from_counts(p_num, p_den, r_num, r_den)


def ceaf_phi4_reference(key, response):
    k, r = _norm_reference(key), _norm_reference(response)
    if not k or not r:
        return PRF.from_counts(0.0, len(r), 0.0, len(k))
    r_index = _mention_index_reference(r)
    overlaps = []
    for cluster in k:
        counts = Counter(r_index.get(m) for m in cluster)
        counts.pop(None, None)
        overlaps.append(counts)
    sims = [[0.0] * len(r) for _ in k]
    for i, (cluster, counts) in enumerate(zip(k, overlaps)):
        row = sims[i]
        for j, c in counts.items():
            row[j] = 2.0 * c / (len(cluster) + len(r[j]))
    rows, cols = linear_sum_assignment(sims, maximize=True)
    total = float(sum(sims[i][j] for i, j in zip(rows, cols)))
    return PRF.from_counts(total, len(r), total, len(k))


def _prepare_reference(clustering, drop_singletons):
    parts = [c for c in _norm_reference(clustering) if c]
    if drop_singletons:
        parts = [c for c in parts if len(c) > 1]
    return parts


def conll_reference(key, response, drop_singletons=True):
    k = _prepare_reference(key, drop_singletons)
    r = _prepare_reference(response, drop_singletons)
    m, b, c = muc_reference(k, r), b_cubed_reference(k, r), ceaf_phi4_reference(k, r)
    return ScoreReport(m, b, c, (m.f1 + b.f1 + c.f1) / 3.0)


def order_mentions_reference(
    planned: list[_PlannedMention],
    centres: list[float],
    alpha: float,
    n: int,
) -> list[_PlannedMention]:
    """Order mentions along the book by their chain-anchored targets.

    ``alpha`` scales how far a mention may stray from its chain centre:
    small values give per-chain blocks, large values full interleaving.
    """
    keyed = []
    for idx, pm in enumerate(planned):
        t = centres[pm.chain] + alpha * n * pm.anchor
        keyed.append((min(max(t, 0.0), float(n)), idx, pm))
    keyed.sort(key=lambda kv: (kv[0], kv[1]))
    return [pm for _, _, pm in keyed]


def place_book_reference(
    spec: BookSpec,
    ordered: list[_PlannedMention],
    extras: list[float],
) -> list[tuple[int, _PlannedMention]]:
    """Lay mentions out left to right with randomized gaps.

    Collision-free by construction: each mention starts after the previous
    one plus a mandatory one-token gap plus its share of the spare-token
    budget. Starts that would straddle a window boundary jump to the
    boundary (the budget keeps headroom for those jumps).
    """
    n = spec.n_tokens
    lengths = [len(pm.tokens) for pm in ordered]
    headroom = 8 * (n // WINDOW + 1)
    budget = n - sum(lengths) - len(lengths) - headroom
    if budget <= 0:
        raise GeneratorError(f"{spec.doc_id}: token budget too small for its mentions")
    scale = budget / sum(extras)
    placed: list[tuple[int, _PlannedMention]] = []
    cursor = extras[0] * scale
    for pm, length, extra in zip(ordered, lengths, extras[1:]):
        s = int(cursor)
        if s // WINDOW != (s + length - 1) // WINDOW:
            s = (s // WINDOW + 1) * WINDOW
        if s + length > n:
            raise GeneratorError(f"placement overflow in {spec.doc_id}")
        placed.append((s, pm))
        cursor = max(cursor, float(s)) + length + 1 + extra * scale
    return placed


def pooled_distance_reference(per_book_placed: list[list[tuple[int, _PlannedMention]]], n_chains: list[int]) -> float:
    pairs = 0
    dist = 0
    for placed, k in zip(per_book_placed, n_chains):
        starts: list[list[int]] = [[] for _ in range(k)]
        for s, pm in placed:
            starts[pm.chain].append(s)
        for chain_starts in starts:
            p, d = chain_distance(sorted(chain_starts))
            pairs += p
            dist += d
    return dist / pairs if pairs else 0.0


def read_jsonl_reference(path: str, clusters_as: str = "gold") -> CorpusFile:
    """Read a JSONL corpus, each line decoded whole by ``json.loads``."""
    stage = clusters_as if clusters_as in STAGES else "gold"
    key = prediction_key if stage == "prediction" else None
    corpus = CorpusFile()
    seen_ids: set[str] = set()
    texts: dict[str, str] = {}
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
                # each token becomes the file's first string of its text; a str
                # never equals a non-str, so the tokens are all strings exactly when
                # the texts new to this record are (newest last, hence reversed)
                known = len(texts)
                try:
                    shared = tuple(map(texts.setdefault, tokens, tokens)) if isinstance(tokens, list) else None
                except TypeError:  # an unhashable token
                    shared = None
                new = islice(reversed(texts), len(texts) - known)
                if shared is None or not all(map(isinstance, new, repeat(str))):
                    raise SchemaError(f"line {lineno}: 'tokens' must be an array of strings")
                if not isinstance(characters, list) or not all(map(isinstance, characters, repeat(str))):
                    raise SchemaError(f"line {lineno}: 'characters' must be an array of strings")
                if doc_id in seen_ids:
                    raise SchemaError(f"line {lineno}: duplicate doc_id {doc_id!r}")
                seen_ids.add(doc_id)
                extra = {k: v for k, v in obj.items() if k not in _REQUIRED_KEYS}
                doc = Document(doc_id, shared, tuple(characters), extra or None)
                clusters = clusters_from_json(obj["clusters"], SchemaError, f"line {lineno}", key)
                cs = ClusterSet(doc_id, stage, clusters)
                corpus.records.append(DocumentRecord(doc, {clusters_as: cs}))
    except UnicodeDecodeError as e:
        raise _undecodable(path) from e
    return corpus


def read_conll_reference(path: str, clusters_as: str = "prediction") -> CorpusFile:
    """Read a CoNLL-2012 export, splitting every row into columns and parsing
    every label item as it comes. A cluster id too long for ``int`` raises
    the reader's ``ParseError``, not a raw ``ValueError``."""
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
                        if any(rec.document.doc_id == doc_id for rec in corpus.records):
                            raise SchemaError(f"line {row}: duplicate doc_id {doc_id!r} (part {m.group('part')})")
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
                        try:
                            cid = int(cid_s)
                        except ValueError:
                            raise ParseError(f"cluster id of {len(cid_s)} digits is too long", row) from None
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


def is_mention_reference(span):
    """Whether ``span`` is a valid mention: a tuple or list of two ``int``s
    (no ``bool``) with ``0 <= start <= end``."""
    return (
        isinstance(span, (tuple, list))
        and len(span) == 2
        and all(type(x) is int for x in span)
        and 0 <= span[0] <= span[1]
    )


def invalid_span_text(span):
    """How a :class:`SpanRangeError` names a span that is not a mention: a
    pair as ``(start, end)``, anything else by its ``repr``."""
    if isinstance(span, (tuple, list)) and len(span) == 2:
        return f"({span[0]!r}, {span[1]!r})"
    return repr(span)


def is_cluster_reference(cluster):
    """Whether ``cluster`` can be iterated, as a cluster of spans must."""
    try:
        iter(cluster)
    except TypeError:
        return False
    return True


def invalid_cluster_text(cluster):
    """How a :class:`SpanRangeError` names a cluster that cannot be iterated."""
    return f"invalid cluster of type {type(cluster).__name__}, not an iterable of spans"


def reply_offence_reference(who, reply, known, lo, hi, where="", seeds=None):
    """The text of the ``ContractError`` that a linker's or an expander's
    ``reply`` (``{key: [span, ...]}``) earns, else ``None``.

    A reply that is not a mapping is refused first. Keys are taken by type
    name, then text. A key's offence is, first, not being in ``known``; then
    a cluster that cannot be iterated, or its first span, in the reply's own
    order, that is not a mention (see :func:`is_mention_reference`); then,
    among its distinct spans in ``(start, end)`` order, a span outside
    ``[lo, hi)`` or one that an earlier key also lists. A reply without one
    is then checked against the expander's ``seeds``: the first seed, in the
    same order, that its key's cluster lacks.
    """
    if not isinstance(reply, Mapping):
        return f"{who} returned {type(reply).__name__}, not a mapping of clusters{where}"

    def order(key):
        return (type(key).__name__, str(key))

    def spans(key):
        return {tuple(span) for span in reply.get(key, ())}

    keys = sorted(reply, key=order)
    for i, key in enumerate(keys):
        if key not in known:
            return f"{who} returned unknown cluster key {key!r}{where}"
        if not is_cluster_reference(reply[key]):
            return f"{who} returned an {invalid_cluster_text(reply[key])} for {key!r}{where}"
        bad = [span for span in reply[key] if not is_mention_reference(span)]
        if bad:
            return f"{who} returned an invalid mention span {invalid_span_text(bad[0])} for {key!r}{where}"
        for s, e in sorted(spans(key)):
            if not (lo <= s and e < hi):
                return f"{who} span ({s},{e}) out of bounds for {key!r}{where}"
            earlier = [k for k in keys[:i] if (s, e) in spans(k)]
            if earlier:
                return f"{who} placed span ({s},{e}) in clusters {earlier[0]!r} and {key!r}{where}"
    for key in sorted(seeds or {}, key=order):
        for s, e in sorted(seeds[key]):
            if (s, e) not in spans(key):
                return f"expander dropped seed mention ({s},{e}) of {key!r}{where}"
    return None


def validate_reference(doc, cs):
    """Check a cluster set against its document, building each mention's
    location string before testing it."""
    errors = []
    warnings = []
    n = len(doc.tokens)
    seen_spans = {}

    for key in cs.sorted_keys():
        ms = cs.clusters[key]
        loc_key = str(key)
        if cs.stage != "prediction" and (not isinstance(key, str) or key not in doc.characters):
            errors.append(
                Finding("unknown-character", loc_key, f"cluster key {key!r} not in document character index")
            )
        if not ms:
            warnings.append(Finding("empty-cluster", loc_key, "cluster has no mentions"))
        prev = None
        for m in ms:
            loc = f"{loc_key}:({m.start},{m.end})"
            if m.end >= n:
                errors.append(Finding("span-out-of-bounds", loc, f"span out of bounds for {n} tokens"))
            elif (
                cs.stage == "initialized"
                and m.start == m.end
                and doc.tokens[m.start].lower() in PRONOUNS
            ):
                warnings.append(Finding("pronoun-span", loc, "explicit-mention stage holds a pronoun span"))
            if prev is not None and m == prev:
                errors.append(Finding("duplicate-mention", loc, "exact duplicate mention within cluster"))
            elif m in seen_spans and seen_spans[m] != key:
                errors.append(
                    Finding(
                        "mention-in-multiple-clusters",
                        loc,
                        f"mention in two clusters ({seen_spans[m]!r} and {key!r})",
                    )
                )
            seen_spans.setdefault(m, key)
            prev = m

    return ValidationReport(tuple(errors), tuple(warnings))


def _window_units_reference(keys, split, window_len, response_for, missing):
    for doc, key_cs in keys:
        doc_id = doc.doc_id
        windows = plan_windows(doc, window_len).windows
        if split:
            for i, ((lo, hi), key_part) in enumerate(zip(windows, cut(key_cs, windows)), 1):
                unit_id = window_doc_id(doc_id, i)
                yield unit_id, shift(drop_empty(key_part), -lo), response_for(unit_id, hi - lo)
            continue
        resp_cs = response_for(doc_id, len(doc))
        if resp_cs is None:
            missing.append(doc_id)
            resp_cs = ClusterSet(doc_id, "prediction")
        for i, (key_part, resp_part) in enumerate(zip(cut(key_cs, windows), cut(resp_cs, windows)), 1):
            yield window_doc_id(doc_id, i), drop_empty(key_part), drop_empty(resp_part)


def evaluate_reference(setting, key_corpus, response_corpus, drop_singletons=True):
    started = time.perf_counter()
    run = EvalRun(setting)

    responses = response_corpus.by_id()
    looked_up = set()

    def response_for(doc_id, n_tokens):
        looked_up.add(doc_id)
        resp = responses.get(doc_id)
        if resp is None:
            return None
        check_token_counts(doc_id, n_tokens, resp.document)
        return resp.pick("prediction")

    if setting.kind == "full_book":
        units = (
            (rec.document.doc_id, rec.pick("gold"), response_for(rec.document.doc_id, len(rec.document)))
            for rec in key_corpus.records
        )
    else:
        keys = ((rec.document, rec.pick("gold")) for rec in key_corpus.records)
        if setting.kind == "split":
            # a record without a set is reported before any window is scored
            keys = list(keys)
        units = _window_units_reference(keys, setting.kind == "split", setting.window_len, response_for, run.missing_units)

    skip_empty = setting.kind != "full_book"
    for unit_id, key_cs, resp_cs in units:
        if skip_empty and key_cs.n_mentions == 0 and (resp_cs is None or resp_cs.n_mentions == 0):
            continue
        if resp_cs is None:
            run.missing_units.append(unit_id)
        resp_partition = resp_cs.partition() if resp_cs is not None else []
        run.units.append((unit_id, conll_reference(key_cs.partition(), resp_partition, drop_singletons)))

    run.unmatched_responses = sorted(set(responses) - looked_up)
    if run.units:
        run.pooled = pool_reports([r for _, r in run.units])
        run.macro = macro_reports([r for _, r in run.units])
    run.timings = {"seconds": time.perf_counter() - started, "process_peak_rss_mb": _peak_rss_mb()}
    return run


def expand_pass_reference(doc, cs, plan, expander, trace=None):
    """An expansion pass that expands each range itself, serially: it cuts
    each range's seeds by a scan, materialises the expander's reply once,
    words any offence with :func:`reply_offence_reference`, builds each
    range's part from the reply's distinct sorted spans per seed key, and
    joins the parts with ``union``."""
    if isinstance(plan, GroupedWindowPlan):
        ranges = plan.groups
        expected, target = "window_expanded", "final"
        label = "group"
    else:
        ranges = plan.windows
        expected, target = "refined", "window_expanded"
        label = "window"
    if cs.stage != expected:
        raise StageError(f"{label} expansion expects stage {expected!r}, got {cs.stage!r}")
    seeds = [{key: tuple(m for m in ms if lo <= m[0] and m[1] < hi) for key, ms in cs.clusters.items()} for lo, hi in ranges]
    # refuse plans that would silently lose boundary-crossing mentions
    contained = {m for part in seeds for ms in part.values() for m in ms}
    crossing = [(key, m) for key, m in cs.mentions() if m not in contained]
    if crossing:
        key, m = crossing[0]
        raise PlanningError(
            f"mention ({m.start},{m.end}) of {key!r} crosses a {label} boundary; "
            f"plan the windows with this cluster set as guard"
        )
    parts = []
    for (lo, hi), part in zip(ranges, seeds):
        request = ExpandRequest(doc.doc_id, lo, hi, doc.tokens[lo:hi], part)
        reply = {key: list(spans) for key, spans in expander.expand(request).items()}
        offence = reply_offence_reference("expander", reply, part, lo, hi, f" in window [{lo},{hi})", part)
        if offence is not None:
            raise ContractError(offence)
        expanded = {key: tuple(sorted({Mention(*span) for span in reply.get(key, ())})) for key in part}
        parts.append(ClusterSet(cs.doc_id, target, expanded))
        if trace is not None:
            trace.window_records.append(
                {"kind": label, "range": [lo, hi], "seeds": sum(map(len, part.values())), "expanded": parts[-1].n_mentions}
            )
    return union(parts)


def record_line_reference(rec, clusters_from):
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
    line = json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    lone = _SURROGATE.search(line)
    if lone:
        raise SchemaError(f"document {doc.doc_id!r}: the lone surrogate {lone.group()!r} cannot be written as UTF-8")
    return line
