"""Replay simulator for incremental-coreference memory policies.

An incremental resolver keeps a working set of entity clusters; when a
cluster has been evicted, a later mention of it cannot be linked correctly
no matter how good the model is. Replaying a gold mention stream against a
policy therefore yields a structural lower bound on such a model's recall
errors ("forced errors").

Policies:

* ``unbounded``   - keep every cluster; never evicts.
* ``lru(k)``      - one cache of k clusters, least-recently-used eviction.
* ``dual(L, G)``  - a recency cache backed by a frequency cache. Any access
  promotes the cluster into the L-cache (updating recency); L overflow
  demotes L's least-recently-used cluster into the G-cache; G overflow
  evicts G's least-frequently-used cluster entirely (ties broken by least
  recency). Defaults: L = G = 25.

The dual policy is a fixed, deterministic rendering of a qualitatively
described mechanism (the original model chooses swaps with learned scores);
it is policy-shaped, not a model replica. ``dual(k, 0)`` degenerates to
``lru(k)``.

Cost, for a stream of N mentions: :func:`sweep` and :func:`simulate` replay
every policy in one pass over the LRU recency stack (stack distances,
Mattson et al., 1970), cut at the largest capacity K. An LRU cache of k
clusters holds the top k of that stack. So does a dual policy's L-cache of
L clusters: every access promotes its cluster into the L-cache, and the
G-cache never evicts from it. So an access at stack depth d hits every
policy whose capacity exceeds d, and only an access at depth d >= L, an
L-miss, reaches a dual policy's G-cache. A policy does work only on its
misses: an LRU policy counts its victim, and its forced errors are read from
one histogram of repeat-access depths at the end. A dual policy's G-cache
heap is compacted to its live entries once it holds more than 2G, so a
demotion costs O(log G), and a whole sweep costs O(N * K) plus O(log G) per
demotion rather than one replay per policy. :func:`mention_stream` sorts
the arrivals once, O(N log N).
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush, heappushpop
from math import inf
from operator import attrgetter, itemgetter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .errors import ConfigError, ContractError, require_int
from .model import ClusterSet, str_keyed


@dataclass(frozen=True, slots=True)
class Policy:
    kind: str
    capacity: int = 0
    l_capacity: int = 25
    g_capacity: int = 25

    def __post_init__(self) -> None:
        for name in ("capacity", "l_capacity", "g_capacity"):
            require_int(name, getattr(self, name))
        if self.kind not in ("unbounded", "lru", "dual"):
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        if self.kind == "lru" and self.capacity < 1:
            raise ConfigError("lru capacity must be >= 1")
        if self.kind == "dual" and (self.l_capacity < 1 or self.g_capacity < 0):
            raise ConfigError("dual needs l_capacity >= 1 and g_capacity >= 0")

    @classmethod
    def unbounded(cls) -> "Policy":
        return cls("unbounded")

    @classmethod
    def lru(cls, capacity: int) -> "Policy":
        return cls("lru", capacity=capacity)

    @classmethod
    def dual(cls, l_capacity: int = 25, g_capacity: int = 25) -> "Policy":
        return cls("dual", l_capacity=l_capacity, g_capacity=g_capacity)

    def label(self) -> str:
        if self.kind == "lru":
            return f"lru({self.capacity})"
        if self.kind == "dual":
            return f"dual({self.l_capacity},{self.g_capacity})"
        return "unbounded"


@dataclass(frozen=True, slots=True)
class SimReport:
    policy: str
    total_mentions: int
    evictions: int
    forced_errors: int
    forced_error_rate: float
    cluster_evictions: dict[Hashable, int]
    events: tuple[tuple[int, str, str], ...] | None = None

    def to_dict(self) -> dict:
        d = {
            "policy": self.policy,
            "total_mentions": self.total_mentions,
            "evictions": self.evictions,
            "forced_errors": self.forced_errors,
            "forced_error_rate": self.forced_error_rate,
            "cluster_evictions": str_keyed(
                sorted(self.cluster_evictions.items(), key=lambda kv: str(kv[0])), ContractError, "cluster_evictions"
            ),
        }
        if self.events is not None:
            d["events"] = [list(e) for e in self.events]
        return d


def mention_stream(gold: ClusterSet) -> list[Hashable]:
    """Cluster keys in order of mention arrival ((start, end) order)."""
    arrivals = []
    for key, ms in gold.clusters.items():
        skey = str(key)
        arrivals += [((m.start, m.end, skey), key) for m in ms]
    arrivals.sort(key=itemgetter(0))
    return [key for _, key in arrivals]


class _Slot:
    """One policy's state in :func:`_replay`.

    ``k`` is the policy's recency capacity: the LRU capacity, the dual
    L-cache, or infinity for ``unbounded``. ``g`` is the G-cache capacity (0
    but for a dual policy), and ``gcache`` maps each cluster in it to its
    last access, the id of its entry in ``heap``, a heap of (frequency, last
    access, cluster). A cluster's frequency is its accesses since this policy
    last inserted it: ``count[c] - base[c]`` in :func:`_replay`.
    """

    __slots__ = ("policy", "k", "g", "dual", "forced", "per_cluster", "events", "gcache", "heap", "base")

    def __init__(self, policy: Policy) -> None:
        self.policy = policy
        self.dual = policy.kind == "dual"
        self.k = policy.l_capacity if self.dual else policy.capacity if policy.kind == "lru" else inf
        self.g = policy.g_capacity if self.dual else 0
        self.forced = 0
        self.per_cluster: Counter = Counter()
        self.events: list[tuple[int, str, str]] = []
        self.gcache: dict[Hashable, int] = {}
        self.heap: list[tuple[int, int, Hashable]] = []
        self.base: dict[Hashable, int] = {}

    def report(self, total: int, keep_events: bool) -> SimReport:
        return SimReport(
            policy=self.policy.label(),
            total_mentions=total,
            evictions=sum(self.per_cluster.values()),
            forced_errors=self.forced,
            forced_error_rate=self.forced / total if total else 0.0,
            cluster_evictions=dict(self.per_cluster),
            events=tuple(self.events) if keep_events else None,
        )


def _replay(keys: Sequence[Hashable], policies: Iterable[Policy], keep_events: bool) -> dict[Policy, SimReport]:
    """Reports for every policy from one pass over the LRU recency stack.

    An LRU cache of k clusters holds exactly the k most recently used ones,
    so a mention whose cluster sits at 0-based depth d of the recency stack
    hits at every capacity above d and misses at every other (Mattson et al.,
    1970). A dual policy's L-cache always holds the L most recently used
    clusters too, so an access at depth d < L is an L-hit, and only one at
    d >= L reaches its G-cache: it is a G-hit or a miss, and when L is full
    the cluster at depth L - 1, the one LRU(L) would evict, is demoted. An
    unbounded policy is a capacity that only first mentions reach. So each
    policy does work only on its misses. The stack is cut at the largest
    finite capacity K, and a pass costs O(N * K) plus O(log G) per demotion.

    An LRU policy's forced errors are the repeat accesses at depth k or
    deeper, read at the end from one histogram of repeat-access depths, so on
    a miss an LRU policy only counts its victim. A dual policy's G-cache heap
    is compacted to its live entries whenever it holds more than 2G, so it
    never holds more than 2G entries and a push or pop costs O(log G). The
    histogram and the set of the stack's clusters pay for themselves
    (ROADMAP.md's fast-path ledger, row ``memsim._replay``).
    """
    slots = sorted({p: _Slot(p) for p in policies}.values(), key=attrgetter("k"))
    top = max([s.k for s in slots if s.k != inf], default=0)
    lrus = [(s.k - 1, s.per_cluster) for s in slots if s.policy.kind == "lru"]
    duals = [(s.k, s.g, s.gcache, s.heap, s.base, s.per_cluster, s) for s in slots if s.dual]
    shallowest = duals[0][0] if duals else inf  # the smallest L-cache
    plain = [s for s in slots if not s.dual]  # the policies whose events are noted apart
    depths = [0] * (top + 1)  # repeat accesses by stack depth, `top` for any deeper
    stack: list[Hashable] = []  # MRU first, at most `top` clusters
    on_stack: set[Hashable] = set()  # the stack's clusters: one off it costs no failed `index`
    count: dict[Hashable, int] = {}  # accesses so far
    last: dict[Hashable, int] = {}  # the latest access
    for seq, c in enumerate(keys):
        if c in on_stack:
            d = stack.index(c)
        else:
            d = top if c in count else inf
        n = count[c] = count.get(c, 0) + 1
        if n > 1:
            depths[d] += 1
        last[c] = seq
        size = len(stack)
        if keep_events:
            _note_plain(plain, seq, c, d, n, stack)
        # every LRU(k) with k <= d misses; one with k <= size also evicts
        reach = d if d < size else size
        for i, per_cluster in lrus:
            if i >= reach:
                break
            per_cluster[stack[i]] += 1
        if d >= shallowest:
            for k, g, gcache, heap, base, per_cluster, s in duals:
                if k > d:
                    break
                # c misses this policy's L-cache of k clusters
                if c in gcache:  # a G-cache hit promotes c back into L
                    del gcache[c]
                    if keep_events:
                        s.events.append((seq, "hit", str(c)))
                else:
                    if n > 1:
                        s.forced += 1
                        if keep_events:
                            s.events.append((seq, "forced-miss", str(c)))
                    if keep_events:
                        s.events.append((seq, "insert", str(c)))
                    base[c] = n - 1  # its frequency restarts
                if k > size:
                    continue
                victim = stack[k - 1]  # the least recent of the full L-cache
                if keep_events:
                    s.events.append((seq, "demote", str(victim)))
                if g:
                    access = last[victim]
                    entry = (count[victim] - base[victim], access, victim)
                    gcache[victim] = access
                    if len(gcache) <= g:
                        heappush(heap, entry)
                        if len(heap) > 2 * g:  # drop the entries of clusters promoted since their push
                            heap[:] = [e for e in heap if gcache.get(e[2]) == e[1]]
                            heapify(heap)
                        continue
                    _, access, victim = heappushpop(heap, entry)
                    while gcache.get(victim) != access:  # stale: promoted since it was pushed
                        _, access, victim = heappop(heap)
                    del gcache[victim]
                per_cluster[victim] += 1
                if keep_events:
                    s.events.append((seq, "evict", str(victim)))
        if keep_events:
            for k, *_, s in duals:
                if k > d:
                    s.events.append((seq, "hit", str(c)))
        if d < size:
            if d:
                stack.insert(0, stack.pop(d))
        elif top:
            if size == top:
                on_stack.discard(stack.pop())
            stack.insert(0, c)
            on_stack.add(c)
    for s in plain:
        s.forced = sum(depths[s.k :]) if s.k != inf else 0
    return {s.policy: s.report(len(keys), keep_events) for s in slots}


def _note_plain(slots: Sequence[_Slot], seq: int, c: Hashable, d: float, n: int, stack: Sequence[Hashable]) -> None:
    """The events of access ``seq`` (cluster ``c`` at depth ``d``, its ``n``th
    access) for the LRU and unbounded ``slots`` of :func:`_replay`, noted
    before the recency stack moves: an LRU(k) with ``k <= d`` misses and,
    when its cache is full, evicts ``stack[k - 1]``; any other policy hits."""
    text = str(c)
    for s in slots:
        k = s.k
        if k > d:
            s.events.append((seq, "hit", text))
            continue
        if n > 1:
            s.events.append((seq, "forced-miss", text))
        s.events.append((seq, "insert", text))
        if k <= len(stack):
            s.events.append((seq, "evict", str(stack[k - 1])))


def simulate(
    stream: ClusterSet | Sequence[Hashable],
    policy: Policy,
    keep_events: bool = False,
) -> SimReport:
    """Replay a mention stream against a memory policy.

    A mention of a resident cluster is a hit. A mention of a never-seen
    cluster inserts it (first occurrences are not errors). A mention of a
    previously evicted cluster is a forced error and re-inserts the cluster
    as new (frequency restarts).

    Every policy runs on the stack pass that :func:`sweep` uses (see
    :func:`_replay`). The dual policy finds each G-cache eviction on a heap
    of (frequency, last access) entries; an entry goes stale when its
    cluster leaves the G-cache and is skipped when it comes to the top. Once
    the heap holds more than 2G entries it is rebuilt from its live ones, at
    most G, so it never holds more than 2G and an eviction costs O(log G);
    each rebuild costs O(G) and follows at least G stale entries. Last
    accesses are unique, so the order has no ties.
    """
    keys = mention_stream(stream) if isinstance(stream, ClusterSet) else stream
    return _replay(keys, [policy], keep_events)[policy]


def sweep(
    stream: ClusterSet | Sequence[Hashable],
    policies: Iterable[Policy],
) -> list[tuple[Policy, SimReport]]:
    """Simulate the same stream under several policies (e.g. a capacity sweep).

    Every policy, LRU, dual and unbounded alike, comes from one stack pass
    (see :func:`_replay`): a dual policy does work only on the accesses that
    miss its L-cache, not one replay of the stream each.
    """
    keys = mention_stream(stream) if isinstance(stream, ClusterSet) else list(stream)
    policies = list(policies)
    reports = _replay(keys, policies, keep_events=False)
    return [(p, reports[p]) for p in policies]


def sweep_csv(results: Sequence[tuple[Policy, SimReport]]) -> str:
    """Capacity-sweep table for plotting."""
    lines = ["policy,capacity,l_capacity,g_capacity,total,evictions,forced_errors,forced_error_rate"]
    for policy, report in results:
        lines.append(
            f"{policy.kind},{policy.capacity},{policy.l_capacity},{policy.g_capacity},"
            f"{report.total_mentions},{report.evictions},{report.forced_errors},"
            f"{report.forced_error_rate:.6f}"
        )
    return "\n".join(lines) + "\n"
