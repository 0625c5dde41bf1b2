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

Cost, for a stream of N mentions: :func:`sweep` derives every LRU capacity
from one pass over the LRU recency stack (stack distances, Mattson et al.,
1970), cut at the largest capacity K, so all LRU capacities together cost
O(N * K) and not one replay each. The dual policy is one replay per policy,
O(N log N) with its G-cache victims taken from a lazy-deletion heap.
:func:`mention_stream` sorts the arrivals once, O(N log N).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from heapq import heappop, heappush
from operator import itemgetter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .errors import ConfigError, ContractError
from .model import ClusterSet, str_keyed


@dataclass(frozen=True, slots=True)
class Policy:
    kind: str
    capacity: int = 0
    l_capacity: int = 25
    g_capacity: int = 25

    def __post_init__(self) -> None:
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


def _report(
    policy: Policy,
    total: int,
    forced: int,
    per_cluster: Counter,
    events: list[tuple[int, str, str]] | None,
) -> SimReport:
    return SimReport(
        policy=policy.label(),
        total_mentions=total,
        evictions=sum(per_cluster.values()),
        forced_errors=forced,
        forced_error_rate=forced / total if total else 0.0,
        cluster_evictions=dict(per_cluster),
        events=tuple(events) if events is not None else None,
    )


def _lru(keys: Sequence[Hashable], capacities: Iterable[int], keep_events: bool) -> dict[int, SimReport]:
    """LRU reports for every capacity from one pass over the LRU stack.

    An LRU cache of k clusters holds exactly the k most recently used ones,
    so a mention whose cluster sits at 0-based depth d of the recency stack
    hits at every capacity above d and misses at every other (Mattson et al.,
    1970). On a miss at capacity k the cache is full when the stack holds k
    clusters, and the cluster at depth k - 1 is the one evicted. The stack
    is cut at the largest capacity, so a pass costs O(N * max k).
    """
    caps = sorted(set(capacities))
    top = caps[-1]
    stack: list[Hashable] = []  # MRU first, at most `top` clusters
    seen: set[Hashable] = set()
    forced = [0] * len(caps)
    per_cluster = [Counter() for _ in caps]
    events: list[list[tuple[int, str, str]]] = [[] for _ in caps]
    for seq, c in enumerate(keys):
        try:
            d = stack.index(c)
            first = False
        except ValueError:
            d = top
            first = c not in seen
            if first:
                seen.add(c)
        size = len(stack)
        for i, k in enumerate(caps):
            if k > d:
                if keep_events:
                    for ev in events[i:]:
                        ev.append((seq, "hit", str(c)))
                break
            if not first:
                forced[i] += 1
            if keep_events:
                if not first:
                    events[i].append((seq, "forced-miss", str(c)))
                events[i].append((seq, "insert", str(c)))
            if k <= size:
                victim = stack[k - 1]
                per_cluster[i][victim] += 1
                if keep_events:
                    events[i].append((seq, "evict", str(victim)))
        if d < size:
            stack.insert(0, stack.pop(d))
        else:
            stack.insert(0, c)
            del stack[top:]
    total = len(keys)
    return {
        k: _report(Policy.lru(k), total, forced[i], per_cluster[i], events[i] if keep_events else None)
        for i, k in enumerate(caps)
    }


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

    LRU runs on the stack pass that :func:`sweep` uses. The dual policy
    finds each G-cache eviction on a heap of (frequency, last access)
    entries, O(log G) per eviction; an entry goes stale when its cluster
    leaves the G-cache and is skipped when it comes to the top. Last
    accesses are unique, so the order has no ties.
    """
    keys: Sequence[Hashable] = mention_stream(stream) if isinstance(stream, ClusterSet) else stream
    if policy.kind == "lru":
        return _lru(keys, [policy.capacity], keep_events)[policy.capacity]

    seen: set[Hashable] = set()
    forced = 0
    per_cluster: Counter = Counter()
    events: list[tuple[int, str, str]] | None = [] if keep_events else None

    if policy.kind == "unbounded":
        for seq, c in enumerate(keys):
            if c in seen:
                if events is not None:
                    events.append((seq, "hit", str(c)))
            else:
                seen.add(c)
                if events is not None:
                    events.append((seq, "insert", str(c)))
        return _report(policy, len(keys), forced, per_cluster, events)

    # dual: promote-on-access L-cache over an LFU G-cache
    l_capacity, g_capacity = policy.l_capacity, policy.g_capacity
    lcache: OrderedDict[Hashable, None] = OrderedDict()  # recency order, MRU last
    gcache: dict[Hashable, int] = {}  # cluster -> last access seq, the id of its heap entry
    heap: list[tuple[int, int, Hashable]] = []  # (frequency, last access seq, cluster)
    freq: dict[Hashable, int] = {}
    last_access: dict[Hashable, int] = {}
    for seq, c in enumerate(keys):
        if c in lcache:
            freq[c] += 1
            lcache.move_to_end(c)
            if events is not None:
                events.append((seq, "hit", str(c)))
        elif c in gcache:
            freq[c] += 1
            del gcache[c]
            lcache[c] = None
            if events is not None:
                events.append((seq, "hit", str(c)))
        else:
            if c in seen:
                forced += 1
                if events is not None:
                    events.append((seq, "forced-miss", str(c)))
            else:
                seen.add(c)
            freq[c] = 1
            lcache[c] = None
            if events is not None:
                events.append((seq, "insert", str(c)))
        last_access[c] = seq
        while len(lcache) > l_capacity:
            demoted, _ = lcache.popitem(last=False)
            gcache[demoted] = last_access[demoted]
            heappush(heap, (freq[demoted], last_access[demoted], demoted))
            if events is not None:
                events.append((seq, "demote", str(demoted)))
            while len(gcache) > g_capacity:
                _, access, victim = heappop(heap)
                if gcache.get(victim) != access:
                    continue  # stale: promoted since this entry was pushed
                del gcache[victim]
                del freq[victim]
                per_cluster[victim] += 1
                if events is not None:
                    events.append((seq, "evict", str(victim)))
    return _report(policy, len(keys), forced, per_cluster, events)


def sweep(
    stream: ClusterSet | Sequence[Hashable],
    policies: Iterable[Policy],
) -> list[tuple[Policy, SimReport]]:
    """Simulate the same stream under several policies (e.g. a capacity sweep).

    All LRU capacities come from one stack pass; each other policy is one
    :func:`simulate` replay.
    """
    keys = mention_stream(stream) if isinstance(stream, ClusterSet) else list(stream)
    policies = list(policies)
    capacities = [p.capacity for p in policies if p.kind == "lru"]
    lru = _lru(keys, capacities, keep_events=False) if capacities else {}
    return [(p, lru[p.capacity] if p.kind == "lru" else simulate(keys, p)) for p in policies]


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
