"""bookcoref benchmark: one workload per invocation, end-to-end phase times
or a per-layer trace, every output checked.

    python3 perfbench/run.py --workload NAME [--seed 13] [--seconds 20] [--trace 0|1]

Workloads are defined in ``workloads.py``: ``remote-2ms``,
``reference-local`` and ``longbook-local``. The load is a closed loop from
this one process: the pipeline waits for every reply.

``--trace 0`` sets up ``SETUP_REPEATS`` times, then repeats annotate ->
score -> analyse passes (score and analyse each for at least
``MIN_PHASE_S`` a pass) until ``--seconds`` have passed, checking every
output outside the timed region. Each ``<phase>_s`` metric is the median of the
phase's times. The time of a phase that runs on this one thread and waits
for nothing is rescaled by the CPU speed sampled while it runs (see
``CpuSpeed``); the call-bound annotate of ``remote-2ms`` is reported as
measured. ``peak_rss_mb`` is the process's peak RSS. The wall times and the
speed factors are in the info line.

``--trace 1`` sets up once, then runs the phases twice: untraced, with a
thread sampling the resident set size, then traced (functions wrapped from
outside, see ``layers.py``). It reports per-layer calls, total and self
time, counters, stub counters, each phase's peak memory growth and the
tracing overhead (traced minus untraced time).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Operations are phases and stub requests: a phase
fails when it raises or its check fails, a stub request when it gets a
non-2xx reply. The line before it records the environment (nproc, Python,
git revision, seed) and the raw samples.

The gold corpus is the same for every seed; ``--seed`` draws where the
response to score cuts each gold chain (see ``workloads.cut_points``).

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
#: In a timed run, score and analyse repeat until their runs in one pass add
#: up to this, so that short phases (on remote-2ms) get more samples.
MIN_PHASE_S = 1.0
WORKLOAD_NAMES = ("remote-2ms", "reference-local", "longbook-local")

E2E_UNITS = {"setup_s": "s", "annotate_s": "s", "score_s": "s", "analyse_s": "s", "peak_rss_mb": "MB"}


def import_program() -> None:
    """Import bookcoref from this checkout's src/, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import bookcoref
    except ImportError as e:
        print(f"perfbench: cannot import bookcoref from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(bookcoref.__file__).startswith(SRC + os.sep):
        print(f"perfbench: bookcoref was imported from {bookcoref.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Ledger:
    """Operations attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def phase(self, name: str, fn, probe):
        """Time one phase inside ``probe``; return (result, seconds). A phase
        that raises counts as failed and returns None."""
        gc.collect()
        self.attempted += 1
        result, elapsed = None, 0.0
        try:
            with probe(name):
                started = time.perf_counter()
                try:
                    result = fn()
                finally:
                    elapsed = time.perf_counter() - started
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
        return result, elapsed

    def check(self, name: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: {name} check failed: {p}", file=sys.stderr)

    def stub_requests(self, stats: dict) -> None:
        self.attempted += stats["attempts"]
        self.failed += stats["non_2xx"]


def _kernel(n: int = 12_500) -> int:
    """Fixed integer arithmetic: its time tracks how fast the CPU this
    thread runs on is right now, and nothing else."""
    total = 0
    for i in range(n):
        total += i * i
    return total


class CpuSpeed:
    """Phase times rescaled to a fixed reference CPU speed.

    On a shared machine other tenants slow each virtual CPU independently,
    by up to 2x, in episodes from under a second to minutes, so phases and
    whole runs can be fast or slow. While a phase runs, a SIGALRM handler
    times a small arithmetic kernel every ``INTERVAL_S`` on the thread that
    runs the phase. The phase's factor ``f`` is the median kernel time over
    ``REFERENCE_S``: how slowly that CPU ran during the phase. A phase that
    runs on this one thread and waits for nothing would have taken
    ``(t - k) / f`` seconds at the reference speed, where ``k`` is the time
    the handler took. That does not hold for a phase that waits on another
    process or runs work on other threads (and so on the other vCPU), so
    only phases that ``Workload.runs_alone`` are measured this way.

    ``REFERENCE_S`` is the kernel's typical time on a vCPU of the 2-vCPU
    x86-64 VM (Python 3.11) the benchmark was tuned on, where the factors
    of whole runs had medians of 0.7-1.1. It is a constant so that figures
    of different runs compare; it only sets the unit. The kernel does
    integer arithmetic only and allocates almost nothing, so the program's
    memory state does not move it."""

    REFERENCE_S = 0.001
    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.factors: dict[str, list[float]] = {}
        self.kernel_s: dict[str, list[float]] = {}
        self._times: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        _kernel()
        self._times.append(time.perf_counter() - started)

    @contextlib.contextmanager
    def phase(self, name: str):
        self._times = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.kernel_s.setdefault(name, []).append(sum(self._times))
            if not self._times:  # a phase shorter than INTERVAL_S
                self._sample()
            self.factors.setdefault(name, []).append(statistics.median(self._times) / self.REFERENCE_S)

    def rescaled(self, name: str, seconds: list[float]) -> list[float]:
        """Each wall time, less the kernel's time, divided by its factor."""
        return [(t - k) / f for t, k, f in zip(seconds, self.kernel_s[name], self.factors[name])]


class RssSampler:
    """Per phase, the peak resident set size above the size at its start,
    sampled from /proc/self/statm by a background thread."""

    PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self, interval: float = 0.002) -> None:
        self.interval = interval
        self.growth_mb: dict[str, float] = {}

    def rss(self) -> int:
        with open("/proc/self/statm", encoding="ascii") as f:
            return int(f.read().split()[1]) * self.PAGE

    @contextlib.contextmanager
    def phase(self, name: str):
        base = peak = self.rss()
        done = threading.Event()

        def sample() -> None:
            nonlocal peak
            while not done.wait(self.interval):
                peak = max(peak, self.rss())

        thread = threading.Thread(target=sample, daemon=True)
        thread.start()
        try:
            yield
        finally:
            done.set()
            thread.join()
            peak = max(peak, self.rss())
            self.growth_mb[name] = (peak - base) / 2**20


def iteration(
    wl, s, ledger: Ledger, index: int, probe=lambda name: contextlib.nullcontext(), min_phase_s: float = 0.0
) -> dict:
    """One annotate -> score -> analyse pass; checks run untimed after each
    phase. Score and analyse repeat until their times add up to
    ``min_phase_s``. Returns each phase's list of times and, on the remote
    workload, the stub counters and replay figures."""
    out: dict = {}
    cache_dir = s.path(f"cache-{index}") if s.workload.remote else None
    if s.stub is not None:
        s.stub.reset()
    got, seconds = ledger.phase("annotate", lambda: wl.annotate(s, s.path("predictions.jsonl"), cache_dir), probe)
    out["annotate"] = [seconds]
    if s.stub is not None:
        out["stub"] = s.stub.stats()
        ledger.stub_requests(out["stub"])
    if got is not None:
        problems = wl.check_annotate(s, got)
        if s.stub is not None:
            problems += wl.check_service_calls(s, out["stub"])
            started = time.perf_counter()
            again, replay_problems = wl.replay(s, got, cache_dir)
            out["replay_s"] = time.perf_counter() - started
            out["cache_hit_ratio"] = wl.cache_hit_ratio(again.client)
            problems += replay_problems
        ledger.check("annotate", problems)
    got = None  # free each phase's output before the next phase runs
    if cache_dir is not None:
        shutil.rmtree(cache_dir, ignore_errors=True)

    for name, run, check in (
        ("score", lambda: wl.score(s), wl.check_score),
        ("analyse", lambda: wl.analyse(s, s.path("gold.conll")), wl.check_analyse),
    ):
        out[name] = []
        while not out[name] or sum(out[name]) < min_phase_s:
            got, seconds = ledger.phase(name, run, probe)
            out[name].append(seconds)
            if got is not None:
                ledger.check(name, check(s, got))
            got = None
    return out


def timed_run(wl, workload, seed: int, seconds: float, workdir: str, ledger: Ledger, info: dict) -> dict:
    speed = CpuSpeed()

    def probe(name: str):
        return speed.phase(name) if workload.runs_alone(name) else contextlib.nullcontext()

    samples: dict[str, list[float]] = {"setup": []}
    s = None
    try:
        for i in range(SETUP_REPEATS):
            if s is not None:
                s.close()
                s = None
            gc.collect()
            with probe("setup"):
                started = time.perf_counter()
                s = wl.setup(workload, seed, os.path.join(workdir, f"setup-{i}"))
                samples["setup"].append(time.perf_counter() - started)
        samples.update({p: [] for p in wl.PHASES})
        started = time.perf_counter()
        index = 0
        while True:
            out = iteration(wl, s, ledger, index, probe, MIN_PHASE_S)
            for p in wl.PHASES:
                samples[p] += out[p]
            index += 1
            if time.perf_counter() - started >= seconds:
                break
    finally:
        if s is not None:
            s.close()
    phases = ("setup",) + wl.PHASES
    info.update(samples=samples, speed_factors=speed.factors, kernel_s=speed.kernel_s, iterations=index)
    values = {
        f"{p}_s": statistics.median(speed.rescaled(p, samples[p]) if workload.runs_alone(p) else samples[p])
        for p in phases
    }
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def traced_run(wl, workload, seed: int, workdir: str, ledger: Ledger, info: dict) -> dict:
    import layers
    from stub import StubStats
    from tracer import Tracer, installed

    tracer = Tracer()
    modules = layers.program_modules()
    s = None
    try:
        with installed(tracer, layers.setup_targets(), modules):
            s = wl.setup(workload, seed, os.path.join(workdir, "setup"))
        sampler = RssSampler()
        untraced = iteration(wl, s, ledger, 0, sampler.phase)

        targets = layers.phase_targets()

        @contextlib.contextmanager
        def traced(name):
            with installed(tracer, targets, modules), tracer.span(f"phase.{name}"):
                yield

        traced_out = iteration(wl, s, ledger, 1, traced)
    finally:
        if s is not None:
            s.close()

    extra: dict[str, float] = {}
    for p in wl.PHASES:
        extra[f"{p}.rss_growth_mb"] = sampler.growth_mb[p]
        extra[f"{p}.trace_overhead"] = sum(traced_out[p]) - sum(untraced[p])
    # local workloads have no stub: its counters read zero there
    stats = traced_out.get("stub") or StubStats().snapshot()
    attempts = stats["attempts"]
    extra.update(
        {
            "service_calls": attempts,
            "stub.requests.link": stats["requests"]["link"],
            "stub.requests.judge": stats["requests"]["judge"],
            "stub.requests.expand": stats["requests"]["expand"],
            "stub.bytes_in": stats["bytes_in"],
            "stub.bytes_out": stats["bytes_out"],
            "stub.max_inflight": stats["max_inflight"],
            "stub.service_s": stats["service_s"],
            "remote.useful_ratio": (attempts - stats["non_2xx"]) / attempts if attempts else 0.0,
            "remote.replay.s": traced_out.get("replay_s", 0.0),
            "remote.cache_hit_ratio": traced_out.get("cache_hit_ratio", 0.0),
        }
    )
    info.update(
        untraced={p: untraced[p] for p in wl.PHASES},
        traced={p: traced_out[p] for p in wl.PHASES},
        layer_effects=layers.LAYER_EFFECTS,
    )
    return layers.collect(tracer, extra)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bookcoref benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads as wl
    from bookcoref import synthetic

    workload = wl.WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    ledger = Ledger()
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "generator_seed": synthetic.DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
    }
    try:
        if args.trace:
            metrics = traced_run(wl, workload, args.seed, workdir, ledger, info)
        else:
            metrics = timed_run(wl, workload, args.seed, args.seconds, workdir, ledger, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
