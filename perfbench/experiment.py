"""One repetition of a workload, timed from outside the program.

The phases call the same functions the CLI calls: ``generate_trace``,
``Simulation(...)``, ``Simulation.run``, ``write_run_outputs`` and the
CLI's comparison-table writer.  The correctness gate runs after the timed
region.
"""
from __future__ import annotations

import hashlib
import json
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from socicache import cli
from socicache.sim import Simulation
from socicache.workload import LOOKUP, POST, generate_trace

from workloads import COMPARE_CACHES, COMPARE_STRATEGIES, Workload, base_config, run_configs

RUN_ID = "perfbench"

# The summary keys that exist at the benchmark's first commit.  The digest
# covers exactly these, so adding a summary column later leaves it intact.
# ``persisted`` is always 0 outside unit tests and may be removed; a missing
# value reads as 0.
SUMMARY_KEYS = (
    "label", "strategy", "cache_setup", "seed", "peer_count", "duration_ticks",
    "trace_digest", "total_requests", "social_hits", "current_hits",
    "overlay_replies", "unanswered", "subscriptions_sent", "unsubscriptions_sent",
    "bootstrap_dumps", "dispatcher_messages", "delivered", "persisted",
    "dht_lookups", "dht_puts", "bytes_read", "bytes_written",
    "social_cache_items", "current_cache_items", "total_cache_items",
    "max_channels", "max_muc_entries", "cache_hit_ratio", "responses_per_item",
)
SUMMARY_DEFAULTS = {"persisted": 0}

# The CLI's own comparison-table writers.  They are private: a renamed one
# fails this lookup at import and stops the benchmark, rather than going
# untimed.
TABLE_WRITERS = {
    COMPARE_CACHES: cli._write_cache_table,
    COMPARE_STRATEGIES: cli._write_strategy_table,
}


@dataclass
class Repetition:
    events: int = 0
    lookups: int = 0
    posts: int = 0
    write_s: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    labels: list[str] = field(default_factory=list)
    run_digests: list[str] = field(default_factory=list)
    comparison_digest: str | None = None  # comparison.csv of the compare shapes
    run_problems: list[list[str]] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)
    digest: str = ""
    export_bytes: int = 0
    run_counts: dict = field(default_factory=dict)  # traced: calls per function per run
    # perf_counter() intervals of the timed phases, for host-speed normalisation
    setup_windows: list[tuple[float, float]] = field(default_factory=list)
    run_windows: list[tuple[float, float]] = field(default_factory=list)
    wall_window: tuple[float, float] = (0.0, 0.0)
    trace: list = field(default_factory=list, repr=False)

    @property
    def setup_s(self) -> float:
        return sum(end - start for start, end in self.setup_windows)

    @property
    def sim_s(self) -> float:
        return sum(end - start for start, end in self.run_windows)

    @property
    def wall_s(self) -> float:
        return self.wall_window[1] - self.wall_window[0]


def summary_projection(summary: dict) -> list:
    return [[key, summary.get(key, SUMMARY_DEFAULTS.get(key))] for key in SUMMARY_KEYS]


def check_run(result) -> list[str]:
    """Invariants every run must satisfy after quiescence."""
    sim = result.simulation
    s = result.summary
    cfg = result.config
    problems = []
    consistency = sim.verify_consistency()
    if consistency:
        problems.append(f"{len(consistency)} social-store entries disagree with the overlay "
                        f"(first: {consistency[0]})")
    symmetry = sim.verify_subscription_symmetry()
    if symmetry:
        problems.append(f"{len(symmetry)} asymmetric subscriptions (first: {symmetry[0]})")
    delivered = s["delivered"] + s.get("persisted", 0)
    if delivered != s["dispatcher_messages"]:
        problems.append(f"delivered + persisted = {delivered} != messages "
                        f"{s['dispatcher_messages']}")
    answered = s["social_hits"] + s["current_hits"] + s["overlay_replies"]
    if answered > s["total_requests"]:
        problems.append(f"answered {answered} > requests {s['total_requests']}")
    if s["max_channels"] > cfg.strategy.n:
        problems.append(f"max_channels {s['max_channels']} > n {cfg.strategy.n}")
    if s["max_muc_entries"] > cfg.muc_capacity:
        problems.append(f"max_muc_entries {s['max_muc_entries']} > {cfg.muc_capacity}")
    return problems


def time_setup(wl: Workload, seed: int, size: str) -> tuple[float, float]:
    """One more set-up of the workload (trace generation and every
    Simulation construction), thrown away; returns its perf_counter()
    interval.  Set-up is short, so it is sampled more often than the whole
    experiment."""
    base = base_config(wl, seed, size)
    start = time.perf_counter()
    trace = generate_trace(base)
    for label, cfg in run_configs(wl, base):
        Simulation(cfg, trace, label)
    return start, time.perf_counter()


def run_repetition(wl: Workload, seed: int, size: str, workdir: Path, tracer=None) -> Repetition:
    span = tracer.span if tracer is not None else (lambda *_: nullcontext())
    compare = wl.shape in (COMPARE_CACHES, COMPARE_STRATEGIES)
    rep = Repetition()
    clock = time.perf_counter
    base = base_config(wl, seed, size)
    runs = run_configs(wl, base)
    results = []

    start = clock()
    with span("workload", wl.name):
        with span("generate"):
            trace = generate_trace(base)
        rep.setup_windows.append((start, clock()))
        for label, cfg in runs:
            t = clock()
            with span("init", label):
                sim = Simulation(cfg, trace, label)
            rep.setup_windows.append((t, clock()))
            counts = tracer.counts() if tracer is not None else {}
            t = clock()
            with span("run", label):
                results.append(sim.run())
            rep.run_windows.append((t, clock()))
            if tracer is not None:
                rep.run_counts[label] = {name: n - counts.get(name, 0)
                                         for name, n in tracer.counts().items()}
        for result in results:
            t = clock()
            with span("export", result.label):
                cli.write_run_outputs(result, workdir / result.label if compare else workdir,
                                      RUN_ID)
            rep.write_s.append(clock() - t)
        if compare:
            with span("export", "comparison"):
                TABLE_WRITERS[wl.shape](results, workdir)
    rep.wall_window = (start, clock())
    rep.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- correctness gate (untimed) -------------------------------------------
    rep.events = len(trace)
    rep.lookups = sum(1 for ev in trace if ev.action == LOOKUP)
    rep.posts = sum(1 for ev in trace if ev.action == POST)
    whole = hashlib.sha256()
    for result in results:
        out = workdir / result.label if compare else workdir
        metrics_csv = (out / "metrics.csv").read_bytes()
        digest = hashlib.sha256(metrics_csv)
        digest.update(json.dumps(summary_projection(result.summary)).encode())
        rep.labels.append(result.label)
        rep.run_digests.append(digest.hexdigest())
        rep.run_problems.append(check_run(result))
        rep.summaries.append({key: result.summary.get(key) for key in SUMMARY_KEYS})
        whole.update(f"{result.label} {digest.hexdigest()}\n".encode())
    if compare:
        table = (workdir / "comparison.csv").read_bytes()
        rep.comparison_digest = hashlib.sha256(table).hexdigest()
        whole.update(table)
    rep.digest = whole.hexdigest()
    rep.export_bytes = sum(p.stat().st_size for p in workdir.rglob("*.csv"))
    rep.trace = trace
    return rep
