"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py -v``).

The two comparison experiments are executed once per session and shared by
the criteria that read them.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import (
    ReferenceLruTtlCache,
    brute_force_top_n,
    direct_medium_interaction_length,
    direct_tie_strength,
    reference_record,
    weight_map,
)
from socicache.cli import (
    _check_invariants,
    cache_comparison_profile,
    strategy_comparison_profile,
)
from socicache.info_cache import CurrentCache
from socicache.metrics import (
    METRICS_COLUMNS,
    Counters,
    cache_hit_ratio,
    hit_ratio,
    write_rows,
)
from socicache.model import InteractionKind, StorageKey
from socicache.sim import cache_runs, run_all, strategy_runs
from socicache.social_cache import SocialCache, Strategy, StrategyConfig
from socicache.workload import CacheSetup, ScenarioConfig

LOOKUP = InteractionKind.LOOKUP


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def strategy_results():
    return run_all(strategy_runs(strategy_comparison_profile()))


@pytest.fixture(scope="module")
def cache_results():
    return run_all(cache_runs(cache_comparison_profile()))


# SHA-256 of each default-profile run's metrics.csv bytes followed by its
# summary as sorted-key JSON.  Recorded before the event loop, the lookup
# pipeline and the message path were rewritten for speed; any change to the
# simulated outcome shows here.
PINNED_RUN_DIGESTS = {
    ("strategies", "random"): "3ce0696494b15c897972b09c556a8e14825ff77cb0023b31102695b11383e979",
    ("strategies", "trend"): "1a604dbff1a5cc9bd3409fbe1a5e6b20c690963b1f4cac198cdecc8df4584474",
    ("strategies", "social_score"): "260dc49d71d29b9f8d051c54e05698099f5f28842e5406ca3735316a3a61b59a",
    ("caches", "none"): "7ec6ab75df1b26e5fcd7f1c10169bcff1c6922ce332f0fd3310336a22554b6bf",
    ("caches", "current_only"): "8c7ef518c826ac9b189c73af737f532a3211555fff3fb25f47f66d763aac52b1",
    ("caches", "social_only"): "baf952c5dbe8dfc3e4b1deaaee3a0fbc9dc1b80893f5aff4f512e51fbddc35f9",
    ("caches", "both"): "ace5f0e754b3e3e5ec98a513f45503fe63124201b786d1e21bf84bd0daaf6b73",
}


def run_output_digest(result) -> str:
    handle = io.StringIO()
    write_rows(handle, METRICS_COLUMNS, result.ledger.rows())
    digest = hashlib.sha256(handle.getvalue().encode("utf-8"))
    digest.update(json.dumps(result.summary, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def test_default_profile_outputs_match_pinned_digests(strategy_results, cache_results):
    got = {("strategies", r.label): run_output_digest(r) for r in strategy_results}
    got.update({("caches", r.label): run_output_digest(r) for r in cache_results})
    assert got == PINNED_RUN_DIGESTS


def test_default_profiles_keep_every_run_invariant(strategy_results, cache_results, capsys):
    """The check the CLI makes after writing its outputs passes on the
    default ``compare-strategies`` and ``compare-caches`` runs: exit 0 and
    nothing on stderr."""
    assert _check_invariants(strategy_results + cache_results) == 0
    assert capsys.readouterr().err == ""


def test_criterion_1_hit_ratio_reproduces_published_counters():
    start = time.perf_counter()
    random_row = hit_ratio(635663, 669476)
    social_row = hit_ratio(5170354, 6090445)
    combined = cache_hit_ratio(
        Counters(social_hits=4606187, current_hits=786123, overlay_replies=44299)
    )
    ok = (
        abs(random_row - 0.9495) <= 5e-4
        and abs(social_row - 0.8492) <= 5e-4
        and abs(combined - 0.9919) <= 5e-4
    )
    report(
        1,
        ok,
        f"ratios {random_row:.5f}/{social_row:.5f}/{combined:.5f} vs "
        f"0.9495/0.8492/0.9919 +-5e-4 in {time.perf_counter() - start:.2f}s",
    )


def test_criterion_2_interaction_length_matches_direct_oracle():
    start = time.perf_counter()
    rng = random.Random("acceptance-mil")
    worst = 0.0
    for _ in range(1000):
        count = rng.randrange(2, 51)
        times = sorted(rng.randrange(0, 10_000_000) for _ in range(count))
        now = times[-1] + rng.randrange(0, 1_000_000)
        # With alpha 0 the social score is the medium interaction length.
        cache = SocialCache("ego", StrategyConfig(alpha=0.0, beta=1.0), lambda *args: None,
                            Counters(), {})
        for t in times:
            reference_record(cache.muc, "x", LOOKUP, t)
        got = cache.social_score("x", now)
        want = direct_medium_interaction_length(times, now)
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            report(2, False, f"mismatch {got!r} vs {want!r} for {count} events")
        if want:
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    report(2, elapsed < 5.0, f"1000 histories, max rel err {worst:.2e}, {elapsed:.2f}s")


def _random_selection_case(rng: random.Random):
    kind = rng.choice([Strategy.TREND, Strategy.SOCIAL_SCORE])
    n = rng.randrange(1, 9)
    alpha = rng.choice([1.0, 0.75, 0.5, 0.25])
    beta = rng.choice([0.0, 0.25, 0.5, 1.0])
    lookup_weight, friend_weight = (rng.choice([0.25, 0.5, 1.0, 2.0]) for _ in range(2))
    cfg = StrategyConfig(kind=kind, n=n, alpha=alpha, beta=beta,
                         lookup_weight=lookup_weight, friend_request_weight=friend_weight)
    weights = weight_map(cfg)
    cache = SocialCache("ego", cfg, lambda *args: None, Counters(), {})
    users = [f"p{i:02d}" for i in range(rng.randrange(1, 21))]
    raw: dict[str, list[tuple[InteractionKind, int]]] = {}
    now = 0
    for user in users:
        events = []
        t = rng.randrange(0, 50)
        for _ in range(rng.randrange(1, 11)):
            t += rng.randrange(0, 40)
            events.append((rng.choice(list(InteractionKind)), t))
        raw[user] = events
        for k, t in events:
            reference_record(cache.muc, user, k, t, weights)
        now = max(now, t)
    now += rng.randrange(1, 50)
    for user in rng.sample(users, min(len(users), rng.randrange(0, n + 1))):
        cache.channels[user] = bytearray()
    return cache, raw, now


def _oracle_scores(cache, raw, now):
    events_by_user = {u: [k for k, _ in evs] for u, evs in raw.items()}
    scores = {}
    for user, events in raw.items():
        if cache.cfg.kind is Strategy.TREND:
            scores[user] = float(sum(1 for k, _ in events if k is LOOKUP))
        else:
            tie = direct_tie_strength(events_by_user, user, weight_map(cache.cfg))
            mil = direct_medium_interaction_length([t for _, t in events], now)
            scores[user] = cache.cfg.alpha * tie + cache.cfg.beta * mil
    return scores


def test_criterion_3_selection_matches_brute_force():
    start = time.perf_counter()
    rng = random.Random("acceptance-selection")
    for case in range(1000):
        cache, raw, now = _random_selection_case(rng)
        scores = _oracle_scores(cache, raw, now)
        expected_top = brute_force_top_n(scores, cache.cfg.n)
        old_channels = list(cache.channels)
        diff = cache.run_selection(now)
        want_subscribe = [u for u in expected_top if u not in old_channels]
        want_unsubscribe = [u for u in old_channels if u not in expected_top]
        if (list(diff.to_subscribe) != want_subscribe
                or list(diff.to_unsubscribe) != want_unsubscribe):
            report(3, False,
                   f"case {case} ({cache.cfg.kind.value}): diff {diff} != "
                   f"({want_subscribe}, {want_unsubscribe})")
        if cache.cfg.kind is Strategy.TREND and len(cache.muc) != 0:
            report(3, False, f"case {case}: trend did not clear the tracked list")
    elapsed = time.perf_counter() - start
    report(3, elapsed < 10.0, f"1000 selection states matched exactly, {elapsed:.2f}s")


def test_criterion_4_social_store_consistent_after_quiescence():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        peer_count=16,
        friends_per_user=8,
        sim_duration_ticks=1_800_000,  # 30 simulated minutes
        cache_setup=CacheSetup.BOTH,
    )
    [result] = run_all([("run", cfg)])
    sim = result.simulation
    violations = sim.verify_consistency()
    symmetry = sim.verify_subscription_symmetry()
    active = (
        result.summary["subscriptions_sent"] > 0
        and result.summary["bootstrap_dumps"] > 0
        and result.summary["dht_puts"] > 0
    )
    elapsed = time.perf_counter() - start
    report(
        4,
        not violations and not symmetry and active and elapsed < 30.0,
        f"{result.summary['dht_puts']} puts, {result.summary['subscriptions_sent']} "
        f"subscriptions, {len(violations)} version violations, "
        f"{len(symmetry)} symmetry violations, {elapsed:.1f}s",
    )


def test_criterion_5_dunbar_caps_hold(strategy_results):
    worst_channels = max(r.summary["max_channels"] for r in strategy_results)
    worst_muc = max(r.summary["max_muc_entries"] for r in strategy_results)
    report(
        5,
        worst_channels <= 15 and worst_muc <= 150,
        f"max channels {worst_channels} <= 15, max tracked users {worst_muc} <= 150 "
        f"across {len(strategy_results)} full default runs",
    )


def test_criterion_6_cache_comparison_ordering(cache_results):
    by_label = {r.label: r for r in cache_results}
    both = by_label["both"].summary["cache_hit_ratio"]
    current = by_label["current_only"].summary["cache_hit_ratio"]
    social = by_label["social_only"].summary["cache_hit_ratio"]
    same_trace = len({r.trace_digest for r in cache_results}) == 1
    ok = both >= current and both >= social and both >= 0.95 and same_trace
    report(
        6,
        ok,
        f"hit ratios both={both:.4f} current={current:.4f} social={social:.4f}; "
        f"both >= others and >= 0.95",
    )


def test_criterion_7_strategy_comparison(strategy_results):
    """At the default profile the social score beats both other strategies
    strictly, as the paper claims."""
    by_label = {r.label: r for r in strategy_results}
    ratios = {label: r.summary["cache_hit_ratio"] for label, r in by_label.items()}
    items_social = by_label["social_score"].summary["social_cache_items"]
    items_random = by_label["random"].summary["social_cache_items"]
    same_trace = len({r.trace_digest for r in strategy_results}) == 1
    social = ratios["social_score"]
    ok = all(ratio >= 0.85 for ratio in ratios.values()) and (
        social > ratios["random"] and social > ratios["trend"]
    ) and (items_social <= items_random) and same_trace
    report(
        7,
        ok,
        "hit ratios "
        + " ".join(f"{label}={ratio:.4f}" for label, ratio in sorted(ratios.items()))
        + f" (all >= 0.85, social_score above both); final items "
        f"social_score={items_social} <= random={items_random}",
    )


def _run_compare_caches(config_path: Path, out_dir: Path, hash_seed: str) -> None:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "socicache", "compare-caches",
         "--config", str(config_path), "--out", str(out_dir)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr


def test_criterion_8_byte_identical_csv_outputs(tmp_path):
    start = time.perf_counter()
    config_path = tmp_path / "scenario.cfg"
    config_path.write_text(
        "peer_count=8\n"
        "friends_per_user=4\n"
        "sim_duration_ticks=1800000\n"
        "seed=13\n"
    )
    dirs = (tmp_path / "first", tmp_path / "second")
    for out_dir, hash_seed in zip(dirs, ("1", "2")):
        _run_compare_caches(config_path, out_dir, hash_seed)
    csvs = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*.csv"))
    assert csvs, "no CSV outputs produced"
    mismatched = [
        str(rel)
        for rel in csvs
        if (dirs[0] / rel).read_bytes() != (dirs[1] / rel).read_bytes()
    ]
    elapsed = time.perf_counter() - start
    report(
        8,
        not mismatched,
        f"{len(csvs)} CSV files byte-identical across two invocations "
        f"({elapsed:.1f}s); mismatches: {mismatched or 'none'}",
    )


def test_criterion_9_lru_ttl_matches_reference():
    start = time.perf_counter()
    rng = random.Random("acceptance-lru")
    cache = CurrentCache(capacity=12, ttl=40)
    ref = ReferenceLruTtlCache(capacity=12, ttl=40)
    now = 0
    checked = 0
    for step in range(10_000):
        now += rng.randrange(0, 5)
        path = f"k{rng.randrange(30)}"
        key = StorageKey("u", path)
        if rng.random() < 0.5:
            got = cache.insert(key, now)
            # The reference stores the insertion tick as the value.
            want = ref.insert(path, now, now)
            assert (got.path if got is not None else None) == want, f"step {step}"
        else:
            got = cache.lookup(key, now)
            want = ref.lookup(path, now)
            assert got == want, f"step {step}"
        checked += 1
    elapsed = time.perf_counter() - start
    report(9, elapsed < 10.0, f"{checked} operations matched the reference, {elapsed:.2f}s")
