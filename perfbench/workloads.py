"""The benchmark's workloads: one per CLI command shape.

Each workload fixes a scenario (config overrides on top of the CLI profile
of the command it reproduces) and the list of runs made on one generated
trace.  Later changes refer to the workloads by name, so the names and the
full-size settings are part of the benchmark's contract.
"""
from __future__ import annotations

from dataclasses import dataclass

from socicache.cli import (
    cache_comparison_profile,
    default_run_profile,
    strategy_comparison_profile,
)
from socicache.sim import SETUP_ORDER, STRATEGY_ORDER
from socicache.social_cache import Strategy
from socicache.workload import (
    CacheSetup,
    ScenarioConfig,
    scenario_for_setup,
    scenario_for_strategy,
)

COMPARE_CACHES = "compare-caches"
COMPARE_STRATEGIES = "compare-strategies"
RUN = "run"
PROFILES = {
    COMPARE_CACHES: cache_comparison_profile,
    COMPARE_STRATEGIES: strategy_comparison_profile,
    RUN: default_run_profile,
}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    # ScenarioConfig field overrides per size ("full" is the benchmark,
    # "smoke" a seconds-long version for the smoke check).
    sizes: dict


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The lookup pipeline (social, current and overlay tiers, then
        # tracking) does most of the work; the none and current_only runs
        # bypass the social cache.  Trace size is set by the lookup rate
        # alone (the post and lookup gaps scale with the duration).
        Workload(
            "caches-read",
            COMPARE_CACHES,
            {
                "full": {"lookups_per_interaction": 150.0, "new_experiment_time_days": 0.25},
                "smoke": {"peer_count": 16, "friends_per_user": 6,
                          "lookups_per_interaction": 40.0, "new_experiment_time_days": 0.02},
            },
        ),
        # Two simulated days give 3,456 rounds x 64 peers = 221,184
        # selection calls for each of trend and social_score, so selection
        # and ranking dominate; random makes none and the current cache is
        # never used.
        Workload(
            "select-2d",
            COMPARE_STRATEGIES,
            {
                "full": {"lookups_per_interaction": 50.0, "new_experiment_time_days": 2.0},
                "smoke": {"peer_count": 16, "friends_per_user": 6,
                          "lookups_per_interaction": 10.0, "new_experiment_time_days": 0.05},
            },
        ),
        # The write side at 2048 peers: publish fan-out through dispatch
        # into subscribers, overlay puts, current-cache inserts and bootstrap
        # dumps; also the largest trace generation and memory.
        Workload(
            "fanout-2k",
            RUN,
            {
                "full": {"peer_count": 2048, "lookups_per_interaction": 5.0,
                         "new_experiment_time_days": 0.02},
                "smoke": {"peer_count": 128, "lookups_per_interaction": 5.0,
                          "new_experiment_time_days": 0.005},
            },
        ),
    )
}


def base_config(wl: Workload, seed: int, size: str) -> ScenarioConfig:
    """The scenario the CLI command would resolve, with the workload's
    overrides and seed applied."""
    cfg = PROFILES[wl.shape]()
    for key, value in wl.sizes[size].items():
        setattr(cfg, key, value)
    cfg.seed = seed
    if wl.shape == COMPARE_CACHES:
        cfg = scenario_for_strategy(cfg, Strategy.SOCIAL_SCORE)
    elif wl.shape == COMPARE_STRATEGIES:
        cfg = scenario_for_setup(cfg, CacheSetup.SOCIAL_ONLY)
    cfg.validate()
    return cfg


def run_configs(wl: Workload, base: ScenarioConfig) -> list[tuple[str, ScenarioConfig]]:
    """(label, config) of every run on the shared trace, in CLI order."""
    if wl.shape == COMPARE_CACHES:
        return [(setup.value, scenario_for_setup(base, setup)) for setup in SETUP_ORDER]
    if wl.shape == COMPARE_STRATEGIES:
        return [(kind.value, scenario_for_strategy(base, kind)) for kind in STRATEGY_ORDER]
    return [("run", base)]
