"""Single-threaded discrete-event simulation of one scenario.

Merges the trace stream with periodic selection triggers and metric
sampling.  Message delivery is synchronous (zero latency), so the system is
quiescent between events.
"""
from __future__ import annotations

import gc
from bisect import bisect_right
from dataclasses import dataclass, fields
from heapq import merge
from itertools import repeat
from operator import itemgetter

from .info_cache import CurrentCache
from .metrics import Counters, MetricsLedger, cache_hit_ratio, responses_per_item
from .model import SimTime, StorageKey, UserId
from .overlay import DhtStore, MessageDispatcher
from .peer import Peer
from .social_cache import SelectionTrigger, SocialCache, Strategy
from .workload import (
    LOOKUP_CODE,
    POST_CODE,
    CacheSetup,
    ConfigError,
    ScenarioConfig,
    Trace,
    generate_trace,
    scenario_for_setup,
    scenario_for_strategy,
    trace_digest,
)

_COUNTER_NAMES = tuple(f.name for f in fields(Counters))


@dataclass
class RunResult:
    label: str
    config: ScenarioConfig
    trace_digest: str
    ledger: MetricsLedger
    counters: Counters
    summary: dict
    simulation: "Simulation"


class Simulation:
    def __init__(self, cfg: ScenarioConfig, trace: Trace, label: str = "run"):
        cfg.validate()
        # A run applies no event after its duration: refuse, do not cut.
        if len(trace) and trace.ticks[-1] > cfg.duration:
            raise ConfigError(f"trace runs to tick {trace.ticks[-1]}, past "
                              f"sim_duration_ticks={cfg.duration}",
                              ("sim_duration_ticks", "new_experiment_time_days"))
        self.cfg = cfg
        self.trace = trace
        self.label = label
        # The run's one counter record; every layer bumps it directly.
        self.counters = Counters()
        self.dht = DhtStore(self.counters, cfg.replication_factor)
        # The run's one peer table, in sorted ``trace.users`` order; ``dispatch`` reads it.
        self.peers: dict[UserId, Peer] = {}
        self.dispatcher = MessageDispatcher(self.counters, self.peers)
        self.slot_of: dict[StorageKey, int] = {}  # see ``SocialCache``
        self.ledger = MetricsLedger()
        self._sizes: dict[int, int] = {}  # one int per POST size, see ``_apply_event``
        self.max_channels = 0
        self.max_muc_entries = 0
        self._digest = trace_digest(trace)

        # Each peer's caches, built here and nowhere else in the package.
        setup = cfg.cache_setup
        dispatch = self.dispatcher.dispatch  # one bound method for every cache
        for name in trace.users:
            current = social = None
            if setup.current_enabled:
                current = CurrentCache(cfg.current_cache.capacity, cfg.current_cache.ttl_ticks)
            if setup.social_enabled:
                social = SocialCache(name, cfg.strategy, dispatch, self.counters,
                                     self.slot_of, bootstrapping=cfg.bootstrapping,
                                     muc_capacity=cfg.muc_capacity, seed=cfg.seed)
            self.peers[name] = Peer(name, self.dht, self.dispatcher, self.counters,
                                    current=current, social=social)
        # Indexed by a trace event's actor, which numbers ``trace.users``.
        self._actor_peers = list(self.peers.values())
        self._socials = [p.social for p in self._actor_peers if p.social is not None]
        self._currents = [p.current for p in self._actor_peers if p.current is not None]

    # -- event processing ---------------------------------------------------

    def _apply_event(self, at: SimTime, actor: Peer, action: int,
                     target: StorageKey | UserId, size: int) -> None:
        """One trace event, already resolved: the acting peer, the action
        code and the parsed target (a friend-request target is a name)."""
        if action == LOOKUP_CODE:
            actor.handle_request(target, at)
        elif action == POST_CODE:
            # Each read of a size past 256 makes a new int: all content shares one per size.
            actor.add_content(target, self._sizes.setdefault(size, size), at)
        else:
            actor.send_friend_request(target, at)

    def _run_selection_round(self, now: SimTime) -> None:
        """One time-triggered selection round; ``run`` schedules it only
        for the time trigger.  Peers go in sorted order, and a peer is
        skipped before its ``stable_until`` tick, where its selection
        provably changes nothing."""
        for social in self._socials:
            if now >= social.stable_until:
                social.run_selection(now)

    def _sample(self, now: SimTime) -> None:
        counters = self.counters
        row = {name: getattr(counters, name) for name in _COUNTER_NAMES}
        row.update(self._gauges())
        self.ledger.record_sample(now, row)

    def run(self) -> RunResult:
        """Run the trace to the end of the duration with the cyclic garbage
        collector paused, restoring its state also on error.  Delivery is
        synchronous and no handler keeps a back-reference, so a run makes no
        reference cycles (``test_run_leaves_no_cyclic_garbage``).  Before
        the collector is turned back on, ``gc.freeze`` and ``gc.unfreeze``
        move what the run built into the oldest generation without walking
        it, so no young collection walks it next.  The move takes every
        tracked object in the process, not only the run's: younger ones and
        any frozen before also end in the oldest generation."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run()
        finally:
            if enabled:
                gc.freeze()
                gc.unfreeze()
                gc.enable()

    def _run(self) -> RunResult:
        """Walk one lazy merge of the stops: a round every interval under the
        time trigger, a sample every cadence and a last stop at the duration,
        each after the events up to its tick.  ``merge`` keeps its inputs'
        order, so at an equal tick: events, then the round, then the sample."""
        cfg = self.cfg
        duration = cfg.duration
        trace = self.trace
        interval = cfg.strategy.update_interval
        cadence = cfg.sample_cadence_ticks
        time_selection = (
            cfg.cache_setup.social_enabled
            and cfg.strategy.kind is not Strategy.RANDOM
            and cfg.strategy.trigger is SelectionTrigger.TIME_BASED
        )
        rounds = range(interval, duration + 1, interval) if time_selection else ()
        stops = merge(zip(rounds, repeat(self._run_selection_round)),
                      zip(range(cadence, duration + 1, cadence), repeat(self._sample)),
                      [(duration, None)], key=itemgetter(0))

        apply_event = self._apply_event
        ticks, actors, actions = trace.ticks, trace.actors, trace.actions
        target_ids, sizes, resolved = trace.target_ids, trace.sizes, trace.resolved
        actor_peers = self._actor_peers
        i = 0
        for tick, stop in stops:
            # Ticks never decrease, so a segment's events are a column slice.
            j = bisect_right(ticks, tick, i)
            for at, actor, action, target_id, size in zip(
                    ticks[i:j], actors[i:j], actions[i:j], target_ids[i:j], sizes[i:j]):
                apply_event(at, actor_peers[actor], action, resolved[target_id], size)
            i = j
            if stop is not None:
                stop(tick)
        return self._result()

    # -- results ------------------------------------------------------------

    def _gauges(self) -> dict[str, float]:
        """Cache sizes and mean MUC size now; also folds the current channel
        and MUC sizes into the run-wide maxima.  It runs at each sample and
        at the end of the run only, so those maxima are taken at sample
        ticks: a size reached and left between two samples is not seen."""
        current_items = sum([len(current.entries) for current in self._currents])
        social_items = muc_total = 0
        max_channels, max_muc_entries = self.max_channels, self.max_muc_entries
        for social in self._socials:
            social_items += social.store_items
            muc_size = len(social.muc)
            muc_total += muc_size
            if muc_size > max_muc_entries:
                max_muc_entries = muc_size
            channels = len(social.channels)
            if channels > max_channels:
                max_channels = channels
        self.max_channels, self.max_muc_entries = max_channels, max_muc_entries
        socials = len(self._socials)
        return {
            "social_cache_items": social_items,
            "current_cache_items": current_items,
            "muc_size_mean": (muc_total / socials) if socials else 0.0,
        }

    def verify_consistency(self) -> list[str]:
        """Social caches whose item count (``social_cache_items``)
        disagrees with their sections' items, and held versions that
        disagree with the overlay's version of the key at their slot (the
        inverse of ``slot_of``) or sit at a slot of no key.  With
        bootstrapping on, every section must also be complete: as long as
        its owner's ``own`` and holding no 0 (an empty section only for an
        empty ``own``), so an update lost for a new key is reported too,
        where no held version is stale."""
        violations: list[str] = []
        complete = self.cfg.bootstrapping
        keys_of: dict[UserId, list[StorageKey | None]] = {}
        for key, slot in self.slot_of.items():
            keys = keys_of.setdefault(key.owner, [])
            keys += [None] * (slot + 1 - len(keys))
            keys[slot] = key
        for name, peer in self.peers.items():
            social = peer.social
            if social is None:
                continue
            held = sum([len(section) - section.count(0) for section in social.channels.values()])
            if social.store_items != held:
                violations.append(f"{name}: counts {social.store_items} items, stores {held}")
            for user, section in social.channels.items():
                if complete:
                    owned = len(self.peers[user].social.own)
                    items = len(section) - section.count(0)
                    if not items == len(section) == owned:
                        violations.append(f"{name}: holds {items} items in {len(section)} slots of "
                                          f"{user}'s {owned}")
                keys = keys_of.get(user, [])
                for slot, version in enumerate(section):
                    if not version:
                        continue
                    key = keys[slot] if slot < len(keys) else None
                    if key is None:
                        violations.append(f"{name}: version {version} at slot {slot} of "
                                          f"{user}'s section, which has no key")
                        continue
                    stored = self.dht.entries.get(key)
                    if stored is None:
                        violations.append(f"{name}: {key} missing from the overlay")
                    elif stored.version != version:
                        violations.append(
                            f"{name}: {key} version {version} != overlay {stored.version}"
                        )
        return violations

    def verify_subscription_symmetry(self) -> list[str]:
        """After quiescence, u subscribed to v iff v lists u as a receiver.
        Every channel and receiver is a peer of the run (``dispatch`` refuses
        any other), and every peer has the same cache setup."""
        violations: list[str] = []
        for name, peer in self.peers.items():
            social = peer.social
            if social is None:
                continue
            for channel in social.channels:
                if name not in self.peers[channel].social.receivers:
                    violations.append(f"{name} subscribes {channel} but is not a receiver")
            for receiver in social.receivers:
                if name not in self.peers[receiver].social.channels:
                    violations.append(f"{name} lists {receiver} without a subscription")
        return violations

    def _result(self) -> RunResult:
        counters = self.counters
        gauges = self._gauges()
        total_items = gauges["social_cache_items"] + gauges["current_cache_items"]
        # In ``summary.csv`` column order: the CLI writes the dict as it stands.
        summary = {
            "label": self.label,
            "strategy": self.cfg.strategy.kind.value,
            "cache_setup": self.cfg.cache_setup.value,
            "seed": self.cfg.seed,
            "peer_count": len(self.peers),
            "duration_ticks": self.cfg.duration,
            "trace_digest": self._digest[:12],
            "total_requests": counters.total_requests,
            "social_hits": counters.social_hits,
            "current_hits": counters.current_hits,
            "overlay_replies": counters.overlay_replies,
            "unanswered": counters.unanswered,
            "subscriptions_sent": counters.subscriptions_sent,
            "unsubscriptions_sent": counters.unsubscriptions_sent,
            "bootstrap_dumps": counters.bootstrap_dumps,
            "dispatcher_messages": counters.dispatcher_messages,
            "delivered": counters.dispatcher_messages,
            "dht_lookups": counters.dht_lookups,
            "dht_puts": counters.dht_puts,
            "bytes_read": counters.bytes_read,
            "bytes_written": counters.bytes_written,
            "social_cache_items": gauges["social_cache_items"],
            "current_cache_items": gauges["current_cache_items"],
            "total_cache_items": total_items,
            "max_channels": self.max_channels,
            "max_muc_entries": self.max_muc_entries,
            "cache_hit_ratio": cache_hit_ratio(counters),
            "responses_per_item": responses_per_item(counters.cache_replies, total_items),
        }
        return RunResult(
            label=self.label,
            config=self.cfg,
            trace_digest=self._digest,
            ledger=self.ledger,
            counters=counters,
            summary=summary,
            simulation=self,
        )


STRATEGY_ORDER = (Strategy.RANDOM, Strategy.TREND, Strategy.SOCIAL_SCORE)
SETUP_ORDER = (
    CacheSetup.NONE,
    CacheSetup.CURRENT_ONLY,
    CacheSetup.SOCIAL_ONLY,
    CacheSetup.BOTH,
)


def strategy_runs(cfg: ScenarioConfig) -> list[tuple[str, ScenarioConfig]]:
    """One run per selection strategy, social cache only."""
    base = scenario_for_setup(cfg, CacheSetup.SOCIAL_ONLY)
    return [(kind.value, scenario_for_strategy(base, kind)) for kind in STRATEGY_ORDER]


def cache_runs(cfg: ScenarioConfig) -> list[tuple[str, ScenarioConfig]]:
    """One run per cache setup with the social-score strategy."""
    base = scenario_for_strategy(cfg, Strategy.SOCIAL_SCORE)
    return [(setup.value, scenario_for_setup(base, setup)) for setup in SETUP_ORDER]


def run_all(runs: list[tuple[str, ScenarioConfig]], trace: Trace | None = None) -> list[RunResult]:
    """Run each labelled config on one trace, generated from the first
    config when none is given; ``generate_trace`` reads neither the strategy
    nor the cache setup, so the runs of a plan share it.  Every config is
    checked before the trace is made."""
    for _, cfg in runs:
        cfg.validate()
    if trace is None:
        trace = generate_trace(runs[0][1])
    return [Simulation(cfg, trace, label).run() for label, cfg in runs]
