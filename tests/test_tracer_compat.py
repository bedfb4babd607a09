"""The benchmark tracer (perfbench/tracer.py) counts messages where they pass
``MessageDispatcher.dispatch`` and overlay traffic where it passes
``DhtStore.get`` and ``put``.  A path that bypasses those boundaries would
leave the per-layer metrics reading low without any error, and a count lost
or doubled in the run's ``Counters`` would leave the summary wrong, so this
runs a small simulation under the tracer, unchanged, and checks its counts
against the simulation's own."""
import importlib.util
from pathlib import Path

from socicache.overlay import MessageDispatcher, MessageKind
from socicache.sim import Simulation
from socicache.social_cache import StrategyConfig
from socicache.workload import ScenarioConfig, generate_trace

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
KINDS = ("subscribe", "unsubscribe", "social_update", "bootstrap_dump", "system_notice")


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_message_counts_match_the_simulation(monkeypatch):
    tracer_module = load_tracer_module()
    # The items the dumps carried, counted where they are sent, below the
    # tracer's own wrapper of ``dispatch``.
    carried = []
    dispatch = MessageDispatcher.dispatch

    def counting_dispatch(dispatcher, env, recipient):
        if env.kind is MessageKind.BOOTSTRAP_DUMP:
            carried.append(len(env.payload))
        return dispatch(dispatcher, env, recipient)

    monkeypatch.setattr(MessageDispatcher, "dispatch", counting_dispatch)
    # Three channels per peer make selection unsubscribe too, so every
    # message kind occurs.
    cfg = ScenarioConfig(peer_count=16, friends_per_user=6, lookups_per_interaction=20.0,
                         new_experiment_time_days=0.05, strategy=StrategyConfig(n=3))
    trace = generate_trace(cfg)
    tracer = tracer_module.Tracer()
    tracer_module.instrument(tracer)
    try:
        summary = Simulation(cfg, trace).run().summary
    finally:
        tracer.uninstall()
    messages = summary["dispatcher_messages"]
    by_kind = {kind: tracer.notes[f"overlay.messages.{kind}"] for kind in KINDS}
    assert messages > 0
    assert tracer.count("overlay.dispatch") == messages
    assert sum(by_kind.values()) == messages
    assert all(by_kind.values()), by_kind
    assert by_kind["social_update"] == tracer.count("social_cache.on_social_update")
    # Selection sends its own changes from inside ``run_selection``; each
    # still passes the dispatch boundary once.
    assert by_kind["subscribe"] == summary["subscriptions_sent"]
    assert by_kind["unsubscribe"] == summary["unsubscriptions_sent"]
    assert by_kind["bootstrap_dump"] == summary["bootstrap_dumps"]
    assert tracer.count("social_cache.on_bootstrap") == summary["bootstrap_dumps"]
    assert tracer.notes["social_cache.bootstrap_items"] == sum(carried) > 0
    assert tracer.count("peer.on_envelope") == messages
    assert summary["dht_lookups"] > 0 and summary["dht_puts"] > 0
    assert tracer.count("overlay.get") == summary["dht_lookups"]
    assert tracer.count("overlay.put") == summary["dht_puts"]
    # The loop runs one round per update interval and one sample per cadence.
    duration = cfg.duration
    rounds = len(range(cfg.strategy.update_interval, duration + 1, cfg.strategy.update_interval))
    samples = len(range(cfg.sample_cadence_ticks, duration + 1, cfg.sample_cadence_ticks))
    assert rounds > 0 and samples > 0
    assert tracer.count("sim.selection_round") == rounds
    assert tracer.count("sim.sample") == samples


def test_a_simulation_built_before_instrument_is_traced_at_delivery():
    """The dispatcher looks a recipient's ``on_envelope`` up in the run's
    peer table at each delivery, so wrapping it after the peers exist
    still sees every delivered message."""
    tracer_module = load_tracer_module()
    cfg = ScenarioConfig(peer_count=16, friends_per_user=6, lookups_per_interaction=20.0,
                         new_experiment_time_days=0.05, strategy=StrategyConfig(n=3))
    sim = Simulation(cfg, generate_trace(cfg))
    tracer = tracer_module.Tracer()
    tracer_module.instrument(tracer)
    try:
        summary = sim.run().summary
    finally:
        tracer.uninstall()
    assert tracer.count("peer.on_envelope") == summary["dispatcher_messages"] > 0
