from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_schedule
from socicache.sim import Simulation
from socicache.social_cache import SelectionTrigger, Strategy, StrategyConfig
from socicache.workload import LOOKUP, CacheSetup, ScenarioConfig, TraceEvent

TIME_TRIGGER = SelectionTrigger.TIME_BASED
COUNT_TRIGGER = SelectionTrigger.LOOKUP_COUNT_BASED
SOCIAL = Strategy.SOCIAL_SCORE


def recorded_schedule(cfg: ScenarioConfig, times: list[int]) -> list[tuple[str, int]]:
    """Run a two-peer lookup trace and record the loop's calls in order."""
    trace = [
        TraceEvent(t, "a" if k % 2 else "b", LOOKUP, ("b" if k % 2 else "a") + "/wall/0")
        for k, t in enumerate(times)
    ]
    sim = Simulation(cfg, trace)
    order: list[tuple[str, int]] = []
    apply_event, select, sample = sim._apply_event, sim._run_selection_round, sim._sample

    def on_event(ev):
        order.append(("event", ev.at))
        apply_event(ev)

    def on_selection(now):
        order.append(("selection", now))
        select(now)

    def on_sample(now):
        order.append(("sample", now))
        sample(now)

    sim._apply_event, sim._run_selection_round, sim._sample = on_event, on_selection, on_sample
    sim.run()
    return order


@st.composite
def schedules(draw):
    duration = draw(st.integers(1, 60))
    interval = draw(st.integers(1, 80))
    cadence = draw(st.integers(1, 80))
    # Event times favour the tick times and the run end, where ties happen.
    ticks = [t for t in range(0, 2 * duration + 2)
             if t % interval == 0 or t % cadence == 0 or t in (duration, duration + 1)]
    times = sorted(draw(st.lists(
        st.one_of(st.sampled_from(ticks), st.integers(0, duration + 20)), max_size=25)))
    kind = draw(st.sampled_from(Strategy))
    trigger = draw(st.sampled_from(SelectionTrigger))
    setup = draw(st.sampled_from(CacheSetup))
    return duration, interval, cadence, times, kind, trigger, setup


@settings(max_examples=400, deadline=None)
@given(schedules())
# Events at a selection tick, a sample tick and the run end, plus one past it.
@example((30, 10, 15, [0, 10, 15, 20, 30, 31, 45], SOCIAL, TIME_TRIGGER, CacheSetup.BOTH))
# Selection and sample ticks coincide; events sit on the shared ticks.
@example((24, 6, 12, [6, 12, 12, 24, 24], SOCIAL, TIME_TRIGGER, CacheSetup.SOCIAL_ONLY))
# Interval and cadence both longer than the run: no ticks at all.
@example((20, 25, 40, [0, 5, 20, 21], Strategy.TREND, TIME_TRIGGER, CacheSetup.BOTH))
# Interval longer than the run, cadence inside it.
@example((20, 25, 5, [5, 10, 20], SOCIAL, TIME_TRIGGER, CacheSetup.BOTH))
# RANDOM and the lookup-count trigger schedule no selection ticks.
@example((30, 10, 10, [10, 20, 30, 40], Strategy.RANDOM, TIME_TRIGGER, CacheSetup.BOTH))
@example((30, 10, 10, [10, 20, 30, 40], SOCIAL, COUNT_TRIGGER, CacheSetup.BOTH))
# No social cache, no selection ticks; every event past the run.
@example((30, 10, 7, [31, 32], SOCIAL, TIME_TRIGGER, CacheSetup.CURRENT_ONLY))
def test_event_loop_matches_pending_list_merge(case):
    duration, interval, cadence, times, kind, trigger, setup = case
    cfg = ScenarioConfig(
        peer_count=2,
        friends_per_user=1,
        sim_duration_ticks=duration,
        friend_request_phases=(),
        sample_cadence_ticks=cadence,
        cache_setup=setup,
        strategy=StrategyConfig(kind=kind, trigger=trigger, update_interval=interval),
    )
    time_selection = (setup.social_enabled and kind is not Strategy.RANDOM
                      and trigger is TIME_TRIGGER)
    want = reference_schedule(times, duration, interval, time_selection, cadence)
    assert recorded_schedule(cfg, times) == want
