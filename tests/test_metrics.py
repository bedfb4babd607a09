import tracemalloc

import pytest

from socicache.metrics import (
    METRICS_COLUMNS,
    Counters,
    MetricsLedger,
    cache_hit_ratio,
    hit_ratio,
    responses_per_item,
)
from socicache.sim import run_all
from socicache.workload import ScenarioConfig


# -- hit ratio ----------------------------------------------------------------

@pytest.mark.parametrize(
    "cache,total,expected",
    [
        (635663, 669476, 0.9495),
        (5170354, 6090445, 0.8489),
    ],
)
def test_hit_ratio_known_counter_pairs(cache, total, expected):
    assert hit_ratio(cache, total) == pytest.approx(expected, abs=5e-4)


def test_hit_ratio_from_counters_sums_answer_sources():
    counters = Counters(social_hits=4606187, current_hits=786123, overlay_replies=44299)
    assert cache_hit_ratio(counters) == pytest.approx(0.99185, abs=5e-5)


def test_hit_ratio_undefined_for_zero_denominator():
    assert hit_ratio(0, 0) is None
    assert cache_hit_ratio(Counters()) is None


def test_hit_ratio_scale_invariant():
    counters = Counters(social_hits=300, current_hits=100, overlay_replies=50)
    base = cache_hit_ratio(counters)
    scaled = Counters(social_hits=3000, current_hits=1000, overlay_replies=500)
    assert cache_hit_ratio(scaled) == pytest.approx(base)


# -- responses per item --------------------------------------------------------

@pytest.mark.parametrize(
    "replies,items,expected",
    [
        (3427562, 200674, 17.0802),
        (5170354, 584968, 8.8386),
        (0, 10, 0.0),
    ],
)
def test_responses_per_item(replies, items, expected):
    assert responses_per_item(replies, items) == pytest.approx(expected, abs=5e-4)


def test_responses_per_item_undefined_for_empty_cache():
    assert responses_per_item(100, 0) is None


# -- counters -------------------------------------------------------------------

def test_counter_conservation_fields():
    counters = Counters(
        social_hits=5, current_hits=3, overlay_replies=2, total_requests=12, dht_lookups=4
    )
    assert counters.answered == 10
    assert counters.unanswered == 2
    counters.validate()


def test_counters_reject_negative():
    with pytest.raises(ValueError):
        Counters(social_hits=-1).validate()


@pytest.mark.parametrize("dht_lookups", [0, 3, 5])
def test_counters_reject_overlay_lookups_other_than_cache_misses(dht_lookups):
    """Every request no cache answers asks the overlay exactly once: 12
    requests with 8 cache hits make 4 overlay lookups, no more, no fewer."""
    counters = Counters(social_hits=5, current_hits=3, overlay_replies=2, total_requests=12,
                        dht_lookups=dht_lookups)
    with pytest.raises(ValueError, match="overlay lookups"):
        counters.validate()


# -- series and CSV export ---------------------------------------------------------

def full_row(**values):
    """A row of every stored column: all of ``METRICS_COLUMNS`` but
    ``t_ticks`` and the derived ``hit_ratio``, zero unless given."""
    row = {name: 0 for name in METRICS_COLUMNS[1:] if name != "hit_ratio"}
    row["muc_size_mean"] = 0.0
    row.update(values)
    return row


def ledger_state(ledger):
    return list(ledger.sample_times), {name: list(v) for name, v in ledger.series.items()}


def test_sampled_series_requires_increasing_times():
    ledger = MetricsLedger()
    ledger.record_sample(10, full_row(social_hits=1))
    before = ledger_state(ledger)
    for now in (10, 9):
        with pytest.raises(ValueError):
            ledger.record_sample(now, full_row(social_hits=2))
    assert ledger_state(ledger) == before


@pytest.mark.parametrize("column, row", [
    ("dht_puts", {name: v for name, v in full_row().items() if name != "dht_puts"}),
    ("hit_ratio", full_row(hit_ratio=0.5)),
    ("no_such_column", full_row(no_such_column=1)),
])
def test_refused_row_leaves_ledger_unchanged(column, row):
    """A row missing a stored column or carrying an unknown one (the derived
    ``hit_ratio`` included) raises ``KeyError`` naming it, before anything
    is appended."""
    ledger = MetricsLedger()
    ledger.record_sample(10, full_row(social_hits=3, muc_size_mean=1.5))
    before = ledger_state(ledger)
    with pytest.raises(KeyError, match=column):
        ledger.record_sample(20, row)
    assert ledger_state(ledger) == before


def test_ledger_stores_at_most_200_bytes_per_row():
    """Each value is 8 bytes in a typed array.  As one object per value in
    a list, a row of counters above 2**30 cost about 500 bytes."""
    rows = 10_000
    row = full_row()
    names = list(row)
    ledger = MetricsLedger()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(rows):
            # New value objects each row: a ledger that kept them would grow.
            first = (1 << 30) + len(names) * i
            row.update(zip(names, range(first, first + len(names))))
            row["muc_size_mean"] = float(i)
            ledger.record_sample(i, row)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ledger.sample_times) == rows
    assert grown / rows <= 200, grown / rows


def test_empty_ledger_exports_header_only(tmp_path):
    ledger = MetricsLedger()
    path = tmp_path / "m.csv"
    ledger.export_csv(path)
    assert path.read_text() == ",".join(METRICS_COLUMNS) + "\n"


def test_undefined_ratio_exports_empty_cell(tmp_path):
    ledger = MetricsLedger()
    ledger.record_sample(60_000, full_row())
    path = tmp_path / "m.csv"
    ledger.export_csv(path)
    header, row = path.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["hit_ratio"] == ""
    assert cells["social_hits"] == "0"
    assert cells["t_ticks"] == "60000"


def sample_cadence_rows(duration, cadence):
    # independent cadence arithmetic: one row per full cadence step
    return duration // cadence


def test_six_hour_run_row_count(tmp_path):
    # 6 simulated hours sampled every 60 s -> 360 rows + header.
    expected_rows = sample_cadence_rows(21_600_000, 60_000)
    assert expected_rows == 360
    cfg = ScenarioConfig(
        peer_count=4,
        friends_per_user=2,
        sim_duration_ticks=21_600_000,
        lookups_per_interaction=5,  # keep the run light
    )
    [result] = run_all([("run", cfg)])
    assert len(result.ledger.sample_times) == expected_rows
    path = tmp_path / "m.csv"
    result.ledger.export_csv(path)
    lines = path.read_text().splitlines()
    assert len(lines) == expected_rows + 1


def test_same_seed_exports_identical_bytes(tmp_path):
    cfg = ScenarioConfig(peer_count=6, friends_per_user=3, sim_duration_ticks=900_000)
    paths = []
    for name in ("a.csv", "b.csv"):
        [result] = run_all([("run", cfg)])
        path = tmp_path / name
        result.ledger.export_csv(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_counters_never_decrease_over_a_run():
    cfg = ScenarioConfig(peer_count=6, friends_per_user=3, sim_duration_ticks=900_000)
    ledger = run_all([("run", cfg)])[0].ledger
    cumulative = (
        "social_hits", "current_hits", "overlay_replies", "total_requests",
        "subscriptions_sent", "unsubscriptions_sent", "bootstrap_dumps",
        "dispatcher_messages", "dht_lookups", "dht_puts", "bytes_read",
        "bytes_written",
    )
    for name in cumulative:
        values = list(ledger.series[name])
        assert values == sorted(values), name
