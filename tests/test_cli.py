import csv
import dataclasses
import json
import operator
import platform
import re
from pathlib import Path

import pytest

from oracles import NEW_KEYS_AFTER_SUBSCRIBING, dropping_new_slots, event_line
from socicache import cli
from socicache.cli import apply_setting, main, run_id, serialize_config
from socicache.metrics import Counters
from socicache.sim import Simulation
from socicache.social_cache import SelectionTrigger, SocialCache, Strategy, StrategyConfig
from socicache.workload import (
    CacheSetup,
    CurrentCacheConfig,
    DatasetStats,
    ScenarioConfig,
    generate_trace,
    save_trace,
    trace_digest,
)

SMALL = [
    "--set", "peer_count=8",
    "--set", "friends_per_user=4",
    "--set", "sim_duration_ticks=600000",
]


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--out", str(out), *SMALL])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "manifest.json").exists()
    rows = read_rows(out / "summary.csv")
    assert len(rows) == 1
    assert rows[0]["cache_setup"] == "both"


def test_invalid_config_exits_two(tmp_path, capsys):
    code = main([
        "run", "--out", str(tmp_path),
        "--set", "peer_count=8",
        "--set", "friends_per_user=8",
    ])
    assert code == 2
    assert "friends_per_user" in capsys.readouterr().err


@pytest.mark.parametrize("command, kind", [
    ("run", "social_score"),
    ("compare-strategies", "trend"),
    ("compare-caches", "trend"),
])
def test_zero_weights_exit_two(tmp_path, capsys, command, kind):
    """Zero social-score weights are a config error wherever a run scores
    users: the comparisons run social score whatever ``strategy.kind`` says
    (a lone trend run reads no weights)."""
    code = main([command, "--out", str(tmp_path / "out"), *SMALL,
                 "--set", f"strategy.kind={kind}",
                 "--set", "strategy.alpha=0", "--set", "strategy.beta=0"])
    assert code == 2
    assert ("config error: strategy: alpha + beta must be positive for social score"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, line", [
    pytest.param(b"peer_count=8\nfriends_per_user=4\xff\n", 2, id="not-utf8"),
    pytest.param(b"# \xe2\x82\xac ok\npeer_count=8\n\xe2\x82\n", 3, id="truncated-utf8"),
])
def test_undecodable_config_file_exits_two_with_line(tmp_path, capsys, body, line):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(body)
    code = main(["run", "--out", str(tmp_path / "out"), "--config", str(config)])
    assert code == 2
    assert f"{config}:{line}: not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_trace_file_exits_two(tmp_path, capsys):
    trace_path = tmp_path / "absent.txt"
    code = main(["run", "--out", str(tmp_path / "out"), "--trace", str(trace_path), *SMALL])
    assert code == 2
    assert (capsys.readouterr().err
            == f"socicache: trace error: {trace_path}: No such file or directory\n")
    assert not (tmp_path / "out").exists()


def test_trace_directory_exits_two(tmp_path, capsys):
    code = main(["run", "--out", str(tmp_path / "out"), "--trace", str(tmp_path), *SMALL])
    assert code == 2
    assert capsys.readouterr().err == f"socicache: trace error: {tmp_path}: Is a directory\n"
    assert not (tmp_path / "out").exists()


def test_unknown_key_exits_two_and_names_key(tmp_path, capsys):
    # ``strategy.rng_seed`` is no key: the scenario seed is the only seed.
    for key in ("no_such_key", "strategy.rng_seed"):
        code = main(["run", "--out", str(tmp_path), "--set", f"{key}=1"])
        assert code == 2
        assert f"unknown config key: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("head, line, lines, error", [
    ("peer_count=8", "no_such=1", (4,), "unknown config key: no_such"),
    ("peer_count=8", "friends_per_user=many", (4,), "bad value for friends_per_user: "),
    # A check of ``validate`` names the line of every key it read that the
    # file set, a renamed key included.
    ("seed=7", "strategy.n=0", (4,), "strategy: channel limit n must be positive"),
    ("seed=7", "strategy.update_interval_ticks=0", (4,),
     "strategy: update_interval must be positive"),
    ("peer_count=8", "friends_per_user=8", (2, 4),
     "friends_per_user must be positive and below peer_count"),
    # The regular-graph rule is checked as the trace is generated.
    ("peer_count=9", "friends_per_user=5", (2, 4), "no 5-regular graph exists on 9 peers"),
])
def test_config_file_errors_name_the_file_and_line(tmp_path, capsys, head, line, lines, error):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"# comment\n{head}\n\n{line}\n", encoding="utf-8")
    code = main(["run", "--out", str(tmp_path / "out"), "--config", str(config)])
    assert code == 2
    where = "".join(f"{config}:{line_no}: " for line_no in lines)
    assert f"config error: {where}{error}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # The same settings from --set name the error alone, as they have no line.
    sets = [arg for setting in (head, line) for arg in ("--set", setting)]
    assert main(["run", "--out", str(tmp_path / "out"), *sets]) == 2
    assert f"socicache: config error: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("command, settings, lines, error", [
    # A comparison runs social score whatever ``strategy.kind`` says.
    ("compare-caches", ("strategy.kind=trend", "strategy.alpha=0", "strategy.beta=0"),
     (1, 2, 3), "strategy: alpha + beta must be positive for social score"),
    ("run", ("sim_duration_ticks=1000",), (1,),
     "trace runs to tick {last}, past sim_duration_ticks=1000"),
])
def test_config_errors_of_the_planned_runs_name_the_file_and_line(tmp_path, capsys, command,
                                                                    settings, lines, error):
    """A check made after the config is resolved, on a comparison's run
    configs or on the replayed trace, names the file line of each key it
    read as well; from ``--set`` the error is the same without a position."""
    trace = generate_trace(ScenarioConfig(peer_count=6, friends_per_user=2,
                                          sim_duration_ticks=300_000))
    save_trace(trace, tmp_path / "trace.txt")
    error = error.format(last=trace.ticks[-1])
    settings = (*settings, "peer_count=6", "friends_per_user=2")
    config = tmp_path / "scenario.cfg"
    config.write_text("".join(f"{setting}\n" for setting in settings), encoding="utf-8")
    replay = ["--out", str(tmp_path / "out"), "--trace", str(tmp_path / "trace.txt")]
    assert main([command, *replay, "--config", str(config)]) == 2
    where = "".join(f"{config}:{line_no}: " for line_no in lines)
    assert capsys.readouterr().err == f"socicache: config error: {where}{error}\n"
    sets = [arg for setting in settings for arg in ("--set", setting)]
    assert main([command, *replay, *sets]) == 2
    assert capsys.readouterr().err == f"socicache: config error: {error}\n"
    assert not (tmp_path / "out").exists()


def test_config_lines_end_only_at_a_newline(tmp_path, capsys):
    """A form feed, a carriage return or U+0085 in a comment starts no line
    of its own."""
    config = tmp_path / "scenario.cfg"
    config.write_text("# a form feed \x0c, a carriage return \r and a next line \x85 in a "
                      "comment\n"
                      "peer_count=8\nfriends_per_user=8\n", encoding="utf-8")
    code = main(["run", "--out", str(tmp_path / "out"), "--config", str(config)])
    assert code == 2
    assert (f"config error: {config}:2: {config}:3: friends_per_user must be positive and "
            "below peer_count") in capsys.readouterr().err


def test_a_key_set_again_by_set_loses_its_file_line(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("peer_count=8\nfriends_per_user=8\n", encoding="utf-8")
    code = main(["run", "--out", str(tmp_path / "out"), "--config", str(config),
                 "--set", "peer_count=6"])
    assert code == 2
    assert (f"config error: {config}:2: friends_per_user must be positive and below "
            "peer_count") in capsys.readouterr().err


def test_a_key_given_twice_in_a_config_file_exits_two_and_names_both_lines(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("peer_count=16\nfriends_per_user=4\nsim_duration_ticks=600000\n"
                      " peer_count = 20\n", encoding="utf-8")
    code = main(["run", "--out", str(tmp_path / "out"), "--config", str(config)])
    assert code == 2
    assert f"{config}:4: peer_count is already set on line 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # --set may still override a file's key, and the last --set wins.
    config.write_text("peer_count=16\nfriends_per_user=4\nsim_duration_ticks=600000\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--out", str(out), "--config", str(config),
                 "--set", "peer_count=12", "--set", "peer_count=10"])
    assert code == 0
    assert read_rows(out / "summary.csv")[0]["peer_count"] == "10"


# The config fields whose key is not their dotted path.
RENAMED_FIELDS = {
    "strategy.update_interval": "strategy.update_interval_ticks",
    "strategy.lookup_weight": "strategy.weight.lookup",
    "strategy.friend_request_weight": "strategy.weight.friend_request",
}


def test_every_config_field_is_exactly_one_key():
    """Every field of ScenarioConfig, and of each of its sections as
    ``section.name``, is one key that reads it; only the renamed fields'
    keys differ from their path."""
    cfg = every_key_changed()  # sets the two fields whose key is resolved
    paths = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        paths += ([f"{field.name}.{sub.name}" for sub in dataclasses.fields(value)]
                  if dataclasses.is_dataclass(value) else [field.name])
    names = [RENAMED_FIELDS.get(path, path) for path in paths]
    assert len(names) == len(set(names)) == 30
    assert sorted(names) == sorted(cli._KEYS)
    for path, name in zip(paths, names):
        assert cli._KEYS[name].get(cfg) == operator.attrgetter(path)(cfg), name


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Configuration\n", 1)[1].split("```")[1]
    missing = [key for key in cli._KEYS
               if not re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])", block)]
    assert missing == []


def _is_float_key(value):
    floats = value if isinstance(value, tuple) else (value,)
    return bool(floats) and all(type(v) is float for v in floats)


# Every key whose value is a float or a tuple of floats, from the keys
# themselves, so a new float key is covered without being listed here.
FLOAT_KEYS = sorted(key for key, entry in cli._KEYS.items()
                    if _is_float_key(entry.get(ScenarioConfig())))


def test_float_keys_found():
    assert {"strategy.alpha", "strategy.beta", "tier_shares", "new_experiment_time_days",
            "dataset.experiment_span_days", "strategy.weight.lookup"} <= set(FLOAT_KEYS)


@pytest.mark.parametrize("via", ["set", "file"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_exits_two_and_names_key(tmp_path, capsys, key, bad, via):
    """NaN and the infinities pass every range check, so each float key's
    parser refuses them, whether they come from ``--set`` or a file."""
    default = cli._KEYS[key].get(ScenarioConfig())
    value = ",".join([bad, *map(repr, default[1:])]) if isinstance(default, tuple) else bad
    if via == "set":
        source = ["--set", f"{key}={value}"]
    else:
        config = tmp_path / "scenario.cfg"
        config.write_text(f"{key}={value}\n", encoding="utf-8")
        source = ["--config", str(config)]
    code = main(["run", "--out", str(tmp_path / "out"), *SMALL, *source])
    assert code == 2
    assert f"bad value for {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_override_beats_file_beats_default(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "# comment line\n"
        "peer_count=8\n"
        "friends_per_user=4\n"
        "sim_duration_ticks=600000\n"
        "cache_setup=current_only\n"
        "seed=7\n"
    )
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(config), "--out", str(out),
        "--set", "cache_setup=both",
    ])
    assert code == 0
    row = read_rows(out / "summary.csv")[0]
    assert row["cache_setup"] == "both"  # --set wins over the file
    assert row["seed"] == "7"  # file wins over the default


def test_seed_flag_overrides_file(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("peer_count=8\nfriends_per_user=4\nsim_duration_ticks=600000\nseed=7\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--seed", "11"]) == 0
    assert read_rows(out / "summary.csv")[0]["seed"] == "11"


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("SOCICACHE_OUT", str(target))
    assert main(["run", *SMALL]) == 0
    assert (target / "summary.csv").exists()


def test_compare_strategies_emits_three_rows(tmp_path):
    out = tmp_path / "out"
    code = main(["compare-strategies", "--out", str(out), *SMALL])
    assert code == 0
    rows = read_rows(out / "comparison.csv")
    assert [row["strategy"] for row in rows] == ["random", "trend", "social_score"]
    for row in rows:
        ratio = float(row["hit_ratio"])
        assert 0.0 <= ratio <= 1.0
        assert int(row["cache_replies"]) + int(row["overlay_replies"]) == int(
            row["total_replies"]
        )
    # controlled-variable contract: all three runs replay the same trace
    digests = {
        read_rows(out / label / "summary.csv")[0]["trace_digest"]
        for label in ("random", "trend", "social_score")
    }
    assert len(digests) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trace_digest"][:12] == digests.pop()


def test_compare_caches_emits_four_rows(tmp_path):
    out = tmp_path / "out"
    code = main(["compare-caches", "--out", str(out), *SMALL])
    assert code == 0
    rows = read_rows(out / "comparison.csv")
    assert [row["cache_setup"] for row in rows] == [
        "none", "current_only", "social_only", "both",
    ]
    none_row = rows[0]
    assert none_row["hit_ratio"] in ("", "0.000000")
    for row in rows[1:]:
        assert 0.0 <= float(row["hit_ratio"]) <= 1.0


def test_run_id_of_one_config_is_unchanged():
    assert run_id(cli.default_run_profile()) == "e63e50d6f445"


def test_comparisons_that_differ_only_in_an_overridden_key_share_a_run_id(tmp_path):
    """compare-caches sets every run's cache setup, so the base config's
    ``cache_setup`` changes neither its outputs nor its run id."""
    outs = [tmp_path / setup for setup in ("both", "none")]
    for out in outs:
        assert main(["compare-caches", "--out", str(out), *SMALL,
                     "--set", f"cache_setup={out.name}"]) == 0
    ids = [json.loads((out / "manifest.json").read_text())["run_id"] for out in outs]
    assert ids[0] == ids[1]
    setups = ("none", "current_only", "social_only", "both")
    for name in ("comparison.csv", *(f"{setup}/{file}" for setup in setups
                                     for file in ("metrics.csv", "summary.csv"))):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_run_replays_external_trace(tmp_path):
    cfg = ScenarioConfig(peer_count=6, friends_per_user=3, sim_duration_ticks=300_000)
    trace_path = tmp_path / "trace.txt"
    trace = generate_trace(cfg)
    save_trace(trace, trace_path)
    out = tmp_path / "out"
    code = main([
        "run", "--out", str(out), "--trace", str(trace_path),
        "--set", "peer_count=6",
        "--set", "friends_per_user=3",
        "--set", "sim_duration_ticks=300000",
    ])
    assert code == 0
    assert int(read_rows(out / "summary.csv")[0]["total_requests"]) > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trace_digest"] == trace_digest(trace)
    assert manifest["python"].endswith(platform.python_version())


def test_every_counter_reaches_both_output_files(tmp_path):
    """Every ``Counters`` field is a column of the written ``summary.csv``
    and ``metrics.csv``, so no new counter can be left out of either."""
    cfg = ScenarioConfig(peer_count=6, friends_per_user=3, sim_duration_ticks=300_000)
    result = Simulation(cfg, generate_trace(cfg)).run()
    cli.write_run_outputs(result, tmp_path, run_id(cfg))
    counters = {field.name for field in dataclasses.fields(Counters)}
    for name in ("summary.csv", "metrics.csv"):
        with open(tmp_path / name, newline="") as handle:
            header = next(csv.reader(handle))
        assert counters <= set(header), (name, counters - set(header))


def test_trace_past_the_duration_exits_two(tmp_path, capsys):
    cfg = ScenarioConfig(peer_count=6, friends_per_user=3, sim_duration_ticks=300_000)
    trace_path = tmp_path / "trace.txt"
    trace = generate_trace(cfg)
    save_trace(trace, trace_path)
    last = trace.ticks[-1]
    for command in ("run", "compare-strategies", "compare-caches"):
        code = main([
            command, "--out", str(tmp_path / command), "--trace", str(trace_path),
            "--set", "peer_count=6",
            "--set", "friends_per_user=3",
            "--set", f"sim_duration_ticks={last - 1}",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"tick {last}" in err and f"sim_duration_ticks={last - 1}" in err
        assert not (tmp_path / command).exists()
    # Events at exactly the duration still run.
    out = tmp_path / "at-duration"
    assert main(["run", "--out", str(out), "--trace", str(trace_path),
                 "--set", "peer_count=6", "--set", "friends_per_user=3",
                 "--set", f"sim_duration_ticks={last}"]) == 0


@pytest.mark.parametrize(
    "body,line,reason",
    [
        pytest.param("10 a LOOKUP b/wall/0\n5 a LOOKUP b/wall/0\n", 2, "timestamp 5 before 10",
                     id="time-regression"),
        pytest.param("0 b POST b/wall/0 10\n0 a POST b/wall/0 10\n", 2,
                     "'a' cannot POST under b/wall/0", id="post-not-owner"),
        pytest.param("5 a FRIENDREQ a\n", 1, "FRIENDREQ needs another user, got 'a'",
                     id="friendreq-self"),
        pytest.param("0 b POST b/wall/0 10\n5 a FRIENDREQ b/wall/0\n", 2,
                     "FRIENDREQ needs another user, got 'b/wall/0'", id="friendreq-key"),
        pytest.param(b"0 b POST b/wall/0 10\n5 a LOOKUP b/wall/\xff\n", 2,
                     "not UTF-8 (invalid start byte)", id="not-utf8"),
        # Only a newline ends a line, so the carriage return stays in the comment.
        pytest.param("0 b POST b/wall/0 10\n# c\r 5 a LOOKUP\n5 a LOOKUP b/wall/0 x y\n", 3,
                     "expected 4 or 5 fields, got 6", id="carriage-return-in-comment"),
    ],
)
def test_bad_trace_file_exits_two(tmp_path, capsys, body, line, reason):
    trace_path = tmp_path / "trace.txt"
    trace_path.write_bytes(body if isinstance(body, bytes) else body.encode())
    code = main(["run", "--out", str(tmp_path / "out"), "--trace", str(trace_path), *SMALL])
    assert code == 2
    assert capsys.readouterr().err == f"socicache: trace error: {trace_path}:{line}: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_crlf_config_and_trace_files_load(tmp_path):
    """Each line is stripped, so a CRLF file reads as its LF twin."""
    cfg = ScenarioConfig(peer_count=6, friends_per_user=2, sim_duration_ticks=300_000)
    trace = generate_trace(cfg)
    trace_path = tmp_path / "trace.txt"
    trace_path.write_bytes("".join(trace.chunks()).replace("\n", "\r\n").encode())
    config = tmp_path / "scenario.cfg"
    config.write_bytes(b"# six peers\r\npeer_count=6\r\nfriends_per_user=2\r\n"
                       b"sim_duration_ticks=300000\r\n")
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--config", str(config),
                 "--trace", str(trace_path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["trace_digest"] == trace_digest(trace)
    assert manifest["config"]["peer_count"] == "6"
    assert manifest["config"]["friends_per_user"] == "2"


def _asymmetric(self):
    return ["u00 subscribes u01 but is not a receiver"]


def _negative_counter(self):
    raise ValueError("counter dht_puts is negative")


def _past_both_caps(result):
    def patched(self):
        self.max_channels = self.cfg.strategy.n + 1
        self.max_muc_entries = self.cfg.muc_capacity + 1
        return result(self)
    return patched


def _miscounted_store(result):
    def patched(self):
        if self._socials:
            social = self._socials[0]
            social.channels.update({user: bytearray() for user in social.channels})
            social.store_items = 1
        return result(self)
    return patched


@pytest.mark.parametrize("command,runs", [("run", 1), ("compare-caches", 4)])
@pytest.mark.parametrize(
    "patch,per_run,first,social,events",
    [
        pytest.param(lambda: (Simulation, "verify_subscription_symmetry", _asymmetric),
                     1, "u00 subscribes u01 but is not a receiver", False, None, id="symmetry"),
        pytest.param(lambda: (Counters, "validate", _negative_counter),
                     1, "counter dht_puts is negative", False, None, id="counters"),
        pytest.param(lambda: (Simulation, "_result", _past_both_caps(Simulation._result)),
                     2, "max_channels 16 > n 15", False, None, id="caps"),
        # The miscount, then each of u00's emptied channels: four under the
        # run profile, three under compare-caches'.
        pytest.param(lambda: (Simulation, "_result", _miscounted_store(Simulation._result)),
                     {"run": 5, "compare-caches": 4}, "u00: counts 1 items, stores 0", True,
                     None, id="store-items"),
        # A generated trace publishes every key before any lookup, so only a
        # trace file posts a key after a subscription.
        pytest.param(lambda: (SocialCache, "on_social_update",
                              dropping_new_slots(SocialCache.on_social_update)),
                     2, "a: holds 1 items in 1 slots of b's 2", True,
                     NEW_KEYS_AFTER_SUBSCRIBING, id="lost-new-key"),
    ],
)
def test_broken_invariant_exits_one_after_writing_outputs(tmp_path, capsys, monkeypatch,
                                                          command, runs, patch, per_run,
                                                          first, social, events):
    """``social`` marks a fault in the social store, which only the
    social_only and both runs of compare-caches have.  ``per_run`` counts
    the violations of a faulty run, by command where they differ.
    ``events``, if given, are replayed from a trace file."""
    if isinstance(per_run, dict):
        per_run = per_run[command]
    monkeypatch.setattr(*patch())
    out = tmp_path / "out"
    trace = []
    if events is not None:
        trace_path = tmp_path / "trace.txt"
        trace_path.write_text("".join(event_line(ev) + "\n" for ev in events), encoding="utf-8")
        trace = ["--trace", str(trace_path)]
    code = main([command, "--out", str(out), *trace, *SMALL])
    assert code == 1
    faulty, label = runs, "none"
    if command == "run":
        label = "run"
    elif social:
        faulty, label = 2, "social_only"
    assert capsys.readouterr().err == (
        f"socicache: {faulty * per_run} invariant violations, first: {label}: {first}\n")
    assert (out / "manifest.json").exists()
    if command == "run":
        assert (out / "metrics.csv").exists() and (out / "summary.csv").exists()
    else:
        assert len(read_rows(out / "comparison.csv")) == runs
        assert all((out / row / "summary.csv").exists()
                   for row in ("none", "current_only", "social_only", "both"))


def every_key_changed() -> ScenarioConfig:
    """A config that differs from the default at every key, built without
    the key setters."""
    strategy = StrategyConfig(
        kind=Strategy.TREND, alpha=0.6, beta=0.3, n=5, m=20, update_interval=700,
        trigger=SelectionTrigger.LOOKUP_COUNT_BASED,
        lookup_weight=2.0, friend_request_weight=3.0)
    return ScenarioConfig(
        peer_count=9, friends_per_user=4, new_experiment_time_days=0.5,
        sim_duration_ticks=70_000, friend_request_phases=(100, 200),
        initial_friend_fraction=0.5, strategy=strategy, cache_setup=CacheSetup.SOCIAL_ONLY,
        current_cache=CurrentCacheConfig(ttl_ticks=30, capacity=12), seed=7, keys_per_user=3,
        payload_bytes=64, lookups_per_interaction=50.0, tier_sizes=(2, 3),
        tier_shares=(0.5, 0.3, 0.2), replication_factor=2, bootstrapping=False,
        muc_capacity=40, sample_cadence_ticks=5_000,
        dataset=DatasetStats(avg_ts_interaction_days=20.0, experiment_span_days=400.0))


@pytest.mark.parametrize(
    "profile",
    [cli.default_run_profile, cli.strategy_comparison_profile, cli.cache_comparison_profile,
     every_key_changed],
)
def test_config_round_trip(tmp_path, profile):
    cfg = profile()
    text = serialize_config(cfg)
    if profile is every_key_changed:  # so a setter that drops a write shows
        default = serialize_config(ScenarioConfig())
        assert [key for key in text if text[key] == default[key]] == []
    fresh = ScenarioConfig()
    for key, value in text.items():
        apply_setting(fresh, key, value)
    assert serialize_config(fresh) == text
    assert run_id(fresh) == run_id(cfg)
    assert set(text) == set(cli._KEYS)
    # Apart from the resolved duration and phases, every setting came back.
    fresh.sim_duration_ticks = cfg.sim_duration_ticks
    fresh.friend_request_phases = cfg.friend_request_phases
    assert fresh == cfg
