"""Command-line experiment runner.

Three commands: ``run`` executes one scenario, ``compare-strategies`` runs
the same trace under each selection strategy (social cache only), and
``compare-caches`` runs it under each cache setup (social-score strategy).
Config files are flat ``key=value`` text whose keys are the fields of
``ScenarioConfig``, dotted for a section; precedence is command line
``--set`` over file values over built-in defaults.

Exit codes: 0 success, 1 runtime failure or a broken run invariant (the
outputs are written first), 2 a bad config key, value or file, or a bad
trace file.
"""
from __future__ import annotations

import argparse
import enum
import hashlib
import json
import math
import os
import platform
import sys
import types
from dataclasses import is_dataclass, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, get_args, get_origin, get_type_hints

from .metrics import export_rows_csv
from .sim import RunResult, cache_runs, run_all, strategy_runs
from .workload import (
    CacheSetup,
    ConfigError,
    LineError,
    ScenarioConfig,
    input_lines,
    load_trace,
)

ENV_OUT_DIR = "SOCICACHE_OUT"
DEFAULT_OUT_DIR = "socicache_out"


# -- config keys -------------------------------------------------------------

def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    """Every float key's parser: NaN and the infinities would pass each
    range check in ``validate``, so they are refused here."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


class _Key(NamedTuple):
    """One config key: how to read and write it on a config, parse its text
    and format its value."""

    get: Callable[[ScenarioConfig], object]
    set: Callable[[ScenarioConfig, object], None]
    parse: Callable[[str], object]
    fmt: Callable[[object], str]


# The keys are the fields of ScenarioConfig, ``section.name`` for a field of
# a section, but for these three names.
_RENAMED = {
    "strategy.update_interval": "strategy.update_interval_ticks",
    "strategy.lookup_weight": "strategy.weight.lookup",
    "strategy.friend_request_weight": "strategy.weight.friend_request",
}
# Fields whose default is derived: the derived attribute is serialized.
_RESOLVED = {"sim_duration_ticks": "duration", "friend_request_phases": "phases"}


def _codec(tp: object) -> tuple[Callable[[str], object], Callable[[object], str]]:
    """The parser and formatter of a field of type ``tp``.  A type with no
    rule raises TypeError when this module is imported, so no field can
    drop out of ``serialize_config`` and ``run_id``."""
    args = get_args(tp)
    if tp is bool:
        return _parse_bool, lambda value: str(value).lower()
    if tp is int:
        return int, str
    if tp is float:
        return _parse_float, repr
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return tp, lambda member: member.value
    if get_origin(tp) is tuple and args[1:] == (Ellipsis,):
        parse, fmt = _codec(args[0])
        return (lambda raw: tuple(map(parse, raw.split(","))) if raw.strip() else (),
                lambda values: ",".join(map(fmt, values)))
    if isinstance(tp, types.UnionType) and args[1:] == (type(None),):
        return _codec(args[0])
    raise TypeError(f"no config key rule for type {tp!r}")


def _set(cfg: ScenarioConfig, value: object, path: str) -> None:
    """Set the config field ``path``; a frozen section is replaced by a
    copy that holds the value."""
    section, _, name = path.rpartition(".")
    if section:
        value, name = replace(getattr(cfg, section), **{name: value}), section
    setattr(cfg, name, value)


def _leaf_fields() -> Iterator[tuple[str, object]]:
    """The path and type of each field of ScenarioConfig and its sections."""
    for name, tp in get_type_hints(ScenarioConfig).items():
        if is_dataclass(tp):
            for field, field_tp in get_type_hints(tp).items():
                yield f"{name}.{field}", field_tp
        else:
            yield name, tp


_KEYS: dict[str, _Key] = {
    _RENAMED.get(path, path): _Key(attrgetter(_RESOLVED.get(path, path)),
                                   partial(_set, path=path), *_codec(tp))
    for path, tp in _leaf_fields()
}


def apply_setting(cfg: ScenarioConfig, key: str, value: str) -> None:
    entry = _KEYS.get(key)
    if entry is None:
        raise ConfigError(f"unknown config key: {key}")
    try:
        entry.set(cfg, entry.parse(value))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_file(path: Path) -> dict[str, tuple[int, str]]:
    """Each key of the file at ``path`` with its line number and value; a
    key given twice is a LineError that names both lines."""
    items: dict[str, tuple[int, str]] = {}
    try:
        for line_no, line in input_lines(path):
            key, sep, value = line.partition("=")
            if not sep:
                raise LineError(line_no, f"expected key=value, got {line!r}")
            key = key.strip()
            if key in items:
                raise LineError(line_no, f"{key} is already set on line {items[key][0]}")
            items[key] = (line_no, value.strip())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return items


def serialize_config(cfg: ScenarioConfig) -> dict[str, str]:
    """Resolved config as the same flat keys the parser accepts."""
    return {key: entry.fmt(entry.get(cfg)) for key, entry in _KEYS.items()}


def run_id(*cfgs: ScenarioConfig) -> str:
    """Identity of the resolved configs a command runs, in run order: a
    hash of each one's sorted flat keys."""
    canonical = "\n".join(f"{k}={v}" for cfg in cfgs
                          for k, v in sorted(serialize_config(cfg).items()))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# -- command plumbing ---------------------------------------------------------

def default_run_profile() -> ScenarioConfig:
    return ScenarioConfig()


def strategy_comparison_profile() -> ScenarioConfig:
    return ScenarioConfig(new_experiment_time_days=0.25, cache_setup=CacheSetup.SOCIAL_ONLY)


def cache_comparison_profile() -> ScenarioConfig:
    return ScenarioConfig(new_experiment_time_days=2.0, cache_setup=CacheSetup.BOTH)


def resolve_config(args: argparse.Namespace,
                   profile: Callable[[], ScenarioConfig]) -> tuple[ScenarioConfig, dict[str, int]]:
    """The profile with the config file, ``--set`` and ``--seed`` applied,
    and the file line of each key the file set and no ``--set`` replaced."""
    cfg = profile()
    lines: dict[str, int] = {}
    if args.config is not None:
        try:
            for key, (line_no, value) in parse_config_file(args.config).items():
                try:
                    apply_setting(cfg, key, value)
                except ConfigError as exc:
                    raise LineError(line_no, str(exc)) from exc
                lines[key] = line_no
        except LineError as exc:
            raise ConfigError(f"{args.config}:{exc.line_no}: {exc.reason}") from exc
    for override in args.overrides:
        key, sep, value = override.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
        apply_setting(cfg, key.strip(), value.strip())
        lines.pop(key.strip(), None)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg, lines


class TraceError(ValueError):
    """A ``--trace`` file that cannot be read or run; the message names it."""


def write_run_outputs(result: RunResult, out_dir: Path, run_id: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    result.ledger.export_csv(out_dir / "metrics.csv")
    export_rows_csv(out_dir / "summary.csv", ("run_id", *result.summary),
                    [(run_id, *result.summary.values())])


def _print_summary_line(result: RunResult) -> None:
    ratio = result.summary["cache_hit_ratio"]
    ratio_text = "undefined" if ratio is None else f"{ratio:.4f}"
    print(
        f"{result.label}: requests={result.counters.total_requests} "
        f"cache={result.counters.cache_replies} "
        f"overlay={result.counters.overlay_replies} hit_ratio={ratio_text}"
    )


def _check_invariants(results: list[RunResult]) -> int:
    """0 if every run keeps the paper's invariants (consistency, symmetry,
    counters, caps), else 1 after their count and the first go to stderr."""
    violations = []
    for result in results:
        sim, cfg = result.simulation, result.config
        found = sim.verify_consistency() + sim.verify_subscription_symmetry()
        try:
            result.counters.validate()
        except ValueError as exc:
            found.append(str(exc))
        if sim.max_channels > cfg.strategy.n:
            found.append(f"max_channels {sim.max_channels} > n {cfg.strategy.n}")
        if sim.max_muc_entries > cfg.muc_capacity:
            found.append(f"max_muc_entries {sim.max_muc_entries} > {cfg.muc_capacity}")
        violations += [f"{result.label}: {violation}" for violation in found]
    if not violations:
        return 0
    print(f"socicache: {len(violations)} invariant violations, first: {violations[0]}",
          file=sys.stderr)
    return 1


def _write_strategy_table(results: list[RunResult], out_dir: Path) -> None:
    columns = ("strategy", "cache_replies", "overlay_replies", "total_replies", "hit_ratio")
    rows = []
    for result in results:
        s, c = result.summary, result.counters
        rows.append((s["strategy"], c.cache_replies, c.overlay_replies, c.answered,
                     s["cache_hit_ratio"]))
    export_rows_csv(out_dir / "comparison.csv", columns, rows)


def _write_cache_table(results: list[RunResult], out_dir: Path) -> None:
    columns = (
        "cache_setup",
        "current_replies",
        "social_replies",
        "overlay_replies",
        "total_replies",
        "hit_ratio",
        "current_items",
        "social_items",
        "total_items",
        "responses_per_item",
    )
    rows = []
    for result in results:
        s, c = result.summary, result.counters
        rows.append((s["cache_setup"], c.current_hits, c.social_hits, c.overlay_replies,
                     c.answered, s["cache_hit_ratio"], s["current_cache_items"],
                     s["social_cache_items"], s["total_cache_items"], s["responses_per_item"]))
    export_rows_csv(out_dir / "comparison.csv", columns, rows)


class _Command(NamedTuple):
    """What a command runs: its config profile, the plan of runs made
    from the resolved config, and the comparison table of a comparison."""

    help: str
    profile: Callable[[], ScenarioConfig]
    plan: Callable[[ScenarioConfig], list[tuple[str, ScenarioConfig]]]
    table_writer: Callable[[list[RunResult], Path], None] | None = None


COMMANDS = {
    "run": _Command("run one scenario", default_run_profile, lambda cfg: [("run", cfg)]),
    "compare-strategies": _Command("run the three selection strategies on one trace",
                                   strategy_comparison_profile, strategy_runs,
                                   _write_strategy_table),
    "compare-caches": _Command("run the four cache setups on one trace",
                               cache_comparison_profile, cache_runs, _write_cache_table),
}


def _execute(args: argparse.Namespace, command: _Command) -> int:
    """Run the command's plan, write its outputs (each run's under
    ``<out>/<label>`` beside a comparison table) and a manifest of the
    resolved config, the plan's ``run_id``, the trace digest and the
    interpreter, then check every run's invariants.  A config error of the
    plan names the file line of each key its check read; a ``--trace``
    error names the file, and its line if one is at fault."""
    cfg, lines = resolve_config(args, command.profile)
    runs = command.plan(cfg)
    table_writer = command.table_writer
    out_dir = args.out or Path(os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR))
    runs_id = run_id(*(run_cfg for _, run_cfg in runs))
    try:
        trace = None if args.trace is None else load_trace(args.trace)
    except OSError as exc:
        raise TraceError(f"{args.trace}: {exc.strerror}") from exc
    except LineError as exc:
        raise TraceError(f"{args.trace}:{exc.line_no}: {exc.reason}") from exc
    try:
        results = run_all(runs, trace)
    except ConfigError as exc:
        keys = [_RENAMED.get(path, path) for path in exc.keys]
        where = sorted(lines[key] for key in keys if key in lines)
        raise ConfigError("".join(f"{args.config}:{n}: " for n in where) + str(exc)) from exc
    for result in results:
        run_dir = out_dir if table_writer is None else out_dir / result.label
        write_run_outputs(result, run_dir, runs_id)
        _print_summary_line(result)
    if table_writer is not None:
        table_writer(results, out_dir)
    manifest = {
        "run_id": runs_id,
        "seed": cfg.seed,
        "config_path": str(args.config) if args.config else None,
        "output_dir": str(out_dir),
        "config": serialize_config(cfg),
        "trace_digest": results[0].trace_digest,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return _check_invariants(results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socicache",
        description="Simulate social + TTL/LRU caching over a DHT-backed social network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", type=Path, default=None, help="key=value config file")
        sp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        sp.add_argument("--out", type=Path, default=None,
                        help=f"output directory (default ${ENV_OUT_DIR} or ./{DEFAULT_OUT_DIR})")
        sp.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key (repeatable)")
        sp.add_argument("--trace", type=Path, default=None,
                        help="replay a trace file instead of generating one")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _execute(args, COMMANDS[args.command])
    except ConfigError as exc:
        print(f"socicache: config error: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"socicache: trace error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive runtime guard
        print(f"socicache: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
