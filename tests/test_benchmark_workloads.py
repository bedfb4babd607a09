"""The benchmark (perfbench/workloads.py) builds its own configs and list of
runs for each workload.  If they drifted from the CLI's, the benchmark would
time runs that no command makes, so this checks, for every workload and
size, that they equal what ``socicache <shape> --seed 42`` resolves and
plans with the workload's overrides given as ``--set``."""
import importlib.util
import sys
from pathlib import Path

import pytest

from socicache import cli

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # ``dataclass`` looks its class's module up in ``sys.modules``.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads_module()


@pytest.mark.parametrize("size", ["full", "smoke"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_runs_what_the_cli_runs(name, size):
    wl = workloads.WORKLOADS[name]
    sets = [f"--set={key}={cli._KEYS[key].fmt(value)}" for key, value in wl.sizes[size].items()]
    args = cli.build_parser().parse_args([wl.shape, "--seed", "42", *sets])
    command = cli.COMMANDS[wl.shape]
    cfg, _ = cli.resolve_config(args, command.profile)
    planned = command.plan(cfg)
    assert workloads.run_configs(wl, workloads.base_config(wl, 42, size)) == planned
