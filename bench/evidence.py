"""Memory and time evidence for the benchmark's workloads, written as
``BENCH_<label>.json`` at the repository root.

    python3 bench/evidence.py --label pr36                 # every workload, full size
    python3 bench/evidence.py --label check --size smoke --tracemalloc-passes 2 \\
        --out /tmp/BENCH_check.json

A pass goes through the phases that ``perfbench/experiment.py`` times:
generation, each run (its ``Simulation`` built and run) and the export of
every run's outputs and the comparison table.  Each pass runs in a fresh
interpreter, one after the other:

- one plain pass per workload records the wall and process time of each
  phase and ``ru_maxrss`` at the end of it;
- then ``--tracemalloc-passes`` passes under ``tracemalloc`` record each
  phase's peak of the memory traced since generation began.  These count
  Python allocations only, so the checkout's path does not move them as it
  moves ``ru_maxrss``.  A second pass in the same interpreter would read a
  little less: on CPython 3.11 the instances a run makes shrink by 8 bytes
  a pass for about nine passes, so each pass gets its own.

The workloads and their configs come from ``perfbench/workloads.py``, loaded
by path and never edited.  The file also records each run's counters and
summary, the SHA-256 of every output file and of the trace, the
interpreter, ``nproc``, ``git rev-parse HEAD`` and the paths that
``git status`` shows as changed since that commit.  It judges nothing:
``perfbench/run.py`` and the bounds of ``BENCHMARK.json`` judge a claim.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from socicache import cli  # noqa: E402
from socicache.sim import Simulation  # noqa: E402
from socicache.workload import generate_trace, trace_digest  # noqa: E402

SEED = 42  # the benchmark's default seed
RUN_ID = "evidence"


def load_workloads():
    """``perfbench/workloads.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # ``dataclass`` looks its class's module up in ``sys.modules``.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def plan(name: str, size: str) -> tuple:
    """The workload's generation config, its runs and its table writer."""
    wl = workloads.WORKLOADS[name]
    base = workloads.base_config(wl, SEED, size)
    return base, workloads.run_configs(wl, base), cli.COMMANDS[wl.shape].table_writer


def run_phases(planned: tuple, out: Path, mark) -> tuple:
    """The phases of a planned workload, calling ``mark(phase)`` as each
    one ends; returns the trace and the run results."""
    base, runs, table_writer = planned
    trace = generate_trace(base)
    mark("generate")
    results = []
    for label, cfg in runs:
        results.append(Simulation(cfg, trace, label).run())
        mark(f"run:{label}")
    for result in results:
        cli.write_run_outputs(result, out if table_writer is None else out / result.label,
                              RUN_ID)
    if table_writer is not None:
        table_writer(results, out)
    mark("export")
    return trace, results


def plain_pass(name: str, size: str) -> dict:
    """The wall and process time of each phase and ``ru_maxrss`` at its
    end, with the events, each run's counters and summary, and the digests
    of the trace and of every output file."""
    phases = []
    clocks = [time.perf_counter(), time.process_time()]

    def mark(phase: str) -> None:
        now = [time.perf_counter(), time.process_time()]
        phases.append({
            "phase": phase,
            "wall_s": now[0] - clocks[0],
            "cpu_s": now[1] - clocks[1],
            "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        clocks[:] = time.perf_counter(), time.process_time()

    with tempfile.TemporaryDirectory() as tmp:
        trace, results = run_phases(plan(name, size), Path(tmp), mark)
        outputs = {path.relative_to(tmp).as_posix(): sha256(path.read_bytes()).hexdigest()
                   for path in sorted(Path(tmp).rglob("*")) if path.is_file()}
    return {
        "events": len(trace),
        "trace_digest": trace_digest(trace),
        "phases": phases,
        "runs": {result.label: {"counters": dataclasses.asdict(result.counters),
                                "summary": result.summary} for result in results},
        "outputs": outputs,
    }


def tracemalloc_pass(name: str, size: str) -> dict[str, int]:
    """Each phase's peak of the bytes traced since generation began."""
    peaks = {}

    def mark(phase: str) -> None:
        peaks[phase] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()

    planned = plan(name, size)  # the configs are made before tracing starts
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            run_phases(planned, Path(tmp), mark)
        finally:
            tracemalloc.stop()
    return peaks


PASSES = {"plain": plain_pass, "tracemalloc": tracemalloc_pass}


def git(*args: str) -> str | None:
    """The output of ``git <args>`` in the checkout, or None outside one."""
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--tracemalloc-passes", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write here, not at the repository root")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="make one pass over this workload in this interpreter "
                             "and print what it records")
    parser.add_argument("--pass", dest="kind", choices=sorted(PASSES), default="plain")
    args = parser.parse_args(argv)
    if args.tracemalloc_passes < 1:
        parser.error("--tracemalloc-passes must be at least 1")

    if args.workload:
        print(json.dumps(PASSES[args.kind](args.workload, args.size)))
        return 0

    def fresh_pass(name: str, kind: str) -> dict:
        proc = subprocess.run([sys.executable, __file__, "--label", args.label, "--size",
                               args.size, "--workload", name, "--pass", kind],
                              stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(proc.stdout)

    records = {}
    for name in sorted(workloads.WORKLOADS):
        records[name] = fresh_pass(name, "plain")
        records[name]["tracemalloc_peak_bytes"] = [
            fresh_pass(name, "tracemalloc") for _ in range(args.tracemalloc_passes)]
    evidence = {
        "label": args.label,
        "size": args.size,
        "seed": SEED,
        "commit": (git("rev-parse", "HEAD") or "").strip() or None,
        # Paths that differ from that commit: what was measured beyond it.
        "uncommitted": sorted(line[3:] for line in
                              (git("status", "--porcelain") or "").splitlines()),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "workloads": records,
    }
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(evidence, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
