"""socicache benchmark: runs a workload for a fixed time and prints every
metric by name with its unit, then one JSON result line.

    python3 perfbench/run.py --workload caches-read --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, default seed

Each repetition of the workload runs in a fresh interpreter (``rep.py``),
one at a time, until the repetition boundary nearest to ``--seconds``;
every time is the median over the repetitions.  End-to-end times are
host-normalised (see ``hostspeed.py``); the times as measured are printed
next to them.  ``--trace 1`` alternates an untraced and a traced repetition
and reports the per-layer breakdown plus the tracing overhead.  Every run of
every repetition passes the correctness gate (invariants, determinism across
repetitions, and the digests recorded in ``expected.json`` for the default
seed) or counts as failed.  On the host measured a repetition takes 10-34 s,
so at ``--seconds 20`` an untraced run is mostly one repetition; the check
across repetitions then runs only with ``--trace 1``, which compares the
traced repetition with the untraced one.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 42  # ScenarioConfig's default seed; expected.json records it

# A repetition is not started once this much of the process's 180 s limit
# is gone.
BUDGET_S = 150.0
EXTRA_SETUPS = 2
NPROC = len(os.sched_getaffinity(0))
# Calls per run printed by --trace 1 (the totals are summed over runs).
RUN_COUNTS = ("peer.handle_request", "peer.add_content", "social_cache.run_selection",
              "social_cache.rank_users", "social_cache.social_score", "overlay.dispatch")

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "sim_s": "s", "events_per_s": "1/s", "peak_rss_mib": "MiB",
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "slowdown")):
        return "ratio"
    if name.endswith(("_mean", "per_rank")):
        return "per_call"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def run_rep(workload: str, seed: int, size: str, mode: str, timeout: float) -> dict:
    """One fresh interpreter running ``rep.py``; mode is "plain", "traced"
    or "setup" (one more set-up only)."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="rep-", dir=OUT))
    try:
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
               "--size", size, "--workdir", str(workdir)]
        if mode != "plain":
            cmd.append("--traced" if mode == "traced" else "--setup-only")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: repetition of {workload} exited {proc.returncode}")
        if mode == "traced":
            shutil.move(workdir / "trace-spans.json",
                        OUT / f"{workload}-seed{seed}-{size}-spans.json")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_expected(size: str, workload: str) -> dict | None:
    """The digests recorded in ``expected.json`` for the default seed."""
    recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return recorded.get(size, {}).get(workload)


def record_of(rep: dict) -> dict:
    """A repetition's digests in the form ``expected.json`` records them."""
    record = {"runs": dict(zip(rep["labels"], rep["run_digests"]))}
    if rep["comparison_digest"] is not None:
        record["comparison"] = rep["comparison_digest"]
    return record


def gate(reps: list[dict], expected: dict | None) -> tuple[int, int, list[str]]:
    """(runs attempted, runs failed, messages) over every repetition.  The
    comparison table is built from every run, so a wrong one fails them all."""
    first = reps[0]
    attempted = failed = 0
    messages = []
    for i, rep in enumerate(reps):
        shared = list(rep["workload_problems"])
        table = rep["comparison_digest"]
        if table != first["comparison_digest"]:
            shared.append("comparison.csv differs from the first repetition")
        if expected is not None and expected.get("comparison") != table:
            shared.append(f"comparison.csv digest {str(table)[:16]} != recorded "
                          f"{str(expected.get('comparison'))[:16]}")
        for j, label in enumerate(rep["labels"]):
            attempted += 1
            problems = list(rep["run_problems"][j]) + shared
            digest = rep["run_digests"][j]
            if digest != first["run_digests"][j]:
                problems.append("output differs from the first repetition")
            if expected is not None and expected["runs"].get(label) != digest:
                problems.append(f"digest {digest[:16]} != recorded "
                                f"{str(expected['runs'].get(label))[:16]}")
            if problems:
                failed += 1
                messages.extend(f"rep {i} run {label}: {p}" for p in problems)
    return attempted, failed, messages


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One workload for ``seconds``: prints its report and returns the result.
    ``size`` "smoke" is the seconds-long version ``smoke.py`` runs."""
    start = time.perf_counter()

    def rep(mode: str) -> dict:
        return run_rep(workload, seed, size, mode, BUDGET_S + 25 - (time.perf_counter() - start))

    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(rep("plain"))
        if trace:
            traced.append(rep("traced"))
        # Stop at the repetition boundary nearest to ``seconds``.
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(plain)
        if elapsed + per_rep / 2 >= seconds or elapsed + per_rep > BUDGET_S:
            break
    # Set-up is short, so it is sampled EXTRA_SETUPS more times per run, each
    # again in a fresh interpreter.
    extra = [] if trace else [rep("setup") for _ in range(EXTRA_SETUPS)]
    setups = [r["setup_s"] for r in extra]
    raw_setups = [r["raw_setup_s"] for r in plain + extra]

    reps = plain + traced
    expected = load_expected(size, workload) if seed == DEFAULT_SEED else None
    attempted, failed, messages = gate(reps, expected)

    def median(key: str, source: list[dict]) -> float:
        return statistics.median(r[key] for r in source)

    print(f"# workload {workload} seed {seed} size {size} trace {int(trace)}: "
          f"{len(plain)} untraced + {len(traced)} traced repetitions in "
          f"{time.perf_counter() - start:.1f} s")
    print(f"# host python {platform.python_version()} nproc {NPROC} "
          f"host.ref_s median {median('ref_s', reps):.4f} s")
    print(f"# trace events {plain[0]['events']}, runs per repetition "
          f"{len(plain[0]['labels'])} ({', '.join(plain[0]['labels'])})")
    if expected is None:
        status = "not recorded for this seed"
    else:
        status = "matches recorded" if expected == record_of(plain[0]) else "MISMATCH"
    print(f"# digest {plain[0]['digest']} ({status})")
    # After an intended output change, this entry replaces the recorded one.
    print(f"# expected.json entry: {json.dumps(record_of(plain[0]), sort_keys=True)}")
    for message in messages:
        print(f"# gate failure: {message}")
    print(f"# gate: {attempted} runs checked, failed_runs {failed}")

    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        for r in traced[1:]:
            differ = [name for name, value in r["layers"].items()
                      if unit_of(name) == "count" and value != traced[0]["layers"][name]]
            if differ:
                failed = min(attempted, failed + len(r["labels"]))
                print(f"# gate failure: traced counts not deterministic: {', '.join(differ)}")
        for label, counts in traced[0]["run_counts"].items():
            print(f"# run {label}: " + ", ".join(
                f"{name}={counts[name]}" for name in RUN_COUNTS if name in counts))
        layers["host.ref_s"] = median("ref_s", reps)
        layers["host.slowdown"] = median("slowdown", plain)
        layers["trace.overhead_s"] = median("raw_wall_s", traced) - median("raw_wall_s", plain)
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            # setup_s pools the set-up of every repetition with the extra ones.
            samples = [r[name] for r in plain]
            if name == "setup_s":
                samples += setups
            metrics[name] = (statistics.median(samples), unit)
    if not trace:
        print(f"# host-normalised times; as measured: wall_s {median('raw_wall_s', plain):.4f}"
              f" s, setup_s {statistics.median(raw_setups):.4f} s, sim_s "
              f"{median('raw_sim_s', plain):.4f} s; host slowdown {median('slowdown', plain):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{workload}-seed{seed}-{size}-trace{int(trace)}.json"
    record_path.write_text(json.dumps({
        "python": platform.python_version(), "nproc": NPROC,
        "digest": plain[0]["digest"], "gate_messages": messages,
        "repetitions": {"untraced": plain, "traced": traced}, "result": result,
    }, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="socicache benchmark")
    parser.add_argument("--workload", default=None,
                        help="workload name (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "socicache" / "__init__.py").is_file():
        print(f"perfbench: no socicache sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
    if args.workload is None:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = measure(name, seed, seconds, bool(args.trace))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][metric if len(names) == 1 else f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
