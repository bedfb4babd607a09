"""Fast smoke check of the benchmark itself, at the seconds-long smoke size.

For every workload and both modes it checks that the result line names
exactly the metrics BENCHMARK.json declares, with the declared units, that
the correctness gate ran and passed against the recorded smoke digests, and
that the traced run wrote spans whose parents exist.  It then gates the
untraced repetitions again against wrong digests and checks that every run
is counted as failed.

    python3 perfbench/smoke.py        # exit 0 when every check passes
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

from run import DEFAULT_SEED, OUT, ROOT, gate, load_expected, measure


def bench(workload: str, trace: int) -> tuple[str, dict]:
    """``measure`` at the smoke size; its printed report and its result."""
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        result = measure(workload, DEFAULT_SEED, 1, bool(trace), "smoke")
    return report.getvalue(), result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures: list[str] = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{wl} --trace {trace}"
            stdout, result = bench(wl, trace)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{where}: result keys {sorted(result)}")
            units = {m["name"]: m["unit"] for m in declared[trace]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            check(printed == units, f"{where}: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(units) - set(printed))}, "
                  f"extra {sorted(set(printed) - set(units))}, "
                  f"units {[n for n in units if n in printed and printed[n] != units[n]]}")
            check(all(f"\n{name} " in "\n" + stdout for name in units),
                  f"{where}: not every metric printed by name")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where}: gate failed: {result}")
            check("(matches recorded)" in stdout, f"{where}: digest not checked against record")
            if trace:
                spans = json.loads((OUT / f"{wl}-seed{DEFAULT_SEED}-smoke-spans.json").read_text())["spans"]
                ids = {s["id"] for s in spans}
                check(bool(spans) and all(s["parent"] is None or s["parent"] in ids
                                          for s in spans), f"{where}: broken span tree")
                check({"workload", "run", "selection_round", "export"}
                      <= {s["name"].split(".")[-1] for s in spans},
                      f"{where}: missing span kinds")

        record = OUT / f"{wl}-seed{DEFAULT_SEED}-smoke-trace0.json"
        reps = json.loads(record.read_text())["repetitions"]["untraced"]
        recorded = load_expected("smoke", wl)
        zero = "0" * 64
        wrong = [{**recorded, "runs": {label: zero for label in recorded["runs"]}}]
        if "comparison" in recorded:
            wrong.append({**recorded, "comparison": zero})
        for expected in wrong:
            attempted, failed, _ = gate(reps, expected)
            check(failed == attempted >= 1, f"{wl}: gate accepted wrong digests {expected}")

    for message in failures:
        print(f"FAIL {message}")
    print(f"smoke: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
