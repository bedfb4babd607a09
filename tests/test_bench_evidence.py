"""bench/evidence.py at the smoke size: the file it writes, and tracemalloc
peaks that two fresh interpreters reproduce."""
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from socicache.metrics import Counters

ROOT = Path(__file__).resolve().parent.parent


def test_evidence_file_holds_every_workload_and_reproducible_peaks(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "evidence.py"), "--label", "smoke",
                    "--size", "smoke", "--tracemalloc-passes", "2", "--out", str(out)],
                   check=True, timeout=120)
    evidence = json.loads(out.read_text(encoding="utf-8"))
    assert set(evidence) == {"label", "size", "seed", "commit", "uncommitted", "python",
                             "nproc", "workloads"}
    assert (evidence["label"], evidence["size"], evidence["seed"]) == ("smoke", "smoke", 42)
    assert evidence["python"].startswith("CPython ") and evidence["nproc"] >= 1
    assert set(evidence["workloads"]) == {"caches-read", "fanout-2k", "select-2d"}
    for name, record in evidence["workloads"].items():
        assert set(record) == {"events", "trace_digest", "phases", "runs", "outputs",
                               "tracemalloc_peak_bytes"}, name
        names = ["generate", *(f"run:{label}" for label in record["runs"]), "export"]
        assert [phase["phase"] for phase in record["phases"]] == names
        for phase in record["phases"]:
            assert set(phase) == {"phase", "wall_s", "cpu_s", "maxrss_mib"}
            assert phase["wall_s"] >= 0 and phase["cpu_s"] >= 0 and phase["maxrss_mib"] > 0
        for label, run in record["runs"].items():
            counters = run["counters"]
            assert set(counters) == {f.name for f in fields(Counters)}
            assert all(run["summary"][key] == value for key, value in counters.items()), label
            assert run["summary"]["trace_digest"] == record["trace_digest"][:12]
        assert all(len(digest) == 64 for digest in record["outputs"].values())
        assert any(path.endswith("summary.csv") for path in record["outputs"])
        # Each tracemalloc pass runs in its own interpreter.  Generation and
        # the runs peak at the same byte; ``open`` leaves a varying number of
        # its 67-byte path buffers alive, so the export peak may move by a
        # few hundred bytes.
        first, second = record["tracemalloc_peak_bytes"]
        assert list(first) == list(second) == names
        assert {k: v for k, v in first.items() if k != "export"} == \
            {k: v for k, v in second.items() if k != "export"}, name
        assert abs(first["export"] - second["export"]) < 1024, name
        assert all(peak > 0 for peak in first.values())
