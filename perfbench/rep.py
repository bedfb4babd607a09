"""Run one repetition of a workload in this (fresh) interpreter and print its
measurements as one JSON line.  ``run.py`` starts one process per
repetition, so peak RSS and warm state never carry over.

    python3 perfbench/rep.py --workload caches-read --seed 42 --workdir DIR
                             [--traced | --setup-only]
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from socicache.workload import load_trace, save_trace, trace_digest  # noqa: E402

from experiment import Repetition, run_repetition, time_setup  # noqa: E402
from hostspeed import HostProbe  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference_loop() -> float:
    """A fixed pure-Python loop (dict and string work, like the simulator's)
    timed in the measuring process, so a slow host can be told apart from
    slow code."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(400_000):
        k = i & 1023
        table[k] = table.get(k, 0) + i
        acc += len(str(i))
    return time.perf_counter() - start


def ratio(num: float, den: float) -> float:
    """``num / den``; 0 when the layer saw no work."""
    return num / den if den else 0.0


def layer_metrics(t: Tracer, rep: Repetition, save_s: float, load_s: float) -> dict:
    notes = t.notes
    summed = {key: sum(s[key] or 0 for s in rep.summaries)
              for key in ("subscriptions_sent", "unsubscriptions_sent", "bootstrap_dumps")}
    lookups = t.count("social_cache.lookup")
    rank_calls = t.count("social_cache.rank_users")
    selection_calls = t.count("social_cache.run_selection")
    publish_calls = t.count("social_cache.publish")
    bootstraps = t.count("social_cache.on_bootstrap")
    bootstrap_items = notes["social_cache.bootstrap_items"]
    updates = t.count("social_cache.on_social_update")
    info_lookups = t.count("info_cache.lookup")
    gets = t.count("overlay.get")
    m = {
        "workload.generate_s": rep.setup_windows[0][1] - rep.setup_windows[0][0],
        "workload.digest_s": t.total("workload.trace_digest"),
        "workload.events": rep.events,
        "workload.lookup_share": ratio(rep.lookups, rep.events),
        "workload.post_share": ratio(rep.posts, rep.events),
        "workload.save_s": save_s,
        "workload.load_s": load_s,
        "sim.init_s": sum(end - start for start, end in rep.setup_windows[1:]),
        "sim.loop_self_s": t.self_time("sim.run") + t.self_time("sim.apply_event"),
        "sim.selection_rounds": t.count("sim.selection_round"),
        "sim.samples": t.count("sim.sample"),
        "peer.requests": t.count("peer.handle_request"),
        "peer.request_self_s": t.self_time("peer.handle_request"),
        "peer.posts": t.count("peer.add_content"),
        "peer.post_self_s": t.self_time("peer.add_content"),
        "peer.friend_requests": t.count("peer.send_friend_request"),
        "social_cache.lookup_s": t.total("social_cache.lookup"),
        "social_cache.hit_ratio": ratio(notes["social_cache.lookup_hits"], lookups),
        "social_cache.track_calls": t.count("social_cache.track"),
        "social_cache.track_self_s": t.self_time("social_cache.track"),
        "social_cache.muc_evictions": notes["social_cache.muc_evictions"],
        "social_cache.selection_calls": selection_calls,
        "social_cache.selection_s": t.total("social_cache.run_selection"),
        "social_cache.rank_calls": rank_calls,
        "social_cache.rank_s": t.total("social_cache.rank_users"),
        "social_cache.score_calls": t.count("social_cache.social_score"),
        "social_cache.scored_per_rank": ratio(notes["social_cache.ranked_users"], rank_calls),
        "social_cache.diff_nonempty_ratio": ratio(notes["social_cache.diff_nonempty"],
                                                  selection_calls),
        "social_cache.subscriptions": summed["subscriptions_sent"],
        "social_cache.unsubscriptions": summed["unsubscriptions_sent"],
        "social_cache.publish_calls": publish_calls,
        "social_cache.publish_s": t.total("social_cache.publish"),
        "social_cache.fanout_mean": ratio(notes["overlay.messages.social_update"], publish_calls),
        "social_cache.bootstrap_dumps": summed["bootstrap_dumps"],
        "social_cache.bootstrap_items_mean": ratio(bootstrap_items, bootstraps),
        "social_cache.bootstrap_s": t.total("social_cache.on_bootstrap"),
        "social_cache.bootstrap_accept_ratio": ratio(notes["social_cache.bootstrap_accepted"],
                                                     bootstrap_items),
        "social_cache.update_accept_ratio": ratio(notes["social_cache.updates_accepted"], updates),
        "info_cache.lookups": info_lookups,
        "info_cache.lookup_s": t.total("info_cache.lookup"),
        "info_cache.hit_ratio": ratio(notes["info_cache.hits"], info_lookups),
        "info_cache.inserts": t.count("info_cache.insert"),
        "info_cache.insert_s": t.total("info_cache.insert"),
        "info_cache.evictions": notes["info_cache.evictions"],
        "overlay.gets": gets,
        "overlay.get_s": t.total("overlay.get"),
        "overlay.get_hit_ratio": ratio(notes["overlay.get_hits"], gets),
        "overlay.puts": t.count("overlay.put"),
        "overlay.put_s": t.total("overlay.put"),
        "overlay.dispatches": t.count("overlay.dispatch"),
        "overlay.dispatch_self_s": t.self_time("overlay.dispatch"),
        "metrics.record_sample_s": t.total("metrics.record_sample"),
        "metrics.export_s": t.total("metrics.export_csv"),
        "metrics.export_bytes": rep.export_bytes,
        "cli.write_outputs_s": sum(rep.write_s),
    }
    for kind in ("subscribe", "unsubscribe", "social_update", "bootstrap_dump", "system_notice"):
        m[f"overlay.messages.{kind}"] = notes[f"overlay.messages.{kind}"]
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="only time one more set-up of the workload")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if args.setup_only:
        with HostProbe() as probe:
            window = time_setup(wl, args.seed, args.size)
        print(json.dumps({"setup_s": probe.normalise([window]),
                          "raw_setup_s": window[1] - window[0]}))
        return 0
    out = {"ref_s": reference_loop()}
    problems: list[str] = []
    if args.traced:
        tracer = Tracer()
        instrument(tracer)
        rep = run_repetition(wl, args.seed, args.size, args.workdir, tracer)
        tracer.uninstall()
        # Trace-file round trip: the --trace replay path, timed on its own.
        path = args.workdir / "trace.txt"
        start = time.perf_counter()
        save_trace(rep.trace, path)
        save_s = time.perf_counter() - start
        start = time.perf_counter()
        loaded = load_trace(path)
        load_s = time.perf_counter() - start
        if trace_digest(loaded) != trace_digest(rep.trace):
            problems.append("trace file round trip changed the trace digest")
        tracer.dump(args.workdir / "trace-spans.json")
        out.update(raw_wall_s=rep.wall_s, layers=layer_metrics(tracer, rep, save_s, load_s),
                   run_counts=rep.run_counts)
    else:
        with HostProbe() as probe:
            rep = run_repetition(wl, args.seed, args.size, args.workdir)
        sim_s = probe.normalise(rep.run_windows)
        out.update(
            wall_s=probe.normalise([rep.wall_window]),
            setup_s=probe.normalise(rep.setup_windows),
            sim_s=sim_s,
            events_per_s=rep.events * len(rep.run_windows) / sim_s,
            raw_wall_s=rep.wall_s,
            raw_setup_s=rep.setup_s,
            raw_sim_s=rep.sim_s,
            slowdown=probe.slowdown(*rep.wall_window),
        )
    out.update(
        peak_rss_mib=rep.peak_rss_mib,
        events=rep.events,
        labels=rep.labels,
        run_digests=rep.run_digests,
        comparison_digest=rep.comparison_digest,
        run_problems=rep.run_problems,
        digest=rep.digest,
        workload_problems=problems,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
