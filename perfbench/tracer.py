"""Tracing for the per-layer breakdown, installed from outside the program.

Rarely called boundaries (workload, setup phases, runs, selection rounds,
export) become spans with a parent id.  Hot functions are called millions of
times, so for every wrapped function only an aggregate is kept: call count,
total time (outermost calls only, so re-entrant calls such as a dispatch made
from inside a dispatch handler are not counted twice) and self time (total
minus the time spent in wrapped callees).  Optional hooks count outcomes
(hits, accepted items) where the work happens.

Everything stays in memory; ``dump`` writes it out once at the end.  A
function missing from the program under test stops the traced run with its
name: its counts would otherwise read 0, which looks like an improvement.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Aggregate:
    __slots__ = ("count", "total_s", "self_s", "depth")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.aggregates: dict[str, Aggregate] = {}
        self.notes: Counter[str] = Counter()
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self._open_spans: list[int] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._t0 = time.perf_counter()

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, label: str = ""):
        span_id = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append((span_id, parent, name, label, 0.0, 0.0))
        self._open_spans.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open_spans.pop()
            self.spans[span_id] = (span_id, parent, name, label,
                                   start - self._t0, end - self._t0)

    # -- aggregates -----------------------------------------------------------

    def agg(self, name: str) -> Aggregate:
        return self.aggregates.setdefault(name, Aggregate())

    def wrap(self, owner: object, attr: str, name: str, *, before=None, after=None,
             span: bool = False) -> None:
        """Replace ``owner.attr`` by a timing wrapper recorded under ``name``.

        ``before(args)`` runs ahead of the call and ``after(args, result)``
        behind it, both outside the timed interval.
        """
        agg = self.agg(name)
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            child = [0.0]
            stack.append(child)
            agg.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                agg.depth -= 1
                agg.count += 1
                agg.self_s += elapsed - child[0]
                if not agg.depth:
                    agg.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        wrapper = traced
        if span:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return traced(*args, **kwargs)

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {name: a.count for name, a in self.aggregates.items()}

    def count(self, name: str) -> int:
        return self.agg(name).count

    def total(self, name: str) -> float:
        return self.agg(name).total_s

    def self_time(self, name: str) -> float:
        return self.agg(name).self_s

    def dump(self, path) -> None:
        payload = {
            "spans": [
                {"id": i, "parent": p, "name": n, "label": lb, "start_s": s, "end_s": e}
                for i, p, n, lb, s, e in self.spans
            ],
            "aggregates": {
                name: {"count": a.count, "total_s": a.total_s, "self_s": a.self_s}
                for name, a in sorted(self.aggregates.items())
            },
            "notes": dict(sorted(self.notes.items())),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")


def instrument(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries.  Must run before any Simulation
    is built: peers register their bound ``on_envelope`` at construction."""
    from socicache import sim
    from socicache.info_cache import CurrentCache
    from socicache.metrics import MetricsLedger
    from socicache.overlay import DhtStore, MessageDispatcher
    from socicache.peer import Peer
    from socicache.social_cache import SocialCache

    notes = tracer.notes
    wrap = tracer.wrap

    def hit(note):
        def after(_args, result):
            if result is not None:
                notes[note] += 1
        return after

    def count_true(note):
        def after(_args, result):
            if result:
                notes[note] += 1
        return after

    def muc_eviction(args):
        social, user = args[0], args[1]
        if user not in social.muc and len(social.muc) >= social.muc.max_users:
            notes["social_cache.muc_evictions"] += 1

    def ranked(_args, result):
        notes["social_cache.ranked_users"] += len(result)

    def diff_nonempty(_args, diff):
        if diff.to_subscribe or diff.to_unsubscribe:
            notes["social_cache.diff_nonempty"] += 1

    def bootstrap_offered(args):
        notes["social_cache.bootstrap_items"] += len(args[2])

    def bootstrap_accepted(_args, accepted):
        notes["social_cache.bootstrap_accepted"] += accepted

    def message_kind(args):
        notes["overlay.messages." + args[1].kind.value] += 1

    wrap(sim, "trace_digest", "workload.trace_digest")
    wrap(sim.Simulation, "run", "sim.run")
    wrap(sim.Simulation, "_apply_event", "sim.apply_event")
    wrap(sim.Simulation, "_run_selection_round", "sim.selection_round", span=True)
    wrap(sim.Simulation, "_sample", "sim.sample")
    wrap(Peer, "handle_request", "peer.handle_request")
    wrap(Peer, "add_content", "peer.add_content")
    wrap(Peer, "send_friend_request", "peer.send_friend_request")
    wrap(Peer, "on_envelope", "peer.on_envelope")
    wrap(SocialCache, "lookup", "social_cache.lookup", after=hit("social_cache.lookup_hits"))
    wrap(SocialCache, "track", "social_cache.track", before=muc_eviction)
    wrap(SocialCache, "run_selection", "social_cache.run_selection", after=diff_nonempty)
    wrap(SocialCache, "rank_users", "social_cache.rank_users", after=ranked)
    wrap(SocialCache, "social_score", "social_cache.social_score")
    wrap(SocialCache, "publish", "social_cache.publish")
    wrap(SocialCache, "on_bootstrap", "social_cache.on_bootstrap",
         before=bootstrap_offered, after=bootstrap_accepted)
    wrap(SocialCache, "on_social_update", "social_cache.on_social_update",
         after=count_true("social_cache.updates_accepted"))
    wrap(CurrentCache, "lookup", "info_cache.lookup", after=hit("info_cache.hits"))
    wrap(CurrentCache, "insert", "info_cache.insert", after=hit("info_cache.evictions"))
    wrap(DhtStore, "get", "overlay.get", after=hit("overlay.get_hits"))
    wrap(DhtStore, "put", "overlay.put")
    wrap(MessageDispatcher, "dispatch", "overlay.dispatch", before=message_kind)
    wrap(MetricsLedger, "record_sample", "metrics.record_sample")
    wrap(MetricsLedger, "export_csv", "metrics.export_csv")
    if tracer.missing:
        tracer.uninstall()
        raise RuntimeError("layer boundaries missing from the program, rename them in "
                           "perfbench/tracer.py: " + ", ".join(tracer.missing))
