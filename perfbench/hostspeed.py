"""Host-speed probe: turns measured seconds into seconds at a fixed
reference host speed.

The machines this benchmark runs on are shared, and their speed drifts by
up to 2x over seconds to minutes; the same repetition measured a few minutes
apart can take 1.6x as long.  A median over repetitions cannot remove drift
that lasts longer than a run.  So while a repetition runs, a timer interrupts
it every ``INTERVAL_S`` and times a fixed tiny pure-Python loop (the probe)
in the same process, on the same core, at that moment.  A phase's normalised
time is its measured time scaled by ``REFERENCE_S`` over the mean probe time
inside the phase: the seconds it would have taken on a host that runs the
probe in ``REFERENCE_S``.  The probes cost under 1% of the run and never
touch the simulator's state.  A probe of this length slowed down in step
with the simulator (a 1000-step probe under-corrected by about 15%).
"""
from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.1
REFERENCE_S = 0.7e-3  # probe time on an unloaded host of the kind measured
MIN_PROBES = 10  # a shorter window borrows probes from around it


def probe_loop() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        k = i & 255
        table[k] = table.get(k, 0) + i
        acc += len(str(i))
    return time.perf_counter() - start


class HostProbe:
    """Samples probe times while active; ``normalise`` rescales a window."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def _on_alarm(self, _signum, _frame) -> None:
        self.times.append(time.perf_counter())
        self.durations.append(probe_loop())

    def __enter__(self) -> "HostProbe":
        # One probe at each end, so even a window shorter than the interval
        # has samples to borrow.
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time in [start, end] over REFERENCE_S, widened to the
        MIN_PROBES probes nearest the window when it holds fewer."""
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < MIN_PROBES:
                hi += 1
        window = self.durations[lo:hi]
        return sum(window) / len(window) / REFERENCE_S

    def normalise(self, windows: list[tuple[float, float]]) -> float:
        """Sum of the windows' durations, each at the reference speed."""
        return sum((end - start) / self.slowdown(start, end) for start, end in windows)
