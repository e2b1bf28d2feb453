"""Host-speed probe that puts the benchmark's timings on one scale.

The benchmark gets a few cores of a shared host whose speed changes by up to
2x for seconds to minutes at a time: the same build of the same mesh takes
1.3 s in one minute and 2.6 s in the next, in CPU time as in wall time. Raw
times of a run then measure the host as much as the program, and two runs
of the same code can differ by more than any bound worth setting.

The probe measures the host's speed all through a run. A timer signal runs a
fixed pure-Python loop every `INTERVAL_S`, in the benchmark's own thread
between two bytecodes, and records how long the loop took. A timed span is
then reported as the time it would have taken on a host that runs the loop
in `REF_S`: its duration less the probes that ran inside it, times the mean
of `REF_S / probe` over the probes taken within `PAD_S` of the span. A
program that does more or less work moves the reported time as it moves the
raw time; the probe's own loop does not depend on the program.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025  # between probes; each costs about 1% of the run
LOOPS = 3000  # iterations of the probe loop
REF_S = 200e-6  # the loop's duration on the reference host (2-core VM, Python 3.11, quiet)
PAD_S = 0.1  # probes this close to a span also speak for it


class HostSpeed:
    def __init__(self):
        self.starts: list[float] = []  # perf_counter at the start of each probe
        self.durations: list[float] = []

    def _probe(self, _signum, _frame) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(LOOPS):
            acc += i * i
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> HostSpeed:
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def seconds(self, start: float, end: float) -> float:
        """The span [start, end) of perf_counter time at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        net = end - start - sum(self.durations[lo:hi])
        lo = bisect.bisect_left(self.starts, start - PAD_S)
        hi = bisect.bisect_left(self.starts, end + PAD_S)
        if lo == hi:  # no probe near the span: take the nearest ones on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return net * statistics.fmean(REF_S / d for d in self.durations[lo:hi])

    def summary(self) -> dict:
        q = statistics.quantiles(self.durations, n=10)
        return {"probes": len(self.durations), "probe_us_p10": q[0] * 1e6,
                "probe_us_p50": q[4] * 1e6, "probe_us_p90": q[8] * 1e6}
