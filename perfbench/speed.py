"""Machine-speed normalization of measured times.

On a shared machine the speed of a core changes from second to second (on a
shared 2-vCPU Xeon virtual machine, a fixed loop alternated between about
1.5 ms and 2.4 ms as neighbours came and went), which moved whole passes by
10-20% from run to run.  A sampler therefore runs a fixed
snippet every SAMPLE_PERIOD_S of wall time, from a SIGALRM handler, so its
samples interleave with the program's own work.  Each measured time, minus
the sampler's own time, is scaled by REFERENCE_SNIPPET_S over the mean
snippet time around it.  A time then reads as seconds on a machine where the
snippet takes REFERENCE_SNIPPET_S.  The program cannot change the snippet,
so a faster or slower program still moves the normalized time one to one.
The raw times are reported next to the normalized ones.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

REFERENCE_SNIPPET_S = 1e-4
SAMPLE_PERIOD_S = 0.02
LOCAL_SAMPLES = 5


def _snippet() -> None:
    """Fixed interpreter work: calls, tuples, a dict, a sort and integer updates.

    Its slowdown on a contended core tracks that of the workloads, which mix
    the same kinds of work; a pure arithmetic loop tracked them worse.
    """
    acc: dict = {}
    for i in range(60):
        key = tuple(range(i % 11))
        acc[key] = acc.get(key, 0) + len(key)
    sorted(acc.items())
    c = [0] * 48
    c[0] = 1
    for e in range(1, 6):
        for j in range(47, e - 1, -1):
            v = c[j - e]
            if v:
                c[j] += v * 1000003


class SpeedSampler:
    """Samples the snippet's time; use as a context manager to sample periodically."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not the machine's speed
        t0 = perf_counter()
        _snippet()
        self.samples.append(perf_counter() - t0)
        if enabled:
            gc.enable()

    def warm(self) -> None:
        for _ in range(LOCAL_SAMPLES):
            self.sample()

    def __enter__(self) -> "SpeedSampler":
        self.warm()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, first: int, last: int) -> float:
        """REFERENCE_SNIPPET_S over the mean of samples[first:last], widened
        back to the last LOCAL_SAMPLES samples when the span holds fewer."""
        local = self.samples[first:last]
        if len(local) < LOCAL_SAMPLES:
            local = self.samples[max(0, last - LOCAL_SAMPLES) : last]
        return REFERENCE_SNIPPET_S * len(local) / sum(local)

    def time(self, fn, *args):
        """Call fn(*args); return (result, raw seconds, normalized seconds).

        Raw seconds exclude the time the sampler spent inside the call.
        """
        first = len(self.samples)
        t0 = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - t0
        last = len(self.samples)
        raw = elapsed - sum(self.samples[first:last])
        return result, raw, raw * self.factor(first, last)
