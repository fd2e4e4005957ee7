"""A host clock rescaled to a reference CPU speed.

On a host whose cores are shared with other tenants the speed of a core can
swing a lot: on the 2-vCPU VM the baselines were taken on it moves between two
levels about 40% apart for seconds at a time, and raw wall-clock medians of
the same pass spread by 20-25% from run to run. :class:`SpeedClock` removes that swing: a timer signal interrupts the
main thread every ``PROBE_INTERVAL_S`` seconds, times a fixed stdlib-only
kernel with the thread's CPU clock, and scales the CPU time the process used
since the previous probe by ``REFERENCE_KERNEL_S`` over the measured kernel
time. The probe's own time is left out. A program change cannot move the
kernel, so the scaled time moves only with the program's own work.
"""

from __future__ import annotations

import json
import signal
import time

# Kernel time in the fast state of the host the baselines were taken on
# (2-vCPU Intel Xeon VM, Python 3.11.7). Scaled seconds are the seconds a
# pass takes when that kernel runs at this speed.
REFERENCE_KERNEL_S = 0.0021
PROBE_INTERVAL_S = 0.1


def kernel_seconds() -> float:
    """CPU seconds of a fixed mix of dict, str, int and json work."""
    start = time.thread_time()
    table = {}
    x = 0x9E3779B97F4A7C15
    for i in range(400):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        table[i & 63] = (x >> 33, str(i))
        json.loads(json.dumps({"i": i, "x": x >> 40, "v": [1, 2, 3]}))
    return time.thread_time() - start


def speed_scale(repeats: int = 3) -> float:
    """Reference speed over current speed. The fastest of a few kernels is
    used: a cold cache or an interrupt only ever slows one down."""
    return REFERENCE_KERNEL_S / min(kernel_seconds() for _ in range(repeats))


class SpeedClock:
    """Monotonic clock in reference-speed seconds; main thread only.

    Only the process's CPU time is rescaled. Time in which no thread of the
    process runs (a TCP round trip waiting on the kernel, a sleep) does not
    depend on the core's speed and is counted as it is. The benchmark pins
    the process to one core, so CPU time never exceeds wall time.
    """

    def __init__(self):
        self.probes = 0
        # (scaled seconds so far, wall and CPU clocks then, current scale)
        self._state = (0.0, time.perf_counter(), time.process_time(), 1.0)
        self._saved_handler = None

    def __enter__(self) -> "SpeedClock":
        scale = speed_scale()
        self._state = (0.0, time.perf_counter(), time.process_time(), scale)
        self._saved_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def now(self) -> float:
        scaled, wall_at, cpu_at, scale = self._state
        wall = time.perf_counter() - wall_at
        busy = min(time.process_time() - cpu_at, wall)
        return scaled + wall - busy + busy * scale

    def _probe(self, _signum, _frame) -> None:
        scaled, wall_at, cpu_at, scale = self._state
        wall, cpu = time.perf_counter(), time.process_time()
        new_scale = speed_scale(repeats=2)
        # The speed over the interval is taken as the mean of its two ends.
        elapsed = wall - wall_at
        busy = min(cpu - cpu_at, elapsed)
        scaled += elapsed - busy + busy * (scale + new_scale) / 2.0
        self.probes += 1
        self._state = (scaled, time.perf_counter(), time.process_time(), new_scale)
