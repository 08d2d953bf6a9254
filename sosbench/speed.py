"""Machine-speed calibration for the benchmark's timings.

The benchmark's host shares its cores with other work, and its speed
drifts by up to 20% from one second to the next and by up to 2x over
minutes: far more than the changes the benchmark is meant to resolve.  So
every end-to-end time is scaled by the machine's speed while it was
measured.

A calibrator process, pinned to the core that does the measured work,
wakes every 20 ms and times one of three fixed kernels in turn, in its own
CPU time: an interpreter loop, random reads from a 1M-entry list, and small
numpy products.  Over an interval, each kernel's mean time against its
reference time (its median on the baseline machine) gives a slowdown; the
geometric mean of the three is the machine's slowdown.  A duration divided
by it reads in seconds at reference speed.  On the baseline machine this
cut the spread of pass times on the two sweep workloads from 13% and 10%
to 3% and 2.5%; see NOTES.md.

Run as a script, this module is the calibrator::

    python3 sosbench/speed.py CPU

It prints ``ready`` once its kernels are built, and, after SIGTERM, one JSON
list of ``[start, kernel, seconds]`` samples.  ``start`` is
``time.perf_counter()``, the system-wide monotonic clock on Linux, so it
lines up with the parent's timestamps.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from typing import List, Sequence

#: Seconds between the calibrator's samples.
INTERVAL_S = 0.02
#: Each kernel's median CPU time on the baseline machine, in seconds.
REFERENCE_S = (170e-6, 420e-6, 300e-6)
#: Speed is averaged over at least this much time around an interval.
MIN_WINDOW_S = 1.0
STOP_TIMEOUT_S = 10.0


def _kernels():
    import numpy as np

    rng = random.Random(1)
    table = list(range(1_000_000))
    reads = [rng.randrange(len(table)) for _ in range(600)]
    matrix = np.random.default_rng(1).random((30, 30))
    ones = np.ones(30)

    def interpreter() -> None:
        total = 0
        for i in range(2000):
            total += i * i

    def memory() -> None:
        total = 0
        for index in reads:
            total += table[index]

    def numeric() -> None:
        x = ones
        for _ in range(25):
            x = matrix @ x
            x = x / np.abs(x).max()

    return interpreter, memory, numeric


def _calibrate(cpu: int) -> int:
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    kernels = _kernels()
    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(signum))
    print("ready", flush=True)
    samples = []
    turn = 0
    while not stopping:
        time.sleep(INTERVAL_S)
        if os.getppid() != parent:
            return 1
        kernel = turn % len(kernels)
        turn += 1
        start = time.perf_counter()
        cpu_start = time.thread_time()
        kernels[kernel]()
        samples.append((start, kernel, time.thread_time() - cpu_start))
    json.dump(samples, sys.stdout)
    sys.stdout.flush()
    return 0


class SpeedClock:
    """Calibrators on ``cpus`` from construction to :meth:`stop`.

    :meth:`seconds` converts an interval measured meanwhile into seconds
    at reference speed.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self._procs: List[subprocess.Popen] = []
        self._times: List[float] = []
        self._samples: List[tuple] = []
        try:
            for cpu in cpus:
                self._procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdout=subprocess.PIPE, text=True,
                ))
            for proc in self._procs:
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("speed calibrator did not start")
        except BaseException:
            self.stop()
            raise

    @classmethod
    def pinned(cls, cores: int) -> "SpeedClock":
        """Pin this process, and the processes it starts from now on, to
        its first ``cores`` allowed cores, and calibrate on each of them."""
        cpus = sorted(os.sched_getaffinity(0))[:cores]
        os.sched_setaffinity(0, cpus)
        return cls(cpus)

    def stop(self) -> None:
        """Stop every calibrator, wait for it, and keep its samples."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self._procs:
            try:
                out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                continue
            if proc.returncode == 0 and out.strip():
                self._samples.extend(tuple(s) for s in json.loads(out))
        self._procs = []
        self._samples.sort()
        self._times = [s[0] for s in self._samples]

    def slowdown(self, start: float, end: float) -> float:
        """The machine's time per unit of work around ``[start, end]``,
        relative to the reference (above 1 when slower)."""
        if not self._samples:
            raise RuntimeError("no calibration samples: stop() the clock first")
        middle = (start + end) / 2
        half = max(end - start, MIN_WINDOW_S) / 2
        while True:
            low = bisect.bisect_left(self._times, middle - half)
            high = bisect.bisect_right(self._times, middle + half)
            sums = [0.0] * len(REFERENCE_S)
            counts = [0] * len(REFERENCE_S)
            for _, kernel, seconds in self._samples[low:high]:
                sums[kernel] += seconds
                counts[kernel] += 1
            if all(counts) or (low == 0 and high == len(self._samples)):
                break
            half *= 2
        if not all(counts):
            raise RuntimeError("too few calibration samples")
        return math.exp(sum(
            math.log(total / count / reference)
            for total, count, reference in zip(sums, counts, REFERENCE_S)
        ) / len(REFERENCE_S))

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` in seconds at reference speed."""
        return (end - start) / self.slowdown(start, end)


if __name__ == "__main__":
    sys.exit(_calibrate(int(sys.argv[1])))
