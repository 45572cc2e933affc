"""Core-speed probe: scales wall-clock intervals to a reference core speed.

The shared machines this benchmark runs on change speed by up to 1.9x over
seconds (other tenants on the same physical cores), which swamps any change
to the library.  So a second process, pinned to the benchmark's core, times a
fixed numpy kernel every PERIOD_S seconds and streams the readings back.  The
kernel is compute-bound on L1-resident data, so what the benchmark's jobs
leave in the caches barely moves it.  A wall interval [a, b] is scaled by
REF_PROBE_S / p(t), averaged over the readings p(t) inside it (each the
median of SMOOTH neighbouring readings, so a probe that was itself preempted
does not count).  Scaled seconds are the seconds the interval would have
taken on a core that runs the probe in REF_PROBE_S.  The probe takes about 2%
of the core.

    python3 perfbench/probe.py      # child side: prints "ready", then one
                                    # "start duration" line per reading
                                    # until its stdin closes
"""
from __future__ import annotations

import bisect
import os
import select
import statistics
import subprocess
import sys
import threading
import time

PERIOD_S = 0.02
# The probe's duration on an uncontended core of the reference machine
# (2 cores, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
REF_PROBE_S = 0.44e-3
SMOOTH = 5


def _kernel(np):
    x = np.linspace(0.0, 1.0, 512)
    z = np.exp(1j * np.arange(256) * 0.1)
    m = (np.arange(256).reshape(64, 2, 2) % 7) + 0j

    def run():
        for _ in range(8):
            np.sin(x) * np.cos(x) + np.sqrt(x)
            np.fft.fft(z)
            np.einsum("nab,nbc->nac", m, m)
    return run


def child() -> None:
    import env
    env.pin_threads()
    import numpy as np
    run = _kernel(np)
    run()
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t0 = time.perf_counter()
        run()
        print(f"{t0!r} {time.perf_counter() - t0!r}", flush=True)


def pin_core() -> int | None:
    """Pin this process (and children started later) to one allowed core."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


class SpeedProbe:
    """Parent side: start the probe child, collect its readings on a thread,
    scale intervals, stop the child."""

    def __init__(self):
        self.times, self.probe_s = [], []
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("speed probe failed to start")
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            t, p = line.split()
            self.probe_s.append(float(p))
            self.times.append(float(t))

    def stop(self) -> None:
        """End the child and wait for it and the reader."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
        self.proc.wait(timeout=60)
        if hasattr(self, "_reader"):
            self._reader.join(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    def _smoothed(self, i: int) -> float:
        h = SMOOTH // 2
        return statistics.median(self.probe_s[max(0, i - h):i + h + 1])

    def scaled(self, a: float, b: float) -> float:
        """Reference-speed seconds of the wall interval [a, b]."""
        deadline = time.perf_counter() + 10 * PERIOD_S
        while (not self.times or self.times[-1] < b) and \
                time.perf_counter() < deadline and self.proc.poll() is None:
            time.sleep(PERIOD_S / 4)
        count = len(self.times)          # the reader may append meanwhile
        times = self.times[:count]
        lo = bisect.bisect_left(times, a)
        hi = bisect.bisect_right(times, b)
        if lo == hi:                     # shorter than a period: nearest reading
            lo = min(lo, count - 1)
            hi = lo + 1
        return (b - a) * statistics.fmean(REF_PROBE_S / self._smoothed(i)
                                          for i in range(lo, hi))

    def median_probe_s(self) -> float:
        return statistics.median(self.probe_s)


if __name__ == "__main__":
    child()
