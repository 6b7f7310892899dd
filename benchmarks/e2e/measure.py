"""Statistics, resource accounting, the speed calibration and the machine fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.e2e import THREAD_ENV

#: Scratch space lives inside the checkout (the driver forbids writing
#: elsewhere) and is listed in the root ``.gitignore``.
REPO_ROOT = Path(__file__).resolve().parents[2]
WORK_ROOT = REPO_ROOT / ".bench_e2e"


# -- statistics -------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median with min / quartiles / max and the sample count."""
    ordered = sorted(float(v) for v in values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "n": len(ordered),
        "min": ordered[0],
        "q1": q1,
        "median": statistics.median(ordered),
        "q3": q3,
        "max": ordered[-1],
    }


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (the driver's steadiness measure)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


# -- resources --------------------------------------------------------------------------

def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has reaped."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def peak_rss_mb() -> float:
    """Largest resident set reached by this process or by any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of another live process (``/proc/<pid>/stat``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- speed calibration ------------------------------------------------------------------

class Calibration:
    """The machine-speed factor: a fixed kernel timed between the repetitions.

    The sandbox is a shared VM whose speed wanders by 20-40 % over minutes for
    identical work, so medians of raw seconds from two runs of one commit differ
    by more than any usable bound (README, "Noise and the speed factor", has
    the measurements).  The kernel is half numpy over a few MB (elementwise,
    sort, gather, scan, allocate-and-fill: what the renderers are made of) and
    half interpreter work (what the executor, the cache and the serving path
    are made of), because the machine's slow states hit the two differently;
    its time follows the machine's state and nothing in ``src/`` can change it.
    """

    #: The kernel's nominal duration.  It defines the reporting unit and is not
    #: a measurement of any machine: a reported second is a second on a machine
    #: that runs the kernel in exactly this long.  It cancels in every comparison.
    NOMINAL_S = 0.1

    def __init__(self, passes: int = 3) -> None:
        self.passes = passes
        rng = np.random.default_rng(0)
        self._a = rng.random(1_000_000)
        self._b = rng.random(1_000_000)
        self._index = rng.integers(0, 1_000_000, 500_000)
        self.last = self.read()  #: opens the first interval

    def _kernel(self) -> float:
        a, b = self._a, self._b
        start = time.perf_counter()
        for _ in range(3):
            _ = a * b + a
            _ = np.sort(a[:200_000])
            _ = a[self._index]
            _ = np.cumsum(b)
            block = np.empty((300, 300, 8))
            block[:] = 1.5
            _ = (block * block).sum()
            _ = np.where(a > 0.5, a, b)
        total, table = 0, {}
        for i in range(200_000):
            total += i * i % 7
            table[i & 1023] = total
        return time.perf_counter() - start

    def read(self) -> float:
        """Kernel time (the fastest of ``passes`` back-to-back passes) over the nominal time."""
        self.last = min(self._kernel() for _ in range(self.passes)) / self.NOMINAL_S
        return self.last

    def factor(self) -> float:
        """Close an interval: the mean of the reading that opened it and a new one.

        Adjacent intervals share a reading, so ``n`` repetitions cost ``n + 1``
        readings.
        """
        opened = self.last
        return (opened + self.read()) / 2.0


def at_nominal_speed(value: float, unit: str, factor: float) -> float:
    """``value`` as it would read at nominal machine speed: times shrink by the
    factor, rates grow by it; counts, bytes, shares and same-run ratios stay."""
    if unit in ("s", "ms", "us"):
        return value / factor
    if unit.endswith("/s"):
        return value * factor
    return value


# -- fingerprint ------------------------------------------------------------------------

def fingerprint() -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "thread_env": {name: os.environ.get(name, "") for name in THREAD_ENV},
        "load_average_at_start": list(os.getloadavg()),
    }
