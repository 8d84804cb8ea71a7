"""How the benchmark reads clocks, counters and the host's own noise.

Everything here is about the measuring side: ``/proc`` readers, the
timed :class:`Region`, and the :class:`SpeedProbe` that puts a timing
taken on a shared, fluctuating host into proportion.
"""

from __future__ import annotations

import bisect
import os
import resource
import threading
import time
import typing as _t

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_now = time.perf_counter


def host_cpu_s() -> tuple[float, float]:
    """``(stolen, total)`` CPU seconds of all vCPUs, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) / _CLK_TCK for x in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0.0), sum(fields[:8])


def proc_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) process *pid* has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_status_mb(pid: int, key: str) -> float:
    """A ``/proc/<pid>/status`` memory line (``VmHWM``/``VmRSS``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def self_rss_mb() -> float:
    """Peak resident set of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean_slowdown(times: _t.Sequence[float], samples: _t.Sequence[float],
                  start: float, end: float) -> tuple[float, float]:
    """``(slowdown, probe cpu seconds)`` from the probe samples taken
    between *start* and *end* (``time.monotonic()`` values); the
    slowdown is 1.0 when the interval holds no sample."""
    chosen = samples[bisect.bisect_left(times, start):
                     bisect.bisect_right(times, end)]
    if not chosen:
        return 1.0, 0.0
    return (sum(chosen) / len(chosen) / SpeedProbe.NOMINAL_S, sum(chosen))


class SpeedProbe(threading.Thread):
    """Measures how fast this host's cores are while the program runs.

    The sandboxes this runs in share their cores: the same fixed work
    takes 1.0x to 1.6x as long from one minute to the next, in process
    CPU time as much as in wall time, and a vCPU can be taken away
    altogether (steal).  The probe is a thread in the measured process
    that runs one small fixed chunk of interpreter work every few
    milliseconds and reads its own CPU clock around it.  A timing
    divided by the probe's mean slowdown over the very same interval is
    the time the work takes at the host's nominal speed; stolen time is
    taken off separately (see :func:`at_nominal_speed`).  Those are the
    timings the benchmark reports; raw readings are kept.  Every process
    whose time is measured carries its own probe (the gateway server's is
    started by :mod:`serve`): two vCPUs are not slowed alike.
    """

    #: Loop iterations per chunk (about 0.4 ms), pause between chunks.
    CHUNK, PAUSE_S = 8000, 0.004
    #: CPU seconds one chunk takes on a quiet host of the class this
    #: benchmark was sized on; it only fixes the unit of the slowdown.
    NOMINAL_S = 0.0004

    def __init__(self) -> None:
        """A stopped probe; ``start()`` begins sampling."""
        super().__init__(name="speed-probe", daemon=True)
        #: ``time.monotonic()`` at the end of each chunk, and its CPU seconds.
        self.times: list[float] = []
        self.samples: list[float] = []
        self._halt = threading.Event()

    def run(self) -> None:
        """Sample until :meth:`halt`."""
        thread_time, chunk = time.thread_time, range(self.CHUNK)
        while not self._halt.is_set():
            c0 = thread_time()
            x = 0
            for i in chunk:
                x += i * i & 7
            self.samples.append(thread_time() - c0)
            self.times.append(time.monotonic())
            time.sleep(self.PAUSE_S)

    def halt(self) -> None:
        """Stop sampling and wait for the thread."""
        self._halt.set()
        self.join()

    def slowdown(self, start: float, end: float) -> tuple[float, float]:
        """:func:`mean_slowdown` over this probe's own samples."""
        return mean_slowdown(self.times, self.samples, start, end)


#: CPU seconds a process burns per second its host steals: with two
#: processes on two vCPUs, one spins in the kernel (locks, IPIs) while the
#: hypervisor has descheduled the other.  Measured on this host class over
#: the two gateway workloads in two sets of ten runs (0.3-0.45 fits both);
#: workloads that see little steal are indifferent to it.
SPIN_PER_STOLEN_S = 0.3


def at_nominal_speed(reading_s: float, stolen_s: float, slowdown: float,
                     per_stolen_s: float = 1.0) -> float:
    """A timing with the host's interference taken out.

    Stolen time is summed over the vCPUs.  It stalls a closed loop once,
    so a wall-clock reading loses all of it (*per_stolen_s* = 1), or 1/n
    of it where n independent processes run side by side; a CPU reading
    loses :data:`SPIN_PER_STOLEN_S` of it.  Never more than three
    quarters of the reading goes: two vCPUs stolen at once must not
    erase it.  What is left is divided by the probe's *slowdown*.
    """
    return (reading_s - min(per_stolen_s * stolen_s,
                            0.75 * reading_s)) / slowdown


class Region:
    """The timed region: wall, own CPU, stolen time, and host slowdown."""

    def __init__(self, probe: SpeedProbe) -> None:
        """A region whose readings *probe* will put into proportion."""
        self.probe = probe

    def __enter__(self) -> "Region":
        self.stolen0_s, self.total0_s = host_cpu_s()
        self.start_monotonic = time.monotonic()
        self.c0 = time.process_time()
        self.t0 = _now()
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.wall_s = _now() - self.t0
        cpu_s = time.process_time() - self.c0
        self.end_monotonic = time.monotonic()
        stolen_s, total_s = host_cpu_s()
        self.stolen_s = stolen_s - self.stolen0_s
        self.steal_share = self.stolen_s / max(total_s - self.total0_s, 1e-9)
        self.slowdown, probe_cpu_s = self.probe.slowdown(
            self.start_monotonic, self.end_monotonic)
        #: This process's CPU seconds in the region, the probe's excluded.
        self.cpu_s = cpu_s - probe_cpu_s


def percentile(sorted_values: _t.Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(int(q * len(sorted_values)),
                             len(sorted_values) - 1)]
