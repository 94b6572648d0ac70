"""Machine-speed reference: a fixed loop timed next to every pass.

The shared host's speed changes by up to 2x within seconds and drifts over
minutes, in CPU time as much as in wall time, so raw pass times of the same
code spread widely from run to run.  A pass's time divided by the time of a
fixed reference loop run just before and just after it changes much less
(wall time by the loop's wall time, CPU time by its CPU time);
multiplied by NOMINAL_S it is the pass time on a machine where the loop
takes NOMINAL_S, close to the raw time on the machine of the baseline.

A short loop catches the speed of a moment while a pass of several seconds
averages it, so a pass is timed in segments of about a second (Segments),
each scaled by the loops just before and after it, with the loops off the
clock.

The loop mixes the kinds of work the workloads do: pure Python exact
fractions with dictionary stores, batched numpy linear algebra, and small
matrices one at a time.  It does not call the package, so no change to the
program moves it.  A workload that does not load numpy gets a loop without
it, so that its peak memory stays the program's.  When the workload computes
in several processes at once,
the loop runs in as many processes at once and their mean time is the
reference.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import statistics
import time
from fractions import Fraction

# about the median loop time on the baseline machine (shared 2-vCPU x86_64),
# so that calibrated seconds read close to raw seconds there
NOMINAL_S = 0.15


def loop(with_numpy: bool = True) -> int:
    """About a third each: exact fractions, batched numpy, small matrices one by one.

    Without numpy, the fraction part runs three times as long instead.
    """
    acc = Fraction(0)
    seen = {}
    for i in range(1, 7000 if with_numpy else 21000):
        acc += Fraction(i % 97 + 1, i % 89 + 3) * Fraction(3, i % 7 + 2)
        seen[i % 500] = acc.numerator % 1000
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 10**9, 7)
    if with_numpy:
        import numpy as np

        rng = np.random.Generator(np.random.Philox(1))
        for _ in range(10):
            h = rng.standard_normal((4096, 2, 2)) + 1j * rng.standard_normal((4096, 2, 2))
            np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1))
        for m in rng.standard_normal((3000, 3, 3)):
            np.linalg.svd(m, compute_uv=False)
    return len(seen)


def loop_seconds(with_numpy: bool = True) -> tuple[float, float]:
    """(wall, CPU) seconds of one loop in this process."""
    t0, c0 = time.perf_counter(), time.process_time()
    loop(with_numpy)
    return time.perf_counter() - t0, time.process_time() - c0


def _serve(conn, with_numpy: bool) -> None:
    """Helper process: run the loop on each request until told to stop."""
    while conn.recv():
        conn.send(loop_seconds(with_numpy))


class Reference:
    """The loop in `processes` processes at once: this one alone, or forked
    helpers that stay up between measurements, so none pays for a start."""

    def __init__(self, processes: int = 1, with_numpy: bool = True):
        self.with_numpy = with_numpy
        self.helpers = []
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(processes if processes > 1 else 0):
                conn, child_conn = ctx.Pipe()
                helper = ctx.Process(target=_serve, args=(child_conn, with_numpy),
                                     daemon=True)
                helper.start()
                child_conn.close()
                self.helpers.append((helper, conn))
        except BaseException:
            self.close()
            raise

    def seconds(self) -> tuple[float, float]:
        """(wall, CPU) seconds of one loop; with helpers, their means."""
        if not self.helpers:
            return loop_seconds(self.with_numpy)
        for _, conn in self.helpers:
            conn.send(True)
        walls, cpus = zip(*(conn.recv() for _, conn in self.helpers))
        return statistics.fmean(walls), statistics.fmean(cpus)

    def close(self) -> None:
        for _, conn in self.helpers:
            with contextlib.suppress(OSError):
                conn.send(False)
            conn.close()
        for helper, _ in self.helpers:
            helper.join(timeout=30)
            if helper.is_alive():
                helper.kill()
                helper.join()
        self.helpers = []


class Segments:
    """Times passes in segments, running the reference loop off the clock between them.

    ``restart()`` starts a pass's first segment; ``cut()`` ends the current
    segment, runs the loop and starts the next; ``take()`` returns the pass.
    The loop run by one cut serves both the segment before it and the one
    after it, also across passes.
    """

    def __init__(self, reference: Reference, cpu_clock):
        self.reference = reference
        self.cpu_clock = cpu_clock
        self.rows: list[tuple[float, float, float, float]] = []  # wall, cpu, ref wall, ref cpu
        self.ref = reference.seconds()
        self.restart()

    def restart(self) -> None:
        self.t0, self.c0 = time.perf_counter(), self.cpu_clock()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def cut(self) -> None:
        wall, cpu = time.perf_counter() - self.t0, self.cpu_clock() - self.c0
        ref = self.reference.seconds()
        self.rows.append((wall, cpu, (self.ref[0] + ref[0]) / 2, (self.ref[1] + ref[1]) / 2))
        self.ref = ref
        self.restart()

    def take(self) -> tuple[float, float, float, float]:
        """(wall, CPU, reference wall, reference CPU) of the segments since the last take.

        The two references are the ones that scale the whole pass as much as
        scaling each segment by its own reference does.
        """
        rows, self.rows = self.rows, []
        wall, cpu = sum(r[0] for r in rows), sum(r[1] for r in rows)
        return (wall, cpu, wall / sum(r[0] / r[2] for r in rows),
                cpu / sum(r[1] / r[3] for r in rows))


def calibrated(times, refs) -> list[float]:
    """Each time scaled by NOMINAL_S over the reference time measured around it."""
    return [t * NOMINAL_S / r for t, r in zip(times, refs, strict=True)]
