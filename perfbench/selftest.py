"""Self-tests of the benchmark's own arithmetic and correctness oracle.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

Not part of the repository's test suite: they check the benchmark, not the
program.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer, install, percentile, self_times  # noqa: E402


def test_self_time_on_synthetic_nested_trace():
    spans = [
        ["root", 0.0, 10.0, -1, ""],
        ["a", 1.0, 4.0, 0, ""],
        ["b", 3.0, 6.0, 0, ""],  # overlaps a: the covered time is counted once
        ["a1", 2.0, 3.0, 1, ""],
        ["c", 9.0, 12.0, 0, ""],  # runs past its parent: clipped to the parent's end
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_tracer_records_parents_and_counts():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x, count=lambda args, kwargs: {"items": args[0]})
    with tracer.span("outer"):
        inner(2)
        inner(3)
    assert [s[:4] for s in tracer.spans] == [
        ["outer", 0.0, 5.0, -1], ["inner", 1.0, 2.0, 0], ["inner", 3.0, 4.0, 0]]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert tracer.counts["items"] == 5


def test_percentile():
    assert percentile([], 99) == 0.0
    assert percentile([7.0], 50) == 7.0
    assert percentile([float(v) for v in range(1, 102)], 50) == 51.0


def test_calibration_scales_by_the_reference_speed():
    nominal = calibrate.NOMINAL_S
    # the same pass on a machine twice as slow reads the same
    got = calibrate.calibrated([3.0, 6.0], [nominal, 2 * nominal])
    assert all(math.isclose(v, 3.0) for v in got)
    reference = calibrate.Reference(2)
    try:
        assert min(reference.seconds()) > 0
        assert calibrate.loop() == calibrate.loop(with_numpy=False) == 500
        assert len(reference.helpers) == 2
    finally:
        reference.close()
    assert reference.helpers == []


def test_segments_scale_each_segment_by_its_own_reference():
    segments = calibrate.Segments(calibrate.Reference(1), cpu_clock=lambda: 0.0)
    segments.rows = [(1.0, 0.5, 0.1, 0.1), (2.0, 1.0, 0.4, 0.2)]  # wall, cpu, ref wall, ref cpu
    wall, cpu, ref_wall, ref_cpu = segments.take()
    assert (wall, cpu, segments.rows) == (3.0, 1.5, [])
    nominal = calibrate.NOMINAL_S
    [cal_wall] = calibrate.calibrated([wall], [ref_wall])
    [cal_cpu] = calibrate.calibrated([cpu], [ref_cpu])
    assert math.isclose(cal_wall, nominal * (1.0 / 0.1 + 2.0 / 0.4))
    assert math.isclose(cal_cpu, nominal * (0.5 / 0.1 + 1.0 / 0.2))


def test_install_traces_the_lp_route_and_undoes():
    from dsdmt import _simplex, cli

    original = (_simplex.solve_min, cli.dmt_via_lp)
    tracer = Tracer()
    undo = install(tracer)
    try:
        report = cli.run_crosscheck(1, False)
    finally:
        undo()
    assert (_simplex.solve_min, cli.dmt_via_lp) == original
    names = [s[0] for s in tracer.spans]
    assert report["cases"] == 2 and not report["mismatches"]
    assert names.count("simplex.solve_min") == 2 and names.count("dmt_core.dmt_at") == 2
    assert tracer.counts["simplex.rows"] > 0


def test_oracle_matches_the_program_and_catches_a_wrong_count():
    from dsdmt import outage_sim, randmat

    grid = (10.0, 15.0)
    for rho in (None, 0.7):
        phis = [randmat.exponential_correlation(2, rho) for _ in range(3)] if rho else [None] * 3
        cfg = outage_sim.SimConfig(spec=outage_sim.make_channel_spec((2, 2, 2), *phis),
                                   snr_grid_db=grid, r=1.0, trials=outage_sim.BLOCK_TRIALS, seed=5)
        for i, snr_db in enumerate(grid):
            program = outage_sim.estimate_outage(cfg, snr_db).outage_count
            ref, near = oracle.block_count((2, 2, 2), 1.0, snr_db, i, 5, cfg.trials, rho)
            assert ref > 0
            assert oracle.compare(ref, near, program)[0]
            assert not oracle.compare(ref, near, program + near + 1)[0]


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
