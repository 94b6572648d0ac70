"""In-memory spans recorded around calls into the dsdmt package.

The tracer wraps public functions of each package module from outside, by
rebinding the name the caller looks up (``exponent_solver._simplex.solve_min``
is looked up as ``_simplex.solve_min`` at call time, ``cli`` calls the
``dmt_via_lp`` it imported by name, and so on).  Nothing under ``src/``
changes; :func:`install` returns an undo function that restores every name.

A span is ``[name, start, end, parent, tag]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``tag`` is a label the caller sets, such
as the channel triple of the command being run.  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.tag = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, self.tag]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[END] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(args, kwargs) may return counter increments."""

        def traced(*args, **kwargs):
            if count is not None:
                self.counts.update(count(args, kwargs))
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda k: spans[k][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method); 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _lp_size(args, kwargs):
    c, a_ub = args[0], args[1]
    return {"simplex.rows": len(a_ub), "simplex.vars": len(c)}


def install(tracer: Tracer):
    """Rebind the package names callers look up to traced wrappers; return undo."""
    from dsdmt import _simplex, cli, exponent_solver, lemma_verify, outage_sim, randmat

    saved = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def trace(owner, attr, name, count=None):
        rebind(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    class TracedPool(ProcessPoolExecutor):
        """Spans around pool construction and shutdown (which joins the workers)."""

        def __init__(self, *args, **kwargs):
            with tracer.span("outage_sim.pool.create"):
                super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            with tracer.span("outage_sim.pool.shutdown"):
                super().shutdown(*args, **kwargs)

    # exact routes: cli -> exponent_solver -> _simplex; the closed form is
    # cli's default route, dmt_at(dmt_curve(t), r)
    trace(_simplex, "solve_min", "simplex.solve_min", _lp_size)
    trace(exponent_solver, "build_program", "exponent_solver.build_program")
    trace(exponent_solver, "solve_lp", "exponent_solver.solve_lp")
    trace(cli, "dmt_via_lp", "exponent_solver.dmt_via_lp")
    trace(cli, "dmt_via_greedy", "exponent_solver.greedy")
    trace(cli, "dmt_curve", "dmt_core.dmt_curve")
    trace(cli, "dmt_at", "dmt_core.dmt_at")
    # Monte Carlo: cli -> outage_sim -> randmat / process pool
    for attr in ("make_channel_spec", "run_simulation", "estimate_outage", "fit_slope",
                 "estimates_csv_lines"):
        trace(outage_sim, attr, f"outage_sim.{attr}")
    trace(outage_sim, "stream", "randmat.stream")
    trace(outage_sim, "complex_gaussian", "randmat.complex_gaussian")
    rebind(outage_sim, "ProcessPoolExecutor", TracedPool)
    for attr in ("identity_correlation", "exponential_correlation"):
        trace(randmat, attr, "randmat.correlation")
    # verification suites: cli -> lemma_verify / randmat
    trace(randmat, "density_gof_identity", "randmat.density_gof_identity")
    for suite in ("lemma1", "lemma2", "lemma3", "lemma4", "prop1"):
        trace(lemma_verify, f"{suite}_suite", f"lemma_verify.suite.{suite}")
    trace(lemma_verify, "check_lemma4", "lemma_verify.check_lemma4")
    trace(lemma_verify, "check_prop1", "lemma_verify.check_prop1")
    trace(lemma_verify, "singular_values", "randmat.singular_values")
    trace(lemma_verify, "_guarded_logabsdet", "lemma_verify.det")

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return undo
