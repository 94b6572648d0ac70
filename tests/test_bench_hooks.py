"""The package names that the benchmark in perfbench/ rebinds must exist.

perfbench traces a run by rebinding package functions to wrappers, and cuts
an untraced run into timed segments the same way (workload.CUTS), both by
getattr on the name.  A function renamed in the package would first fail a
benchmark run; these tests fail first.  They only read perfbench.  The
last test holds the call structure those spans and cuts rely on.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("_simplex", "cli", "exponent_solver", "lemma_verify", "outage_sim", "randmat")


def load(name):
    """A perfbench module, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """The object behind every global name of the traced package modules."""
    return {(m, k): id(v) for m in MODULES
            for k, v in vars(importlib.import_module(f"dsdmt.{m}")).items()}


def test_tracer_installs_and_undoes():
    tracing = load("tracing")
    before = bindings()
    undo = tracing.install(tracing.Tracer())
    assert bindings() != before
    undo()
    assert bindings() == before


@pytest.mark.parametrize("workload,module,name", [
    (workload, module, name)
    for workload, cuts in load("workload").CUTS.items() for module, name in cuts
])
def test_segment_cuts_resolve(workload, module, name):
    assert callable(getattr(importlib.import_module(f"dsdmt.{module}"), name))


def test_crosscheck_calls_each_traced_name_once_per_case(monkeypatch):
    # the traced layers of crosscheck are timed per call, and its untraced
    # run is cut at cli.dmt_via_lp, so none of these may move to once per
    # triple, however much of their work is shared between calls
    from dsdmt import _simplex, cli, exponent_solver

    counts = {}

    def count(owner, name):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for name in ("dmt_via_lp", "dmt_curve", "dmt_at", "dmt_via_greedy"):
        count(cli, name)
    count(exponent_solver, "solve_lp")
    count(_simplex, "solve_min")
    report = cli.run_crosscheck(3, True)
    assert report["cases"] == 171 and not report["mismatches"]
    assert counts == dict.fromkeys(
        ("dmt_via_lp", "dmt_curve", "dmt_at", "dmt_via_greedy", "solve_lp", "solve_min"), 171)
