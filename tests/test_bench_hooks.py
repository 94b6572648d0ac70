"""The package names that the benchmark in perfbench/ rebinds must exist.

perfbench traces a run by rebinding package functions to wrappers, and cuts
an untraced run into timed segments the same way (workload.CUTS), both by
getattr on the name.  A function renamed in the package would first fail a
benchmark run; these tests fail first.  They only read perfbench.
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
