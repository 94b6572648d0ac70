"""Diversity-multiplexing tradeoff of double-scattering MIMO channels.

Closed-form curves, two independent outage-exponent solvers (exact LP and
greedy reduction), Monte Carlo outage simulation, and numerical checks of
the supporting random-matrix lemmas.  The package namespace re-exports the
exact routes (``dmt_core`` and ``exponent_solver``); the numerical modules,
which need numpy, scipy and mpmath, are imported on their own.
"""

from . import dmt_core, exponent_solver
from .dmt_core import *  # noqa: F403
from .exponent_solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*dmt_core.__all__, *exponent_solver.__all__, "__version__"]
