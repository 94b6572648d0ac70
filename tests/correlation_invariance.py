"""The paired experiment of criteria 7c and 7d: one Monte Carlo run with
identity correlations and one with exponential(rho) correlations at every
node, on the same seed and streams, each with its outage slope.

`dmt sim --corr exp:RHO` runs the correlated half from the command line.
"""

from dataclasses import dataclass

from dsdmt import outage_sim as osim
from dsdmt.dmt_core import ChannelTriple
from dsdmt.randmat import exponential_correlation


@dataclass(frozen=True)
class PairedSlopes:
    identity: osim.SlopeFit
    correlated: osim.SlopeFit
    identity_estimates: tuple[osim.OutageEstimate, ...]
    correlated_estimates: tuple[osim.OutageEstimate, ...]


def correlation_invariance_experiment(triple, rho: float, r, snr_grid_db, trials: int,
                                      seed: int, workers: int = 1) -> PairedSlopes:
    """The same experiment with identity and exponential(rho) correlations.

    The runs share seed and streams (common random numbers), so the slope
    comparison isolates the effect of the correlation matrices.
    """
    if not 0 <= rho <= 0.9:
        raise ValueError(f"rho must lie in [0, 0.9], got {rho}")
    if not isinstance(triple, ChannelTriple):
        triple = ChannelTriple(*triple)
    correlated = [exponential_correlation(dim, rho) for dim in triple.as_tuple()]
    results = []
    for spec in (osim.make_channel_spec(triple), osim.make_channel_spec(triple, *correlated)):
        cfg = osim.SimConfig(spec=spec, snr_grid_db=tuple(snr_grid_db), r=float(r),
                             trials=trials, seed=seed, workers=workers)
        estimates = osim.run_simulation(cfg)
        results.append((osim.fit_slope(estimates), tuple(estimates)))
    (id_fit, id_est), (corr_fit, corr_est) = results
    return PairedSlopes(identity=id_fit, correlated=corr_fit,
                        identity_estimates=id_est, correlated_estimates=corr_est)
