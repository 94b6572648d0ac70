"""Independent outage count for the first trial block of each SNR point.

Follows the documented stream layout of ``dsdmt.outage_sim`` without calling
the package: block b of SNR point i draws from a Philox generator keyed by
``SeedSequence(entropy=seed, spawn_key=(i, b))``; each trial draws H1
(n_r x n_s) before H2 (n_s x n_t), each as standard normal real parts for the
whole block followed by the imaginary parts, scaled by sqrt(1/2).  The
mutual information comes from singular values here, where the package uses
an eigendecomposition of the Gram matrix, so a trial whose mutual
information lies within ``FLIP_TOL`` of the threshold may legitimately
flip; any other disagreement is a failure.
"""

from __future__ import annotations

import math

import numpy as np

FLIP_TOL = 1e-9


def _exp_corr_sqrt(dim: int, rho: float) -> np.ndarray:
    idx = np.arange(dim)
    mat = rho ** np.abs(idx[:, None] - idx[None, :]).astype(float)
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(w)) @ v.T


def _gaussian(shape, rng) -> np.ndarray:
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * math.sqrt(0.5)


def block_count(triple, r: float, snr_db: float, snr_index: int, seed: int,
                count: int, rho: float | None = None) -> tuple[int, int]:
    """(outage count, trials within FLIP_TOL of the threshold) for block 0."""
    n_t, n_s, n_r = triple
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(snr_index), 0))))
    h1 = _gaussian((count, n_r, n_s), rng)
    h2 = _gaussian((count, n_s, n_t), rng)
    if rho is None:  # identity correlations, unit traces
        h = h1 @ h2
    else:
        h = _exp_corr_sqrt(n_r, rho) @ h1 @ _exp_corr_sqrt(n_s, rho) @ h2 @ _exp_corr_sqrt(n_t, rho)
    snr = 10.0 ** (snr_db / 10.0)
    gain = snr / (n_t * n_s)  # C = n_r / (tr Phi_T tr Phi_S tr Phi_R), unit diagonals
    sv = np.linalg.svd(h, compute_uv=False)
    mi = np.sum(np.log1p(gain * sv**2), axis=1)
    threshold = r * math.log(snr)
    return int(np.sum(mi <= threshold)), int(np.sum(np.abs(mi - threshold) < FLIP_TOL))


def compare(oracle_count: int, near: int, program_count: int) -> tuple[bool, int]:
    """(agrees, flips): a difference is tolerated only up to the near-threshold trials."""
    flips = abs(program_count - oracle_count)
    return flips <= near, flips
