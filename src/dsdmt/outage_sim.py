"""Monte Carlo outage probability of the double-scattering channel.

The channel is H = Phi_R^(1/2) H1 Phi_S^(1/2) H2 Phi_T^(1/2) with fresh
i.i.d. complex Gaussian hops each trial; an outage at multiplexing gain r
is mutual information <= r * ln(SNR) nats.  Trials are simulated in fixed
blocks, each block on its own RNG stream keyed by (snr index, block index),
so outage counts are bit-reproducible and independent of the worker count.
A multi-worker run spreads the blocks of all its grid points over one
process pool.

The batched kernel holds each matrix of a block trial-innermost, as a
C-contiguous (rows, cols, count) array, so each elementwise op is one loop
over the trials.  It multiplies in only the square roots of non-identity
correlations, each product a sum of rank-1 broadcast products over the
inner index, which beats a batched matmul on tiny matrices.  The mutual
information ln det(I + g G) uses the Gram matrix G on the smaller side,
q = min(n_r, n_t).  For q <= 2 it is closed form: ln(1 + g tr G) for q = 1
and ln(1 + g tr G + g^2 det G) for q = 2, with det G taken by Cauchy-Binet
as a sum of squared 2x2 minors of H, which is never negative and does not
cancel.  For q >= 3 it sums ln(1 + g sigma^2) over the singular values
sigma of H, whose squares are the eigenvalues of G; they lose relative
accuracy in proportion to the condition number of H, while the eigenvalues
of G lose it in proportion to its square.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dmt_core import ChannelTriple
from .randmat import (
    CorrelationMatrix,
    complex_gaussian,
    identity_correlation,
    stream,
)

__all__ = [
    "BLOCK_TRIALS",
    "InsufficientDataError",
    "ChannelSpec",
    "SimConfig",
    "OutageEstimate",
    "SlopeFit",
    "make_channel_spec",
    "default_normalization",
    "estimate_outage",
    "run_simulation",
    "fit_slope",
    "estimates_csv_lines",
]

BLOCK_TRIALS = 4096  # trials per RNG stream; fixed so counts don't depend on workers
MIN_EVENTS_FOR_FIT = 20
_WILSON_Z = 1.959963984540054  # two-sided 95%
_SNR_MATCH_DB = 1e-9  # estimate_outage's grid match (dB); SimConfig keeps points this far apart
MAX_SNR_DB = 1000.0  # the highest grid point: gain * gain * det stays finite for gains to 1e100


class InsufficientDataError(RuntimeError):
    """Fewer than two SNR points carry enough outage events to fit a slope."""


@dataclass(frozen=True)
class ChannelSpec:
    """Channel dimensions, per-node correlations, and the SNR normalization C."""

    triple: ChannelTriple
    phi_t: CorrelationMatrix
    phi_s: CorrelationMatrix
    phi_r: CorrelationMatrix
    c_norm: float

    def __post_init__(self):
        t = self.triple
        dims = (self.phi_t.dim, self.phi_s.dim, self.phi_r.dim)
        if dims != t.as_tuple():
            raise ValueError(f"correlation dims {dims} do not match triple {t.as_tuple()}")
        if not self.c_norm > 0:
            raise ValueError(f"c_norm must be positive, got {self.c_norm}")


def default_normalization(triple: ChannelTriple, phi_t, phi_s, phi_r) -> float:
    """C = n_r / (tr Phi_T * tr Phi_S * tr Phi_R).

    Makes SNR the average per-receive-antenna SNR; reduces to 1/(n_s*n_t)
    for unit-diagonal correlations.
    """
    return triple.n_r / (phi_t.trace * phi_s.trace * phi_r.trace)


def make_channel_spec(triple, phi_t=None, phi_s=None, phi_r=None, c_norm=None) -> ChannelSpec:
    """ChannelSpec with identity correlations and default C unless overridden."""
    if not isinstance(triple, ChannelTriple):
        triple = ChannelTriple(*triple)
    phi_t = phi_t if phi_t is not None else identity_correlation(triple.n_t)
    phi_s = phi_s if phi_s is not None else identity_correlation(triple.n_s)
    phi_r = phi_r if phi_r is not None else identity_correlation(triple.n_r)
    if c_norm is None:
        c_norm = default_normalization(triple, phi_t, phi_s, phi_r)
    return ChannelSpec(triple=triple, phi_t=phi_t, phi_s=phi_s, phi_r=phi_r, c_norm=c_norm)


@dataclass(frozen=True)
class SimConfig:
    spec: ChannelSpec
    snr_grid_db: tuple[float, ...]
    r: float
    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        grid = tuple(float(v) for v in self.snr_grid_db)
        if len(grid) == 0 or any(b - a < _SNR_MATCH_DB for a, b in zip(grid, grid[1:])):
            raise ValueError(f"snr_grid_db steps must be >= {_SNR_MATCH_DB} dB, got {grid}")
        if any(v > MAX_SNR_DB for v in grid):
            raise ValueError(f"snr_grid_db points must be <= {MAX_SNR_DB} dB, got {grid}")
        if not all(0.0 < 10.0 ** (v / 10.0) for v in grid):  # also false for nan
            raise ValueError(f"snr_grid_db has a linear SNR that is 0 or not finite: {grid}")
        object.__setattr__(self, "snr_grid_db", grid)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        top = min(self.spec.triple.as_tuple())
        if not (math.isfinite(self.r) and 0 <= self.r <= top):
            raise ValueError(f"r must be a finite number in [0, {top}], got {self.r}")


@dataclass(frozen=True)
class OutageEstimate:
    snr_db: float
    p_out: float
    ci_low: float
    ci_high: float
    outage_count: int
    trials: int


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    points_used: int


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the first two axes, trials on the last, as a sum of rank-1 broadcast
    products over the inner index; a fixed matrix enters as (rows, cols, 1)."""
    out = a[:, :1] * b[:1]
    for j in range(1, a.shape[1]):
        out += a[:, j : j + 1] * b[j : j + 1]
    return out


def _draw_block(spec: ChannelSpec, count: int, rng) -> np.ndarray:
    """count channel matrices, shape (count, n_r, n_t), viewing C-contiguous (n_r, n_t, count)
    memory; H1 is drawn before H2, each in the order of a (count, rows, cols) stack."""
    t = spec.triple
    h = np.empty((t.n_r, t.n_s, count), dtype=complex)
    h2 = np.empty((t.n_s, t.n_t, count), dtype=complex)
    complex_gaussian((count, t.n_r, t.n_s), rng, out=h.transpose(2, 0, 1))
    complex_gaussian((count, t.n_s, t.n_t), rng, out=h2.transpose(2, 0, 1))
    if spec.phi_r.kind != "identity":
        h = _product(spec.phi_r.sqrt[:, :, None], h)
    if spec.phi_s.kind != "identity":
        h = _product(h, spec.phi_s.sqrt[:, :, None])
    h = _product(h, h2)
    if spec.phi_t.kind != "identity":
        h = _product(h, spec.phi_t.sqrt[:, :, None])
    return h.transpose(2, 0, 1)


def _mutual_information_block(hs: np.ndarray, gain: float) -> np.ndarray:
    """ln det(I + gain * G) per matrix of hs, shape (count, n_r, n_t), G the Gram matrix
    on the smaller side; q <= 2 sums over the matrix axes of its (n_r, n_t, count) view."""
    if min(hs.shape[1:]) > 2:  # the eigenvalues of G are the squared singular values of H
        sv = np.linalg.svd(hs, compute_uv=False)
        return np.sum(np.log1p(gain * sv**2), axis=1)
    h = hs.transpose(1, 2, 0)  # np.add.reduce below: np.sum's wrapper costs ~2 us a call
    # the rows of the smaller side; G (or its conjugate, same tr and det) is rows @ rows^H
    rows = h if h.shape[0] <= h.shape[1] else h.transpose(1, 0, 2)
    trace = np.add.reduce(rows.real**2 + rows.imag**2, axis=(0, 1))
    if rows.shape[0] == 1:
        return np.log1p(gain * trace)
    h0, h1 = rows[0], rows[1]
    det = np.zeros(rows.shape[2])
    for k in range(1, rows.shape[1]):  # Cauchy-Binet: sum over j < k of |minor_jk|^2
        minor = h0[:k] * h1[k : k + 1] - h0[k : k + 1] * h1[:k]
        det += np.add.reduce(minor.real**2 + minor.imag**2, axis=0)
    return np.log1p(gain * trace + gain * gain * det)


def _count_block(spec: ChannelSpec, r: float, snr: float, seed: int,
                 snr_index: int, block_index: int, count: int) -> int:
    rng = stream(seed, (snr_index, block_index))
    hs = _draw_block(spec, count, rng)
    mi = _mutual_information_block(hs, snr * spec.c_norm)
    return int(np.count_nonzero(mi <= r * math.log(snr)))


def _block_args(cfg: SimConfig, snr_db: float, snr_index: int):
    snr = 10.0 ** (snr_db / 10.0)
    done = 0
    block = 0
    while done < cfg.trials:
        count = min(BLOCK_TRIALS, cfg.trials - done)
        yield (cfg.spec, cfg.r, snr, cfg.seed, snr_index, block, count)
        done += count
        block += 1


def wilson_interval(count: int, trials: int) -> tuple[float, float]:
    z = _WILSON_Z
    p = count / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    lo = 0.0 if count == 0 else max(center - half, 0.0)
    hi = 1.0 if count == trials else min(center + half, 1.0)
    return lo, hi


def estimate_outage(cfg: SimConfig, snr_db: float, pool=None) -> OutageEstimate:
    """Outage probability at one grid point, with a 95% Wilson interval.

    The point must belong to cfg.snr_grid_db: the grid position keys the RNG
    streams, which is what makes counts reproducible and worker-invariant.
    The blocks run on pool when one is given, and in this process otherwise;
    run_simulation builds the pool of a multi-worker run.
    """
    matches = [i for i, v in enumerate(cfg.snr_grid_db) if abs(v - snr_db) < _SNR_MATCH_DB]
    if not matches:
        raise ValueError(f"snr {snr_db} dB is not on the configured grid {cfg.snr_grid_db}")
    snr_index = matches[0]
    args = list(_block_args(cfg, snr_db, snr_index))
    if pool is None:
        counts = [_count_block(*a) for a in args]
    else:
        counts = list(pool.map(_count_block, *zip(*args), chunksize=8))
    total = int(sum(counts))
    lo, hi = wilson_interval(total, cfg.trials)
    return OutageEstimate(
        snr_db=float(snr_db),
        p_out=total / cfg.trials,
        ci_low=lo,
        ci_high=hi,
        outage_count=total,
        trials=cfg.trials,
    )


def run_simulation(cfg: SimConfig) -> list[OutageEstimate]:
    """Estimates at every grid point; a multi-worker run shares one process pool."""
    if cfg.workers == 1 or cfg.trials <= BLOCK_TRIALS:
        return [estimate_outage(cfg, snr_db) for snr_db in cfg.snr_grid_db]
    # a pool forks all its workers at the first submit: at most one per CPU
    with ProcessPoolExecutor(max_workers=min(cfg.workers, os.cpu_count() or 1)) as pool:
        return [estimate_outage(cfg, snr_db, pool) for snr_db in cfg.snr_grid_db]


def fit_slope(estimates) -> SlopeFit:
    """Least-squares slope of -log10(p_out) against log10(SNR).

    Points with fewer than MIN_EVENTS_FOR_FIT outage events are dropped as
    too noisy; at least two usable points are required.
    """
    from scipy import stats

    usable = [e for e in estimates if e.outage_count >= MIN_EVENTS_FOR_FIT]
    if len(usable) < 2:
        raise InsufficientDataError(
            f"need >= 2 points with >= {MIN_EVENTS_FOR_FIT} outage events, have {len(usable)}"
        )
    x = np.array([e.snr_db / 10.0 for e in usable])
    y = np.array([-math.log10(e.p_out) for e in usable])
    res = stats.linregress(x, y)
    return SlopeFit(slope=float(res.slope), stderr=float(res.stderr), points_used=len(usable))


def estimates_csv_lines(estimates, r: float) -> list[str]:
    """Per-point CSV rows: snr_db,rate_nats,trials,outages,p_out,ci_low,ci_high."""
    lines = ["snr_db,rate_nats,trials,outages,p_out,ci_low,ci_high"]
    for e in estimates:
        rate = r * math.log(10.0 ** (e.snr_db / 10.0))
        lines.append(
            f"{e.snr_db},{rate!r},{e.trials},{e.outage_count},{e.p_out!r},{e.ci_low!r},{e.ci_high!r}"
        )
    return lines
