"""Complex Gaussian / Wishart sampling and the Sigma = I eigenvalue density
that the Wishart fit evaluates.

The density is evaluated without its normalization constant (which plays no
role in SNR exponents); the fit against samples normalizes numerically.
All sampling goes through counter-based Philox streams keyed by (seed,
stream id), so Monte Carlo runs are reproducible and can be partitioned
across workers without overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateEigenvaluesError",
    "CorrelationMatrix",
    "stream",
    "complex_gaussian",
    "complex_gaussian_trials",
    "identity_correlation",
    "exponential_correlation",
    "explicit_correlation",
    "load_correlation_matrix",
    "wishart_sample",
    "log_density_identity",
    "singular_values",
    "density_gof_identity",
]

STREAM_LAYOUT = 1  # the draw order's version, in sim and verify manifests: a moved draw raises it
TIE_TOL = 1e-9
_GOF_BINS = 20  # equal-mass bins of the q = 1 density fit, before pooling


class DegenerateEigenvaluesError(ValueError):
    """Eigenvalue arguments too close to tied; the log-density takes the
    log of their differences."""


def stream(seed: int, stream_id=0) -> np.random.Generator:
    """Counter-based RNG stream keyed by (seed, stream_id).

    ``stream_id`` may be an int or a tuple of ints.  Distinct ids under the
    same seed give statistically independent streams; the same pair is
    bit-reproducible across runs and processes.
    """
    key = stream_id if isinstance(stream_id, tuple) else (stream_id,)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def complex_gaussian(shape, rng: np.random.Generator, out=None) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussians of a given shape.

    All real parts are drawn before all imaginary parts, each in C order of shape;
    out, a complex array of that shape with any strides, is filled in place of a new one.
    """
    out = np.empty(shape, dtype=complex) if out is None else out
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out *= np.sqrt(0.5)
    return out


def complex_gaussian_trials(trials: int, shapes, rng: np.random.Generator) -> tuple:
    """``trials`` rounds of complex_gaussian(shape, rng) for each shape in
    turn, drawn with one call: one stack per shape, of shape (trials, *shape).

    The values and the stream position afterwards are those of the
    sequential calls: each matrix takes its real parts, then its imaginary
    parts, and the matrices of a round follow each other.
    """
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = rng.standard_normal((trials, 2 * sum(sizes)))
    stacks = []
    start = 0
    for shape, size in zip(shapes, sizes):
        out = np.empty((trials, *shape), dtype=complex)
        out.real = flat[:, start : start + size].reshape(trials, *shape)
        out.imag = flat[:, start + size : start + 2 * size].reshape(trials, *shape)
        out *= np.sqrt(0.5)
        stacks.append(out)
        start += 2 * size
    return tuple(stacks)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Hermitian positive-definite correlation with its principal square root."""

    matrix: np.ndarray
    sqrt: np.ndarray
    kind: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _validated_correlation(mat: np.ndarray, kind: str, unit_diagonal: bool) -> CorrelationMatrix:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"correlation matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):  # NaN slips through every comparison below
        raise ValueError("correlation matrix has a non-finite entry")
    herm_err = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_err > 1e-12:
        raise ValueError(f"matrix is not Hermitian: max |A - A^H| = {herm_err:.3e}")
    if unit_diagonal and float(np.max(np.abs(np.diag(mat) - 1.0))) > 1e-12:
        raise ValueError("exponential correlation must have unit diagonal")
    w, v = np.linalg.eigh(mat)
    if w[0] <= 0:
        raise ValueError(f"matrix is not positive definite: smallest eigenvalue {w[0]:.6e}")
    root = (v * np.sqrt(w)) @ v.conj().T
    return CorrelationMatrix(matrix=mat, sqrt=root, kind=kind)


def identity_correlation(dim: int) -> CorrelationMatrix:
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return CorrelationMatrix(matrix=np.eye(dim, dtype=complex), sqrt=np.eye(dim, dtype=complex), kind="identity")


def exponential_correlation(dim: int, rho: float) -> CorrelationMatrix:
    """Entry (i, j) = rho^|i-j|, the standard exponential antenna profile."""
    if not 0 <= rho < 1:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    idx = np.arange(dim)
    mat = rho ** np.abs(idx[:, None] - idx[None, :])
    return _validated_correlation(mat.astype(complex), "exponential", unit_diagonal=True)


def explicit_correlation(mat) -> CorrelationMatrix:
    return _validated_correlation(np.asarray(mat, dtype=complex), "explicit", unit_diagonal=False)


def load_correlation_matrix(path) -> CorrelationMatrix:
    """Plain-text format: first line dim, then dim^2 entries as "re,im"."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty correlation file")
    if not tokens[0].isdecimal() or int(tokens[0]) < 1:
        raise ValueError(f"{path}: the first line must be a positive integer, got {tokens[0]!r}")
    dim = int(tokens[0])
    entries = tokens[1:]
    if len(entries) != dim * dim:
        raise ValueError(f"{path}: expected {dim * dim} entries, found {len(entries)}")
    vals = []
    for tok in entries:
        re_s, _, im_s = tok.partition(",")
        if not _:
            raise ValueError(f"{path}: entry {tok!r} is not of the form re,im")
        vals.append(complex(float(re_s), float(im_s)))
    return explicit_correlation(np.array(vals, dtype=complex).reshape(dim, dim))


def wishart_sample(m: int, n: int, sigma: CorrelationMatrix, trials: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Eigenvalues of W = H H^dagger for trials draws of H, m x n with columns
    CN(0, sigma), all drawn by one complex_gaussian call: shape (trials, m),
    each row descending and non-negative."""
    if sigma.dim != m:
        raise ValueError(f"sigma is {sigma.dim}x{sigma.dim}, expected {m}x{m}")
    h = complex_gaussian((trials, m, n), rng)
    if sigma.kind != "identity":
        h = sigma.sqrt @ h
    return _eigenvalue_vectors(np.linalg.eigvalsh(h @ h.conj().swapaxes(-1, -2)))


def _eigenvalue_vectors(w: np.ndarray) -> np.ndarray:
    """eigvalsh output w, ascending along the last axis, reversed and clipped at 0;
    a value not finite, or negative beyond roundoff of its vector's scale, raises."""
    if not np.all(np.isfinite(w)):
        raise ValueError("eigenvalues must be finite")
    scale = np.maximum(np.max(np.abs(w), axis=-1, keepdims=True), 1.0)
    if np.any(w < -1e-12 * scale):
        raise ValueError(f"negative eigenvalue beyond roundoff: {w.min()}")
    return np.clip(w[..., ::-1], 0.0, None)


def _prep(vals) -> np.ndarray:
    """vals sorted descending along the last axis, each vector positive, finite and untied."""
    arr = np.asarray(vals, dtype=float)
    if arr.size == 0 or np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"eigenvalues must be positive and finite, got {vals}")
    if not np.all(arr[..., :-1] >= arr[..., 1:]):  # the fit's grids come sorted
        arr = np.sort(arr, axis=-1)[..., ::-1]
    gap = arr[..., :-1] - arr[..., 1:]
    tied = gap <= TIE_TOL * np.maximum(arr[..., :1], 1.0)
    if np.any(tied):
        raise DegenerateEigenvaluesError(
            f"eigenvalues nearly tied (min gap {gap[tied].min():.3e}); density is singular there"
        )
    return arr


# The log-Vandermonde is written over scalar operations, with log passed in,
# so that the same code sums it over numpy arrays (the stacked density) and
# over mpmath numbers (mp.log) in lemma_verify.

def _log_vandermonde(vals, log=np.log):
    """sum over i < j of log |vals_i - vals_j|, in that pair order."""
    return sum(log(abs(a - b)) for i, a in enumerate(vals) for b in vals[i + 1 :])


def log_density_identity(lam, m: int, n: int):
    """Log of the ordered-eigenvalue density of W ~ W_m(n, I), constants
    dropped: a float for lam of min(m, n) eigenvalues, or an array of shape
    (...) for a stack (..., min(m, n)).

    Eigenvalues closer than TIE_TOL (relative) are rejected: the density
    vanishes there and its log diverges.
    """
    lam = _prep(lam)
    q = min(m, n)
    if lam.shape[-1] != q:
        raise ValueError(f"expected {q} eigenvalues, got {lam.shape[-1]}")
    logp = (-np.sum(lam, axis=-1) + abs(m - n) * np.sum(np.log(lam), axis=-1)
            + 2.0 * _log_vandermonde(np.moveaxis(lam, -1, 0)))
    return float(logp) if lam.ndim == 1 else logp


def singular_values(a) -> np.ndarray:
    """Singular values of a matrix, or of each matrix of a stack (..., r, c):
    LAPACK's, descending and non-negative along the last axis."""
    return np.linalg.svd(a, compute_uv=False)


def _equal_mass_edges(grid: np.ndarray, weights: np.ndarray, bins: int) -> np.ndarray:
    cdf = np.cumsum(weights)
    cdf = cdf / cdf[-1]
    targets = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.interp(targets, cdf, grid)
    return np.concatenate(([grid[0]], edges, [grid[-1]]))


def density_gof_identity(m: int, n: int, trials: int, rng: np.random.Generator):
    """Chi-square goodness of fit of sampled ordered eigenvalues (Sigma = I)
    against the numerically normalized analytic density.

    Supports q = min(m, n) in {1, 2}.  The comparison conditions both the
    samples and the model on a truncation box covering ~99.9% of the mass,
    with the normalization done by quadrature on a fine grid; expected
    counts below 5 are pooled.  Returns a dict with the p-value and bin
    counts; with fewer than two pooled bins the statistic and p-value are NaN.
    """
    from scipy import stats

    q = min(m, n)
    if q not in (1, 2):
        raise ValueError(f"goodness-of-fit check supports min(m, n) in {{1, 2}}, got {q}")
    eig = wishart_sample(m, n, identity_correlation(m), trials, rng)[:, :q]

    if q == 1:
        lam = eig[:, 0]
        top = float(np.quantile(lam, 0.999)) * 1.2
        grid = np.linspace(top / 4000.0, top, 4000)
        logpdf = log_density_identity(grid[:, None], m, n)
        pdf = np.exp(logpdf - logpdf.max())
        weights = pdf * np.gradient(grid)
        edges = _equal_mass_edges(grid, weights, _GOF_BINS)
        observed, _ = np.histogram(lam, bins=edges)
        cell_prob = weights / weights.sum()
        bin_idx = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, _GOF_BINS - 1)
        expected_p = np.bincount(bin_idx, weights=cell_prob, minlength=_GOF_BINS)
    else:
        lam1, lam2 = eig[:, 0], eig[:, 1]
        top = float(np.quantile(lam1, 0.999)) * 1.2
        g = 400
        axis = (np.arange(g) + 0.5) * (top / g)
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        mask = x1 > x2
        logs = np.full((g, g), -np.inf)
        logs[mask] = log_density_identity(np.stack((x1[mask], x2[mask]), -1), m, n)
        cell = np.exp(logs - logs[mask].max())
        nb = 8
        edges = np.linspace(0.0, top, nb + 1)
        idx1 = np.clip(np.searchsorted(edges, x1.ravel(), side="right") - 1, 0, nb - 1)
        idx2 = np.clip(np.searchsorted(edges, x2.ravel(), side="right") - 1, 0, nb - 1)
        flat = idx1 * nb + idx2
        expected_p = np.bincount(flat, weights=cell.ravel(), minlength=nb * nb)
        keep = (lam1 <= top) & (lam2 <= top)
        i1 = np.clip(np.searchsorted(edges, lam1[keep], side="right") - 1, 0, nb - 1)
        i2 = np.clip(np.searchsorted(edges, lam2[keep], side="right") - 1, 0, nb - 1)
        observed = np.bincount(i1 * nb + i2, minlength=nb * nb).astype(float)

    expected_p = expected_p / expected_p.sum()
    expected = expected_p * float(observed.sum())

    # pool sparse bins so the chi-square approximation is valid
    order = np.argsort(expected)
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for k in order:
        acc_o += float(observed[k])
        acc_e += float(expected[k])
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    pooled_obs = np.array(pooled_obs)
    if len(pooled_obs) < 2:  # too few samples for a test: no statistic, no p-value
        stat = pvalue = float("nan")
    else:
        pooled_exp = np.array(pooled_exp) * (pooled_obs.sum() / sum(pooled_exp))
        stat, pvalue = stats.chisquare(pooled_obs, pooled_exp)
    return {
        "m": m,
        "n": n,
        "trials": trials,
        "bins": int(len(pooled_obs)),
        "statistic": float(stat),
        "p_value": float(pvalue),
    }
