"""Complex Gaussian / Wishart sampling and the matching eigenvalue densities.

Densities are evaluated without their normalization constants (those play no
role in SNR exponents); shape comparisons against samples normalize
numerically.  All sampling goes through counter-based Philox streams keyed
by (seed, stream id), so Monte Carlo runs are reproducible and can be
partitioned across workers without overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateEigenvaluesError",
    "EigenvalueVector",
    "CorrelationMatrix",
    "stream",
    "complex_gaussian",
    "complex_gaussian_trials",
    "identity_correlation",
    "exponential_correlation",
    "explicit_correlation",
    "load_correlation_matrix",
    "wishart_sample",
    "log_density_unnormalized",
    "singular_values",
    "haar_unitary",
    "density_gof_identity",
]

DENSITY_KINDS = ("full_rank_n_ge_m", "n_lt_m", "identity", "rank_deficient")
TIE_TOL = 1e-9


class DegenerateEigenvaluesError(ValueError):
    """Eigenvalue arguments too close to tied; the density formula divides
    by their differences."""


def stream(seed: int, stream_id=0) -> np.random.Generator:
    """Counter-based RNG stream keyed by (seed, stream_id).

    ``stream_id`` may be an int or a tuple of ints.  Distinct ids under the
    same seed give statistically independent streams; the same pair is
    bit-reproducible across runs and processes.
    """
    key = stream_id if isinstance(stream_id, tuple) else (stream_id,)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussians of a given shape.

    All real parts are drawn before all imaginary parts.
    """
    out = np.empty(shape, dtype=complex)
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
class EigenvalueVector:
    """Nonnegative eigen/singular values sorted descending along the last
    axis; leading axes, if any, index a stack of vectors."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 0 or vals.shape[-1] == 0 or not np.all(np.isfinite(vals)):
            raise ValueError("values must be a finite array of 1-d vectors")
        scale = np.maximum(np.max(np.abs(vals), axis=-1, keepdims=True), 1.0)
        if np.any(vals < -1e-12 * scale):
            raise ValueError(f"negative eigenvalue beyond roundoff: {vals.min()}")
        vals = np.sort(np.clip(vals, 0.0, None), axis=-1)[..., ::-1].copy()
        object.__setattr__(self, "values", vals)

    def ascending(self) -> np.ndarray:
        """eta_i = sigma_{n+1-i}: the same values, smallest first."""
        return self.values[..., ::-1].copy()

    def has_ties(self, tol: float = TIE_TOL) -> bool:
        """True if two neighbours of any vector lie within tol of its largest value."""
        vals = self.values
        gaps = vals[..., :-1] - vals[..., 1:]
        return bool(np.any(gaps <= tol * np.maximum(vals[..., :1], 1.0)))

    def __len__(self) -> int:
        return int(self.values.shape[-1])


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
    mat = np.array(vals, dtype=complex).reshape(dim, dim)
    return _validated_correlation(mat, "explicit", unit_diagonal=False)


def wishart_sample(m: int, n: int, sigma: CorrelationMatrix, rng: np.random.Generator) -> EigenvalueVector:
    """Eigenvalues of W = H H^dagger with H m x n, columns CN(0, sigma)."""
    if sigma.dim != m:
        raise ValueError(f"sigma is {sigma.dim}x{sigma.dim}, expected {m}x{m}")
    h = sigma.sqrt @ complex_gaussian((m, n), rng)
    w = h @ h.conj().T
    return EigenvalueVector(np.linalg.eigvalsh(w))


def _min_gap(desc: np.ndarray) -> float:
    """Smallest gap between neighbours of a descending array (inf below two values)."""
    return float(np.min(desc[:-1] - desc[1:])) if desc.size >= 2 else float("inf")


def _prep(name: str, vals) -> np.ndarray:
    arr = np.sort(np.asarray(vals, dtype=float))[::-1]
    if arr.size == 0 or np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be positive and finite, got {vals}")
    gap = _min_gap(arr)
    if gap <= TIE_TOL * max(float(arr[0]), 1.0):
        raise DegenerateEigenvaluesError(
            f"{name} eigenvalues nearly tied (min gap {gap:.3e}); density is singular there"
        )
    return arr


# The Xi matrix and the log-Vandermonde are written over scalar operations,
# with exp and log passed in, so that the same code builds them from floats
# (numpy) and from mpmath numbers (mp.exp, mp.log) in lemma_verify.

def _log_vandermonde(vals, log=np.log):
    """sum over i < j of log |vals_i - vals_j|, in that pair order."""
    return sum(log(abs(a - b)) for i, a in enumerate(vals) for b in vals[i + 1 :])


def xi_matrix(mu, lam, exp=np.exp) -> list:
    """The mixed power/exponential matrix driving the n < m density, as rows.

    Rows follow mu; columns are mu^0 .. mu^(p-n-1) followed by
    mu^(p-n-1) * exp(-lam_j / mu) for each of the n lambdas (p = len(mu)).
    For p = n there are no pure power columns and the prefactor is 1/mu.
    """
    p, n = len(mu), len(lam)
    if p < n:
        raise ValueError(f"need len(mu) >= len(lam), got {p} < {n}")
    return [[x**e for e in range(p - n)] + [x ** (p - n - 1) * exp(-y / x) for y in lam]
            for x in mu]


def log_density_unnormalized(kind: str, mu, lam, *, m: int | None = None, n: int | None = None) -> float:
    """Log of the ordered-eigenvalue density, constants dropped.

    kind selects the regime:

    * "full_rank_n_ge_m": W ~ W_m(n, Sigma) with n >= m; mu are the m
      eigenvalues of Sigma, lam the m eigenvalues of W; pass n.
    * "n_lt_m": n < m; mu has m entries, lam has n.
    * "identity": Sigma = I; pass both m and n, lam has min(m, n) entries.
    * "rank_deficient": Sigma with l positive eigenvalues (mu) and the rest
      zero, l >= len(lam); the zero eigenvalues drop out of the shape.

    Eigenvalues closer than TIE_TOL (relative) are rejected: the formulas
    divide by their differences.
    """
    if kind not in DENSITY_KINDS:
        raise ValueError(f"unknown density kind {kind!r}; expected one of {DENSITY_KINDS}")

    if isinstance(lam, EigenvalueVector):
        lam = lam.values
    if isinstance(mu, EigenvalueVector):
        mu = mu.values

    if kind == "identity":
        lam = _prep("lam", lam)
        if m is None or n is None:
            raise ValueError("identity kind needs both m and n")
        q = min(m, n)
        if lam.size != q:
            raise ValueError(f"expected {q} eigenvalues, got {lam.size}")
        return float(-np.sum(lam) + abs(m - n) * np.sum(np.log(lam)) + 2.0 * _log_vandermonde(lam))

    lam = _prep("lam", lam)
    mu = _prep("mu", mu)

    if kind == "full_rank_n_ge_m":
        mm = mu.size
        if lam.size != mm:
            raise ValueError(f"expected {mm} eigenvalues of W, got {lam.size}")
        if n is None or n < mm:
            raise ValueError(f"full-rank kind needs degrees of freedom n >= m = {mm}")
        sign, logdet = np.linalg.slogdet(np.exp(-lam[None, :] / mu[:, None]))
        if sign == 0:
            raise DegenerateEigenvaluesError("exp-matrix determinant underflowed to zero")
        return float(
            logdet
            + (mm - n - 1) * np.sum(np.log(mu))
            + (n - mm) * np.sum(np.log(lam))
            + _log_vandermonde(lam)
            - _log_vandermonde(mu)
        )

    # "n_lt_m" and "rank_deficient" share the Xi-based shape; the only
    # difference is whether mu carries all m eigenvalues or just the
    # positive ones of a rank-deficient correlation.
    if kind == "n_lt_m" and lam.size >= mu.size:
        raise ValueError(f"n_lt_m kind needs len(lam) < len(mu), got {lam.size} >= {mu.size}")
    sign, logdet = np.linalg.slogdet(np.array(xi_matrix(mu, lam)))
    if sign == 0:
        raise DegenerateEigenvaluesError("Xi determinant underflowed to zero")
    return float(logdet - _log_vandermonde(mu) + _log_vandermonde(lam))


def singular_values(a) -> EigenvalueVector:
    """Descending singular values of a matrix, or of each matrix of a stack
    (..., r, c); ascending order via .ascending()."""
    return EigenvalueVector(np.linalg.svd(np.asarray(a), compute_uv=False))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(complex_gaussian((dim, dim), rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _equal_mass_edges(grid: np.ndarray, weights: np.ndarray, bins: int) -> np.ndarray:
    cdf = np.cumsum(weights)
    cdf = cdf / cdf[-1]
    targets = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.interp(targets, cdf, grid)
    return np.concatenate(([grid[0]], edges, [grid[-1]]))


def density_gof_identity(m: int, n: int, trials: int, rng: np.random.Generator, bins: int = 20):
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
    h = complex_gaussian((trials, m, n), rng)
    w = h @ np.conj(np.swapaxes(h, 1, 2))
    eig = np.linalg.eigvalsh(w)[:, ::-1][:, :q]  # descending, top q

    if q == 1:
        lam = eig[:, 0]
        top = float(np.quantile(lam, 0.999)) * 1.2
        grid = np.linspace(top / 4000.0, top, 4000)
        logpdf = -grid + abs(m - n) * np.log(grid)  # the "identity" log density at q = 1
        pdf = np.exp(logpdf - logpdf.max())
        weights = pdf * np.gradient(grid)
        edges = _equal_mass_edges(grid, weights, bins)
        inside = lam[(lam >= grid[0]) & (lam <= top)]
        observed, _ = np.histogram(inside, bins=edges)
        cell_prob = weights / weights.sum()
        bin_idx = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, bins - 1)
        expected_p = np.bincount(bin_idx, weights=cell_prob, minlength=bins)
    else:
        lam1, lam2 = eig[:, 0], eig[:, 1]
        top = float(np.quantile(lam1, 0.999)) * 1.2
        g = 400
        axis = (np.arange(g) + 0.5) * (top / g)
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        mask = x1 > x2
        logs = np.full((g, g), -np.inf)
        diff = np.where(mask, x1 - x2, 1.0)
        logs[mask] = (
            -(x1 + x2)[mask]
            + abs(m - n) * (np.log(x1) + np.log(x2))[mask]
            + 2.0 * np.log(diff)[mask]
        )
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
        inside = lam1[keep]

    expected_p = expected_p / expected_p.sum()
    n_in = float(len(inside)) if q == 1 else float(observed.sum())
    expected = expected_p * n_in

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
