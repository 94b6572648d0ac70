"""The Wishart density fit as it was before it sampled through
``randmat.wishart_sample`` and evaluated the stacked Sigma = I density, then
``randmat.log_density_unnormalized("identity", ...)`` and now
``randmat.log_density_identity``.  Kept as it was: its own stacked sampler
and the Sigma = I density written out inline for q = 1 and q = 2.  Only the
name is new.

The oracle of ``tests/test_randmat.py``'s differential test: the package's
``density_gof_identity`` must return the same report, bit for bit, on every
input.  The original docstring follows.
"""

from __future__ import annotations

import numpy as np

from dsdmt.randmat import _equal_mass_edges, complex_gaussian


def reference_density_gof_identity(m: int, n: int, trials: int, rng: np.random.Generator, bins: int = 20):
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
