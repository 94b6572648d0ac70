"""The Monte Carlo kernel that ``dsdmt.outage_sim``'s trial-innermost layout
replaced, kept verbatim.

The oracle of ``tests/test_outage_sim.py``'s exact-equality tests: here each
block is held as a (count, n_r, n_t) stack, trial axis first, so each
broadcast product runs numpy inner loops of the matrix size.  The new layout
must draw the same matrices bit for bit and give the same outage counts.
The original docstrings follow.
"""

from __future__ import annotations

import numpy as np

from dsdmt.outage_sim import ChannelSpec
from dsdmt.randmat import complex_gaussian


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, as a sum of rank-1 broadcast products
    over the inner index; either factor may be a fixed 2-d matrix."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return out


def _draw_block(spec: ChannelSpec, count: int, rng) -> np.ndarray:
    """count channel matrices, shape (count, n_r, n_t); H1 is drawn before H2."""
    t = spec.triple
    h = complex_gaussian((count, t.n_r, t.n_s), rng)
    h2 = complex_gaussian((count, t.n_s, t.n_t), rng)
    if spec.phi_r.kind != "identity":
        h = _product(spec.phi_r.sqrt, h)
    if spec.phi_s.kind != "identity":
        h = _product(h, spec.phi_s.sqrt)
    h = _product(h, h2)
    if spec.phi_t.kind != "identity":
        h = _product(h, spec.phi_t.sqrt)
    return h


def _mutual_information_block(hs: np.ndarray, gain: float) -> np.ndarray:
    """ln det(I + gain * G) per matrix, G the Gram matrix on the smaller side."""
    if min(hs.shape[1:]) > 2:  # the eigenvalues of G are the squared singular values of H
        sv = np.linalg.svd(hs, compute_uv=False)
        return np.sum(np.log1p(gain * sv**2), axis=1)
    # the rows of the smaller side; G (or its conjugate, same tr and det) is rows @ rows^H
    rows = hs if hs.shape[1] <= hs.shape[2] else np.swapaxes(hs, 1, 2)
    trace = np.sum(rows.real**2 + rows.imag**2, axis=(1, 2))
    if rows.shape[1] == 1:
        return np.log1p(gain * trace)
    h0, h1 = rows[:, 0, :], rows[:, 1, :]
    det = np.zeros(len(rows))
    for k in range(1, rows.shape[2]):  # Cauchy-Binet: sum over j < k of |minor_jk|^2
        minor = h0[:, :k] * h1[:, k : k + 1] - h0[:, k : k + 1] * h1[:, :k]
        det += np.sum(minor.real**2 + minor.imag**2, axis=1)
    return np.log1p(gain * trace + gain * gain * det)
