"""Sampling, correlation matrices, and the unnormalized Sigma = I density."""

import math

import numpy as np
import pytest
from gof_reference import reference_density_gof_identity
from scipy import stats

from dsdmt import randmat as rm


class TestStreams:
    def test_fixed_seed_bit_identical(self):
        a = rm.complex_gaussian((3, 2), rm.stream(17, 4))
        b = rm.complex_gaussian((3, 2), rm.stream(17, 4))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = rm.complex_gaussian((3, 2), rm.stream(17, 4))
        b = rm.complex_gaussian((3, 2), rm.stream(17, 5))
        c = rm.complex_gaussian((3, 2), rm.stream(18, 4))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_tuple_ids(self):
        a = rm.stream(1, (2, 3)).standard_normal(4)
        b = rm.stream(1, (2, 3)).standard_normal(4)
        c = rm.stream(1, (3, 2)).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestComplexGaussian:
    def test_stream_layout(self):
        # all real parts, then all imaginary parts, each scaled by sqrt(1/2)
        rng = rm.stream(3, (1, 2))
        re = rng.standard_normal((64, 2, 3))
        im = rng.standard_normal((64, 2, 3))
        h = rm.complex_gaussian((64, 2, 3), rm.stream(3, (1, 2)))
        assert np.array_equal(h.view(float), (math.sqrt(0.5) * (re + 1j * im)).view(float))

    @pytest.mark.parametrize("shapes", [[(4, 4), (4, 4)], [(3, 3), (3, 5)], [(2, 3)]])
    def test_trials_are_the_sequential_draws(self, shapes):
        rng, seq = rm.stream(4, (5, 6)), rm.stream(4, (5, 6))
        stacks = rm.complex_gaussian_trials(7, shapes, rng)
        rounds = [[rm.complex_gaussian(shape, seq) for shape in shapes] for _ in range(7)]
        for k, stack in enumerate(stacks):
            assert stack.shape == (7, *shapes[k])
            want = np.stack([r[k] for r in rounds])
            assert np.array_equal(stack.view(float), want.view(float))
        assert rng.standard_normal(5).tolist() == seq.standard_normal(5).tolist()
        assert rng.bit_generator.state["state"]["counter"].tolist() == \
            seq.bit_generator.state["state"]["counter"].tolist()

    def test_unit_variance(self):
        h = rm.complex_gaussian((100000,), rm.stream(1, 0))
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02

    def test_component_independence(self):
        h = rm.complex_gaussian((2, 2), rm.stream(2, 0))
        hs = np.stack([rm.complex_gaussian((2, 2), rm.stream(2, k)) for k in range(20000)])
        # E[h_00 conj(h_11)] = 0, E[|h_ij|^2] = 1
        cross = np.mean(hs[:, 0, 0] * np.conj(hs[:, 1, 1]))
        assert abs(cross) < 0.02
        assert np.allclose(np.mean(np.abs(hs) ** 2, axis=0), 1.0, atol=0.05)
        assert h.shape == (2, 2)


class TestCorrelationMatrices:
    def test_exponential_zero_is_identity(self):
        c = rm.exponential_correlation(3, 0.0)
        assert np.array_equal(c.matrix, np.eye(3))

    def test_exponential_half(self):
        c = rm.exponential_correlation(2, 0.5)
        assert np.allclose(c.matrix, [[1, 0.5], [0.5, 1]])

    def test_sqrt_reconstructs(self):
        c = rm.exponential_correlation(4, 0.7)
        err = np.linalg.norm(c.sqrt @ c.sqrt.conj().T - c.matrix)
        assert err < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            rm.explicit_correlation([[1.0, 0.5], [0.1, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN compares False both ways, so the Hermitian and definiteness checks let it through
        with pytest.raises(ValueError, match="non-finite"):
            rm.explicit_correlation([[1.0, bad], [bad, 1.0]])

    def test_rejects_non_pd_and_reports_eigenvalue(self):
        with pytest.raises(ValueError, match="positive definite"):
            rm.explicit_correlation([[1.0, 1.0], [1.0, 1.0]])

    def test_rho_range(self):
        with pytest.raises(ValueError):
            rm.exponential_correlation(2, 1.0)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "corr.txt"
        path.write_text("2\n1,0 0.3,-0.2\n0.3,0.2 1,0\n")
        c = rm.load_correlation_matrix(path)
        assert c.dim == 2
        assert c.matrix[0, 1] == pytest.approx(0.3 - 0.2j)
        assert c.matrix[1, 0] == pytest.approx(0.3 + 0.2j)

    def test_file_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1,0 0,0\n")
        with pytest.raises(ValueError, match="expected 4 entries"):
            rm.load_correlation_matrix(path)


class TestWishartSample:
    def test_scalar_is_unit_exponential(self):
        rng = rm.stream(5, 0)
        sigma = rm.identity_correlation(1)
        vals = rm.wishart_sample(1, 1, sigma, 100000, rng)[:, 0]
        assert abs(vals.mean() - 1.0) < 0.02
        # exponential shape via KS against the exact CDF
        assert stats.kstest(vals, "expon").pvalue > 0.001

    def test_rank_bound(self):
        rng = rm.stream(6, 0)
        ev = rm.wishart_sample(2, 1, rm.identity_correlation(2), 1000, rng)
        assert ev.shape == (1000, 2)
        nonzero = np.sum(ev > 1e-10 * ev[:, :1], axis=-1)
        assert np.all(nonzero == 1)

    def test_trace_mean(self):
        sigma = rm.exponential_correlation(3, 0.4)
        rng = rm.stream(7, 0)
        total = rm.wishart_sample(3, 2, sigma, 20000, rng).sum(axis=-1).mean()
        expected = 2 * np.trace(sigma.matrix).real
        assert abs(total - expected) < 0.06 * expected

    def test_rank_deficiency_exhaustive_shapes(self):
        rng = rm.stream(8, 0)
        for m, n in [(3, 1), (3, 2), (4, 2)]:
            ev = rm.wishart_sample(m, n, rm.identity_correlation(m), 1000, rng)
            assert np.all(np.sum(ev > 1e-10 * ev[:, :1], axis=-1) == n)

    @pytest.mark.parametrize("sigma", [rm.identity_correlation(3), rm.exponential_correlation(3, 0.6)])
    def test_stack_is_one_draw_of_every_h(self, sigma):
        # one complex_gaussian stack; a non-identity sigma is multiplied in per trial
        ev = rm.wishart_sample(3, 2, sigma, 50, rm.stream(9, 2))
        h = rm.complex_gaussian((50, 3, 2), rm.stream(9, 2))
        want = [np.sort(np.linalg.eigvalsh((sigma.sqrt @ x) @ (sigma.sqrt @ x).conj().T))[::-1]
                for x in h]
        assert ev.shape == (50, 3)
        assert np.allclose(ev, np.clip(want, 0.0, None), rtol=1e-12, atol=1e-12)

    def test_sigma_must_match_m(self):
        with pytest.raises(ValueError, match="expected 3x3"):
            rm.wishart_sample(3, 2, rm.identity_correlation(2), 10, rm.stream(9, 3))


class TestEigenvalueVector:
    """wishart_sample's _eigenvalue_vectors: eigvalsh's ascending output per
    vector, reversed, clipped at 0 and checked."""

    def test_sorted_descending_and_clamped(self):
        ev = rm._eigenvalue_vectors(np.array([-1e-15, 1.0, 3.0]))
        assert ev.tolist() == [3.0, 1.0, 0.0]
        assert not np.signbit(ev).any()  # -1e-15 comes out as +0.0

    def test_rejects_genuinely_negative(self):
        with pytest.raises(ValueError, match="negative eigenvalue beyond roundoff: -0.5"):
            rm._eigenvalue_vectors(np.array([-0.5, 1.0]))

    def test_stack_is_checked_per_vector(self):
        ev = rm._eigenvalue_vectors(np.array([[-1e-15, 1.0, 3.0], [1.0, 2.0, 5.0]]))
        assert ev.tolist() == [[3.0, 1.0, 0.0], [5.0, 2.0, 1.0]]
        # the roundoff bound is 1e-12 of each vector's own scale (at least 1)
        big = np.array([[-1e-9, 1.0, 1e4], [-1e-9, 0.5, 1.0]])
        assert rm._eigenvalue_vectors(big[:1]).tolist() == [[1e4, 1.0, 0.0]]
        with pytest.raises(ValueError, match="negative"):
            rm._eigenvalue_vectors(big)
        with pytest.raises(ValueError, match="negative"):
            rm._eigenvalue_vectors(np.array([[0.5, 1.0], [-0.5, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rm._eigenvalue_vectors(np.array([[0.5, 1.0], [bad, 0.5]]))


def full_rank_log_density(mu, lam, n):
    """The general-Sigma density of W ~ W_m(n, Sigma), n >= m, constants
    dropped: mu the m eigenvalues of Sigma, lam the m eigenvalues of W, both
    descending.  An independent oracle for the Sigma = I shape."""
    mu, lam = np.asarray(mu, dtype=float), np.asarray(lam, dtype=float)
    m = mu.size
    sign, logdet = np.linalg.slogdet(np.exp(-lam[None, :] / mu[:, None]))
    assert sign != 0
    return float(logdet + (m - n - 1) * np.sum(np.log(mu)) + (n - m) * np.sum(np.log(lam))
                 + rm._log_vandermonde(lam) - rm._log_vandermonde(mu))


class TestDensities:
    def test_identity_scalar_is_exponential(self):
        for lam in (0.3, 1.0, 2.5):
            got = rm.log_density_identity([lam], 1, 1)
            assert got == pytest.approx(-lam)

    def test_identity_2x2_hand_ratio(self):
        # p(2,1)/p(3,1) = e^{-3+4} * (1/4) = e/4, by direct substitution
        lp1 = rm.log_density_identity([2.0, 1.0], 2, 2)
        lp2 = rm.log_density_identity([3.0, 1.0], 2, 2)
        assert math.exp(lp1 - lp2) == pytest.approx(math.e / 4)

    def test_identity_rectangular_power(self):
        # m=1, n=2: density ~ lam * e^-lam
        got = rm.log_density_identity([2.0], 1, 2)
        assert got == pytest.approx(math.log(2.0) - 2.0)

    def test_full_rank_matches_identity_shape_in_limit(self):
        # nearly-identity Sigma must reproduce the Sigma = I shape up to a
        # lam-independent constant
        mu = [1.0 + 1e-5, 1.0 - 1e-5]
        pairs = [([2.0, 1.0], [3.0, 1.5]), ([1.3, 0.4], [2.0, 0.9])]
        for lam_a, lam_b in pairs:
            diff_general = full_rank_log_density(mu, lam_a, 2) - full_rank_log_density(mu, lam_b, 2)
            diff_id = rm.log_density_identity(lam_a, 2, 2) - rm.log_density_identity(lam_b, 2, 2)
            assert diff_general == pytest.approx(diff_id, abs=1e-4)

    def test_tied_eigenvalues_rejected(self):
        with pytest.raises(rm.DegenerateEigenvaluesError):
            rm.log_density_identity([1.0, 1.0 + 1e-12], 2, 2)

    def test_wrong_length_rejected(self):
        for lam, m, n in (([2.0, 1.0], 1, 3), ([2.0], 2, 2), ([[3.0, 2.0, 1.0]], 3, 2)):
            with pytest.raises(ValueError, match="expected"):
                rm.log_density_identity(lam, m, n)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 2)])
    def test_identity_stack_is_the_scalar_calls(self, m, n):
        q = min(m, n)
        lam = rm.stream(14, (m, n)).uniform(0.01, 30.0, (4, 25, q))
        got = rm.log_density_identity(lam, m, n)
        assert got.shape == (4, 25)
        want = [[rm.log_density_identity(v, m, n) for v in row] for row in lam]
        assert got.tolist() == want  # bit equality, vector by vector

    def test_prep_sorts_only_what_is_unsorted(self):
        lam = [[3.0, 1.0, 2.0], [1.0, 2.0, 3.0], [6.0, 5.0, 4.0]]
        want = [[3.0, 2.0, 1.0], [3.0, 2.0, 1.0], [6.0, 5.0, 4.0]]
        assert rm._prep(lam).tolist() == want
        assert rm._prep(lam[::2]).tolist() == want[::2]
        assert rm._prep(lam[0]).tolist() == want[0]
        assert rm._prep(lam[2]).tolist() == want[2]
        assert rm._prep(want).tolist() == want

    @pytest.mark.parametrize("bad,error", [
        ([3.0, 3.0 + 1e-12], rm.DegenerateEigenvaluesError),
        ([3.0, 0.0], ValueError),
        ([np.nan, 1.0], ValueError),
    ])
    def test_identity_stack_rejects_one_bad_vector(self, bad, error):
        lam = np.array([[2.0, 1.0], [5.0, 0.5], bad, [4.0, 3.0]])
        with pytest.raises(error):
            rm.log_density_identity(lam, 2, 2)
        assert np.all(np.isfinite(rm.log_density_identity(lam[[0, 1, 3]], 2, 2)))


class TestSingularValues:
    def test_identity(self):
        assert rm.singular_values(np.eye(3)).tolist() == [1.0, 1.0, 1.0]

    def test_diagonal(self):
        assert rm.singular_values(np.diag([2.0, 1.0])).tolist() == [2.0, 1.0]
        assert rm.singular_values(np.diag([1.0, -2.0])).tolist() == [2.0, 1.0]

    def test_stack_matches_each_matrix(self):
        stack = rm.complex_gaussian((5, 3, 4), rm.stream(9, 1))
        sv = rm.singular_values(stack)
        assert sv.shape == (5, 3)
        for mat, row in zip(stack, sv):
            assert row.tolist() == np.linalg.svd(mat, compute_uv=False).tolist()
            assert np.all(row[:-1] >= row[1:]) and row[-1] >= 0

    def test_matches_gram_eigenvalues(self):
        a = rm.complex_gaussian((3, 3), rm.stream(9, 0))
        sv = rm.singular_values(a)
        ew = np.sqrt(np.sort(np.linalg.eigvalsh(a @ a.conj().T))[::-1])
        assert np.allclose(sv, ew, atol=1e-10)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rm.complex_gaussian((dim, dim), rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestUnitaryInvariance:
    def test_singular_value_distribution_unchanged(self):
        # transformed batch vs an independent plain batch
        rng_u = rm.stream(10, 0)
        u = haar_unitary(3, rng_u)
        v = haar_unitary(3, rng_u)
        a = np.stack([rm.complex_gaussian((3, 3), rm.stream(11, k)) for k in range(3000)])
        b = np.stack([rm.complex_gaussian((3, 3), rm.stream(12, k)) for k in range(3000)])
        sv_a = np.linalg.svd(u @ a @ v, compute_uv=False)[:, 0]
        sv_b = np.linalg.svd(b, compute_uv=False)[:, 0]
        assert stats.ks_2samp(sv_a, sv_b).pvalue > 0.001


class TestDensityGof:
    @pytest.mark.parametrize("trials", [50, 2000])
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (1, 2), (3, 1), (2, 3)])
    def test_matches_the_inline_reference(self, m, n, trials):
        for seed in (1, 2, 3):
            got = rm.density_gof_identity(m, n, trials, rm.stream(seed, (50, m, n)))
            want = reference_density_gof_identity(m, n, trials, rm.stream(seed, (50, m, n)))
            assert repr(got) == repr(want)  # float repr round-trips: bit equality, NaN included

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2)])
    def test_small_smoke(self, m, n):
        rep = rm.density_gof_identity(m, n, 20000, rm.stream(13, (m, n)))
        assert rep["p_value"] > 0.001
