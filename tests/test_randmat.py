"""Sampling, correlation matrices, and unnormalized density evaluation."""

import math

import numpy as np
import pytest
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
        vals = np.array([rm.wishart_sample(1, 1, sigma, rng).values[0] for _ in range(100000)])
        assert abs(vals.mean() - 1.0) < 0.02
        # exponential shape via KS against the exact CDF
        assert stats.kstest(vals, "expon").pvalue > 0.001

    def test_rank_bound(self):
        rng = rm.stream(6, 0)
        ev = rm.wishart_sample(2, 1, rm.identity_correlation(2), rng)
        assert len(ev) == 2
        nonzero = np.sum(ev.values > 1e-10 * ev.values[0])
        assert nonzero == 1

    def test_trace_mean(self):
        sigma = rm.exponential_correlation(3, 0.4)
        rng = rm.stream(7, 0)
        total = np.mean([
            rm.wishart_sample(3, 2, sigma, rng).values.sum() for _ in range(20000)
        ])
        expected = 2 * np.trace(sigma.matrix).real
        assert abs(total - expected) < 0.06 * expected

    def test_rank_deficiency_exhaustive_shapes(self):
        rng = rm.stream(8, 0)
        for m, n in [(3, 1), (3, 2), (4, 2)]:
            ev = rm.wishart_sample(m, n, rm.identity_correlation(m), rng)
            assert np.sum(ev.values > 1e-10 * ev.values[0]) == n


class TestEigenvalueVector:
    def test_sorted_descending_and_clamped(self):
        ev = rm.EigenvalueVector(np.array([1.0, 3.0, -1e-15]))
        assert ev.values.tolist() == [3.0, 1.0, 0.0]

    def test_ascending_accessor(self):
        ev = rm.EigenvalueVector(np.array([2.0, 1.0, 5.0]))
        assert ev.ascending().tolist() == [1.0, 2.0, 5.0]

    def test_rejects_genuinely_negative(self):
        with pytest.raises(ValueError):
            rm.EigenvalueVector(np.array([1.0, -0.5]))

    def test_tie_flagging(self):
        assert rm.EigenvalueVector(np.array([1.0, 1.0 - 1e-12])).has_ties()
        assert not rm.EigenvalueVector(np.array([2.0, 1.0])).has_ties()

    def test_stack_is_checked_per_vector(self):
        ev = rm.EigenvalueVector(np.array([[1.0, 3.0, -1e-15], [2.0, 5.0, 1.0]]))
        assert ev.values.tolist() == [[3.0, 1.0, 0.0], [5.0, 2.0, 1.0]]
        assert ev.ascending().tolist() == [[0.0, 1.0, 3.0], [1.0, 2.0, 5.0]]
        assert len(ev) == 3
        assert not ev.has_ties()
        assert rm.EigenvalueVector(np.array([[2.0, 1.0], [1.0, 1.0 - 1e-12]])).has_ties()
        with pytest.raises(ValueError, match="negative"):
            rm.EigenvalueVector(np.array([[1.0, 0.5], [1.0, -0.5]]))
        with pytest.raises(ValueError, match="finite"):
            rm.EigenvalueVector(np.array([[1.0, 0.5], [np.nan, 0.5]]))


class TestDensities:
    def test_identity_scalar_is_exponential(self):
        for lam in (0.3, 1.0, 2.5):
            got = rm.log_density_unnormalized("identity", None, [lam], m=1, n=1)
            assert got == pytest.approx(-lam)

    def test_identity_2x2_hand_ratio(self):
        # p(2,1)/p(3,1) = e^{-3+4} * (1/4) = e/4, by direct substitution
        lp1 = rm.log_density_unnormalized("identity", None, [2.0, 1.0], m=2, n=2)
        lp2 = rm.log_density_unnormalized("identity", None, [3.0, 1.0], m=2, n=2)
        assert math.exp(lp1 - lp2) == pytest.approx(math.e / 4)

    def test_identity_rectangular_power(self):
        # m=1, n=2: density ~ lam * e^-lam
        got = rm.log_density_unnormalized("identity", None, [2.0], m=1, n=2)
        assert got == pytest.approx(math.log(2.0) - 2.0)

    def test_full_rank_matches_identity_shape_in_limit(self):
        # nearly-identity Sigma must reproduce the Sigma = I shape up to a
        # lam-independent constant
        mu = [1.0 + 1e-5, 1.0 - 1e-5]
        pairs = [([2.0, 1.0], [3.0, 1.5]), ([1.3, 0.4], [2.0, 0.9])]
        for lam_a, lam_b in pairs:
            diff_general = rm.log_density_unnormalized(
                "full_rank_n_ge_m", mu, lam_a, n=2
            ) - rm.log_density_unnormalized("full_rank_n_ge_m", mu, lam_b, n=2)
            diff_id = rm.log_density_unnormalized(
                "identity", None, lam_a, m=2, n=2
            ) - rm.log_density_unnormalized("identity", None, lam_b, m=2, n=2)
            assert diff_general == pytest.approx(diff_id, abs=1e-4)

    def test_n_lt_m_approaches_rank_deficient(self):
        mu_pos = [3.0, 1.7]
        lam = [2.2]
        diffs = []
        for eps in (1e-2, 1e-3, 1e-4):
            full = rm.log_density_unnormalized("n_lt_m", mu_pos + [eps], lam)
            reduced = rm.log_density_unnormalized("rank_deficient", mu_pos, lam)
            diffs.append(abs(full - reduced))
        assert diffs[0] < 1e-3
        assert diffs[0] > diffs[1] > diffs[2]

    def test_tied_eigenvalues_rejected(self):
        with pytest.raises(rm.DegenerateEigenvaluesError):
            rm.log_density_unnormalized("identity", None, [1.0, 1.0 + 1e-12], m=2, n=2)
        with pytest.raises(rm.DegenerateEigenvaluesError):
            rm.log_density_unnormalized("n_lt_m", [2.0, 2.0 + 1e-11, 1.0], [0.5])

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown density kind"):
            rm.log_density_unnormalized("bogus", None, [1.0])
        with pytest.raises(ValueError):
            rm.log_density_unnormalized("full_rank_n_ge_m", [2.0, 1.0], [2.0, 1.0], n=1)
        with pytest.raises(ValueError):
            rm.log_density_unnormalized("n_lt_m", [2.0], [1.0, 0.5])


class TestSingularValues:
    def test_identity(self):
        assert rm.singular_values(np.eye(3)).values.tolist() == [1.0, 1.0, 1.0]

    def test_diagonal(self):
        assert rm.singular_values(np.diag([2.0, 1.0])).values.tolist() == [2.0, 1.0]

    def test_stack_matches_each_matrix(self):
        stack = rm.complex_gaussian((5, 3, 4), rm.stream(9, 1))
        sv = rm.singular_values(stack).values
        assert sv.shape == (5, 3)
        for mat, row in zip(stack, sv):
            assert row.tolist() == rm.singular_values(mat).values.tolist()

    def test_matches_gram_eigenvalues(self):
        a = rm.complex_gaussian((3, 3), rm.stream(9, 0))
        sv = rm.singular_values(a).values
        ew = np.sqrt(np.sort(np.linalg.eigvalsh(a @ a.conj().T))[::-1])
        assert np.allclose(sv, ew, atol=1e-10)


class TestUnitaryInvariance:
    def test_singular_value_distribution_unchanged(self):
        # transformed batch vs an independent plain batch
        rng_u = rm.stream(10, 0)
        u = rm.haar_unitary(3, rng_u)
        v = rm.haar_unitary(3, rng_u)
        a = np.stack([rm.complex_gaussian((3, 3), rm.stream(11, k)) for k in range(3000)])
        b = np.stack([rm.complex_gaussian((3, 3), rm.stream(12, k)) for k in range(3000)])
        sv_a = np.linalg.svd(u @ a @ v, compute_uv=False)[:, 0]
        sv_b = np.linalg.svd(b, compute_uv=False)[:, 0]
        assert stats.ks_2samp(sv_a, sv_b).pvalue > 0.001


class TestDensityGof:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (3, 1)])
    def test_q1_grid_is_the_identity_density(self, m, n):
        # the q = 1 fit evaluates -x + |m - n| log x over its grid in one expression
        grid = np.linspace(0.01, 30.0, 500)
        scalar = [rm.log_density_unnormalized("identity", None, [x], m=m, n=n) for x in grid]
        assert np.allclose(-grid + abs(m - n) * np.log(grid), scalar, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2)])
    def test_small_smoke(self, m, n):
        rep = rm.density_gof_identity(m, n, 20000, rm.stream(13, (m, n)))
        assert rep["p_value"] > 0.001
