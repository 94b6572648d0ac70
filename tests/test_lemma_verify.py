"""Singular-value inequality checks and extended-precision asymptotics."""

import math

import numpy as np
import pytest
from mpmath import mp

from dsdmt import lemma_verify as lv
from dsdmt.randmat import _log_vandermonde, stream, xi_matrix


class TestLemma4:
    def test_identity_equality(self):
        rep = lv.check_lemma4(np.eye(3), np.eye(3))
        assert rep.passed and rep.cases == 12  # 6 (i,j) pairs, two bounds each

    def test_diagonal_hand_case(self):
        # sigma2(AB) = 1 <= sigma1(A) sigma2(B) = 2; sigma1(AB) = 6 <= 6
        rep = lv.check_lemma4(np.diag([2.0, 1.0]), np.diag([3.0, 1.0]))
        assert rep.passed

    def test_random_batch(self):
        rep = lv.lemma4_suite(500, 4, stream(100, 0))
        assert not rep["violations"]
        assert rep["cases"] > 0

    def test_singular_input_skipped(self):
        rep = lv.check_lemma4(np.diag([1.0, 0.0]), np.eye(2))
        assert rep.skipped is not None
        assert not rep.passed


class TestProp1:
    def test_identity_transform(self):
        m = np.arange(6, dtype=float).reshape(3, 2) + 1
        rep = lv.check_prop1(m, np.eye(3))
        assert rep.passed and rep.worst_residual <= 1e-12

    def test_scalar_scaling(self):
        m = np.arange(6, dtype=float).reshape(3, 2) + 1
        rep = lv.check_prop1(m, 2.0 * np.eye(3))
        assert rep.passed

    def test_random_batch(self):
        rep = lv.prop1_suite(500, 3, 5, stream(101, 0))
        assert not rep["violations"]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lv.check_prop1(np.zeros((2, 2)), np.zeros((3, 3)))


class TestExponentPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            lv.ExponentPair(alpha=(0.9, 0.5), beta=(0.1, 0.2))  # not sorted
        with pytest.raises(ValueError):
            lv.ExponentPair(alpha=(0.5, 0.9), beta=(-0.1, 0.2))  # negative beta
        with pytest.raises(ValueError):
            lv.ExponentPair(alpha=(0.1, 0.9), beta=(0.2, 0.3))  # alpha < beta


class TestLemma1:
    def test_l1_trivial(self):
        fit = lv.check_lemma1_exponent(lv.ExponentPair(alpha=(0.5,), beta=(0.2,)), digits=40)
        assert fit.predicted_exponent == 0.0
        assert abs(fit.measured_exponent) <= 0.05

    def test_l2_standard_case(self):
        ep = lv.ExponentPair(alpha=(0.5, 0.9), beta=(0.1, 0.3))
        fit = lv.check_lemma1_exponent(ep, digits=60)
        assert fit.predicted_exponent == pytest.approx(-0.2)
        assert fit.residual <= 0.05

    def test_l2_zero_prediction(self):
        ep = lv.ExponentPair(alpha=(0.2, 0.9), beta=(0.1, 0.3))
        fit = lv.check_lemma1_exponent(ep, digits=60)
        assert fit.predicted_exponent == 0.0
        assert fit.residual <= 0.05

    def test_precision_contract(self):
        ep = lv.LEMMA1_CASES["l2-hard"]
        with pytest.raises(lv.PrecisionLossError, match="increase"):
            lv.check_lemma1_exponent(ep, digits=30)
        fit = lv.check_lemma1_exponent(ep, digits=60)
        assert fit.residual <= 0.05

    def test_grid_contract(self):
        ep = lv.ExponentPair(alpha=(0.5,), beta=(0.2,))
        with pytest.raises(ValueError, match="8 decades"):
            lv.check_lemma1_exponent(ep, snr_grid=[1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9])

    def test_strictness_required(self):
        with pytest.raises(ValueError, match="strict"):
            lv.check_lemma1_exponent(lv.ExponentPair(alpha=(0.5, 0.9), beta=(0.3, 0.9)))


class TestLemma2:
    def test_2_1_2_against_direct_hand_formula(self):
        # Xi is [[1, e^-lam/mu1], [1, e^-lam/mu2]]; its determinant's
        # exponent is -(alpha1 - beta2)^+ by direct expansion
        fit = lv.check_lemma2_exponent((0.1, 0.2), (0.5,), (2, 1, 2), digits=60)
        assert fit.predicted_exponent == pytest.approx(-0.3)
        assert fit.residual <= 0.05

    def test_power_columns_enter(self):
        # l - n - 1 = 1: the mu power columns contribute beta1 + beta2
        fit = lv.check_lemma2_exponent((0.1, 0.2, 0.4), (0.6,), (3, 1, 3), digits=60)
        assert fit.predicted_exponent == pytest.approx(-0.9)
        assert fit.residual <= 0.05

    def test_dims_contract(self):
        with pytest.raises(ValueError, match="n < l <= m"):
            lv.check_lemma2_exponent((0.1, 0.2), (0.5,), (1, 1, 2))

    def test_fit_stability_under_denser_grid(self):
        dense = tuple(10.0 ** (4 + 0.5 * k) for k in range(17))
        fit_a = lv.check_lemma2_exponent((0.1, 0.2), (0.5,), (2, 1, 2), digits=60)
        fit_b = lv.check_lemma2_exponent((0.1, 0.2), (0.5,), (2, 1, 2), snr_grid=dense, digits=60)
        assert abs(fit_a.measured_exponent - fit_b.measured_exponent) < 1e-2


class TestSharedXi:
    def test_float_and_mpf_paths_agree(self):
        # one builder serves the numpy density and the mpmath lemma checks
        (m, _, l), mu_pos, lam = lv.LEMMA3_CASES["m4l2n2"]
        mu = list(mu_pos) + [1e-2 * c for c in lv._EPS_MULTIPLIERS[: m - l]]
        _, logdet = np.linalg.slogdet(np.array(xi_matrix(mu, lam)))
        as_float = logdet - _log_vandermonde(mu)
        with mp.workdps(40):
            mu_mp, lam_mp = [mp.mpf(v) for v in mu], [mp.mpf(v) for v in lam]
            det = mp.det(mp.matrix(xi_matrix(mu_mp, lam_mp, mp.exp)))
            as_mpf = float(mp.log(abs(det)) - _log_vandermonde(mu_mp, mp.log))
        assert as_float == pytest.approx(as_mpf, rel=1e-12)


class TestLemma3:
    def test_2_1_1_hand_formula(self):
        # LHS = (e^{-lam/mu} - e^{-lam/eps})/(mu - eps), RHS = e^{-lam/mu}/mu
        mu, lam = 1.0, 1.3
        eps_grid = (1e-2, 1e-3, 1e-4)
        rep = lv.check_lemma3_limit((mu,), (lam,), (2, 1, 1), eps_grid, digits=60)
        for eps, ratio in zip(eps_grid, rep["ratios"]):
            with mp.workdps(60):
                lhs = (mp.exp(-lam / mu) - mp.exp(-lam / eps)) / (mu - eps)
                want = float(lhs / (mp.exp(-lam / mu) / mu))
            assert ratio == pytest.approx(want, rel=1e-12)

    def test_3_2_1_acceptance_case(self):
        rep = lv.check_lemma3_limit((2.0, 1.0), (1.5,), (3, 1, 2),
                                    (1e-2, 1e-3, 1e-4, 1e-5), digits=60)
        errors = rep["errors"]
        assert abs(rep["ratios"][2] - 1.0) < 0.01  # eps = 1e-4
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_eps_precondition(self):
        with pytest.raises(ValueError, match="below the smallest"):
            lv.check_lemma3_limit((1.0,), (1.3,), (2, 1, 1), (2.0, 1.0))

    def test_descending_grid_required(self):
        with pytest.raises(ValueError, match="descending"):
            lv.check_lemma3_limit((1.0,), (1.3,), (2, 1, 1), (1e-4, 1e-3))


class TestSuites:
    def test_lemma1_suite_passes(self):
        rep = lv.lemma1_suite(digits=60)
        assert not rep["violations"], rep

    def test_lemma2_suite_passes(self):
        rep = lv.lemma2_suite(digits=60)
        assert not rep["violations"], rep

    def test_lemma3_suite_passes(self):
        rep = lv.lemma3_suite(digits=60)
        assert not rep["violations"], rep

    def test_report_shape(self):
        rep = lv.lemma1_suite(digits=60)
        assert {"check", "cases", "violations", "worst_residual", "precision_digits"} <= rep.keys()
