"""Singular-value inequality checks and extended-precision asymptotics."""

import functools
import math

import numpy as np
import pytest
from mpmath import mp

from dsdmt import lemma_verify as lv
from dsdmt.randmat import _log_vandermonde, complex_gaussian, singular_values, stream, xi_matrix


# Reference oracles: the trial suites as one draw, one check and one SVD per
# matrix at a time.  The batched suites must reproduce them exactly.

def reference_condition_number(mat) -> float:
    sv = singular_values(mat).values
    return float("inf") if sv[-1] == 0 else float(sv[0] / sv[-1])


def reference_check_lemma4(a, b, rel_slack=lv.INEQ_SLACK) -> lv.CheckReport:
    m = a.shape[0]
    report = lv.CheckReport(check="lemma4", cases=0)
    if max(reference_condition_number(a), reference_condition_number(b)) > lv.COND_LIMIT:
        report.skipped = f"condition number above {lv.COND_LIMIT:.0e}"
        return report
    sa = singular_values(a).values
    sb = singular_values(b).values
    sab = singular_values(a @ b)
    desc, asc = sab.values, sab.ascending()
    ea, eb = sa[::-1], sb[::-1]
    for i in range(1, m + 1):
        for j in range(1, m + 2 - i):
            report.cases += 2
            hi = sa[i - 1] * sb[j - 1]
            lo = ea[i - 1] * eb[j - 1]
            rel_up = float(desc[i + j - 2] / hi - 1.0)
            rel_dn = float(1.0 - asc[i + j - 2] / lo)
            report.worst_residual = max(report.worst_residual, rel_up, rel_dn)
            if rel_up > rel_slack:
                report.violations.append(
                    {"kind": "upper", "i": i, "j": j, "lhs": float(desc[i + j - 2]), "rhs": float(hi)})
            if rel_dn > rel_slack:
                report.violations.append(
                    {"kind": "lower", "i": i, "j": j, "lhs": float(asc[i + j - 2]), "rhs": float(lo)})
    return report


def reference_check_prop1(m_mat, t_mat, rel_slack=lv.INEQ_SLACK) -> lv.CheckReport:
    report = lv.CheckReport(check="prop1", cases=0)
    if reference_condition_number(t_mat) > lv.COND_LIMIT:
        report.skipped = f"T condition number above {lv.COND_LIMIT:.0e}"
        return report
    st = singular_values(t_mat).values
    sm = singular_values(m_mat).values
    stm = singular_values(t_mat @ m_mat).values
    for i, (s, s_prod) in enumerate(zip(sm, stm), start=1):
        report.cases += 1
        lo, hi = s * st[-1], s * st[0]
        rel = max(float(lo / s_prod - 1.0), float(s_prod / hi - 1.0))
        report.worst_residual = max(report.worst_residual, rel)
        if rel > rel_slack:
            report.violations.append({"i": i, "lhs": float(lo), "mid": float(s_prod), "rhs": float(hi)})
    return report


def reference_random_nonsingular(dim, rng, cols=None):
    while True:
        mat = complex_gaussian((dim, cols if cols is not None else dim), rng)
        if cols is not None and cols != dim:
            return mat
        if reference_condition_number(mat) < lv.COND_LIMIT:
            return mat


def reference_trial_suite(check, run, trials, draw, **shape) -> dict:
    cases = 0
    violations = []
    worst = 0.0
    for t in range(trials):
        rep = run(*draw())
        if rep.skipped:
            continue
        cases += rep.cases
        worst = max(worst, rep.worst_residual)
        if rep.violations:
            violations.append({"trial": t, "violations": rep.violations})
    return {"check": check, "trials": trials, **shape, "cases": cases,
            "violations": violations, "worst_residual": worst}


def reference_lemma4_suite(trials, dim, rng, rel_slack=lv.INEQ_SLACK) -> dict:
    def draw():  # A, then B
        return reference_random_nonsingular(dim, rng), reference_random_nonsingular(dim, rng)

    run = functools.partial(reference_check_lemma4, rel_slack=rel_slack)
    return reference_trial_suite("lemma4", run, trials, draw, dim=dim)


def reference_prop1_suite(trials, dim, cols, rng, rel_slack=lv.INEQ_SLACK) -> dict:
    def draw():  # T, then M
        t_mat = reference_random_nonsingular(dim, rng)
        return reference_random_nonsingular(dim, rng, cols=cols), t_mat

    run = functools.partial(reference_check_prop1, rel_slack=rel_slack)
    return reference_trial_suite("prop1", run, trials, draw, dim=dim, cols=cols)


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


# (suite, reference, shape arguments): the shapes of `dmt verify` and of criterion 5
SUITE_CASES = [
    (lv.lemma4_suite, reference_lemma4_suite, (4,)),
    (lv.lemma4_suite, reference_lemma4_suite, (3,)),
    (lv.prop1_suite, reference_prop1_suite, (3, 5)),
    (lv.prop1_suite, reference_prop1_suite, (4, 6)),
]
SUITE_IDS = ["lemma4-4", "lemma4-3", "prop1-3x5", "prop1-4x6"]


def plain_state(rng):
    """The generator state with its arrays as lists, comparable with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def run_both(suite, reference, shape, trials, seed):
    """The batched and the reference suite on one stream each; their reports
    and the generator states they leave."""
    rng, ref_rng = stream(seed, 7), stream(seed, 7)
    got = suite(trials, *shape, rng)
    want = reference(trials, *shape, ref_rng)
    return got, want, plain_state(rng), plain_state(ref_rng)


class TestBatchedSuites:
    @pytest.mark.parametrize("suite,reference,shape", SUITE_CASES, ids=SUITE_IDS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference(self, suite, reference, shape, seed, monkeypatch):
        monkeypatch.setattr(lv, "_CHUNK", 64)  # 150 trials: two full chunks and a part
        got, want, state, ref_state = run_both(suite, reference, shape, 150, seed)
        assert got == want
        assert state == ref_state

    @pytest.mark.parametrize("suite,reference,shape", SUITE_CASES[::2], ids=SUITE_IDS[::2])
    def test_matches_reference_at_full_chunk(self, suite, reference, shape):
        got, want, state, ref_state = run_both(suite, reference, shape, lv._CHUNK + 100, 4)
        assert got == want
        assert state == ref_state

    @pytest.mark.parametrize("suite,reference,shape",
                             SUITE_CASES + [(lv.prop1_suite, reference_prop1_suite, (3, 3))],
                             ids=SUITE_IDS + ["prop1-3x3"])
    def test_rejections_follow_the_sequential_draw(self, suite, reference, shape, monkeypatch):
        # at this limit a good share of square draws is rejected and redrawn
        monkeypatch.setattr(lv, "COND_LIMIT", 10.0)
        monkeypatch.setattr(lv, "_CHUNK", 32)
        draws = []
        monkeypatch.setattr(lv, "_random_nonsingular", _recording(lv._random_nonsingular, draws))
        got, want, state, ref_state = run_both(suite, reference, shape, 80, 5)
        assert draws, "no draw was rejected"
        assert got == want
        assert state == ref_state

    @pytest.mark.parametrize("suite,reference,shape", SUITE_CASES, ids=SUITE_IDS)
    def test_violations_carry_their_trial(self, suite, reference, shape, monkeypatch):
        # with a negative slack every case is a violation, so every trial is listed
        name = "check_lemma4" if suite is lv.lemma4_suite else "check_prop1"
        monkeypatch.setattr(lv, name, functools.partial(getattr(lv, name), rel_slack=-0.5))
        monkeypatch.setattr(lv, "_CHUNK", 16)
        rng, ref_rng = stream(6, 7), stream(6, 7)
        got = suite(40, *shape, rng)
        want = reference(40, *shape, ref_rng, rel_slack=-0.5)
        assert len(got["violations"]) == 40
        assert got == want


def _recording(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapped


def _pairs(shape_a, shape_b, count, seed):
    rng = stream(seed, 8)
    return (np.stack([complex_gaussian(shape_a, rng) for _ in range(count)]),
            np.stack([complex_gaussian(shape_b, rng) for _ in range(count)]))


class TestStackedChecks:
    @pytest.mark.parametrize("check,reference,shapes", [
        (lv.check_lemma4, reference_check_lemma4, ((3, 3), (3, 3))),
        (lv.check_prop1, reference_check_prop1, ((3, 5), (3, 3))),
    ], ids=["lemma4", "prop1"])
    @pytest.mark.parametrize("slack", [lv.INEQ_SLACK, -0.5])
    def test_stack_is_the_concatenated_pairs(self, check, reference, shapes, slack):
        x, y = _pairs(*shapes, 12, 1)
        y[5] = 0.0  # a singular second factor: this trial is skipped
        pairs = [reference(x[t], y[t], slack) for t in range(12)]
        rep = check(x, y, slack)
        assert rep.violations == [{"trial": t, "violations": p.violations}
                                  for t, p in enumerate(pairs) if p.violations]
        assert rep.cases == sum(p.cases for p in pairs)
        assert rep.worst_residual == max(p.worst_residual for p in pairs)
        assert rep.skipped.startswith("1 of 12 trials")
        for t, p in enumerate(pairs):
            assert check(x[t], y[t], slack) == p

    @pytest.mark.parametrize("check,shapes", [
        (lv.check_lemma4, ((3, 3), (3, 3))),
        (lv.check_prop1, ((3, 5), (3, 3))),
    ], ids=["lemma4", "prop1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, check, shapes, bad):
        x, y = _pairs(*shapes, 6, 2)
        x[3, 1, 1] = bad
        with pytest.raises(ValueError):
            check(x[3], y[3])
        with pytest.raises(ValueError):
            check(x, y)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_rank_deficient_m_as_one_pair(self):
        # sigma_2(M) = 0 makes that case 0/0; it counts, but sets no residual
        m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        t = np.diag([1.0, 2.0, 3.0])
        rep = lv.check_prop1(m, t)
        assert rep == reference_check_prop1(m, t)
        assert rep.worst_residual == 0.0 and rep.cases == 2

    def test_stack_shape_validation(self):
        x, y = _pairs((3, 3), (3, 3), 4, 3)
        with pytest.raises(ValueError):
            lv.check_lemma4(x, y[:3])
        with pytest.raises(ValueError):
            lv.check_prop1(x, y[0])


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
