"""Monte Carlo outage machinery: normalization, draws, estimates, slopes."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

import trial_first_kernel as trial_first
from correlation_invariance import correlation_invariance_experiment
from dsdmt import outage_sim as osim
from dsdmt.dmt_core import ChannelTriple
from dsdmt.randmat import complex_gaussian, explicit_correlation, exponential_correlation, stream


def spec_111():
    return osim.make_channel_spec((1, 1, 1))


# Reference kernel: the full batched chain with every square root multiplied
# in, and the mutual information from the eigenvalues of the Gram matrix.

def reference_draw_block(spec, count: int, rng) -> np.ndarray:
    t = spec.triple
    h1 = complex_gaussian((count, t.n_r, t.n_s), rng)
    h2 = complex_gaussian((count, t.n_s, t.n_t), rng)
    return spec.phi_r.sqrt @ h1 @ spec.phi_s.sqrt @ h2 @ spec.phi_t.sqrt


def reference_mutual_information_block(hs: np.ndarray, gain: float) -> np.ndarray:
    if hs.shape[1] <= hs.shape[2]:
        gram = hs @ np.conj(np.swapaxes(hs, 1, 2))
    else:
        gram = np.conj(np.swapaxes(hs, 1, 2)) @ hs
    eig = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return np.sum(np.log1p(gain * eig), axis=1)


# Per-matrix oracles for the batched kernels of outage_sim.

def draw_channel(spec, rng) -> np.ndarray:
    """One n_r x n_t realization of the double-scattering channel."""
    return osim._draw_block(spec, 1, rng)[0]


def mutual_information_nats(h, snr: float, c_norm: float) -> float:
    """ln det(I + snr * c_norm * H H^dagger), from the singular values of H."""
    h = np.asarray(h)
    if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
        raise ValueError("channel matrix has non-finite entries")
    if snr <= 0:
        raise ValueError(f"snr must be positive, got {snr}")
    sv = np.linalg.svd(h, compute_uv=False)
    return float(np.sum(np.log1p(snr * c_norm * sv**2)))


class TestNormalization:
    def test_identity_is_one_over_ls_times_nt(self):
        for t in [(2, 3, 4), (1, 1, 1), (3, 2, 2)]:
            spec = osim.make_channel_spec(t)
            n_t, n_s, _ = t
            assert spec.c_norm == pytest.approx(1.0 / (n_s * n_t))

    def test_unit_diagonal_correlations_match_identity(self):
        t = ChannelTriple(2, 3, 2)
        spec = osim.make_channel_spec(
            t,
            phi_t=exponential_correlation(2, 0.6),
            phi_s=exponential_correlation(3, 0.6),
            phi_r=exponential_correlation(2, 0.6),
        )
        assert spec.c_norm == pytest.approx(1.0 / 6.0)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="correlation dims"):
            osim.ChannelSpec(
                triple=ChannelTriple(2, 2, 2),
                phi_t=exponential_correlation(3, 0.1),
                phi_s=exponential_correlation(2, 0.1),
                phi_r=exponential_correlation(2, 0.1),
                c_norm=1.0,
            )


class TestDrawChannel:
    def test_shape_and_determinism(self):
        spec = osim.make_channel_spec((3, 2, 4))
        h1 = draw_channel(spec, stream(3, 0))
        h2 = draw_channel(spec, stream(3, 0))
        assert h1.shape == (4, 3)
        assert np.array_equal(h1, h2)

    def test_frobenius_mean(self):
        # E ||H||_F^2 = tr(Phi_T) tr(Phi_S) tr(Phi_R) = n_t n_s n_r at identity
        spec = osim.make_channel_spec((2, 3, 2))
        hs = osim._draw_block(spec, 40000, stream(4, 0))
        mean = float(np.mean(np.sum(np.abs(hs) ** 2, axis=(1, 2))))
        assert abs(mean - 12.0) < 0.35

    def test_scalar_channel_is_product_of_exponentials(self):
        hs = osim._draw_block(spec_111(), 30000, stream(5, 0))
        gains = np.abs(hs[:, 0, 0]) ** 2
        rng = np.random.default_rng(99)
        ref = rng.exponential(size=30000) * rng.exponential(size=30000)
        assert stats.ks_2samp(gains, ref).pvalue > 0.001


class TestMutualInformation:
    def test_zero_channel(self):
        assert mutual_information_nats(np.zeros((2, 2)), 10.0, 1.0) == 0.0

    def test_scalar_ln2(self):
        assert mutual_information_nats(np.eye(1), 1.0, 1.0) == pytest.approx(math.log(2))

    def test_diagonal_closed_form(self):
        a, b, rho = 1.3, 0.4, 2.0
        got = mutual_information_nats(np.diag([a, b]), rho, 1.0)
        want = math.log(1 + rho * a * a) + math.log(1 + rho * b * b)
        assert got == pytest.approx(want)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mutual_information_nats(np.array([[np.inf]]), 1.0, 1.0)

    def test_batch_matches_single(self):
        spec = osim.make_channel_spec((2, 3, 2))
        hs = osim._draw_block(spec, 8, stream(6, 0))
        batch = osim._mutual_information_block(hs, 7.0)
        single = [mutual_information_nats(h, 7.0, 1.0) for h in hs]
        assert np.allclose(batch, single, atol=1e-10)


GRID_15_40 = tuple(float(d) for d in range(15, 41, 5))
GRID_10_30 = tuple(float(d) for d in range(10, 31, 5))
# (triple, rho or None, r, grid, seed) of every pinned run in test_acceptance.py:
# 7a, 7b, 7c and 7d (identity and correlated halves), 7e, the emergence and
# monotonicity checks, and the criterion-8 CLI run
PINNED_RUNS = (
    ((1, 1, 1), None, 0.05, GRID_15_40, 1),
    ((2, 2, 2), None, 1.0, GRID_10_30, 2),
    ((1, 1, 1), None, 0.05, GRID_15_40, 21),
    ((1, 1, 1), 0.5, 0.05, GRID_15_40, 21),
    ((2, 2, 2), None, 1.0, GRID_10_30, 22),
    ((2, 2, 2), 0.7, 1.0, GRID_10_30, 22),
    ((1, 1, 1), None, 0.05, GRID_15_40, 23),
    ((1, 1, 1), None, 0.05, tuple(float(d) for d in range(25, 51, 5)), 31),
    ((2, 2, 2), None, 1.0, tuple(float(d) for d in range(25, 46, 5)), 32),
    ((1, 1, 1), None, 0.05, GRID_15_40, 33),
    ((2, 2, 2), None, 1.0, GRID_10_30, 33),
    ((1, 1, 1), None, 0.5, (10.0, 15.0, 20.0, 25.0), 7),
)
FLIP_TOL = 1e-9


def correlated_spec(triple, rho):
    phis = [exponential_correlation(d, rho) for d in triple] if rho else [None] * 3
    return osim.make_channel_spec(triple, *phis)


class TestKernelAgainstReference:
    def test_pinned_block0_counts_match(self):
        for triple, rho, r, grid, seed in PINNED_RUNS:
            spec = correlated_spec(triple, rho)
            count = osim.BLOCK_TRIALS
            for i, snr_db in enumerate(grid):
                snr = 10.0 ** (snr_db / 10.0)
                threshold = r * math.log(snr)
                got = osim._count_block(spec, r, snr, seed, i, 0, count)
                hs = reference_draw_block(spec, count, stream(seed, (i, 0)))
                mi = reference_mutual_information_block(hs, snr * spec.c_norm)
                want = int(np.sum(mi <= threshold))
                near = int(np.sum(np.abs(mi - threshold) < FLIP_TOL))
                assert abs(got - want) <= near, (triple, rho, seed, snr_db, got, want)

    @pytest.mark.parametrize("triple", [(1, 1, 1), (2, 2, 2), (3, 2, 2), (2, 3, 4), (3, 3, 3)])
    def test_mutual_information_matches_svd(self, triple):
        spec = osim.make_channel_spec(triple)
        for snr_db in range(10, 101, 10):
            gain = 10.0 ** (snr_db / 10.0) * spec.c_norm
            hs = osim._draw_block(spec, 2000, stream(12, (snr_db,)))
            sv = np.linalg.svd(hs, compute_uv=False)
            want = np.sum(np.log1p(gain * sv**2), axis=1)
            got = osim._mutual_information_block(hs, gain)
            assert np.max(np.abs(got - want)) <= 1e-10, (triple, snr_db)

    @pytest.mark.parametrize("node", ["phi_r", "phi_s", "phi_t"])
    @pytest.mark.parametrize("kind", ["exponential", "explicit"])
    def test_single_correlation_factor_stays_on_its_node(self, node, kind):
        triple = ChannelTriple(2, 3, 4)
        dim = {"phi_t": triple.n_t, "phi_s": triple.n_s, "phi_r": triple.n_r}[node]
        if kind == "exponential":
            phi = exponential_correlation(dim, 0.7)
        else:  # complex Hermitian, so a transposed or conjugated root shows
            a = complex_gaussian((dim, dim), stream(13, dim))
            phi = explicit_correlation(a @ a.conj().T + np.eye(dim))
        spec = osim.make_channel_spec(triple, **{node: phi})
        got = osim._draw_block(spec, 500, stream(14, 0))
        want = reference_draw_block(spec, 500, stream(14, 0))
        assert np.max(np.abs(got - want)) <= 1e-13


class TestTrialInnermostLayout:
    """The trial-innermost kernel against the trial-first one it replaced
    (tests/trial_first_kernel.py): the layout moves where the numbers live,
    not what they are, so there is no flip allowance."""

    def test_pinned_block0_counts_equal_the_trial_first_kernel(self):
        count = osim.BLOCK_TRIALS
        for triple, rho, r, grid, seed in PINNED_RUNS:
            spec = correlated_spec(triple, rho)
            for i, snr_db in enumerate(grid):
                snr = 10.0 ** (snr_db / 10.0)
                got = osim._count_block(spec, r, snr, seed, i, 0, count)
                hs = trial_first._draw_block(spec, count, stream(seed, (i, 0)))
                mi = trial_first._mutual_information_block(hs, snr * spec.c_norm)
                want = int(np.count_nonzero(mi <= r * math.log(snr)))
                assert got == want, (triple, rho, seed, snr_db, got, want)

    @pytest.mark.parametrize("rho", [None, 0.7], ids=["identity", "exp0.7"])
    @pytest.mark.parametrize("triple", [(1, 1, 1), (2, 2, 2)], ids=["111", "222"])
    def test_mutual_information_is_bit_identical(self, triple, rho):
        spec = correlated_spec(triple, rho)
        hs = osim._draw_block(spec, osim.BLOCK_TRIALS, stream(15, (0, 0)))
        old = trial_first._draw_block(spec, osim.BLOCK_TRIALS, stream(15, (0, 0)))
        assert np.array_equal(np.ascontiguousarray(hs).view(np.uint64), old.view(np.uint64))
        for snr_db in (10.0, 30.0, 50.0):
            gain = 10.0 ** (snr_db / 10.0) * spec.c_norm
            want = trial_first._mutual_information_block(old, gain).view(np.uint64)
            # the kernel's own block, and a trial-first stack, which it still accepts
            for block in (hs, old):
                got = osim._mutual_information_block(block, gain)
                assert np.array_equal(got.view(np.uint64), want), (snr_db, block.strides)

    @pytest.mark.parametrize("rho", [None, 0.7], ids=["identity", "exp0.7"])
    def test_block_trial_axis_is_innermost_in_memory(self, rho, monkeypatch):
        # pins the layout that makes each elementwise op one loop over the
        # trials: the draws fill trial-innermost memory, every product works
        # on it, and the block is a view of it
        count, layouts, osim_product = 64, [], osim._product

        def trials_last(a):
            return a.shape[-1] == count and a.flags.c_contiguous

        def gaussian(shape, rng, out=None):
            layouts.append(("draw", out is not None and trials_last(np.moveaxis(out, 0, -1))))
            return complex_gaussian(shape, rng, out=out)

        def product(a, b):
            out = osim_product(a, b)
            layouts.append(("product", trials_last(out)))
            return out

        monkeypatch.setattr(osim, "complex_gaussian", gaussian)
        monkeypatch.setattr(osim, "_product", product)
        hs = osim._draw_block(correlated_spec((2, 3, 4), rho), count, stream(16, 0))
        products = 1 if rho is None else 4
        assert layouts == [("draw", True)] * 2 + [("product", True)] * products
        assert hs.shape == (count, 4, 2) and hs.strides[0] == hs.itemsize
        assert trials_last(np.moveaxis(hs, 0, -1))


class TestEstimateOutage:
    def test_r_zero_probability_zero(self):
        cfg = osim.SimConfig(spec=spec_111(), snr_grid_db=(10.0,), r=0.0, trials=5000, seed=1)
        est = osim.estimate_outage(cfg, 10.0)
        assert est.outage_count == 0 and est.p_out == 0.0

    def test_scalar_quadrature_oracle(self):
        cfg = osim.SimConfig(spec=spec_111(), snr_grid_db=(20.0,), r=0.5, trials=200000, seed=11)
        est = osim.estimate_outage(cfg, 20.0)
        snr = 100.0
        t = (snr**0.5 - 1.0) / snr
        oracle = 1.0 - integrate.quad(lambda x: math.exp(-x - t / x), 0, np.inf)[0]
        assert est.ci_low <= oracle <= est.ci_high

    def test_point_must_be_on_grid(self):
        cfg = osim.SimConfig(spec=spec_111(), snr_grid_db=(10.0, 20.0), r=0.5, trials=100, seed=1)
        with pytest.raises(ValueError, match="not on the configured grid"):
            osim.estimate_outage(cfg, 15.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            osim.SimConfig(spec=spec_111(), snr_grid_db=(10.0, 10.0), r=0.5, trials=10, seed=1)
        with pytest.raises(ValueError):  # closer than estimate_outage matches a point by
            osim.SimConfig(spec=spec_111(), snr_grid_db=(10.0, 10.0 + 1e-10), r=0.5, trials=10,
                           seed=1)
        with pytest.raises(ValueError):
            osim.SimConfig(spec=spec_111(), snr_grid_db=(10.0,), r=0.5, trials=0, seed=1)
        osim.SimConfig(spec=spec_111(), snr_grid_db=(osim.MAX_SNR_DB,), r=0.5, trials=10, seed=1)
        with pytest.raises(ValueError, match="<= 1000.0 dB"):
            osim.SimConfig(spec=spec_111(), snr_grid_db=(10.0, osim.MAX_SNR_DB + 1e-6), r=0.5,
                           trials=10, seed=1)

    def test_determinism_and_worker_invariance(self):
        base = dict(spec=spec_111(), snr_grid_db=(15.0,), r=0.5, trials=20000)
        counts = set()
        for workers in (1, 2, 3):  # run_simulation forks a real pool for 2 and 3
            cfg = osim.SimConfig(seed=42, workers=workers, **base)
            counts.add(osim.run_simulation(cfg)[0].outage_count)
        assert len(counts) == 1

    def test_run_simulation_worker_invariance_one_pool(self, monkeypatch):
        created = []

        class CountingPool(osim.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(osim, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(osim.os, "cpu_count", lambda: 4)  # the pool size is min(workers, CPUs)
        spec = correlated_spec((2, 2, 2), 0.7)
        counts = {}
        for workers in (1, 2):
            cfg = osim.SimConfig(spec=spec, snr_grid_db=(10.0, 15.0, 20.0), r=1.0,
                                 trials=3 * osim.BLOCK_TRIALS, seed=5, workers=workers)
            counts[workers] = [e.outage_count for e in osim.run_simulation(cfg)]
        assert counts[1] == counts[2]
        assert created == [{"max_workers": 2}]

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # an in-process stand-in: a real pool would fork every worker it is asked for
        created = []

        class InlinePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(osim, "ProcessPoolExecutor", InlinePool)
        base = dict(spec=spec_111(), snr_grid_db=(10.0, 15.0), r=0.5,
                    trials=2 * osim.BLOCK_TRIALS + 7, seed=5)
        want = [e.outage_count for e in osim.run_simulation(osim.SimConfig(workers=1, **base))]
        assert created == []
        for cpus, workers, size in ((3, 5000, 3), (3, 2, 2), (None, 5000, 1)):
            monkeypatch.setattr(osim.os, "cpu_count", lambda: cpus)
            cfg = osim.SimConfig(workers=workers, **base)
            created.clear()
            assert [e.outage_count for e in osim.run_simulation(cfg)] == want
            assert created == [size]  # run_simulation's pool, the only one built
            assert osim.estimate_outage(cfg, 15.0).outage_count == want[1]
            assert created == [size]  # no pool given: the blocks run in this process

    def test_monotone_in_snr_within_ci(self):
        # fixed multiplexing gain on the acceptance-style grid (>= 10 dB);
        # at very low SNR the scaling rate makes p_out genuinely non-monotone
        spec = osim.make_channel_spec((2, 2, 2))
        cfg = osim.SimConfig(spec=spec, snr_grid_db=(10.0, 15.0, 20.0, 25.0), r=1.0,
                             trials=40000, seed=3)
        ests = osim.run_simulation(cfg)
        for a, b in zip(ests, ests[1:]):
            assert b.ci_low <= a.ci_high  # non-increasing up to CI overlap

    def test_wilson_interval_edge_cases(self):
        lo, hi = osim.wilson_interval(0, 100)
        assert lo == 0.0 and 0 < hi < 0.05
        lo, hi = osim.wilson_interval(100, 100)
        assert hi == 1.0 and lo > 0.95


class TestFitSlope:
    @staticmethod
    def synthetic(decades, d):
        return [
            osim.OutageEstimate(snr_db=db, p_out=10 ** (-(db / 10) * d), ci_low=0.0,
                                ci_high=1.0, outage_count=1000, trials=10**6)
            for db in decades
        ]

    def test_exact_power_law(self):
        fit = osim.fit_slope(self.synthetic([10, 20, 30, 40], 2.0))
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.points_used == 4

    def test_low_event_points_excluded(self):
        ests = self.synthetic([10, 20, 30], 1.0)
        starved = osim.OutageEstimate(snr_db=40.0, p_out=1e-9, ci_low=0.0, ci_high=1.0,
                                      outage_count=3, trials=10**6)
        fit = osim.fit_slope(ests + [starved])
        assert fit.points_used == 3

    def test_insufficient_data(self):
        ests = self.synthetic([10], 1.0)
        with pytest.raises(osim.InsufficientDataError):
            osim.fit_slope(ests)


class TestEmpiricalReciprocity:
    def test_role_permutation_slopes_agree(self):
        # (1,2,2) vs (2,2,1): same sorted triple, slopes equal within noise
        fits = []
        for triple in ((1, 2, 2), (2, 2, 1)):
            cfg = osim.SimConfig(spec=osim.make_channel_spec(triple),
                                 snr_grid_db=(15.0, 20.0, 25.0, 30.0), r=0.5,
                                 trials=100000, seed=88)
            fits.append(osim.fit_slope(osim.run_simulation(cfg)))
        gap = abs(fits[0].slope - fits[1].slope)
        assert gap <= 2.0 * (fits[0].stderr**2 + fits[1].stderr**2) ** 0.5


class TestCorrelationExperiment:
    def test_rho_zero_identical_runs(self):
        pair = correlation_invariance_experiment(
            (1, 1, 1), 0.0, 0.3, (10.0, 15.0, 20.0), 20000, 77
        )
        assert pair.identity.slope == pair.correlated.slope
        for a, b in zip(pair.identity_estimates, pair.correlated_estimates):
            assert a.outage_count == b.outage_count

    def test_rho_range_enforced(self):
        with pytest.raises(ValueError):
            correlation_invariance_experiment((1, 1, 1), 0.95, 0.3, (10.0, 15.0), 100, 1)


class TestCsvLines:
    def test_format(self):
        ests = [osim.OutageEstimate(snr_db=10.0, p_out=0.25, ci_low=0.2, ci_high=0.3,
                                    outage_count=25, trials=100)]
        lines = osim.estimates_csv_lines(ests, 0.5)
        assert lines[0] == "snr_db,rate_nats,trials,outages,p_out,ci_low,ci_high"
        fields = lines[1].split(",")
        assert float(fields[0]) == 10.0
        assert float(fields[1]) == pytest.approx(0.5 * math.log(10.0))
        assert fields[2:4] == ["100", "25"]
