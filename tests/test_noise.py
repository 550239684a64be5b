import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from bellnoise import noise
from bellnoise.noise import (
    StaticNoiseSpec,
    TelegraphSpec,
    TelegraphTrajectory,
    accumulate_block_phases,
    accumulate_phase,
    accumulate_phases,
    bessel_i0,
    bessel_i1,
    decay_factor,
    sample_static,
    sample_telegraph_block,
    sample_telegraph_trajectory,
    substream,
    telegraph_autocorrelation,
    telegraph_phase_density,
    telegraph_spectrum,
)


class TestSpecs:
    def test_static_requires_positive_spread(self):
        with pytest.raises(ValueError):
            StaticNoiseSpec(c0=0.0, delta_c=0.0)

    def test_telegraph_requires_positive_rate(self):
        with pytest.raises(ValueError):
            TelegraphSpec(gamma=-1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_rejected(self, value):
        for make in (
            lambda: StaticNoiseSpec(c0=value, delta_c=1.0),
            lambda: StaticNoiseSpec(c0=0.0, delta_c=value),
            lambda: TelegraphSpec(gamma=value),
        ):
            with pytest.raises(ValueError, match="finite"):
                make()


class TestStaticSampler:
    def test_support_mean_and_variance(self):
        spec = StaticNoiseSpec(c0=0.6, delta_c=1.4)
        rng = substream(101, 0)
        n = 10**6
        draws = sample_static(spec, rng, np.zeros(n, dtype=int), 1)
        assert draws.min() >= spec.low
        assert draws.max() <= spec.high
        mean_se = spec.delta_c / math.sqrt(12.0 * n)
        assert abs(draws.mean() - spec.c0) <= 3.0 * mean_se
        # sampling error of the variance estimator for a uniform distribution
        var = spec.delta_c**2 / 12.0
        var_se = spec.delta_c**2 * math.sqrt(1.0 / 80.0 - 1.0 / 144.0) / math.sqrt(n)
        assert abs(draws.var() - var) <= 3.0 * var_se

    def test_stratified_draws_stay_in_their_slice(self):
        spec = StaticNoiseSpec(c0=0.6, delta_c=1.4)
        rng = substream(102, 0)
        width = spec.delta_c / 10
        for stratum in range(10):
            draws = np.array([sample_static(spec, rng, stratum, 10) for _ in range(1000)])
            assert draws.min() >= spec.low + stratum * width - 1e-15
            assert draws.max() <= spec.low + (stratum + 1) * width + 1e-15
            # uniform on the slice: its mean sits at the slice centre
            centre = spec.low + (stratum + 0.5) * width
            assert abs(draws.mean() - centre) <= 3.0 * width / math.sqrt(12.0 * 1000)

    def test_array_of_strata_draws_what_scalar_calls_draw(self):
        # one block draw consumes the generator as one scalar call per entry
        spec = StaticNoiseSpec(c0=0.6, delta_c=1.4)
        strata = np.broadcast_to(np.arange(5, 13), (2, 8))
        block = sample_static(spec, substream(103, 0), strata, 20)
        rng = substream(103, 0)
        scalar = [[sample_static(spec, rng, s, 20) for s in row] for row in strata]
        assert block.shape == (2, 8)
        assert np.max(np.abs(block - np.array(scalar))) <= 1e-15
        assert isinstance(sample_static(spec, rng), float)

    @pytest.mark.parametrize("stratum", [5, 2, -3, np.array([0, 1, 2]), np.array([[0], [-1]])])
    def test_rejects_a_stratum_outside_the_slices(self, stratum):
        # stratum 5 of 2 on [0.5, 1.5] used to return 3.318, outside the support
        spec = StaticNoiseSpec(c0=1.0, delta_c=1.0)
        with pytest.raises(ValueError, match=r"stratum must lie in \[0, 2\)"):
            sample_static(spec, substream(104, 0), stratum, 2)


class TestTelegraphSampler:
    def test_flip_count_is_poisson_mean(self):
        spec = TelegraphSpec(gamma=2.5)
        horizon = 2.0
        n = 20_000
        block = sample_telegraph_block(spec, horizon, n, substream(7, 0))
        counts = np.count_nonzero(block.flips < horizon, axis=1)
        lam = spec.gamma * horizon
        assert abs(counts.mean() - lam) <= 3.0 * math.sqrt(lam / n)

    def test_autocorrelation_decays_exponentially(self):
        spec = TelegraphSpec(gamma=1.0)
        horizon = 1.5
        n = 100_000
        probes = np.array([0.25, 0.5, 1.0, 1.5])
        block = sample_telegraph_block(spec, horizon, n, substream(13, 0))
        # Padding entries equal the horizon, the last probe: count real flips only.
        real = block.flips < horizon
        counts = [np.count_nonzero(real & (block.flips <= t), axis=1) for t in probes]
        estimate = np.mean((-1.0) ** np.array(counts), axis=1)
        expected = telegraph_autocorrelation(spec.gamma, probes)
        assert np.all(np.abs(estimate - expected) <= 3.0 / math.sqrt(n) + 1e-12)

    def test_vanishing_rate_gives_flip_free_trajectories(self):
        spec = TelegraphSpec(gamma=1e-6)
        for i in range(1000):
            trajectory = sample_telegraph_trajectory(spec, 1.0, substream(3, i))
            assert trajectory.flip_times.size == 0

    def test_initial_value_unbiased(self):
        spec = TelegraphSpec(gamma=1.0)
        n = 20_000
        block = sample_telegraph_block(spec, 0.1, n, substream(29, 0))
        assert abs(np.mean(block.initial)) <= 3.0 / math.sqrt(n)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            sample_telegraph_trajectory(TelegraphSpec(gamma=1.0), 0.0, substream(0, 0))

    def test_seeding_contract_reproducible(self):
        spec = TelegraphSpec(gamma=3.0)
        first = sample_telegraph_trajectory(spec, 5.0, substream(42, 9))
        second = sample_telegraph_trajectory(spec, 5.0, substream(42, 9))
        other = sample_telegraph_trajectory(spec, 5.0, substream(42, 10))
        assert first.initial_value == second.initial_value
        assert np.array_equal(first.flip_times, second.flip_times)
        assert not np.array_equal(first.flip_times, other.flip_times)


class TestPhaseAccumulation:
    def test_flip_free_phase_is_linear(self):
        trajectory = TelegraphTrajectory(1, np.array([]), 10.0)
        nu = 0.7
        for t in (0.0, 1.0, 4.5, 10.0):
            assert accumulate_phase(trajectory, nu, t) == -nu * t

    def test_single_flip_exact(self):
        trajectory = TelegraphTrajectory(-1, np.array([2.0]), 10.0)
        # integral of c on [0, 3] is -2 + 1 = -1
        assert accumulate_phase(trajectory, 1.5, 3.0) == pytest.approx(1.5, abs=1e-15)

    def test_phase_bounded_by_window(self):
        spec = TelegraphSpec(gamma=4.0)
        nu = 1.3
        for i in range(200):
            trajectory = sample_telegraph_trajectory(spec, 2.0, substream(17, i))
            t = float(substream(18, i).uniform(0.0, 2.0))
            assert abs(accumulate_phase(trajectory, nu, t)) <= nu * t + 1e-12

    def test_grid_matches_scalar(self):
        spec = TelegraphSpec(gamma=2.0)
        trajectory = sample_telegraph_trajectory(spec, 3.0, substream(23, 0))
        times = np.linspace(0.0, 3.0, 17)
        grid = accumulate_phases(trajectory, 0.9, times)
        scalars = [accumulate_phase(trajectory, 0.9, t) for t in times]
        assert np.allclose(grid, scalars, atol=0, rtol=0)

    def test_beyond_horizon_rejected(self):
        trajectory = TelegraphTrajectory(1, np.array([]), 1.0)
        with pytest.raises(ValueError, match="within"):
            accumulate_phase(trajectory, 1.0, 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nan_and_infinite_times_rejected(self, bad):
        trajectory = TelegraphTrajectory(1, np.array([0.5]), 1.0)
        with pytest.raises(ValueError, match="within"):
            accumulate_phases(trajectory, 1.0, np.array([bad, 1.0]))

    def test_mean_phase_factor_matches_decay_factor(self):
        spec = TelegraphSpec(gamma=1.0)
        nu, t = 2.0, 1.2
        n = 20_000
        block = sample_telegraph_block(spec, t, n, substream(31, 0))
        values = np.exp(1j * accumulate_block_phases(block, nu, np.array([t]))[:, 0])
        spread = values.std() / math.sqrt(n)
        assert abs(values.mean() - decay_factor(nu, spec.gamma, t)) <= 3.0 * spread + 1e-12


def row_trajectory(block, row):
    """Row ``row`` of a telegraph block as a scalar-sampler trajectory."""
    flips = block.flips[row]
    return TelegraphTrajectory(int(block.initial[row]), flips[flips < block.horizon], block.horizon)


class TestTelegraphBlock:
    def test_rows_are_sorted_and_clipped_at_the_horizon(self):
        block = sample_telegraph_block(TelegraphSpec(gamma=0.7), 6.0, 500, substream(41, 0))
        assert block.flips.shape[0] == 500 and block.initial.shape == (500,)
        assert set(np.unique(block.initial)) == {-1.0, 1.0}
        assert np.all(np.diff(block.flips, axis=1) >= 0.0)
        assert np.all((block.flips > 0.0) & (block.flips <= 6.0))
        counts = np.count_nonzero(block.flips < 6.0, axis=1)
        # padded to the largest flip count, and no wider
        assert block.flips.shape[1] == counts.max()
        assert np.any(counts < counts.max())

    @pytest.mark.parametrize("width", [None, 2])
    def test_flip_counts_and_signs_match_the_scalar_sampler(self, monkeypatch, width):
        # width 2 forces the path that appends blocks until every row passes
        # the horizon
        if width is not None:
            monkeypatch.setattr(noise, "_telegraph_block_width", lambda spec, horizon: width)
        spec = TelegraphSpec(gamma=2.5)
        horizon, n = 2.0, 20_000
        block = sample_telegraph_block(spec, horizon, n, substream(7, 1))
        counts = np.count_nonzero(block.flips < horizon, axis=1)
        lam = spec.gamma * horizon
        assert abs(counts.mean() - lam) <= 3.0 * math.sqrt(lam / n)
        # Poisson: the variance equals the mean (the variance estimator's
        # standard error is about sqrt((2 lam^2 + lam) / n))
        assert abs(counts.var() - lam) <= 3.0 * math.sqrt((2.0 * lam * lam + lam) / n)
        assert abs(block.initial.mean()) <= 3.0 / math.sqrt(n)

    @pytest.mark.parametrize("gamma", [0.2, 5.0])
    @pytest.mark.parametrize("width", [None, 2])
    def test_draws_the_generator_stream_as_documented(self, monkeypatch, gamma, width):
        # Pins the stream: the initial signs from rng.random(rows), then
        # (rows, width) blocks of rng.exponential(1 / gamma), bit for bit.
        if width is not None:
            monkeypatch.setattr(noise, "_telegraph_block_width", lambda spec, horizon: width)
        spec, horizon, rows = TelegraphSpec(gamma=gamma), 20.0, 64
        block = sample_telegraph_block(spec, horizon, rows, substream(43, 0))
        rng = substream(43, 0)
        initial = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
        shape = (rows, noise._telegraph_block_width(spec, horizon))
        times = np.cumsum(rng.exponential(1.0 / gamma, size=shape), axis=1)
        while times[:, -1].min() < horizon:
            more = np.cumsum(rng.exponential(1.0 / gamma, size=shape), axis=1)
            times = np.concatenate([times, more + times[:, -1:]], axis=1)
        most = np.count_nonzero(times < horizon, axis=1).max()
        assert np.array_equal(block.initial, initial)
        assert np.array_equal(block.flips, np.minimum(times[:, :most], horizon))
        assert block.horizon == horizon

    def test_seeding_contract_reproducible(self):
        spec = TelegraphSpec(gamma=3.0)
        first = sample_telegraph_block(spec, 5.0, 16, substream(42, 9))
        second = sample_telegraph_block(spec, 5.0, 16, substream(42, 9))
        assert np.array_equal(first.initial, second.initial)
        assert np.array_equal(first.flips, second.flips)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            sample_telegraph_block(TelegraphSpec(gamma=1.0), 0.0, 4, substream(0, 0))


class TestBlockPhases:
    """The block kernel against :func:`accumulate_phases` on the same flips."""

    @pytest.mark.parametrize(
        "width, gamma, horizon",
        [(None, 0.2, 20.0), (None, 5.0, 20.0), (3, 0.2, 20.0), (3, 5.0, 20.0), (None, 1.0, 1e4)],
        # the long horizon sums ~1e4 waits per row: it fails a kernel that
        # sums alternating flip times instead, which loses conditioning
        ids=["None-0.2", "None-5.0", "3-0.2", "3-5.0", "None-1.0-long"],
    )
    def test_equals_scalar_accumulation_row_by_row(self, monkeypatch, width, gamma, horizon):
        if width is not None:
            monkeypatch.setattr(noise, "_telegraph_block_width", lambda spec, horizon: width)
        nu = 1.0
        block = sample_telegraph_block(TelegraphSpec(gamma=gamma), horizon, 64, substream(5, 0))
        # some rows end in padding: their clipped entries must add nothing
        assert np.any(block.flips == horizon)
        grid = np.linspace(0.0, horizon, 11)
        # the common-environment windows come unsorted: t/2, T - t/2, then T
        windows = np.concatenate([0.5 * grid, horizon - 0.5 * grid, [horizon]])
        real_flips = block.flips[block.flips < horizon]
        queries = np.concatenate([windows, [0.0, horizon], real_flips[:20], real_flips[-5:]])
        phases = accumulate_block_phases(block, nu, queries)
        assert phases.shape == (64, queries.size)
        for row in range(64):
            expected = accumulate_phases(row_trajectory(block, row), nu, queries)
            assert np.max(np.abs(phases[row] - expected)) <= 1e-12, row

    def test_queries_at_a_rows_own_flips(self):
        horizon = 3.0
        block = sample_telegraph_block(TelegraphSpec(gamma=4.0), horizon, 8, substream(9, 0))
        for row in range(8):
            trajectory = row_trajectory(block, row)
            queries = trajectory.flip_times[::-1]
            expected = accumulate_phases(trajectory, 1.3, queries)
            got = accumulate_block_phases(block, 1.3, queries)[row]
            assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12, row

    def test_flip_free_rows_and_an_empty_block(self):
        block = noise.TelegraphBlock(np.array([1.0, -1.0]), np.empty((2, 0)), 4.0)
        phases = accumulate_block_phases(block, 0.5, np.array([4.0, 0.0, 1.0]))
        assert np.array_equal(phases, [[-2.0, 0.0, -0.5], [2.0, 0.0, 0.5]])

    def test_beyond_horizon_rejected(self):
        block = sample_telegraph_block(TelegraphSpec(gamma=1.0), 1.0, 4, substream(0, 0))
        with pytest.raises(ValueError, match="within"):
            accumulate_block_phases(block, 1.0, np.array([0.5, 1.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nan_and_infinite_times_rejected(self, bad):
        # NaN fails both the lower and the upper comparison
        block = sample_telegraph_block(TelegraphSpec(gamma=1.0), 1.0, 4, substream(0, 0))
        for times in ([bad, 1.0], [0.0, bad], [bad]):
            with pytest.raises(ValueError, match="within"):
                accumulate_block_phases(block, 1.0, np.array(times))


class TestDecayFactor:
    def test_unity_at_time_zero(self):
        for coupling, gamma in ((2.0, 5.0), (4.0, 0.2), (1.0, 1.0)):
            assert decay_factor(coupling, gamma, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_static_limit_is_cosine(self):
        t = np.linspace(0.0, 10.0, 101)
        values = decay_factor(3.0, 1e-12, t)
        assert np.max(np.abs(values - np.cos(3.0 * t))) <= 1e-9

    def test_degenerate_branch(self):
        gamma = 1.7
        t = np.linspace(0.0, 10.0 / gamma, 50)
        exact = np.exp(-gamma * t) * (1.0 + gamma * t)
        assert np.allclose(decay_factor(gamma, gamma, t), exact, atol=0, rtol=0)
        # both closed branches approach the same limit just off the degeneracy
        for off in (1 - 1e-6, 1 + 1e-6):
            assert np.max(np.abs(decay_factor(gamma * off, gamma, t) - exact)) <= 1e-5

    def test_continuous_across_branch_point(self):
        gamma = 2.0
        t = np.linspace(0.0, 10.0 / gamma, 64)
        center = decay_factor(gamma, gamma, t)
        for factor in (1 - 1e-7, 1 + 1e-7):
            assert np.max(np.abs(decay_factor(gamma, gamma * factor, t) - center)) <= 1e-5

    def test_fast_switching_positive_and_monotone(self):
        t = np.linspace(0.0, 20.0, 1000)
        values = decay_factor(2.0, 5.0, t)
        assert np.all(values > 0.0)
        assert np.all(np.diff(values) <= 1e-15)

    def test_bounded_by_one(self, rng):
        for _ in range(50):
            coupling = rng.uniform(0.0, 6.0)
            gamma = rng.uniform(0.05, 6.0)
            t = rng.uniform(0.0, 30.0, size=16)
            values = np.atleast_1d(decay_factor(coupling, gamma, np.sort(t)))
            assert np.all(np.abs(values) <= 1.0 + 1e-12)

    def test_huge_rates_stay_finite(self):
        # squaring either rate would overflow past ~1e154
        t = np.linspace(0.0, 10.0, 11)
        fast = decay_factor(2.0, 1e200, t)
        assert fast[0] == 1.0
        # motional narrowing: the slow rate coupling^2 / (2 gamma) is 2e-200
        assert np.all(fast == 1.0)
        slow = decay_factor(2e200, 1.0, t)
        assert slow[0] == 1.0
        assert np.all(np.abs(slow) <= np.exp(-t) * (1.0 + 1e-12))

    def test_rates_at_the_float_limit_stay_finite(self):
        # past ~9e307 the sum of two rates overflows, and at t = 0 an infinite
        # rate times 0 would give nan; the factor is taken at half the rates
        # with its exponents doubled, so a t past ~9e307 is never doubled
        for coupling, gamma, t_max in ((2.0, 1e308, 20.0), (4.0, 8e307, 20.0),
                                       (1e308, 1.5e308, 1.0), (1e308, 9e307, 1.0),
                                       (1.7e308, 1.7e308, 1.0), (2e-300, 1e308, 1e308),
                                       (1e-10, 1.5e308, 1.7e308),
                                       # near the branch point gamma * t overflows alone
                                       (1e308, 1.00000000005e308, 1.7976931348)):
            values = decay_factor(coupling, gamma, np.linspace(0.0, t_max, 5))
            assert values[0] == 1.0
            assert np.all(np.abs(values) <= 1.0)
        # motional narrowing: the slow rate coupling^2 / (2 gamma) is ~1e-308
        assert np.all(decay_factor(2.0, 1e308, np.linspace(0.0, 20.0, 5)) == 1.0)

    @pytest.mark.parametrize(
        "coupling,gamma,t",
        [(math.nan, 1.0, 0.5), (math.inf, 1.0, 0.5), (1.0, math.nan, 0.5), (1.0, math.inf, 0.5),
         (1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (1.0, 1.0, np.array([0.0, math.nan])),
         (1e300, 1.0, 1e10)],
    )
    def test_rejects_non_finite_arguments(self, coupling, gamma, t):
        with pytest.raises(ValueError, match="finite"):
            decay_factor(coupling, gamma, t)

    def test_slow_rate_keeps_its_precision_at_fast_switching(self):
        # gamma - delta cancels to a few digits at gamma / coupling = 5e7; the
        # decay there is exp(-coupling^2 t / (gamma + delta)) to rounding
        gamma = 1e8
        t = np.array([1e6, 1e7])
        expected = np.exp(-4.0 * t / (gamma + math.sqrt(gamma * gamma - 4.0)))
        assert np.allclose(decay_factor(2.0, gamma, t), expected, rtol=1e-14, atol=0.0)

    @settings(max_examples=40)
    @given(
        log_gamma=st.floats(-3.0, 3.0),
        side=st.sampled_from((-1.0, 1.0)),
        scaled_t=st.floats(0.0, 60.0),
    )
    def test_continuous_across_the_branch_window(self, log_gamma, side, scaled_t):
        # just inside and just outside |gamma - coupling| <= 1e-9 gamma the
        # degenerate limit and a closed branch must agree
        gamma = 10.0**log_gamma
        t = scaled_t / gamma
        inside = decay_factor(gamma * (1.0 + side * 0.99e-9), gamma, t)
        outside = decay_factor(gamma * (1.0 + side * 1.01e-9), gamma, t)
        assert abs(inside - outside) <= 1e-6

    @settings(max_examples=60)
    @given(
        log_coupling=st.floats(-6.0, 200.0),
        log_gamma=st.floats(-6.0, 200.0),
        log_t=st.floats(-6.0, 8.0),
    )
    def test_bounded_out_to_large_times(self, log_coupling, log_gamma, log_t):
        # near the branch window the hyperbolic coefficients reach
        # gamma / delta ~ 2e4, so t = 0 rounds to 1 within ~1e-11
        t = np.array([0.0, 10.0**log_t])
        values = decay_factor(10.0**log_coupling, 10.0**log_gamma, t)
        assert np.all(np.isfinite(values))
        assert np.all(np.abs(values) <= 1.0 + 1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            decay_factor(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            decay_factor(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            decay_factor(1.0, 1.0, -0.5)


def _i0_power_series(x, terms=80):
    total = 0.0
    for k in range(terms):
        total += (0.25 * x * x) ** k / (math.factorial(k) ** 2)
    return total


def _i1_power_series(x, terms=80):
    total = 0.0
    for k in range(terms):
        total += (0.25 * x * x) ** k / (math.factorial(k) * math.factorial(k + 1))
    return 0.5 * x * total


class TestBessel:
    def test_matches_power_series_reference(self):
        for x in np.linspace(0.0, 30.0, 121):
            assert bessel_i0(x) == pytest.approx(_i0_power_series(x), rel=1e-12)
            assert bessel_i1(x) == pytest.approx(_i1_power_series(x), rel=1e-12, abs=1e-300)

    def test_matches_scipy(self):
        x = np.linspace(0.0, 30.0, 301)
        assert np.max(np.abs(bessel_i0(x) - special.i0(x)) / special.i0(x)) <= 1e-12
        i1 = special.i1(x)
        assert np.max(np.abs(bessel_i1(x) - i1) / np.maximum(i1, 1e-300)) <= 1e-12

    def test_array_entries_equal_scalar_calls(self):
        # the asymptotic series stops at each entry's own smallest term, so an
        # entry does not depend on the others in its array
        x = np.array([15.5, 16.0, 22.0, 40.0, 700.0, 0.5, -18.0, 3.0])
        for bessel in (bessel_i0, bessel_i1):
            together = bessel(x)
            assert np.array_equal(together, [bessel(float(v)) for v in x])
            assert np.array_equal(together[:4], bessel(x[:4]))
            assert np.array_equal(together[3:5], bessel(x[3:5]))

    def test_parity(self):
        assert bessel_i0(-3.0) == bessel_i0(3.0)
        assert bessel_i1(-3.0) == -bessel_i1(3.0)
        assert bessel_i0(0.0) == 1.0
        assert bessel_i1(0.0) == 0.0


def _density_in_floats(nu, gamma, t, phi):
    """The continuous phase density at one ``phi``, in Python floats."""
    window = nu * t
    if abs(phi) >= window:
        return 0.0
    w = math.sqrt(1.0 - (phi / window) ** 2)
    u = gamma * t * w
    i1_over_u = 0.5 + u * u / 16.0 if u < 1e-6 else bessel_i1(u) / u
    return 0.5 * math.exp(-gamma * t) * (gamma / nu) * (gamma * t * i1_over_u + bessel_i0(u))


class TestPhaseDensity:
    def test_zero_outside_window(self):
        value = telegraph_phase_density(1.0, 1.0, 2.0, phi=2.5)
        assert value.continuous_density == 0.0
        assert value.atom_weight == pytest.approx(0.5 * math.exp(-2.0))

    def test_total_mass_is_one(self):
        for gamma, nu, t in ((0.5, 1.0, 1.0), (2.0, 1.0, 1.5), (1.0, 3.0, 2.0)):
            mass, err = integrate.quad(
                lambda phi: telegraph_phase_density(nu, gamma, t, phi).continuous_density,
                -nu * t,
                nu * t,
                limit=200,
            )
            total = mass + 2.0 * telegraph_phase_density(nu, gamma, t, 0.0).atom_weight
            assert abs(total - 1.0) <= 1e-8

    def test_no_flip_limit(self):
        gamma, nu, t = 1e-9, 1.0, 1.0
        value = telegraph_phase_density(nu, gamma, t, 0.0)
        assert value.atom_weight == pytest.approx(0.5, abs=1e-9)
        mass, _ = integrate.quad(
            lambda phi: telegraph_phase_density(nu, gamma, t, phi).continuous_density,
            -nu * t,
            nu * t,
        )
        assert mass <= 2e-9

    def test_characteristic_function_is_decay_factor(self):
        for gamma, nu, t in ((0.5, 1.0, 1.0), (3.0, 1.0, 1.0), (1.0, 2.0, 1.5)):
            cont, _ = integrate.quad(
                lambda phi: math.cos(phi)
                * telegraph_phase_density(nu, gamma, t, phi).continuous_density,
                -nu * t,
                nu * t,
                limit=200,
            )
            atoms = 2.0 * telegraph_phase_density(nu, gamma, t, 0.0).atom_weight * math.cos(nu * t)
            assert abs(cont + atoms - decay_factor(nu, gamma, t)) <= 1e-6

    @pytest.mark.parametrize(
        "gamma, nu, t, odd",
        # at each ``odd`` phase a Python float's ``** 2``, which goes through
        # libm's pow, and ``x * x`` round differently enough to move the density
        [
            (1.0, 2.0, 1.0, [1.8320168020730474]),
            (30.0, 1.0, 2.0, [1.8022226055270352, 0.9868005249540817]),
        ],
    )
    def test_array_equals_plain_float_formula(self, gamma, nu, t, odd):
        phi = np.concatenate([np.linspace(-1.1 * nu * t, 1.1 * nu * t, 401), odd])
        density = telegraph_phase_density(nu, gamma, t, phi).continuous_density
        assert np.array_equal(density, [_density_in_floats(nu, gamma, t, p) for p in phi])

    @pytest.mark.parametrize(
        "gamma, nu, t",
        # gamma 1e-9 keeps every u below 1e-6; gamma t = 30 spans the Bessel
        # series and its asymptotic form
        [(1.0, 2.0, 1.0), (1e-9, 1.0, 1.0), (30.0, 0.5, 1.0), (0.5, 3.0, 4.0)],
    )
    def test_array_equals_scalar_element_by_element(self, gamma, nu, t):
        window = nu * t
        inner = np.nextafter(window, 0.0)
        edges = [window, -window, inner, -inner, window * (1 - 1e-12), 0.0, 2.0 * window]
        phi = np.concatenate([np.linspace(-1.1 * window, 1.1 * window, 203), edges])
        # the entries just inside the window take the u < 1e-6 branch
        assert gamma * t * math.sqrt(1.0 - (inner / window) ** 2) < 1e-6
        value = telegraph_phase_density(nu, gamma, t, phi.reshape(30, 7))
        assert value.continuous_density.shape == (30, 7)
        scalars = [telegraph_phase_density(nu, gamma, t, float(p)) for p in phi]
        density = value.continuous_density.ravel()
        assert np.array_equal(density, [v.continuous_density for v in scalars])
        assert all(v.atom_weight == value.atom_weight for v in scalars)
        # zero on the window's edges, positive just inside them
        assert density[-7] == density[-6] == 0.0
        assert density[-5] > 0.0 and density[-4] > 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            telegraph_phase_density(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            telegraph_phase_density(1.0, 1.0, 0.0, 0.0)


class TestAutocorrelationAndSpectrum:
    def test_autocorrelation_at_zero(self):
        assert telegraph_autocorrelation(2.0, 0.0) == 1.0

    def test_spectrum_at_zero(self):
        assert telegraph_spectrum(2.0, 0.0) == pytest.approx(1.0 / 2.0)

    def test_wiener_khinchin_normalisation(self):
        gamma = 1.3
        total, _ = integrate.quad(lambda w: telegraph_spectrum(gamma, w), -np.inf, np.inf)
        assert total == pytest.approx(2.0 * math.pi, rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_non_positive_or_non_finite_rate(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            telegraph_autocorrelation(gamma, 1.0)
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            telegraph_spectrum(gamma, 0.0)
