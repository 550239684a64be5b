import math

import numpy as np
import pytest

from bellnoise import correlations
from bellnoise.correlations import (
    MeasurementOptimum,
    OptimizerSettings,
    _measurement_grid,
    classical_correlations,
    conditional_entropy,
    dephased_bell_discord,
    discord,
    measure_correlations,
    mutual_information,
    negativity,
    static_negativity,
    telegraph_negativity,
)
from bellnoise.errors import InvalidStateError, NumericalError
from bellnoise.evolve import (
    HamiltonianSpec,
    closed_form_rtn,
    closed_form_static,
    dephased_bell_state,
)
from bellnoise.linalg import partial_trace, vn_entropy
from bellnoise.noise import StaticNoiseSpec, TelegraphSpec, decay_factor

from conftest import (
    bell_projector,
    partial_trace_reference,
    partial_transpose_reference,
    random_density,
    random_unitary,
)

HAM = HamiltonianSpec(nu=1.0)


class TestNegativity:
    def test_bell_state_maximal(self):
        assert negativity(bell_projector()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_separable(self):
        assert negativity(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)

    def test_static_family_matches_eigendecomposition(self, rng):
        # the family has N = 4 sqrt(alpha^2 + |beta|^2): check the closed-form
        # value and an independent eigensolver on the partial transpose
        for _ in range(25):
            noise = StaticNoiseSpec(c0=rng.uniform(-2, 2), delta_c=rng.uniform(0.1, 2.0))
            t = rng.uniform(0.01, 12.0)
            for topo in ("separate", "common"):
                x = noise.delta_c * HAM.nu * t
                envelope = (
                    (np.sin(x) / x) ** 2 if topo == "separate" else np.sin(2 * x) / (2 * x)
                )
                alpha = 0.25 * math.cos(4 * noise.c0 * HAM.nu * t) * envelope
                beta = 0.25 * math.sin(4 * noise.c0 * HAM.nu * t) * envelope
                rho = closed_form_static(HAM, noise, topo, t)
                brute = np.linalg.eigvalsh(partial_transpose_reference(rho))
                n_brute = 2.0 * abs(brute[brute < 0].sum())
                n_package = negativity(rho)
                assert n_package == pytest.approx(4.0 * math.hypot(alpha, beta), abs=1e-12)
                assert n_package == pytest.approx(n_brute, abs=1e-12)

    def test_local_unitary_invariance(self, rng):
        for _ in range(10):
            rho = random_density(rng)
            u = np.kron(random_unitary(rng, n=2), random_unitary(rng, n=2))
            rotated = u @ rho @ u.conj().T
            rotated = 0.5 * (rotated + rotated.conj().T)
            assert abs(negativity(rho) - negativity(rotated)) <= 1e-10

    def test_rejects_invalid_state(self):
        with pytest.raises(InvalidStateError):
            negativity(2.0 * bell_projector())


class TestMutualInformation:
    def test_bell_state_two_bits(self):
        assert mutual_information(bell_projector()) == pytest.approx(2.0, abs=1e-12)

    def test_product_state_zero(self, rng):
        product = np.kron(random_density(rng, n=2), random_density(rng, n=2))
        assert mutual_information(product) == pytest.approx(0.0, abs=1e-10)

    def test_fully_dephased_mixture_one_bit(self):
        assert mutual_information(dephased_bell_state(0.0)) == pytest.approx(1.0, abs=1e-12)


class TestClassicalCorrelations:
    def test_bell_state_one_bit(self):
        result = classical_correlations(bell_projector())
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_product_state_zero(self, rng):
        product = np.kron(random_density(rng, n=2), random_density(rng, n=2))
        assert classical_correlations(product).value == pytest.approx(0.0, abs=1e-9)

    def test_dephased_mixture_optimum_along_x(self):
        result = classical_correlations(dephased_bell_state(0.0))
        assert result.value == pytest.approx(1.0, abs=1e-9)
        n_x = math.sin(result.theta) * math.cos(result.phi_az)
        assert abs(n_x) >= 0.999

    @staticmethod
    def _grid_max(rho, entropy_a, thetas, phis):
        best_value, best_theta, best_phi = -np.inf, 0.0, 0.0
        for block in np.array_split(thetas, max(1, thetas.size // 64)):
            tt, pp = np.meshgrid(block, phis, indexing="ij")
            st = np.sin(tt)
            directions = np.stack([st * np.cos(pp), st * np.sin(pp), np.cos(tt)], axis=-1)
            values = entropy_a - conditional_entropy(rho, directions)
            flat = int(np.argmax(values))
            if values.flat[flat] > best_value:
                best_value = float(values.flat[flat])
                best_theta = float(tt.flat[flat])
                best_phi = float(pp.flat[flat])
        return best_value, best_theta, best_phi

    def test_matches_exhaustive_grid(self):
        states = [
            dephased_bell_state(0.35),
            dephased_bell_state(0.8 * np.exp(0.7j)),
            closed_form_static(HAM, StaticNoiseSpec(c0=0.9, delta_c=1.1), "common", 1.7),
        ]
        thetas = np.linspace(0.0, math.pi, 1024)
        phis = np.arange(2048) * (2.0 * math.pi / 2048)
        spacing = 2.0 * math.pi / 2048
        for rho in states:
            entropy_a = vn_entropy(partial_trace(rho, "A"))
            best, theta0, phi0 = self._grid_max(rho, entropy_a, thetas, phis)
            # the coarse grid undershoots the smooth maximum by up to
            # curvature * (spacing/2)^2 ~ 1e-5, so sharpen it locally before
            # holding the optimizer to the 1e-5 comparison
            local_t = np.clip(np.linspace(theta0 - spacing, theta0 + spacing, 65), 0.0, math.pi)
            local_p = np.linspace(phi0 - spacing, phi0 + spacing, 65)
            refined, _, _ = self._grid_max(rho, entropy_a, local_t, local_p)
            best = max(best, refined)
            assert classical_correlations(rho).value == pytest.approx(best, abs=1e-5)

    def test_antipodal_directions_give_identical_value(self, rng):
        rho = random_density(rng)
        direction = np.array([0.3, -0.5, 0.81])
        direction /= np.linalg.norm(direction)
        assert conditional_entropy(rho, direction) == conditional_entropy(rho, -direction)

    def test_optimizer_cap_raises(self):
        settings = OptimizerSettings(max_iterations=2, step_floor=1e-9)
        with pytest.raises(NumericalError, match="step floor"):
            classical_correlations(dephased_bell_state(0.5), settings)


def conditional_entropy_reference(rho, direction):
    """Textbook form: explicit projectors (I +- n.sigma)/2 on B, one at a time."""
    pauli = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    n_sigma = sum(component * matrix for component, matrix in zip(direction, pauli))
    total = 0.0
    for sign in (1.0, -1.0):
        projector = 0.5 * (np.eye(2) + sign * n_sigma)
        conditional = partial_trace_reference(rho @ np.kron(np.eye(2), projector), "A")
        p = conditional.trace().real
        if p <= 1e-14:
            continue
        spectrum = np.clip(np.linalg.eigvalsh(conditional / p), 0.0, 1.0)
        spectrum = spectrum[spectrum > 0.0]
        total += p * float(-np.sum(spectrum * np.log2(spectrum)))
    return total


class TestConditionalEntropyOracle:
    """The Pauli-block kernel against explicit projectors, direction by direction."""

    @staticmethod
    def _directions(rng):
        random = rng.normal(size=(8, 3))
        random /= np.linalg.norm(random, axis=1, keepdims=True)
        phis = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
        equator = np.stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)], axis=1)
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        return np.concatenate([random, -random[:3], equator, poles])

    def test_matches_explicit_projectors(self, rng):
        states = [random_density(rng) for _ in range(18)]
        states += [bell_projector(), dephased_bell_state(0.6 * np.exp(0.4j))]
        for rho in states:
            directions = self._directions(rng)
            kernel = conditional_entropy(rho, directions)
            reference = [conditional_entropy_reference(rho, n) for n in directions]
            assert np.max(np.abs(kernel - reference)) <= 1e-13
            # one direction at a time returns a float of the same value
            single = conditional_entropy(rho, directions[0])
            assert isinstance(single, float)
            assert abs(single - reference[0]) <= 1e-13

    def test_antipodal_grid_is_exact(self, rng):
        _, _, directions = _measurement_grid(64, 128)
        for rho in (random_density(rng), dephased_bell_state(0.3 - 0.2j)):
            assert np.array_equal(
                conditional_entropy(rho, directions), conditional_entropy(rho, -directions)
            )

    def test_cached_grid_is_read_only(self):
        grid = _measurement_grid(64, 128)
        assert _measurement_grid(64, 128) is grid
        assert grid[2].shape == (64, 128, 3)
        for array in grid:
            assert not array.flags.writeable


class TestDiscord:
    def test_bell_state_one_bit(self):
        assert discord(bell_projector()) == pytest.approx(1.0, abs=1e-9)

    def test_classical_mixture_zero(self):
        assert discord(dephased_bell_state(0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_matches_closed_form_at_half(self):
        assert discord(dephased_bell_state(0.5)) == pytest.approx(
            dephased_bell_discord(0.5), abs=1e-4
        )

    def test_even_and_monotone_on_family(self):
        values = []
        for lam in np.linspace(0.0, 1.0, 51):
            q = discord(dephased_bell_state(lam))
            assert abs(q - discord(dephased_bell_state(-lam))) <= 1e-6
            values.append(q)
        assert np.all(np.diff(values) >= -1e-6)

    def test_phase_of_mean_factor_is_local_unitary(self):
        q_real = discord(dephased_bell_state(0.6))
        q_rotated = discord(dephased_bell_state(0.6 * np.exp(1.1j)))
        assert abs(q_real - q_rotated) <= 1e-6


class TestDiscordFloor:
    """``discord`` and ``measure_correlations`` share one check of total - classical."""

    @staticmethod
    def _classical_above_total(monkeypatch, excess):
        rho = dephased_bell_state(0.5)
        total = mutual_information(rho)
        monkeypatch.setattr(
            correlations,
            "classical_correlations",
            lambda state, settings=None: MeasurementOptimum(total + excess, 0.0, 0.0),
        )
        return rho

    def test_optimizer_noise_is_tolerated(self, monkeypatch):
        rho = self._classical_above_total(monkeypatch, 5e-7)
        assert discord(rho) == 0.0
        assert -1e-6 < measure_correlations(rho).discord < 0.0

    def test_below_floor_raises_from_both(self, monkeypatch):
        rho = self._classical_above_total(monkeypatch, 2e-6)
        with pytest.raises(NumericalError, match="below the 1e-06 floor"):
            discord(rho)
        with pytest.raises(NumericalError, match="below the 1e-06 floor"):
            measure_correlations(rho)


class TestClosedFormDiscord:
    def test_endpoints_exact(self):
        assert dephased_bell_discord(0.0) == 0.0
        assert dephased_bell_discord(1.0) == 1.0
        assert dephased_bell_discord(-1.0) == 1.0

    def test_half_value(self):
        assert dephased_bell_discord(0.5) == pytest.approx(0.18872187554086717, abs=1e-12)

    def test_even(self):
        assert dephased_bell_discord(-0.3) == dephased_bell_discord(0.3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            dephased_bell_discord(1.0 + 1e-9)


class TestClosedFormNegativities:
    def test_static_short_time_limits(self):
        noise = StaticNoiseSpec(c0=1.0, delta_c=1.0)
        for topo in ("separate", "common"):
            assert static_negativity(noise, 1.0, 0.0, topo) == pytest.approx(1.0, abs=1e-15)

    def test_static_separate_quarter_period(self):
        noise = StaticNoiseSpec(c0=1.0, delta_c=1.0)
        value = static_negativity(noise, 1.0, math.pi / 2, "separate")
        assert value == pytest.approx((2.0 / math.pi) ** 2, abs=1e-15)

    def test_static_common_magnitude_on_negative_lobe(self):
        # at delta_c nu t = 3 pi / 4 the bare sin(2x)/(2x) is negative; the
        # negativity is its magnitude and must agree with the eigenvalue route
        noise = StaticNoiseSpec(c0=1.0, delta_c=1.0)
        t = 3.0 * math.pi / 4.0
        value = static_negativity(noise, 1.0, t, "common")
        assert value == pytest.approx(2.0 / (3.0 * math.pi), abs=1e-15)
        assert value == pytest.approx(
            negativity(closed_form_static(HAM, noise, "common", t)), abs=1e-12
        )

    def test_telegraph_time_zero(self):
        spec = TelegraphSpec(gamma=0.2)
        for topo in ("separate", "common"):
            assert telegraph_negativity(spec, 1.0, 0.0, topo) == pytest.approx(1.0, abs=1e-15)

    def test_telegraph_common_first_zero(self):
        gamma = 0.2
        spec = TelegraphSpec(gamma=gamma)
        delta = math.sqrt(16.0 - gamma * gamma)
        t_star = (math.pi - math.atan(delta / gamma)) / delta
        assert telegraph_negativity(spec, 1.0, t_star, "common") <= 1e-12
        # bisection on the decay factor confirms the root location
        lo, hi = 0.9 * t_star, 1.1 * t_star
        assert decay_factor(4.0, gamma, lo) * decay_factor(4.0, gamma, hi) < 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if decay_factor(4.0, gamma, lo) * decay_factor(4.0, gamma, mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - t_star) <= 1e-10

    def test_telegraph_matches_eigenvalue_route(self):
        times = np.linspace(0.0, 20.0, 101)
        for ratio in (0.2, 5.0):
            spec = TelegraphSpec(gamma=1.0 / ratio)
            for topo in ("separate", "common"):
                closed = telegraph_negativity(spec, 1.0, times, topo)
                numeric = [negativity(closed_form_rtn(HAM, spec, topo, t)) for t in times]
                assert np.max(np.abs(closed - numeric)) <= 1e-12


class TestReports:
    def test_report_is_internally_consistent(self):
        for lam in (0.0, 0.4, 0.9, 1.0):
            report = measure_correlations(dephased_bell_state(lam))
            assert report.discord == report.mutual_info - report.classical
            assert 0.0 <= report.classical <= report.mutual_info + 1e-12 <= 2.0 + 1e-12
            assert -1e-12 <= report.negativity <= 1.0 + 1e-9

    def test_evolver_battery_bounds(self):
        spec = TelegraphSpec(gamma=0.5)
        noise = StaticNoiseSpec(c0=1.0, delta_c=1.0)
        for t in (0.0, 1.1, 4.0):
            for rho in (
                closed_form_rtn(HAM, spec, "separate", t),
                closed_form_static(HAM, noise, "common", t),
            ):
                report = measure_correlations(rho)
                assert 0.0 - 1e-9 <= report.classical <= report.mutual_info + 1e-9
                assert report.mutual_info <= 2.0 + 1e-9
                assert 0.0 - 1e-9 <= report.negativity <= 1.0 + 1e-9
                assert report.discord >= -1e-6
