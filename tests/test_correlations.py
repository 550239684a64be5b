import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellnoise import correlations
from bellnoise.correlations import (
    _bound_coefficients,
    _entropies_after,
    _entropy_bound,
    _measurement_grid,
    _measurement_parts,
    _monomials,
    _search,
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
from bellnoise.scenarios import PRESETS, ScenarioConfig, _states_for, preset_config

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

    def test_optimizer_cap_raises(self, monkeypatch):
        monkeypatch.setattr(correlations, "_MAX_ITERATIONS", 2)
        monkeypatch.setattr(correlations, "_STEP_FLOOR", 1e-9)
        with pytest.raises(NumericalError, match="step floor 1e-09 within 2 iterations"):
            classical_correlations(dephased_bell_state(0.5))


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
        _, _, directions = _measurement_grid()
        for rho in (random_density(rng), dephased_bell_state(0.3 - 0.2j)):
            assert np.array_equal(
                conditional_entropy(rho, directions), conditional_entropy(rho, -directions)
            )

    def test_cached_grid_is_read_only(self):
        grid = _measurement_grid()
        assert _measurement_grid() is grid
        assert grid[2].shape == (64, 128, 3)
        monomials = correlations._grid_monomials()
        assert correlations._grid_monomials() is monomials
        assert monomials.shape == (9, 64 * 128)
        for array in grid + (monomials,):
            assert not array.flags.writeable


def unscreened_grid_optimum(rho, entropy_a):
    """``(value, theta, phi_az)`` of the first best direction of the full
    64 x 128 grid, every direction scored by the public kernel."""
    tt, pp, directions = _measurement_grid()
    values = entropy_a - conditional_entropy(rho, directions)
    best = int(np.argmax(values))
    return values.flat[best], tt.flat[best], pp.flat[best]


def bound_and_kernel(rho, directions):
    """The screen's bound and the exact kernel for one state at ``directions``."""
    parts = _measurement_parts(np.asarray(rho, dtype=complex).reshape(1, 4, 4))
    coefficients = [column[0] for column in (c.tolist() for c in _bound_coefficients(parts))]
    bound = _entropy_bound(*coefficients, _monomials(directions))
    return bound, _entropies_after(parts[0], directions)


def bound_with_every_term(trace, slope, even, odd, monomials):
    """The screen's bound summed over all thirteen terms, zero coefficients
    included: the arithmetic before zero terms were left out."""
    x, y, z = monomials[:3]
    along = slope[0] * x + slope[1] * y + slope[2] * z
    flip = odd[0] * x + odd[1] * y + odd[2] * z
    level = even[0] + even[1] * monomials[3]
    for coefficient, monomial in zip(even[2:], monomials[4:]):
        level += coefficient * monomial
    bound = np.zeros(monomials.shape[1])
    for numerator, p in ((level + flip, trace + along), (level - flip, trace - along)):
        keep = p > correlations._SCREEN_P_MIN
        bound += np.divide(numerator, p, out=np.zeros_like(p), where=keep)
    return bound


def kept_directions(rho):
    """The screen's kept set of one state's grid, from the bound and the
    kernel at every grid direction."""
    bound, kernel = bound_and_kernel(rho, _measurement_grid()[2].reshape(-1, 3))
    return np.flatnonzero(bound <= kernel[np.argmin(bound)] + correlations._SCREEN_SLACK)


def grid_phase_counts(states):
    """``(scored, calls)`` of the grid phase of one ``_search`` over a stack:
    the directions the exact kernel scores for each state, and the number of
    kernel calls.  Each direction is told to its state by the state's
    measurement parts, so identical states (a curve whose ``z`` has
    underflowed to 0) share their total evenly."""
    parts = _measurement_parts(states)
    keys = [row.tobytes() for row in parts]
    totals, calls = dict.fromkeys(keys, 0), []

    def counting(state_parts, n):
        calls.append(n.shape)
        for row in np.broadcast_to(state_parts, n.shape[:-1] + (4, 4)).reshape(-1, 4, 4):
            totals[row.tobytes()] += 1
        return _entropies_after(state_parts, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlations, "_entropies_after", counting)
        # a step floor above the grid's first step ends the search on the grid itself
        patch.setattr(correlations, "_STEP_FLOOR", 1.0)
        _search(parts, vn_entropy(partial_trace(states, "A")))
    return [totals[key] / keys.count(key) for key in keys], len(calls)


def random_x_state(rng):
    """An X state: nonzero entries on the diagonal and the anti-diagonal only."""
    diagonal = rng.dirichlet(np.ones(4))
    rho = np.diag(diagonal).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        size = math.sqrt(diagonal[i] * diagonal[j]) * rng.uniform(0.0, 1.0)
        rho[i, j] = size * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rho[j, i] = np.conj(rho[i, j])
    return rho


def partly_vanishing_state(family, rotated, seed):
    """A state of ``family`` whose screen coefficients vanish in part, after a
    random local unitary on qubit ``rotated`` ("A", "B" or None)."""
    rng = np.random.default_rng(seed)
    if family == "dephased":
        rho = dephased_bell_state(rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 6.3)))
    elif family == "half-mixed B":
        rho = np.kron(random_density(rng, n=2), np.eye(2) / 2)
    elif family == "x":
        rho = random_x_state(rng)
    else:
        rho = random_density(rng)
    if rotated:
        unitary = random_unitary(rng, n=2)
        local = np.kron(unitary, np.eye(2)) if rotated == "A" else np.kron(np.eye(2), unitary)
        rho = local @ rho @ local.conj().T
        rho = 0.5 * (rho + rho.conj().T)
    return rho


class TestGridScreen:
    """The bound screen keeps the grid's first maximum, bit for bit."""

    @staticmethod
    def _assert_screen_exact(states):
        entropy_a = vn_entropy(partial_trace(states, "A"))
        with pytest.MonkeyPatch.context() as patch:
            # a step floor above the grid's first step ends the search on the grid itself
            patch.setattr(correlations, "_STEP_FLOOR", 1.0)
            found = _search(_measurement_parts(states), entropy_a)
        for i, rho in enumerate(states):
            expected = unscreened_grid_optimum(rho, entropy_a[i])
            assert tuple(column[i] for column in found) == expected, i

    def test_random_full_rank_states(self, rng):
        for _ in range(40):
            self._assert_screen_exact(random_density(rng)[None])

    def test_states_where_directions_tie_or_outcomes_vanish(self, rng):
        up = np.diag([1.0, 0.0]).astype(complex)
        cases = [
            bell_projector(),  # z = 1: every direction gives 0 bits
            np.kron(up, up),  # |00>: nothing to learn, one outcome empty along z
            np.kron(random_density(rng, n=2), up),  # B pure: the -z outcome is empty
            np.eye(4, dtype=complex) / 4,  # every conditional state maximally mixed
        ]
        for rho in cases:
            self._assert_screen_exact(rho[None])

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_scored_as_one_stack(self, name):
        for topology in ("separate", "common"):
            cfg = preset_config(name, topology, n_points=21)
            self._assert_screen_exact(_states_for(cfg, np.linspace(0.0, cfg.t_max, 21)))

    @settings(max_examples=60)
    @given(
        family=st.sampled_from(["dephased", "half-mixed B", "x", "full rank"]),
        rotated=st.sampled_from([None, "A", "B"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_states_whose_bound_coefficients_vanish_in_part(self, family, rotated, seed):
        # The bound leaves out the terms whose coefficients are zero.  That
        # may flip the sign of a zero entry, which array_equal does not see.
        rho = partly_vanishing_state(family, rotated, seed)
        parts = _measurement_parts(rho[None])
        coefficients = [column[0] for column in (c.tolist() for c in _bound_coefficients(parts))]
        monomials = correlations._grid_monomials()
        assert np.array_equal(_entropy_bound(*coefficients, monomials),
                              bound_with_every_term(*coefficients, monomials))
        self._assert_screen_exact(rho[None])

    @pytest.mark.parametrize("topology", ["separate", "common"])
    @pytest.mark.parametrize("method, noise", [
        ("closed_form", "static"), ("closed_form", "rtn"), ("quadrature", "static"),
        ("mc", "static"), ("mc", "rtn"),
    ])
    def test_every_route_zeroes_the_left_out_terms(self, method, noise, topology):
        # Every route's states are dephased Bell states, whose marginals are
        # I/2: the slope, the odd part and the mixed quadratic terms vanish
        # exactly, so the bound skips them.  Rounding noise there would slow
        # scoring down without failing any other test.
        noise_params = dict(gamma=0.2) if noise == "rtn" else dict(c0=1.0, delta_c=1.0)
        cfg = ScenarioConfig(noise_kind=noise, topology=topology, method=method,
                             n_points=11, n_samples=512, **noise_params)
        states = _states_for(cfg, np.linspace(0.0, cfg.t_max, cfg.n_points))
        _, slope, even, odd = _bound_coefficients(_measurement_parts(states))
        assert not slope.any() and not odd.any() and not even[:, 4:].any()

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mixing_a=st.floats(0.0, 1.0),
        mixing_b=st.floats(0.0, 1.0),
        tilt=st.floats(1e-7, 1.0),
    )
    def test_bound_never_exceeds_the_kernel(self, seed, mixing_a, mixing_b, tilt):
        # Qubit states mixed towards pure ones.  Directions tilted from B's
        # Bloch vector by `tilt` give one outcome a probability down to
        # ~1e-14, well below the 1e-4 cut-off; a pure A makes the bound tight.
        rng = np.random.default_rng(seed)

        def towards_pure(mixing):
            pure = random_unitary(rng, n=2)[:, :1]
            return (1.0 - mixing) * (pure @ pure.conj().T) + mixing * random_density(rng, n=2)

        b_state = towards_pure(mixing_b)
        rho = np.kron(towards_pure(mixing_a), b_state)
        if seed % 2:
            rho = 0.5 * (rho + random_density(rng))
        bloch = np.real([np.trace(b_state @ p) for p in correlations._PAULIS])
        bloch /= np.linalg.norm(bloch)
        random = rng.normal(size=(32, 3))
        random /= np.linalg.norm(random, axis=1, keepdims=True)
        tilted = bloch + tilt * random
        tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
        directions = np.concatenate([random, tilted, [bloch, -bloch]])
        bound, kernel = bound_and_kernel(rho, directions)
        # the screen's 1e-8 slack covers rounding 1000 times this allowance
        assert np.all(bound <= kernel + 1e-11)

    def test_bound_is_the_topsoe_form(self):
        # conditional states I/4 give h(1/2) = 1 = 4 (1/2)(1/2): the bound is tight
        directions = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        bound, kernel = bound_and_kernel(np.eye(4) / 4, directions)
        assert np.all(bound == 1.0) and np.all(kernel == 1.0)
        # pure conditional states: h = 0 = 4 det / p
        bound, kernel = bound_and_kernel(bell_projector(), directions)
        assert np.allclose(bound, 0.0, atol=1e-15) and np.allclose(kernel, 0.0, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_screen_scores_few_directions_after_t0(self, name):
        # a guard against a screen that stops pruning: past t = 0 only the
        # directions near the optimum may reach the exact kernel
        for topology in ("separate", "common"):
            cfg = preset_config(name, topology, n_points=21)
            states = _states_for(cfg, np.linspace(0.0, cfg.t_max, 21))[1:]
            scored, _ = grid_phase_counts(states)
            assert min(scored) > 0, topology
            assert sum(scored) < 0.05 * len(states) * 64 * 128, (topology, sum(scored))


def pure_state(vector):
    vector = np.asarray(vector, dtype=complex)
    vector = vector / np.linalg.norm(vector)
    return np.outer(vector, vector.conj())


def random_pure_state(seed):
    rng = np.random.default_rng(seed)
    return pure_state(rng.normal(size=4) + 1j * rng.normal(size=4))


BELL_STATES = [pure_state(v) for v in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])]


class TestPureOutcomeShortcut:
    """A zero floor ends a state's grid scan at the first kept direction worth S(A)."""

    @settings(max_examples=40)
    @given(
        rho=st.one_of(
            st.integers(0, 2**32 - 1).map(random_pure_state),
            st.sampled_from(BELL_STATES),
            st.floats(0.0, 2.0 * math.pi).map(lambda a: dephased_bell_state(np.exp(1j * a))),
        )
    )
    def test_pick_is_the_unscreened_grid_optimum(self, rho):
        # whether or not the shortcut fires for this state
        TestGridScreen._assert_screen_exact(rho[None])

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_only_the_t0_bell_state_skips_the_grid_scan(self, name):
        # each state scores its lowest-bound direction, then the t = 0 Bell
        # state its probe alone and every other state its kept set
        for topology in ("separate", "common"):
            cfg = preset_config(name, topology, n_points=21)
            states = _states_for(cfg, np.linspace(0.0, cfg.t_max, 21))
            expected = [2] + [1 + kept_directions(rho).size for rho in states[1:]]
            assert grid_phase_counts(states)[0] == expected, topology
            assert grid_phase_counts(states[:1])[0] == [2], topology


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
        # the measurement search of every path reports `total + excess`
        rho = dephased_bell_state(0.5)
        total = mutual_information(rho)

        def search(parts, entropy_a):
            count = len(entropy_a)
            return np.full(count, total + excess), np.zeros(count), np.zeros(count)

        monkeypatch.setattr(correlations, "_search", search)
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


class TestStackScoring:
    """A stack of states scores exactly as its states do one at a time."""

    @staticmethod
    def _assert_alone_equal(states):
        columns = np.array(astuple(measure_correlations(states)))
        assert columns.shape == (4, len(states))
        for state, row in zip(states, columns.T):
            # list equality compares the four floats exactly
            assert row.tolist() == list(astuple(measure_correlations(state)))

    def test_random_full_rank_states(self, rng):
        self._assert_alone_equal(np.stack([random_density(rng) for _ in range(20)]))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_grid(self, name):
        for topology in ("separate", "common"):
            cfg = preset_config(name, topology, n_points=21)
            self._assert_alone_equal(_states_for(cfg, np.linspace(0.0, cfg.t_max, 21)))

    def test_shuffled_stack_over_a_group_with_full_scans(self, rng):
        # Random pure states whose zero-floor probe fails keep all 8192
        # directions, across the kernel's slices and mixed with other states'
        # directions within a slice.  Dephased states, rotated on B or not,
        # keep 2 to 12.
        directions = _measurement_grid()[2].reshape(-1, 3)
        failing = []
        for seed in range(100):
            rho = random_pure_state(seed)
            kept = kept_directions(rho)
            entropy_a = vn_entropy(partial_trace(rho, "A"))
            probe = entropy_a - conditional_entropy(rho, directions[kept[0]])
            if kept.size == 64 * 128 and probe != entropy_a:
                failing.append(rho)
            if len(failing) == 6:
                break
        states = BELL_STATES + failing + [random_density(rng) for _ in range(12)]
        states += [partly_vanishing_state("dephased", rotated, seed)
                   for seed, rotated in enumerate([None, "B"] * 9)]
        states = np.stack(states)[rng.permutation(len(states))]
        assert len(states) > correlations._GRID_GROUP and len(failing) == 6
        self._assert_alone_equal(states)
        TestGridScreen._assert_screen_exact(states)

    @pytest.mark.parametrize("n_points, names", [(21, sorted(PRESETS)), (801, ["fig1-static"])])
    def test_grid_phase_makes_at_most_three_kernel_calls_per_group(self, n_points, names):
        # the lowest-bound directions, the zero-floor probes and the kept sets
        # of a whole group of states take one call each (one per state before)
        groups = math.ceil(n_points / correlations._GRID_GROUP)
        for name in names:
            for topology in ("separate", "common"):
                cfg = preset_config(name, topology, n_points=n_points)
                states = _states_for(cfg, np.linspace(0.0, cfg.t_max, n_points))
                _, calls = grid_phase_counts(states)
                assert calls <= 3 * groups, (name, topology, calls)

    def test_one_state_gives_one_report(self):
        # of floats; a stack of one state gives one report of length-1 arrays
        report = astuple(measure_correlations(dephased_bell_state(0.5)))
        assert all(type(value) is float for value in report)
        columns = measure_correlations(dephased_bell_state(np.array([0.5])))
        assert np.array(astuple(columns)).tolist() == [[value] for value in report]

    def test_failure_names_the_first_invalid_state(self):
        states = dephased_bell_state(np.linspace(0.0, 1.0, 6))
        states[4] *= 2.0
        states[2] *= 2.0
        with pytest.raises(InvalidStateError, match="trace") as caught:
            measure_correlations(states)
        assert caught.value.index == 2

    def test_failure_names_the_earliest_state_whatever_the_check(self, monkeypatch):
        # validation runs first over the whole stack and finds state 3; the
        # search cap fails every valid state, so state 0 fails first
        monkeypatch.setattr(correlations, "_MAX_ITERATIONS", 1)
        states = dephased_bell_state(np.linspace(0.0, 1.0, 5))
        states[3, 0, 0] = np.nan
        with pytest.raises(NumericalError, match="step floor") as caught:
            measure_correlations(states)
        assert caught.value.index == 0

    def test_long_curve_stays_small_in_memory(self):
        # scoring the grid of all 801 states at once would take hundreds of MB
        cfg = preset_config("fig2-nonmarkov", "common")
        states = _states_for(cfg, np.linspace(0.0, cfg.t_max, cfg.n_points))
        tracemalloc.start()
        try:
            measure_correlations(states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


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

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            dephased_bell_discord(math.nan)

    @settings(max_examples=30)
    @given(radius=st.floats(0.0, 1.0), angle=st.floats(0.0, 2.0 * math.pi))
    def test_complex_factor_is_scored_by_its_modulus(self, radius, angle):
        z = np.complex128(radius * np.exp(1j * angle))
        for factor in (z, complex(z)):
            assert dephased_bell_discord(factor) == dephased_bell_discord(abs(z))
        # criterion 5's tolerance against the numeric discord
        assert abs(dephased_bell_discord(z) - discord(dephased_bell_state(z))) <= 1e-4


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

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, np.array([0.0, -1.0])])
    def test_static_rejects_a_negative_or_non_finite_time(self, t):
        # as telegraph_negativity does through decay_factor
        noise = StaticNoiseSpec(c0=1.0, delta_c=1.0)
        for topology in ("separate", "common"):
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                static_negativity(noise, 1.0, t, topology)
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                telegraph_negativity(TelegraphSpec(gamma=1.0), 1.0, t, topology)

    @pytest.mark.parametrize("nu", [math.inf, math.nan, 0.0, -1.0])
    def test_static_rejects_a_non_positive_or_non_finite_coupling(self, nu):
        noise = StaticNoiseSpec(c0=1.0, delta_c=1.0)
        for topology in ("separate", "common"):
            with pytest.raises(ValueError, match="nu must be finite and positive"):
                static_negativity(noise, nu, 1.0, topology)

    @pytest.mark.parametrize("nu", [math.inf, math.nan, 0.0, -1.0])
    def test_telegraph_rejects_a_non_positive_or_non_finite_coupling(self, nu):
        # the message names nu, not the coupling 2 nu or 4 nu decay_factor sees
        spec = TelegraphSpec(gamma=1.0)
        for topology in ("separate", "common"):
            with pytest.raises(ValueError, match="nu must be finite and positive"):
                telegraph_negativity(spec, nu, 2.0, topology)

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
