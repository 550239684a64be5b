import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellnoise import evolve
from bellnoise.errors import NumericalError
from bellnoise.evolve import (
    TOPOLOGIES,
    HamiltonianSpec,
    average_rtn_mc,
    average_static_mc,
    average_static_quadrature,
    check_topology,
    closed_form_rtn,
    closed_form_static,
    dephased_bell_state,
    realization_state,
    sinc,
)
from bellnoise.linalg import partial_trace, validate_state
from bellnoise.noise import StaticNoiseSpec, TelegraphSpec, decay_factor

from conftest import bell_projector, dephasing_scalar_of, single_qubit_rotation

HAM = HamiltonianSpec(nu=1.0)
STATIC = StaticNoiseSpec(c0=1.0, delta_c=1.0)


class TestRealizationState:
    def test_zero_phases_give_bell_projector(self):
        assert np.array_equal(realization_state(0.0, 0.0), bell_projector())

    def test_opposite_phases_cancel(self, rng):
        for phi in rng.uniform(-10, 10, size=20):
            assert np.allclose(realization_state(phi, -phi), bell_projector(), atol=1e-15)

    def test_depends_on_phase_sum_only(self, rng):
        for _ in range(20):
            a, b, shift = rng.uniform(-5, 5, size=3)
            first = realization_state(a, b)
            second = realization_state(a + shift, b - shift)
            assert np.max(np.abs(first - second)) <= 1e-14

    def test_matches_independent_rotation_construction(self, rng):
        bell = bell_projector()
        for _ in range(50):
            phi_a, phi_b = rng.uniform(-8, 8, size=2)
            u = np.kron(single_qubit_rotation(phi_a), single_qubit_rotation(phi_b))
            reference = u @ bell @ u.conj().T
            assert np.max(np.abs(realization_state(phi_a, phi_b) - reference)) <= 1e-13

    def test_purity(self, rng):
        for _ in range(20):
            rho = realization_state(*rng.uniform(-6, 6, size=2))
            assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-12

    def test_structure_coefficients(self, rng):
        # corner + center entries sum to 1/2, off entries purely imaginary
        for _ in range(20):
            rho = realization_state(*rng.uniform(-6, 6, size=2))
            assert abs(rho[0, 0].real + rho[1, 1].real - 0.5) <= 1e-14
            assert abs(rho[0, 0].imag) <= 1e-15
            assert abs(rho[0, 1].real) <= 1e-15


class TestClosedFormStatic:
    def test_time_zero_is_bell(self):
        for topo in ("separate", "common"):
            assert np.allclose(
                closed_form_static(HAM, STATIC, topo, 0.0), bell_projector(), atol=1e-15
            )

    def test_sinc_zero_times_give_bell_mixture(self):
        # separate: delta_c nu t = k pi kills the coherence envelope entirely
        t = np.pi / (STATIC.delta_c * HAM.nu)
        rho = closed_form_static(HAM, STATIC, "separate", t)
        expected = dephased_bell_state(0.0)
        assert np.max(np.abs(rho - expected)) <= 1e-14

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            closed_form_static(HAM, STATIC, "separate", -0.1)


class TestClosedFormRtn:
    def test_time_zero_is_bell(self):
        spec = TelegraphSpec(gamma=0.2)
        for topo in ("separate", "common"):
            assert np.allclose(closed_form_rtn(HAM, spec, topo, 0.0), bell_projector(), atol=1e-15)

    def test_fully_dephased_limit(self):
        rho = dephased_bell_state(0.0)
        expected = 0.25 * (np.eye(4) + np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]))
        assert np.max(np.abs(rho - expected)) <= 1e-15

    def test_first_decay_zero_gives_bell_mixture(self):
        # common environment, slow switching: the mean phase factor crosses zero at
        # t* = (pi - arctan(delta/gamma)) / delta with delta = sqrt((4 nu)^2 - gamma^2)
        gamma = 0.2
        spec = TelegraphSpec(gamma=gamma)
        delta = np.sqrt(16.0 - gamma * gamma)
        t_star = (np.pi - np.arctan(delta / gamma)) / delta
        assert abs(decay_factor(4.0, gamma, t_star)) <= 1e-12
        rho = closed_form_rtn(HAM, spec, "common", t_star)
        assert np.max(np.abs(rho - dephased_bell_state(0.0))) <= 1e-12


class TestQuadrature:
    def test_time_zero_is_bell(self):
        for topo in ("separate", "common"):
            rho = average_static_quadrature(HAM, STATIC, topo, 0.0, nodes=8)
            assert np.max(np.abs(rho - bell_projector())) <= 1e-14

    def test_matches_closed_form(self, rng):
        for _ in range(15):
            noise = StaticNoiseSpec(c0=rng.uniform(-2, 2), delta_c=rng.uniform(0.1, 2.0))
            t = rng.uniform(0.0, 40.0) / (noise.delta_c * HAM.nu)
            for topo in ("separate", "common"):
                quad = average_static_quadrature(HAM, noise, topo, t, nodes=64)
                closed = closed_form_static(HAM, noise, topo, t)
                assert np.max(np.abs(quad - closed)) <= 1e-9

    def test_node_doubling_converged(self, rng):
        # separate stays spectrally converged through delta_c nu t = 50; the
        # common-environment integrand oscillates twice as fast, so its
        # converged window at 64 nodes ends near delta_c nu t ~ 44
        for x, topo in ((50.0, "separate"), (44.0, "common")):
            noise = StaticNoiseSpec(c0=0.5, delta_c=1.0)
            t = x / (noise.delta_c * HAM.nu)
            coarse = average_static_quadrature(HAM, noise, topo, t, nodes=64)
            fine = average_static_quadrature(HAM, noise, topo, t, nodes=128)
            assert np.max(np.abs(coarse - fine)) <= 1e-12

    def test_separate_average_factorises(self):
        # package 2-D average against an independent product of 1-D integrals
        noise = StaticNoiseSpec(c0=0.8, delta_c=1.3)
        t = 2.7
        rho = average_static_quadrature(HAM, noise, "separate", t, nodes=64)
        x, w = np.polynomial.legendre.leggauss(64)
        c = noise.c0 + 0.5 * noise.delta_c * x
        single = np.sum(0.5 * w * np.exp(-2j * HAM.nu * c * t))
        assert abs(dephasing_scalar_of(rho) - single**2) <= 1e-12

    def test_legendre_rule_is_built_once_per_node_count(self, monkeypatch):
        real = np.polynomial.legendre.leggauss
        calls = []
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or real(n))
        evolve._legendre_rule.cache_clear()
        for t in (0.5, 1.0, 2.0):
            average_static_quadrature(HAM, STATIC, "separate", t, nodes=77)
        assert calls == [77]
        x, w = evolve._legendre_rule(77)
        assert not x.flags.writeable and not w.flags.writeable
        x_ref, w_ref = real(77)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            average_static_quadrature(HAM, STATIC, "separate", 1.0, nodes=1)

    def test_rejects_more_nodes_than_the_cap(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"leggauss called with {n} nodes")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        with pytest.raises(ValueError, match="2 to 1024 quadrature nodes"):
            average_static_quadrature(HAM, STATIC, "separate", 1.0, nodes=1025)

    def test_refuses_oscillation_beyond_its_resolution(self):
        # 1.4 rad per node: delta_c nu t = 1.4 * 64 = 89.6 is the last separate
        # time 64 nodes resolve, and half of it the last common one
        noise = StaticNoiseSpec(c0=0.5, delta_c=1.0)
        average_static_quadrature(HAM, noise, "separate", 89.6, nodes=64)
        average_static_quadrature(HAM, noise, "common", 44.8, nodes=64)
        with pytest.raises(NumericalError, match="needs nodes >= 65"):
            average_static_quadrature(HAM, noise, "separate", 89.7, nodes=64)
        with pytest.raises(NumericalError, match="needs nodes >= 143"):
            average_static_quadrature(HAM, noise, "common", 100.0, nodes=64)
        fine = average_static_quadrature(HAM, noise, "common", 100.0, nodes=143)
        assert np.max(np.abs(fine - closed_form_static(HAM, noise, "common", 100.0))) <= 1e-9

    def test_chooses_node_count_when_unset(self):
        # max(64, ceil(oscillation / 1.4)) nodes, capped at 1024
        noise = StaticNoiseSpec(c0=0.5, delta_c=1.0)
        assert np.array_equal(
            average_static_quadrature(HAM, noise, "common", 1.0),
            average_static_quadrature(HAM, noise, "common", 1.0, nodes=64),
        )
        assert np.array_equal(
            average_static_quadrature(HAM, noise, "common", 100.0),
            average_static_quadrature(HAM, noise, "common", 100.0, nodes=143),
        )
        with pytest.raises(NumericalError, match="needs nodes >= 1143"):
            average_static_quadrature(HAM, noise, "common", 800.0)


class TestStaticMonteCarlo:
    def test_time_zero_exact_bell(self):
        rho = average_static_mc(HAM, STATIC, "separate", 0.0, 256, seed=1)
        assert np.array_equal(rho, bell_projector())

    def test_converges_to_closed_form(self):
        times = np.linspace(0.0, 10.0, 11)
        for topo in ("separate", "common"):
            states = average_static_mc(HAM, STATIC, topo, times, 20_000, seed=5)
            worst = max(
                np.max(np.abs(s - closed_form_static(HAM, STATIC, topo, t)))
                for t, s in zip(times, states)
            )
            assert worst <= 4.0 * 3.0 * 0.71 / np.sqrt(20_000)  # 3 sigma on the phase factor

    def test_unbiased_across_seeds(self):
        # the stratified draws and the product of the two environments' means
        # are where bias could enter: the grand mean over independent seeds
        # must agree with the closed form within the standard error of the
        # seed means
        t = 3.0
        for topo in ("separate", "common"):
            estimates = np.array(
                [
                    dephasing_scalar_of(average_static_mc(HAM, STATIC, topo, t, 64, seed=seed))
                    for seed in range(30)
                ]
            )
            exact = dephasing_scalar_of(closed_form_static(HAM, STATIC, topo, t))
            standard_error = estimates.std(ddof=1) / np.sqrt(len(estimates))
            assert abs(estimates.mean() - exact) <= 3.0 * standard_error, topo

    def test_worker_count_invariance(self):
        times = np.linspace(0.0, 5.0, 6)
        one = average_static_mc(HAM, STATIC, "separate", times, 4096, seed=3, workers=1)
        many = average_static_mc(HAM, STATIC, "separate", times, 4096, seed=3, workers=8)
        assert np.array_equal(one, many)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            average_static_mc(HAM, STATIC, "separate", np.array([1.0, 0.5]), 16, seed=0)
        with pytest.raises(ValueError):
            average_static_mc(HAM, STATIC, "separate", 1.0, 0, seed=0)


class TestRtnMonteCarlo:
    def test_time_zero_entry_is_bell(self):
        spec = TelegraphSpec(gamma=1.0)
        states = average_rtn_mc(HAM, spec, "common", np.array([0.0, 1.0]), 512, seed=2)
        assert np.array_equal(states[0], bell_projector())

    def test_common_slow_switching_matches_decay_factor(self):
        spec = TelegraphSpec(gamma=0.2)  # nu/gamma = 5
        times = np.linspace(0.0, 10.0, 21)
        states = average_rtn_mc(HAM, spec, "common", times, 20_000, seed=9)
        lam = np.array([dephasing_scalar_of(s).real for s in states])
        expected = decay_factor(4.0, spec.gamma, times)
        assert np.max(np.abs(lam - expected)) <= 3.0 / np.sqrt(20_000)

    def test_separate_fast_switching_matches_decay_factor(self):
        spec = TelegraphSpec(gamma=5.0)  # nu/gamma = 0.2
        times = np.linspace(0.0, 10.0, 21)
        states = average_rtn_mc(HAM, spec, "separate", times, 20_000, seed=9)
        lam = np.array([dephasing_scalar_of(s).real for s in states])
        expected = decay_factor(2.0, spec.gamma, times) ** 2
        assert np.max(np.abs(lam - expected)) <= 3.0 / np.sqrt(20_000)

    def test_unbiased_across_seeds(self):
        # grand mean over independent seeds agrees with the closed form within
        # the combined standard error of the seed means; both topologies use
        # a product of two independent means, where bias could enter
        spec = TelegraphSpec(gamma=0.5)
        t = 3.0
        for topo, exact in (
            ("common", decay_factor(4.0, spec.gamma, t)),
            ("separate", decay_factor(2.0, spec.gamma, t) ** 2),
        ):
            estimates = []
            for seed in range(30):
                state = average_rtn_mc(HAM, spec, topo, t, 2000, seed=seed)
                estimates.append(dephasing_scalar_of(state).real)
            estimates = np.array(estimates)
            standard_error = estimates.std(ddof=1) / np.sqrt(len(estimates))
            assert abs(estimates.mean() - exact) <= 3.0 * standard_error, topo

    def test_mean_phase_factor_is_exactly_real(self):
        # sign symmetry makes the exact factor real, and the estimators are
        # real by construction, so no sampling noise reaches Im z
        for gamma in (0.2, 5.0):
            spec = TelegraphSpec(gamma=gamma)
            times = np.linspace(0.0, 10.0, 11)
            for topo in ("separate", "common"):
                states = average_rtn_mc(HAM, spec, topo, times, 512, seed=4)
                assert all(dephasing_scalar_of(s).imag == 0.0 for s in states), (gamma, topo)

    def test_worker_count_invariance(self):
        spec = TelegraphSpec(gamma=0.5)
        times = np.linspace(0.0, 5.0, 6)
        one = average_rtn_mc(HAM, spec, "common", times, 4096, seed=3, workers=1)
        many = average_rtn_mc(HAM, spec, "common", times, 4096, seed=3, workers=8)
        assert np.array_equal(one, many)

    def test_memory_stays_bounded_at_large_gamma_t(self):
        # gamma T = 1e4 gives 10508 waits per trajectory: a chunk drawn whole
        # would hold 256 x 10508 doubles (21.5 MB) per array
        spec = TelegraphSpec(gamma=500.0)
        times = np.linspace(0.0, 20.0, 11)
        for topo in TOPOLOGIES:
            tracemalloc.start()
            try:
                average_rtn_mc(HAM, spec, topo, times, 300, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, (topo, peak)


class TestWorkerPool:
    """The pool never outnumbers the chunks or the usable CPUs."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class RecordingPool:
            # stands in for ProcessPoolExecutor and starts no process
            batches = []

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                self.batches.append(chunksize)
                return map(fn, tasks)

        monkeypatch.setattr(evolve, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(evolve.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(evolve.os, "cpu_count", lambda: 3)
        return sizes

    def test_pool_size_is_capped(self, pools):
        spec = TelegraphSpec(gamma=0.5)
        times = np.linspace(0.0, 2.0, 3)
        chunks = 5
        serial = average_rtn_mc(HAM, spec, "separate", times, chunks * 256, seed=6)
        for workers, expected in ((100_000, 3), (2, 2)):
            pooled = average_rtn_mc(HAM, spec, "separate", times, chunks * 256, 6, workers)
            assert pools[-1] == expected
            assert np.array_equal(pooled, serial)
        pools.clear()
        average_static_mc(HAM, STATIC, "common", times, 2 * 256, seed=6, workers=100_000)
        assert pools == [2]

    def test_each_worker_takes_one_batch_of_chunks(self, pools):
        # a chunk sent on its own costs a round trip through the pool's queues
        times = np.linspace(0.0, 2.0, 3)
        serial = average_static_mc(HAM, STATIC, "separate", times, 5 * 256, seed=6)
        for workers in (2, 3):
            pooled = average_static_mc(HAM, STATIC, "separate", times, 5 * 256, 6, workers)
            assert np.array_equal(pooled, serial)
        assert evolve.ProcessPoolExecutor.batches == [3, 2]

    def test_single_chunk_runs_without_a_pool(self, pools):
        average_static_mc(HAM, STATIC, "common", 1.0, 256, seed=6, workers=100_000)
        average_rtn_mc(HAM, TelegraphSpec(gamma=0.5), "common", 1.0, 100, seed=6, workers=8)
        assert pools == []


class TestMonteCarloProperties:
    """Exact properties of every Monte Carlo estimate, whatever the draws."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        gamma=st.floats(0.05, 20.0),
        nu=st.floats(0.1, 3.0),
        t_max=st.floats(0.1, 20.0),
        topology=st.sampled_from(TOPOLOGIES),
        seed=st.integers(0, 2**32 - 1),
        n_traj=st.integers(1, 600),
    )
    def test_telegraph_z_is_real_bounded_and_one_at_zero(
        self, gamma, nu, t_max, topology, seed, n_traj
    ):
        times = np.linspace(0.0, t_max, 6)
        states = average_rtn_mc(
            HamiltonianSpec(nu=nu), TelegraphSpec(gamma=gamma), topology, times, n_traj, seed
        )
        z = np.array([dephasing_scalar_of(s) for s in states])
        assert z[0] == 1.0
        assert np.all(z.imag == 0.0)
        assert np.all(np.abs(z) <= 1.0 + 1e-12)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        c0=st.floats(-2.0, 2.0),
        delta_c=st.floats(0.05, 2.0),
        nu=st.floats(0.1, 3.0),
        t_max=st.floats(0.1, 20.0),
        topology=st.sampled_from(TOPOLOGIES),
        seed=st.integers(0, 2**32 - 1),
        n_samples=st.integers(1, 600),
    )
    def test_static_z_is_bounded_and_one_at_zero(
        self, c0, delta_c, nu, t_max, topology, seed, n_samples
    ):
        times = np.linspace(0.0, t_max, 6)
        states = average_static_mc(
            HamiltonianSpec(nu=nu), StaticNoiseSpec(c0, delta_c), topology, times, n_samples, seed
        )
        z = np.array([dephasing_scalar_of(s) for s in states])
        assert z[0] == 1.0
        assert np.all(np.abs(z) <= 1.0 + 1e-12)


class TestTimeGrids:
    GRID = np.linspace(0.0, 6.0, 13)

    def _routes(self):
        spec = TelegraphSpec(gamma=0.5)
        for topo in ("separate", "common"):
            yield partial(closed_form_static, HAM, STATIC, topo)
            yield partial(closed_form_rtn, HAM, spec, topo)
            yield partial(average_static_quadrature, HAM, STATIC, topo)
            yield partial(average_static_quadrature, HAM, STATIC, topo, nodes=32)
            yield partial(average_static_mc, HAM, STATIC, topo, n_samples=256, seed=2)

    def test_grid_equals_per_point_calls(self):
        for route in self._routes():
            on_grid = route(self.GRID)
            assert on_grid.shape == (self.GRID.size, 4, 4)
            per_point = np.stack([route(t) for t in self.GRID])
            assert np.max(np.abs(on_grid - per_point)) <= 1e-15

    def test_state_family_vectorises(self, rng):
        z = rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)
        assert dephased_bell_state(0.3).shape == (4, 4)
        assert np.array_equal(
            dephased_bell_state(z), np.stack([dephased_bell_state(v) for v in z])
        )
        assert dephased_bell_state(z.reshape(2, 5)).shape == (2, 5, 4, 4)

    def test_rejects_bad_grids(self):
        for bad in (-0.1, [0.0, np.inf], [1.0, 0.5], [0.0, 0.0]):
            with pytest.raises(ValueError):
                closed_form_static(HAM, STATIC, "separate", bad)


class TestInvariants:
    def _battery(self):
        spec = TelegraphSpec(gamma=0.5)
        for t in (0.0, 0.7, 3.1):
            yield average_static_quadrature(HAM, STATIC, "separate", t, nodes=32)
            yield average_static_quadrature(HAM, STATIC, "common", t, nodes=32)
            yield closed_form_static(HAM, STATIC, "separate", t)
            yield closed_form_rtn(HAM, spec, "common", t)
            yield average_static_mc(HAM, STATIC, "common", t, 2048, seed=8)
            yield average_rtn_mc(HAM, spec, "separate", t, 2048, seed=8)

    def test_states_are_valid_and_have_mixed_marginals(self):
        for rho in self._battery():
            validate_state(rho)
            for keep in ("A", "B"):
                assert np.max(np.abs(partial_trace(rho, keep) - np.eye(2) / 2)) <= 1e-12

    def test_energy_offset_never_enters(self):
        shifted = HamiltonianSpec(nu=1.0, epsilon=4.2)
        t = 1.3
        assert np.array_equal(
            closed_form_static(HAM, STATIC, "separate", t),
            closed_form_static(shifted, STATIC, "separate", t),
        )
        assert np.array_equal(
            average_static_mc(HAM, STATIC, "common", t, 512, seed=4),
            average_static_mc(shifted, STATIC, "common", t, 512, seed=4),
        )


class TestHelpers:
    def test_sinc_series_branch_continuous(self):
        assert sinc(0.0) == 1.0
        assert abs(sinc(1e-8) - np.sin(1e-8) / 1e-8) <= 1e-16
        assert sinc(np.pi) == pytest.approx(0.0, abs=1e-16)

    def test_topology_validation(self):
        with pytest.raises(ValueError, match="topology"):
            check_topology("shared")

    def test_hamiltonian_requires_positive_coupling(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(nu=0.0)
