import numpy as np
import pytest

from bellnoise.errors import InvalidStateError, NumericalError
from bellnoise.linalg import (
    PAULI_X,
    eigvals_hermitian,
    eigvals_two_level,
    entropy_bits,
    partial_trace,
    partial_transpose_b,
    validate_state,
    vn_entropy,
)

from conftest import (
    bell_projector,
    partial_trace_reference,
    partial_transpose_reference,
    random_density,
    random_hermitian,
    random_unitary,
)


class TestPartialTranspose:
    def test_diagonal_fixed_point(self):
        d = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.array_equal(partial_transpose_b(d), d)

    def test_bell_state_spectrum(self):
        w = np.linalg.eigvalsh(partial_transpose_b(bell_projector()))
        assert np.allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_exact(self, rng):
        m = random_hermitian(rng)
        assert np.array_equal(partial_transpose_b(partial_transpose_b(m)), m)

    def test_matches_index_loop_reference(self, rng):
        for _ in range(100):
            m = random_hermitian(rng)
            assert np.max(np.abs(partial_transpose_b(m) - partial_transpose_reference(m))) <= 1e-13

    def test_preserves_hermiticity(self, rng):
        m = random_hermitian(rng)
        pt = partial_transpose_b(m)
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-13


class TestPartialTrace:
    def test_bell_marginals_maximally_mixed(self):
        for keep in ("A", "B"):
            assert np.allclose(partial_trace(bell_projector(), keep), np.eye(2) / 2, atol=1e-14)

    def test_product_state_factors(self, rng):
        rho_a = random_density(rng, n=2)
        rho_b = random_density(rng, n=2)
        product = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(product, "A"), rho_a, atol=1e-13)
        assert np.allclose(partial_trace(product, "B"), rho_b, atol=1e-13)

    def test_matches_index_loop_reference(self, rng):
        for _ in range(100):
            m = random_hermitian(rng)
            for keep in ("A", "B"):
                dev = np.max(np.abs(partial_trace(m, keep) - partial_trace_reference(m, keep)))
                assert dev <= 1e-13

    def test_trace_preserved(self, rng):
        m = random_hermitian(rng)
        for keep in ("A", "B"):
            assert abs(np.trace(partial_trace(m, keep)) - np.trace(m)) <= 1e-13

    def test_invalid_label(self):
        with pytest.raises(ValueError, match="subsystem"):
            partial_trace(bell_projector(), "C")


class TestEigensolver:
    def test_diagonal(self):
        assert np.allclose(eigvals_hermitian(np.diag([4.0, 2.0, 1.0, 3.0])), [1, 2, 3, 4])

    def test_cross_correlated_mixture_spectrum(self):
        m = 0.25 * (np.eye(4) + np.kron(PAULI_X, PAULI_X))
        assert np.allclose(eigvals_hermitian(m), [0.0, 0.0, 0.5, 0.5], atol=1e-13)

    def test_bell_projector_rank_one(self):
        assert np.allclose(eigvals_hermitian(bell_projector()), [0, 0, 0, 1], atol=1e-13)

    def test_against_reference_solver(self, rng):
        for _ in range(100):
            m = random_hermitian(rng, scale=2.0)
            assert np.max(np.abs(eigvals_hermitian(m) - np.linalg.eigvalsh(m))) <= 1e-12

    def test_two_by_two(self, rng):
        for _ in range(50):
            m = random_hermitian(rng, n=2)
            assert np.max(np.abs(eigvals_hermitian(m) - np.linalg.eigvalsh(m))) <= 1e-12

    def test_eigenvalue_sum_is_trace(self, rng):
        for _ in range(20):
            m = random_hermitian(rng)
            assert abs(eigvals_hermitian(m).sum() - np.trace(m).real) <= 1e-12

    def test_unitary_invariance(self, rng):
        for _ in range(20):
            m = random_hermitian(rng)
            u = random_unitary(rng)
            rotated = u @ m @ u.conj().T
            assert np.max(np.abs(eigvals_hermitian(m) - eigvals_hermitian(rotated))) <= 1e-12

    def test_rejects_non_hermitian(self, rng):
        m = random_hermitian(rng)
        m[0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            eigvals_hermitian(m)

    def test_lapack_failure_raises_numerical_error(self, rng, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericalError, match="did not converge"):
            eigvals_hermitian(random_hermitian(rng))

    def test_two_level_closed_form(self, rng):
        for _ in range(50):
            m = random_hermitian(rng, n=2)
            lo, hi = eigvals_two_level(m[0, 0].real, m[1, 1].real, m[0, 1])
            assert np.allclose([lo, hi], np.linalg.eigvalsh(m), atol=1e-13)


class TestEntropy:
    def test_pure_state_zero(self):
        assert abs(vn_entropy(bell_projector())) <= 1e-12

    def test_uniform_spectra(self):
        assert abs(vn_entropy(np.eye(2) / 2) - 1.0) <= 1e-12
        assert abs(vn_entropy(np.eye(4) / 4) - 2.0) <= 1e-12

    def test_half_half_spectrum(self):
        assert abs(entropy_bits([0.5, 0.5, 0.0, 0.0]) - 1.0) <= 1e-15

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            entropy_bits([1.1, -1e-3])

    def test_stack_of_spectra_matches_the_sum_over_positive_entries(self, rng):
        # zeros and clipped entries sit among the terms; each row must equal,
        # bit for bit, the sum over its positive entries alone
        spectra = rng.dirichlet(np.ones(4), size=200)
        spectra[::3, :2] = 0.0
        spectra[1::5, 0] = -1e-12
        spectra[2::7] = [0.0, 0.0, 0.0, 1.0]
        for row, value in zip(spectra, entropy_bits(spectra)):
            positive = np.clip(row, 0.0, 1.0)
            positive = positive[positive > 0.0]
            assert value == -np.sum(positive * np.log2(positive))
            assert value == entropy_bits(row)

    def test_stack_names_the_spectrum_below_the_floor(self):
        spectra = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [1.1, -1e-3]]])
        with pytest.raises(InvalidStateError, match="-1.000e-03") as caught:
            entropy_bits(spectra)
        assert caught.value.index == 1

    def test_concavity_spot_check(self, rng):
        for _ in range(20):
            rho1 = random_density(rng)
            rho2 = random_density(rng)
            mixed = vn_entropy(0.5 * rho1 + 0.5 * rho2)
            assert mixed >= 0.5 * vn_entropy(rho1) + 0.5 * vn_entropy(rho2) - 1e-12


class TestValidateState:
    def test_accepts_density_matrix(self, rng):
        validate_state(random_density(rng))

    def test_rejects_non_hermitian(self):
        bad = bell_projector()
        bad[0, 1] += 1e-6
        with pytest.raises(InvalidStateError, match="Hermitian"):
            validate_state(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            validate_state(2.0 * bell_projector())

    def test_rejects_negative_spectrum(self):
        bad = 1.5 * bell_projector() - 0.5 * np.eye(4) / 4 - 0.375 * bell_projector()
        bad = bad / np.trace(bad).real
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            validate_state(bad)

    def test_rejects_nan(self):
        bad = bell_projector()
        bad[2, 2] = np.nan
        with pytest.raises(InvalidStateError, match="finite"):
            validate_state(bad)

    def test_stack_returns_each_spectrum(self, rng):
        stack = np.stack([random_density(rng) for _ in range(6)])
        spectra = validate_state(stack)
        for rho, spectrum in zip(stack, spectra):
            assert np.array_equal(spectrum, validate_state(rho))
            assert np.array_equal(spectrum, eigvals_hermitian(rho))

    @pytest.mark.parametrize(
        "index,corrupt,message",
        [
            (4, lambda rho: rho * np.nan, "finite"),
            (2, lambda rho: 2.0 * rho, "trace"),
            (3, lambda rho: rho + 1e-6 * np.triu(np.ones((4, 4)), 1), "Hermitian"),
            (
                5,
                lambda rho: (0.875 * bell_projector() - 0.125 * np.eye(4) / 4) / 0.75,
                "negative eigenvalue",
            ),
        ],
    )
    def test_stack_names_the_first_failing_state(self, rng, index, corrupt, message):
        stack = np.stack([random_density(rng) for _ in range(7)])
        stack[index] = corrupt(stack[index])
        stack[6] = 2.0 * stack[6]
        with pytest.raises(InvalidStateError, match=message) as caught:
            validate_state(stack)
        assert caught.value.index == index

    def test_stack_reports_an_earlier_state_failing_a_later_check(self, rng):
        # the non-finite check runs first over the whole stack, but state 1
        # fails the spectrum check and comes first
        stack = np.stack([random_density(rng) for _ in range(4)])
        stack[1] = (0.875 * bell_projector() - 0.125 * np.eye(4) / 4) / 0.75
        stack[3, 0, 0] = np.inf
        with pytest.raises(InvalidStateError, match="negative eigenvalue") as caught:
            validate_state(stack)
        assert caught.value.index == 1

    def test_single_matrix_error_has_no_index(self):
        with pytest.raises(InvalidStateError) as caught:
            validate_state(2.0 * bell_projector())
        assert caught.value.index is None
