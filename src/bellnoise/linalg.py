"""Dense complex linear algebra for one- and two-qubit operators.

Everything operates on plain numpy arrays of complex128.  The eigensolver
checks its 2x2 or 4x4 Hermitian input and hands it to LAPACK through
``np.linalg.eigh``.  The partial operations, the eigensolver, the entropies
and the state check also take a stack of matrices (leading axes) and treat
each matrix as the single-matrix call would, in one numpy call per step.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStateError, NumericalError

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_HERMITICITY_TOL = 1e-10
_STATE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


def _check_two_qubit(rho):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {rho.shape}")
    return rho


def partial_transpose_b(rho):
    """Transpose the second-qubit indices of a two-qubit operator (or of each in a stack)."""
    rho = _check_two_qubit(rho)
    tensor = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return tensor.swapaxes(-3, -1).reshape(rho.shape)


def partial_trace(rho, keep):
    """Reduced single-qubit operator, tracing out the complementary qubit.

    ``keep`` selects the surviving subsystem, ``"A"`` (first qubit) or
    ``"B"`` (second qubit).  A stack of operators gives a stack of 2x2 blocks.
    """
    rho = _check_two_qubit(rho)
    tensor = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    label = str(keep).upper()
    if label == "A":
        return np.einsum("...iaja->...ij", tensor)
    if label == "B":
        return np.einsum("...iaib->...ab", tensor)
    raise ValueError(f"unknown subsystem label {keep!r}, expected 'A' or 'B'")


def eigvals_hermitian(m):
    """Sorted (ascending) real eigenvalues of a small Hermitian matrix (or of each in a stack).

    Input must be Hermitian within 1e-10; it is symmetrised before the solve
    so that rounding-level asymmetry from ensemble averaging is absorbed.
    A stack of matrices is solved in one LAPACK call.  Raises
    :class:`NumericalError` if LAPACK does not converge.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    adjoint = a.conj().swapaxes(-2, -1)
    asymmetry = float(np.max(np.abs(a - adjoint), initial=0.0))
    if asymmetry > _HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asymmetry:.3e}")
    try:
        return np.linalg.eigh(0.5 * (a + adjoint))[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc


def eigvals_two_level(diag_first, diag_second, off):
    """Closed-form eigenvalues of ``[[d1, o], [conj(o), d2]]``, vectorised.

    Returns ``(low, high)`` arrays broadcast over the inputs.
    """
    diag_first = np.asarray(diag_first, dtype=float)
    diag_second = np.asarray(diag_second, dtype=float)
    mean = 0.5 * (diag_first + diag_second)
    radius = np.sqrt(0.25 * (diag_first - diag_second) ** 2 + np.abs(off) ** 2)
    return mean - radius, mean + radius


def entropy_bits(eigenvalues):
    """Shannon entropy (base 2) of a spectrum, with 0*log0 taken as 0.

    An eigenvalue below -1e-10 raises :class:`InvalidStateError`.  A stack
    of spectra (along the last axis) gives an array of entropies.
    The terms are summed in spectrum order with zeros in place, which is
    bit for bit the sum over the positive entries alone.
    """
    w = np.asarray(eigenvalues, dtype=float)
    below = np.min(w, axis=-1, initial=np.inf) < _EIGENVALUE_FLOOR
    if np.any(below):
        position = np.unravel_index(int(np.argmax(below)), below.shape)
        raise InvalidStateError(
            f"eigenvalue {float(np.min(w[position])):.3e} below the positivity floor "
            f"{_EIGENVALUE_FLOOR:.1e}",
            index=int(position[0]) if position else None,
        )
    w = np.clip(w, 0.0, 1.0)
    total = -np.sum(w * np.log2(np.where(w > 0.0, w, 1.0)), axis=-1)
    return float(total) if total.ndim == 0 else total


def vn_entropy(rho):
    """Von Neumann entropy of a density matrix (or of each in a stack), in bits."""
    return entropy_bits(eigvals_hermitian(rho))


def validate_state(rho):
    """Check the density-matrix invariants, raising :class:`InvalidStateError`.

    Accepts a 2x2 or 4x4 matrix or an ``(n, d, d)`` stack of them, and checks
    every matrix for finiteness, Hermiticity and unit trace (both to 1e-12)
    and positivity of the spectrum down to -1e-10.  The error names the
    first failing matrix of a stack as its ``index``, whichever check it
    fails.  Returns the ascending spectra.
    """
    a = np.asarray(rho, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] not in (2, 4):
        raise InvalidStateError(
            f"expected a 2x2 or 4x4 matrix or a stack of them, got shape {a.shape}"
        )
    stack = a.reshape((-1,) + a.shape[-2:])

    def fail(i, problems):
        if i:
            # an earlier matrix may fail a check that runs after this one
            validate_state(stack[:i])
        raise InvalidStateError(
            "invalid density matrix: " + "; ".join(problems), index=i if a.ndim == 3 else None
        )

    finite = np.all(np.isfinite(stack), axis=(1, 2))
    if not finite.all():
        fail(int(np.argmin(finite)), ["non-finite entries"])
    asymmetry = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
    trace_dev = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    hermitian = asymmetry <= _STATE_TOL
    unit_trace = trace_dev <= _STATE_TOL
    if not np.all(hermitian & unit_trace):
        i = int(np.argmin(hermitian & unit_trace))
        problems = []
        if not hermitian[i]:
            problems.append(f"not Hermitian (max asymmetry {asymmetry[i]:.3e})")
        if not unit_trace[i]:
            problems.append(f"trace deviates from 1 by {trace_dev[i]:.3e}")
        fail(i, problems)
    spectra = eigvals_hermitian(stack)
    negative = spectra[:, 0] < _EIGENVALUE_FLOOR
    if negative.any():
        i = int(np.argmax(negative))
        fail(i, [f"negative eigenvalue {spectra[i, 0]:.3e}"])
    return spectra.reshape(a.shape[:-1])
