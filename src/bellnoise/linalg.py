"""Dense complex linear algebra for one- and two-qubit operators.

Everything operates on plain numpy arrays of complex128.  The eigensolver
checks its 2x2 or 4x4 Hermitian input and hands it to LAPACK through
``np.linalg.eigh``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStateError, NumericalError

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# projector onto (|00> + |11>)/sqrt(2); entries written out so they are exact
BELL_PROJECTOR = np.array(
    [
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.5],
    ],
    dtype=complex,
)

_HERMITICITY_TOL = 1e-10


def kron(a, b):
    """Kronecker product of two single-qubit operators (2x2 -> 4x4)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"kron expects 2x2 factors, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def partial_transpose_b(rho):
    """Transpose the second-qubit indices of a two-qubit operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def partial_trace(rho, keep):
    """Reduced single-qubit operator, tracing out the complementary qubit.

    ``keep`` selects the surviving subsystem, ``"A"`` (first qubit) or
    ``"B"`` (second qubit).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    tensor = rho.reshape(2, 2, 2, 2)
    label = str(keep).upper()
    if label == "A":
        return np.einsum("iaja->ij", tensor)
    if label == "B":
        return np.einsum("iaib->ab", tensor)
    raise ValueError(f"unknown subsystem label {keep!r}, expected 'A' or 'B'")


def eigh_hermitian(m):
    """Eigenvalues (ascending) and eigenvector columns of a small Hermitian matrix.

    Input must be Hermitian within 1e-10; it is symmetrised before the solve
    so that rounding-level asymmetry from ensemble averaging is absorbed.
    Raises :class:`NumericalError` if LAPACK does not converge.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    asymmetry = float(np.max(np.abs(a - a.conj().T)))
    if asymmetry > _HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asymmetry:.3e}")
    try:
        w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    return w, v


def eigvals_hermitian(m):
    """Sorted (ascending) real eigenvalues of a small Hermitian matrix."""
    return eigh_hermitian(m)[0]


def eigvals_two_level(diag_first, diag_second, off):
    """Closed-form eigenvalues of ``[[d1, o], [conj(o), d2]]``, vectorised.

    Returns ``(low, high)`` arrays broadcast over the inputs.
    """
    diag_first = np.asarray(diag_first, dtype=float)
    diag_second = np.asarray(diag_second, dtype=float)
    mean = 0.5 * (diag_first + diag_second)
    radius = np.sqrt(0.25 * (diag_first - diag_second) ** 2 + np.abs(off) ** 2)
    return mean - radius, mean + radius


def entropy_bits(eigenvalues, floor=-1e-10):
    """Shannon entropy (base 2) of a spectrum, with 0*log0 taken as 0."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.size and float(w.min()) < floor:
        raise InvalidStateError(
            f"eigenvalue {float(w.min()):.3e} below the positivity floor {floor:.1e}"
        )
    w = np.clip(w, 0.0, 1.0)
    positive = w[w > 0.0]
    return float(-np.sum(positive * np.log2(positive)))


def vn_entropy(rho):
    """Von Neumann entropy of a density matrix, in bits."""
    return entropy_bits(eigvals_hermitian(rho))


def validate_state(rho, herm_tol=1e-12, trace_tol=1e-12, eig_floor=-1e-10):
    """Check the density-matrix invariants, raising :class:`InvalidStateError`.

    Accepts 2x2 or 4x4 matrices; checks finiteness, Hermiticity, unit trace
    and positivity of the spectrum down to ``eig_floor``.
    """
    a = np.asarray(rho, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise InvalidStateError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")
    problems = []
    if not np.all(np.isfinite(a)):
        problems.append("non-finite entries")
    else:
        asymmetry = float(np.max(np.abs(a - a.conj().T)))
        if asymmetry > herm_tol:
            problems.append(f"not Hermitian (max asymmetry {asymmetry:.3e})")
        trace_dev = abs(complex(np.trace(a)) - 1.0)
        if trace_dev > trace_tol:
            problems.append(f"trace deviates from 1 by {trace_dev:.3e}")
        if not problems:
            lowest = float(eigvals_hermitian(a)[0])
            if lowest < eig_floor:
                problems.append(f"negative eigenvalue {lowest:.3e}")
    if problems:
        raise InvalidStateError("invalid density matrix: " + "; ".join(problems))
