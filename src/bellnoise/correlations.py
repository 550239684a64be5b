"""Quantum correlation measures for two-qubit states.

Negativity comes from the partial transpose, mutual information from von
Neumann entropies, and classical correlations from a maximisation over
projective measurements on qubit B (coarse angular grid followed by a
derivative-free pattern search).  Discord is total minus classical.

The conditional states of the search are linear in the direction: measuring
``(I +- n.sigma)/2`` on B leaves A in ``rho_A / 2 +- sum_mu n_mu R_mu`` (before
normalising), with ``R_mu = Tr_B[rho (I x sigma_mu)] / 2``.  Each state's
three blocks ``R_mu`` are built once, and every direction of the grid costs
a three-term sum of them.

Closed-form companions for the dephased-Bell family produced by the evolver
are included so every numeric path has an independent cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .evolve import check_topology, sinc
from .linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    eigvals_hermitian,
    eigvals_two_level,
    partial_trace,
    partial_transpose_b,
    validate_state,
    vn_entropy,
)
from .noise import decay_factor

_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


@dataclass(frozen=True)
class OptimizerSettings:
    """Grid-then-refine settings for the measurement maximisation."""

    theta_points: int = 64
    phi_points: int = 128
    step_floor: float = 1e-6
    max_iterations: int = 200


@dataclass(frozen=True)
class MeasurementOptimum:
    """Best projective measurement found on qubit B."""

    value: float
    theta: float
    phi_az: float


@dataclass(frozen=True)
class CorrelationReport:
    """All four correlation measures of one state, in bits (negativity unitless)."""

    negativity: float
    mutual_info: float
    classical: float
    discord: float


def negativity(rho):
    """Entanglement negativity: twice the absolute sum of negative eigenvalues
    of the partially transposed state."""
    validate_state(rho)
    eigenvalues = eigvals_hermitian(partial_transpose_b(rho))
    return float(2.0 * abs(eigenvalues[eigenvalues < 0.0].sum()))


def mutual_information(rho):
    """Total correlations S(A) + S(B) - S(AB), in bits."""
    validate_state(rho)
    return (
        vn_entropy(partial_trace(rho, "A"))
        + vn_entropy(partial_trace(rho, "B"))
        - vn_entropy(rho)
    )


def bloch_direction(theta, phi_az):
    """Unit vector(s) for polar angle ``theta`` and azimuth ``phi_az``."""
    theta = np.asarray(theta, dtype=float)
    phi_az = np.asarray(phi_az, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi_az), st * np.sin(phi_az), np.cos(theta)], axis=-1)


def _xlog2x(p):
    safe = np.maximum(p, 1e-300)
    return np.where(p > 0.0, p * np.log2(safe), 0.0)


def _hermitian_parts(blocks):
    """``(..., 2, 2)`` Hermitian blocks as ``(..., 4)`` reals: d1, d2, Re o, Im o."""
    off = blocks[..., 0, 1]
    return np.stack([blocks[..., 0, 0].real, blocks[..., 1, 1].real, off.real, off.imag],
                    axis=-1)


def conditional_entropy(rho, directions):
    """Average post-measurement entropy of qubit A for projective measurements
    of qubit B along ``directions`` (shape (..., 3) of unit vectors).

    Outcomes with probability below 1e-14 contribute zero.  Exactly symmetric
    under negating a direction, since that only relabels the two outcomes.
    """
    tensor = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    directions = np.asarray(directions, dtype=float)
    batch_shape = directions.shape[:-1]
    # Unnormalised conditional A-states Tr_B[rho (I x P_+-)] = base +- delta,
    # stacked as (batch, outcome, 4): base = rho_A / 2 and delta = n . R with
    # R_mu = Tr_B[rho (I x sigma_mu)] / 2.  Each block is Hermitian, so four
    # reals hold it: both diagonal entries, then the upper off-diagonal's real
    # and imaginary parts.  delta is odd in n, so negating a direction swaps
    # the two outcomes bit for bit.  The three-term sum is written out: as a
    # matrix product it goes to a threaded BLAS, whose threads make a call's
    # time jitter by milliseconds on a loaded machine.
    base = _hermitian_parts(0.5 * np.einsum("iaja->ij", tensor))
    blocks = _hermitian_parts(0.5 * np.einsum("iajb,mba->mij", tensor, _PAULIS))
    n = directions.reshape(-1, 3)
    delta = n[:, 0, None] * blocks[0] + n[:, 1, None] * blocks[1] + n[:, 2, None] * blocks[2]
    conditional = np.stack([base + delta, base - delta], axis=1)
    diag_first = conditional[..., 0]
    diag_second = conditional[..., 1]
    probabilities = diag_first + diag_second
    off = np.hypot(conditional[..., 2], conditional[..., 3])
    low, high = eigvals_two_level(diag_first, diag_second, off)
    relevant = probabilities > 1e-14
    safe_p = np.where(relevant, probabilities, 1.0)
    spectra = np.stack([low, high], axis=-1) / safe_p[..., None]
    spectra = np.clip(spectra, 0.0, 1.0)
    outcome_entropy = -np.sum(_xlog2x(spectra), axis=-1)
    total = np.sum(np.where(relevant, probabilities * outcome_entropy, 0.0), axis=-1)
    return total.reshape(batch_shape) if batch_shape else float(total[0])


@functools.lru_cache(maxsize=8)
def _measurement_grid(theta_points, phi_points):
    """Read-only ``(theta, phi, directions)`` arrays of the coarse search grid."""
    thetas = np.linspace(0.0, math.pi, theta_points)
    phis = np.arange(phi_points) * (2.0 * math.pi / phi_points)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    grid = (tt, pp, bloch_direction(tt, pp))
    for array in grid:
        array.flags.writeable = False
    return grid


def classical_correlations(rho, settings=None):
    """Maximal classical correlations extracted by projective measurements on B.

    Coarse grid over the Bloch sphere, then a pattern search that halves its
    step until it drops below ``step_floor``.  Raises :class:`NumericalError`
    if the step floor is not reached within the iteration cap.
    """
    validate_state(rho)
    cfg = settings or OptimizerSettings()
    entropy_a = vn_entropy(partial_trace(rho, "A"))

    tt, pp, directions = _measurement_grid(cfg.theta_points, cfg.phi_points)
    values = entropy_a - conditional_entropy(rho, directions)
    best = np.unravel_index(int(np.argmax(values)), values.shape)
    theta, phi_az = float(tt[best]), float(pp[best])
    value = float(values[best])

    step = max(math.pi / (cfg.theta_points - 1), 2.0 * math.pi / cfg.phi_points)
    for _ in range(cfg.max_iterations):
        if step < cfg.step_floor:
            break
        candidates = np.array(
            [
                [min(theta + step, math.pi), phi_az],
                [max(theta - step, 0.0), phi_az],
                [theta, (phi_az + step) % (2.0 * math.pi)],
                [theta, (phi_az - step) % (2.0 * math.pi)],
            ]
        )
        trial = entropy_a - conditional_entropy(
            rho, bloch_direction(candidates[:, 0], candidates[:, 1])
        )
        pick = int(np.argmax(trial))
        if trial[pick] > value:
            value = float(trial[pick])
            theta, phi_az = float(candidates[pick, 0]), float(candidates[pick, 1])
        else:
            step *= 0.5
    else:
        raise NumericalError(
            f"measurement optimisation did not reach step floor {cfg.step_floor:g} "
            f"within {cfg.max_iterations} iterations (step {step:.3e})"
        )
    return MeasurementOptimum(value=value, theta=theta, phi_az=phi_az)


_DISCORD_FLOOR = -1e-6


def _checked_discord(total, classical):
    """Raw ``total - classical``; raises :class:`NumericalError` below the floor."""
    raw = total - classical
    if raw < _DISCORD_FLOOR:
        raise NumericalError(
            f"discord {raw:.3e} is below the {-_DISCORD_FLOOR:g} floor; "
            "the optimizer or the input state is broken"
        )
    return raw


def discord(rho, settings=None):
    """Quantum discord: mutual information minus classical correlations.

    Values in ``[-1e-6, 0]`` (optimizer noise) clamp to zero; anything more
    negative signals a bug and raises :class:`NumericalError`.
    """
    raw = _checked_discord(mutual_information(rho), classical_correlations(rho, settings).value)
    return max(raw, 0.0)


def measure_correlations(rho, settings=None):
    """All four measures of one state as a :class:`CorrelationReport`.

    The report stores the raw total-minus-classical difference as discord
    (it may be negative down to the 1e-6 optimizer floor).
    """
    total = mutual_information(rho)
    classical = classical_correlations(rho, settings).value
    return CorrelationReport(
        negativity=negativity(rho),
        mutual_info=total,
        classical=classical,
        discord=_checked_discord(total, classical),
    )


def dephased_bell_discord(mean_phase_factor):
    """Closed-form discord of the dephased Bell family, in bits.

    For a real mean phase factor ``L`` in [-1, 1] the discord is
    ``((1+L) log2(1+L) + (1-L) log2(1-L)) / 2``; it is even in ``L`` and the
    endpoints evaluate exactly to 0 and 1.
    """
    lam = float(mean_phase_factor)
    if abs(lam) > 1.0 + 1e-12:
        raise ValueError(f"mean phase factor must lie in [-1, 1], got {lam}")
    a = min(abs(lam), 1.0)
    if a == 0.0:
        return 0.0
    if a == 1.0:
        return 1.0
    return 0.5 * ((1.0 + a) * math.log2(1.0 + a) + (1.0 - a) * math.log2(1.0 - a))


def static_negativity(noise, nu, t, topology):
    """Closed-form negativity under static noise.

    ``sinc(delta_c nu t)^2`` for separate environments and
    ``|sinc(2 delta_c nu t)|`` for a common one.  The absolute value is part
    of the result: negativity is nonnegative, and the eigenvalue computation
    confirms it equals the magnitude on the intervals where the bare sinc is
    negative.
    """
    check_topology(topology)
    x = noise.delta_c * nu * np.asarray(t, dtype=float)
    if topology == "separate":
        out = sinc(x) ** 2
    else:
        out = np.abs(sinc(2.0 * x))
    return float(out) if np.ndim(out) == 0 else out


def telegraph_negativity(rtn, nu, t, topology):
    """Closed-form negativity under telegraph noise:
    ``decay_factor(2 nu)^2`` (separate) or ``|decay_factor(4 nu)|`` (common)."""
    check_topology(topology)
    if topology == "separate":
        out = decay_factor(2.0 * nu, rtn.gamma, t) ** 2
    else:
        out = np.abs(decay_factor(4.0 * nu, rtn.gamma, t))
    return float(out) if np.ndim(out) == 0 else out
