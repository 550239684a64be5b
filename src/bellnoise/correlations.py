"""Quantum correlation measures for two-qubit states.

Negativity comes from the partial transpose, mutual information from von
Neumann entropies, and classical correlations from a maximisation over
projective measurements on qubit B.  Discord is total minus classical.  The
search has one fixed configuration: a grid of 64 polar by 128 azimuthal
angles, then a derivative-free pattern search that halves its step until it
falls below 1e-6, and raises :class:`NumericalError` if that takes more than
200 iterations.

The conditional states of the search are linear in the direction: measuring
``(I +- n.sigma)/2`` on B leaves A in ``rho_A / 2 +- sum_mu n_mu R_mu`` (before
normalising), with ``R_mu = Tr_B[rho (I x sigma_mu)] / 2``.  Each state's
three blocks ``R_mu`` are built once, and every direction costs a three-term
sum of them.

Before a state's grid is scored, a screen drops the directions that cannot
hold its maximum.  The binary entropy obeys ``h(x) >= 4 x (1 - x)`` (Topsoe
2001), so an outcome of probability ``p`` whose conditional block has
determinant ``det`` adds at least ``4 det / p`` bits to ``S(A|B)``.  Trace and
determinant are linear and quadratic in the direction, so the bound at every
grid direction is a sum over nine cached monomials of the grid, and a term
whose coefficient is zero is left out.  Both marginals of a dephased Bell
state are ``I/2``, which zeroes 9 of the 13 coefficients.  The exact
entropy runs at the direction of lowest bound, and then only on the
directions whose bound lies within a slack of 1e-8 of that value.  Every
other direction's value lies provably below the best one, by far more than
rounding (the slack's derivation is at ``_SCREEN_SLACK``), so the grid's
maximum, its position (the first among ties) and every output bit are those
of the full grid.  Past ``t = 0`` the presets keep 4 to 12 of the 8192
directions.  A pure Bell state keeps all of them, since every direction ties
at ``S(A|B) = 0``; but the computed ``S(A|B)`` is never negative, so when the
exact value at the lowest bound is 0 and the first kept direction is worth
``S(A)``, that direction is the grid's first maximum and the rest go unscored.

:func:`measure_correlations` scores one state or a whole ``(n, 4, 4)`` stack
in one call.  Validation, the marginal spectra and the partial-transpose
spectra each take one eigensolve over the stack.  The grid is screened 32
states at a time, and one kernel call each scores a group's lowest-bound
directions, its zero-floor probes and every 1024 of its kept directions, so
that no temporary outgrows the allocator's small-block range.  The pattern
search then runs for all states in lockstep: each keeps its own angles, value
and step, and leaves the search once its step falls below the floor.  The
kernel treats each direction on its own, so the results do not depend on the
stack they came in.

Closed-form companions for the dephased-Bell family produced by the evolver
are included so every numeric path has an independent cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SimulationError
from .evolve import check_topology, sinc
from .linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    eigvals_hermitian,
    eigvals_two_level,
    entropy_bits,
    partial_trace,
    partial_transpose_b,
    validate_state,
    vn_entropy,
)
from .noise import _check_nonnegative, _check_positive, decay_factor

_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])

# Directions per kernel call: the largest temporary, the (1024, 4, 4) parts
# gathered for the directions' states, stays at 128 KiB.
_GRID_SLICE = 1024

# States screened at once.  Their bounds take 32 x 8192 doubles, 2 MiB, and
# are freed once the (32, 8192) kept mask, 256 KiB, is built.  The kept
# directions' flat indices and values then take 16 bytes per direction: a few
# KiB for the evolver's states, which keep 4 to 12 directions each, and at
# most 4 MiB for states outside its family, which keep up to all 8192.
_GRID_GROUP = 32

# the measurement search's one configuration (see the module docstring)
_THETA_POINTS = 64
_PHI_POINTS = 128
_STEP_FLOOR = 1e-6
_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class MeasurementOptimum:
    """Best projective measurement found on qubit B."""

    value: float
    theta: float
    phi_az: float


@dataclass(frozen=True)
class CorrelationReport:
    """All four measures in bits (negativity unitless): floats, or ``(n,)`` arrays for a stack."""

    negativity: float | np.ndarray
    mutual_info: float | np.ndarray
    classical: float | np.ndarray
    discord: float | np.ndarray


def _negativities(states):
    eigenvalues = eigvals_hermitian(partial_transpose_b(states))
    return 2.0 * np.abs(np.sum(np.where(eigenvalues < 0.0, eigenvalues, 0.0), axis=-1))


def _marginal_entropies(states):
    """``(..., 2)`` entropies of the A and B marginals, from one eigensolve."""
    return vn_entropy(np.stack([partial_trace(states, "A"), partial_trace(states, "B")], axis=-3))


def negativity(rho):
    """Entanglement negativity: twice the absolute sum of negative eigenvalues
    of the partially transposed state."""
    validate_state(rho)
    return float(_negativities(rho))


def mutual_information(rho):
    """Total correlations S(A) + S(B) - S(AB), in bits."""
    spectrum = validate_state(rho)
    marginal = _marginal_entropies(rho)
    return float(marginal[0] + marginal[1] - entropy_bits(spectrum))


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


def _measurement_parts(states):
    """``(n, 4, 4)`` reals per state of a stack: ``rho_A / 2``, then ``R_x``,
    ``R_y``, ``R_z``.

    Each Hermitian block is held as four reals: both diagonal entries, then
    the upper off-diagonal's real and imaginary parts.
    """
    blocks = np.einsum("niajb,mba->nmij", states.reshape(-1, 2, 2, 2, 2), _PAULIS)
    rho_a = partial_trace(states, "A")[:, None]
    return _hermitian_parts(0.5 * np.concatenate([rho_a, blocks], axis=1))


def _entropies_after(parts, n):
    """Average post-measurement entropy of A for directions ``n`` (..., 3),
    given measurement parts (..., 4, 4) that broadcast against them.

    Outcomes with probability below 1e-14 contribute zero.
    """
    # Unnormalised conditional A-states Tr_B[rho (I x P_+-)] = base +- delta,
    # stacked as (..., outcome, 4): base = rho_A / 2 and delta = n . R.
    # delta is odd in n, so negating a direction swaps the two outcomes bit
    # for bit.  The three-term sum is written out: as a matrix product it
    # goes to a threaded BLAS, whose threads make a call's time jitter by
    # milliseconds on a loaded machine.
    base = parts[..., 0, :]
    delta = (n[..., 0, None] * parts[..., 1, :] + n[..., 1, None] * parts[..., 2, :]
             + n[..., 2, None] * parts[..., 3, :])
    conditional = np.stack([base + delta, base - delta], axis=-2)
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
    return np.sum(np.where(relevant, probabilities * outcome_entropy, 0.0), axis=-1)


def conditional_entropy(rho, directions):
    """Average post-measurement entropy of qubit A for projective measurements
    of qubit B along ``directions`` (shape (..., 3) of unit vectors).

    Outcomes with probability below 1e-14 contribute zero.  Exactly symmetric
    under negating a direction, since that only relabels the two outcomes.
    """
    parts = _measurement_parts(np.asarray(rho, dtype=complex).reshape(1, 4, 4))[0]
    total = _entropies_after(parts, np.asarray(directions, dtype=float))
    return total if total.ndim else float(total)


@functools.cache
def _measurement_grid():
    """Read-only ``(theta, phi, directions)`` arrays of the coarse search grid."""
    thetas = np.linspace(0.0, math.pi, _THETA_POINTS)
    phis = np.arange(_PHI_POINTS) * (2.0 * math.pi / _PHI_POINTS)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    grid = (tt, pp, bloch_direction(tt, pp))
    for array in grid:
        array.flags.writeable = False
    return grid


def _monomials(directions):
    """``(9, m)`` monomials of ``(m, 3)`` directions: ``nx, ny, nz``, then
    ``nx^2, ny^2, nz^2, nx ny, nx nz, ny nz``."""
    x, y, z = directions.T
    return np.stack([x, y, z, x * x, y * y, z * z, x * y, x * z, y * z])


@functools.cache
def _grid_monomials():
    """Read-only :func:`_monomials` of the flattened search grid."""
    monomials = _monomials(_measurement_grid()[2].reshape(-1, 3))
    monomials.flags.writeable = False
    return monomials


# The screen's bound counts no outcome of probability p <= _SCREEN_P_MIN,
# which only lowers it.  A direction is dropped when its bound exceeds the
# exact value at one direction by more than _SCREEN_SLACK, so its own exact
# value exceeds the best one by at least the slack minus the rounding of the
# bound and of the exact kernel.  Block entries are at most 1/2 in size, so
# the bound's numerator rounds off by at most ~1e-13 and, over p > 1e-4, the
# bound by at most ~2e-9 (measured on random states: below 1e-12); the kernel
# rounds off by less than 1e-13.  The slack exceeds both, and the gap left,
# at least 8e-9, is millions of times the spacing of doubles near 1, so a
# dropped direction's value cannot round to a tie with the best one either.
_SCREEN_P_MIN = 1e-4
_SCREEN_SLACK = 1e-8


def _bound_coefficients(parts):
    """Per state of a stack, the screen's bound as polynomials in the direction.

    An outcome's block ``base +- n.R`` has trace ``P +- a.n`` and determinant
    ``D +- b.n + q(n)``, ``q`` a quadratic form.  Returns ``(P, a, even,
    odd)``: ``P`` (count,), ``a`` (count, 3), ``even`` (count, 7) holding
    ``4 D`` and then ``4 q``'s coefficients of ``nx^2, ny^2, nz^2, nx ny,
    nx nz, ny nz``, and ``odd`` (count, 3) holding ``4 b``.
    """
    b1, b2, br, bi = np.moveaxis(parts[:, 0], -1, 0)
    r1, r2, rr, ri = np.moveaxis(parts[:, 1:], -1, 0)
    trace = b1 + b2
    slope = r1 + r2
    det = b1 * b2 - br * br - bi * bi
    linear = b1[:, None] * r2 + b2[:, None] * r1 - 2.0 * (br[:, None] * rr + bi[:, None] * ri)
    # q(n) = sum_mu,nu n_mu n_nu form[mu, nu]
    form = (r1[:, :, None] * r2[:, None, :] - rr[:, :, None] * rr[:, None, :]
            - ri[:, :, None] * ri[:, None, :])
    mixed = form + np.swapaxes(form, 1, 2)
    even = np.stack([det, form[:, 0, 0], form[:, 1, 1], form[:, 2, 2],
                     mixed[:, 0, 1], mixed[:, 0, 2], mixed[:, 1, 2]], axis=-1)
    return trace, slope, 4.0 * even, 4.0 * linear


def _entropy_bound(trace, slope, even, odd, monomials):
    """Lower bound on :func:`_entropies_after` of one state at every grid
    direction, from its :func:`_bound_coefficients` as lists.

    Each outcome of probability ``p > _SCREEN_P_MIN`` contributes ``4 det / p``
    and the others 0.  The sums are written out so that no BLAS runs.  A zero
    coefficient's term would add +-0.0, which could change only the sign of a
    zero entry, and neither the screen's minimum nor its cut sees that sign.
    """
    along = sum((c * m for c, m in zip(slope, monomials[:3]) if c), 0.0)
    flip = sum((c * m for c, m in zip(odd, monomials[:3]) if c), 0.0)
    level = sum((c * m for c, m in zip(even[1:], monomials[3:]) if c), even[0])
    bound = np.zeros(monomials.shape[1])
    for numerator, p in ((level + flip, trace + along), (level - flip, trace - along)):
        bound += np.divide(numerator, p, out=np.zeros_like(bound), where=p > _SCREEN_P_MIN)
    return bound


def _search(parts, entropy_a):
    """Maximise ``S(A) - S(A|B)`` over measurements for each of a stack of states.

    ``parts`` are the states' measurement parts (:func:`_measurement_parts`)
    and ``entropy_a`` their ``S(A)``.  Each state takes the best direction of
    the coarse grid, then a pattern search that halves its step until it
    drops below ``_STEP_FLOOR``; all states search in lockstep.  Returns the
    ``(value, theta, phi_az)`` arrays.  Raises :class:`NumericalError`,
    indexed by the first such state, if a state has not reached the step
    floor within the iteration cap.
    """
    tt, pp, grid = _measurement_grid()
    directions = grid.reshape(-1, 3)
    monomials = _grid_monomials()
    coefficients = [column.tolist() for column in _bound_coefficients(parts)]
    count = len(entropy_a)
    value, grid_best = np.empty(count), np.empty(count, dtype=int)
    for start in range(0, count, _GRID_GROUP):
        group = np.arange(start, min(start + _GRID_GROUP, count))
        # Only directions whose bound is within the slack of one exact value
        # can hold the grid's maximum (see the module docstring).
        bounds = np.empty((group.size, len(directions)))
        for k, i in enumerate(group):
            bounds[k] = _entropy_bound(*(column[i] for column in coefficients), monomials)
        floors = _entropies_after(parts[group], directions[bounds.argmin(axis=1)])
        kept = bounds <= floors[:, None] + _SCREEN_SLACK
        del bounds  # before the kept directions are scored (see _GRID_GROUP)
        # S(A|B) is never negative, so after a zero floor a first kept
        # direction worth S(A) is the grid's first maximum (module docstring)
        probed = np.flatnonzero(floors == 0.0)
        if probed.size:
            firsts, members = kept[probed].argmax(axis=1), group[probed]
            probes = entropy_a[members] - _entropies_after(parts[members], directions[firsts])
            done = probes == entropy_a[members]
            value[members[done]], grid_best[members[done]] = probes[done], firsts[done]
            kept[probed[done]] = False
        # every kept direction of the group, in state order, with its own state's parts
        flat = np.flatnonzero(kept)
        scores = np.empty(flat.size)
        for cut in range(0, flat.size, _GRID_SLICE):
            owner, index = np.divmod(flat[cut:cut + _GRID_SLICE], len(directions))
            members = group[owner]
            scores[cut:cut + _GRID_SLICE] = entropy_a[members] - _entropies_after(
                parts[members], directions[index])
        ends = np.cumsum(kept.sum(axis=1))
        for i, low, high in zip(group, np.r_[0, ends[:-1]], ends):
            if high > low:
                top = low + int(np.argmax(scores[low:high]))
                value[i], grid_best[i] = scores[top], flat[top] % len(directions)
    theta, phi_az = tt.flat[grid_best], pp.flat[grid_best]

    step = np.full(count, max(math.pi / (_THETA_POINTS - 1), 2.0 * math.pi / _PHI_POINTS))
    active = np.arange(count)
    for _ in range(_MAX_ITERATIONS):
        active = active[step[active] >= _STEP_FLOOR]
        if not active.size:
            break
        t, p, s = theta[active], phi_az[active], step[active]
        candidate_theta = np.stack(
            [np.minimum(t + s, math.pi), np.maximum(t - s, 0.0), t, t], axis=-1
        )
        candidate_phi = np.stack(
            [p, p, np.remainder(p + s, 2.0 * math.pi), np.remainder(p - s, 2.0 * math.pi)],
            axis=-1,
        )
        trial = entropy_a[active, None] - _entropies_after(
            parts[active, None], bloch_direction(candidate_theta, candidate_phi)
        )
        rows = np.arange(active.size)
        pick = np.argmax(trial, axis=-1)
        best = trial[rows, pick]
        better = best > value[active]
        moved = active[better]
        value[moved] = best[better]
        theta[moved] = candidate_theta[rows, pick][better]
        phi_az[moved] = candidate_phi[rows, pick][better]
        step[active[~better]] *= 0.5
    else:
        if active.size:
            first = int(active[0])
            raise NumericalError(
                f"measurement optimisation did not reach step floor {_STEP_FLOOR:g} "
                f"within {_MAX_ITERATIONS} iterations (step {step[first]:.3e})",
                index=first,
            )
    return value, theta, phi_az


def classical_correlations(rho):
    """Maximal classical correlations extracted by projective measurements on B.

    Coarse 64 x 128 grid over the Bloch sphere, then a pattern search that
    halves its step until it drops below 1e-6.  Raises
    :class:`NumericalError` if that takes more than 200 iterations.
    """
    validate_state(rho)
    states = np.asarray(rho, dtype=complex)[None]
    value, theta, phi_az = _search(_measurement_parts(states),
                                   vn_entropy(partial_trace(states, "A")))
    return MeasurementOptimum(value=float(value[0]), theta=float(theta[0]),
                              phi_az=float(phi_az[0]))


_DISCORD_FLOOR = -1e-6


def _score(states):
    """``(negativity, mutual_info, classical, discord)`` arrays of a ``(n, 4, 4)`` stack.

    Discord is the raw ``total - classical``; below the floor it raises
    :class:`NumericalError`.
    """
    spectra = validate_state(states)
    marginal = _marginal_entropies(states)
    total = marginal[:, 0] + marginal[:, 1] - entropy_bits(spectra)
    classical, _, _ = _search(_measurement_parts(states), marginal[:, 0])
    negativities = _negativities(states)
    raw = total - classical
    below = np.flatnonzero(raw < _DISCORD_FLOOR)
    if below.size:
        first = int(below[0])
        raise NumericalError(
            f"discord {raw[first]:.3e} is below the {-_DISCORD_FLOOR:g} floor; "
            "the optimizer or the input state is broken",
            index=first,
        )
    return negativities, total, classical, raw


def _earliest_failure_score(states):
    """:func:`_score`, but a failure names the first state that fails any check.

    Each check runs over the whole stack in turn, so the first failure found
    may lie after a state that fails a later check.  Scoring the states
    before it again finds that one.
    """
    try:
        return _score(states)
    except SimulationError as exc:
        if exc.index:
            _earliest_failure_score(states[: exc.index])
        raise


def discord(rho):
    """Quantum discord: mutual information minus classical correlations.

    Values in ``[-1e-6, 0]`` (optimizer noise) clamp to zero; anything more
    negative signals a bug and raises :class:`NumericalError`.
    """
    return max(measure_correlations(rho).discord, 0.0)


def measure_correlations(rho):
    """All four measures of one state, or of each state of an ``(n, 4, 4)`` stack.

    Returns one :class:`CorrelationReport`: of floats for a ``(4, 4)`` state,
    of ``(n,)`` arrays for a stack.  Entry ``i`` of each array equals, bit for
    bit, the float state ``i`` gives alone.  The report stores the raw
    total-minus-classical difference as discord (it may be negative down to
    the 1e-6 optimizer floor).  A failure in a stack carries the position of
    the first failing state as the exception's ``index``.
    """
    states = np.asarray(rho, dtype=complex)
    columns = _earliest_failure_score(states.reshape((-1,) + states.shape[-2:]))
    if states.ndim == 2:
        columns = (float(column[0]) for column in columns)
    return CorrelationReport(*columns)


def dephased_bell_discord(mean_phase_factor):
    """Closed-form discord of the dephased Bell family, in bits.

    For a mean phase factor ``z``, real or complex, with ``L = |z| <= 1`` the
    discord is ``((1+L) log2(1+L) + (1-L) log2(1-L)) / 2``; the endpoints
    evaluate exactly to 0 and 1.
    """
    lam = float(abs(mean_phase_factor))
    if not lam <= 1.0 + 1e-12:  # NaN fails it too
        raise ValueError(f"mean phase factor must lie in the unit disc, got {mean_phase_factor}")
    a = min(lam, 1.0)
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
    _check_positive("nu", nu)
    x = noise.delta_c * nu * _check_nonnegative("t", t)
    out = sinc(x) ** 2 if topology == "separate" else np.abs(sinc(2.0 * x))
    return float(out) if np.ndim(out) == 0 else out


def telegraph_negativity(rtn, nu, t, topology):
    """Closed-form negativity under telegraph noise:
    ``decay_factor(2 nu)^2`` (separate) or ``|decay_factor(4 nu)|`` (common)."""
    check_topology(topology)
    _check_positive("nu", nu)
    out = (decay_factor(2.0 * nu, rtn.gamma, t) ** 2 if topology == "separate"
           else np.abs(decay_factor(4.0 * nu, rtn.gamma, t)))
    return float(out) if np.ndim(out) == 0 else out
