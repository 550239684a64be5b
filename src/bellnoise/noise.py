"""Classical noise processes driving the qubit dephasing.

Two processes are covered: static disorder (a flat-distributed coupling drawn
once per realization) and random telegraph noise (an exponential-waiting-time
dichotomic process).  Telegraph sampling is event-driven, so trajectories and
the phases integrated along them are exact; there is no time discretisation
anywhere in this module.

Reproducibility contract: samplers take an explicit ``numpy.random.Generator``
and hold no state of their own.  Ensemble code splits its samples into chunks
whose boundaries depend on the sample count alone, and derives one generator
per chunk from ``(seed, first sample index)`` via :func:`substream`; each
chunk draws all of its samples from that generator as blocks whose shapes
depend only on the chunk, the noise parameters and the time grid.  Results
are therefore independent of worker count and of the order in which chunks
run.

Entry points check inputs by three rules: ``_check_positive`` (a finite,
positive rate), ``_check_nonnegative`` (a finite, nonnegative time, grid or
coupling) and ``_check_count`` (a whole sample or worker count >= 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def _check_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_nonnegative(name, values):
    values = np.asarray(values, dtype=float)
    bad = ~((values >= 0.0) & (values < math.inf))  # NaN fails the comparisons
    if bad.any():
        raise ValueError(f"{name} must be finite and nonnegative, got {values[bad].flat[0]}")
    return values


def _check_count(name, value):
    if not (math.isfinite(value) and value >= 1 and value == int(value)):
        raise ValueError(f"{name} must be a whole number >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class StaticNoiseSpec:
    """Flat-distributed static coupling: uniform on ``[c0 - delta_c/2, c0 + delta_c/2]``."""

    c0: float
    delta_c: float

    def __post_init__(self):
        if not math.isfinite(self.c0):
            raise ValueError(f"c0 must be finite, got {self.c0}")
        _check_positive("delta_c", self.delta_c)

    @property
    def low(self):
        return self.c0 - 0.5 * self.delta_c

    @property
    def high(self):
        return self.c0 + 0.5 * self.delta_c


@dataclass(frozen=True)
class TelegraphSpec:
    """Random telegraph noise switching between -1 and +1 at rate ``gamma``."""

    gamma: float

    def __post_init__(self):
        _check_positive("gamma", self.gamma)


@dataclass(frozen=True, eq=False)
class TelegraphTrajectory:
    """One telegraph realization: initial sign and the flip times up to ``horizon``."""

    initial_value: int
    flip_times: np.ndarray
    horizon: float


class TelegraphBlock(NamedTuple):
    """Many telegraph realizations on ``[0, horizon]``, one per row.

    ``initial`` holds each row's initial sign (+1.0 or -1.0).  ``flips`` holds
    each row's flip times in ascending order, padded with ``horizon`` to the
    largest flip count of any row; a padding entry marks no flip.
    """

    initial: np.ndarray
    flips: np.ndarray
    horizon: float


def substream(seed, index):
    """Independent generator for one sample (or chunk of samples) of a seeded ensemble."""
    return np.random.default_rng([int(seed), int(index)])


def sample_static(spec, rng, stratum=0, strata=1):
    """Draw static coupling values from the flat distribution.

    With ``strata > 1`` the draw is uniform on slice ``stratum`` of ``strata``
    equal slices of the support, so one draw from each slice is a stratified
    sample of the whole distribution.  An array of strata draws one value per
    entry, in one call to ``rng``; a scalar stratum returns a float.  A
    stratum outside ``[0, strata)`` raises ``ValueError``.
    """
    stratum = np.asarray(stratum)
    inside = (stratum >= 0) & (stratum < strata)
    if not inside.all():
        raise ValueError(f"stratum must lie in [0, {strata}), got {stratum[~inside].flat[0]}")
    fraction = (stratum + rng.random(np.shape(stratum))) / strata
    value = spec.low + (spec.high - spec.low) * fraction
    return float(value) if np.ndim(value) == 0 else value


def sample_telegraph_trajectory(spec, horizon, rng):
    """Draw one telegraph trajectory on ``[0, horizon]``.

    The initial value is +1 or -1 equiprobably (the stationary choice) and
    waiting times between flips are exponential with rate ``gamma``.  This is
    one row of :func:`sample_telegraph_block`, drawn the same way.
    """
    block = sample_telegraph_block(spec, horizon, 1, rng)
    return TelegraphTrajectory(int(block.initial[0]), block.flips[0], block.horizon)


def _telegraph_block_width(spec, horizon):
    """Waiting times drawn per trajectory at a time: the mean flip count plus five sigma."""
    mean_flips = spec.gamma * horizon
    if not math.isfinite(mean_flips):
        raise ValueError(f"gamma * horizon must be finite, got {spec.gamma:g} * {horizon:g}")
    return max(8, int(mean_flips + 5.0 * math.sqrt(mean_flips) + 8.0))


def sample_telegraph_block(spec, horizon, rows, rng):
    """Draw ``rows`` independent telegraph trajectories on ``[0, horizon]`` at once.

    Each row is distributed as one :func:`sample_telegraph_trajectory`: an
    equiprobable initial sign and exponential waits of rate ``gamma``.  The
    waits come as ``(rows, width)`` blocks, cumulated along each row, with
    further blocks appended while any row ends before the horizon; flip times
    past the horizon are clipped to it.  Returns a :class:`TelegraphBlock`.
    """
    _check_positive("horizon", horizon)
    initial = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
    width = _telegraph_block_width(spec, horizon)
    scale = 1.0 / spec.gamma
    times = _cumulated_waits(rng, scale, (rows, width))
    while rows and times[:, -1].min() < horizon:
        more = _cumulated_waits(rng, scale, (rows, width))
        more += times[:, -1:]
        times = np.concatenate([times, more], axis=1)
    # Rows ascend, so their column minima do too: the columns that hold any
    # flip before the horizon come first.  Later ones would hold it alone.
    most = int(np.searchsorted(times.min(axis=0, initial=np.inf), horizon))
    flips = np.minimum(times[:, :most], horizon)
    return TelegraphBlock(initial, flips, float(horizon))


def _cumulated_waits(rng, scale, shape):
    # rng.exponential(scale, shape) draws scale * rng.standard_exponential(shape)
    # bit for bit; scaling and cumulating in place saves two temporaries.
    waits = rng.standard_exponential(shape)
    waits *= scale
    return np.cumsum(waits, axis=1, out=waits)


def _times_within(times, horizon):
    times = np.asarray(times, dtype=float)
    # written so that NaN, which fails every comparison, fails the check too
    if times.size and not (times.min() >= 0.0 and times.max() <= horizon):
        raise ValueError(
            f"times must lie within [0, {horizon}], got range [{times.min()}, {times.max()}]"
        )
    return times


def accumulate_phases(trajectory, nu, times):
    """Dephasing phases ``phi(t) = -nu * integral_0^t c`` on a grid of times.

    The integral is evaluated exactly segment by segment, so the only error
    is floating-point rounding.  All times must lie in ``[0, horizon]``.
    """
    times = _times_within(times, trajectory.horizon)
    flips = trajectory.flip_times
    k = len(flips)
    # Value on each inter-flip segment, and the running integral at each flip.
    segment_values = trajectory.initial_value * (-1.0) ** np.arange(k + 1)
    bounds = np.concatenate([[0.0], flips])
    integral_at_flip = np.concatenate([[0.0], np.cumsum(segment_values[:k] * np.diff(bounds))])
    idx = np.searchsorted(flips, times, side="right")
    integral = integral_at_flip[idx] + segment_values[idx] * (times - bounds[idx])
    return -nu * integral


def accumulate_block_phases(block, nu, times):
    """Dephasing phases of every row of a :class:`TelegraphBlock` at ``times``.

    Row by row this is :func:`accumulate_phases`, with the same roundings.
    The running integral of a row that starts at +1 is the cumulative sum of
    the waits between its flips, taken with alternating signs.  Flips at or
    before each time are counted exactly in integers; the count picks the
    integral at the last such flip, and its parity gives the sign on which
    the integral continues from there.  Scaling by ``-nu`` times the row's
    initial sign comes last and is exact.  ``times`` may come in any order,
    all within ``[0, horizon]``.  Returns a ``(rows, len(times))`` array.
    """
    times = _times_within(times, block.horizon)
    flips = block.flips
    rows, k = flips.shape
    integral = np.empty((rows, k + 1))
    integral[:, 0] = 0.0
    integral[:, 1:2] = flips[:, :1]
    np.subtract(flips[:, 1:], flips[:, :-1], out=integral[:, 2:])
    np.negative(integral[:, 2::2], out=integral[:, 2::2])
    np.cumsum(integral, axis=1, out=integral)
    # Bin every flip by the first sorted time at or after it, then cumulate
    # the bins: the flips at or before each time.
    n = times.size
    order = np.argsort(times, kind="stable")
    first_after = np.searchsorted(times[order], flips, side="left")
    first_after += np.arange(0, rows * (n + 1), n + 1)[:, None]
    bins = np.bincount(first_after.ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)
    count = np.empty((rows, n), dtype=np.intp)
    count[:, order] = np.cumsum(bins[:, :n], axis=1)
    phases = np.take_along_axis(integral, count, axis=1)
    last = np.maximum(count - 1, 0)
    since = np.take_along_axis(flips, last, axis=1) if k else np.zeros(count.shape)
    since[count == 0] = 0.0
    phases += (1 - 2 * (count & 1)) * (times - since)
    phases *= block.initial[:, None]
    # A vanishing integral becomes +0.0 for either initial sign, so the
    # phase is -0.0 there, as from accumulate_phases.
    phases += 0.0
    phases *= -nu
    return phases


def accumulate_phase(trajectory, nu, t):
    """Dephasing phase at a single time (see :func:`accumulate_phases`)."""
    return float(accumulate_phases(trajectory, nu, np.asarray([float(t)]))[0])


def decay_factor(coupling, gamma, t):
    """Averaged telegraph phase factor ``<exp(i * coupling * integral c dt)>``.

    Hyperbolic branch for ``gamma > coupling`` (fast switching, monotone
    decay), trigonometric branch for ``gamma < coupling`` (slow switching,
    damped oscillation).  Within a relative 1e-9 of the branch point the
    degenerate limit ``exp(-gamma t) (1 + gamma t)`` is used, since both
    closed branches lose precision as the discriminant vanishes.  Finite for
    every finite rate; ``coupling * t`` must be finite.
    """
    _check_nonnegative("coupling", coupling)
    _check_positive("gamma", gamma)
    t = _check_nonnegative("t", t)
    if not math.isfinite(coupling * float(np.max(t, initial=0.0))):
        raise ValueError(f"coupling * t must be finite, got {coupling:g} * {np.max(t):g}")
    # The discriminant sqrt|gamma^2 - coupling^2| is taken as a product of
    # square roots, since squaring either rate overflows beyond ~1e154.  Past
    # ~9e307 a sum of two rates overflows too; the factor depends on the
    # rates only through rate * t, so it is then taken at half the rates with
    # every exponent doubled; doubling t instead overflows past ~9e307.  A
    # decay exponent past the float range gives exp = 0.
    with np.errstate(over="ignore"):
        scale = 1.0
        delta = math.sqrt(abs(gamma - coupling)) * math.sqrt(gamma + coupling)
        if not math.isfinite(gamma + delta):
            coupling, gamma, scale = 0.5 * coupling, 0.5 * gamma, 2.0
            delta = math.sqrt(abs(gamma - coupling)) * math.sqrt(gamma + coupling)
        decay = scale * (gamma * t)
        if abs(gamma - coupling) <= 1e-9 * gamma:
            # capped, so an overflowing exponent gives 0 rather than 0 * inf
            out = np.exp(-decay) * (1.0 + np.minimum(decay, np.finfo(float).max))
        elif gamma > coupling:
            # exp(-gamma t) cosh/sinh as pure exponentials: no overflow at
            # large t, and the slow mode dominates without cancellation.  The
            # slow rate gamma - delta equals coupling^2 / (gamma + delta),
            # which keeps its precision when gamma >> coupling.
            slow = coupling * (coupling / (gamma + delta))
            out = 0.5 * (
                (1.0 + gamma / delta) * np.exp(-scale * (slow * t))
                + (1.0 - gamma / delta) * np.exp(-scale * ((gamma + delta) * t))
            )
        else:
            phase = scale * (delta * t)
            out = np.exp(-decay) * (np.cos(phase) + (gamma / delta) * np.sin(phase))
    return float(out) if out.ndim == 0 else out


_SERIES_CUTOFF = 15.0
_SERIES_TERMS = 48


def _i_series(x, order):
    t = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, _SERIES_TERMS):
        term = term * t / (k * (k + order))
        total += term
    return 0.5 * x * total if order else total


def _i_asymptotic(x, order, shift):
    # exp(-shift) I(x) by DLMF 10.40.1 truncated at the smallest term, to
    # ~exp(-2x) relative error (below 1e-12 for x > 15), with x - shift as one
    # exponent.  Each entry stops at its own smallest term, so an entry's
    # value does not depend on the others.
    mu = 4.0 * order * order
    total = np.ones_like(x)
    term = np.ones_like(x)
    previous = np.full_like(x, np.inf)
    adding = np.ones(x.shape, dtype=bool)
    for k in range(1, 40):
        term = term * -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        size = np.abs(term)
        adding &= size < previous
        if not adding.any():
            break
        total[adding] += term[adding]
        previous = size
        adding &= size >= 1e-18
    return np.exp(x - shift) / np.sqrt(2.0 * np.pi * x) * total


def _bessel_i(x, order, shift=0.0):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    ax = np.atleast_1d(np.abs(x))
    out = np.empty_like(ax)
    small = ax <= _SERIES_CUTOFF
    if np.any(small):
        out[small] = math.exp(-shift) * _i_series(ax[small], order)
    if np.any(~small):
        out[~small] = _i_asymptotic(ax[~small], order, shift)
    if order:
        out = out * np.sign(np.atleast_1d(x))
    return float(out[0]) if scalar else out


def bessel_i0(x):
    """Modified Bessel function I0: ascending series below 15, asymptotic above."""
    return _bessel_i(x, 0)


def bessel_i1(x):
    """Modified Bessel function I1 (odd in x); same series/asymptotic split as I0."""
    return _bessel_i(x, 1)


class PhaseDensity(NamedTuple):
    """Continuous density at one phase (or an array of them) plus each boundary atom's weight."""

    continuous_density: float
    atom_weight: float


def telegraph_phase_density(nu, gamma, t, phi):
    """Distribution of the accumulated telegraph phase at time ``t``.

    The distribution has two atoms of weight ``exp(-gamma t)/2`` at
    ``phi = +-nu t`` (the flip-free trajectories) and a continuous part
    supported on the open window ``|phi| < nu t``:

        p(phi) = (gamma / 2 nu) exp(-gamma t) [ I1(u)/w + I0(u) ],
        w = sqrt(1 - (phi / nu t)^2),  u = gamma t w.

    Outside the window the continuous density is zero.  ``phi`` may be a
    scalar or an array; an array gives the continuous density at each entry,
    equal to the scalar value there.  ``exp(-gamma t)`` joins the asymptotic
    Bessel form as one exponent ``u - gamma t``.  Normalisation and the
    identity ``<exp(i phi)> = decay_factor(nu, gamma, t)`` are tested.
    """
    for name, value in (("nu", nu), ("gamma", gamma), ("t", t)):
        _check_positive(name, value)
    decay = gamma * t
    atom = 0.5 * math.exp(-decay)
    window = nu * t
    phi = np.asarray(phi, dtype=float)
    density = np.zeros(phi.shape)
    inside = ~(np.abs(phi) >= window)  # a NaN phi stays inside and gives NaN
    # float_power rounds through libm's pow, as a Python float's ``** 2``
    # does; ``x * x`` differs from it in the last bit about once in a thousand
    w = np.sqrt(1.0 - np.float_power(phi[inside] / window, 2))
    u = decay * w
    # I1(u)/w = gamma*t * I1(u)/u stays finite as the window edge is approached.
    i1_over_u = math.exp(-decay) * (0.5 + u * u / 16.0)
    exact = u >= 1e-6
    i1_over_u[exact] = _bessel_i(u[exact], 1, decay) / u[exact]
    density[inside] = 0.5 * (gamma / nu) * (decay * i1_over_u + _bessel_i(u, 0, decay))
    return PhaseDensity(float(density) if density.ndim == 0 else density, atom)


def telegraph_autocorrelation(gamma, t):
    """Stationary autocorrelation ``<c(t) c(0)> = exp(-2 gamma |t|)``."""
    _check_positive("gamma", gamma)
    return np.exp(-2.0 * gamma * np.abs(np.asarray(t, dtype=float)))[()]


def telegraph_spectrum(gamma, omega):
    """Lorentzian power spectrum ``4 gamma / (omega^2 + 4 gamma^2)``."""
    _check_positive("gamma", gamma)
    omega = np.asarray(omega, dtype=float)
    return (4.0 * gamma / (omega * omega + 4.0 * gamma * gamma))[()]
