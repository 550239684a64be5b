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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class StaticNoiseSpec:
    """Flat-distributed static coupling: uniform on ``[c0 - delta_c/2, c0 + delta_c/2]``."""

    c0: float
    delta_c: float

    def __post_init__(self):
        if not self.delta_c > 0:
            raise ValueError(f"delta_c must be positive, got {self.delta_c}")

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
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True, eq=False)
class TelegraphTrajectory:
    """One telegraph realization: initial sign and the flip times up to ``horizon``."""

    initial_value: int
    flip_times: np.ndarray
    horizon: float

    def value_at(self, t):
        """Trajectory value (+1 or -1) at time(s) ``t``."""
        count = np.searchsorted(self.flip_times, t, side="right")
        value = self.initial_value * (-1.0) ** count
        return float(value) if np.ndim(t) == 0 else value


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
    entry, in one call to ``rng``; a scalar stratum returns a float.
    """
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
    return max(8, int(mean_flips + 5.0 * math.sqrt(mean_flips) + 8.0))


def sample_telegraph_block(spec, horizon, rows, rng):
    """Draw ``rows`` independent telegraph trajectories on ``[0, horizon]`` at once.

    Each row is distributed as one :func:`sample_telegraph_trajectory`: an
    equiprobable initial sign and exponential waits of rate ``gamma``.  The
    waits come as ``(rows, width)`` blocks, cumulated along each row, with
    further blocks appended while any row ends before the horizon; flip times
    past the horizon are clipped to it.  Returns a :class:`TelegraphBlock`.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    initial = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
    width = _telegraph_block_width(spec, horizon)
    scale = 1.0 / spec.gamma
    times = np.cumsum(rng.exponential(scale, size=(rows, width)), axis=1)
    while rows and times[:, -1].min() < horizon:
        more = np.cumsum(rng.exponential(scale, size=(rows, width)), axis=1)
        times = np.concatenate([times, more + times[:, -1:]], axis=1)
    # Columns past every row's last flip would hold the horizon alone.
    most = int(np.count_nonzero(times < horizon, axis=1).max(initial=0))
    flips = np.minimum(times[:, :most], horizon)
    return TelegraphBlock(initial, flips, float(horizon))


def _times_within(times, horizon):
    times = np.asarray(times, dtype=float)
    if times.size and (times.min() < 0.0 or times.max() > horizon):
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

    Row by row this is :func:`accumulate_phases`: the running integral is
    exact at each flip and is continued linearly from the last flip at or
    before each time.  ``times`` may come in any order, all within
    ``[0, horizon]``.  Returns a ``(rows, len(times))`` array.
    """
    times = _times_within(times, block.horizon)
    rows, k = block.flips.shape
    segment_values = block.initial[:, None] * (-1.0) ** np.arange(k + 1)
    bounds = np.concatenate([np.zeros((rows, 1)), block.flips], axis=1)
    steps = np.cumsum(segment_values[:, :k] * np.diff(bounds, axis=1), axis=1)
    integral_at_flip = np.concatenate([np.zeros((rows, 1)), steps], axis=1)
    # Flips at or before each time, counted exactly in integers: bin every
    # flip by the first sorted time at or after it, then cumulate the bins.
    n = times.size
    order = np.argsort(times, kind="stable")
    first_after = np.searchsorted(times[order], block.flips, side="left")
    bins = (np.arange(rows)[:, None] * (n + 1) + first_after).ravel()
    counts = np.bincount(bins, minlength=rows * (n + 1)).reshape(rows, n + 1)
    idx = np.empty((rows, n), dtype=np.intp)
    idx[:, order] = np.cumsum(counts[:, :n], axis=1)
    value, integral, since = (
        np.take_along_axis(a, idx, axis=1) for a in (segment_values, integral_at_flip, bounds)
    )
    return -nu * (integral + value * (times - since))


def accumulate_phase(trajectory, nu, t):
    """Dephasing phase at a single time (see :func:`accumulate_phases`)."""
    return float(accumulate_phases(trajectory, nu, np.asarray([float(t)]))[0])


def decay_factor(coupling, gamma, t):
    """Averaged telegraph phase factor ``<exp(i * coupling * integral c dt)>``.

    Hyperbolic branch for ``gamma > coupling`` (fast switching, monotone
    decay), trigonometric branch for ``gamma < coupling`` (slow switching,
    damped oscillation).  Within a relative 1e-9 of the branch point the
    degenerate limit ``exp(-gamma t) (1 + gamma t)`` is used, since both
    closed branches lose precision as the discriminant vanishes.
    """
    if coupling < 0:
        raise ValueError(f"coupling must be nonnegative, got {coupling}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    # The discriminant sqrt|gamma^2 - coupling^2| is taken as a product of
    # square roots, since squaring either rate overflows beyond ~1e154.
    if abs(gamma - coupling) <= 1e-9 * gamma:
        out = np.exp(-gamma * t) * (1.0 + gamma * t)
    elif gamma > coupling:
        delta = math.sqrt(gamma - coupling) * math.sqrt(gamma + coupling)
        # exp(-gamma t) cosh/sinh combined into pure exponentials: no overflow
        # at large t, and the slow mode dominates without cancellation.  The
        # slow rate gamma - delta equals coupling^2 / (gamma + delta), a form
        # that keeps its precision when gamma >> coupling.
        slow = coupling * (coupling / (gamma + delta))
        out = 0.5 * (
            (1.0 + gamma / delta) * np.exp(-slow * t)
            + (1.0 - gamma / delta) * np.exp(-(gamma + delta) * t)
        )
    else:
        delta = math.sqrt(coupling - gamma) * math.sqrt(coupling + gamma)
        out = np.exp(-gamma * t) * (np.cos(delta * t) + (gamma / delta) * np.sin(delta * t))
    return float(out) if out.ndim == 0 else out


_SERIES_CUTOFF = 15.0
_SERIES_TERMS = 48


def _i0_series(x):
    t = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, _SERIES_TERMS):
        term = term * t / (k * k)
        total += term
    return total


def _i1_series(x):
    t = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, _SERIES_TERMS):
        term = term * t / (k * (k + 1))
        total += term
    return 0.5 * x * total


def _i_asymptotic(x, order):
    # DLMF 10.40.1 truncated at the smallest term; adequate to ~exp(-2x)
    # relative error, i.e. below 1e-12 for x > 15.
    mu = 4.0 * order * order
    total = np.ones_like(x)
    term = np.ones_like(x)
    previous = np.inf
    for k in range(1, 40):
        term = term * -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        largest = float(np.max(np.abs(term)))
        if largest >= previous:
            break
        total += term
        previous = largest
        if largest < 1e-18:
            break
    return np.exp(x) / np.sqrt(2.0 * np.pi * x) * total


def bessel_i0(x):
    """Modified Bessel function I0: ascending series below 15, asymptotic above."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    ax = np.atleast_1d(np.abs(x))
    out = np.empty_like(ax)
    small = ax <= _SERIES_CUTOFF
    if np.any(small):
        out[small] = _i0_series(ax[small])
    if np.any(~small):
        out[~small] = _i_asymptotic(ax[~small], 0)
    return float(out[0]) if scalar else out


def bessel_i1(x):
    """Modified Bessel function I1 (odd in x); same series/asymptotic split as I0."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    ax = np.atleast_1d(np.abs(x))
    out = np.empty_like(ax)
    small = ax <= _SERIES_CUTOFF
    if np.any(small):
        out[small] = _i1_series(ax[small])
    if np.any(~small):
        out[~small] = _i_asymptotic(ax[~small], 1)
    out = out * np.sign(np.atleast_1d(x))
    return float(out[0]) if scalar else out


class PhaseDensity(NamedTuple):
    """Continuous density at one phase plus the weight of each boundary atom."""

    continuous_density: float
    atom_weight: float


def telegraph_phase_density(nu, gamma, t, phi):
    """Distribution of the accumulated telegraph phase at time ``t``.

    The distribution has two atoms of weight ``exp(-gamma t)/2`` at
    ``phi = +-nu t`` (the flip-free trajectories) and a continuous part
    supported on the open window ``|phi| < nu t``:

        p(phi) = (gamma / 2 nu) exp(-gamma t) [ I1(u)/w + I0(u) ],
        w = sqrt(1 - (phi / nu t)^2),  u = gamma t w.

    Outside the window the continuous density is zero.  Normalisation and the
    identity ``<exp(i phi)> = decay_factor(nu, gamma, t)`` are exercised by
    the tests.
    """
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    atom = 0.5 * math.exp(-gamma * t)
    window = nu * t
    if abs(phi) >= window:
        return PhaseDensity(0.0, atom)
    w = math.sqrt(1.0 - (phi / window) ** 2)
    u = gamma * t * w
    # I1(u)/w = gamma*t * I1(u)/u stays finite as the window edge is approached.
    i1_over_u = 0.5 + u * u / 16.0 if u < 1e-6 else bessel_i1(u) / u
    density = atom * (gamma / nu) * (gamma * t * i1_over_u + bessel_i0(u))
    return PhaseDensity(float(density), atom)


def telegraph_autocorrelation(gamma, t):
    """Stationary autocorrelation ``<c(t) c(0)> = exp(-2 gamma |t|)``."""
    return np.exp(-2.0 * gamma * np.abs(np.asarray(t, dtype=float)))[()]


def telegraph_spectrum(gamma, omega):
    """Lorentzian power spectrum ``4 gamma / (omega^2 + 4 gamma^2)``."""
    omega = np.asarray(omega, dtype=float)
    return (4.0 * gamma / (omega * omega + 4.0 * gamma * gamma))[()]
