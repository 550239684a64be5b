"""Stochastic evolution of a Bell pair under classical dephasing.

Each noise realization rotates the two qubits by accumulated phases
``phi_A, phi_B`` and maps the initial Bell state to a pure state that
depends only on ``exp(2i (phi_A + phi_B))``.  Ensemble averages therefore
live in a one-complex-parameter family (:func:`dephased_bell_state`), and
this module provides three mutually checking routes to them: Monte Carlo,
Gauss-Legendre quadrature (static noise), and closed forms.  Every route
takes a scalar time or an ascending time grid, computes the mean phase
factor ``z`` on the whole grid as one array, and returns
``dephased_bell_state(z)``: one 4x4 state, or one per grid time.

The single-qubit energy offset only ever multiplies the evolution by a
global phase, so it never appears in any output.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .noise import (
    _telegraph_block_width,
    accumulate_block_phases,
    decay_factor,
    sample_static,
    sample_telegraph_block,
    substream,
)

# The scalar telegraph sampler and integrator stay importable from this
# module: they are the reference the block kernels are tested against, and
# the benchmark's tracer wraps them here.
from .noise import accumulate_phases, sample_telegraph_trajectory  # noqa: F401

TOPOLOGIES = ("separate", "common")

# Samples per chunk, and the largest array a chunk's kernel builds at once.
_CHUNK = 256
_BLOCK_ELEMENTS = 1 << 16
# Seconds a pool costs per worker beyond its share of the work.  On a 2-core
# VM a 2-worker pool takes 15 ms to start and stop with trivial tasks, and
# adds 25 ms to a 2e4-sample static curve (30 ms pooled against 10 ms
# in-process): the workers also start cold and send their sums back.
_POOL_START_S = 0.012
# Predicted seconds of a chunk's work per row and grid point (static), and
# per row and flip or query time (telegraph): a 256-sample chunk took
# 2.5-6.8 us and 7-33 us per unit on a shared 2-core x86_64 VM, over 11 to
# 801 points, gamma 0.2 to 20 and both topologies.
_STATIC_UNIT_S = 5e-6
_RTN_UNIT_S = 20e-6

# Gauss-Legendre integrates exp(i w x) on [-1, 1] spectrally while w stays
# below about this many radians per node.
_RAD_PER_NODE = 1.4
# Node count when none is given, unless the grid needs more.  leggauss builds
# a dense n x n matrix, so no count, automatic or given, exceeds MAX_NODES.
_DEFAULT_NODES = 64
MAX_NODES = 1024


def check_topology(topology):
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}, expected one of {TOPOLOGIES}")
    return topology


def check_telegraph_block(rtn, horizon):
    """Refuse Monte Carlo trajectories on ``[0, horizon]`` wider than one kernel block:
    their memory and time grow without bound, and the closed form is exact at any rate."""
    if _telegraph_block_width(rtn, horizon) > _BLOCK_ELEMENTS:
        raise ValueError(f"rtn mc trajectories at gamma*t_max={rtn.gamma * horizon:g} "
                         f"outgrow one kernel block; use --method closed_form")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Single-qubit parameters: the coupling ``nu`` to the noise."""

    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be finite and positive, got {self.nu}")


def sinc(x):
    """sin(x)/x with the removable singularity handled explicitly."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    # the series sees only the small entries: x * x overflows beyond ~1e154
    tiny = np.where(small, x, 0.0)
    out = np.where(small, 1.0 - tiny * tiny / 6.0, np.sin(safe) / safe)
    return float(out) if out.ndim == 0 else out


def dephased_bell_state(z):
    """Density matrix of the Bell pair dephased by mean phase factor ``z``.

    ``z`` is the ensemble average of ``exp(2i (phi_A + phi_B))``; ``z = 1``
    gives back the Bell projector and ``z = 0`` the fully dephased mixture.
    An array of ``z`` gives an array of states of shape ``z.shape + (4, 4)``.
    Hermiticity and unit trace hold by construction.
    """
    z = np.asarray(z, dtype=complex)
    rho = np.empty(z.shape + (4, 4), dtype=complex)
    # rows and columns 0 and 3 hold |00>, |11>; 1 and 2 hold |01>, |10>
    off = (0.25j * z.imag)[..., None, None]
    rho[..., ::3, ::3] = (0.25 * (1.0 + z.real))[..., None, None]
    rho[..., 1:3, 1:3] = (0.25 * (1.0 - z.real))[..., None, None]
    rho[..., ::3, 1:3] = off
    rho[..., 1:3, ::3] = -off
    return rho


def realization_state(phi_a, phi_b):
    """Pure two-qubit state for one noise realization with the given phases."""
    return dephased_bell_state(np.exp(2j * (float(phi_a) + float(phi_b))))


def closed_form_static(ham, noise, topology, t):
    """Static-noise average in closed form, at a scalar time or on a grid.

    The mean phase factor is ``exp(-4i c0 nu t)`` times ``sinc(delta_c nu t)^2``
    for separate environments or ``sinc(2 delta_c nu t)`` for a common one.
    """
    check_topology(topology)
    times, shape = _time_grid(t)
    x = noise.delta_c * ham.nu * times
    envelope = sinc(x) ** 2 if topology == "separate" else sinc(2.0 * x)
    z = np.exp(-4j * noise.c0 * ham.nu * times) * envelope
    return dephased_bell_state(z.reshape(shape))


def closed_form_rtn(ham, rtn, topology, t):
    """Telegraph-noise average in closed form, at a scalar time or on a grid.

    The mean phase factor is ``decay_factor(2 nu)^2`` for separate
    environments and ``decay_factor(4 nu)`` for a common one; it is real, so
    the state is an X-form mixture of two Bell states at all times.
    """
    check_topology(topology)
    times, shape = _time_grid(t)
    if topology == "separate":
        z = decay_factor(2.0 * ham.nu, rtn.gamma, times) ** 2
    else:
        z = decay_factor(4.0 * ham.nu, rtn.gamma, times)
    return dephased_bell_state(z.reshape(shape))


def average_static_quadrature(ham, noise, topology, t, nodes=None):
    """Static-noise average by Gauss-Legendre quadrature over the flat couplings.

    ``t`` may be a scalar or an ascending grid.  Each environment contributes
    the 1-D rule ``g = sum_k w_k exp(-i rate nu t c_k)``, with rate 2 for
    separate environments and 4 for a common one.  A common environment has
    ``z = g``; separate ones have ``z = g^2``, since the tensor-product rule
    over ``(c_A, c_B)`` factorises exactly into two 1-D rules.

    The rule is spectrally convergent while its oscillation at the grid's
    largest time, ``delta_c nu t`` radians (separate) or ``2 delta_c nu t``
    (common), stays within 1.4 radians per node.  ``nodes=None`` chooses
    ``max(64, ceil(oscillation / 1.4))`` nodes, at most 1024.  A node count
    beyond the bound raises :class:`NumericalError` with the smallest count
    that resolves the integrand, and so does an oscillation that overflows to
    infinity; an explicit count outside 2 to 1024 raises ``ValueError``,
    since ``leggauss`` builds a dense n x n matrix.
    """
    check_topology(topology)
    times, shape = _time_grid(t)
    if nodes is not None and not 2 <= nodes <= MAX_NODES:
        raise ValueError(f"need 2 to {MAX_NODES} quadrature nodes, got {nodes}")
    spread = noise.delta_c * ham.nu * float(times.max(initial=0.0))
    oscillation = spread if topology == "separate" else 2.0 * spread
    if not math.isfinite(oscillation):
        raise NumericalError(
            f"quadrature oscillation is not finite ({topology} environments, "
            f"delta_c nu t = {spread:.6g})"
        )
    needed = math.ceil(oscillation / _RAD_PER_NODE)
    if nodes is None:
        nodes = min(max(_DEFAULT_NODES, needed), MAX_NODES)
    if oscillation > _RAD_PER_NODE * nodes:
        raise NumericalError(
            f"{nodes}-node quadrature cannot resolve {oscillation:.6g} rad of oscillation "
            f"({topology} environments, delta_c nu t = {spread:.6g}); "
            f"needs nodes >= {needed:.6g}"
        )
    x, w = _legendre_rule(int(nodes))
    couplings = noise.c0 + 0.5 * noise.delta_c * x
    weights = 0.5 * w  # flat density times half-width: weights sum to 1
    rate = 2.0 if topology == "separate" else 4.0
    g = np.exp(-1j * rate * ham.nu * np.outer(times, couplings)) @ weights
    z = g * g if topology == "separate" else g
    return dephased_bell_state(z.reshape(shape))


@functools.lru_cache(maxsize=16)
def _legendre_rule(nodes):
    # Read-only Gauss-Legendre nodes and weights.  leggauss solves a dense
    # eigenproblem, which numpy hands to a threaded LAPACK: once per count
    # keeps its threads, and their start-up after every fork, out of the
    # calls that follow.
    rule = np.polynomial.legendre.leggauss(nodes)
    for array in rule:
        array.flags.writeable = False
    return rule


def _static_chunk(args):
    # Row k sums cos(rate * (c - c0)) over one environment's draws: the flat
    # density is symmetric about c0, so each environment's factor is real
    # once the rotation exp(-2i nu t c0) is taken out.  Sample i of the chunk
    # draws from stratum i in every row.
    ham, noise, topology, times, seed, n_samples, start, stop = args
    rows, rate = (2, 2.0) if topology == "separate" else (1, 4.0)
    rng = substream(seed, start)
    strata = np.broadcast_to(np.arange(start, stop), (rows, stop - start))
    offsets = sample_static(noise, rng, strata, n_samples) - noise.c0
    rate_times = rate * ham.nu * times
    acc = np.empty((rows, times.size))
    span = max(1, _BLOCK_ELEMENTS // offsets.size)
    for first in range(0, times.size, span):
        phases = rate_times[first : first + span, None] * offsets[:, None, :]
        acc[:, first : first + span] = np.cos(phases).sum(axis=2)
    return acc


def _rtn_chunk(args):
    # Separate: row k sums cos(2 phi) along environment k's trajectories (real
    # by sign symmetry).  Common: rows sum exp(-4i nu J) for the sign-normalised
    # integrals J of each trajectory over [0, t/2], forward from its initial
    # value, and over [T - t/2, T], backward from its final value.  The two
    # windows hold disjoint sets of flips, so the row means are independent.
    # Trajectories come in blocks of at most _BLOCK_ELEMENTS entries per array,
    # a size fixed by (gamma, T, grid) alone.
    ham, rtn, topology, times, seed, start, stop = args
    horizon = float(times.max()) if times.size else 0.0
    separate = topology == "separate"
    acc = np.zeros((2, times.size), dtype=float if separate else complex)
    if horizon == 0.0:
        return acc + (stop - start)
    n = times.size
    if separate:
        queries = times
    else:
        queries = np.concatenate([0.5 * times, horizon - 0.5 * times, [horizon]])
    widest = max(_telegraph_block_width(rtn, horizon), queries.size)
    per_block = max(1, _BLOCK_ELEMENTS // widest)
    rng = substream(seed, start)
    for row in range(2 if separate else 1):
        for first in range(start, stop, per_block):
            block = sample_telegraph_block(rtn, horizon, min(per_block, stop - first), rng)
            phases = accumulate_block_phases(block, ham.nu, queries)
            if separate:
                acc[row] += np.cos(2.0 * phases).sum(axis=0)
            else:
                flips = np.count_nonzero(block.flips < horizon, axis=1)
                initial = block.initial[:, None]
                final = initial * (-1.0) ** flips[:, None]
                acc[0] += np.exp((4j * initial) * phases[:, :n]).sum(axis=0)
                acc[1] += np.exp((4j * final) * (phases[:, -1:] - phases[:, n:-1])).sum(axis=0)
    return acc


def _mc_mean(chunk_fn, payload, n_samples, workers, chunk_s):
    # Chunk boundaries are fixed by n_samples alone and each chunk is reduced
    # in index order, so the result is bit-identical for any worker count.
    # Chunks return per-row sums, one row per independent factor of the
    # estimator; the result holds the row means.
    #
    # A pool never outnumbers ``workers``, the chunks or the CPUs this process
    # may run on.  It saves the share of the work that runs beside another
    # worker's, predicted from the config as ``chunk_s`` per chunk, and starts
    # only when that covers twice its start-up, since the prediction is good
    # to about 2x.  No clock takes part: a config always makes the same
    # choice.  Each worker takes one contiguous batch of chunks, since a task
    # sent on its own costs a millisecond's round trip through the queues.
    tasks = [
        payload + (start, min(start + _CHUNK, n_samples))
        for start in range(0, n_samples, _CHUNK)
    ]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool_size = min(int(workers), len(tasks), cpus or 1)
    saving = chunk_s * len(tasks) * (1.0 - 1.0 / pool_size)
    if saving > 2.0 * _POOL_START_S * pool_size:
        # concurrent.futures and multiprocessing (thirty-odd modules) load on the
        # first pool start, not with the package: most runs never start a pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            batch = math.ceil(len(tasks) / pool_size)
            partials = list(pool.map(chunk_fn, tasks, chunksize=batch))
    else:
        partials = [chunk_fn(task) for task in tasks]
    sums = np.sum(np.stack(partials, axis=0), axis=0)
    if np.iscomplexobj(sums):
        # numpy divides a complex array through the reciprocal of the divisor,
        # which takes 425 / 425 to 1 - 1e-16; divide each part exactly instead
        return sums.real / n_samples + 1j * (sums.imag / n_samples)
    return sums / n_samples


def _time_grid(t):
    # A scalar or an ascending 1-D grid; the shape is kept so that a scalar
    # time gives back a single state.
    times = np.asarray(t, dtype=float)
    shape = times.shape
    times = np.atleast_1d(times)
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError("times must be finite and nonnegative")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly ascending")
    return times, shape


def average_static_mc(ham, noise, topology, t, n_samples, seed, workers=1):
    """Static-noise average by stratified Monte Carlo over flat coupling draws.

    Sample ``index`` draws its couplings from slice ``index`` of
    ``n_samples`` equal slices of the flat distribution, so the draws cover
    it evenly while each stays uniform on its slice.  The mean phase factor
    is ``exp(-4i c0 nu t)`` times the mean cosine of the phase about ``c0``,
    which is real by the symmetry of the flat density; separate environments
    multiply the means of their independent draws.  Every step is unbiased,
    and the error falls faster than ``1/sqrt(n_samples)`` where the phase
    varies smoothly over a slice.

    ``t`` may be a scalar or an ascending grid; one coupling draw per sample
    is reused across the whole grid, so a grid gives the values of per-point
    calls.  Samples run in chunks of 256, and each chunk draws all of its
    couplings as one uniform block from the generator of ``(seed, first
    sample index)``: deterministic for fixed ``seed`` regardless of
    ``workers``.  ``workers`` is an upper bound: chunks go to a process pool
    only when the work predicted from the grid size saves twice what the pool
    costs to start, so small runs stay in-process.
    """
    check_topology(topology)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    times, shape = _time_grid(t)
    payload = (ham, noise, topology, times, int(seed), int(n_samples))
    chunk_s = (2 if topology == "separate" else 1) * times.size * _STATIC_UNIT_S
    means = _mc_mean(_static_chunk, payload, int(n_samples), workers, chunk_s)
    z = np.exp(-4j * noise.c0 * ham.nu * times) * np.prod(means, axis=0)
    return dephased_bell_state(z.reshape(shape))


def average_rtn_mc(ham, rtn, topology, t_grid, n_traj, seed, workers=1):
    """Telegraph-noise average by Monte Carlo over event-driven trajectories.

    Every sample starts from the stationary state, whose sign symmetry makes
    the mean phase factor real; the estimators below are real too, so the
    imaginary part carries no sampling noise.

    * Separate environments draw two independent trajectories per sample and
      multiply the mean of ``cos(2 phi_A)`` by the mean of ``cos(2 phi_B)``.
    * A common environment draws one trajectory on ``[0, T]``, ``T`` the
      largest grid time.  By the Markov property, time reversibility and sign
      symmetry, ``z(t) = Re g(t/2)^2`` with ``g(s) = <exp(-4i nu J(s))>`` and
      ``J`` the phase integral of a trajectory normalised to start at +1.
      ``g`` is estimated twice: from ``[0, t/2]`` run forward from the
      initial value, and from ``[T - t/2, T]`` run backward from the final
      value.  The flips on these windows are independent, so the product of
      the two means is unbiased.

    Each trajectory is evaluated at every grid time, so successive times
    share realizations (correlated along the grid, unbiased at each point).
    Samples run in chunks of 256, and each chunk draws its trajectories as
    blocks (:func:`~bellnoise.noise.sample_telegraph_block`) from the
    generator of ``(seed, first sample index)``; the block shapes depend only
    on ``gamma``, ``T`` and the grid size.  Deterministic for fixed ``seed``
    regardless of ``workers``, which is an upper bound as in
    :func:`average_static_mc`; the work is predicted from ``gamma * T`` and
    the grid size.
    """
    check_topology(topology)
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    times, shape = _time_grid(t_grid)
    check_telegraph_block(rtn, float(times.max()))
    payload = (ham, rtn, topology, times, int(seed))
    rows, queries = (2, times.size) if topology == "separate" else (1, 2 * times.size + 1)
    chunk_s = rows * (rtn.gamma * float(times.max()) + queries) * _RTN_UNIT_S
    first, second = _mc_mean(_rtn_chunk, payload, int(n_traj), workers, chunk_s)
    z = (first * second).real
    return dephased_bell_state(z.reshape(shape))
