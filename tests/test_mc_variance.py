"""Exact-variance oracle for the Monte Carlo row means.

``evolve._mc_mean`` returns one mean per independent factor of an estimator
(a "row").  For telegraph noise on either topology and for stratified static
noise, the variance of such a mean has a closed form.  Over 200 fixed
seeds, the seed-to-seed sample variance of each row mean, divided by the
exact variance, follows chi^2(199) / 199 when the sampler is right, so it must
lie inside that distribution's central 99.9% interval at every grid time.

* Telegraph, separate: a row averages ``X = cos 2 phi`` over ``n``
  trajectories, and ``Var X = (1 + D(4 nu)) / 2 - D(2 nu)^2`` with
  ``D = decay_factor``, since ``cos^2 2 phi = (1 + cos 4 phi) / 2``.
* Static, stratified: sample ``i`` of ``n`` draws the offset ``u = c - c0``
  uniformly from slice ``i`` of the flat support, so a row's variance is the
  sum over slices of ``Var cos(k u)`` on that slice, divided by ``n^2``.
* Telegraph, common: each of the two rows averages ``X = exp(-4i nu J(s))``
  over its window, with ``s = t/2`` and ``J`` the phase integral of a
  trajectory normalised to start at +1.  From that fixed sign the 2x2
  generator gives, with ``a = 4 nu`` and ``delta = sqrt(gamma^2 - a^2)``,
  ``g(s) = E X = exp(-gamma s) [cosh(delta s) + (gamma - i a) sinh(delta s) / delta]``,
  whose real part is ``decay_factor(a, gamma, s)``.  With ``g2`` the same at
  ``a = 8 nu``: ``Var Re X = (1 + Re g2) / 2 - (Re g)^2`` and
  ``Var Im X = (1 - Re g2) / 2 - (Im g)^2``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2

from bellnoise.evolve import HamiltonianSpec, _mc_mean, _rtn_chunk, _static_chunk, sinc
from bellnoise.noise import StaticNoiseSpec, TelegraphSpec, decay_factor

N_SAMPLES = 256
SEEDS = range(200)
TIMES = np.linspace(0.0, 20.0, 11)
HAM = HamiltonianSpec(nu=1.0)
DOF = len(SEEDS) - 1
LOW, HIGH = chi2.ppf([0.0005, 0.9995], DOF) / DOF


def row_means(chunk_fn, payload):
    """Row means for every seed: shape ``(seeds, rows, times)``."""
    return np.stack([
        _mc_mean(chunk_fn, payload(seed), N_SAMPLES, workers=1, chunk_s=0.0) for seed in SEEDS
    ])


def assert_variance_ratios(means, exact):
    spread = np.var(means, axis=0, ddof=1)
    assert np.all(spread[:, 0] == 0.0)  # every sample reads cos 0 = 1 at t = 0
    ratio = spread[:, 1:] / exact[1:]
    assert np.all((ratio > LOW) & (ratio < HIGH)), (LOW, HIGH, ratio)


@pytest.mark.parametrize("gamma", [0.2, 5.0])
def test_telegraph_separate_row_variance(gamma):
    rtn = TelegraphSpec(gamma=gamma)
    means = row_means(_rtn_chunk, lambda seed: (HAM, rtn, "separate", TIMES, seed))
    d2 = decay_factor(2.0 * HAM.nu, gamma, TIMES)
    d4 = decay_factor(4.0 * HAM.nu, gamma, TIMES)
    assert_variance_ratios(means, ((1.0 + d4) / 2.0 - d2 * d2) / N_SAMPLES)


def fixed_sign_factor(a, gamma, s):
    """``E exp(-i a J(s))`` for a telegraph trajectory that starts at +1."""
    delta = np.sqrt(complex(gamma * gamma - a * a))
    return np.exp(-gamma * s) * (
        np.cosh(delta * s) + (gamma - 1j * a) * np.sinh(delta * s) / delta
    )


@pytest.mark.parametrize("gamma", [0.2, 5.0])
def test_telegraph_common_row_variance(gamma):
    rtn = TelegraphSpec(gamma=gamma)
    means = row_means(_rtn_chunk, lambda seed: (HAM, rtn, "common", TIMES, seed))
    s = 0.5 * TIMES
    g = fixed_sign_factor(4.0 * HAM.nu, gamma, s)
    g2 = fixed_sign_factor(8.0 * HAM.nu, gamma, s)
    assert np.allclose(g.real, decay_factor(4.0 * HAM.nu, gamma, s), rtol=0.0, atol=1e-12)
    parts = ((means.real, g.real, 1.0 + g2.real), (means.imag, g.imag, 1.0 - g2.real))
    for part, first, second in parts:
        exact = (second / 2.0 - first * first) / N_SAMPLES
        assert_variance_ratios(part, exact)
        # the mean over all seeds lies within 5 sigma of g, which checks Im g's sign too
        error = np.abs(part.mean(axis=0) - first)
        assert np.all(error <= 5.0 * np.sqrt(exact / len(SEEDS)) + 1e-15)


@pytest.mark.parametrize("topology, rate", [("separate", 2.0), ("common", 4.0)])
def test_stratified_static_row_variance(topology, rate):
    noise = StaticNoiseSpec(c0=1.0, delta_c=1.0)
    means = row_means(
        _static_chunk, lambda seed: (HAM, noise, topology, TIMES, seed, N_SAMPLES)
    )
    # slice i holds u in [mid_i - half, mid_i + half]; on it, with k the phase
    # rate, E cos ku = cos(k mid) sinc(k half) and E cos^2 ku = (1 + cos(2k mid) sinc(2k half)) / 2
    half = 0.5 * noise.delta_c / N_SAMPLES
    mid = -0.5 * noise.delta_c + (2 * np.arange(N_SAMPLES) + 1) * half
    k = rate * HAM.nu * TIMES[:, None]
    first = np.cos(k * mid) * sinc(k * half)
    second = 0.5 * (1.0 + np.cos(2.0 * k * mid) * sinc(2.0 * k * half))
    exact = (second - first * first).sum(axis=1) / N_SAMPLES**2
    assert_variance_ratios(means, exact)
