"""Shared helpers: reference implementations the library code never touches."""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Property tests replay the same examples on every run and have no per-example
# time limit; each test sets its own max_examples.
settings.register_profile("bellnoise", deadline=None, derandomize=True)
settings.load_profile("bellnoise")


@pytest.fixture(scope="session", autouse=True)
def no_leftover_processes():
    """Fail the session if any test leaves a child process running."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running after the tests: {left}"


def child_env():
    """Environment for a child interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_hermitian(rng, n=4, scale=1.0):
    a = rng.normal(size=(n, n), scale=scale) + 1j * rng.normal(size=(n, n), scale=scale)
    return 0.5 * (a + a.conj().T)


def random_density(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def partial_transpose_reference(rho):
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for a in range(2):
            for j in range(2):
                for b in range(2):
                    out[2 * i + a, 2 * j + b] = rho[2 * i + b, 2 * j + a]
    return out


def partial_trace_reference(rho, keep):
    out = np.zeros((2, 2), dtype=complex)
    if keep == "A":
        for i in range(2):
            for j in range(2):
                for a in range(2):
                    out[i, j] += rho[2 * i + a, 2 * j + a]
    else:
        for a in range(2):
            for b in range(2):
                for i in range(2):
                    out[a, b] += rho[2 * i + a, 2 * i + b]
    return out


def bell_projector():
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[0, 3] = out[3, 0] = out[3, 3] = 0.5
    return out


def single_qubit_rotation(phi):
    # cos(phi) I - i sin(phi) sigma_x
    return np.array(
        [[np.cos(phi), -1j * np.sin(phi)], [-1j * np.sin(phi), np.cos(phi)]], dtype=complex
    )


def dephasing_scalar_of(rho):
    """Read the mean phase factor back out of a dephased-Bell-family state."""
    return complex(4.0 * rho[0, 0].real - 1.0, 4.0 * rho[0, 1].imag)
