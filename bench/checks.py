"""Reference checks on the CLI's outputs, written independently of the library.

Every averaged state the program produces is the dephased Bell state of one
mean phase factor ``z(t)``, and its four measures depend only on ``|z|``:

    N = |z|,  Q = 1 - h((1 + |z|) / 2),  I = 1 + Q,  C = 1

with ``h`` the binary entropy in bits.  The exact ``|z|`` of each scenario is
computed here from its closed form, so nothing in this module imports
``bellnoise``.
"""

from __future__ import annotations

import math

CSV_HEADER = "nt,negativity,discord,mutual_info,classical,method,topology,noise"
EXACT_TOL = 1e-12
MC_SIGMAS = 5.0


class CheckError(Exception):
    """An output disagrees with its reference."""


def sinc(x):
    return 1.0 if x == 0.0 else math.sin(x) / x


def telegraph_factor(coupling, gamma, t):
    """``<exp(i coupling * integral of c)>`` for telegraph noise ``c = +-1`` at rate ``gamma``."""
    if gamma > coupling:
        d = math.sqrt(gamma * gamma - coupling * coupling)
        # cosh/sinh written as decaying exponentials, so large t cannot overflow
        return 0.5 * ((1.0 + gamma / d) * math.exp(-(gamma - d) * t)
                      + (1.0 - gamma / d) * math.exp(-(gamma + d) * t))
    if gamma < coupling:
        d = math.sqrt(coupling * coupling - gamma * gamma)
        return math.exp(-gamma * t) * (math.cos(d * t) + (gamma / d) * math.sin(d * t))
    return math.exp(-gamma * t) * (1.0 + gamma * t)


def exact_abs_z(scenario, nt):
    """Exact ``|z|`` at dimensionless time ``nt = nu t`` (``nu = 1`` throughout)."""
    separate = scenario["topology"] == "separate"
    if scenario["noise"] == "static":
        x = scenario["delta_c"] * nt
        return sinc(x) ** 2 if separate else abs(sinc(2.0 * x))
    gamma = scenario["gamma"]
    if separate:
        return telegraph_factor(2.0, gamma, nt) ** 2
    return abs(telegraph_factor(4.0, gamma, nt))


def binary_entropy(p):
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def discord_of(abs_z):
    return 1.0 - binary_entropy(0.5 * (1.0 + abs_z))


def parse_rows(text, scenario, method):
    """Numeric rows ``(nt, N, Q, I, C)`` of one CSV, after checking its shape and labels."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckError(f"bad CSV header {lines[:1]!r}")
    labels = [method, scenario["topology"], scenario["noise"]]
    points = scenario["points"]
    rows = []
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        if cells[5:] != labels:
            raise CheckError(f"row {k}: labels {cells[5:]} != {labels}")
        rows.append(tuple(float(cell) for cell in cells[:5]))
    if len(rows) != points:
        raise CheckError(f"{len(rows)} rows, expected {points}")
    for k, row in enumerate(rows):
        nt = scenario["t_max"] * k / (points - 1)
        if abs(row[0] - nt) > EXACT_TOL * max(1.0, nt):
            raise CheckError(f"row {k}: nt {row[0]!r} != {nt!r}")
    return rows


def _near(name, k, got, want):
    if not abs(got - want) <= EXACT_TOL:
        raise CheckError(f"row {k}: {name} {got!r} differs from {want!r} by {abs(got - want):.3e}")


def check_closed_form(text, scenario):
    """All four columns of a closed-form CSV against the formulas, to 1e-12."""
    for k, (nt, n, q, i, c) in enumerate(parse_rows(text, scenario, "closed_form")):
        abs_z = exact_abs_z(scenario, nt)
        _near("negativity", k, n, abs_z)
        _near("discord", k, q, discord_of(abs_z))
        _near("mutual_info", k, i, 1.0 + q)
        _near("classical", k, c, 1.0)


def check_mc(text, scenario, samples):
    """Monte Carlo CSV: exact identities, and negativity inside the 5-sigma band.

    ``sigma = sqrt(1 / samples)`` bounds the standard error of ``|z|`` for a
    mean of unit-modulus samples.  ``sqrt(0.5 / samples)`` is the error of
    each component only near ``z = 0``; where the phases are bimodal (slow
    telegraph noise) the radial error reaches ``sqrt(1 / samples)``.
    Returns the squared negativity errors, one per point, for the run's RMS
    error.
    """
    band = MC_SIGMAS * math.sqrt(1.0 / samples)
    squares = []
    for k, (nt, n, q, i, c) in enumerate(parse_rows(text, scenario, "mc")):
        _near("mutual_info", k, i, 1.0 + q)
        _near("classical", k, c, 1.0)
        error = n - exact_abs_z(scenario, nt)
        if not abs(error) <= band:
            raise CheckError(f"row {k}: negativity off by {error:.3e}, outside the band {band:.3e}")
        squares.append(error * error)
    return squares


def check_compare(text):
    """A ``compare`` report that passed on every row."""
    lines = text.splitlines()
    if not lines or lines[-1] != "result: PASS" or any(line.endswith("FAIL") for line in lines):
        raise CheckError("compare report did not pass:\n" + text)
