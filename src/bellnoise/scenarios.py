"""Scenario layer: configs, curves over time grids, features, CSV output.

A scenario fixes the noise kind, environment topology, evolution method and
its parameters; running it produces a :class:`Curve`: the four correlation
measures as columns over a uniform grid of dimensionless times ``nu * t``,
together with the config that made them.  Methods differ only in how the
averaged state is produced; the correlation measures are always the numeric
ones, so closed-form and sampled curves can be compared honestly.
"""

from __future__ import annotations

import ast
import math
import re
import warnings
from dataclasses import dataclass, fields, replace
from itertools import combinations

import numpy as np

from .correlations import (
    CorrelationReport,
    measure_correlations,
)
from .errors import SimulationError
from .evolve import (
    MAX_NODES,
    TOPOLOGIES,
    HamiltonianSpec,
    average_rtn_mc,
    average_static_mc,
    average_static_quadrature,
    check_telegraph_block,
    closed_form_rtn,
    closed_form_static,
)
from .noise import StaticNoiseSpec, TelegraphSpec

NOISE_KINDS = ("static", "rtn")
METHODS = ("mc", "quadrature", "closed_form")
QUANTITIES = ("negativity", "discord", "mutual_info", "classical")
# the columns emit_csv writes: the time, one per quantity, then three labels
_CSV_COLUMNS = ("nt",) + QUANTITIES + ("method", "topology", "noise")


@dataclass
class ScenarioConfig:
    """Fully resolved description of one simulation run."""

    noise_kind: str = "rtn"
    topology: str = "separate"
    method: str = "closed_form"
    nu: float = 1.0
    gamma: float | None = None
    c0: float | None = None
    delta_c: float | None = None
    t_max: float = 20.0
    n_points: int = 201
    n_samples: int = 100_000
    quad_nodes: int | None = None
    seed: int = 0
    workers: int = 1
    threshold: float = 1e-3
    output_path: str | None = None
    preset: str | None = None
    notes: str = ""

    def validate(self):
        problems = []
        if self.noise_kind not in NOISE_KINDS:
            problems.append(f"noise_kind must be one of {NOISE_KINDS}, got {self.noise_kind!r}")
        if self.topology not in TOPOLOGIES:
            problems.append(f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        if self.method not in METHODS:
            problems.append(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("nu", "gamma", "c0", "delta_c", "t_max", "threshold"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                problems.append(f"{name} must be finite, got {value}")
        if not self.nu > 0:
            problems.append(f"nu must be positive, got {self.nu}")
        if not self.t_max > 0:
            problems.append(f"t_max must be positive, got {self.t_max}")
        if self.n_points < 2:
            problems.append(f"n_points must be >= 2, got {self.n_points}")
        if not self.threshold > 0:
            problems.append(f"threshold must be positive, got {self.threshold}")
        if self.workers < 1:
            problems.append(f"workers must be >= 1, got {self.workers}")
        if self.noise_kind == "rtn":
            if self.gamma is None or not self.gamma > 0:
                problems.append(f"rtn noise needs gamma > 0, got {self.gamma}")
            if self.method == "quadrature":
                problems.append("quadrature is only defined for static noise")
            phase = 4.0 * self.nu * self.t_max  # the largest phase, as for static noise below
            if math.isfinite(self.nu) and math.isfinite(self.t_max) and not math.isfinite(phase):
                problems.append(f"rtn noise phase 4*nu*t_max must be finite, got "
                                f"4*{self.nu:g}*{self.t_max:g}")
        if self.noise_kind == "static":
            if self.c0 is None:
                problems.append("static noise needs c0")
            if self.delta_c is None or not self.delta_c > 0:
                problems.append(f"static noise needs delta_c > 0, got {self.delta_c}")
            elif self.c0 is not None:
                # the largest phase, each factor counted as at least 1: no product a
                # route forms on the way may overflow, or sines and cosines give nan
                coupling = abs(self.c0) + self.delta_c
                phase = 4.0 * max(self.nu, 1.0) * max(coupling, 1.0) * max(self.t_max, 1.0)
                inputs = (self.nu, self.c0, self.delta_c, self.t_max)
                if all(map(math.isfinite, inputs)) and not math.isfinite(phase):
                    problems.append(
                        f"static noise phase 4*nu*(|c0|+delta_c)*t_max must be finite with "
                        f"each factor counted as at least 1, got "
                        f"4*{self.nu:g}*({abs(self.c0):g}+{self.delta_c:g})*{self.t_max:g}"
                    )
        if self.method == "mc" and self.n_samples < 1:
            problems.append(f"mc needs n_samples >= 1, got {self.n_samples}")
        if self.method == "mc" and self.seed < 0:
            problems.append(f"mc needs seed >= 0, got {self.seed}")
        # checked whatever the method, so compare rejects it before any quadrature
        if self.quad_nodes is not None and not 2 <= self.quad_nodes <= MAX_NODES:
            problems.append(f"quad_nodes must be 2 to {MAX_NODES}, got {self.quad_nodes}")
        if problems:
            raise ValueError("invalid scenario config: " + "; ".join(problems))
        if self.noise_kind == "rtn" and self.method == "mc":
            check_telegraph_block(self.noise_spec(), self.t_max)

    def hamiltonian(self):
        return HamiltonianSpec(nu=self.nu)

    def noise_spec(self):
        if self.noise_kind == "static":
            return StaticNoiseSpec(c0=self.c0, delta_c=self.delta_c)
        return TelegraphSpec(gamma=self.gamma)


@dataclass(frozen=True, eq=False)
class Curve:
    """The four correlation measures of one run as columns over its time grid.

    ``times`` holds the strictly ascending dimensionless ``nu * t`` values,
    ``measures`` a :class:`CorrelationReport` whose fields are arrays of the
    same length, and ``config`` the :class:`ScenarioConfig` of the run.
    """

    times: np.ndarray
    measures: CorrelationReport
    config: ScenarioConfig

    def __post_init__(self):
        if any(len(self.column(quantity)) != len(self.times) for quantity in QUANTITIES):
            raise ValueError("times and every measure column must have equal length")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly ascending")

    def column(self, quantity):
        if quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")
        return getattr(self.measures, quantity)


@dataclass(frozen=True)
class CurveFeatures:
    """Sudden-death and revival structure of one curve."""

    death_times: list[float]
    revival_peaks: list[tuple[float, float]]


def _states_for(cfg, times):
    ham = cfg.hamiltonian()
    noise = cfg.noise_spec()
    static = cfg.noise_kind == "static"
    if cfg.method == "closed_form":
        closed_form = closed_form_static if static else closed_form_rtn
        return closed_form(ham, noise, cfg.topology, times)
    if cfg.method == "quadrature":
        return average_static_quadrature(ham, noise, cfg.topology, times, nodes=cfg.quad_nodes)
    average = average_static_mc if static else average_rtn_mc
    return average(ham, noise, cfg.topology, times, cfg.n_samples, cfg.seed, workers=cfg.workers)


def run_scenario(cfg):
    """Run one scenario and return its :class:`Curve`.

    Deterministic for a fixed config (including seed).  The whole curve is
    scored in one :func:`measure_correlations` call; a failure is re-raised
    with the earliest failing time point attached.
    """
    cfg.validate()
    times = np.linspace(0.0, cfg.t_max, cfg.n_points)
    states = _states_for(cfg, times)
    try:
        measures = measure_correlations(states)
    except SimulationError as exc:
        if exc.index is None:
            raise
        raise type(exc)(f"at nt={cfg.nu * times[exc.index]:.6g}: {exc}") from exc
    return Curve(times=cfg.nu * times, measures=measures, config=cfg)


def _vertex_time(times, values, middle):
    # abscissa of the parabola through the three samples around ``middle``
    h1 = times[middle] - times[middle - 1]
    h2 = times[middle + 1] - times[middle]
    slope = (values[middle + 1] - values[middle - 1]) / (h1 + h2)
    curvature = (values[middle + 1] - 2.0 * values[middle] + values[middle - 1]) / (h1 * h2)
    if curvature <= 1e-300:
        return float(times[middle])
    shift = -slope / curvature
    return float(np.clip(times[middle] + shift, times[middle - 1], times[middle + 1]))


def find_deaths_and_revivals(times, values, threshold):
    """Death/revival structure of a sampled curve.

    A death is an excursion of the curve to (numerically) zero that the curve
    later undoes by rising back above the threshold; a monotone fade below
    the threshold with no return does not count.  Two detectors feed it:

    * samples drop below the threshold and recover (broad zeros), or
    * an above-threshold local minimum no larger than its bigger neighbour
      drop: the sampled minimum is then consistent with a zero lying between
      samples (kinks in the magnitude of an oscillating envelope cross any
      fixed threshold on windows far narrower than practical grids).

    The reported death time estimates the location of the underlying zero
    (parabola vertex through the samples around the minimum), not the
    threshold crossing.  Each stretch between consecutive deaths contributes
    its maximum as a ``(time, value)`` revival peak.
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(values)
    deaths = []
    resume_indices = []
    entry_indices = []

    i = 1
    alive = n > 0 and values[0] >= threshold
    while i < n:
        if not alive:
            if values[i] >= threshold:
                alive = True
            i += 1
            continue
        if values[i] < threshold:
            # dead zone: confirmed as a death only if the curve recovers
            j = i
            while j < n and values[j] < threshold:
                j += 1
            if j < n:
                low = i + int(np.argmin(values[i:j]))
                # i >= 1 and j < n, so the minimum has a sample on either side
                deaths.append(_vertex_time(times, values, low))
                entry_indices.append(i - 1)
                resume_indices.append(j)
            i = j + 1
            continue
        if i <= n - 2 and values[i - 1] > values[i] <= values[i + 1]:
            biggest_drop = max(values[i - 1] - values[i], values[i + 1] - values[i])
            if values[i] <= biggest_drop + threshold:
                deaths.append(_vertex_time(times, values, i))
                entry_indices.append(i - 1)
                resume_indices.append(i + 1)
                i += 2
                continue
        i += 1

    peaks = []
    for k, resume in enumerate(resume_indices):
        stop = entry_indices[k + 1] + 1 if k + 1 < len(entry_indices) else n
        if resume >= stop:
            continue
        peak_index = resume + int(np.argmax(values[resume:stop]))
        peaks.append((float(times[peak_index]), float(values[peak_index])))
    return CurveFeatures(death_times=deaths, revival_peaks=peaks)


def extract_features(curve, threshold=1e-3, quantity="negativity"):
    """Sudden-death and revival features of one curve column."""
    return find_deaths_and_revivals(curve.times, curve.column(quantity), threshold)


def emit_csv(curve):
    """Render a curve as CSV text.

    Floats use the shortest round-trip decimal representation, so parsing the
    text back yields bit-identical values and the byte stream is
    deterministic for fixed inputs.
    """
    cfg = curve.config
    labels = f",{cfg.method},{cfg.topology},{cfg.noise_kind}\n"
    # tolist() first: numpy 2 reprs its scalars as np.float64(...)
    columns = [curve.times.tolist()] + [curve.column(q).tolist() for q in QUANTITIES]
    header = ",".join(_CSV_COLUMNS) + "\n"
    return header + "".join(",".join(map(repr, row)) + labels for row in zip(*columns))


def parse_csv(text):
    """Parse :func:`emit_csv` output back into arrays and label columns.

    Raises ``ValueError`` on text that :func:`emit_csv` never writes: a
    missing or different header, or a row with a different number of cells.
    """
    lines = [line for line in text.splitlines() if line]
    header = tuple(lines[0].split(",")) if lines else ()
    if header != _CSV_COLUMNS:
        raise ValueError(f"csv header must be {','.join(_CSV_COLUMNS)!r}, "
                         f"got {lines[0] if lines else 'none'!r}")
    rows = [line.split(",") for line in lines[1:]]
    for k, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise ValueError(f"csv row {k} has {len(row)} cells, expected {len(header)}")
    numeric = {
        name: np.array([float(row[j]) for row in rows])
        for j, name in enumerate(header[:5])
    }
    labels = {name: [row[j] for row in rows] for j, name in enumerate(header[5:], start=5)}
    return numeric, labels


@dataclass(frozen=True)
class ComparisonRow:
    pair: tuple[str, str]
    quantity: str
    max_deviation: float
    mean_deviation: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    rows: list[ComparisonRow]
    passed: bool

    def render(self):
        lines = []
        for row in self.rows:
            status = "ok" if row.passed else "FAIL"
            lines.append(
                f"{row.pair[0]} vs {row.pair[1]:<12} {row.quantity:<12} "
                f"max {row.max_deviation:.3e}  mean {row.mean_deviation:.3e}  "
                f"tol {row.tolerance:.1e}  {status}"
            )
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def compare_methods(cfg, methods, tolerance=None):
    """Run the same scenario under several methods and compare the curves.

    The default tolerance is 5e-3 for any pair involving Monte Carlo and
    1e-9 otherwise.  A given tolerance must be finite and nonnegative.  Every
    method's config is validated before any curve runs.
    """
    unique = sorted(set(methods))
    if len(unique) < 2:
        raise ValueError(f"compare needs at least two distinct methods, got {list(methods)}")
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    configs = {m: replace(cfg, method=m) for m in unique}
    for config in configs.values():
        config.validate()
    curves = {m: run_scenario(config) for m, config in configs.items()}
    rows = []
    for first, second in combinations(unique, 2):
        tol = tolerance if tolerance is not None else (5e-3 if "mc" in (first, second) else 1e-9)
        for quantity in QUANTITIES:
            deviation = np.abs(curves[first].column(quantity) - curves[second].column(quantity))
            worst = float(deviation.max())
            rows.append(
                ComparisonRow(
                    pair=(first, second),
                    quantity=quantity,
                    max_deviation=worst,
                    mean_deviation=float(deviation.mean()),
                    tolerance=tol,
                    passed=worst <= tol,
                )
            )
    return ComparisonReport(rows=rows, passed=all(row.passed for row in rows))


PRESETS = {
    "fig1-static": dict(
        noise_kind="static",
        method="closed_form",
        nu=1.0,
        c0=1.0,
        delta_c=1.0,
        t_max=20.0,
        n_points=801,
        notes="qualitative preset: source parameters for this regime are not published",
    ),
    "fig2-markov": dict(
        noise_kind="rtn",
        method="closed_form",
        nu=1.0,
        gamma=5.0,
        t_max=20.0,
        n_points=801,
        notes="fast switching, nu/gamma = 0.2 (Markovian regime)",
    ),
    "fig2-nonmarkov": dict(
        noise_kind="rtn",
        method="closed_form",
        nu=1.0,
        gamma=0.2,
        t_max=20.0,
        n_points=801,
        notes="slow switching, nu/gamma = 5 (non-Markovian regime)",
    ),
}


def preset_config(name, topology, **overrides):
    """Scenario config for a named preset and topology, with overrides."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {sorted(PRESETS)}")
    params = {**PRESETS[name], **overrides}
    return ScenarioConfig(topology=topology, preset=name, **params)


def resolved_config_text(cfg):
    """Deterministic key=value rendering of a config, for provenance files."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if value is None or f.name in ("preset", "notes") and not value:
            continue
        lines.append(f"{f.name}={value!r}" if isinstance(value, str) else f"{f.name}={value}")
    return "\n".join(lines) + "\n"


# a quoted value as repr writes it, then an optional comment
_QUOTED = re.compile(r"""('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")\s*(?:#.*)?""")


def parse_config_file(text):
    """Parse a key=value config file (one pair per line, '#' comments).

    A quoted value is read as a Python string literal, '#' and backslashes included.
    """
    known = {f.name: f for f in fields(ScenarioConfig)}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in raw.split("=", 1))
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        out[key] = _coerce_field(known[key], value, lineno)
    return out


def _coerce_field(spec, value, lineno):
    quoted = _QUOTED.fullmatch(value)
    if not quoted:
        value = value.split("#")[0].strip()
    try:
        with warnings.catch_warnings():
            # an escape Python only warns about, like the \d of 'C:\data', is an error
            warnings.simplefilter("error")
            text = ast.literal_eval(quoted[1]) if quoted else value.strip("'\"")
        # annotations are strings here (postponed evaluation): "int", "float | None", ...
        if spec.type.startswith("int"):
            return int(text)
        if spec.type.startswith("float"):
            return float(text)
        return text
    except (SyntaxError, ValueError) as exc:
        raise ValueError(f"config line {lineno}: cannot parse {spec.name}={value!r}") from exc
