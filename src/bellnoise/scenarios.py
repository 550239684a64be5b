"""Scenario layer: configs, curves over time grids, features, CSV output.

A scenario fixes the noise kind, environment topology, evolution method and
its parameters; running it produces a :class:`Curve` of correlation reports
on a uniform grid of dimensionless times ``nu * t``.  Methods differ only in
how the averaged state is produced; the correlation measures are always the
numeric ones, so closed-form and sampled curves can be compared honestly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields, replace
from itertools import combinations

import numpy as np

from .correlations import (
    CorrelationReport,
    OptimizerSettings,
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
    closed_form_rtn,
    closed_form_static,
)
from .noise import StaticNoiseSpec, TelegraphSpec

NOISE_KINDS = ("static", "rtn")
METHODS = ("mc", "quadrature", "closed_form")
QUANTITIES = ("negativity", "discord", "mutual_info", "classical")


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
        if self.noise_kind == "static":
            if self.c0 is None:
                problems.append("static noise needs c0")
            if self.delta_c is None or not self.delta_c > 0:
                problems.append(f"static noise needs delta_c > 0, got {self.delta_c}")
        if self.method == "mc" and self.n_samples < 1:
            problems.append(f"mc needs n_samples >= 1, got {self.n_samples}")
        # checked whatever the method, so compare rejects it before any quadrature
        if self.quad_nodes is not None and not 2 <= self.quad_nodes <= MAX_NODES:
            problems.append(f"quad_nodes must be 2 to {MAX_NODES}, got {self.quad_nodes}")
        if problems:
            raise ValueError("invalid scenario config: " + "; ".join(problems))

    def hamiltonian(self):
        return HamiltonianSpec(nu=self.nu)

    def noise_spec(self):
        if self.noise_kind == "static":
            return StaticNoiseSpec(c0=self.c0, delta_c=self.delta_c)
        return TelegraphSpec(gamma=self.gamma)


@dataclass(frozen=True, eq=False)
class Curve:
    """Correlation measures on a time grid, with run provenance.

    ``times`` holds the dimensionless ``nu * t`` values.
    """

    times: np.ndarray
    reports: list[CorrelationReport]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.reports):
            raise ValueError("times and reports must have equal length")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly ascending")

    def column(self, quantity):
        if quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")
        return np.array([getattr(report, quantity) for report in self.reports])


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


def _provenance(cfg):
    info = {
        "noise": cfg.noise_kind,
        "topology": cfg.topology,
        "method": cfg.method,
        "nu": cfg.nu,
        "t_max": cfg.t_max,
        "n_points": cfg.n_points,
    }
    if cfg.noise_kind == "rtn":
        info["gamma"] = cfg.gamma
    else:
        info["c0"] = cfg.c0
        info["delta_c"] = cfg.delta_c
    if cfg.method == "mc":
        info["n_samples"] = cfg.n_samples
        info["seed"] = cfg.seed
    if cfg.method == "quadrature":
        info["quad_nodes"] = cfg.quad_nodes
    if cfg.preset:
        info["preset"] = cfg.preset
    if cfg.notes:
        info["notes"] = cfg.notes
    return info


def run_scenario(cfg, settings=None):
    """Run one scenario and return its :class:`Curve`.

    Deterministic for a fixed config (including seed); numerical failures are
    re-raised with the offending time point attached.
    """
    cfg.validate()
    times = np.linspace(0.0, cfg.t_max, cfg.n_points)
    states = _states_for(cfg, times)
    settings = settings or OptimizerSettings()
    reports = []
    for t, state in zip(times, states):
        try:
            reports.append(measure_correlations(state, settings))
        except SimulationError as exc:
            raise type(exc)(f"at nt={cfg.nu * t:.6g}: {exc}") from exc
    return Curve(times=cfg.nu * times, reports=reports, provenance=_provenance(cfg))


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
            entry = i - 1
            j = i
            while j < n and values[j] < threshold:
                j += 1
            if j < n:
                zone = slice(i, j)
                low = i + int(np.argmin(values[zone]))
                deaths.append(_vertex_time(times, values, low) if 0 < low < n - 1
                              else float(times[low]))
                entry_indices.append(entry)
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
        window = slice(resume, stop)
        if window.start >= stop:
            continue
        peak_index = resume + int(np.argmax(values[window]))
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
    method = curve.provenance.get("method", "")
    topology = curve.provenance.get("topology", "")
    noise = curve.provenance.get("noise", "")
    out = io.StringIO()
    out.write("nt,negativity,discord,mutual_info,classical,method,topology,noise\n")
    for nt, report in zip(curve.times, curve.reports):
        out.write(
            f"{float(nt)!r},{report.negativity!r},{report.discord!r},"
            f"{report.mutual_info!r},{report.classical!r},{method},{topology},{noise}\n"
        )
    return out.getvalue()


def parse_csv(text):
    """Parse :func:`emit_csv` output back into arrays and label columns."""
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
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


def compare_methods(cfg, methods, tolerance=None, settings=None):
    """Run the same scenario under several methods and compare the curves.

    The default tolerance is 5e-3 for any pair involving Monte Carlo and
    1e-9 otherwise.
    """
    unique = sorted(set(methods))
    if len(unique) < 2:
        raise ValueError(f"compare needs at least two distinct methods, got {list(methods)}")
    curves = {m: run_scenario(replace(cfg, method=m), settings=settings) for m in unique}
    rows = []
    for first, second in combinations(unique, 2):
        tol = tolerance if tolerance is not None else (5e-3 if "mc" in (first, second) else 1e-9)
        for quantity in QUANTITIES:
            deviation = np.abs(curves[first].column(quantity) - curves[second].column(quantity))
            rows.append(
                ComparisonRow(
                    pair=(first, second),
                    quantity=quantity,
                    max_deviation=float(deviation.max()),
                    mean_deviation=float(deviation.mean()),
                    tolerance=tol,
                    passed=bool(deviation.max() <= tol),
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
    params = dict(PRESETS[name])
    params.update(overrides)
    return ScenarioConfig(topology=topology, preset=name, **params)


_CONFIG_SKIP = ("preset", "notes")


def resolved_config_text(cfg):
    """Deterministic key=value rendering of a config, for provenance files."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if value is None or f.name in _CONFIG_SKIP and not value:
            continue
        lines.append(f"{f.name}={value!r}" if isinstance(value, str) else f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def parse_config_file(text):
    """Parse a key=value config file (one pair per line, '#' comments)."""
    known = {f.name: f for f in fields(ScenarioConfig)}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        out[key] = _coerce_field(known[key], value, lineno)
    return out


def _coerce_field(spec, value, lineno):
    text = value.strip().strip("'\"")
    kind = spec.type
    try:
        if kind in ("int", int) or kind == "int | None":
            return int(text)
        if kind in ("float", float) or kind == "float | None":
            return float(text)
        return text
    except ValueError as exc:
        raise ValueError(f"config line {lineno}: cannot parse {spec.name}={value!r}") from exc
