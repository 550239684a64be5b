"""Which ``bellnoise`` functions the traced run wraps, and the per-layer metrics.

Layers are named after the package's modules.  A function is wrapped at the
name its calling module imports it under, so a span's parent is the layer
that made the call.  ``PER_LAYER`` also records, for each metric, which
end-to-end metric it should move and on which workload.
"""

from __future__ import annotations


def _csv_bytes(counts, args, kwargs, text):
    counts["csv_bytes"] += len(text.encode())


def _mc_samples(counts, args, kwargs, result):
    counts["mc_samples"] += int(args[4])


def _flips(counts, args, kwargs, trajectory):
    counts["flips"] += len(trajectory.flip_times)


def _directions(counts, args, kwargs, result):
    counts["directions"] += args[1].size // 3


def _mc_span(args, kwargs):
    # With a pool, the parent only waits: the sampling spans stay in the workers.
    return "evolve.pool" if kwargs.get("workers", 1) > 1 else "evolve.mc"


def targets(cli, scenarios, evolve, correlations, linalg):
    """``(module, attr, span name, counter)`` for every wrapped function."""
    return [
        (cli, "run_scenario", "scenarios.run_scenario", None),
        (cli, "compare_methods", "scenarios.compare", None),
        (cli, "emit_csv", "scenarios.emit_csv", _csv_bytes),
        (scenarios, "run_scenario", "scenarios.run_scenario", None),
        (scenarios, "closed_form_static", "evolve.closed_form", None),
        (scenarios, "closed_form_rtn", "evolve.closed_form", None),
        (scenarios, "average_static_quadrature", "evolve.quadrature", None),
        (scenarios, "average_static_mc", _mc_span, _mc_samples),
        (scenarios, "average_rtn_mc", _mc_span, _mc_samples),
        (scenarios, "measure_correlations", "correlations.measure", None),
        (evolve, "realization_state", "evolve.realization", None),
        (evolve, "substream", "noise.substream", None),
        (evolve, "sample_static", "noise.static_draw", None),
        (evolve, "sample_telegraph_trajectory", "noise.trajectory", _flips),
        (evolve, "accumulate_phases", "noise.accumulate", None),
        (evolve, "decay_factor", "noise.decay_factor", None),
        (correlations, "classical_correlations", "correlations.classical", None),
        (correlations, "conditional_entropy", "correlations.cond_entropy", _directions),
        (correlations, "validate_state", "linalg.validate", None),
        (correlations, "eigvals_hermitian", "linalg.eig", None),
        (correlations, "vn_entropy", "linalg.entropy", None),
        (linalg, "eigvals_hermitian", "linalg.eig", None),
    ]


PP, MC, SC = "paper-presets", "mc-sampling", "static-crosscheck"

# name, unit, better, (span, statistic) or extra key, end-to-end metrics it moves, workload
PER_LAYER = [
    ("cli.self_s", "s", "lower", ("cli", "self"), "op_p50_s points_per_s",
     PP + " once correlations collapse onto z(t)"),
    ("scenarios.run_scenario_self_s", "s", "lower", ("scenarios.run_scenario", "self"),
     "op_p50_s", PP),
    ("scenarios.compare_self_s", "s", "lower", ("scenarios.compare", "self"), "op_p50_s", SC),
    ("scenarios.emit_csv_s", "s", "lower", ("scenarios.emit_csv", "busy"), "op_p50_s", PP),
    ("scenarios.csv_bytes", "bytes", "lower", "csv_bytes", "none: exact, must not change", PP),
    ("evolve.closed_form_s", "s", "lower", ("evolve.closed_form", "busy"), "op_p50_s", PP),
    ("evolve.closed_form_calls", "count", "lower", ("evolve.closed_form", "calls"), "op_p50_s", PP),
    ("evolve.quadrature_s", "s", "lower", ("evolve.quadrature", "busy"), "op_p50_s", SC),
    ("evolve.quadrature_self_s", "s", "lower", ("evolve.quadrature", "self"), "op_p50_s", SC),
    ("evolve.realizations", "count", "lower", ("evolve.realization", "calls"), "op_p50_s", SC),
    ("evolve.mc_s", "s", "lower", ("evolve.mc", "busy"), "op_p50_s points_per_s", MC),
    ("evolve.mc_self_s", "s", "lower", ("evolve.mc", "self"), "op_p50_s points_per_s", MC),
    ("evolve.pool_wait_s", "s", "lower", ("evolve.pool", "busy"), "op_p50_s peak_rss_mb", SC),
    ("evolve.pool_speedup", "x", "higher", "pool_speedup", "op_p50_s peak_rss_mb", SC),
    ("evolve.mc_samples", "count", "higher", "mc_samples", "none: fixed by the workload",
     MC + " " + SC),
    ("evolve.mc_samples_per_s", "1/s", "higher", "mc_samples_per_s",
     "op_p50_s points_per_s", MC),
    ("evolve.mc_neg_rmse", "1", "lower", "mc_neg_rmse", "none: MC accuracy, not speed",
     MC + " " + SC),
    ("noise.substream_calls", "count", "lower", ("noise.substream", "calls"), "op_p50_s", MC),
    ("noise.substream_s", "s", "lower", ("noise.substream", "busy"), "op_p50_s", MC),
    ("noise.static_draws", "count", "lower", ("noise.static_draw", "calls"), "op_p50_s", MC),
    ("noise.static_draw_s", "s", "lower", ("noise.static_draw", "busy"), "op_p50_s", MC),
    ("noise.trajectories", "count", "lower", ("noise.trajectory", "calls"), "op_p50_s", MC),
    ("noise.trajectory_s", "s", "lower", ("noise.trajectory", "busy"), "op_p50_s", MC),
    ("noise.flips", "count", "lower", "flips", "op_p50_s", MC),
    ("noise.accumulate_calls", "count", "lower", ("noise.accumulate", "calls"), "op_p50_s", MC),
    ("noise.accumulate_s", "s", "lower", ("noise.accumulate", "busy"), "op_p50_s", MC),
    ("noise.decay_factor_s", "s", "lower", ("noise.decay_factor", "busy"), "op_p50_s", PP),
    ("correlations.states", "count", "lower", ("correlations.measure", "calls"),
     "op_p50_s points_per_s", PP),
    ("correlations.measure_s", "s", "lower", ("correlations.measure", "busy"),
     "op_p50_s points_per_s", PP),
    ("correlations.classical_s", "s", "lower", ("correlations.classical", "busy"),
     "op_p50_s points_per_s", PP),
    ("correlations.cond_entropy_calls", "count", "lower", ("correlations.cond_entropy", "calls"),
     "op_p50_s points_per_s", PP),
    ("correlations.cond_entropy_s", "s", "lower", ("correlations.cond_entropy", "busy"),
     "op_p50_s points_per_s", PP),
    ("correlations.directions", "count", "lower", "directions", "op_p50_s points_per_s", PP),
    ("linalg.validate_calls", "count", "lower", ("linalg.validate", "calls"), "op_p50_s", PP),
    ("linalg.validate_s", "s", "lower", ("linalg.validate", "busy"), "op_p50_s", PP),
    ("linalg.eig_calls", "count", "lower", ("linalg.eig", "calls"), "op_p50_s", PP),
    ("linalg.eig_s", "s", "lower", ("linalg.eig", "busy"), "op_p50_s", PP),
    ("linalg.entropy_s", "s", "lower", ("linalg.entropy", "busy"), "op_p50_s", PP),
]

_STATISTIC = {"calls": 0, "busy": 1, "self": 2}


def layer_metrics(summary, extra):
    """Per-layer metric values from a tracer summary and the run's extra figures.

    A layer the workload never calls reads 0.
    """
    values = {}
    for name, unit, _better, source, _moves, _workload in PER_LAYER:
        if isinstance(source, tuple):
            span, statistic = source
            value = summary.get(span, (0, 0.0, 0.0))[_STATISTIC[statistic]]
        else:
            value = extra.get(source, 0)
        values[name] = {"value": value, "unit": unit}
    return values
