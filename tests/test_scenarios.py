import gc
import io
import math
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellnoise import cli
from bellnoise import correlations
from bellnoise.correlations import CorrelationReport, static_negativity, telegraph_negativity
from bellnoise.errors import InvalidStateError, NumericalError
from bellnoise.linalg import validate_state
from bellnoise.noise import StaticNoiseSpec, TelegraphSpec, decay_factor
from bellnoise.scenarios import (
    PRESETS,
    Curve,
    ScenarioConfig,
    _states_for,
    compare_methods,
    emit_csv,
    extract_features,
    find_deaths_and_revivals,
    parse_config_file,
    parse_csv,
    preset_config,
    resolved_config_text,
    run_scenario,
)

from conftest import child_env


def rtn_config(**overrides):
    base = dict(
        noise_kind="rtn",
        topology="common",
        method="closed_form",
        nu=1.0,
        gamma=0.2,
        t_max=4.0,
        n_points=21,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def static_config(**overrides):
    base = dict(
        noise_kind="static",
        topology="separate",
        method="closed_form",
        nu=1.0,
        c0=1.0,
        delta_c=1.0,
        t_max=5.0,
        n_points=21,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_accepts_valid_configs(self):
        rtn_config().validate()
        static_config(method="quadrature").validate()

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(topology="shared"), "topology"),
            (dict(method="exact"), "method"),
            (dict(gamma=None), "gamma"),
            (dict(method="quadrature"), "static"),
            (dict(n_points=1), "n_points"),
            (dict(t_max=0.0), "t_max"),
            (dict(workers=0), "workers"),
            (dict(threshold=0.0), "threshold"),
            (dict(nu=math.inf), "nu must be finite"),
            (dict(gamma=math.inf), "gamma must be finite"),
            (dict(c0=math.nan), "c0 must be finite"),
            (dict(delta_c=math.inf), "delta_c must be finite"),
            (dict(t_max=math.inf), "t_max must be finite"),
            (dict(threshold=math.nan), "threshold must be finite"),
            (dict(quad_nodes=1), "quad_nodes must be 2 to 1024"),
            (dict(quad_nodes=1025), "quad_nodes must be 2 to 1024"),
            (dict(method="mc", seed=-1), "mc needs seed >= 0"),
            (dict(nu=1e308), re.escape("rtn noise phase 4*nu*t_max must be finite")),
            (dict(t_max=5e307), re.escape("rtn noise phase 4*nu*t_max must be finite")),
            (dict(method="mc", gamma=1.65e4), re.escape("gamma*t_max=66000 outgrow")),
        ],
    )
    def test_rejects_bad_rtn_fields(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            rtn_config(**overrides).validate()

    def test_accepts_telegraph_trajectories_within_one_kernel_block(self):
        # 6.4e4 mean flips plus five sigma fill 65273 of the block's 65536 entries
        rtn_config(method="mc", gamma=1.6e4).validate()
        rtn_config(gamma=1e6).validate()

    def test_seed_is_ignored_without_sampling(self):
        rtn_config(seed=-1).validate()
        static_config(method="quadrature", seed=-1).validate()

    @pytest.mark.parametrize(
        "overrides",
        [dict(c0=0.0, delta_c=1e200, nu=1e200), dict(c0=1e308, delta_c=1e308),
         dict(c0=-1e300, t_max=1e10),
         # finite phases whose routes overflow on the way: -4j * c0 in the
         # closed form, t * c in the quadrature, rate * nu * t in the sampler
         dict(c0=4.49423283715579e307, nu=0.5, t_max=1.0),
         dict(c0=1.2e307, nu=0.125, t_max=15.0),
         dict(c0=0.25, delta_c=0.125, nu=15.0, t_max=6e306)],
    )
    def test_rejects_a_static_phase_past_the_float_range(self, overrides):
        message = re.escape("phase 4*nu*(|c0|+delta_c)*t_max must be finite")
        with pytest.raises(ValueError, match=message):
            static_config(**overrides).validate()

    def test_accepts_a_large_finite_static_phase(self):
        static_config(c0=1.0, delta_c=1e200).validate()
        static_config(nu=1e300).validate()

    def test_rejects_missing_static_fields(self):
        with pytest.raises(ValueError, match="delta_c"):
            static_config(delta_c=None).validate()
        with pytest.raises(ValueError, match="c0"):
            static_config(c0=None).validate()

    def test_mc_needs_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            rtn_config(method="mc", n_samples=0).validate()


class TestRunScenario:
    def test_closed_form_rtn_common_matches_decay_magnitude(self):
        cfg = rtn_config(t_max=6.0, n_points=61)
        curve = run_scenario(cfg)
        expected = np.abs(decay_factor(4.0, cfg.gamma, curve.times / cfg.nu))
        assert np.max(np.abs(curve.column("negativity") - expected)) <= 1e-12

    def test_grid_containing_zero_starts_maximal(self):
        curve = run_scenario(rtn_config())
        assert curve.times[0] == 0.0
        assert curve.column("negativity")[0] == pytest.approx(1.0, abs=1e-9)
        assert curve.column("discord")[0] == pytest.approx(1.0, abs=1e-9)

    def test_times_reported_in_dimensionless_units(self):
        cfg = rtn_config(nu=2.0, gamma=0.4, t_max=3.0, n_points=4)
        curve = run_scenario(cfg)
        assert np.allclose(curve.times, 2.0 * np.linspace(0.0, 3.0, 4))

    def test_provenance_records_method_and_seed(self):
        cfg = rtn_config(method="mc", n_samples=512, seed=77, t_max=1.0, n_points=3)
        curve = run_scenario(cfg)
        assert curve.config.method == "mc"
        assert curve.config.seed == 77

    def test_deterministic_for_fixed_config(self):
        cfg = rtn_config(method="mc", n_samples=1024, seed=5, t_max=2.0, n_points=5)
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert emit_csv(first) == emit_csv(second)

    @pytest.mark.parametrize("topology", ["separate", "common"])
    @pytest.mark.parametrize(
        "config",
        [
            rtn_config(),
            rtn_config(gamma=5.0),
            rtn_config(method="mc", n_samples=512),
            static_config(),
            static_config(method="quadrature"),
            static_config(method="mc", n_samples=512),
        ],
        ids=["rtn-closed_form", "rtn-fast-closed_form", "rtn-mc",
             "static-closed_form", "static-quadrature", "static-mc"],
    )
    def test_classical_correlations_frozen_along_every_curve(self, config, topology):
        # every averaged state is a dephased Bell state: C = 1 and I = 1 + Q
        curve = run_scenario(replace(config, topology=topology, n_points=9))
        classical = curve.column("classical")
        excess = curve.column("mutual_info") - 1.0 - curve.column("discord")
        assert np.max(np.abs(classical - 1.0)) <= 1e-12
        assert np.max(np.abs(excess)) <= 1e-12

    def test_numerical_failure_carries_time_context(self, monkeypatch):
        # one search step cannot reach the step floor, so every point fails
        # and the message names the first
        monkeypatch.setattr(correlations, "_MAX_ITERATIONS", 1)
        with pytest.raises(NumericalError, match=r"^at nt=0: measurement optimisation"):
            run_scenario(rtn_config(n_points=3))

    def test_failure_context_names_the_first_failing_point(self, monkeypatch):
        import bellnoise.scenarios as scenarios

        cfg = rtn_config(t_max=4.0, n_points=5)
        real_states = scenarios._states_for

        def one_bad_state(cfg, times):
            states = real_states(cfg, times)
            states[3] *= 2.0
            return states

        monkeypatch.setattr(scenarios, "_states_for", one_bad_state)
        with pytest.raises(InvalidStateError, match=r"^at nt=3: invalid density matrix"):
            run_scenario(cfg)


class TestCurve:
    @staticmethod
    def _measures(length):
        column = np.zeros(length)
        return CorrelationReport(column, column, column, column[:3])

    def test_rejects_a_column_whose_length_differs_from_times(self):
        with pytest.raises(ValueError, match="equal length"):
            Curve(np.arange(4.0), self._measures(4), rtn_config())
        Curve(np.arange(3.0), self._measures(3), rtn_config())

    @pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    def test_rejects_times_that_do_not_strictly_ascend(self, times):
        with pytest.raises(ValueError, match="strictly ascending"):
            Curve(np.array(times), self._measures(3), rtn_config())


ROUTES = [
    ("rtn", "closed_form"),
    ("rtn", "mc"),
    ("static", "closed_form"),
    ("static", "quadrature"),
    ("static", "mc"),
]


class TestRouteProperties:
    """Whatever the noise, topology and method: valid states and bounded measures."""

    @settings(max_examples=30)
    @given(
        route=st.sampled_from(ROUTES),
        topology=st.sampled_from(("separate", "common")),
        nu=st.floats(0.1, 3.0),
        gamma=st.floats(0.05, 20.0),
        c0=st.floats(-2.0, 2.0),
        delta_c=st.floats(0.05, 2.0),
        t_max=st.floats(0.1, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_states_valid_and_measures_bounded(
        self, route, topology, nu, gamma, c0, delta_c, t_max, seed
    ):
        noise_kind, method = route
        cfg = ScenarioConfig(
            noise_kind=noise_kind, topology=topology, method=method, nu=nu, gamma=gamma,
            c0=c0, delta_c=delta_c, t_max=t_max, n_points=4, n_samples=256, seed=seed,
        )
        states = _states_for(cfg, np.linspace(0.0, t_max, cfg.n_points))
        validate_state(states)
        report = correlations.measure_correlations(states)
        n, q = report.negativity, report.discord
        assert np.all((n >= 0.0) & (n <= 1.0))
        # raw discord rounds to either side of 0 where the true discord is 0
        assert np.all((q >= -1e-12) & (q <= 1.0 + 1e-12))
        assert np.max(np.abs(report.mutual_info - 1.0 - q)) <= 1e-12


class TestCsv:
    def test_header_and_row_count(self):
        curve = run_scenario(rtn_config(n_points=3))
        text = emit_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "nt,negativity,discord,mutual_info,classical,method,topology,noise"
        assert len(lines) == 4

    def test_round_trip_exact(self):
        curve = run_scenario(rtn_config(n_points=7))
        numeric, labels = parse_csv(emit_csv(curve))
        assert np.array_equal(numeric["nt"], curve.times)
        assert np.array_equal(numeric["negativity"], curve.column("negativity"))
        assert np.array_equal(numeric["discord"], curve.column("discord"))
        assert labels["method"] == ["closed_form"] * 7
        assert labels["noise"] == ["rtn"] * 7

    def test_byte_deterministic(self):
        cfg = rtn_config(n_points=5)
        assert emit_csv(run_scenario(cfg)).encode() == emit_csv(run_scenario(cfg)).encode()

    @pytest.mark.parametrize("text", ["", "\n", "nt,negativity\n0.0,1.0\n",
                                      "negativity,nt,discord,mutual_info,classical,method,topology,noise\n"])
    def test_parse_refuses_a_missing_or_foreign_header(self, text):
        with pytest.raises(ValueError, match="csv header must be"):
            parse_csv(text)

    @pytest.mark.parametrize("cells", [3, 7, 9])
    def test_parse_refuses_a_row_with_a_different_cell_count(self, cells):
        header, first, second = emit_csv(run_scenario(rtn_config(n_points=2))).splitlines()
        row = (second.split(",") + ["extra"])[:cells]
        with pytest.raises(ValueError, match=f"csv row 2 has {cells} cells, expected 8"):
            parse_csv("\n".join([header, first, ",".join(row)]))


class TestFeatures:
    def test_constant_curve_has_no_features(self):
        out = find_deaths_and_revivals(np.linspace(0, 9, 10), np.ones(10), 1e-3)
        assert out.death_times == []
        assert out.revival_peaks == []

    def test_dip_and_terminal_decay(self):
        times = np.arange(11.0)
        values = np.array([1.0, 0.6, 0.0005, 0.0005, 0.3, 0.5, 0.4, 0.2, 0.0005, 0.0004, 0.0003])
        out = find_deaths_and_revivals(times, values, 1e-3)
        # one confirmed dip; the terminal fade below threshold is not a death
        assert len(out.death_times) == 1
        assert out.death_times[0] == pytest.approx(2.5, abs=1e-12)
        assert out.revival_peaks == [(5.0, 0.5)]

    def test_narrow_kink_zero_detected_between_samples(self):
        # |sin|-like kink whose sub-threshold window is far narrower than the
        # grid: no sample drops below the threshold, yet the zero is a death
        times = np.linspace(0.0, 2.0, 21)
        values = np.abs(np.sin(np.pi * (times - 0.95)))
        out = find_deaths_and_revivals(times, values, 1e-3)
        assert np.min(values) > 1e-3
        assert len(out.death_times) == 2
        assert out.death_times[0] == pytest.approx(0.95, abs=0.1)
        assert out.death_times[1] == pytest.approx(1.95, abs=0.1)

    def test_refuses_samples_it_cannot_read(self):
        # each once read as a death and a revival, or hid the death
        values = [1.0, 0.0, 1.0, 1.0]
        times = ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0],
                 [0.0, math.nan, 2.0, 3.0])
        for bad in times:
            with pytest.raises(ValueError, match="need one strictly ascending time per value"):
                find_deaths_and_revivals(bad, values, 1e-3)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="values must be finite"):
                find_deaths_and_revivals(np.arange(4.0), [1.0, bad, 1.0, 1.0], 1e-3)

    def test_static_separate_deaths_sit_at_envelope_zeros(self):
        cfg = static_config(t_max=20.0, n_points=801)
        curve = run_scenario(cfg)
        found = extract_features(curve, threshold=1e-3)
        assert len(found.death_times) == 6
        step = 20.0 / 800
        for k, death in enumerate(found.death_times, start=1):
            assert death == pytest.approx(k * math.pi, abs=2 * step)

    def test_markov_preset_has_no_deaths(self):
        for topology in ("separate", "common"):
            cfg = preset_config("fig2-markov", topology, n_points=201)
            curve = run_scenario(cfg)
            found = extract_features(curve, threshold=1e-3)
            assert found.death_times == []
            assert found.revival_peaks == []

    def test_nonmarkov_common_death_and_revival(self):
        cfg = preset_config("fig2-nonmarkov", "common", n_points=201)
        curve = run_scenario(cfg)
        found = extract_features(curve, threshold=1e-3)
        gamma = cfg.gamma
        delta = math.sqrt(16.0 - gamma * gamma)
        t_star = (math.pi - math.atan(delta / gamma)) / delta
        step = cfg.t_max / (cfg.n_points - 1)
        assert found.death_times, "expected at least one death"
        assert abs(found.death_times[0] - t_star) <= step
        assert found.revival_peaks[0][1] > 1e-2

    def test_negativity_and_discord_deaths_align(self):
        # discord dies where negativity does; its oscillation falls below the
        # threshold for good a little earlier, so compare the common prefix
        cfg = preset_config("fig2-nonmarkov", "common", n_points=401)
        curve = run_scenario(cfg)
        deaths_n = extract_features(curve, threshold=1e-3, quantity="negativity").death_times
        deaths_q = extract_features(curve, threshold=1e-3, quantity="discord").death_times
        assert len(deaths_q) >= 5
        assert len(deaths_n) >= len(deaths_q)
        for dn, dq in zip(deaths_n, deaths_q):
            assert abs(dn - dq) <= 0.2

    def test_unknown_quantity_rejected(self):
        curve = run_scenario(rtn_config(n_points=3))
        with pytest.raises(ValueError, match="quantity"):
            extract_features(curve, quantity="entanglement")


def closed_form_negativity(cfg, t):
    if cfg.noise_kind == "static":
        noise = StaticNoiseSpec(c0=cfg.c0, delta_c=cfg.delta_c)
        return static_negativity(noise, cfg.nu, t, cfg.topology)
    return telegraph_negativity(TelegraphSpec(gamma=cfg.gamma), cfg.nu, t, cfg.topology)


def analytic_zeros(cfg):
    """Times in ``(0, t_max]`` where the closed-form negativity vanishes."""
    if cfg.noise_kind == "static":
        # sinc(delta_c nu t)^2 or |sinc(2 delta_c nu t)|
        rate = cfg.delta_c * cfg.nu * (1.0 if cfg.topology == "separate" else 2.0)
        offset = 0.0
    else:
        # decay_factor(c, gamma, t) with c = 2 nu or 4 nu: a damped
        # oscillation that vanishes where tan(delta t) = -delta / gamma
        c = (2.0 if cfg.topology == "separate" else 4.0) * cfg.nu
        if c <= cfg.gamma:
            return np.array([])
        rate = math.sqrt(c * c - cfg.gamma * cfg.gamma)
        offset = math.atan(rate / cfg.gamma)
    k = np.arange(1, math.floor((rate * cfg.t_max + offset) / math.pi) + 1)
    return (k * math.pi - offset) / rate


class TestDeathTimeOracle:
    """Deaths of the closed-form negativity against the analytic zeros."""

    @pytest.mark.parametrize("points", [201, 801])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_deaths_sit_at_the_zeros_that_revive(self, name, points):
        for topology in ("separate", "common"):
            cfg = preset_config(name, topology, n_points=points)
            times = np.linspace(0.0, cfg.t_max, points)
            step = times[1] - times[0]
            found = find_deaths_and_revivals(
                cfg.nu * times, closed_form_negativity(cfg, times), cfg.threshold
            ).death_times
            zeros = analytic_zeros(cfg)
            if name == "fig2-markov":
                assert zeros.size == 0 and found == [], topology
            for death in found:
                assert np.min(np.abs(zeros - death)) <= 0.25 * step, (topology, death)
            # a zero is a death once the curve rises above the threshold
            # again before the next zero or the end of the curve
            ends = np.append(zeros[1:], cfg.t_max)
            revived = [zero for zero, end in zip(zeros, ends)
                       if np.max(closed_form_negativity(cfg, np.linspace(zero, end, 2001)))
                       > cfg.threshold]
            for zero in revived:
                assert np.min(np.abs(np.asarray(found) - zero)) <= 0.25 * step, (topology, zero)
            if (name, topology) == ("fig2-nonmarkov", "separate"):
                # the last three revivals peak below the threshold
                assert (len(zeros), len(revived)) == (13, 10)


class TestCompareMethods:
    def test_quadrature_agrees_with_closed_form(self):
        cfg = static_config(method="quadrature", t_max=5.0, n_points=11)
        report = compare_methods(cfg, ["quadrature", "closed_form"])
        assert report.passed
        assert all(row.tolerance == 1e-9 for row in report.rows)

    def test_mc_deviation_shrinks_with_samples(self):
        cfg = rtn_config(method="mc", t_max=6.0, n_points=13, seed=21)
        small = compare_methods(replace(cfg, n_samples=1000), ["mc", "closed_form"])
        large = compare_methods(replace(cfg, n_samples=16000), ["mc", "closed_form"])
        dev_small = max(row.max_deviation for row in small.rows)
        dev_large = max(row.max_deviation for row in large.rows)
        assert dev_small > dev_large
        # 16x the samples should shrink the error roughly 4x, within a factor 3
        assert dev_small <= 12.0 * dev_large

    def test_single_method_rejected(self):
        with pytest.raises(ValueError, match="two distinct"):
            compare_methods(rtn_config(), ["closed_form"])

    def test_tolerance_override_fails_comparison(self):
        cfg = rtn_config(method="mc", n_samples=500, t_max=2.0, n_points=5)
        report = compare_methods(cfg, ["mc", "closed_form"], tolerance=1e-15)
        assert not report.passed

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_rejected_before_any_curve_runs(self, tolerance, monkeypatch):
        def never(cfg):
            raise AssertionError("a curve ran")

        monkeypatch.setattr("bellnoise.scenarios.run_scenario", never)
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            compare_methods(static_config(), ["quadrature", "closed_form"], tolerance=tolerance)

    def test_bad_method_config_rejected_before_any_curve_runs(self, monkeypatch):
        # mc sorts first and is valid for telegraph noise; quadrature is not
        def never(cfg):
            raise AssertionError("a curve ran")

        monkeypatch.setattr("bellnoise.scenarios.run_scenario", never)
        with pytest.raises(ValueError, match="quadrature is only defined for static noise"):
            compare_methods(rtn_config(method="mc", n_samples=512), ["mc", "quadrature"])


class TestPresetsAndConfigFiles:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            preset_config("fig3", "common")

    def test_fig1_preset_flagged_qualitative(self):
        cfg = preset_config("fig1-static", "separate")
        assert "qualitative" in cfg.notes
        curve = run_scenario(replace(cfg, n_points=3))
        assert "qualitative" in curve.config.notes

    def test_config_text_round_trips(self):
        for path in ("x.csv", "runs/a#3.csv", "C:\\data\\x.csv", "tab\there.csv"):
            cfg = rtn_config(method="mc", n_samples=2048, seed=9, output_path=path)
            parsed = parse_config_file(resolved_config_text(cfg))
            rebuilt = ScenarioConfig(**parsed)
            assert rebuilt == cfg, path

    def test_config_file_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file("volume=11\n")

    def test_config_file_rejects_bad_value(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_config_file("nu=fast\n")

    def test_config_file_comments_and_blanks(self):
        parsed = parse_config_file("# comment\n\nnu=2.0  # inline\ngamma=0.5\n")
        assert parsed == {"nu": 2.0, "gamma": 0.5}

    @pytest.mark.parametrize(
        "value", [r"'C:\data'", r"'C:\new\out.csv'", r'"C:\temp\x.csv"']
    )
    def test_config_file_rejects_a_single_backslash_path(self, value):
        # \d, \o and \x. are invalid escapes: an error, not a misread path
        with pytest.raises(ValueError, match="config line 1: cannot parse output_path"):
            parse_config_file(f"output_path={value}\n")

    def test_config_file_reads_escapes_as_repr_writes_them(self):
        text = r"""output_path='C:\\new\\it\'s\tx.csv'""" + "\nnotes=\"a\\\\b\"\n"
        parsed = parse_config_file(text)
        assert parsed == {"output_path": "C:\\new\\it's\tx.csv", "notes": "a\\b"}

    def test_config_file_comment_after_a_quoted_value(self):
        parsed = parse_config_file("notes='a # b'  # c\noutput_path=\"d#e\" \nmethod=mc # f\n")
        assert parsed == {"notes": "a # b", "output_path": "d#e", "method": "mc"}


def run_cli(*args):
    # in-process, with every warning an error: numpy's overflow and invalid
    # warnings fail the call that raised them
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        returncode = cli.main(list(args))
    result = subprocess.CompletedProcess(args, returncode, out.getvalue(), err.getvalue())
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr, result.stderr
    return result


class TestCli:
    def test_module_entry_point_propagates_the_exit_code(self):
        # a fresh interpreter through ``python -m bellnoise``: the one process
        # these tests start, for the entry point and its exit status
        args = ("compare", "--noise", "static", "--c0", "1", "--delta-c", "1", "--points", "3",
                "--method", "quadrature,closed_form", "--tolerance", "1e-18")
        result = subprocess.run([sys.executable, "-m", "bellnoise", *args],
                                capture_output=True, text=True, env=child_env())
        assert result.returncode == 2, result.stderr
        assert "result: FAIL" in result.stdout
        assert result.stderr == ""

    def test_simulate_writes_csv_and_config(self, tmp_path):
        out = tmp_path / "curve.csv"
        result = run_cli(
            "simulate",
            "--noise", "rtn", "--topology", "common", "--method", "closed_form",
            "--gamma", "0.2", "--t-max", "2.0", "--points", "5",
            "--out", str(out),
        )
        assert result.returncode == 0
        assert out.exists()
        sidecar = Path(str(out) + ".config")
        assert sidecar.exists()
        assert "gamma=0.2" in sidecar.read_text()
        numeric, labels = parse_csv(out.read_text())
        assert labels["topology"] == ["common"] * 5

    def test_simulate_stdout_without_out(self):
        result = run_cli(
            "simulate",
            "--noise", "rtn", "--topology", "separate", "--method", "closed_form",
            "--gamma", "5.0", "--t-max", "1.0", "--points", "3",
        )
        assert result.returncode == 0
        assert result.stdout.startswith("nt,negativity,discord")

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "noise_kind=rtn\ntopology=common\nmethod=closed_form\ngamma=0.2\n"
            "t_max=2.0\nn_points=3\n"
        )
        out = tmp_path / "c.csv"
        result = run_cli(
            "simulate", "--config", str(config), "--topology", "separate", "--out", str(out)
        )
        assert result.returncode == 0
        _, labels = parse_csv(out.read_text())
        assert labels["topology"] == ["separate"] * 3

    def test_usage_error_exit_code(self):
        result = run_cli(
            "simulate", "--noise", "rtn", "--topology", "common",
            "--method", "closed_form",  # gamma missing
        )
        assert result.returncode == 1
        assert "gamma" in result.stderr

    def test_bad_flag_value_exit_code(self):
        result = run_cli("simulate", "--noise", "pink")
        assert result.returncode == 1

    def test_compare_requires_two_methods(self):
        result = run_cli(
            "compare",
            "--noise", "rtn", "--topology", "common", "--method", "closed_form",
            "--gamma", "0.2",
        )
        assert result.returncode == 1

    def test_compare_pass_and_tolerance_failure(self, tmp_path):
        args = (
            "compare",
            "--noise", "static", "--topology", "separate",
            "--method", "quadrature,closed_form",
            "--c0", "1.0", "--delta-c", "1.0", "--t-max", "3.0", "--points", "5",
        )
        good = run_cli(*args)
        assert good.returncode == 0
        assert "result: PASS" in good.stdout
        bad = run_cli(*args, "--tolerance", "1e-18")
        assert bad.returncode == 2
        assert "result: FAIL" in bad.stdout

    def test_features_reports_deaths(self):
        result = run_cli(
            "features",
            "--noise", "static", "--topology", "separate", "--method", "closed_form",
            "--c0", "1.0", "--delta-c", "1.0", "--t-max", "8.0", "--points", "401",
        )
        assert result.returncode == 0
        assert "death 1" in result.stdout
        assert "revival 1" in result.stdout

    def test_unresolved_quadrature_exits_with_numerical_code(self):
        # 2 delta_c nu t = 200 rad needs 143 nodes at 1.4 rad per node; an
        # explicit 64 must refuse rather than print an unresolved curve
        args = (
            "simulate",
            "--noise", "static", "--topology", "common", "--method", "quadrature",
            "--c0", "1.0", "--delta-c", "1.0", "--t-max", "100",
        )
        result = run_cli(*args, "--nodes", "64")
        assert result.returncode == 3
        assert "numerical failure" in result.stderr
        assert "needs nodes >= 143" in result.stderr
        assert result.stdout == ""
        # without --nodes the count is chosen to resolve the whole grid
        auto = run_cli(*args)
        assert auto.returncode == 0
        numeric, _ = parse_csv(auto.stdout)
        assert numeric["nt"][-1] == 100.0
        assert abs(numeric["negativity"][-1] - abs(math.sin(200.0) / 200.0)) <= 1e-9

    def test_node_count_above_the_cap_exits_before_any_quadrature(self, monkeypatch, capsys):
        # leggauss builds a dense n x n matrix: 100000 nodes would ask for 80 GB
        def refuse(n):
            raise AssertionError(f"leggauss called with {n} nodes")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        static = ["--noise", "static", "--c0", "1", "--delta-c", "1", "--points", "3"]
        for command in (
            ["simulate", "--method", "quadrature"],
            ["compare", "--method", "quadrature,closed_form"],
        ):
            assert cli.main(command + static + ["--nodes", "100000"]) == 1
            assert "quad_nodes must be 2 to 1024, got 100000" in capsys.readouterr().err

    def test_non_finite_parameters_exit_with_usage_code(self):
        rtn = ("--noise", "rtn", "--t-max", "1.0")
        static = ("--noise", "static", "--delta-c", "1.0")
        for case in (
            rtn + ("--gamma", "inf"),
            static + ("--c0", "nan", "--t-max", "1.0"),
            static + ("--c0", "1.0", "--t-max", "inf"),
        ):
            result = run_cli(
                "simulate", "--topology", "common", "--method", "closed_form",
                "--points", "3", *case,
            )
            assert result.returncode == 1, (case, result.stderr)
            assert "must be finite" in result.stderr

    def test_negative_floats_in_any_form_are_flag_values(self):
        # argparse alone reads "-1e-3" or "-inf" as an unknown flag
        base = ("simulate", "--noise", "static", "--delta-c", "1", "--points", "3")
        exponent = run_cli(*base, "--c0", "-1e-3")
        assert exponent.returncode == 0, exponent.stderr
        assert exponent.stdout == run_cli(*base, "--c0", "-0.001").stdout
        for flag, value, message in (("--nu", "-1e-300", "nu must be positive"),
                                     ("--t-max", "-inf", "t_max must be finite")):
            result = run_cli(*base, "--c0", "1", flag, value)
            assert result.returncode == 1, result.stderr
            assert message in result.stderr

    def test_huge_rates_exit_cleanly(self):
        # squaring a rate beyond ~1e154 overflows: neither the telegraph decay
        # factor nor the static sinc may square one.  Past ~9e307 a sum of two
        # rates overflows, and so does a rate times t_max.
        for case in (
            ("--noise", "rtn", "--gamma", "1", "--nu", "1e200"),
            ("--noise", "rtn", "--gamma", "1e200"),
            ("--noise", "rtn", "--gamma", "1e308"),
            ("--noise", "rtn", "--gamma", "9e307", "--topology", "common"),
            ("--noise", "rtn", "--gamma", "8e307", "--topology", "separate"),
            ("--noise", "rtn", "--gamma", "1.5e308", "--nu", "2.5e307", "--t-max", "1",
             "--topology", "common"),
            # a t_max past ~9e307 must not be doubled with the halved rates
            ("--noise", "rtn", "--gamma", "1e308", "--nu", "1e-300", "--t-max", "1e308"),
            # at the branch point gamma * t_max overflows while 4 * nu * t_max does not
            ("--noise", "rtn", "--gamma", "1.00000000005e308", "--nu", "2.5e307",
             "--t-max", "1.7976931348", "--topology", "common"),
            ("--noise", "static", "--c0", "1", "--delta-c", "1", "--nu", "1e300"),
        ):
            result = run_cli("simulate", "--method", "closed_form", "--points", "5", *case)
            assert result.returncode == 0, (case, result.stderr)
            numeric, _ = parse_csv(result.stdout)
            assert numeric["negativity"][0] == 1.0
            assert np.all(np.isfinite(numeric["negativity"]))
        # a telegraph trajectory wider than one kernel block is refused before
        # any sampling: gamma*t_max above about 6.4e4, exact in closed form
        message = "outgrow one kernel block; use --method closed_form"
        for case in (
            ("simulate", "--method", "mc", "--gamma", "3.3e3"),
            ("simulate", "--method", "mc", "--gamma", "1e30"),
            ("simulate", "--method", "mc", "--gamma", "7e4"),
            ("simulate", "--method", "mc", "--gamma", "1e6"),
            ("compare", "--method", "mc,closed_form", "--gamma", "1e6", "--topology", "common"),
        ):
            result = run_cli(*case, "--noise", "rtn", "--samples", "16", "--points", "3")
            assert result.returncode == 1, (case, result.stderr)
            assert message in result.stderr and "gamma*t_max=" in result.stderr
            assert result.stderr.count("\n") == 1 and result.stdout == ""

    def test_overflowing_static_phase_is_a_usage_error(self):
        # past the float range every route's sines and cosines would turn the
        # phase into nan; validation refuses it before any route runs, and the
        # telegraph phase 4*nu*t_max likewise
        static = "static noise phase 4*nu*(|c0|+delta_c)*t_max must be finite"
        rtn = "rtn noise phase 4*nu*t_max must be finite"
        for method in ("closed_form", "quadrature", "mc"):
            for case, message in (
                (("--noise", "static", "--c0", "0", "--delta-c", "1e200", "--nu", "1e200"),
                 static),
                (("--noise", "static", "--c0", "1e308", "--delta-c", "1e308"), static),
                (("--noise", "rtn", "--gamma", "1", "--nu", "1e308", "--topology", "common"), rtn),
                (("--noise", "rtn", "--gamma", "1", "--nu", "5e307"), rtn),
            ):
                result = run_cli(
                    "simulate", "--method", method, "--points", "5", "--samples", "16", *case,
                )
                assert result.returncode == 1, (method, case, result.stderr)
                assert result.stderr.startswith("usage error:")
                assert message in result.stderr
                assert result.stdout == ""
        # a telegraph trajectory whose mean flip count overflows cannot be sampled
        result = run_cli("simulate", "--noise", "rtn", "--method", "mc", "--gamma", "1e308",
                         "--points", "5", "--samples", "16")
        assert result.returncode == 1
        assert result.stderr.startswith("usage error: gamma * horizon must be finite")

    def test_unresolvable_quadrature_prints_a_short_node_count(self):
        result = run_cli(
            "simulate",
            "--noise", "static", "--method", "quadrature",
            "--c0", "1", "--delta-c", "1e200", "--points", "3",
        )
        assert result.returncode == 3
        assert "needs nodes >= 1.42857e+201" in result.stderr
        assert len(result.stderr) < 300

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_a_usage_error(self, tolerance, capsys):
        args = ["compare", "--noise", "static", "--c0", "1", "--delta-c", "1",
                "--method", "quadrature,closed_form", "--points", "3", "--tolerance", tolerance]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: tolerance must be finite and nonnegative")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_out_of_memory_exits_with_usage_code(self, monkeypatch, capsys):
        def too_big(cfg):
            raise MemoryError("Unable to allocate 23.8 GiB for an array with shape "
                              "(100000000, 4, 4) and data type complex128")

        monkeypatch.setattr(cli, "run_scenario", too_big)
        args = ["simulate", "--noise", "rtn", "--gamma", "1", "--points", "100000000"]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: out of memory: Unable to allocate 23.8 GiB")
        assert err.count("\n") == 1

    def test_negative_seed_names_the_flag_for_sampling_runs_only(self, capsys):
        args = ["simulate", "--noise", "rtn", "--gamma", "1", "--points", "3", "--seed", "-1"]
        assert cli.main(args + ["--method", "mc", "--samples", "16"]) == 1
        assert "mc needs seed >= 0, got -1" in capsys.readouterr().err
        assert cli.main(args + ["--method", "closed_form"]) == 0

    def test_unwritable_output_path_exits_with_usage_code(self, tmp_path):
        result = run_cli(
            "simulate",
            "--noise", "rtn", "--topology", "common", "--method", "closed_form",
            "--gamma", "0.2", "--t-max", "1.0", "--points", "3",
            "--out", str(tmp_path / "missing-dir" / "curve.csv"),
        )
        assert result.returncode == 1
        assert "i/o error" in result.stderr

    def test_preset_reads_config_file_under_its_flags(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("n_points=5\nt_max=2.0\n")
        args = ("preset", "fig2-markov", "--topology", "common", "--config", str(config),
                "--out", str(tmp_path))
        path = tmp_path / "fig2-markov-common.csv"
        assert run_cli(*args).returncode == 0
        numeric, labels = parse_csv(path.read_text())
        assert numeric["nt"][-1] == 2.0
        assert labels["topology"] == ["common"] * 5
        assert "gamma=5.0" in Path(str(path) + ".config").read_text()
        assert run_cli(*args, "--points", "7").returncode == 0
        assert len(parse_csv(path.read_text())[0]["nt"]) == 7

    def test_preset_writes_both_topologies(self, tmp_path):
        result = run_cli(
            "preset", "fig2-nonmarkov", "--points", "51", "--out", str(tmp_path)
        )
        assert result.returncode == 0
        for topology in ("separate", "common"):
            path = tmp_path / f"fig2-nonmarkov-{topology}.csv"
            assert path.exists()
            assert Path(str(path) + ".config").exists()


STATIC_FLAGS = ("--noise", "static", "--c0", "1", "--delta-c", "1", "--points", "5")
RTN_FLAGS = ("--noise", "rtn", "--gamma", "0.2", "--points", "5")
COMPARE = ("compare", *STATIC_FLAGS, "--method", "quadrature,closed_form")
# every subcommand with its outcomes, in an order that puts errors between runs
SHARED_PARSER_CASES = [
    (("preset", "fig2-nonmarkov", "--points", "5", "--out", "presets"), 0),
    (("simulate", *RTN_FLAGS, "--method", "closed_form", "--out", "rtn.csv"), 0),
    (("simulate", "--noise", "pink"), 1),
    (("simulate", *STATIC_FLAGS, "--method", "quadrature"), 0),
    (("simulate", *STATIC_FLAGS, "--method", "mc", "--samples", "64", "--out", "mc.csv"), 0),
    (("simulate", "--bogus", "1"), 1),
    (("simulate", *RTN_FLAGS, "--method", "mc", "--samples", "32", "--seed", "5"), 0),
    (COMPARE, 0),
    ((*COMPARE, "--tolerance", "1e-18"), 2),
    (("compare", *STATIC_FLAGS), 1),
    (("features", *STATIC_FLAGS[:-1], "41", "--method", "closed_form", "--t-max", "8"), 0),
    (("simulate", "--noise", "rtn", "--method", "closed_form"), 1),
    (("preset", "no-such-preset"), 1),
    ((), 1),
    (("simulate", "--noise", "static", "--topology", "common", "--method", "quadrature",
      "--c0", "1", "--delta-c", "1", "--t-max", "100", "--nodes", "64"), 3),
    (("simulate", *RTN_FLAGS, "--method", "closed_form", "--points", "3"), 0),
    *((command + ("--help",), "help") for command in
      [(), ("simulate",), ("compare",), ("features",), ("preset",)]),
]


def run_cases(cases):
    """Exit code (or ``"help"`` for argparse's exit 0), stdout and stderr of each call,
    then the bytes of every file the calls wrote under the working directory."""
    outcomes = []
    for argv, _ in cases:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = "help" if exc.code == 0 else exc.code
        outcomes.append((argv, code, out.getvalue(), err.getvalue()))
    files = {path.as_posix(): path.read_bytes() for path in Path(".").rglob("*") if path.is_file()}
    return outcomes, files


class TestSharedParser:
    """main() builds its parser on the first call and reuses it for the process."""

    def test_a_mixed_sequence_matches_fresh_parsers(self, tmp_path, monkeypatch):
        (tmp_path / "shared").mkdir()
        (tmp_path / "fresh").mkdir()
        monkeypatch.chdir(tmp_path / "shared")
        shared = run_cases(SHARED_PARSER_CASES)
        assert cli._parser() is cli._parser()
        assert [code for _, code, _, _ in shared[0]] == [code for _, code in SHARED_PARSER_CASES]
        assert all(out.startswith("usage: bellnoise")
                   for _, code, out, _ in shared[0] if code == "help")
        assert len(shared[1]) == 8  # two preset CSVs, rtn.csv and mc.csv, each with a sidecar
        # the same calls, each with a parser of its own
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        monkeypatch.chdir(tmp_path / "fresh")
        assert run_cases(SHARED_PARSER_CASES) == shared

    def test_repeated_calls_leave_no_cyclic_garbage(self, tmp_path, monkeypatch):
        # a parser is a web of reference cycles: one built per call is left to the collector
        monkeypatch.chdir(tmp_path)
        for argv, code in SHARED_PARSER_CASES:
            if code == 0:
                run_cases([(argv, code)])  # warm-up: builds the parser, fills caches
                gc.collect()
                run_cases([(argv, code)])
                assert gc.collect() == 0, argv

    def test_import_builds_no_parser(self):
        code = "import bellnoise.cli as cli\nprint(cli._parser.cache_info().currsize)\n"
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, check=True)
        assert done.stdout == "0\n"
        assert cli.build_parser() is not cli.build_parser()


class TestCliFloatEdges:
    """Whatever floats reach the command line: a finite curve or a one-line refusal."""

    RATES = st.floats(1e-300, 1e308)
    ANY = st.one_of(RATES, st.floats())

    @settings(max_examples=100)
    @given(
        noise=st.sampled_from(("rtn", "static")),
        method=st.sampled_from(("mc", "quadrature", "closed_form")),
        topology=st.sampled_from(("separate", "common")),
        gamma=RATES,
        nu=ANY,
        t_max=ANY,
        c0=ANY,
        delta_c=ANY,
        points=st.integers(2, 64),
        samples=st.integers(1, 64),
        spaced=st.booleans(),
    )
    def test_exits_with_a_finite_csv_or_a_one_line_message(
        self, noise, method, topology, gamma, nu, t_max, c0, delta_c, points, samples, spaced
    ):
        # "--flag value" or "--flag=value".  The block bound keeps every
        # accepted Monte Carlo run short.
        pairs = [("--noise", noise), ("--method", method), ("--topology", topology),
                 ("--nu", repr(nu)), ("--t-max", repr(t_max)), ("--points", str(points)),
                 ("--samples", str(samples))]
        if noise == "rtn":
            pairs.append(("--gamma", repr(gamma)))
        else:
            pairs += [("--c0", repr(c0)), ("--delta-c", repr(delta_c))]
        args = [part for flag, value in pairs
                for part in ((flag, value) if spaced else (f"{flag}={value}",))]
        result = run_cli("simulate", *args)
        if result.returncode == 0:
            numeric, _ = parse_csv(result.stdout)
            assert all(np.all(np.isfinite(column)) for column in numeric.values())
            assert result.stderr == ""
        else:
            assert result.returncode in (1, 3), result.stderr
            assert result.stderr.count("\n") == 1, result.stderr
            assert result.stdout == ""
