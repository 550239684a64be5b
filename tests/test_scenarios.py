import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bellnoise import cli
from bellnoise.noise import TelegraphSpec, decay_factor
from bellnoise.scenarios import (
    Curve,
    ScenarioConfig,
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
        ],
    )
    def test_rejects_bad_rtn_fields(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            rtn_config(**overrides).validate()

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
        assert curve.reports[0].negativity == pytest.approx(1.0, abs=1e-9)
        assert curve.reports[0].discord == pytest.approx(1.0, abs=1e-9)

    def test_times_reported_in_dimensionless_units(self):
        cfg = rtn_config(nu=2.0, gamma=0.4, t_max=3.0, n_points=4)
        curve = run_scenario(cfg)
        assert np.allclose(curve.times, 2.0 * np.linspace(0.0, 3.0, 4))

    def test_provenance_records_method_and_seed(self):
        cfg = rtn_config(method="mc", n_samples=512, seed=77, t_max=1.0, n_points=3)
        curve = run_scenario(cfg)
        assert curve.provenance["method"] == "mc"
        assert curve.provenance["seed"] == 77

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
        import bellnoise.scenarios as scenarios
        from bellnoise.errors import NumericalError

        def broken(rho, settings=None):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(scenarios, "measure_correlations", broken)
        with pytest.raises(NumericalError, match="at nt="):
            run_scenario(rtn_config(n_points=3))


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


class TestPresetsAndConfigFiles:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            preset_config("fig3", "common")

    def test_fig1_preset_flagged_qualitative(self):
        cfg = preset_config("fig1-static", "separate")
        assert "qualitative" in cfg.notes
        curve = run_scenario(replace(cfg, n_points=3))
        assert "qualitative" in curve.provenance["notes"]

    def test_config_text_round_trips(self):
        cfg = rtn_config(method="mc", n_samples=2048, seed=9, output_path="x.csv")
        parsed = parse_config_file(resolved_config_text(cfg))
        rebuilt = ScenarioConfig(**parsed)
        assert rebuilt == cfg

    def test_config_file_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file("volume=11\n")

    def test_config_file_rejects_bad_value(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_config_file("nu=fast\n")

    def test_config_file_comments_and_blanks(self):
        parsed = parse_config_file("# comment\n\nnu=2.0  # inline\ngamma=0.5\n")
        assert parsed == {"nu": 2.0, "gamma": 0.5}


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bellnoise", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestCli:
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
            assert "Warning" not in result.stderr

    def test_huge_rates_exit_cleanly(self):
        # squaring a rate beyond ~1e154 overflows: neither the telegraph decay
        # factor nor the static sinc may square one
        for case in (
            ("--noise", "rtn", "--gamma", "1", "--nu", "1e200"),
            ("--noise", "rtn", "--gamma", "1e200"),
            ("--noise", "static", "--c0", "1", "--delta-c", "1", "--nu", "1e300"),
        ):
            result = run_cli("simulate", "--method", "closed_form", "--points", "5", *case)
            assert result.returncode == 0, (case, result.stderr)
            assert "RuntimeWarning" not in result.stderr
            numeric, _ = parse_csv(result.stdout)
            assert numeric["negativity"][0] == 1.0
            assert np.all(np.isfinite(numeric["negativity"]))

    def test_unresolvable_quadrature_prints_a_short_node_count(self):
        result = run_cli(
            "simulate",
            "--noise", "static", "--method", "quadrature",
            "--c0", "1", "--delta-c", "1e200", "--points", "3",
        )
        assert result.returncode == 3
        assert "needs nodes >= 1.42857e+201" in result.stderr
        assert len(result.stderr) < 300

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
