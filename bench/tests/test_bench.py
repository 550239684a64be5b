"""Tests of the benchmark's own code: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, installed, self_times  # noqa: E402

from bellnoise import cli, correlations, evolve, linalg, noise, scenarios  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # root [0, 10]; a [1, 4] holds g [2, 3]; b [3.5, 6] overlaps a; c [9, 12] outlives root
    starts = [0.0, 1.0, 2.0, 3.5, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_summary_adds_calls_busy_and_self_time_per_name():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    with tracer.span("outer"):
        inner()
        inner()
    summary = tracer.summary()
    assert summary["inner"][0] == 2
    calls, busy, own = summary["outer"]
    assert calls == 1
    assert own == pytest.approx(busy - summary["inner"][1])


def test_tail_is_the_highest_order_statistic_with_ten_samples_beyond_it():
    assert run.tail_percentile(range(11)) == (0, 0.0)
    value, percentile = run.tail_percentile(range(101))
    assert value == 90 and percentile == 90.0
    assert run.tail_percentile(list(reversed(range(21))))[0] == 10
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))


@pytest.mark.parametrize("z", [1.0, 0.0, -0.3, 0.6 - 0.5j, 1e-7j, 0.999])
def test_reference_measures_match_the_library(z):
    report = correlations.measure_correlations(evolve.dephased_bell_state(z))
    assert report.negativity == pytest.approx(abs(z), abs=1e-12)
    assert report.discord == pytest.approx(checks.discord_of(abs(z)), abs=1e-12)
    assert report.mutual_info == pytest.approx(1.0 + checks.discord_of(abs(z)), abs=1e-12)
    assert report.classical == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("topology", ["separate", "common"])
@pytest.mark.parametrize("params", [dict(noise="static", delta_c=1.0, c0=1.0),
                                    dict(noise="rtn", gamma=0.2), dict(noise="rtn", gamma=5.0)])
def test_reference_mean_phase_factor_matches_the_library(topology, params):
    ham = evolve.HamiltonianSpec(nu=1.0)
    scenario = dict(params, topology=topology)
    for nt in (0.0, 0.37, 3.0, 11.5, 20.0):
        if params["noise"] == "static":
            state = evolve.closed_form_static(ham, noise.StaticNoiseSpec(1.0, 1.0), topology, nt)
        else:
            state = evolve.closed_form_rtn(ham, noise.TelegraphSpec(params["gamma"]), topology, nt)
        z = state[0, 3] * 4.0 - 1.0 + 4j * state[0, 1].imag
        assert checks.exact_abs_z(scenario, nt) == pytest.approx(abs(z), abs=1e-13)
    for coupling in (2.0, 4.0):
        assert checks.telegraph_factor(coupling, params.get("gamma", 1.0), 7.0) == pytest.approx(
            noise.decay_factor(coupling, params.get("gamma", 1.0), 7.0), abs=1e-14)


def _csv(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--points", "9", "--t-max", "20", "--out", str(out)]) == 0
    return out.read_text()


def test_checks_accept_the_program_and_reject_a_perturbed_value(tmp_path):
    scenario = dict(noise="rtn", gamma=0.2, topology="common", points=9, t_max=20.0)
    text = _csv(tmp_path, ["simulate", "--noise", "rtn", "--gamma", "0.2", "--topology", "common"])
    checks.check_closed_form(text, scenario)
    lines = text.splitlines()
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    with pytest.raises(checks.CheckError):
        checks.check_closed_form("\n".join(lines[:3] + [",".join(cells)] + lines[4:]), scenario)

    mc = _csv(tmp_path, ["simulate", "--noise", "rtn", "--gamma", "0.2", "--topology",
                         "common", "--method", "mc", "--samples", "2000"])
    squares = checks.check_mc(mc, scenario, 2000)
    assert len(squares) == 9
    with pytest.raises(checks.CheckError):
        checks.check_mc(mc, scenario, 4_000_000)


def test_every_wrapped_function_is_restored_after_a_traced_run(tmp_path):
    targets = layers.targets(cli, scenarios, evolve, correlations, linalg)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    tracer = Tracer()
    with installed(tracer, targets):
        for argv in (["simulate", "--noise", "static", "--c0", "1", "--delta-c", "1",
                      "--method", "mc", "--samples", "50"],
                     ["simulate", "--noise", "rtn", "--gamma", "5", "--method", "mc",
                      "--samples", "20"]):
            with tracer.span("cli"):
                _csv(tmp_path, argv)
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    summary = tracer.summary()
    assert summary["noise.substream"][0] == 70
    assert summary["evolve.mc"][0] == 2 and tracer.counts["mc_samples"] == 70
    assert summary["correlations.measure"][0] == 18


def test_a_failing_traced_run_still_restores_every_function():
    targets = layers.targets(cli, scenarios, evolve, correlations, linalg)
    originals = [getattr(module, attr) for module, attr, _, _ in targets]
    with pytest.raises(RuntimeError), installed(Tracer(), targets):
        raise RuntimeError
    assert [getattr(module, attr) for module, attr, _, _ in targets] == originals


def test_metric_names_are_valid_unique_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    e2e = [(n, u, b, bound) for n, u, b, bound in run.END_TO_END]
    per_layer = [(n, u, b) for n, u, b, _, _, _ in layers.PER_LAYER]
    names = [row[0] for row in e2e + per_layer]
    assert all(name.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == e2e
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.NAMES)
    assert all(0 < bound <= 0.25 for *_, bound in e2e)
    assert max(bound for *_, bound in e2e) == dict((n, b) for n, _, _, b in e2e)["setup_s"]
