"""The benchmark's workloads: one cycle of ``bellnoise`` CLI calls each.

A workload is a closed loop with one client: the benchmark makes one
``cli.main(argv)`` call at a time and repeats the cycle.  Monte Carlo op ``i``
of a run gets seed ``seed + i``, so the workload seed fixes every input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

STATIC = dict(noise="static", c0=1.0, delta_c=1.0)
RTN_SLOW = dict(noise="rtn", gamma=0.2)
RTN_FAST = dict(noise="rtn", gamma=5.0)
PRESETS = {"fig1-static": STATIC, "fig2-markov": RTN_FAST, "fig2-nonmarkov": RTN_SLOW}
TOPOLOGIES = ("separate", "common")
T_MAX = 20.0
PRESET_POINTS = 21
CURVE_POINTS = 11
# compare runs two curves per op; 7 points keep it near the pooled ops' cost, so no
# op type sits alone at the top of the op-time distribution
COMPARE_POINTS = 7
MC_SAMPLES = 5_000
POOL_SAMPLES = 20_000
POOL_WORKERS = 2


@dataclass
class Op:
    """One CLI call and what the benchmark checks about its output.

    ``kind`` selects the check: ``closed_form``, ``mc`` or ``compare``.
    ``points`` counts the curve points the call computes, ``samples`` its
    Monte Carlo samples.
    """

    label: str
    kind: str
    argv: list
    output: str
    scenario: dict = field(default_factory=dict)
    points: int = 0
    samples: int = 0
    workers: int = 1


def _noise_flags(scenario):
    if scenario["noise"] == "static":
        return ["--noise", "static", "--c0", repr(scenario["c0"]),
                "--delta-c", repr(scenario["delta_c"])]
    return ["--noise", "rtn", "--gamma", repr(scenario["gamma"])]


def _grid_flags(points):
    return ["--points", str(points), "--t-max", repr(T_MAX)]


def _preset(name, topology, seed, out_dir):
    scenario = dict(PRESETS[name], topology=topology, points=PRESET_POINTS, t_max=T_MAX)
    argv = ["preset", name, "--topology", topology, "--points", str(PRESET_POINTS),
            "--out", out_dir]
    return Op(f"preset {name} {topology}", "closed_form", argv,
              f"{out_dir}/{name}-{topology}.csv", scenario, points=PRESET_POINTS)


def _mc(params, topology, samples, workers, seed, out_dir):
    scenario = dict(params, topology=topology, points=CURVE_POINTS, t_max=T_MAX)
    output = f"{out_dir}/mc.csv"
    argv = (["simulate", "--method", "mc", "--topology", topology, "--workers", str(workers),
             "--samples", str(samples), "--seed", str(seed), "--out", output]
            + _noise_flags(scenario) + _grid_flags(CURVE_POINTS))
    label = f"mc {params['noise']} {params.get('gamma', '')} {topology} w{workers}"
    return Op(" ".join(label.split()), "mc", argv, output, scenario,
              points=CURVE_POINTS, samples=samples, workers=workers)


def _compare(topology, seed, out_dir):
    scenario = dict(STATIC, topology=topology, points=COMPARE_POINTS, t_max=T_MAX)
    output = f"{out_dir}/compare.txt"
    argv = (["compare", "--method", "quadrature,closed_form", "--topology", topology,
             "--out", output] + _noise_flags(scenario) + _grid_flags(COMPARE_POINTS))
    return Op(f"compare static {topology}", "compare", argv, output, scenario,
              points=2 * COMPARE_POINTS)


def cycle(name, first_index, seed, work_dir):
    """Ops of one cycle of workload ``name``; op ``i`` writes under ``work_dir/op<i>``."""
    ops = []
    for offset, make in enumerate(_CYCLES[name]):
        index = first_index + offset
        ops.append(make(seed + index, f"{work_dir}/op{index:03d}"))
    return ops


_CYCLES = {
    "paper-presets": [partial(_preset, name, topology)
                      for name in PRESETS for topology in TOPOLOGIES],
    "mc-sampling": [partial(_mc, params, topology, MC_SAMPLES, 1)
                    for params in (RTN_SLOW, RTN_FAST, STATIC) for topology in TOPOLOGIES],
    "static-crosscheck": [partial(_compare, topology) for topology in TOPOLOGIES]
                         + [partial(_mc, STATIC, topology, POOL_SAMPLES, POOL_WORKERS)
                            for topology in TOPOLOGIES],
}
NAMES = tuple(_CYCLES)
