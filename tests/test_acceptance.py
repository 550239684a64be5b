"""Acceptance suite: one test per release criterion, each printing a verdict line.

Every criterion is asserted at its stated tolerance.  Statistical checks use
fixed seeds so the suite is deterministic; supporting "companion" tests pin
the numerical analysis behind any criterion whose stated tolerance is tighter
than the estimator it constrains.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import bellnoise as bn
from bellnoise.noise import accumulate_block_phases, sample_telegraph_block

from conftest import child_env

NU = 1.0
HAM = bn.HamiltonianSpec(nu=NU)
MC_SEED = 0
MC_SAMPLES = 100_000
MC_GRID = np.linspace(0.0, 20.0, 41)


def verdict(number, label, ok, detail):
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def random_static_tuples(count, x_max, rng):
    """Random (c0, delta_c, t) with delta_c * nu * t drawn uniformly on (0, x_max]."""
    out = []
    for _ in range(count):
        c0 = rng.uniform(-2.0, 2.0)
        delta_c = rng.uniform(0.05, 2.0)
        x = rng.uniform(0.0, x_max) + 1e-9
        out.append((c0, delta_c, x / (delta_c * NU)))
    return out


def documented_nodes(topology, delta_c, t):
    """64 nodes, or more where the integrand oscillates beyond 1.4 rad per node.

    The bound is the one ``average_static_quadrature`` documents: the rule is
    spectrally convergent while ``delta_c nu t`` (separate) or
    ``2 delta_c nu t`` (common) stays within 1.4 radians per node.
    """
    x = delta_c * NU * t
    oscillation = x if topology == "separate" else 2.0 * x
    return max(64, math.ceil(oscillation / 1.4))


def quad_vs_closed_dev(tuples, topology, nodes=None):
    """Worst entry deviation; ``nodes=None`` uses :func:`documented_nodes` per tuple."""
    worst = 0.0
    for c0, delta_c, t in tuples:
        noise = bn.StaticNoiseSpec(c0=c0, delta_c=delta_c)
        count = documented_nodes(topology, delta_c, t) if nodes is None else nodes
        quad = bn.average_static_quadrature(HAM, noise, topology, t, nodes=count)
        closed = bn.closed_form_static(HAM, noise, topology, t)
        worst = max(worst, float(np.max(np.abs(quad - closed))))
    return worst


class TestCriterion01QuadratureVsClosedForm:
    def test_criterion_01_static_quadrature_matches_closed_form(self):
        rng = np.random.default_rng(104729)
        tuples = random_static_tuples(100, 50.0, rng)
        devs = {topo: quad_vs_closed_dev(tuples, topo) for topo in ("separate", "common")}
        worst = max(devs.values())
        most = {
            topo: max(documented_nodes(topo, delta_c, t) for _, delta_c, t in tuples)
            for topo in ("separate", "common")
        }
        ok = verdict(
            1,
            "closed form vs quadrature at >= 64 nodes and <= 1.4 rad/node, delta_c nu t <= 50",
            worst <= 1e-9,
            f"max entry dev separate {devs['separate']:.2e} (64-{most['separate']} nodes), "
            f"common {devs['common']:.2e} (64-{most['common']} nodes)",
        )
        assert ok, (
            "Gauss-Legendre quadrature at its documented node count disagrees "
            "with the static closed forms by more than 1e-9"
        )

    def test_criterion_01_companion_converged_windows(self):
        # the same comparison restricted to where 64 nodes are spectrally
        # converged, and with 128 nodes over the full stated domain; beyond
        # its window the 64-node rule refuses rather than returning a number
        rng = np.random.default_rng(104729)
        full = random_static_tuples(100, 50.0, rng)
        narrow = random_static_tuples(100, 44.0, rng)
        assert quad_vs_closed_dev(full, "separate", 64) <= 1e-9
        assert quad_vs_closed_dev(narrow, "common", 64) <= 1e-9
        assert quad_vs_closed_dev(full, "common", 128) <= 1e-9
        noise = bn.StaticNoiseSpec(c0=0.5, delta_c=1.0)
        with pytest.raises(bn.NumericalError, match="nodes >= 72"):
            bn.average_static_quadrature(HAM, noise, "common", 50.0 / NU, nodes=64)


class TestCriterion02StaticNegativity:
    def test_criterion_02_static_negativity_identity(self):
        times = np.linspace(0.0, 20.0, 1000)
        noise = bn.StaticNoiseSpec(c0=0.7, delta_c=1.0)
        worst = 0.0
        for topology in ("separate", "common"):
            closed = bn.static_negativity(noise, NU, times, topology)
            numeric = np.array(
                [
                    bn.negativity(bn.closed_form_static(HAM, noise, topology, t))
                    for t in times
                ]
            )
            worst = max(worst, float(np.max(np.abs(numeric - closed))))
        ok = verdict(
            2,
            "eigenvalue negativity equals the static envelope formulas",
            worst <= 1e-12,
            f"max dev {worst:.2e} over 1000 points incl. negative-lobe windows",
        )
        assert ok


class TestCriterion03RtnNegativity:
    def test_criterion_03_rtn_negativity_identity(self):
        times = np.linspace(0.0, 20.0, 1000)
        worst = 0.0
        for ratio in (0.2, 5.0):
            spec = bn.TelegraphSpec(gamma=NU / ratio)
            for topology in ("separate", "common"):
                closed = bn.telegraph_negativity(spec, NU, times, topology)
                numeric = np.array(
                    [
                        bn.negativity(bn.closed_form_rtn(HAM, spec, topology, t))
                        for t in times
                    ]
                )
                worst = max(worst, float(np.max(np.abs(numeric - closed))))
        ok = verdict(
            3,
            "eigenvalue negativity equals the decay-factor formulas",
            worst <= 1e-12,
            f"max dev {worst:.2e} for nu/gamma in {{0.2, 5}}, both topologies",
        )
        assert ok


def _mc_scenarios():
    for ratio in (0.2, 5.0):
        spec = bn.TelegraphSpec(gamma=NU / ratio)
        for topology in ("separate", "common"):
            yield f"rtn nu/gamma={ratio} {topology}", spec, topology
    static = bn.StaticNoiseSpec(c0=1.0, delta_c=1.0)
    for topology in ("separate", "common"):
        yield f"static {topology}", static, topology


def _mc_curves(seed):
    rows = []
    for label, spec, topology in _mc_scenarios():
        if isinstance(spec, bn.TelegraphSpec):
            states = bn.average_rtn_mc(HAM, spec, topology, MC_GRID, MC_SAMPLES, seed=seed)
            closed = [bn.closed_form_rtn(HAM, spec, topology, t) for t in MC_GRID]
        else:
            states = bn.average_static_mc(HAM, spec, topology, MC_GRID, MC_SAMPLES, seed=seed)
            closed = [bn.closed_form_static(HAM, spec, topology, t) for t in MC_GRID]
        rows.append((label, states, closed))
    return rows


@pytest.fixture(scope="module")
def curves():
    return _mc_curves(MC_SEED)


class TestCriterion04MonteCarloConvergence:
    def test_criterion_04_mc_matches_closed_forms(self, curves):
        worst_n = worst_q = 0.0
        details = []
        for label, states, closed in curves:
            n_dev = max(
                abs(bn.negativity(a) - bn.negativity(b)) for a, b in zip(states, closed)
            )
            q_dev = max(abs(bn.discord(a) - bn.discord(b)) for a, b in zip(states, closed))
            details.append(f"{label}: N {n_dev:.2e} Q {q_dev:.2e}")
            worst_n = max(worst_n, n_dev)
            worst_q = max(worst_q, q_dev)
        ok = verdict(
            4,
            f"MC negativity and discord within 5e-3 of closed forms at {MC_SAMPLES} "
            f"samples (seed {MC_SEED})",
            worst_n <= 5e-3 and worst_q <= 5e-3,
            f"max N dev {worst_n:.2e}, max Q dev {worst_q:.2e}; " + "; ".join(details),
        )
        assert ok, (
            "Monte Carlo negativity or discord at 1e5 samples strays more than "
            "5e-3 from the closed form somewhere on the [0, 20] grid"
        )

    def test_criterion_04_companion_error_budget(self, curves):
        # entry-scale budget (the observable the 5e-3 tolerance matches),
        # the discord half of the criterion, and the statistical consistency
        # of the negativity deviations with the measured standard error
        sigma = math.sqrt(0.5 / MC_SAMPLES)  # per-point error of the mean phase factor
        for label, states, closed in curves:
            entry_dev = max(float(np.max(np.abs(a - b))) for a, b in zip(states, closed))
            q_dev = max(abs(bn.discord(a) - bn.discord(b)) for a, b in zip(states, closed))
            n_dev = max(
                abs(bn.negativity(a) - bn.negativity(b)) for a, b in zip(states, closed)
            )
            assert entry_dev <= 5e-3, label
            assert q_dev <= 5e-3, label
            assert n_dev <= 5.0 * sigma, label


class TestCriterion05DiscordOracle:
    def test_criterion_05_numeric_discord_matches_closed_form(self):
        worst = 0.0
        for lam in np.linspace(0.0, 1.0, 11):
            numeric = bn.discord(bn.dephased_bell_state(lam))
            worst = max(worst, abs(numeric - bn.dephased_bell_discord(lam)))
        endpoints_exact = bn.dephased_bell_discord(0.0) == 0.0 and bn.dephased_bell_discord(1.0) == 1.0
        ok = verdict(
            5,
            "maximisation discord vs closed form on the dephased family",
            worst <= 1e-4 and endpoints_exact,
            f"max dev {worst:.2e} over Lambda in {{0, 0.1, ..., 1}}; endpoints exact",
        )
        assert ok


class TestCriterion06PhaseDistribution:
    def test_criterion_06_mass_and_characteristic_function(self):
        worst_mass = worst_cf = 0.0
        for gamma_t in (0.1, 0.5, 1.0, 2.0, 5.0):
            for nu_t in (0.2, 1.0, 2.0, 5.0, 15.0):
                gamma, nu, t = gamma_t, nu_t, 1.0
                mass_c, _ = integrate.quad(
                    lambda p: bn.telegraph_phase_density(nu, gamma, t, p).continuous_density,
                    -nu * t,
                    nu * t,
                    limit=300,
                )
                atom = bn.telegraph_phase_density(nu, gamma, t, 0.0).atom_weight
                worst_mass = max(worst_mass, abs(mass_c + 2.0 * atom - 1.0))
                cf_cont, _ = integrate.quad(
                    lambda p: math.cos(p)
                    * bn.telegraph_phase_density(nu, gamma, t, p).continuous_density,
                    -nu * t,
                    nu * t,
                    limit=300,
                )
                cf = cf_cont + 2.0 * atom * math.cos(nu * t)
                worst_cf = max(worst_cf, abs(cf - bn.decay_factor(nu, gamma, t)))
        ok = verdict(
            6,
            "phase distribution mass and mean phase factor",
            worst_mass <= 1e-8 and worst_cf <= 1e-6,
            f"max |mass-1| {worst_mass:.2e}, max |cf-decay| {worst_cf:.2e} on the 5x5 grid",
        )
        assert ok

    def test_criterion_06_kolmogorov_smirnov(self):
        gamma, nu, t = 1.0, 2.0, 1.0
        spec = bn.TelegraphSpec(gamma=gamma)
        n = 100_000
        # one draw of n trajectories; each row is one sample_telegraph_trajectory
        block = sample_telegraph_block(spec, t, n, bn.substream(606, 0))
        interior = np.any(block.flips < t, axis=1)
        phases = np.sort(accumulate_block_phases(block, nu, np.array([t]))[interior, 0])
        grid = np.linspace(-nu * t, nu * t, 8193)
        density = bn.telegraph_phase_density(nu, gamma, t, grid).continuous_density
        cdf = integrate.cumulative_trapezoid(density, grid, initial=0.0)
        cdf /= cdf[-1]
        model = np.interp(phases, grid, cdf)
        empirical = (np.arange(1, len(phases) + 1) - 0.5) / len(phases)
        ks = float(np.max(np.abs(empirical - model)))
        ok = verdict(
            6,
            "phase sampler vs distribution (KS)",
            ks <= 0.01,
            f"KS distance {ks:.4f} with {len(phases)} interior samples",
        )
        assert ok


class TestCriterion07SuddenDeathAndRevival:
    def test_criterion_07_nonmarkov_death_and_revival(self):
        cfg = bn.preset_config("fig2-nonmarkov", "common")
        curve = bn.run_scenario(cfg)
        found = bn.extract_features(curve, threshold=1e-3)
        gamma = cfg.gamma
        delta = math.sqrt((4.0 * NU) ** 2 - gamma**2)
        t_star = (math.pi - math.atan(delta / gamma)) / delta
        step = cfg.t_max / (cfg.n_points - 1)
        has_death = bool(found.death_times)
        death_ok = has_death and abs(found.death_times[0] - t_star) <= step
        revival_ok = bool(found.revival_peaks) and found.revival_peaks[0][1] > 1e-2
        ok = verdict(
            7,
            "non-Markov common: first death at the decay-factor zero",
            death_ok and revival_ok,
            f"first death {found.death_times[0] if has_death else None} vs t*={t_star:.6f} "
            f"(step {step}), first revival peak "
            f"{found.revival_peaks[0][1] if found.revival_peaks else None}",
        )
        assert ok

    def test_criterion_07_markov_has_no_deaths(self):
        counts = {}
        for topology in ("separate", "common"):
            cfg = bn.preset_config("fig2-markov", topology)
            curve = bn.run_scenario(cfg)
            found = bn.extract_features(curve, threshold=1e-3)
            counts[topology] = (len(found.death_times), len(found.revival_peaks))
        ok = verdict(
            7,
            "Markov preset: zero deaths at threshold 1e-3 over nt in [0, 20]",
            all(c == (0, 0) for c in counts.values()),
            f"death/revival counts {counts}",
        )
        assert ok


class TestCriterion08TopologyOrderings:
    def test_criterion_08_static_revivals_stronger_in_common_environment(self):
        times = np.linspace(0.0, 20.0, 4001)
        noise = bn.StaticNoiseSpec(c0=1.0, delta_c=1.0)
        de = bn.static_negativity(noise, NU, times, "separate")
        ce = bn.static_negativity(noise, NU, times, "common")
        peaks_de = bn.find_deaths_and_revivals(times, de, 1e-3).revival_peaks
        peaks_ce = bn.find_deaths_and_revivals(times, ce, 1e-3).revival_peaks
        pairs = list(zip(peaks_ce, peaks_de))
        ordered = bool(pairs) and all(pc[1] > pd[1] for pc, pd in pairs)
        ok = verdict(
            8,
            "static noise: k-th common-environment revival tops the separate one",
            ordered,
            f"{len(pairs)} revival pairs compared, first pair "
            f"{pairs[0][0][1]:.4f} > {pairs[0][1][1]:.4f}" if pairs else "no revivals found",
        )
        assert ok

    def test_criterion_08_markov_common_environment_weaker(self):
        times = np.linspace(0.0, 20.0, 2001)
        spec = bn.TelegraphSpec(gamma=5.0)  # nu/gamma = 0.2
        de = bn.telegraph_negativity(spec, NU, times, "separate")
        ce = bn.telegraph_negativity(spec, NU, times, "common")
        ordered = bool(np.all(ce[1:] <= de[1:] + 1e-12))
        ok = verdict(
            8,
            "Markov noise: common-environment negativity never exceeds separate",
            ordered,
            f"max(ce - de) = {float(np.max(ce[1:] - de[1:])):.2e} on 2000 positive times",
        )
        assert ok


class TestCriterion09StateSanity:
    def _battery(self):
        spec = bn.TelegraphSpec(gamma=0.5)
        noise = bn.StaticNoiseSpec(c0=1.0, delta_c=1.0)
        for topology in ("separate", "common"):
            for t in (0.0, 0.9, 7.3):
                yield bn.average_static_quadrature(HAM, noise, topology, t, nodes=64)
                yield bn.closed_form_static(HAM, noise, topology, t)
                yield bn.closed_form_rtn(HAM, spec, topology, t)
                yield bn.average_static_mc(HAM, noise, topology, t, 20_000, seed=11)
                yield bn.average_rtn_mc(HAM, spec, topology, t, 20_000, seed=11)

    def test_criterion_09_all_paths_produce_valid_states(self):
        worst_herm = worst_trace = worst_marginal = 0.0
        lowest_eig = 0.0
        count = 0
        for rho in self._battery():
            count += 1
            worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
            worst_trace = max(worst_trace, abs(complex(np.trace(rho)) - 1.0))
            lowest_eig = min(lowest_eig, float(bn.eigvals_hermitian(rho)[0]))
            for keep in ("A", "B"):
                marginal_dev = float(np.max(np.abs(bn.partial_trace(rho, keep) - np.eye(2) / 2)))
                worst_marginal = max(worst_marginal, marginal_dev)
        ok = verdict(
            9,
            f"state sanity across every averaging path ({count} states)",
            worst_herm <= 1e-12
            and worst_trace <= 1e-12
            and lowest_eig >= -1e-10
            and worst_marginal <= 1e-12,
            f"hermiticity {worst_herm:.1e}, trace {worst_trace:.1e}, "
            f"lowest eigenvalue {lowest_eig:.1e}, marginal dev {worst_marginal:.1e}",
        )
        assert ok


class TestCriterion10Determinism:
    def test_criterion_10_csv_bytes_identical_across_worker_counts(self, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(
            "noise_kind=rtn\ntopology=common\nmethod=mc\ngamma=0.2\n"
            "t_max=5.0\nn_points=21\nn_samples=4096\nseed=7\n"
        )
        outputs = {}
        for workers in (1, 8):
            out = tmp_path / f"curve-{workers}.csv"
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "bellnoise",
                    "simulate",
                    "--config",
                    str(config),
                    "--workers",
                    str(workers),
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            assert result.returncode == 0, result.stderr
            outputs[workers] = out.read_bytes()
        identical = outputs[1] == outputs[8]
        ok = verdict(
            10,
            "identical config and seed give byte-identical CSV for 1 and 8 workers",
            identical,
            f"{len(outputs[1])} bytes each",
        )
        assert ok
