"""Entanglement and discord dynamics of two qubits under classical dephasing noise."""

from .correlations import (
    CorrelationReport,
    MeasurementOptimum,
    classical_correlations,
    conditional_entropy,
    dephased_bell_discord,
    discord,
    measure_correlations,
    mutual_information,
    negativity,
    static_negativity,
    telegraph_negativity,
)
from .errors import InvalidStateError, NumericalError, SimulationError
from .evolve import (
    TOPOLOGIES,
    HamiltonianSpec,
    average_rtn_mc,
    average_static_mc,
    average_static_quadrature,
    closed_form_rtn,
    closed_form_static,
    dephased_bell_state,
    realization_state,
)
from .linalg import (
    eigvals_hermitian,
    partial_trace,
    partial_transpose_b,
    validate_state,
    vn_entropy,
)
from .noise import (
    PhaseDensity,
    StaticNoiseSpec,
    TelegraphSpec,
    TelegraphTrajectory,
    accumulate_phase,
    accumulate_phases,
    bessel_i0,
    bessel_i1,
    decay_factor,
    sample_static,
    sample_telegraph_trajectory,
    substream,
    telegraph_autocorrelation,
    telegraph_phase_density,
    telegraph_spectrum,
)
from .scenarios import (
    Curve,
    CurveFeatures,
    ScenarioConfig,
    compare_methods,
    emit_csv,
    extract_features,
    find_deaths_and_revivals,
    parse_csv,
    preset_config,
    run_scenario,
)

__version__ = "0.1.0"
