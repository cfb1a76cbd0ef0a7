"""Delay-line offset-lock digital twin and time-frequency metrology toolkit."""

from .errors import ParameterError
from .noisegen import (
    CombModel,
    FrequencyTrace,
    NoiseSpec,
    OscillatorModel,
    comb_line_oscillator,
    derive_seed,
    laser_from_linewidth,
    oscillator_trace,
    read_trace_csv,
    synth_power_law,
    write_trace_csv,
)
from .metrology import (
    AllanResult,
    CounterConfig,
    CounterSeries,
    SlopeFit,
    adev_nonoverlapping,
    adev_overlapping,
    count,
    fit_noise_slope,
    octave_taus,
    peak_to_peak,
    psd_estimate,
    to_absolute,
    to_fractional,
)
from .lockloop import (
    DiscriminatorConfig,
    LockPoint,
    LockRun,
    ServoConfig,
    ThermalModel,
    cable_delay,
    capture_halfwidth,
    closed_loop_components,
    discriminator_slope,
    error_signal,
    lock_points,
    out_of_loop_beat,
    servo_for_bandwidth,
    simulate_lock,
    thermal_lockpoint_shift,
)
from .chain import (
    AfcSpec,
    BudgetReport,
    ChainNode,
    afc_budget,
    aom_double_pass,
    comb_beat,
    evaluate_chain,
    pdc_degenerate,
    sfg,
    shg,
    solve_aom,
)
from .scenario import (
    RunReport,
    ScenarioConfig,
    compare_expected,
    load_config,
    run_scenario,
    validate_config,
)

__version__ = "0.1.0"
