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
    synth_power_law,
    write_trace_csv,
)
from .metrology import (
    AllanResult,
    CounterConfig,
    adev_nonoverlapping,
    adev_overlapping,
    count,
    octave_taus,
    peak_to_peak,
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
    error_signal,
    lock_points,
    out_of_loop_beat,
    resolve_lock_point,
    servo_for_bandwidth,
    simulate_lock,
)
from .chain import (
    AfcSpec,
    ChainNode,
    afc_budget,
    aom_double_pass,
    comb_beat,
    evaluate_chain,
    pdc_degenerate,
    sfg,
    shg,
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
