"""Two-qubit adiabatic-sweep simulator and analysis toolkit.

Core pieces:

* operators    — Pauli operators and the Pauli vectors r_k = <P_k> of states
* schedule     — the sweep Hamiltonian H(s) and the angle between the drive frames
* dynamics     — Schrodinger / Lindblad RK4 propagation
* tomography   — correlator arrays, shot sampling, the energy estimator, frame rotation
* analysis     — tracked levels, passage fidelity, minimum gap from the tracked
                 levels, diabatic slope, LZ formula
* mitigation   — zero-protocol-time extrapolation of energy contributions
* calibration  — chevron maps and coupling/dispersive fits
* config, scenarios, cli — reproducible scenario runs and data files
"""

from ._version import __version__
from .analysis import (
    DegenerateTracking,
    NoInteriorMinimum,
    TrackedLevels,
    WindowOutOfRange,
    ZeroSlope,
    crossing_report,
    diabatic_slope,
    level_weights,
    lz_probability,
    min_gap,
    pauli_fidelity,
    tracked_levels,
)
from .calibration import (
    ChevronMap,
    CouplingModel,
    DegenerateBasis,
    InsufficientSpan,
    chevron_map,
    fit_coupling,
    fit_dispersive,
    fit_rabi,
    oscillation_frequency,
    swap_population,
)
from .config import ConfigParse, SCENARIO_NAMES, ScenarioConfig, load_config, validate_config
from .dynamics import (
    BadIndex,
    NoiseModel,
    StepTooLarge,
    Trajectory,
    UnphysicalNoise,
    basis_state,
    collapse_operators,
    propagate_lindblad,
    propagate_unitary,
)
from .mitigation import (
    DegenerateAbscissae,
    extrapolate_quadratic,
    mitigate_energy,
)
from .operators import pauli_vector
from .schedule import (
    ProtocolSchedule,
    TimeOutOfRange,
    frame_rotation_angle,
)
from .scenarios import Unwritable, read_trace_config, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
