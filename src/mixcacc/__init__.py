"""Simulator and analysis toolkit for mixed cooperative platoons."""

from .config import Config, RunError, UsageError, load_config_file, spec_hash
from .controllers import (
    AccParams,
    Beacon,
    ControllerSet,
    GsblMode,
    GsblParams,
    IdmParams,
    PathParams,
    PloegParams,
    acc_accel,
    gsbl_mode_update,
    idm_accel,
    path_gains,
)
from .dynamics import DynamicsParams, VehicleState, step_vehicle
from .metrics import (
    delta_a,
    delta_d,
    eta,
    min_gap,
    peak_abs_accel,
    road_throughput,
    sinusoidal_window,
    volatility,
)
from .ring import RingSpec, RingTrace, run_ring
from .scenarios import SingleScenario, Trace, run_single_platoon
from .topology import (
    ConnectivityMatrix,
    connectivity_matrix,
    elect_ego_leaders,
    extended_connectivity_matrix,
    parse_config,
)

__version__ = "0.1.0"

__all__ = [
    "AccParams",
    "Beacon",
    "Config",
    "ConnectivityMatrix",
    "ControllerSet",
    "DynamicsParams",
    "GsblMode",
    "GsblParams",
    "IdmParams",
    "PathParams",
    "PloegParams",
    "RingSpec",
    "RingTrace",
    "RunError",
    "SingleScenario",
    "Trace",
    "UsageError",
    "VehicleState",
    "acc_accel",
    "connectivity_matrix",
    "delta_a",
    "delta_d",
    "elect_ego_leaders",
    "eta",
    "extended_connectivity_matrix",
    "gsbl_mode_update",
    "idm_accel",
    "load_config_file",
    "min_gap",
    "parse_config",
    "path_gains",
    "peak_abs_accel",
    "road_throughput",
    "run_ring",
    "run_single_platoon",
    "sinusoidal_window",
    "spec_hash",
    "step_vehicle",
    "volatility",
    "__version__",
]
