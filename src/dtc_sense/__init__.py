"""dtc-sense: a two-chain Floquet probe simulator for gradient-field sensing.

Exact statevector and density-matrix evolution of a binary-quench spin-probe
whose period-doubled response carries gradient-field information, plus the
Fisher-information machinery (QFI/CFI, averages, scaling fits, transition
search) and a reproducible sweep CLI.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryPeakWarning,
    ConfigError,
    DtcSenseError,
    NumericalError,
    ResourceLimitError,
)
from .model import (
    FieldConfig,
    InitConfig,
    ProbeConfig,
    PureState,
    build_initial_state,
    observable_diagonal,
)
from .floquet import (
    FloquetEngine,
    initial_state_with_tangent,
    theta_half,
)
from .metrology import (
    FitResult,
    StroboscopicTrace,
    find_transition,
    point_average,
    power_fit,
    qfi_bound,
    qfi_mixed,
    qfi_pure,
    stroboscopic_trace,
    stroboscopic_traces,
)
from .lindblad import (
    LindbladEngine,
    MixedState,
    initial_mixed_state,
    noisy_fisher,
)
from .expcalc import MATERIALS, calibrate_unit_scale, expcalc, material_record

__all__ = [
    "__version__",
    "BoundaryPeakWarning", "ConfigError", "DtcSenseError", "NumericalError",
    "ResourceLimitError",
    "FieldConfig", "InitConfig", "ProbeConfig", "PureState",
    "build_initial_state", "observable_diagonal",
    "FloquetEngine", "initial_state_with_tangent", "theta_half",
    "FitResult", "StroboscopicTrace", "find_transition", "point_average",
    "power_fit", "qfi_bound", "qfi_mixed", "qfi_pure",
    "stroboscopic_trace", "stroboscopic_traces",
    "LindbladEngine", "MixedState", "initial_mixed_state", "noisy_fisher",
    "MATERIALS", "calibrate_unit_scale", "expcalc", "material_record",
]
