"""dtc-sense: a two-chain Floquet probe simulator for gradient-field sensing.

Exact statevector and density-matrix evolution of a binary-quench spin-probe
whose period-doubled response carries gradient-field information, plus the
Fisher-information machinery (QFI/CFI, averages, scaling fits, transition
search, the Cramer-Rao sensitivity in experimental units) and a
reproducible sweep CLI.

The public names below load their submodule on first use (PEP 562), so
`import dtc_sense` costs only the error classes.  The unitary engine loads
only `model` and `floquet`, the density-matrix engine adds `lindblad`, and
neither loads the readout layer, `metrology`.  No public name is also a
submodule, whose import would bind the module over it.
"""
import importlib

__version__ = "0.1.0"

from .errors import (
    BoundaryPeakWarning,
    ConfigError,
    DtcSenseError,
    NumericalError,
    ResourceLimitError,
)

#: Each lazily loaded public name and the submodule that defines it.
_SUBMODULE_OF = {
    name: module for module, names in (
        ("model", ("EngineState", "FieldConfig", "InitConfig", "ProbeConfig",
                   "build_initial_state", "observable_diagonal")),
        ("floquet", ("FloquetEngine", "initial_state_with_tangent",
                     "theta_units")),
        ("metrology", ("FitResult", "MATERIALS", "StroboscopicTrace",
                       "TRACE_COLUMNS", "calibrate_unit_scale", "expcalc",
                       "find_transition", "material_record", "point_average",
                       "power_fit", "qfi_bound", "qfi_mixed", "qfi_pure",
                       "stroboscopic_trace", "stroboscopic_traces")),
        ("lindblad", ("LindbladEngine", "initial_mixed_state",
                      "noisy_fisher")),
    ) for name in names
}

__all__ = ["__version__", "BoundaryPeakWarning", "ConfigError",
           "DtcSenseError", "NumericalError", "ResourceLimitError",
           *_SUBMODULE_OF]


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
