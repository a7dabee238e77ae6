"""greedylab: exact greedy-approximation quantities for block sequence spaces.

Computes thresholding (greedy) errors, best N-term errors, democracy
functions and approximation-space quasi-norms for lattice-unconditional
bases, and reproduces two constructions: a block space whose left
democracy function is not doubling, and the two-pool vectors showing that
greedy approximation is not optimal for non-democratic bases.

The names below resolve on first use (PEP 562), so ``import greedylab``
and each CLI command load only the modules they need.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names it provides
    "errors": (
        "CapacityError",
        "GreedyLabError",
        "InvariantError",
        "OracleUnavailableError",
        "ScheduleTooShallowError",
        "TruncationError",
    ),
    "schedule": ("BlockSchedule", "arithmetic_schedule", "squares_schedule"),
    "vectors": ("CompressedVector", "canonicalize", "indicator"),
    "spaces": (
        "Block",
        "NormValue",
        "SpaceSpec",
        "space_from_json",
        "space_norm",
    ),
    "errorseq": ("ErrorSequence",),
    "greedy": (
        "GreedyOutcome",
        "TieDescriptor",
        "error_sequence",
        "gamma",
        "sigma_exact",
    ),
    "democracy": (
        "DemFunTable",
        "DemPoint",
        "demfun_dp",
        "demfun_table",
        "doubling_scan",
        "prefix_norm_conjecture_check",
    ),
    "cghm": ("CghmSequences", "HFunction", "cghm_construct", "condition71_check"),
    "approx": (
        "ApproxParams",
        "XsConstruction",
        "approx_quasinorm",
        "build_xs",
        "envelope",
        "greedy_quasinorm",
        "optimality_experiment",
        "quasinorm_bracket",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
