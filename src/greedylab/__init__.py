"""greedylab: exact greedy-approximation quantities for block sequence spaces.

Computes thresholding (greedy) errors, best N-term errors, democracy
functions and approximation-space quasi-norms for lattice-unconditional
bases, and reproduces two constructions: a block space whose left
democracy function is not doubling, and the two-pool vectors showing that
greedy approximation is not optimal for non-democratic bases.
"""

from .errors import (
    CapacityError,
    GreedyLabError,
    InvariantError,
    OracleUnavailableError,
    ScheduleTooShallowError,
    TermBudgetError,
    TruncationError,
)
from .schedule import BlockSchedule, arithmetic_schedule, squares_schedule
from .vectors import CompressedVector, canonicalize, indicator
from .spaces import (
    Block,
    NormValue,
    SpaceSpec,
    space_from_json,
    space_norm,
    trunc_block_norm,
)
from .errorseq import ErrorSequence
from .greedy import (
    GreedyOutcome,
    TieDescriptor,
    democracy_constant,
    error_sequence,
    gamma,
    greedy_constant,
    sigma_exact,
)
from .democracy import (
    CghmSequences,
    DemFunTable,
    DemPoint,
    cghm_construct,
    condition71_check,
    demfun_dp,
    demfun_table,
    doubling_scan,
    prefix_norm_conjecture_check,
)
from .approx import (
    ApproxParams,
    RatioReport,
    XsConstruction,
    approx_quasinorm,
    build_xs,
    envelope,
    greedy_quasinorm,
    optimality_experiment,
    quasinorm_bounds,
)

__version__ = "0.1.0"
