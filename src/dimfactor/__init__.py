"""dimfactor: newform dimension counting and the factorization tests it
enables.

Exact closed formulas for the number of automorphic representations and
the dimension of newform spaces at even weight on level-N congruence
groups, the squarefree/primality characterizations those formulas give,
explicit bounds on square divisors from a single count, and probabilistic
reductions that factor N completely from two or three oracle values.
"""

from .arith import (
    Factorization,
    euler_phi,
    factor_trial,
    is_probable_prime,
    kronecker_m3,
    kronecker_m4,
)
from .bounds import (
    INTERVAL,
    NO_LARGE_SQUARE_DIVISOR,
    BoundsReport,
    compute_T,
    cubic_positive,
    curly_L,
    square_divisor_bounds,
)
from .detectors import Verdict, primality_test, squarefree_test
from .dimensions import (
    DefaultOracle,
    OracleSample,
    StaticOracle,
    dim_A,
    dim_B,
    dim_G,
    dim_H,
    dim_delta,
    level_one_newform_dim,
)
from .errors import (
    DimfactorError,
    DomainError,
    FactoringFailureError,
    InconsistentInputsError,
    InternalInconsistencyError,
    InvalidWeightError,
)
from .multfuncs import nu2_star, nu3_star, nu_inf_star, s0_star
from .reductions import (
    SquarefullSplit,
    factor_given_phi_multiple,
    factor_squarefull_from_invariants,
    factor_squarefull_two_values,
    full_factor_three_values,
    recover_nu23_star,
)
from .sweeps import SweepReport, primality_sweep, trichotomy_sweep

__version__ = "0.1.0"
