"""fibmod: Pisano periods, good numbers, and Wall-Sun-Sun prime scanning.

Invariants of the Fibonacci sequence modulo m — the period, the rank of
apparition, and the per-period zero count — computed both by direct
iteration and by fast factorization-based paths that are continuously
audited against each other.  On top of that substrate: good-number
classification, self-square enumeration, and a checkpointed, resumable
Wall-Sun-Sun prime scanner.
"""

from types import ModuleType as _ModuleType

from .arith import (
    Factorization,
    factorize,
    is_prime,
    primes_in_range,
    sieve_upto,
    two_adic_split,
)
from .classify import (
    GoodnessReport,
    GoodPrimeEntry,
    goodness_report,
    is_good_direct,
    is_good_fast,
    is_good_prime,
    period_divisor_class,
    zero_count_odd,
    zero_count_period_pattern,
)
from .errors import AnomalyError, CheckpointError
from .fib import (
    FIB_EXACT_CAP,
    FibMatrix,
    binomial_expansion_rhs,
    doubling_rhs,
    fib_exact,
    fib_pair_mod,
    matrix_pow_mod,
    subtraction_rhs,
)
from .pisano import (
    PisanoProfile,
    PrimePowerPeriod,
    lifting_exponent,
    pisano_direct,
    pisano_fast,
    prime_period,
    prime_power_period,
    profile,
    rank_of_apparition,
    zero_count,
    zero_count_direct,
)
from .wss import (
    OddSelfSquareReport,
    ScanCheckpoint,
    SelfSquareRecord,
    WssRecord,
    cofactor_mod,
    enumerate_self_square,
    legendre5,
    load_checkpoint,
    odd_self_square_check,
    scan_wss,
    self_square_test,
    two_power_valuation_check,
    wss_check,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules those imports bind are not exports.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
