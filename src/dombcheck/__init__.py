"""Exact computation of Domb-type sums and verification of their properties."""

__version__ = "0.1.0"

from .arith import (
    BadRange,
    DenominatorDivisibleByP,
    NotPrime,
    PDividesBase,
    PrimePowerModulus,
    Residue,
    fermat_quotient,
    is_prime,
    primes_in_range,
    residue_of_rational,
)
from .sequences import (
    CCL_LIMIT,
    ROGERS_LIMIT,
    SequenceTable,
    binomial,
    catalan,
    ccl_partial,
    central_binomial,
    domb,
    domb_by_definition,
    domb_via_cz,
    domb_via_ctyz,
    domb_via_sunzh,
    euler_number,
    euler_number_mod,
    franel,
    rogers_partial,
)
from .harmonic import (
    alt_harmonic,
    alt_harmonic_weighted,
    harmonic,
)
from .identities import (
    BadIndex,
    EvenN,
    IdentityReport,
    check_b1,
    check_b2,
    check_b10gen,
    check_c2,
    check_d2,
    check_e_full,
    check_e_inner,
    check_rearrangement,
    check_transformation,
)
from .congruences import (
    CongruenceResult,
    LEMMA_TAGS,
    PER_INDEX_TAGS,
    PROOF_STEP_TAGS,
    PTooSmall,
    TAG_POWER,
    exact_lhs,
    verify_lemma,
    verify_proof_step,
    verify_thm1,
    verify_thm2,
)
from .divisibility import (
    NotInteger,
    NotPositive,
    Thm3Record,
    check_alternating_positivity,
    check_ratio_monotone,
    check_thm3,
    thm3_value,
)
from .checks import CHECKS, Check, sweep
