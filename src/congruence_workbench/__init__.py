"""Exact q-series workbench for fractional partition congruences.

Computes coefficients of (q;q)_inf^alpha and of Dedekind-eta powers in
exact rational arithmetic, verifies prime-power congruence claims over
coefficient ranges, searches for the parameters those claims need, and
probes modulus sharpness.  No floating point anywhere.  The API is what
the commands run, plus the eta forms and their Hecke images at primes.
"""

__version__ = "0.1.0"

from .arith import (
    NotLIntegralError,
    PreconditionError,
    format_rational,
    is_prime,
    kronecker_symbol,
    legendre_symbol,
    padic_ord,
    reduce_mod_prime_power,
)
from .congruence import (
    ClaimFamily,
    CongruenceClaim,
    HypothesisError,
    VerificationReport,
    VerificationStatus,
    build_cw_claim,
    build_remark_claim,
    build_t1_claim,
    build_t2_claim,
    build_t3_claim,
    certificate_line,
    chan_wang_condition,
    find_residues,
    find_w,
    is_d_satisfactory,
    sharpness_probe,
    verify_claim,
)
from .forms import (
    EtaPowerSpec,
    FormExpansion,
    a2_prime_power_sequence,
    eta_form,
    eta_power,
)
from .qseries import (
    Series,
    euler_product,
    extract_progression,
    frac_partition_series,
    series_pow_int,
    series_pow_numerators,
    series_pow_rational,
    series_reduce_mod,
)

__all__ = [
    "ClaimFamily",
    "CongruenceClaim",
    "EtaPowerSpec",
    "FormExpansion",
    "HypothesisError",
    "NotLIntegralError",
    "PreconditionError",
    "Series",
    "VerificationReport",
    "VerificationStatus",
    "__version__",
    "a2_prime_power_sequence",
    "build_cw_claim",
    "build_remark_claim",
    "build_t1_claim",
    "build_t2_claim",
    "build_t3_claim",
    "certificate_line",
    "chan_wang_condition",
    "eta_form",
    "eta_power",
    "euler_product",
    "extract_progression",
    "find_residues",
    "find_w",
    "format_rational",
    "frac_partition_series",
    "is_d_satisfactory",
    "is_prime",
    "kronecker_symbol",
    "legendre_symbol",
    "padic_ord",
    "reduce_mod_prime_power",
    "series_pow_int",
    "series_pow_numerators",
    "series_pow_rational",
    "series_reduce_mod",
    "sharpness_probe",
    "verify_claim",
]
