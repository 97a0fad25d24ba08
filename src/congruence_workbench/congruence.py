"""Congruence claims: hypothesis predicates, builders, verifiers, probes.

Five claim families share one shape, "p_alpha(ell^e * n + r) == 0 mod
ell^m for all n":

* ``cw``     -- prime modulus (e = 1, m = 1) under the classical
  divisibility/residue hypotheses for d in {1, 3, 4, 6, 8, 10, 14, 26};
* ``t1``     -- e = 2, m = ord_ell(alpha - d) for d-satisfactory primes;
* ``t2``     -- the d = 2 analogue, one power weaker;
* ``t3``     -- e = w + 1 for the eigenvalue-vanishing index w found by
  :func:`find_w`, valid for every prime;
* ``remark`` -- the (d, ell) in {(14, 5), (26, 11)} variants with the
  modulus lowered by one resp. two powers.

Builders validate every hypothesis eagerly and name the failed one;
verifiers only scan the ell-adic kernel's residues, mod ell^m or, for
sharpness, mod ell^(m+1).  They build a ``Fraction`` only for the one
counterexample or witness value they report, from the exact kernel run
to its index.  Verification is over a finite range and reports
VERIFIED_IN_RANGE, never "proved".
"""

from __future__ import annotations

import json
from enum import Enum
from math import gcd
from typing import NamedTuple

from . import __version__ as _artifact_version
from .arith import (
    PreconditionError,
    _require_prime,
    as_rational,
    check_power_cap,
    format_rational,
    legendre_symbol,
    padic_ord,
)
from .qseries import (  # series_reduce_mod stays bound here: perfbench/tracer.py patches it
    _Value,
    extract_progression,
    frac_partition_series,
    series_pow_residues,
    series_reduce_mod,
)

__all__ = [
    "ClaimFamily",
    "CongruenceClaim",
    "Counterexample",
    "FAMILY_PARAMS",
    "HypothesisError",
    "PrecisionCapExceeded",
    "SharpnessWitness",
    "VerificationReport",
    "VerificationStatus",
    "build_cw_claim",
    "build_remark_claim",
    "build_t1_claim",
    "build_t2_claim",
    "build_t3_claim",
    "certificate_line",
    "certificate_record",
    "chan_wang_condition",
    "find_residues",
    "find_w",
    "is_d_satisfactory",
    "sharpness_probe",
    "verify_claim",
]

CHAN_WANG_D = (1, 3, 4, 6, 8, 10, 14, 26)
CM_D = (4, 6, 8, 10, 14, 26)  # eta^d has complex multiplication
REMARK_PAIRS = ((14, 5), (26, 11))


class ClaimFamily(str, Enum):
    CW = "cw"
    T1 = "t1"
    T2 = "t2"
    T3 = "t3"
    REMARK = "remark"


#: the integer parameters of each family's builder, in order, between alpha and r
FAMILY_PARAMS = {
    ClaimFamily.CW: ("d", "ell"),
    ClaimFamily.T1: ("d", "ell"),
    ClaimFamily.T2: ("ell",),
    ClaimFamily.T3: ("ell", "v"),
    ClaimFamily.REMARK: ("d", "ell"),
}


class VerificationStatus(str, Enum):
    VERIFIED_IN_RANGE = "VERIFIED_IN_RANGE"
    COUNTEREXAMPLE = "COUNTEREXAMPLE"


class HypothesisError(PreconditionError):
    """A named claim hypothesis failed at build time."""

    def __init__(self, hypothesis: str, message: str):
        super().__init__(f"{hypothesis}: {message}")
        self.hypothesis = hypothesis

    def __reduce__(self):
        return type(self), (self.hypothesis, str(self).removeprefix(f"{self.hypothesis}: "))


class PrecisionCapExceeded(PreconditionError):
    """The requested verification needs more series precision than allowed."""


class CongruenceClaim(_Value):
    """p_alpha(ell^e * n + r) == 0 (mod ell^modulus_power) for all n >= 0; equal when every field is."""

    __slots__ = ("family", "alpha", "d", "ell", "e", "r", "modulus_power")

    def __init__(
        self, family: ClaimFamily, alpha, d: int, ell: int, e: int, r: int, modulus_power: int
    ):
        alpha = as_rational(alpha)
        family = ClaimFamily(family)
        for name, value in zip(self.__slots__, (family, alpha, d, ell, e, r, modulus_power)):
            object.__setattr__(self, name, value)
        _require_prime(ell, "claim prime")
        if e < 1 or modulus_power < 1:
            raise PreconditionError("claim requires e >= 1 and modulus_power >= 1")
        if not 0 <= r < ell**e:
            raise PreconditionError(f"claim residue r = {r} outside [0, {ell}^{e})")
        _check_denominator(alpha, ell)

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    @property
    def progression_modulus(self) -> int:
        return self.ell**self.e

    def describe(self) -> str:
        return (
            f"p_{{{format_rational(self.alpha)}}}({self.ell}^{self.e}*n + {self.r}) "
            f"== 0 (mod {self.ell}^{self.modulus_power})"
        )


class Counterexample(NamedTuple):
    n: int
    value: object
    ord: int


class SharpnessWitness(NamedTuple):
    n: int
    value: object


class VerificationReport(NamedTuple):
    claim: CongruenceClaim
    n_max: int
    status: VerificationStatus
    counterexample: Counterexample | None = None


def _inert(d: int, ell: int) -> bool:
    """The table both hypotheses read: ell inert in the CM field of eta^d (ell >= 7 for d = 6, 10)."""
    if d in (4, 8, 14):
        return ell % 6 == 5
    if d in (6, 10):
        return ell >= 7 and ell % 4 == 3
    return ell % 12 == 11  # d == 26


def is_d_satisfactory(d: int, ell: int) -> bool:
    """Residue-class conditions under which a_d vanishes along ell-multiples."""
    _require_prime(ell, "")
    if d == 2:
        return ell % 12 != 1
    if d in CM_D:
        return _inert(d, ell) and (d, ell) not in REMARK_PAIRS
    raise PreconditionError(f"no satisfactory-prime condition for d = {d}")


def chan_wang_condition(d: int, ell: int, r: int) -> bool:
    """The numbered hypothesis on (d, ell, r) for the prime-modulus family."""
    _require_prime(ell, "")
    if r < 0:
        raise PreconditionError("r must be nonnegative")
    if d in (1, 3) and ell == 2:
        # p_1 and p_3 are +-1 and odd at the pentagonal and triangular numbers, of both parities
        return False
    if d == 1:
        return legendre_symbol(24 * r + 1, ell) == -1
    if d == 3:
        return legendre_symbol(8 * r + 1, ell) != 1
    if d in CM_D:
        return _inert(d, ell) and (24 * r + d) % ell == 0
    raise PreconditionError(f"no Chan-Wang condition for d = {d}")


def _check_denominator(alpha, ell: int):
    if alpha.denominator % ell == 0:
        raise HypothesisError(
            "ell_coprime_to_denominator",
            f"{ell} divides denominator({format_rational(alpha)})",
        )


def _canonical_r(r: int, modulus: int) -> int:
    # Inputs outside [0, modulus) are reduced; the quotient folds into n.
    if r < 0:
        raise PreconditionError("r must be nonnegative")
    return r % modulus


def build_cw_claim(alpha, d: int, ell: int, r: int) -> CongruenceClaim:
    """Prime-modulus claim p_alpha(ell*n + r) == 0 (mod ell)."""
    alpha = as_rational(alpha)
    if d not in CHAN_WANG_D:
        raise HypothesisError("d_in_family_list", f"d = {d} not in {CHAN_WANG_D}")
    _check_denominator(alpha, ell)
    a, b = alpha.numerator, alpha.denominator
    if (a - d * b) % ell != 0:
        raise HypothesisError(
            "ell_divides_a_minus_db", f"{ell} does not divide a - d*b = {a - d * b}"
        )
    r0 = _canonical_r(r, ell)
    if not chan_wang_condition(d, ell, r0):
        raise HypothesisError(
            "chan_wang_condition", f"condition for d = {d} fails at (ell, r) = ({ell}, {r0})"
        )
    return CongruenceClaim(ClaimFamily.CW, alpha, d, ell, 1, r0, 1)


def _residue_ord_check(d: int, ell: int, r: int, expected: int, hypothesis: str):
    g = gcd(d, 24)
    value = (24 // g) * r + d // g
    actual = padic_ord(value, ell)
    if actual != expected:
        raise HypothesisError(
            hypothesis,
            f"ord_{ell}((24/gcd)*r + d/gcd) = ord_{ell}({value}) = {actual}, need {expected}",
        )


def _finite_alpha_ord(alpha, d: int, ell: int):
    shifted = alpha - d
    if shifted == 0:
        raise HypothesisError("alpha_distinct_from_d", f"alpha = {d} gives an infinite ord")
    return padic_ord(shifted, ell)


def _squared_claim(family, alpha, d: int, ell: int, r: int, drop: int, hypothesis: str) -> CongruenceClaim:
    """The tail of t1, t2 and remark, once their (d, ell) is admitted: p_alpha(ell^2*n + r) == 0
    (mod ell^(ord_ell(alpha - d) - drop)), refused under the hypothesis name when that is below ell."""
    alpha = as_rational(alpha)
    _check_denominator(alpha, ell)
    r0 = _canonical_r(r, ell**2)
    _residue_ord_check(d, ell, r0, 1, "residue_ord_one")
    v = _finite_alpha_ord(alpha, d, ell)
    if v - drop < 1:
        raise HypothesisError(hypothesis, f"ord_{ell}(alpha - {d}) = {v}, need >= {drop + 1}")
    return CongruenceClaim(family, alpha, d, ell, 2, r0, v - drop)


def build_t1_claim(alpha, d: int, ell: int, r: int) -> CongruenceClaim:
    """Squared-progression claim with modulus ell^(ord_ell(alpha - d))."""
    if d not in CM_D:
        raise HypothesisError("d_in_family_list", f"d = {d} not in {CM_D}")
    if not is_d_satisfactory(d, ell):
        raise HypothesisError("d_satisfactory", f"{ell} is not {d}-satisfactory")
    return _squared_claim(ClaimFamily.T1, alpha, d, ell, r, 0, "alpha_ord_positive")


def build_t2_claim(alpha, ell: int, r: int) -> CongruenceClaim:
    """d = 2 analogue: modulus ell^(ord_ell(alpha - 2) - 1)."""
    if not is_d_satisfactory(2, ell):
        raise HypothesisError("two_satisfactory", f"{ell} == 1 (mod 12) is excluded")
    return _squared_claim(ClaimFamily.T2, alpha, 2, ell, r, 1, "alpha_ord_at_least_two")


def find_w(ell: int, v: int) -> int:
    """Smallest w >= 1 with a_2(ell^w) == 0 (mod ell^v), in closed form.

    a_2 is supported on n == 1 (mod 12), so a_2(ell) = 0 and w = 1 unless
    ell == 1 (mod 12).  There a_2(ell) = +-2 and chi(ell) = 1, so the Hecke
    recursion gives a_2(ell^i) = (+-1)^i (i+1), first divisible by ell^v at
    i = ell^v - 1 (Y. Martin, Multiplicative eta-quotients, Trans. AMS
    1996).  An ell^v above ``MAX_POWER_BITS`` bits is refused.
    """
    if v < 1:
        raise PreconditionError("find_w requires v >= 1")
    _require_prime(ell, "")
    if ell % 12 != 1:
        return 1
    check_power_cap(ell, v, f"find_w({ell}, {v}) + 1")
    return ell**v - 1


def build_t3_claim(alpha, ell: int, v: int, r: int) -> CongruenceClaim:
    """Every-prime claim p_alpha(ell^(w+1)*n + r) == 0 (mod ell^v)."""
    alpha = as_rational(alpha)
    if v < 1:
        raise HypothesisError("v_positive", f"v = {v} must be >= 1")
    _check_denominator(alpha, ell)
    w = find_w(ell, v)
    ord_alpha = _finite_alpha_ord(alpha, 2, ell)
    if ord_alpha != v + w:
        raise HypothesisError(
            "alpha_ord_equals_v_plus_w",
            f"ord_{ell}(alpha - 2) = {ord_alpha}, need v + w = {v} + {w} = {v + w}",
        )
    r0 = _canonical_r(r, ell ** (w + 1))
    _residue_ord_check(2, ell, r0, w, "residue_ord_equals_w")  # ord_ell(12r + 1) = w
    return CongruenceClaim(ClaimFamily.T3, alpha, 2, ell, w + 1, r0, v)


def build_remark_claim(alpha, d: int, ell: int, r: int) -> CongruenceClaim:
    """The excluded-prime variants (d, ell) in {(14, 5), (26, 11)}."""
    if (d, ell) not in REMARK_PAIRS:
        raise HypothesisError(
            "remark_pair", f"(d, ell) = ({d}, {ell}) not in {{(14, 5), (26, 11)}}"
        )
    return _squared_claim(ClaimFamily.REMARK, alpha, d, ell, r, 1 if d == 14 else 2, "modulus_power_positive")


def find_residues(d: int, ell: int, target_ord: int, count: int) -> list[int]:
    """The count smallest r >= 0 with ord_ell((24/g)*r + d/g) exactly target_ord."""
    if target_ord < 1 or count < 1:
        raise PreconditionError("find_residues requires target_ord >= 1 and count >= 1")
    _require_prime(ell, "")
    g = gcd(d, 24)
    m, c = 24 // g, d // g
    if gcd(ell, m) != 1:
        raise PreconditionError(f"{ell} divides the progression step {m}")
    check_power_cap(ell, target_ord, "the residue modulus")
    modulus = ell**target_ord
    r = (-c * pow(m, -1, modulus)) % modulus
    out = []
    while len(out) < count:
        if (m * r + c) % (modulus * ell) != 0:
            out.append(r)
        r += modulus
    return out


def _progression_residues(claim: CongruenceClaim, n_max: int, k: int, max_precision: int | None) -> tuple:
    """The residues mod ell^k of p_alpha(ell^e * n + r) for 0 <= n <= n_max, from the ell-adic kernel."""
    if n_max < 0:
        raise PreconditionError("n_max must be >= 0")
    prec = claim.progression_modulus * n_max + claim.r + 1
    if max_precision is not None and prec > max_precision:
        raise PrecisionCapExceeded(
            f"verifying {claim.describe()} to n_max = {n_max} needs series precision "
            f"{prec}, above the cap {max_precision}"
        )
    residues = series_pow_residues(claim.alpha, claim.ell, k, prec)
    return extract_progression(residues, claim.progression_modulus, claim.r).coeffs


def _exact_value(claim: CongruenceClaim, n: int):
    """p_alpha(ell^e * n + r) as a Fraction, from the exact kernel run only that far."""
    index = claim.progression_modulus * n + claim.r
    return frac_partition_series(claim.alpha, index + 1).coeff(index)


def verify_claim(
    claim: CongruenceClaim, n_max: int, max_precision: int | None = None
) -> VerificationReport:
    """Check the claim for 0 <= n <= n_max by the ell-adic kernel's residues mod ell^modulus_power.

    The first failing n (if any) is reported with the exact coefficient
    and its ell-adic ord, the only Fraction built.  The hypotheses, ell not
    dividing the denominator of alpha among them, are the claim's to check.
    """
    residues = _progression_residues(claim, n_max, claim.modulus_power, max_precision)
    for n, residue in enumerate(residues):
        if residue != 0:
            value = _exact_value(claim, n)
            counterexample = Counterexample(n=n, value=value, ord=padic_ord(value, claim.ell))
            return VerificationReport(claim, n_max, VerificationStatus.COUNTEREXAMPLE, counterexample)
    return VerificationReport(claim, n_max, VerificationStatus.VERIFIED_IN_RANGE)


def sharpness_probe(
    claim: CongruenceClaim, n_max: int, max_precision: int | None = None
) -> SharpnessWitness | None:
    """First n <= n_max whose coefficient has ord exactly modulus_power.

    Such a witness shows the modulus exponent cannot be raised.  None
    means inconclusive: absence of a witness in range proves nothing.
    The ord is exactly m = modulus_power when the residue mod ell^(m+1) is
    nonzero and divisible by ell^m; only the witness's value is built as a
    Fraction.  Like :func:`verify_claim`, it trusts the claim's hypotheses.
    """
    residues = _progression_residues(claim, n_max, claim.modulus_power + 1, max_precision)
    mod = claim.ell**claim.modulus_power
    for n, residue in enumerate(residues):
        if residue and residue % mod == 0:
            return SharpnessWitness(n=n, value=_exact_value(claim, n))
    return None


def certificate_record(report: VerificationReport) -> dict:
    """Certificate fields in fixed order (one JSON object per line)."""
    claim = report.claim
    record = {
        "family": claim.family.value,
        "alpha": format_rational(claim.alpha),
        "d": claim.d,
        "ell": claim.ell,
        "e": claim.e,
        "r": claim.r,
        "modulus_power": claim.modulus_power,
        "n_max": report.n_max,
        "status": report.status.value,
    }
    if report.counterexample is not None:
        ce = report.counterexample
        record["counterexample"] = {"n": ce.n, "value": format_rational(ce.value), "ord": ce.ord}
    record["artifact_version"] = _artifact_version
    return record


def certificate_line(report: VerificationReport) -> str:
    return json.dumps(certificate_record(report), separators=(",", ":"))
