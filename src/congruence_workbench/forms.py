"""Eta powers, rescaled so that every q-exponent is integral.

With g = gcd(d, 24), M = 24/g and t = d/g, the d-th eta power is
expanded as q^t * (q^M; q^M)_inf^d, whose coefficient at n we call
a_d(n).  It is (q; q)_inf^d spread along q^M: a_d(M*n + t) = p_d(n), the
same numbers the partition claims use for alpha = d, so the power comes
from the one recurrence in ``qseries`` (with b = 1, in plain ints), and
one slice assignment writes it into exponents t, t + M, ....

No command computes with the forms' weight, level or character, nor
with Hecke operators; they are a test oracle, ``tests/eigenforms.py``.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .arith import PreconditionError
from .qseries import Series, euler_product, series_pow_int

__all__ = ["EtaPowerSpec", "eta_power"]


class EtaPowerSpec(NamedTuple):
    """Rescaling data for the d-th eta power: M*d = 24*t."""

    d: int
    M: int
    t: int

    @classmethod
    def for_power(cls, d: int) -> "EtaPowerSpec":
        if d < 1:
            raise PreconditionError(
                "eta powers are expanded for d >= 1 only (d <= 0 would need Laurent tails)"
            )
        g = gcd(d, 24)
        return cls(d, 24 // g, d // g)


def eta_power(d: int, prec: int) -> Series:
    """Coefficients a_d(0..prec-1) of the rescaled d-th eta power.

    a_d(M*n + t) = p_d(n), the coefficients of (q; q)_inf^d, and a_d is
    zero off that progression: the power is taken once, by the
    recurrence of ``series_pow_int``, on the unspread product with
    P = ceil((prec - t) / M) terms, and written into exponents t, t + M,
    ... with one slice, which has exactly P places below prec.
    """
    spec = EtaPowerSpec.for_power(d)
    out = [0] * prec
    if prec > spec.t:
        terms = -(-(prec - spec.t) // spec.M)
        out[spec.t :: spec.M] = series_pow_int(euler_product(1, terms), d).coeffs
    return Series(out)
