"""Exact rational arithmetic backend.

All sizes, loads and thresholds in this package are exact rationals. The
backend is gmpy2.mpq (GMP, compiled) when importable and fractions.Fraction
(pure Python) otherwise; set RASCHED_RATIONAL=fraction|gmpy2 to force one.
Both backends are arbitrary-precision and produce identical comparisons and
identical canonical serializations, so results never depend on the choice.
"""

from __future__ import annotations

import os
from math import lcm

_choice = os.environ.get("RASCHED_RATIONAL", "auto").lower()

if _choice in ("auto", "gmpy2"):
    try:
        from gmpy2 import mpq as Frac  # type: ignore

        BACKEND = "gmpy2"
    except ImportError:
        if _choice == "gmpy2":
            raise
        from fractions import Fraction as Frac  # type: ignore

        BACKEND = "fraction"
elif _choice == "fraction":
    from fractions import Fraction as Frac  # type: ignore

    BACKEND = "fraction"
else:
    raise ValueError(f"unsupported RASCHED_RATIONAL value: {_choice!r}")

ZERO = Frac(0)
ONE = Frac(1)


def frac(numerator, denominator=None):
    """Build a rational from ints, another rational, or a 'n/d' string."""
    if denominator is not None:
        return Frac(numerator, denominator)
    if isinstance(numerator, str):
        return parse_ratio(numerator)
    return Frac(numerator)


def parse_ratio(text: str):
    """Parse 'n' or 'n/d' into an exact rational."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in ratio {text!r}")
        return Frac(int(num), d)
    return Frac(int(text))


def ratio_str(q) -> str:
    """Canonical 'n/d' form (always with an explicit denominator)."""
    return f"{q.numerator}/{q.denominator}"


def as_float(q) -> float:
    return q.numerator / q.denominator


def integer_image(values):
    """(scale, ints): scale is the lcm of the values' denominators, 1 when
    there are none, and ints[k] = values[k] * scale exactly."""
    values = list(values)
    scale = lcm(*(int(v.denominator) for v in values))
    return scale, [int(v.numerator) * (scale // int(v.denominator)) for v in values]
