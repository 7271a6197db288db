"""Exact rational arithmetic, `fractions.Fraction`, for what is read out.

Input sizes, the bisection's guesses and bounds, certificates, reports and
traces are exact rationals. The bisection and a probe's seed and search
decide on integers instead: the instance keeps one integer image of its
sizes, the bracket is kept as integer numerators over a common denominator
(`rasched.driver`), and loads are sums of the image, which the guess bounds
by integer floor caps (`rasched.model`), so a successful probe builds no
rational size or load.
"""

from __future__ import annotations

from fractions import Fraction as Frac
from math import lcm

BACKEND = "fraction"  # printed by `bench` and the benchmark records

ZERO = Frac(0)


def frac(value):
    """Build a rational from an int, a Fraction or an 'n/d' string; anything
    else, such as a float and its inexact binary value, raises ValueError."""
    if isinstance(value, str):
        return parse_ratio(value)
    if not isinstance(value, (int, Frac)):
        raise ValueError(f"{value!r} is neither an int, a Fraction nor an 'n/d' string")
    return Frac(value)


def parse_ratio(text: str):
    """Parse 'n' or 'n/d' into an exact rational; anything else raises a
    ValueError that quotes the text."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"bad rational {text!r} (expected n or n/d)") from None
    if d == 0:
        raise ValueError(f"zero denominator in ratio {text!r}")
    return Frac(n, d)


def ratio_str(q) -> str:
    """Canonical 'n/d' form (always with an explicit denominator)."""
    return f"{q.numerator}/{q.denominator}"


def integer_image(values):
    """(scale, ints): scale is the lcm of the values' denominators, 1 when
    there are none, and ints[k] = values[k] * scale exactly."""
    values = list(values)
    factor = dict.fromkeys(int(v.denominator) for v in values)
    scale = lcm(*factor)
    for den in factor:
        factor[den] = scale // den
    return scale, [int(v.numerator) * factor[int(v.denominator)] for v in values]
