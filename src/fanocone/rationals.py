"""Exact rational helpers: every discrepancy, period and chart-engine index
is a Fraction; the diagonal-path indices, always integral, are ints.

External formats carry rationals as strings "p/q" with q > 0 and the
fraction reduced; no floating point is accepted anywhere.  One rule
renders them: format_ratio reduces an integer pair by its gcd, and
format_rational applies it to an int or a Fraction.  The CLI renders an
orbit family's four values in the same form with two gcds (cli._family_row).
"""

from fractions import Fraction
from math import gcd

__all__ = ["parse_rational", "format_rational"]


def parse_rational(text):
    """Parse "p/q" or "p" into a Fraction. Rejects floats and empty input."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError("rational must be a string like 'p/q', got %r" % (text,))
    s = text.strip()
    if not s or "." in s or "e" in s.lower():
        raise ValueError("not an exact rational: %r" % (text,))
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("not an exact rational: %r" % (text,)) from exc


# format_ratio stays out of __all__, which names the module's layers for the
# benchmark's span tracer (bench/tracer.py): it runs once per rendered value.
def format_ratio(num, den):
    """Render the integers num/den (den >= 1) as "p/q" in lowest terms."""
    g = gcd(num, den)
    return "%d/%d" % (num // g, den // g)


def format_rational(x):
    """Render an int or a Fraction as "p/q" with q > 0 (q printed even when 1)."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError("not an exact rational: %r" % (x,))
    return format_ratio(x.numerator, x.denominator)
