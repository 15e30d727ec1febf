"""Exact rational helpers: every discrepancy, period and chart-engine index
is a Fraction; the diagonal-path indices, always integral, are ints.

External formats carry rationals as strings "p/q" with q > 0 and the
fraction reduced; no floating point is accepted anywhere.
"""

from fractions import Fraction

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


def format_rational(x):
    """Render a Fraction as "p/q" with q > 0 (q printed even when 1)."""
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)
