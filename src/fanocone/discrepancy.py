"""Minimal discrepancy of an isolated Fano cone singularity.

The minimum runs over the bare Fano ratio r together with, for every
chart (m; w1,...,wn) and every nontrivial group element k, the weighted
age (1/m)(r*w1(k) + sum_{i>=2} w_i(k)); the minimal discrepancy is that
minimum less 1.  The scan runs over integer numerators on the fixed
denominator m*den(r) of each chart, with one Fraction per chart; the
per-element Fraction oracle is the reference it is tested against.
"""

from dataclasses import dataclass
from fractions import Fraction

from .cone_model import validate_presentation
from .rationals import format_rational

__all__ = [
    "DiscrepancyResult",
    "InvalidPresentation",
    "discrepancy_oracle",
    "minimal_discrepancy",
    "shokurov_check",
]


class InvalidPresentation(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid presentation: " + "; ".join(self.violations))


@dataclass(frozen=True)
class DiscrepancyResult:
    md: Fraction
    minimizers: tuple  # (chart label, k) pairs attaining the minimum
    capped_by_r: bool

    @property
    def klt(self):
        return self.md > -1

    @property
    def diagnosis(self):
        if self.klt:
            return "klt"
        return "non-klt: md = %s <= -1" % format_rational(self.md)


def chart_element_value(chart, r, k):
    """(1/m)(r*w1(k) + sum_{i>=2} w_i(k)) for the k-th power of the generator."""
    w = chart.weights_of_power(k)
    return Fraction(r * w[0] + sum(w[1:]), 1) / chart.m


def discrepancy_oracle(chart, r):
    """All nontrivial group elements of a chart with their exact values."""
    return [(k, chart_element_value(chart, r, k)) for k in range(1, chart.m)]


def _scaled_values(chart, r, ks):
    """m*den(r) times chart_element_value of the chart elements ks, in
    their order, summed one weight column at a time."""
    m = chart.m
    rn, rd = r.numerator, r.denominator
    fiber, *rest = chart.weights
    values = [k * fiber % m * rn for k in ks]
    for w in rest:
        values = [v + k * w % m * rd for v, k in zip(values, ks)]
    return values


def minimal_discrepancy(p):
    """Minimal discrepancy with the full list of minimizing (chart, k) pairs."""
    violations = validate_presentation(p)
    if violations:
        raise InvalidPresentation(violations)
    best = Fraction(p.r)
    minimizers = []
    for chart in p.charts:
        values = _scaled_values(chart, p.r, range(1, chart.m))
        if not values:
            continue
        low = min(values)
        value = Fraction(low, chart.m * p.r.denominator)
        if value < best:
            best = value
            minimizers = []
        if value == best:
            minimizers.extend(
                (chart.label, k) for k, v in enumerate(values, 1) if v == low
            )
    minimizers.sort()
    return DiscrepancyResult(
        md=best - 1,
        minimizers=tuple(minimizers),
        capped_by_r=(best == p.r),
    )


def shokurov_check(p):
    """Check md <= n-1; equality is flagged as the expected-smooth case."""
    result = minimal_discrepancy(p)
    bound = Fraction(p.n - 1)
    ok = result.md <= bound
    equality = result.md == bound
    if not ok:
        report = "bound violated: md = %s > n-1 = %s" % (
            format_rational(result.md),
            format_rational(bound),
        )
    elif equality:
        report = "md = n-1: smoothness expected per the Shokurov bound"
    else:
        report = "md = %s < n-1" % format_rational(result.md)
    return ok, {"ok": ok, "equality": equality, "report": report, "md": result.md}
