"""Morse-Bott families of closed Reeb orbits and their exact indices.

Families are labelled by (G, k, ell, component): an isotropy stratum, a
partial multiple k of the stratum order, and ell full loops; the period
is ell + k/|G| with the principal orbit normalized to period 1.  Two
independent engines compute the indices: a chart engine working from the
cyclic-quotient chart weights (its degrees are the canonical ones, the
trivialization anomaly already folded into the weighted age) and, for
weighted circle actions on C^n, a diagonal-path engine summing one
rotation factor per ambient coordinate.

Both engines run on integers: chart-engine indices are numerators over
the fixed denominator m*den(r) of the stratum's chart, and the
diagonal-path indices are integers.  Fractions are built only for the
returned values.  index_of_family_chart and the sympath_index factor are
the Fraction references the kernels are tested against.

inf_lsft is the infimum of the lowest SFT degree over all closed orbits;
it bounds every family's lsft from below, which is what the E1 page
assembly uses for its period cutoff.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cone_model import validate_presentation
from .discrepancy import (
    InvalidPresentation,
    _scaled_value,
    _scaled_values,
    chart_element_value,
)

__all__ = [
    "ChartIndices",
    "OrbitFamily",
    "admissible_partial_multiples",
    "enumerate_families",
    "index_of_family_chart",
    "index_of_family_weighted",
    "inf_lsft",
]


@dataclass(frozen=True, slots=True)
class OrbitFamily:
    isotropy_order: int
    k: int
    ell: int
    component_id: str
    period: Fraction
    stratum_dim: int
    rs: Fraction
    lcz: Fraction
    z2: int
    lsft: Fraction

    def sort_key(self):
        return (self.period, self.isotropy_order, self.component_id, self.k)


@dataclass(frozen=True)
class ChartIndices:
    rs: Fraction
    lcz: Fraction
    lsft: Fraction
    stratum_dim: int


def index_of_family_chart(chart, k, ell, r, R, n):
    """Chart-engine indices of the family wrapping k/m plus ell full loops.

    k >= m is folded into extra full loops; a multiple of m lands on the
    principal family, whose degree comes from the global formula 2R - 2
    per loop rather than the chart weights.
    """
    r, R = Fraction(r), Fraction(R)
    extra, km = divmod(k, chart.m)
    ell = ell + extra
    if km == 0:
        if ell <= 0:
            raise ValueError("period must be positive")
        rs = 2 * ell * R
        dim = n - 1
        lcz = rs - dim
        return ChartIndices(rs=rs, lcz=lcz, lsft=lcz + n - 3, stratum_dim=dim)
    if ell < 0:
        raise ValueError("negative loop count")
    w = chart.weights_of_power(km)
    lsft0 = 2 * chart_element_value(chart, r, km) - 2
    dim = sum(1 for wi in w[1:] if wi == 0)
    lcz0 = lsft0 - n + 3
    rs0 = lcz0 + dim
    shift = 2 * ell * R
    return ChartIndices(
        rs=rs0 + shift,
        lcz=lcz0 + shift,
        lsft=lsft0 + shift,
        stratum_dim=dim,
    )


def index_of_family_weighted(w, isotropy_order, k, ell):
    """Diagonal-path engine: one rotation factor per ambient coordinate.

    The orbit runs for time T = ell + k/|G| and the j-th coordinate
    rotates with speed a_j; the stratum dimension is the number of
    coordinates closing up, projectivized.  Each factor is
    rs_index_factor(a_j, T) in integers, from divmod(a_j*(ell*|G| + k), |G|)
    for this very (k, ell): the chart engine's loop shift is checked here,
    never reused.  Returns the integers (rs, lcz, lsft).
    """
    if k == 0 and ell == 0:
        raise ValueError("period must be positive")
    if k < 0 or ell < 0 or not (0 <= k < isotropy_order or isotropy_order == 1):
        raise ValueError("invalid signature (k=%d, |G|=%d, ell=%d)" % (k, isotropy_order, ell))
    turns = ell * isotropy_order + k  # T = turns / |G|
    rs = 0
    closed = 0
    for a in w.a:
        whole, part = divmod(a * turns, isotropy_order)
        if part:
            rs += 2 * whole + 1
        else:
            rs += 2 * whole
            closed += 1
    dim = closed - 1
    lcz = rs - dim
    return rs, lcz, lcz + w.n - 3


def admissible_partial_multiples(orders, d):
    """Partial multiples k in 1..d-1 whose group element belongs to no
    smaller isotropy group in the stratification (divisibility test)."""
    out = []
    smaller = [dp for dp in orders if dp < d and d % dp == 0]
    for k in range(1, d):
        element_order = d // gcd(k, d)
        if not any(dp % element_order == 0 for dp in smaller):
            out.append(k)
    return out


def _principal_family(p, ell):
    principal = p.principal_stratum
    n = p.n
    rs = 2 * ell * p.r
    dim = n - 1
    lcz = rs - dim
    return OrbitFamily(
        isotropy_order=1,
        k=0,
        ell=ell,
        component_id=principal.component_id,
        period=Fraction(ell),
        stratum_dim=dim,
        rs=rs,
        lcz=lcz,
        z2=(n - 1) % 2,
        lsft=lcz + n - 3,
    )


def enumerate_families(p, max_period):
    """All orbit families with 0 < period <= max_period, indices included.

    The chart engine in integers: per stratum and partial multiple k, the
    ell = 0 indices are numerators over D = m*den(r) of the stratum's
    chart, and each extra loop adds 2R, the numerator 2*num(r)*m.
    """
    max_period = Fraction(max_period)
    if max_period <= 0:
        raise ValueError("max_period must be positive")
    violations = validate_presentation(p)
    if violations:
        raise InvalidPresentation(violations)
    r = p.r
    n = p.n
    z2 = (n - 1) % 2
    orders = p.isotropy_orders
    top, bottom = max_period.numerator, max_period.denominator
    families = [_principal_family(p, ell) for ell in range(1, top // bottom + 1)]

    for stratum in p.strata:
        d = stratum.isotropy_order
        if d == 1:
            continue
        chart = p.chart(stratum.chart_ref)
        D = chart.m * r.denominator
        shift = 2 * r.numerator * chart.m
        for k in admissible_partial_multiples(orders, d):
            # ell runs over 0 <= ell <= max_period - k/d.
            loops = (top * d - k * bottom) // (bottom * d) + 1
            if loops <= 0:
                continue
            w = chart.weights_of_power(k * chart.m // d)
            dim = w[1:].count(0)
            if dim != stratum.complex_dim:
                raise InvalidPresentation(
                    [
                        "stratum (|G|=%d, %r): chart %r gives dimension %d for "
                        "element k=%d, stratum records %d"
                        % (d, stratum.component_id, chart.label, dim,
                           k, stratum.complex_dim)
                    ]
                )
            lsft = 2 * _scaled_value(r, w) - 2 * D
            lcz = lsft - (n - 3) * D
            rs = lcz + dim * D
            for ell in range(loops):
                step = ell * shift
                families.append(
                    OrbitFamily(
                        isotropy_order=d,
                        k=k,
                        ell=ell,
                        component_id=stratum.component_id,
                        period=Fraction(ell * d + k, d),
                        stratum_dim=dim,
                        rs=Fraction(rs + step, D),
                        lcz=Fraction(lcz + step, D),
                        z2=z2,
                        lsft=Fraction(lsft + step, D),
                    )
                )
    # OrbitFamily.sort_key with the period scaled to an integer by the lcm
    # of the isotropy orders, which every period's denominator divides.
    N = p.isotropy_lcm
    families.sort(
        key=lambda f: (
            f.ell * N + f.k * (N // f.isotropy_order),
            f.isotropy_order,
            f.component_id,
            f.k,
        )
    )
    return families


def inf_lsft(p):
    """Exact infimum of the lowest SFT degree over all closed orbits.

    With R > 0 only the ell = 0 partial orbits and the principal orbit
    compete, so the infimum is a finite minimum: every chart element
    joined with 2R - 2.
    """
    violations = validate_presentation(p)
    if violations:
        raise InvalidPresentation(violations)
    if p.r <= 0:
        raise ValueError("inf requires R > 0")
    best = p.r
    for chart in p.charts:
        values = _scaled_values(chart, p.r)
        if values:
            best = min(best, Fraction(min(values), chart.m * p.r.denominator))
    return 2 * best - 2
