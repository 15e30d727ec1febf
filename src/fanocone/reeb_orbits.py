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

orbit_towers is the integer table all three consumers share: one row
per (stratum, admissible k) plus the principal orbit, with the ell = 0
numerators and the per-loop shift.  enumerate_families reads it up to a
period, the E1 page up to a degree and engines_agree compares it with the
diagonal-path engine.

inf_lsft is the infimum of the lowest SFT degree over all closed orbits,
taken over the chart elements.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cone_model import divisors, validate_presentation
from .discrepancy import InvalidPresentation, _scaled_values, chart_element_value

__all__ = [
    "ChartIndices",
    "OrbitFamily",
    "OrbitTower",
    "admissible_partial_multiples",
    "engines_agree",
    "enumerate_families",
    "index_of_family_chart",
    "index_of_family_weighted",
    "inf_lsft",
    "orbit_towers",
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
    return rs, lcz, lcz + len(w.a) - 3


def admissible_partial_multiples(orders, d):
    """Partial multiples k in 1..d-1 whose group element belongs to no
    smaller isotropy group in the stratification.

    The element k has order d // gcd(k, d); an order is blocked when it
    divides a smaller isotropy order that divides d.
    """
    smaller = [dp for dp in orders if dp < d and d % dp == 0]
    blocked = {e for e in divisors(d) if any(dp % e == 0 for dp in smaller)}
    return [k for k in range(1, d) if d // gcd(k, d) not in blocked]


class OrbitTower(NamedTuple):
    """The families (stratum, k, ell) of one stratum and partial multiple k.

    Loop ell has rs, lcz and lsft equal to (rs0 + ell*shift)/D and so on,
    with D = m*den(r) for the stratum's chart and shift = 2*num(r)*m, the
    numerator of 2R; the principal tower (k = 0, D = den(r)) starts at
    ell = 1, every other tower at ell = 0.  dim is the dimension the chart
    gives the element, which check_dimension compares with the stratum.
    """

    stratum: object
    k: int
    D: int
    shift: int
    rs0: int
    lcz0: int
    lsft0: int
    dim: int

    @property
    def first_ell(self):
        return 0 if self.k else 1

    def check_dimension(self):
        s = self.stratum
        if self.dim != s.complex_dim:
            raise InvalidPresentation(
                [
                    "stratum (|G|=%d, %r): chart %r gives dimension %d for "
                    "element k=%d, stratum records %d"
                    % (s.isotropy_order, s.component_id, s.chart_ref, self.dim,
                       self.k, s.complex_dim)
                ]
            )


def orbit_towers(p):
    """The validated integer tower table: the principal tower first, then
    one tower per stratum and admissible k, in stratum order.

    The ell = 0 numerators come from the chart's per-column scan
    (discrepancy._scaled_values): lsft0 = 2*value - 2*D.
    """
    violations = validate_presentation(p)
    if violations:
        raise InvalidPresentation(violations)
    r = p.r
    n = p.n
    den = r.denominator
    towers = [
        OrbitTower(p.principal_stratum, 0, den, 2 * r.numerator, 0,
                   -(n - 1) * den, -2 * den, n - 1)
    ]
    orders = p.isotropy_orders
    scans = {}
    for stratum in p.strata:
        d = stratum.isotropy_order
        if d == 1:
            continue
        chart = p.chart(stratum.chart_ref)
        m = chart.m
        values = scans.get(chart.label)
        if values is None:
            values = scans[chart.label] = _scaled_values(chart, r)
        D = m * den
        shift = 2 * r.numerator * m
        # The element km fixes the tail coordinate of weight w when the order
        # m // gcd(m, w) divides km, that is divides gcd(km, m).
        tail_orders = [m // gcd(m, w) for w in chart.weights[1:]]
        dims = {g: sum(g % o == 0 for o in tail_orders) for g in divisors(m)}
        for k in admissible_partial_multiples(orders, d):
            km = k * m // d
            dim = dims[gcd(km, m)]
            lsft = 2 * values[km - 1] - 2 * D
            lcz = lsft - (n - 3) * D
            towers.append(OrbitTower(stratum, k, D, shift, lcz + dim * D, lcz, lsft, dim))
    return towers


def _tower_families(p, spans):
    """OrbitFamily for every ell in first_ell <= ell < stop of each
    (tower, stop) pair, sorted by OrbitFamily.sort_key."""
    z2 = (p.n - 1) % 2
    families = []
    for tower, stop in spans:
        stratum, k, D, shift, rs0, lcz0, lsft0, dim = tower
        d = stratum.isotropy_order
        component = stratum.component_id
        for ell in range(tower.first_ell, stop):
            step = ell * shift
            families.append(
                OrbitFamily(
                    isotropy_order=d,
                    k=k,
                    ell=ell,
                    component_id=component,
                    period=Fraction(ell * d + k, d),
                    stratum_dim=dim,
                    rs=Fraction(rs0 + step, D),
                    lcz=Fraction(lcz0 + step, D),
                    z2=z2,
                    lsft=Fraction(lsft0 + step, D),
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


def _period_spans(towers, max_period):
    """(tower, stop) pairs for the loops with period ell + k/|G| <= max_period,
    towers without such a loop left out; a kept tower's dimension is checked."""
    top, bottom = max_period.numerator, max_period.denominator
    spans = []
    for tower in towers:
        d = tower.stratum.isotropy_order
        stop = (top * d - tower.k * bottom) // (bottom * d) + 1
        if stop > tower.first_ell:
            tower.check_dimension()
            spans.append((tower, stop))
    return spans


def enumerate_families(p, max_period):
    """All orbit families with 0 < period <= max_period, indices included,
    read off the tower table."""
    max_period = Fraction(max_period)
    if max_period <= 0:
        raise ValueError("max_period must be positive")
    return _tower_families(p, _period_spans(orbit_towers(p), max_period))


def engines_agree(p, w, max_period):
    """Whether the diagonal-path engine of the weighted action w reproduces
    the tower numerators of every family with period <= max_period.

    The comparison is in integers, rs*D == rs0 + ell*shift and the same for
    lcz and lsft, over the families enumerate_families(p, max_period) lists.
    """
    for tower, stop in _period_spans(orbit_towers(p), Fraction(max_period)):
        stratum, k, D, shift, rs0, lcz0, lsft0, _ = tower
        d = stratum.isotropy_order
        for ell in range(tower.first_ell, stop):
            step = ell * shift
            rs, lcz, lsft = index_of_family_weighted(w, d, k, ell)
            if rs * D != rs0 + step or lcz * D != lcz0 + step or lsft * D != lsft0 + step:
                return False
    return True


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
