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
the fixed denominator D = m*den(r) of the stratum's chart, and the
diagonal-path indices are integers.  An OrbitFamily keeps its integers:
the numerators of rs, lcz and lsft over its stratum's D, from which its
period, rs, lcz and lsft Fractions are built only when read.
index_of_family_chart, index_of_family_weighted and the sympath_index
factor are the per-family references the kernels are tested against.

tower_table builds the integer table every reader shares, once per
command: per stratum, the partial multiples k of its towers and the
ell = 0 lsft numerators as integer columns, with the per-loop shift.
Whether k belongs to a stratum's tower is decided from the stratum's own
chart: by the number of tail directions its element fixes (Kwon-van
Koert: the families of period k/d are fixed loci).  enumerate_families
reads the table up to a period, the E1 page up to a degree, inf_lsft
takes the minimum of each tower's first loop, and engines_agree compares
it with the diagonal-path engine one weight column at a time.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cone_model import divisors, validate_presentation
from .discrepancy import InvalidPresentation, _scaled_values, chart_element_value

__all__ = [
    "ChartIndices",
    "OrbitFamily",
    "StratumTowers",
    "TowerTable",
    "admissible_partial_multiples",
    "engines_agree",
    "enumerate_families",
    "index_of_family_chart",
    "index_of_family_weighted",
    "inf_lsft",
    "tower_table",
]


@dataclass(frozen=True, slots=True)
class OrbitFamily:
    """The family of period ell + k/|G| on one stratum, with its indices as
    numerators over the stratum's D (m*den(r) for its chart, den(r) on the
    principal stratum).  period, rs, lcz and lsft are the exact Fractions,
    built when read."""

    isotropy_order: int
    k: int
    ell: int
    component_id: str
    stratum_dim: int
    z2: int
    D: int
    rs_num: int
    lcz_num: int
    lsft_num: int

    @property
    def period(self):
        return Fraction(self.ell * self.isotropy_order + self.k, self.isotropy_order)

    @property
    def rs(self):
        return Fraction(self.rs_num, self.D)

    @property
    def lcz(self):
        return Fraction(self.lcz_num, self.D)

    @property
    def lsft(self):
        return Fraction(self.lsft_num, self.D)


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
    divides a smaller isotropy order that divides d.  This global rule is
    right only where the strata are nested, as for weighted actions; the
    tower table decides from the stratum's chart instead, and the tests
    compare the two on weighted actions.
    """
    smaller = [dp for dp in orders if dp < d and d % dp == 0]
    blocked = {e for e in divisors(d) if any(dp % e == 0 for dp in smaller)}
    return [k for k in range(1, d) if d // gcd(k, d) not in blocked]


class StratumTowers(NamedTuple):
    """The orbit towers of one stratum, as integer columns.

    ks lists the stratum's partial multiples k in increasing order, and
    lsft0 the lsft numerator of loop ell = 0 of each.  Loop ell of tower k
    has lsft (lsft0 + ell*shift)/D, lcz that less n - 3 and rs that lcz
    plus the stratum's complex_dim, with D = m*den(r) for the stratum's
    chart and shift = 2*num(r)*m, the numerator of 2R.  The principal
    stratum has the one tower k = 0 over D = den(r), starting at ell = 1;
    every other tower starts at ell = 0.  mismatch is None, or the
    (k, dimension) of the smallest element whose chart dimension
    contradicts the stratum, which a reader raises once it reaches that k.
    """

    stratum: object
    D: int
    shift: int
    ks: list
    lsft0: list
    mismatch: object

    @property
    def first_ell(self):
        return 1 if self.stratum.isotropy_order == 1 else 0

    def check_dimension(self, max_k=None):
        """Raise InvalidPresentation if the mismatched element, if any, has
        k <= max_k (any k when max_k is None)."""
        if self.mismatch is None:
            return
        k, dim = self.mismatch
        if max_k is None or k <= max_k:
            s = self.stratum
            raise InvalidPresentation(
                [
                    "stratum (|G|=%d, %r): chart %r gives dimension %d for "
                    "element k=%d, stratum records %d"
                    % (s.isotropy_order, s.component_id, s.chart_ref, dim, k,
                       s.complex_dim)
                ]
            )


class TowerTable(NamedTuple):
    """The validated presentation and its StratumTowers, the principal
    stratum first, then the other strata in presentation order."""

    presentation: object
    strata: tuple


def _partial_multiples(p, stratum, chart):
    """The stratum's admissible partial multiples and its mismatch.

    Element k of Z_d (d = |G|) is the chart element k*m/d, which fixes the
    tail coordinate of weight w when m // gcd(m, w) divides k*m/d.  The
    count depends only on c = gcd(k, d).  Fixing exactly complex_dim
    directions puts the element in this stratum's tower.  Fixing more puts
    it in the closure of a bigger stratum, which carries the family: one
    whose order is a proper divisor of d and a multiple of the element's
    order d // c, with at least that dimension; if there is none, or the
    element fixes fewer directions, the element is a mismatch.
    """
    d = stratum.isotropy_order
    m = chart.m
    step = m // d
    tail_orders = [m // gcd(m, w) for w in chart.weights[1:]]
    proper = divisors(d)[:-1]
    good = set()
    mismatch = None
    for c in proper:
        fixed = sum(step * c % o == 0 for o in tail_orders)
        if fixed == stratum.complex_dim:
            good.add(c)
        elif fixed < stratum.complex_dim or not any(
            s.complex_dim >= fixed and d % s.isotropy_order == 0
            and s.isotropy_order % (d // c) == 0 and s.isotropy_order < d
            for s in p.strata
        ):
            # The smallest k with gcd(k, d) = c is c itself, and c increases.
            if mismatch is None:
                mismatch = (c, fixed)
    return [k for k in range(1, d) if gcd(k, d) in good], mismatch


def tower_table(p):
    """The validated integer tower table of p, built once per command and
    read by enumerate_families, assemble_e1, inf_lsft and engines_agree.

    The ell = 0 numerators come from the per-column scan of the stratum's
    chart elements k*m/d (discrepancy._scaled_values): lsft0 = 2*value - 2*D.
    """
    violations = validate_presentation(p)
    if violations:
        raise InvalidPresentation(violations)
    r = p.r
    den = r.denominator
    columns = [
        StratumTowers(p.principal_stratum, den, 2 * r.numerator, [0], [-2 * den], None)
    ]
    for stratum in p.strata:
        d = stratum.isotropy_order
        if d == 1:
            continue
        chart = p.chart(stratum.chart_ref)
        m = chart.m
        ks, mismatch = _partial_multiples(p, stratum, chart)
        step = m // d
        elements = [k * step for k in ks]
        D = m * den
        lsft0 = [2 * v - 2 * D for v in _scaled_values(chart, r, elements)]
        columns.append(StratumTowers(stratum, D, 2 * r.numerator * m, ks, lsft0, mismatch))
    return TowerTable(p, tuple(columns))


def _tower_families(table, rows):
    """OrbitFamily for every ell in first_ell <= ell < stop of each
    (column, k, lsft0, stop) row, sorted by period, then isotropy order,
    component and k."""
    n = table.presentation.n
    z2 = (n - 1) % 2
    families = []
    for column, k, lsft0, stop in rows:
        stratum, D, shift = column.stratum, column.D, column.shift
        d = stratum.isotropy_order
        dim = stratum.complex_dim
        component = stratum.component_id
        lcz0 = lsft0 - (n - 3) * D
        rs0 = lcz0 + dim * D
        for ell in range(column.first_ell, stop):
            step = ell * shift
            families.append(
                OrbitFamily(d, k, ell, component, dim, z2, D,
                            rs0 + step, lcz0 + step, lsft0 + step)
            )
    # The period scaled to an integer by the lcm of the isotropy orders,
    # which every period's denominator divides.
    N = table.presentation.isotropy_lcm
    families.sort(
        key=lambda f: (
            f.ell * N + f.k * (N // f.isotropy_order),
            f.isotropy_order,
            f.component_id,
            f.k,
        )
    )
    return families


def enumerate_families(table, max_period):
    """All orbit families with 0 < period <= max_period, indices included,
    read off the tower table.  A stratum's mismatch is raised only when its
    k has a family within max_period."""
    max_period = Fraction(max_period)
    if max_period <= 0:
        raise ValueError("max_period must be positive")
    top, bottom = max_period.numerator, max_period.denominator
    rows = []
    for column in table.strata:
        d = column.stratum.isotropy_order
        column.check_dimension(top * d // bottom)
        for k, lsft0 in zip(column.ks, column.lsft0):
            # One past the last loop with ell + k/d <= max_period; k
            # increases, so stop does not.
            stop = (top * d - k * bottom) // (bottom * d) + 1
            if stop <= column.first_ell:
                break
            rows.append((column, k, lsft0, stop))
    return _tower_families(table, rows)


# engines_agree runs the diagonal-path engine over at most this many k at a
# time, so that its columns stay small whatever the chart order.
_ENGINE_CHUNK = 1024


def _diagonal_path_columns(w, d, ell, ks):
    """The sums over the weights a of w of floor(a*t/d) and of ceil(a*t/d)
    with t = ell*d + k, for each k in ks, one weight column at a time.

    The orbit (d, k, ell) runs for time t/d.  The rotation factor of a
    coordinate (index_of_family_weighted) is 2*whole, plus 1 when the
    coordinate does not close up, which is floor + ceil; so rs = floor +
    ceil, and the number of closed coordinates is len(w.a) - (ceil - floor).
    """
    turns = [ell * d + k for k in ks]
    up = d - 1
    low = [0] * len(turns)
    high = [0] * len(turns)
    for a in w.a:
        low = [x + a * t // d for x, t in zip(low, turns)]
        high = [x + (a * t + up) // d for x, t in zip(high, turns)]
    return low, high


def engines_agree(table, w, max_period):
    """Whether the diagonal-path engine of the weighted action w reproduces
    the tower numerators of every family with period <= max_period.

    For each stratum and loop count ell the engine runs over the column of
    k with ell + k/d <= max_period, from a*(ell*d + k) for this very ell, so
    the table's loop shift is checked, never reused.  The comparison is in
    integers over the families enumerate_families(table, max_period) lists:
    rs*D == rs0 + ell*shift for every k, with rs0 = lcz0 + complex_dim*D.
    The engine's lcz is rs - (closed - 1), so with rs equal,
    lcz*D == lcz0 + ell*shift means closed == complex_dim + 1 for every k;
    and lsft is lcz + len(w.a) - 3 against lcz0 + (n - 3)*D, equal with
    lcz exactly when len(w.a) == n.
    """
    max_period = Fraction(max_period)
    top, bottom = max_period.numerator, max_period.denominator
    n = table.presentation.n
    size = len(w.a)
    if size != n:
        return False
    for column in table.strata:
        d = column.stratum.isotropy_order
        column.check_dimension(top * d // bottom)
        D = column.D
        dim = column.stratum.complex_dim
        for ell in range(column.first_ell, top // bottom + 1):
            count = bisect_right(column.ks, (top * d - ell * d * bottom) // bottom)
            if count == 0:
                break
            # rs*D - lsft0 == rs0 + ell*shift - lsft0 for every k.
            offset = (dim + 3 - n) * D + ell * column.shift
            for start in range(0, count, _ENGINE_CHUNK):
                stop = min(start + _ENGINE_CHUNK, count)
                low, high = _diagonal_path_columns(w, d, ell, column.ks[start:stop])
                lsft0 = column.lsft0[start:stop]
                if (
                    [y - x for x, y in zip(low, high)].count(size - dim - 1) != stop - start
                    or [(x + y) * D - v for x, y, v in zip(low, high, lsft0)].count(offset)
                    != stop - start
                ):
                    return False
    return True


def inf_lsft(table):
    """Exact infimum of the lowest SFT degree over all closed orbits.

    With R > 0 (validated) the loops of a tower only climb, so the infimum
    is a finite minimum over the first loop of each tower,
    (lsft0 + first_ell*shift)/D, compared by cross-multiplication.  Every
    stratum's dimension is checked.
    """
    best, best_D = None, 1
    for column in table.strata:
        column.check_dimension()
        if not column.lsft0:
            continue
        value = min(column.lsft0) + column.first_ell * column.shift
        if best is None or value * best_D < best * column.D:
            best, best_D = value, column.D
    return Fraction(best, best_D)
