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
diagonal-path indices are integers.  An OrbitFamily, an immutable
NamedTuple, keeps its integers: the numerators of rs, lcz and lsft over
its stratum's D, from which its period, rs, lcz and lsft Fractions are
built only when read.  Families are built in one place, _tower_families,
already in period order: loop count by loop count, the towers in one
order sorted once on an integer key.
index_of_family_chart, index_of_family_weighted and the sympath_index
factor are the per-family references the kernels are tested against.

tower_table builds the integer table every reader shares, once per
command: per stratum, the partial multiples k of its towers and the
ell = 0 lsft numerators as integer columns, with the per-loop shift.
Whether k belongs to a stratum's tower is decided from the stratum's own
chart: by the number of tail directions its element fixes (Kwon-van
Koert: the families of period k/d are fixed loci), and a chart that
contradicts its stratum is rejected while the table is built
(_check_dimensions runs the same check with no table, for `md`).
enumerate_families reads the table up to a period, the E1 page up to a
degree, inf_lsft takes the minimum of each tower's first loop, and
engines_agree compares it with the diagonal-path engine one weight
column at a time.  The engine runs once per stratum, on the first loop
of each tower; every further loop adds its own shift 2*sum(a) to rs,
which must equal the table's: 2*sum(a)*D == shift, checked in integers.
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


class OrbitFamily(NamedTuple):
    """The family of period ell + k/|G| on one stratum, with its indices as
    numerators over the stratum's D (m*den(r) for its chart, den(r) on the
    principal stratum).  period, rs, lcz and lsft are the exact Fractions,
    built when read.  An immutable, hashable tuple of its ten fields."""

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
    every other tower starts at ell = 0.
    """

    stratum: object
    D: int
    shift: int
    ks: list
    lsft0: list

    @property
    def first_ell(self):
        return 1 if self.stratum.isotropy_order == 1 else 0


class TowerTable(NamedTuple):
    """The validated presentation and its StratumTowers, the principal
    stratum first, then the other strata in presentation order."""

    presentation: object
    strata: tuple


def _admissible_gcds(p, stratum, chart):
    """The gcds c = gcd(k, d) of the stratum's admissible partial multiples
    k, and the proper divisors of d = |G| they are drawn from.

    Element k of Z_d is the chart element k*m/d, which fixes the tail
    coordinate of weight w when m // gcd(m, w) divides k*m/d.  The count
    depends only on c = gcd(k, d).  Fixing exactly complex_dim directions
    puts the element in this stratum's tower.  Fixing more puts it in the
    closure of a bigger stratum, which carries the family: one whose order
    is a proper divisor of d and a multiple of the element's order d // c,
    with at least that dimension.  If there is none, or the element fixes
    fewer directions, the presentation is incoherent, and
    InvalidPresentation names the smallest such k, which is c itself.
    """
    d = stratum.isotropy_order
    m = chart.m
    step = m // d
    tail_orders = [m // gcd(m, w) for w in chart.weights[1:]]
    proper = divisors(d)[:-1]
    good = set()
    for c in proper:
        fixed = sum(step * c % o == 0 for o in tail_orders)
        if fixed == stratum.complex_dim:
            good.add(c)
        elif fixed < stratum.complex_dim or not any(
            s.complex_dim >= fixed and d % s.isotropy_order == 0
            and s.isotropy_order % (d // c) == 0 and s.isotropy_order < d
            for s in p.strata
        ):
            raise InvalidPresentation([
                "stratum (|G|=%d, %r): chart %r gives dimension %d for element k=%d, "
                "stratum records %d"
                % (d, stratum.component_id, stratum.chart_ref, fixed, c, stratum.complex_dim)
            ])
    return good, proper


def _check_dimensions(p):
    """Raise the first stratum/chart dimension mismatch of the validated
    presentation p, in the order tower_table finds it, without building
    any column: the check of `md`, which reads no tower."""
    for stratum in p.strata:
        if stratum.isotropy_order > 1:
            _admissible_gcds(p, stratum, p.chart(stratum.chart_ref))


def tower_table(p):
    """The validated integer tower table of p, built once per command and
    read by enumerate_families, assemble_e1, inf_lsft and engines_agree.

    The one full check of a presentation: validate_presentation, then each
    stratum's chart dimensions in stratum order (_admissible_gcds).  The
    ell = 0 numerators come from the per-column scan of the stratum's chart
    elements k*m/d (discrepancy._scaled_values): lsft0 = 2*value - 2*D.
    """
    violations = validate_presentation(p)
    if violations:
        raise InvalidPresentation(violations)
    r = p.r
    den = r.denominator
    columns = [
        StratumTowers(p.principal_stratum, den, 2 * r.numerator, [0], [-2 * den])
    ]
    for stratum in p.strata:
        d = stratum.isotropy_order
        if d == 1:
            continue
        chart = p.chart(stratum.chart_ref)
        m = chart.m
        good, proper = _admissible_gcds(p, stratum, chart)
        if len(good) == len(proper):
            # Every gcd(k, d) is good, as when the stratum's chart fixes no
            # tail direction at any element: no gcd to take per k.
            ks = list(range(1, d))
        else:
            ks = [k for k in range(1, d) if gcd(k, d) in good]
        step = m // d
        elements = [k * step for k in ks]
        D = m * den
        lsft0 = [2 * v - 2 * D for v in _scaled_values(chart, r, elements)]
        columns.append(StratumTowers(stratum, D, 2 * r.numerator * m, ks, lsft0))
    return TowerTable(p, tuple(columns))


def _tower_families(table, rows):
    """OrbitFamily for every ell in first_ell <= ell < stop of each
    (column, k, lsft0, stop) row, sorted by period, then isotropy order,
    component and k.

    The period ell + k/|G|, scaled to an integer by the lcm N of the
    isotropy orders, is ell*N + k*(N // |G|) with 0 <= k*(N // |G|) < N.  So
    the families come out sorted loop count by loop count, each loop in
    the order of the integer key (k*(N // |G|), |G|, component, k), which is
    the same for every ell: the towers are sorted once, on that key, and
    no family is sorted.
    """
    n = table.presentation.n
    z2 = (n - 1) % 2
    N = table.presentation.isotropy_lcm
    towers = []
    for column, k, lsft0, stop in rows:
        stratum, D = column.stratum, column.D
        d = stratum.isotropy_order
        dim = stratum.complex_dim
        lcz0 = lsft0 - (n - 3) * D
        # The sort key, then first_ell and stop, then the rest of the family.
        towers.append((k * (N // d), d, stratum.component_id, k, column.first_ell, stop,
                       dim, D, column.shift, lcz0 + dim * D, lcz0, lsft0))
    towers.sort()
    families = []
    append = families.append
    ell = 0
    while towers:
        for _, d, component, k, first, _, dim, D, shift, rs0, lcz0, lsft0 in towers:
            if first <= ell:
                step = ell * shift
                append(OrbitFamily(d, k, ell, component, dim, z2, D,
                                   rs0 + step, lcz0 + step, lsft0 + step))
        ell += 1
        towers = [tower for tower in towers if tower[5] > ell]  # ell < stop
    return families


def enumerate_families(table, max_period):
    """All orbit families with 0 < period <= max_period, indices included,
    read off the tower table."""
    max_period = Fraction(max_period)
    if max_period <= 0:
        raise ValueError("max_period must be positive")
    top, bottom = max_period.numerator, max_period.denominator
    rows = []
    for column in table.strata:
        d = column.stratum.isotropy_order
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


def engines_agree(table, w, max_period):
    """Whether the diagonal-path engine of the weighted action w reproduces
    the tower numerators of every family with period <= max_period.

    The engine runs once per stratum, over the column of k whose first loop
    ell = first_ell has ell + k/d <= max_period, one weight column at a
    time.  A coordinate of speed a rotates a*t/d turns with t = ell*d + k;
    its rotation factor (index_of_family_weighted) is 2*whole, plus 1 when
    it does not close up, which is floor + ceil of a*t/d.  So rs = sum of
    floor + ceil, and the number of closed coordinates is len(w.a) less
    (ceil - floor) summed.  The comparison is in integers:
    rs*D == rs0 + ell*shift for every k, with rs0 = lcz0 + complex_dim*D;
    the engine's lcz is rs - (closed - 1), so with rs equal,
    lcz*D == lcz0 + ell*shift means closed == complex_dim + 1 for every k;
    and lsft is lcz + len(w.a) - 3 against lcz0 + (n - 3)*D, equal with
    lcz exactly when len(w.a) == n.

    Every further loop adds a to floor and ceil alike, since
    floor(a*(ell*d + k)/d) = a*ell + floor(a*k/d) exactly.  So the closed
    count does not depend on ell, and loop ell agrees with the table exactly
    when the first loop does and the engine's own loop shift 2*sum(a),
    over D, is the table's: 2*sum(w.a)*D == shift.  That is checked in
    integers whenever a loop after the first is within max_period; the
    table's shift is checked, never reused.
    """
    max_period = Fraction(max_period)
    top, bottom = max_period.numerator, max_period.denominator
    n = table.presentation.n
    size = len(w.a)
    if size != n:
        return False
    loop_shift = 2 * sum(w.a)
    for column in table.strata:
        d = column.stratum.isotropy_order
        D = column.D
        dim = column.stratum.complex_dim
        first = column.first_ell
        # The k with first + k/d <= max_period.
        count = bisect_right(column.ks, (top - first * bottom) * d // bottom)
        if count == 0:
            continue
        # rs*D - lsft0 == rs0 + first*shift - lsft0 for every k.
        offset = (dim + 3 - n) * D + first * column.shift
        up = d - 1
        for start in range(0, count, _ENGINE_CHUNK):
            stop = min(start + _ENGINE_CHUNK, count)
            turns = [first * d + k for k in column.ks[start:stop]]
            low = [0] * len(turns)
            high = [0] * len(turns)
            for a in w.a:
                low = [x + a * t // d for x, t in zip(low, turns)]
                high = [x + (a * t + up) // d for x, t in zip(high, turns)]
            lsft0 = column.lsft0[start:stop]
            if (
                [y - x for x, y in zip(low, high)].count(size - dim - 1) != stop - start
                or [(x + y) * D - v for x, y, v in zip(low, high, lsft0)].count(offset)
                != stop - start
            ):
                return False
        # Loop first + 1 of the smallest k is within max_period.
        if (
            column.ks[0] <= (top - (first + 1) * bottom) * d // bottom
            and loop_shift * D != column.shift
        ):
            return False
    return True


def inf_lsft(table):
    """Exact infimum of the lowest SFT degree over all closed orbits.

    With R > 0 (validated) the loops of a tower only climb, so the infimum
    is a finite minimum over the first loop of each tower,
    (lsft0 + first_ell*shift)/D, compared by cross-multiplication.
    """
    best, best_D = None, 1
    for column in table.strata:
        if not column.lsft0:
            continue
        value = min(column.lsft0) + column.first_ell * column.shift
        if best is None or value * best_D < best * column.D:
            best, best_D = value, column.D
    return Fraction(best, best_D)
