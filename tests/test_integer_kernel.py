"""The integer kernels against their reference implementations.

enumerate_families, index_of_family_weighted, minimal_discrepancy and
inf_lsft work on integer numerators; index_of_family_chart,
rs_index_factor, discrepancy_oracle and chart_element_value are the
per-element Fraction references.  assemble_e1, which bounds each orbit
tower by the degree in integers, is checked against a page built from a
period bound derived a priori and the Fraction product N * period, and
engines_agree, which compares the diagonal-path engine with the tower
numerators in integers, against the Fraction comparison over
enumerate_families; changing any one entry of the table must make that
cross-check fail.  engines_agree runs the engine once per stratum and
checks its own loop shift; reference_engines_agree_per_loop, which reruns
it for every loop count, must give the same answer on every changed
table and period bound.  Moving one chart tail weight of a weighted
action must make `verify` exit 2, 1 or 0 as the Fraction references and a
search over every unit of Z_m for the chart's twin predict, and written
as a presentation the moved action must exit 2 or 0, never 1.  The tower table
decides admissibility from each stratum's chart; on weighted actions,
where the strata are nested, it must agree with the global rule
admissible_partial_multiples.
from_weighted_action and admissible_partial_multiples, which work over
divisors, are checked against the scans over every order they replaced.
Inputs are generated: weighted actions with entries up to 500 and
orbifold point cones with non-integral r.  On both, `verify` must hold
the identity 2*md = inf lSFT = sh_min + n - 3 and exit 0, also with an
unnamed copy of a point cone's chart under a unit of Z_m; moving a tail
weight of that copy must exit 2 unless it still has a twin.  format_ratio,
the integer rule every page degree is rendered by, is checked against
the reduced Fraction, and the CLI's family renderer, which reduces with
gcd(k, |G|) and the one gcd(lsft_num, D), against the family's Fractions.
"""

import io
import json
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from math import floor, gcd, lcm
from typing import NamedTuple

import pytest

from fanocone import cli, cone_model, reeb_orbits
from fanocone.cli import EXIT_IDENTITY, EXIT_INPUT, EXIT_OK
from fanocone.cone_model import WeightedAction, from_weighted_action, presentation_to_dict
from fanocone.discrepancy import (
    InvalidPresentation,
    chart_element_value,
    discrepancy_oracle,
    minimal_discrepancy,
)
from fanocone.reeb_orbits import (
    admissible_partial_multiples,
    engines_agree,
    enumerate_families,
    index_of_family_chart,
    index_of_family_weighted,
    inf_lsft,
    tower_table,
)
from fanocone.rationals import format_ratio, format_rational
from fanocone.ss_engine import E1Entry, assemble_e1
from fanocone.sympath_index import rs_index_factor

from corpus import orbifold_point_cone

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

MAX_PERIOD = 3
SETTINGS = settings(max_examples=25, deadline=None)
degree_bounds = st.fractions(min_value=-4, max_value=40, max_denominator=6)

weight_vectors = (
    st.integers(2, 4)
    .flatmap(lambda n: st.lists(st.integers(1, 500), min_size=n, max_size=n))
    .filter(lambda a: gcd(*a) == 1)
)
# For properties that run a check many times per example.
small_weight_vectors = (
    st.integers(2, 4)
    .flatmap(lambda n: st.lists(st.integers(1, 24), min_size=n, max_size=n))
    .filter(lambda a: gcd(*a) == 1)
)


def _tail_entry(m):
    # 0 or a unit mod m, as orbifold_point_cone requires.
    return st.integers(0, m - 1).filter(lambda t: t == 0 or gcd(t, m) == 1)


@st.composite
def point_cones(draw):
    n = draw(st.integers(2, 4))
    den = draw(st.integers(2, 12))
    num = draw(st.integers(1, 120).filter(lambda x: x % den != 0))
    charts = []
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.integers(2, 60))
        charts.append((m, tuple(draw(_tail_entry(m)) for _ in range(n - 1))))
    (m, tail), extra = charts[0], charts[1:]
    return orbifold_point_cone(n, m, tail, Fraction(num, den), extra=extra)


class FamilyValues(NamedTuple):
    """The public values of an OrbitFamily, its indices as Fractions."""

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


def public_values(f):
    return FamilyValues(f.isotropy_order, f.k, f.ell, f.component_id, f.period,
                        f.stratum_dim, f.rs, f.lcz, f.z2, f.lsft)


def sort_key(f):
    return (f.period, f.isotropy_order, f.component_id, f.k)


def reference_families(p, max_period):
    """The public values of enumerate_families rebuilt per (stratum, k, ell)
    from the chart engine, keeping k when the chart engine gives its element
    the stratum's own dimension (on these coherent inputs an element that
    fixes more lies in a bigger stratum)."""
    z2 = (p.n - 1) % 2
    principal = p.principal_stratum
    families = []
    for ell in range(1, floor(max_period) + 1):
        idx = index_of_family_chart(p.charts[0], 0, ell, p.r, p.r, p.n)
        families.append(FamilyValues(1, 0, ell, principal.component_id, Fraction(ell),
                                     idx.stratum_dim, idx.rs, idx.lcz, z2, idx.lsft))
    for stratum in p.strata:
        d = stratum.isotropy_order
        if d == 1:
            continue
        chart = p.chart(stratum.chart_ref)
        for k in range(1, d):
            element = index_of_family_chart(chart, k * chart.m // d, 0, p.r, p.r, p.n)
            if element.stratum_dim != stratum.complex_dim:
                continue
            ell = 0
            while ell + Fraction(k, d) <= max_period:
                idx = index_of_family_chart(chart, k * chart.m // d, ell, p.r, p.r, p.n)
                families.append(FamilyValues(d, k, ell, stratum.component_id,
                                             ell + Fraction(k, d), idx.stratum_dim,
                                             idx.rs, idx.lcz, z2, idx.lsft))
                ell += 1
    families.sort(key=sort_key)
    return families


def assert_scans_match_references(p):
    best, minimizers = p.r, []
    for chart in p.charts:
        for k, value in discrepancy_oracle(chart, p.r):
            if value < best:
                best, minimizers = value, [(chart.label, k)]
            elif value == best:
                minimizers.append((chart.label, k))
    result = minimal_discrepancy(p)
    assert result.md == best - 1
    assert result.minimizers == tuple(sorted(minimizers))
    assert result.capped_by_r == (best == p.r)

    lowest = 2 * p.r - 2
    for chart in p.charts:
        for k in range(1, chart.m):
            lowest = min(lowest, 2 * chart_element_value(chart, p.r, k) - 2)
    value = inf_lsft(tower_table(p))
    assert value == lowest and isinstance(value, Fraction)


@SETTINGS
@given(weight_vectors)
def test_weighted_actions_match_references(a):
    w = WeightedAction(tuple(a))
    p = from_weighted_action(w)
    families = enumerate_families(tower_table(p), MAX_PERIOD)
    assert [public_values(f) for f in families] == reference_families(p, MAX_PERIOD)
    for f in families:
        T = f.period
        rs = sum(rs_index_factor(x, T) for x in w.a)
        dim = sum(1 for x in w.a if (x * T).denominator == 1) - 1
        expected = (rs, rs - dim, rs - dim + w.n - 3)
        assert index_of_family_weighted(w, f.isotropy_order, f.k, f.ell) == expected
    assert_scans_match_references(p)


@SETTINGS
@given(point_cones(), st.fractions(min_value=Fraction(1, 7), max_value=4, max_denominator=7))
# Chart orders that divide each other: the element k=2 of the Z_4 point has
# order 2 and still belongs to the Z_4 tower.
@example(orbifold_point_cone(2, 4, (1,), 1, extra=[(2, (1,))]), Fraction(1))
def test_point_cones_match_references(p, max_period):
    # Independent of the chart engine: on a point cone every chart element
    # k of Z_m fixes exactly the zero tail directions, which is the
    # dimension of the chart's own stratum, so every k is in its tower.
    table = tower_table(p)
    assert [column.ks for column in table.strata[1:]] == [
        list(range(1, s.isotropy_order)) for s in p.strata if s.isotropy_order > 1
    ]
    families = enumerate_families(table, max_period)
    assert [public_values(f) for f in families] == reference_families(p, max_period)
    assert_scans_match_references(p)


def reference_page(p, max_degree):
    """E1 entries of degree <= max_degree from enumerate_families up to a
    period bound derived a priori: every ell = 0 family has lcz > 1 - n
    (its chart element value is positive) and each loop adds 2R.  Built on
    Fractions, then keyed by the degree's numerator over L, the lcm of the
    towers' denominators (den(r), and m*den(r) per stratum chart); returns
    L and the entries."""
    bound = 2 + floor((max_degree + p.n - 1) / (2 * p.r))
    strata = {(s.isotropy_order, s.component_id): s for s in p.strata}
    entries = {}
    for f in enumerate_families(tower_table(p), max(bound, 1)):
        betti = strata[(f.isotropy_order, f.component_id)].betti
        for j, bj in enumerate(betti):
            if bj and f.lcz + j <= max_degree:
                key = (p.isotropy_lcm * f.period, f.lcz + j, (p.n - 1 + j) % 2)
                entries.setdefault(key, []).append(E1Entry(bj, f, j))
    L = lcm(*(p.r.denominator * (p.chart(s.chart_ref).m if s.isotropy_order > 1 else 1)
              for s in p.strata))
    page = {}
    for (filtration, degree, z2), val in entries.items():
        assert filtration.denominator == 1 and (degree * L).denominator == 1
        page[(int(filtration), int(degree * L), z2)] = tuple(val)
    return L, page


def assert_page_matches_reference(p, max_degree):
    page = assemble_e1(tower_table(p), max_degree)
    assert (page.L, page.entries) == reference_page(p, max_degree)


@SETTINGS
@given(weight_vectors, degree_bounds)
def test_weighted_e1_page_is_complete(a, max_degree):
    assert_page_matches_reference(from_weighted_action(WeightedAction(tuple(a))), max_degree)


@SETTINGS
@given(point_cones(), degree_bounds)
# r = 1/10^6 on the chart (3; 1, 1): L = 3*10^6, and the bound, just above
# 1 - n, keeps the first five loops of the principal tower.
@example(orbifold_point_cone(2, 3, (1,), Fraction(1, 10**6)), Fraction(-99999, 100000))
def test_point_cone_e1_page_is_complete(p, max_degree):
    assert_page_matches_reference(p, max_degree)


def assert_families_render_their_fractions(p):
    for f in enumerate_families(tower_table(p), MAX_PERIOD):
        assert cli._family_row(f) == (f.isotropy_order, f.k, f.ell) + tuple(
            format_rational(x) for x in (f.period, f.rs, f.lcz, f.lsft))


@SETTINGS
@given(weight_vectors)
def test_weighted_families_render_their_fractions(a):
    assert_families_render_their_fractions(from_weighted_action(WeightedAction(tuple(a))))


@SETTINGS
@given(point_cones())
def test_point_cone_families_render_their_fractions(p):
    assert_families_render_their_fractions(p)


def reference_realized_orders(a):
    """from_weighted_action's stratum orders by the scan of every d <= max(a)."""
    out = {}
    for d in range(1, max(a) + 1):
        axes = [i for i, ai in enumerate(a) if ai % d == 0]
        if axes and gcd(*[a[i] for i in axes]) == d:
            out[d] = len(axes) - 1
    return out


@SETTINGS
@given(weight_vectors)
def test_weighted_strata_match_the_scan_over_all_orders(a):
    p = from_weighted_action(WeightedAction(tuple(a)))
    assert {s.isotropy_order: s.complex_dim for s in p.strata} == reference_realized_orders(a)
    assert [s.isotropy_order for s in p.strata] == sorted(reference_realized_orders(a))


def reference_admissible(orders, d):
    """admissible_partial_multiples testing each k against every smaller order."""
    smaller = [dp for dp in orders if dp < d and d % dp == 0]
    return [k for k in range(1, d)
            if not any(dp % (d // gcd(k, d)) == 0 for dp in smaller)]


@SETTINGS
@given(st.integers(1, 2000), st.lists(st.integers(1, 2000), max_size=8))
def test_admissible_partial_multiples_match_the_pairwise_test(d, others):
    # Orders that divide d, as in a stratification, and arbitrary ones.
    orders = sorted({1, d} | {gcd(x, d) for x in others} | set(others))
    assert admissible_partial_multiples(orders, d) == reference_admissible(orders, d)


def reference_engines_agree(p, w):
    """The diagonal-path engine against the Fraction indices of every family
    with period <= 3."""
    return all(index_of_family_weighted(w, f.isotropy_order, f.k, f.ell)
               == (f.rs, f.lcz, f.lsft) for f in enumerate_families(tower_table(p), MAX_PERIOD))


@SETTINGS
@given(weight_vectors, st.booleans(), st.data())
def test_integer_cross_check_matches_fraction_comparison(a, perturb, data):
    w = WeightedAction(tuple(a))
    p = from_weighted_action(w)
    movable = [c for c in p.charts if c.m > 1]
    if perturb and movable:
        # Move one tail weight of one chart; fiber weights stay units.
        chart = data.draw(st.sampled_from(movable))
        i = data.draw(st.integers(1, p.n - 1))
        new = data.draw(st.integers(0, chart.m - 1).filter(lambda x: x != chart.weights[i]))
        weights = chart.weights[:i] + (new,) + chart.weights[i + 1:]
        charts = tuple(replace(c, weights=weights) if c is chart else c for c in p.charts)
        p = replace(p, charts=charts)
    try:
        expected = reference_engines_agree(p, w)
    except InvalidPresentation:
        # The moved weight changed an element's fixed dimension.
        with pytest.raises(InvalidPresentation):
            engines_agree(tower_table(p), w, MAX_PERIOD)
        return
    assert engines_agree(tower_table(p), w, MAX_PERIOD) is expected
    if not (perturb and movable):
        assert expected


@SETTINGS
@given(weight_vectors)
def test_chart_local_admissibility_matches_the_global_rule(a):
    p = from_weighted_action(WeightedAction(tuple(a)))
    table = tower_table(p)
    assert [column.stratum for column in table.strata] == (
        [p.principal_stratum] + [s for s in p.strata if s.isotropy_order != 1])
    for column in table.strata[1:]:
        d = column.stratum.isotropy_order
        assert list(column.ks) == admissible_partial_multiples(p.isotropy_orders, d)


def _changed_tables(table):
    """(table with one entry changed, a period bound covering that entry):
    every lsft0 entry, bounded by the period of its tower's first loop,
    and each column's D, shift and stratum dimension, bounded by 3.  One
    more change per column moves the dimension and every lsft0 entry
    together so that rs stays the same and only lcz and lsft change, and
    one moves n and every lsft0 entry so that only lsft changes."""
    p = table.presentation
    yield table._replace(presentation=replace(p, n=p.n + 1), strata=tuple(
        column._replace(lsft0=[v + column.D for v in column.lsft0])
        for column in table.strata)), MAX_PERIOD
    for i, column in enumerate(table.strata):
        d = column.stratum.isotropy_order
        more = replace(column.stratum, complex_dim=column.stratum.complex_dim + 1)
        variants = [
            (column._replace(D=column.D + 1), MAX_PERIOD),
            (column._replace(shift=column.shift + 1), MAX_PERIOD),
            (column._replace(stratum=more), MAX_PERIOD),
            (column._replace(stratum=more, lsft0=[v - column.D for v in column.lsft0]),
             MAX_PERIOD),
        ]
        for j, k in enumerate(column.ks):
            lsft0 = list(column.lsft0)
            lsft0[j] += 1
            variants.append((column._replace(lsft0=lsft0), Fraction(k, d) if k else 1))
        for variant, max_period in variants:
            strata = table.strata[:i] + (variant,) + table.strata[i + 1:]
            yield table._replace(strata=strata), max_period


@SETTINGS
@given(st.integers(2, 4)
       .flatmap(lambda n: st.lists(st.integers(1, 24), min_size=n, max_size=n))
       .filter(lambda a: gcd(*a) == 1))
def test_cross_check_fails_on_any_changed_table_entry(a):
    w = WeightedAction(tuple(a))
    table = tower_table(from_weighted_action(w))
    assert engines_agree(table, w, MAX_PERIOD)
    for changed, max_period in _changed_tables(table):
        assert not engines_agree(changed, w, max_period)


def _diagonal_path_columns(w, d, ell, ks):
    """The sums over the weights a of w of floor(a*t/d) and of ceil(a*t/d)
    with t = ell*d + k, for each k in ks, one weight column at a time."""
    turns = [ell * d + k for k in ks]
    up = d - 1
    low = [0] * len(turns)
    high = [0] * len(turns)
    for a in w.a:
        low = [x + a * t // d for x, t in zip(low, turns)]
        high = [x + (a * t + up) // d for x, t in zip(high, turns)]
    return low, high


def reference_engines_agree_per_loop(table, w, max_period):
    """engines_agree running the diagonal-path engine afresh for every loop
    count ell, from a*(ell*d + k), over the k with ell + k/d <= max_period:
    it reads the table's shift only as ell*shift, never as the engine's own
    loop shift."""
    max_period = Fraction(max_period)
    top, bottom = max_period.numerator, max_period.denominator
    n = table.presentation.n
    size = len(w.a)
    if size != n:
        return False
    for column in table.strata:
        d = column.stratum.isotropy_order
        D = column.D
        dim = column.stratum.complex_dim
        for ell in range(column.first_ell, top // bottom + 1):
            count = bisect_right(column.ks, (top * d - ell * d * bottom) // bottom)
            if count == 0:
                break
            offset = (dim + 3 - n) * D + ell * column.shift
            low, high = _diagonal_path_columns(w, d, ell, column.ks[:count])
            if any(y - x != size - dim - 1 for x, y in zip(low, high)) or any(
                (x + y) * D - v != offset for x, y, v in zip(low, high, column.lsft0)
            ):
                return False
    return True


def move_tail_weight(p, move):
    """p with tail weight i of the chart labelled label set to new, for
    move = (label, i, new); p itself when move is None."""
    if move is None:
        return p
    label, i, new = move
    return replace(p, charts=tuple(
        replace(c, weights=c.weights[:i] + (new,) + c.weights[i + 1:]) if c.label == label
        else c for c in p.charts))


@st.composite
def moved_tail_weights(draw, vectors):
    """(a, move): a weight vector and a move of one tail weight of one chart
    of order m > 1 of its presentation to another residue mod m; fiber
    weights stay units."""
    a = draw(vectors)
    p = from_weighted_action(WeightedAction(tuple(a)))
    movable = [c for c in p.charts if c.m > 1]
    assume(movable)
    chart = draw(st.sampled_from(movable))
    i = draw(st.integers(1, p.n - 1))
    new = draw(st.integers(0, chart.m - 1).filter(lambda x: x != chart.weights[i]))
    return a, (chart.label, i, new)


# Bounds where only the first loop of each tower is in range (below 1 for
# the non-principal strata, below 2 for the principal one) and beyond.
PERIOD_BOUNDS = [Fraction(x, 2) for x in range(1, 9)] + [Fraction(1, 3)]


@SETTINGS
@given(moved_tail_weights(small_weight_vectors), st.booleans(), st.sampled_from([3, 1024]))
def test_one_pass_cross_check_matches_the_per_loop_reference(case, perturb, chunk):
    a, move = case
    w = WeightedAction(tuple(a))
    # A moved tail weight can leave an element with the wrong dimension,
    # which tower_table rejects.
    p = move_tail_weight(from_weighted_action(w), move if perturb else None)
    try:
        table = tower_table(p)
    except InvalidPresentation:
        return
    variants = [(table, MAX_PERIOD)] + list(_changed_tables(table))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reeb_orbits, "_ENGINE_CHUNK", chunk)
        for variant, own_bound in variants:
            for max_period in PERIOD_BOUNDS + [own_bound]:
                assert engines_agree(variant, w, max_period) == (
                    reference_engines_agree_per_loop(variant, w, max_period))


def reference_md(p):
    """The minimal discrepancy by the per-element Fraction scan of every chart."""
    values = [value for chart in p.charts for _, value in discrepancy_oracle(chart, p.r)]
    return min([p.r] + values) - 1


def reference_twinless_charts(p):
    """Labels of the charts of order m > 1 that no stratum names and that no
    named chart of order M divisible by m matches, reduced mod m, under any
    unit u of Z_m: every weight times u, the same fibre weight and the same
    tail multiset."""
    named = {s.chart_ref for s in p.strata}
    twinless = []
    for c in p.charts:
        if c.m == 1 or c.label in named:
            continue
        images = [(u * c.weights[0] % c.m, sorted(u * w % c.m for w in c.weights[1:]))
                  for u in range(1, c.m) if gcd(u, c.m) == 1]
        if not any((t.weights[0] % c.m, sorted(w % c.m for w in t.weights[1:])) in images
                   for t in p.charts if t.label in named and t.m % c.m == 0):
            twinless.append(c.label)
    return twinless


@SETTINGS
@given(case=moved_tail_weights(small_weight_vectors))
# (1, 2, 2): the Z_2 chart axis3, which no stratum names, is a copy of
# axis2; any move of its tail leaves it without a twin (exit 2).
# (2, 3, 3): moving axis2, the Z_3 stratum's own chart, leaves its copy
# axis3 without a twin (exit 2).
@example(case=([1, 2, 2], ("axis3", 1, 0)))
@example(case=([1, 2, 2], ("axis3", 2, 1)))
@example(case=([2, 3, 3], ("axis2", 1, 2)))
# (4, 2, 1): axis2 (2; 1,0,1) is axis1 (4; 1,2,3), the chart the Z_2
# stratum names, reduced mod 2; moving its tail leaves it without a twin.
@example(case=([4, 2, 1], ("axis2", 1, 1)))
def test_moved_chart_weight_exits_as_the_references_predict(tmp_path_factory, case):
    a, move = case
    w = WeightedAction(tuple(a))
    moved = move_tail_weight(from_weighted_action(w), move)
    if reference_twinless_charts(moved):
        expected = EXIT_INPUT
    else:
        try:
            engines_ok = reference_engines_agree(moved, w)
        except InvalidPresentation as exc:
            # Every chart has a twin, so only an element's dimension is wrong.
            assert "gives dimension" in str(exc)
            expected = EXIT_INPUT
        else:
            # The first loop of every tower has period <= 1, and loops climb.
            lowest = min(f.lsft for f in reference_families(moved, 1))
            identity_ok = 2 * reference_md(moved) == lowest
            expected = EXIT_OK if engines_ok and identity_ok else EXIT_IDENTITY
    path = tmp_path_factory.mktemp("moved") / "input.json"
    path.write_text(json.dumps({"format": "fanocone/1", "kind": "weighted_action",
                                "weights": a}))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        # The CLI builds InputData(moved, w): the chart engine reads the moved
        # chart, the diagonal-path engine the original weights.
        patch.setattr(cone_model, "from_weighted_action", lambda action: moved)
        code = cli.main(["verify", str(path)], out=out, err=err)
    assert code == expected, (out.getvalue(), err.getvalue())
    if code != EXIT_INPUT:
        report = json.loads(out.getvalue())
        assert report["engines_agree"] is engines_ok
        assert report["thm13_holds"] is identity_ok
    # Written as a presentation, the moved action has no diagonal-path engine
    # to disagree with: an accepted input must hold the identity.
    path = tmp_path_factory.mktemp("moved-presentation") / "input.json"
    path.write_text(json.dumps(presentation_to_dict(moved)))
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["verify", str(path)], out=out, err=err)
    assert code in (EXIT_OK, EXIT_INPUT), (out.getvalue(), err.getvalue())
    assert code == (EXIT_INPUT if expected == EXIT_INPUT else EXIT_OK), err.getvalue()


@SETTINGS
@given(st.integers(), st.integers(min_value=1))
@example(0, 7)
@example(-12, 18)
@example(3 * 2**70, 2**66)
@example(-(2**64) - 1, 2**64 + 1)
def test_format_ratio_matches_the_reduced_fraction(num, den):
    f = Fraction(num, den)
    assert format_ratio(num, den) == format_rational(f) == "%d/%d" % (f.numerator, f.denominator)


def assert_verify_holds_the_identity(directory, payload, n):
    path = directory / "input.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["verify", str(path)], out=out, err=err) == 0, err.getvalue()
    report = json.loads(out.getvalue())
    md, lsft, sh_min = (Fraction(report[key]) for key in ("md", "inf_lsft", "sh_min_degree"))
    assert 2 * md == lsft == sh_min + n - 3
    assert report["thm13_holds"] and report["engines_agree"]


@SETTINGS
@given(a=weight_vectors)
# The Z_2 stratum names axis 1's chart (4; 1,2,3); axis 2's chart (2; 1,0,1),
# which no stratum names, is its reduction mod 2.
@example(a=[4, 2, 1])
def test_verify_holds_the_identity_on_weighted_actions(tmp_path_factory, a):
    payload = {"format": "fanocone/1", "kind": "weighted_action", "weights": a}
    assert_verify_holds_the_identity(tmp_path_factory.mktemp("weighted"), payload, len(a))


@SETTINGS
@given(p=point_cones())
def test_verify_holds_the_identity_on_point_cones(tmp_path_factory, p):
    assert_verify_holds_the_identity(
        tmp_path_factory.mktemp("point-cone"), presentation_to_dict(p), p.n)


@SETTINGS
@given(p=point_cones(), data=st.data())
def test_an_unnamed_chart_is_accepted_exactly_when_it_has_a_twin(tmp_path_factory, p, data):
    # A copy of a named chart under a unit u of Z_m is a second point of its
    # stratum, so verify holds the identity.  Moving one tail weight of the
    # copy must exit 2 unless the search over every unit still finds a twin.
    chart = p.chart("p1")
    m = chart.m
    u = data.draw(st.integers(1, m - 1).filter(lambda x: gcd(x, m) == 1))
    copy = replace(chart, weights=tuple(u * w % m for w in chart.weights), label="copy")
    twin = replace(p, charts=p.charts + (copy,))
    assert_verify_holds_the_identity(
        tmp_path_factory.mktemp("twin"), presentation_to_dict(twin), p.n)
    i = data.draw(st.integers(1, p.n - 1))
    new = data.draw(st.integers(0, m - 1).filter(lambda x: x != copy.weights[i]))
    moved = move_tail_weight(twin, ("copy", i, new))
    path = tmp_path_factory.mktemp("moved-copy") / "input.json"
    path.write_text(json.dumps(presentation_to_dict(moved)))
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["verify", str(path)], out=out, err=err)
    assert code == (EXIT_INPUT if reference_twinless_charts(moved) else EXIT_OK), err.getvalue()
