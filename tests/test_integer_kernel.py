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
cross-check fail.  The tower table decides admissibility from each
stratum's chart; on weighted actions, where the strata are nested, it
must agree with the global rule admissible_partial_multiples.
from_weighted_action and admissible_partial_multiples, which work over
divisors, are checked against the scans over every order they replaced.
Inputs are generated: weighted actions with entries up to 500 and
orbifold point cones with non-integral r.  On both, `verify` must hold
the identity 2*md = inf lSFT = sh_min + n - 3 and exit 0.  format_ratio,
the integer rule every family value is rendered by, is checked against
the reduced Fraction.
"""

import io
import json
from dataclasses import replace
from fractions import Fraction
from math import floor, gcd
from typing import NamedTuple

import pytest

from fanocone import cli
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
from hypothesis import example, given, settings, strategies as st  # noqa: E402

MAX_PERIOD = 3
SETTINGS = settings(max_examples=25, deadline=None)
degree_bounds = st.fractions(min_value=-4, max_value=40, max_denominator=6)

weight_vectors = (
    st.integers(2, 4)
    .flatmap(lambda n: st.lists(st.integers(1, 500), min_size=n, max_size=n))
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
    (its chart element value is positive) and each loop adds 2R."""
    bound = 2 + floor((max_degree + p.n - 1) / (2 * p.r))
    strata = {(s.isotropy_order, s.component_id): s for s in p.strata}
    entries = {}
    for f in enumerate_families(tower_table(p), max(bound, 1)):
        betti = strata[(f.isotropy_order, f.component_id)].betti
        for j, bj in enumerate(betti):
            if bj and f.lcz + j <= max_degree:
                key = (p.isotropy_lcm * f.period, f.lcz + j, (p.n - 1 + j) % 2)
                entries.setdefault(key, []).append(E1Entry(bj, f, j))
    return {key: tuple(val) for key, val in entries.items()}


@SETTINGS
@given(weight_vectors, degree_bounds)
def test_weighted_e1_page_is_complete(a, max_degree):
    p = from_weighted_action(WeightedAction(tuple(a)))
    assert assemble_e1(tower_table(p), max_degree).entries == reference_page(p, max_degree)


@SETTINGS
@given(point_cones(), degree_bounds)
def test_point_cone_e1_page_is_complete(p, max_degree):
    assert assemble_e1(tower_table(p), max_degree).entries == reference_page(p, max_degree)


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
        assert column.mismatch is None


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
def test_verify_holds_the_identity_on_weighted_actions(tmp_path_factory, a):
    payload = {"format": "fanocone/1", "kind": "weighted_action", "weights": a}
    assert_verify_holds_the_identity(tmp_path_factory.mktemp("weighted"), payload, len(a))


@SETTINGS
@given(p=point_cones())
def test_verify_holds_the_identity_on_point_cones(tmp_path_factory, p):
    assert_verify_holds_the_identity(
        tmp_path_factory.mktemp("point-cone"), presentation_to_dict(p), p.n)
