"""The integer kernels against their Fraction reference implementations.

enumerate_families, index_of_family_weighted, minimal_discrepancy and
inf_lsft work on integer numerators; index_of_family_chart,
rs_index_factor, discrepancy_oracle and chart_element_value are the
per-element Fraction references.  assemble_e1, which takes its period
cutoff from inf_lsft and its filtration index in integers, is checked
against a page built from a period bound derived a priori and the
Fraction product N * period.  Inputs are generated: weighted actions with
entries up to 500 and orbifold point cones with non-integral r.
"""

from fractions import Fraction
from math import floor, gcd

import pytest

from fanocone.cone_model import (
    ChartData,
    ConePresentation,
    Stratum,
    WeightedAction,
    from_weighted_action,
)
from fanocone.discrepancy import (
    chart_element_value,
    discrepancy_oracle,
    minimal_discrepancy,
)
from fanocone.reeb_orbits import (
    OrbitFamily,
    admissible_partial_multiples,
    enumerate_families,
    index_of_family_chart,
    index_of_family_weighted,
    inf_lsft,
)
from fanocone.ss_engine import E1Entry, assemble_e1
from fanocone.sympath_index import rs_index_factor

from corpus import orbifold_point_cone

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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


def reference_families(p, max_period):
    """enumerate_families rebuilt per (stratum, k, ell) from the chart engine."""
    z2 = (p.n - 1) % 2
    principal = p.principal_stratum
    families = []
    for ell in range(1, floor(max_period) + 1):
        idx = index_of_family_chart(p.charts[0], 0, ell, p.r, p.r, p.n)
        families.append(OrbitFamily(1, 0, ell, principal.component_id, Fraction(ell),
                                    idx.stratum_dim, idx.rs, idx.lcz, z2, idx.lsft))
    for stratum in p.strata:
        d = stratum.isotropy_order
        if d == 1:
            continue
        chart = p.chart(stratum.chart_ref)
        for k in admissible_partial_multiples(p.isotropy_orders, d):
            ell = 0
            while ell + Fraction(k, d) <= max_period:
                idx = index_of_family_chart(chart, k * chart.m // d, ell, p.r, p.r, p.n)
                families.append(OrbitFamily(d, k, ell, stratum.component_id,
                                            ell + Fraction(k, d), idx.stratum_dim,
                                            idx.rs, idx.lcz, z2, idx.lsft))
                ell += 1
    families.sort(key=OrbitFamily.sort_key)
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
    value = inf_lsft(p)
    assert value == lowest and isinstance(value, Fraction)


@SETTINGS
@given(weight_vectors)
def test_weighted_actions_match_references(a):
    w = WeightedAction(tuple(a))
    p = from_weighted_action(w)
    families = enumerate_families(p, MAX_PERIOD)
    assert families == reference_families(p, MAX_PERIOD)
    for f in families:
        T = f.period
        rs = sum(rs_index_factor(x, T) for x in w.a)
        dim = sum(1 for x in w.a if (x * T).denominator == 1) - 1
        expected = (rs, rs - dim, rs - dim + w.n - 3)
        assert index_of_family_weighted(w, f.isotropy_order, f.k, f.ell) == expected
    assert_scans_match_references(p)


@SETTINGS
@given(point_cones(), st.fractions(min_value=Fraction(1, 7), max_value=4, max_denominator=7))
def test_point_cones_match_references(p, max_period):
    assert enumerate_families(p, max_period) == reference_families(p, max_period)
    assert_scans_match_references(p)


def reference_page(p, max_degree):
    """E1 entries of degree <= max_degree from enumerate_families up to a
    period bound derived a priori: every ell = 0 family has lcz > 1 - n
    (its chart element value is positive) and each loop adds 2R."""
    bound = 2 + floor((max_degree + p.n - 1) / (2 * p.r))
    strata = {(s.isotropy_order, s.component_id): s for s in p.strata}
    entries = {}
    for f in enumerate_families(p, max(bound, 1)):
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
    assert assemble_e1(p, max_degree).entries == reference_page(p, max_degree)


@SETTINGS
@given(point_cones(), degree_bounds)
def test_point_cone_e1_page_is_complete(p, max_degree):
    assert assemble_e1(p, max_degree).entries == reference_page(p, max_degree)


def test_e1_page_complete_when_inf_lsft_undercuts_every_family():
    # Chart (3; 1,1) that no stratum carries: inf_lsft sees its elements,
    # the enumeration only the principal family, so the cutoff is larger
    # than the families need and must still give the same page.
    chart = ChartData(m=3, weights=(1, 1), label="c")
    p = ConePresentation(n=2, r=Fraction(1), strata=(Stratum(1, "0", 1, (1, 0, 1), "c"),),
                         charts=(chart,))
    assert inf_lsft(p) < min(f.lsft for f in enumerate_families(p, 1))
    for max_degree in (0, 1, 9, Fraction(25, 2)):
        page = assemble_e1(p, max_degree)
        assert page.entries == reference_page(p, max_degree)
    assert page.entries
