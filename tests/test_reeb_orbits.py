"""Orbit families and their indices: two engines, shifts, the infimum."""

import random
from fractions import Fraction

import pytest

from fanocone.cone_model import ChartData, WeightedAction, from_weighted_action
from fanocone.discrepancy import InvalidPresentation, minimal_discrepancy
from fanocone.reeb_orbits import (
    admissible_partial_multiples,
    enumerate_families,
    index_of_family_chart,
    index_of_family_weighted,
    inf_lsft,
    tower_table,
)

from corpus import handbuilt_corpus, orbifold_point_cone, weighted_corpus


def test_chart_engine_examples():
    c = ChartData(m=2, weights=(1, 1), label="c")
    idx = index_of_family_chart(c, k=1, ell=0, r=3, R=3, n=2)
    assert (idx.lsft, idx.stratum_dim, idx.lcz, idx.rs) == (2, 0, 3, 3)
    c = ChartData(m=2, weights=(1, 1, 1), label="c")
    idx = index_of_family_chart(c, k=1, ell=0, r=4, R=4, n=3)
    assert idx.lsft == 4
    # k = m is the principal cover: lsft = 2r - 2 regardless of the chart.
    for m, w, r, n in [(2, (1, 1), 3, 2), (3, (1, 2), 5, 2), (4, (1, 3, 2), 7, 3)]:
        c = ChartData(m=m, weights=w, label="c")
        idx = index_of_family_chart(c, k=m, ell=0, r=r, R=r, n=n)
        assert idx.lsft == 2 * r - 2
        assert idx.stratum_dim == n - 1


def test_chart_engine_trivialization_intermediates():
    # The chart-trivialized degree of the generator is 2n-4, that of its
    # m-th power 2*sum(m - w_i) - 2; the anomaly correction reconstructs
    # the canonical value for the generator itself.
    c = ChartData(m=2, weights=(1, 1), label="c")
    n = 2
    lsft_tau = 2 * n - 4
    lsft_tau_power = 2 * sum(c.m - wi for wi in c.weights[1:]) - 2
    idx = index_of_family_chart(c, k=1, ell=0, r=3, R=3, n=n)
    principal = index_of_family_chart(c, k=2, ell=0, r=3, R=3, n=n)
    anomaly = Fraction(principal.lsft - lsft_tau_power, c.m)
    assert idx.lsft == lsft_tau + anomaly


def test_chart_engine_rejects_zero_period():
    c = ChartData(m=2, weights=(1, 1), label="c")
    with pytest.raises(ValueError):
        index_of_family_chart(c, k=0, ell=0, r=3, R=3, n=2)


def test_weighted_engine_examples():
    assert index_of_family_weighted(WeightedAction((1, 1, 1)), 1, 0, 1) == (6, 4, 4)
    assert index_of_family_weighted(WeightedAction((2, 1)), 2, 1, 0) == (3, 3, 2)
    assert index_of_family_weighted(WeightedAction((1, 1, 2)), 2, 1, 0) == (4, 4, 4)


def test_weighted_engine_rejects_zero_period():
    with pytest.raises(ValueError):
        index_of_family_weighted(WeightedAction((2, 1)), 2, 0, 0)


def test_admissible_partial_multiples():
    # Single nontrivial order: everything is admissible.
    assert admissible_partial_multiples([1, 4], 4) == [1, 2, 3]
    # Weights (2,3,6): elements of orders 2 and 3 inside Z6 already appear
    # in the larger strata of orders 2 and 3.
    assert admissible_partial_multiples([1, 2, 3, 6], 6) == [1, 5]
    assert admissible_partial_multiples([1, 2, 3, 6], 3) == [1, 2]
    assert admissible_partial_multiples([1, 2, 3, 6], 2) == [1]


def test_enumerate_families_111():
    p = from_weighted_action(WeightedAction((1, 1, 1)))
    fams = enumerate_families(tower_table(p), 2)
    assert [(f.isotropy_order, f.k, f.ell, f.period) for f in fams] == [
        (1, 0, 1, 1),
        (1, 0, 2, 2),
    ]
    assert fams[0].rs == 6 and fams[0].lcz == 4 and fams[0].lsft == 4
    assert fams[1].rs == 12


def test_enumerate_families_21():
    p = from_weighted_action(WeightedAction((2, 1)))
    fams = enumerate_families(tower_table(p), 1)
    assert [(f.isotropy_order, f.k, f.ell, f.period) for f in fams] == [
        (2, 1, 0, Fraction(1, 2)),
        (1, 0, 1, 1),
    ]
    assert (fams[0].rs, fams[0].lcz, fams[0].lsft) == (3, 3, 2)
    assert (fams[1].rs, fams[1].lcz, fams[1].lsft) == (6, 5, 4)


def test_enumerate_families_small_period_empty():
    p = from_weighted_action(WeightedAction((5, 3)))
    assert enumerate_families(tower_table(p), Fraction(1, 10)) == []
    with pytest.raises(ValueError):
        enumerate_families(tower_table(p), 0)


def test_enumerate_rejects_incoherent_stratum_dims():
    # Record a wrong stratum dimension; the chart engine must catch it.
    base = orbifold_point_cone(3, 2, (1, 0), 2)
    bad_strata = tuple(
        s if s.isotropy_order == 1 else type(s)(
            isotropy_order=s.isotropy_order,
            component_id=s.component_id,
            complex_dim=0,
            betti=(1,),
            chart_ref=s.chart_ref,
        )
        for s in base.strata
    )
    bad = type(base)(n=base.n, r=base.r, strata=bad_strata, charts=base.charts)
    with pytest.raises(InvalidPresentation):
        enumerate_families(tower_table(bad), 1)


def test_inf_lsft_examples():
    assert inf_lsft(tower_table(from_weighted_action(WeightedAction((1, 1, 1))))) == 4
    assert inf_lsft(tower_table(from_weighted_action(WeightedAction((2, 1))))) == 2
    assert inf_lsft(tower_table(from_weighted_action(WeightedAction((3, 2))))) == 2


def _sample_corpus(rng, count):
    weighted = [from_weighted_action(w) for w in rng.sample(weighted_corpus(), count)]
    return weighted + [p for _, p in handbuilt_corpus()]


def test_principal_and_shift_properties():
    rng = random.Random(31)
    for p in _sample_corpus(rng, 40):
        R = Fraction(p.r)
        fams = enumerate_families(tower_table(p), 3)
        base = {}
        for f in fams:
            assert f.z2 == (p.n - 1) % 2
            if f.isotropy_order == 1:
                assert f.rs == 2 * f.ell * R
            key = (f.isotropy_order, f.k, f.component_id)
            if key in base:
                first = base[key]
                assert f.rs - first.rs == 2 * (f.ell - first.ell) * R
                assert f.lcz - first.lcz == 2 * (f.ell - first.ell) * R
            else:
                base[key] = f


def test_monotone_growth_of_the_infimum():
    # The minimum over all families up to four extra loops is already
    # attained at ell = 0 (or the first principal loop).
    rng = random.Random(13)
    for p in _sample_corpus(rng, 25):
        fams = enumerate_families(tower_table(p), 4)
        assert min(f.lsft for f in fams) == inf_lsft(tower_table(p))


def test_dual_engine_agreement_sample():
    rng = random.Random(5)
    for w in rng.sample(weighted_corpus(), 60):
        p = from_weighted_action(w)
        for f in enumerate_families(tower_table(p), 3):
            got = index_of_family_weighted(w, f.isotropy_order, f.k, f.ell)
            assert got == (f.rs, f.lcz, f.lsft), (w.a, f)


def test_identity_with_discrepancy_sample():
    rng = random.Random(77)
    for p in _sample_corpus(rng, 40):
        assert 2 * minimal_discrepancy(p).md == inf_lsft(tower_table(p))
