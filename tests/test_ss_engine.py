"""First page assembly, survivor certification, degenerate rank tables."""

from fractions import Fraction

import pytest

from fanocone.cone_model import Stratum, WeightedAction, from_weighted_action
from fanocone.reeb_orbits import inf_lsft, tower_table
from fanocone.ss_engine import (
    CertificationError,
    E1Entry,
    E1Page,
    assemble_e1,
    certify_min_degree,
    degenerate_ranks,
    expected_sh_homology_ball,
)

from corpus import handbuilt_corpus, orbifold_point_cone


def test_page_111():
    p = from_weighted_action(WeightedAction((1, 1, 1)))
    page = assemble_e1(tower_table(p), 9)
    assert page.N == 1
    assert sorted(page.entries) == [(1, 4, 0), (1, 6, 0), (1, 8, 0)]
    for key, entries in page.entries.items():
        assert sum(e.rank for e in entries) == 1
        assert all(key[1] == e.family.lcz + e.homology_degree for e in entries)


def test_page_21():
    p = from_weighted_action(WeightedAction((2, 1)))
    page = assemble_e1(tower_table(p), 8)
    assert page.N == 2
    # Degrees are numerators over L, the lcm of the towers' denominators.
    assert page.L == 2
    assert sorted(page.entries) == [
        (f, degree * page.L, z2) for f, degree, z2 in [(1, 3, 1), (2, 5, 1), (2, 7, 1)]
    ]


def test_page_keys_carry_filtration_and_grade():
    p = from_weighted_action(WeightedAction((3, 2)))
    page = assemble_e1(tower_table(p), 12)
    assert page.N == 6
    for (filt, degree, z2), entries in page.entries.items():
        for e in entries:
            assert filt == 6 * e.family.period
            assert z2 == (p.n - 1 + e.homology_degree) % 2
            assert Fraction(degree, page.L) == e.family.lcz + e.homology_degree
            assert degree <= 12 * page.L
            assert filt > 0


def test_empty_page_below_all_degrees():
    p = from_weighted_action(WeightedAction((1, 1, 1)))
    page = assemble_e1(tower_table(p), 3)
    assert page.entries == {}
    with pytest.raises(CertificationError):
        certify_min_degree(page)
    with pytest.raises(CertificationError):
        degenerate_ranks(page)


def test_certify_needs_an_h0_entry_at_the_minimal_degree():
    # A validated presentation always has one (b0 >= 1); a page built by
    # hand need not.
    p = from_weighted_action(WeightedAction((2, 1)))
    built = assemble_e1(tower_table(p), 3)
    family = built.entries[(1, 3 * built.L, 1)][0].family
    page = E1Page(n=2, N=2, L=1, max_degree=Fraction(4),
                  entries={(1, 4, 0): (E1Entry(rank=1, family=family, homology_degree=1),)})
    with pytest.raises(CertificationError, match="no H_0 entry"):
        certify_min_degree(page)


def test_certify_examples():
    for a, expect in [((1, 1, 1), 4), ((2, 1), 3), ((1, 1, 2), 4)]:
        p = from_weighted_action(WeightedAction(a))
        page = assemble_e1(tower_table(p), expect + 2)
        assert certify_min_degree(page).min_degree == expect


def test_degenerate_towers():
    # (2,1): both towers interleave to one rank in each odd degree n+1+2m.
    p = from_weighted_action(WeightedAction((2, 1)))
    profile = degenerate_ranks(assemble_e1(tower_table(p), 15))
    assert profile.degenerate
    assert profile.ranks == {d: 1 for d in range(3, 16, 2)}
    # In increasing degree, which the CLI prints in order.
    assert list(profile.ranks) == sorted(profile.ranks)
    assert profile.min_degree == 3
    # (1,1,2): Z2 tower lcz in {4,12,20,...} and principal {6,8,10},...
    p = from_weighted_action(WeightedAction((1, 1, 2)))
    profile = degenerate_ranks(assemble_e1(tower_table(p), 12))
    assert profile.degenerate
    assert profile.ranks == {d: 1 for d in range(4, 13, 2)}
    # (1,1,1): the smooth tower.
    p = from_weighted_action(WeightedAction((1, 1, 1)))
    profile = degenerate_ranks(assemble_e1(tower_table(p), 10))
    assert profile.ranks == {d: 1 for d in range(4, 11, 2)}


def test_expected_table():
    assert expected_sh_homology_ball(3, 10) == {4: 1, 6: 1, 8: 1, 10: 1}
    assert expected_sh_homology_ball(2, 5) == {3: 1, 5: 1}
    assert expected_sh_homology_ball(4, 4) == {}
    with pytest.raises(ValueError):
        expected_sh_homology_ball(1, 10)


def test_non_monochromatic_page_only_certifies():
    # Give the positive-dimensional stratum odd-degree homology; the page
    # then has both grades and the ranks are not claimed.
    base = orbifold_point_cone(3, 2, (1, 0), 2)
    strata = tuple(
        s if s.isotropy_order == 1 else Stratum(
            isotropy_order=s.isotropy_order,
            component_id=s.component_id,
            complex_dim=s.complex_dim,
            betti=(1, 1, 1),
            chart_ref=s.chart_ref,
        )
        for s in base.strata
    )
    p = type(base)(n=base.n, r=base.r, strata=strata, charts=base.charts)
    page = assemble_e1(tower_table(p), 8)
    assert len({key[2] for key in page.entries}) == 2
    profile = degenerate_ranks(page)
    assert not profile.degenerate
    assert profile.ranks == {}
    assert profile.min_degree == certify_min_degree(page).min_degree


def test_certified_degree_matches_infimum_handbuilt():
    for name, p in handbuilt_corpus():
        target = inf_lsft(tower_table(p)) + 3 - p.n
        page = assemble_e1(tower_table(p), target + 1)
        assert certify_min_degree(page).min_degree == target, name


def test_completeness_under_larger_cutoff():
    # Raising the internal period cutoff (via a larger degree bound and
    # re-truncating) adds no entries below the original bound.
    p = from_weighted_action(WeightedAction((3, 2)))
    small = assemble_e1(tower_table(p), 9)
    large = assemble_e1(tower_table(p), 25)
    assert small.L == large.L
    trimmed = {k: v for k, v in large.entries.items() if k[1] <= 9 * large.L}
    assert trimmed == dict(small.entries)


def test_keys_sorted_order():
    p = from_weighted_action(WeightedAction((2, 1)))
    page = assemble_e1(tower_table(p), 11)
    keys = page.keys_sorted()
    assert keys == sorted(keys, key=lambda key: (key[1], key[0], key[2]))
    assert keys[0][1] == 3 * page.L
