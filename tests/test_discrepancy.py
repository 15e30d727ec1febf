"""Minimal discrepancy: closed form, brute-force oracle, upper bound."""

import random
from fractions import Fraction
from math import gcd

import pytest

from fanocone.cone_model import (
    ChartData,
    ConePresentation,
    Stratum,
    WeightedAction,
    from_weighted_action,
)
from fanocone.discrepancy import (
    DiscrepancyResult,
    InvalidPresentation,
    chart_element_value,
    discrepancy_oracle,
    minimal_discrepancy,
    shokurov_check,
)

from corpus import handbuilt_corpus, orbifold_point_cone, veronese_cone


def test_oracle_examples():
    c = ChartData(m=2, weights=(1, 1), label="c")
    assert discrepancy_oracle(c, Fraction(3)) == [(1, Fraction(2))]
    c = ChartData(m=3, weights=(1, 1), label="c")
    assert discrepancy_oracle(c, Fraction(5)) == [(1, Fraction(2)), (2, Fraction(4))]
    c = ChartData(m=1, weights=(0, 0), label="c")
    assert discrepancy_oracle(c, Fraction(7)) == []


def test_weighted_actions_give_smooth_value():
    for a in [(1, 1, 1), (2, 1), (1, 1, 2), (3, 2), (5, 3, 2), (7, 4, 6, 3)]:
        p = from_weighted_action(WeightedAction(a))
        result = minimal_discrepancy(p)
        assert result.md == p.n - 1, a
        assert result.klt


def test_a1_cone():
    p = orbifold_point_cone(2, 2, (1,), 1)
    result = minimal_discrepancy(p)
    assert result.md == 0
    assert result.minimizers == (("p1", 1),)
    # The chart value ties with the bare ratio term at r = 1.
    assert result.capped_by_r
    assert result.klt and result.diagnosis == "klt"


def test_bare_ratio_case():
    # No nontrivial chart elements: the minimum is r alone.
    p = veronese_cone(3, 1)
    result = minimal_discrepancy(p)
    assert result.md == 2 and result.capped_by_r


def test_positive_ratio_forces_klt():
    # Every chart value is at least r/m > 0, so md > -1 whenever r > 0.
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(2, 5)
        r = Fraction(rng.randrange(1, 6), rng.randrange(1, 9))
        p = _presentation_with_charts(n, r, [_random_chart(rng, n, "c0")])
        assert minimal_discrepancy(p).klt


def test_non_klt_diagnosis_rendering():
    bad = DiscrepancyResult(md=Fraction(-3, 2), minimizers=(), capped_by_r=False)
    assert not bad.klt
    assert bad.diagnosis == "non-klt: md = -3/2 <= -1"


def test_invalid_presentation_rejected():
    p = ConePresentation(
        n=2,
        r=Fraction(1),
        strata=(Stratum(2, "a", 0, (1,), "c"),),
        charts=(ChartData(m=2, weights=(1, 1), label="c"),),
    )
    with pytest.raises(InvalidPresentation):
        minimal_discrepancy(p)


def _random_chart(rng, n, label):
    while True:
        m = rng.randrange(1, 51)
        w1 = rng.randrange(m) if m > 1 else 0
        if gcd(m, w1) == 1:
            break
    weights = (w1,) + tuple(rng.randrange(m) for _ in range(n - 1))
    return ChartData(m=m, weights=weights, label=label)


def _presentation_with_charts(n, r, charts):
    # Each chart's centre has isotropy Z_m, so each chart with m > 1 gets a
    # stratum of that order; the minimal discrepancy reads the charts only.
    betti = tuple(1 if j % 2 == 0 else 0 for j in range(2 * n - 1))
    strata = (Stratum(1, "0", n - 1, betti, charts[0].label),) + tuple(
        Stratum(c.m, c.label, 0, (1,), c.label) for c in charts if c.m > 1
    )
    return ConePresentation(n=n, r=Fraction(r), strata=strata, charts=tuple(charts))


def test_randomized_charts_match_oracle_join():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randrange(2, 7)
        r = Fraction(rng.randrange(1, 12), rng.randrange(1, 5))
        charts = [_random_chart(rng, n, "c%d" % i) for i in range(rng.randrange(1, 4))]
        p = _presentation_with_charts(n, r, charts)
        result = minimal_discrepancy(p)
        candidates = [r]
        for chart in charts:
            candidates.extend(v for _, v in discrepancy_oracle(chart, r))
        assert result.md == min(candidates) - 1
        assert result.capped_by_r == (min(candidates) == r)


def test_generator_change_invariance():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(2, 5)
        chart = _random_chart(rng, n, "c0")
        if chart.m == 1:
            continue
        units = [c for c in range(1, chart.m) if gcd(c, chart.m) == 1]
        c = rng.choice(units)
        regenerated = ChartData(
            m=chart.m, weights=tuple((c * w) % chart.m for w in chart.weights), label="c0"
        )
        r = Fraction(rng.randrange(1, 9))
        p1 = _presentation_with_charts(n, r, [chart])
        p2 = _presentation_with_charts(n, r, [regenerated])
        assert minimal_discrepancy(p1).md == minimal_discrepancy(p2).md


def test_element_value_uses_canonical_representatives():
    chart = ChartData(m=5, weights=(2, 3), label="c")
    # k=2: weights (4, 1) in [0, m).
    assert chart.weights_of_power(2) == (4, 1)
    assert chart_element_value(chart, Fraction(2), 2) == Fraction(2 * 4 + 1, 5)


def test_shokurov_examples():
    ok, info = shokurov_check(from_weighted_action(WeightedAction((1, 1, 1))))
    assert ok and info["equality"]
    ok, info = shokurov_check(orbifold_point_cone(2, 2, (1,), 1))
    assert ok and not info["equality"] and info["md"] == 0
    ok, info = shokurov_check(from_weighted_action(WeightedAction((3, 2))))
    assert ok and info["equality"] and info["md"] == 1


def test_shokurov_handbuilt_corpus():
    for name, p in handbuilt_corpus():
        ok, info = shokurov_check(p)
        assert ok, name
        assert not info["equality"], name
