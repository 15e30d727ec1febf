"""Data model: validation, weighted-action derivation, JSON round trips."""

import json
import random
from fractions import Fraction

import pytest

from fanocone.cone_model import (
    ChartData,
    ConePresentation,
    SchemaError,
    Stratum,
    WeightedAction,
    from_weighted_action,
    input_from_dict,
    presentation_to_dict,
    validate_presentation,
)
from fanocone.discrepancy import minimal_discrepancy
from fanocone.rationals import format_rational, parse_rational
from fanocone.reeb_orbits import inf_lsft, tower_table

from corpus import handbuilt_corpus, weighted_corpus


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational("  7/3 ") == Fraction(7, 3)
    for bad in ("", "1.5", "2e3", "1/0", None, 1.5, "x"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_rational_always_prints_denominator():
    assert format_rational(Fraction(2)) == "2/1"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(6, 4)) == "3/2"


def test_format_rational_rejects_anything_but_int_or_fraction():
    assert format_rational(-4) == "-4/1"
    for value in (0.1, 1.0, "1/2", None):
        with pytest.raises(TypeError):
            format_rational(value)


def test_weighted_action_validation():
    assert WeightedAction((2, 1)).n == 2
    with pytest.raises(ValueError):
        WeightedAction(())
    with pytest.raises(ValueError):
        WeightedAction((0, 1))
    with pytest.raises(ValueError):
        WeightedAction((2, 4))  # gcd 2 must be rejected, not normalized


def test_validate_identity_case():
    p = from_weighted_action(WeightedAction((1, 1, 1)))
    assert validate_presentation(p) == []


def test_validate_gcd_violation():
    p = ConePresentation(
        n=2,
        r=Fraction(1),
        strata=(Stratum(1, "0", 1, (1, 0, 1), "c"),),
        charts=(ChartData(m=4, weights=(2, 1), label="c"),),
    )
    assert any("gcd(m,w1)" in v for v in validate_presentation(p))


def test_validate_missing_principal_stratum():
    p = ConePresentation(
        n=2,
        r=Fraction(1),
        strata=(Stratum(2, "a", 0, (1,), "c"),),
        charts=(ChartData(m=2, weights=(1, 1), label="c"),),
    )
    assert any("no isotropy-1 stratum" in v for v in validate_presentation(p))


def test_validate_more_violations():
    p = ConePresentation(
        n=2,
        r=Fraction(-1),
        strata=(
            Stratum(1, "0", 0, (1,), "c"),
            Stratum(3, "a", 0, (1,), "missing"),
        ),
        charts=(
            ChartData(m=2, weights=(1, 1), label="c"),
            ChartData(m=2, weights=(1, 1), label="c"),
        ),
    )
    report = validate_presentation(p)
    assert any("Fano condition" in v for v in report)
    assert any("duplicate chart label" in v for v in report)
    assert any("does not resolve" in v for v in report)
    assert any("complex_dim n-1" in v for v in report)


def test_validate_negative_betti():
    p = ConePresentation(
        n=2,
        r=Fraction(3),
        strata=(Stratum(1, "0", 1, (1, 0, -1), "c"),),
        charts=(ChartData(m=1, weights=(0, 0), label="c"),),
    )
    assert any("betti numbers must be nonnegative" in v for v in validate_presentation(p))


def test_from_weighted_111():
    p = from_weighted_action(WeightedAction((1, 1, 1)))
    assert p.r == 3
    assert len(p.strata) == 1
    s = p.strata[0]
    assert (s.isotropy_order, s.complex_dim, s.betti) == (1, 2, (1, 0, 1, 0, 1))
    assert [c.m for c in p.charts] == [1, 1, 1]


def test_from_weighted_21():
    p = from_weighted_action(WeightedAction((2, 1)))
    assert p.r == 3
    by_order = {s.isotropy_order: s for s in p.strata}
    assert by_order[1].complex_dim == 1 and by_order[1].betti == (1, 0, 1)
    assert by_order[2].complex_dim == 0 and by_order[2].betti == (1,)
    assert p.chart(by_order[2].chart_ref) == ChartData(m=2, weights=(1, 1), label="axis1")


def test_from_weighted_112():
    p = from_weighted_action(WeightedAction((1, 1, 2)))
    assert p.r == 4
    by_order = {s.isotropy_order: s for s in p.strata}
    assert by_order[2].complex_dim == 0
    assert p.chart(by_order[2].chart_ref) == ChartData(m=2, weights=(1, 1, 1), label="axis3")


def test_from_weighted_shared_divisors():
    # Orders realized as gcds of weight subsets, not only single weights.
    p = from_weighted_action(WeightedAction((2, 3, 6)))
    assert p.isotropy_orders == [1, 2, 3, 6]
    dims = {s.isotropy_order: s.complex_dim for s in p.strata}
    assert dims == {1: 2, 2: 1, 3: 1, 6: 0}


def test_weighted_corpus_all_valid():
    for w in weighted_corpus():
        p = from_weighted_action(w)
        assert validate_presentation(p) == []
        assert p.r == sum(w.a)
        for chart in p.charts:
            assert chart.weights[0] == 1 % chart.m


def test_handbuilt_corpus_all_valid():
    cases = handbuilt_corpus()
    assert len(cases) >= 20
    for name, p in cases:
        assert validate_presentation(p) == [], name


def test_permutation_invariance():
    rng = random.Random(20260824)
    for w in rng.sample(weighted_corpus(), 30):
        shuffled = list(w.a)
        rng.shuffle(shuffled)
        p1 = from_weighted_action(w)
        p2 = from_weighted_action(WeightedAction(tuple(shuffled)))
        assert minimal_discrepancy(p1).md == minimal_discrepancy(p2).md
        assert inf_lsft(tower_table(p1)) == inf_lsft(tower_table(p2))


def test_presentation_round_trip():
    for name, p in handbuilt_corpus():
        payload = json.loads(json.dumps(presentation_to_dict(p)))
        back = input_from_dict(payload)
        assert back.presentation == p, name
        assert back.weighted is None


def test_weighted_input_kind():
    data = input_from_dict(
        {"format": "fanocone/1", "kind": "weighted_action", "weights": [2, 1]}
    )
    assert data.weighted == WeightedAction((2, 1))
    assert data.presentation == from_weighted_action(WeightedAction((2, 1)))
    assert data.homology_sphere_link is False


def test_schema_rejections():
    good = {"format": "fanocone/1", "kind": "weighted_action", "weights": [2, 1]}
    with pytest.raises(SchemaError):
        input_from_dict({**good, "extra": 1})
    with pytest.raises(SchemaError):
        input_from_dict({**good, "format": "fanocone/2"})
    with pytest.raises(SchemaError):
        input_from_dict({**good, "weights": [2.0, 1]})
    with pytest.raises(SchemaError):
        input_from_dict({**good, "weights": [2, 4]})
    with pytest.raises(SchemaError):
        input_from_dict({**good, "homology_sphere_link": "yes"})
    with pytest.raises(SchemaError):
        input_from_dict({"format": "fanocone/1", "kind": "mystery"})
    pres = presentation_to_dict(from_weighted_action(WeightedAction((2, 1))))
    with pytest.raises(SchemaError):
        input_from_dict({**pres, "r": 3.0})
    with pytest.raises(SchemaError):
        bad = json.loads(json.dumps(pres))
        bad["charts"][0]["mystery"] = True
        input_from_dict(bad)
