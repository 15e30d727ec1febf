"""Weighted projective cohomology tables."""

from math import prod

import pytest

from fanocone.cone_model import WeightedAction, from_weighted_action
from fanocone.orb_topology import wps_cohomology

from corpus import weighted_corpus


def test_wps_cohomology_examples():
    w = WeightedAction((1, 2, 3))
    assert str(wps_cohomology(w, 4)) == "Z"
    assert str(wps_cohomology(w, 6)) == "Z_6"
    assert str(wps_cohomology(w, 1)) == "0"
    with pytest.raises(ValueError):
        wps_cohomology(w, -2)


def test_wps_cohomology_pattern_and_torsion_order():
    for w in [WeightedAction(a) for a in
              [(1, 1), (2, 1), (3, 2), (1, 1, 1), (1, 2, 3), (5, 3, 2),
               (1, 1, 2), (7, 2), (3, 4, 5), (2, 3, 5, 7)]]:
        n = w.n
        for k in range(0, 4 * n):
            piece = wps_cohomology(w, k)
            if k % 2 == 1:
                assert piece.kind == "zero"
            elif k <= 2 * n - 2:
                assert piece.kind == "free" and piece.rank == 1
            else:
                assert piece.kind == "torsion"
                assert piece.order == prod(w.a)


def test_wps_ranks_match_generated_betti():
    for w in weighted_corpus(max_entry=5, dims=(2, 3)):
        p = from_weighted_action(w)
        principal = p.principal_stratum
        for k, b in enumerate(principal.betti):
            assert wps_cohomology(w, k).q_rank == b
