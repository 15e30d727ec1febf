"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

The corpus is every weight vector with n in {2,3,4}, entries at most 8
and gcd 1, plus the hand-built orbifold presentations from corpus.py.
All comparisons are exact rational equalities.
"""

import io
import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from math import prod

from fanocone.cli import main
from fanocone.cone_model import (
    WeightedAction,
    from_weighted_action,
    presentation_to_dict,
)
from fanocone.discrepancy import minimal_discrepancy, shokurov_check
from fanocone.orb_topology import wps_cohomology
from fanocone.reeb_orbits import (
    enumerate_families,
    index_of_family_weighted,
    inf_lsft,
    tower_table,
)
from fanocone.ss_engine import (
    assemble_e1,
    certify_min_degree,
    degenerate_ranks,
    expected_sh_homology_ball,
)
from fanocone.sympath_index import (
    DiagonalPath,
    check_axioms,
    index_bundle,
    rs_crossing_oracle,
)

from corpus import handbuilt_corpus, pairwise_coprime_corpus, weighted_corpus


@lru_cache(maxsize=None)
def weighted_presentations():
    return tuple((w, from_weighted_action(w)) for w in weighted_corpus())


@lru_cache(maxsize=None)
def full_corpus():
    entries = [("weights %s" % (w.a,), p) for w, p in weighted_presentations()]
    entries.extend(handbuilt_corpus())
    return tuple(entries)


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("ACCEPTANCE %2d [%s]: %s%s" % (number, label, status, suffix))
    assert ok, "criterion %d (%s) failed%s" % (number, label, suffix)


def test_criterion_01_weighted_discrepancy():
    start = time.perf_counter()
    failures = []
    for w, p in weighted_presentations():
        if minimal_discrepancy(p).md != w.n - 1:
            failures.append(w.a)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    report(1, "md = n-1 on all weighted actions", ok,
           "%d cases in %.2fs" % (len(weighted_presentations()), elapsed))


def test_criterion_02_discrepancy_lsft_identity():
    failures = []
    handbuilt = 0
    for name, p in full_corpus():
        if 2 * minimal_discrepancy(p).md != inf_lsft(tower_table(p)):
            failures.append(name)
        if not name.startswith("weights"):
            handbuilt += 1
        for f in enumerate_families(tower_table(p), 2):
            if not f.lsft > -2:
                failures.append("%s family %s" % (name, (f.isotropy_order, f.k, f.ell)))
    ok = not failures and handbuilt >= 20
    report(2, "2*md = inf lSFT > -2", ok,
           "%d presentations, %d hand-built" % (len(full_corpus()), handbuilt))


def test_criterion_03_homology_ball_tables():
    start = time.perf_counter()
    cases = list(pairwise_coprime_corpus())
    # The four worked towers, in their stated weight order.
    cases.extend(WeightedAction(a) for a in [(1, 1, 1), (2, 1), (1, 1, 2), (3, 2)])
    failures = []
    for w in cases:
        n = w.n
        bound = 4 * n + 2
        profile = degenerate_ranks(assemble_e1(tower_table(from_weighted_action(w)), bound))
        if not profile.degenerate or profile.ranks != expected_sh_homology_ball(n, bound):
            failures.append(w.a)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    report(3, "SH ranks match the homology-ball table", ok,
           "%d coprime cases in %.2fs" % (len(cases), elapsed))


def test_criterion_04_min_degree_chain():
    failures = []
    for name, p in full_corpus():
        target = inf_lsft(tower_table(p)) + 3 - p.n
        profile = certify_min_degree(assemble_e1(tower_table(p), target + 1))
        if profile.min_degree + p.n - 3 != inf_lsft(tower_table(p)):
            failures.append(name)
    report(4, "certified min degree + n - 3 = inf lSFT", not failures,
           "%d presentations" % len(full_corpus()))


def test_criterion_05_index_engine_duality():
    failures = []
    families = 0
    for w, p in weighted_presentations():
        for f in enumerate_families(tower_table(p), 3):
            families += 1
            got = index_of_family_weighted(w, f.isotropy_order, f.k, f.ell)
            if got != (f.rs, f.lcz, f.lsft):
                failures.append((w.a, f.isotropy_order, f.k, f.ell))
    report(5, "chart and diagonal-path engines agree", not failures,
           "%d families, period <= 3" % families)


def test_criterion_06_rs_normalization_and_axioms():
    failures = []
    grid = 0
    for pnum in range(-3, 4):
        for q in (1, 2, 3):
            for u in range(1, 10):
                for v in (1, 2, 3):
                    t = Fraction(u, v)
                    if t > 3:
                        continue
                    path = DiagonalPath(speeds=(Fraction(pnum, q),), duration=t)
                    grid += 1
                    if index_bundle(path).rs != rs_crossing_oracle(path):
                        failures.append((pnum, q, t))
    rng = random.Random(20260824)
    randomized = 0
    while randomized < 1000:
        batch = []
        for _ in range(4):
            d = rng.randrange(0, 4)
            speeds = tuple(
                Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(d)
            )
            batch.append(DiagonalPath(
                speeds=speeds,
                duration=Fraction(rng.randrange(1, 10), rng.randrange(1, 4)),
            ))
        randomized += len(batch)
        failures.extend(check_axioms(batch))
    ok = not failures and grid >= 200
    report(6, "RS normalization grid and axiom suite", ok,
           "%d grid points, %d randomized paths" % (grid, randomized))


def test_criterion_07_orbit_structure():
    failures = []
    for name, p in full_corpus():
        R = Fraction(p.r)
        base = {}
        for f in enumerate_families(tower_table(p), 3):
            if f.z2 != (p.n - 1) % 2:
                failures.append("%s: z2" % name)
            if f.isotropy_order == 1 and f.rs != 2 * f.ell * R:
                failures.append("%s: principal rs" % name)
            key = (f.isotropy_order, f.k, f.component_id)
            if key in base:
                if f.rs - base[key].rs != 2 * (f.ell - base[key].ell) * R:
                    failures.append("%s: shift" % name)
            else:
                base[key] = f
    report(7, "principal index, loop shift, Z2 grade", not failures,
           "%d presentations" % len(full_corpus()))


def test_criterion_08_wps_cohomology():
    vectors = [(1, 1), (2, 1), (3, 2), (5, 2), (1, 1, 1), (1, 2, 3),
               (5, 3, 2), (1, 1, 2), (3, 4, 5), (2, 3, 5, 7)]
    failures = []
    for a in vectors:
        w = WeightedAction(a)
        n = w.n
        for k in range(0, 4 * n + 1):
            piece = wps_cohomology(w, k)
            if k % 2 == 1:
                good = piece.kind == "zero"
            elif k <= 2 * n - 2:
                good = piece.kind == "free" and piece.rank == 1
            else:
                good = piece.kind == "torsion" and piece.order == prod(a)
            if not good:
                failures.append((a, k))
    report(8, "weighted projective cohomology table", not failures,
           "%d weight vectors" % len(vectors))


def test_criterion_09_shokurov_bound():
    failures = []
    for name, p in full_corpus():
        ok, info = shokurov_check(p)
        if not ok:
            failures.append(name)
        if info["equality"] != name.startswith("weights"):
            failures.append("%s: equality flag" % name)
    report(9, "Shokurov bound with equality only on smooth cones",
           not failures, "%d presentations" % len(full_corpus()))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue()


def test_criterion_10_determinism(tmp_path):
    failures = []
    inputs = []
    for i, (w, _) in enumerate(weighted_presentations()):
        path = tmp_path / ("w%d.json" % i)
        path.write_text(json.dumps(
            {"format": "fanocone/1", "kind": "weighted_action", "weights": list(w.a)}
        ))
        inputs.append(str(path))
    for i, (name, p) in enumerate(handbuilt_corpus()):
        path = tmp_path / ("h%d.json" % i)
        path.write_text(json.dumps(presentation_to_dict(p)))
        inputs.append(str(path))
    for path in inputs:
        runs = [_run(["verify", path]) for _ in range(3)]
        if len({text for _, text in runs}) != 1 or any(code != 0 for code, _ in runs):
            failures.append(("verify", path))
        runs = [_run(["report", path, "--max-degree", "12"]) for _ in range(3)]
        if len({text for _, text in runs}) != 1 or any(code != 0 for code, _ in runs):
            failures.append(("report", path))
    report(10, "verify/report byte-identical across runs", not failures,
           "%d inputs, 3 runs each" % len(inputs))
