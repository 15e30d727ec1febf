"""Command-line contract: payloads, exit codes, determinism, round trips."""

import io
import json
import os
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

import fanocone
from fanocone import cli, cone_model, reeb_orbits, ss_engine
from fanocone.cli import build_verification_report, main
from fanocone.cone_model import (
    MAX_CHART_ORDER,
    ChartData,
    ConePresentation,
    InputData,
    Stratum,
    WeightedAction,
    from_weighted_action,
    input_from_dict,
    presentation_to_dict,
    validate_presentation,
)
from fanocone.discrepancy import InvalidPresentation, minimal_discrepancy
from fanocone.rationals import format_rational
from fanocone.reeb_orbits import (
    enumerate_families,
    index_of_family_weighted,
    inf_lsft,
    tower_table,
)
from fanocone.ss_engine import assemble_e1

from corpus import handbuilt_corpus, orbifold_point_cone


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def weighted_file(tmp_path, weights, name="input.json", **extra):
    payload = {"format": "fanocone/1", "kind": "weighted_action",
               "weights": list(weights)}
    payload.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def presentation_file(tmp_path, p, name="pres.json"):
    path = tmp_path / name
    path.write_text(json.dumps(presentation_to_dict(p)))
    return str(path)


def test_md_weighted(tmp_path):
    code, out, err = run_cli(["md", weighted_file(tmp_path, (1, 1, 1))])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["md"] == "2/1"
    assert payload["capped_by_r"] is True
    assert payload["klt"] is True


def test_md_presentation(tmp_path):
    p = orbifold_point_cone(2, 2, (1,), 1)
    code, out, _ = run_cli(["md", presentation_file(tmp_path, p)])
    assert code == 0
    payload = json.loads(out)
    assert payload["md"] == "0/1"
    assert payload["minimizers"] == [{"chart": "p1", "k": 1}]


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(["md", str(path)])
    assert code == 2
    assert out == ""
    assert "malformed JSON" in err


def test_unknown_field_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "fanocone/1", "kind": "weighted_action",
                                "weights": [2, 1], "surprise": 1}))
    code, out, err = run_cli(["md", str(path)])
    assert code == 2 and out == ""
    assert "unknown field" in err


def test_missing_file_exits_2(tmp_path):
    code, out, err = run_cli(["md", str(tmp_path / "absent.json")])
    assert code == 2 and out == ""


def test_zero_ratio_exits_2(tmp_path):
    p = orbifold_point_cone(2, 2, (1,), 1)
    payload = presentation_to_dict(p)
    payload["r"] = "0"
    path = tmp_path / "r0.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["verify", str(path)])
    assert code == 2 and out == ""
    assert "Fano condition" in err


def test_negative_betti_exits_2(tmp_path):
    payload = {"format": "fanocone/1", "kind": "presentation", "n": 2, "r": "3/1",
               "charts": [{"m": 1, "weights": [0, 0], "label": "c"}],
               "strata": [{"isotropy_order": 1, "component_id": "0", "complex_dim": 1,
                           "betti": [1, 0, -1], "chart_ref": "c"}]}
    path = tmp_path / "negative-betti.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["report", str(path), "--max-degree", "9"])
    assert code == 2 and out == ""
    assert "betti numbers must be nonnegative" in err


def test_orbits(tmp_path):
    code, out, _ = run_cli(
        ["orbits", weighted_file(tmp_path, (2, 1)), "--max-period", "1"]
    )
    assert code == 0
    rows = json.loads(out)
    assert [(r["isotropy_order"], r["k"], r["ell"], r["period"]) for r in rows] == [
        (2, 1, 0, "1/2"),
        (1, 0, 1, "1/1"),
    ]
    assert rows[0]["lsft"] == "2/1"


def test_cz():
    code, out, _ = run_cli(["cz", "--speeds", "1,1/2", "--duration", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"rs": "3/1", "lcz": "2/1", "kernel_half_dim": 1, "z2": 0}


def test_cz_bad_speed_exits_2():
    code, out, err = run_cli(["cz", "--speeds", "1.5", "--duration", "1"])
    assert code == 2 and out == ""


def test_e1(tmp_path):
    code, out, _ = run_cli(
        ["e1", weighted_file(tmp_path, (1, 1, 1)), "--max-degree", "9"]
    )
    assert code == 0
    rows = json.loads(out)
    assert [(r["p"], r["degree"]) for r in rows] == [(1, "4/1"), (1, "6/1"), (1, "8/1")]


def test_shmin(tmp_path):
    code, out, _ = run_cli(["shmin", weighted_file(tmp_path, (2, 1))])
    assert code == 0
    payload = json.loads(out)
    assert payload["min_degree"] == "3/1"
    assert payload["degenerate"] is True


def test_wps_cohomology():
    code, out, _ = run_cli(
        ["wps-cohomology", "--weights", "1,2,3", "--max-degree", "6"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["4"] == "Z" and payload["6"] == "Z_6" and payload["1"] == "0"


def test_wps_cohomology_negative_max_degree_exits_2():
    code, out, err = run_cli(["wps-cohomology", "--weights", "1,2,3", "--max-degree", "-1"])
    assert code == 2 and out == ""
    assert "--max-degree" in err
    code, out, _ = run_cli(["wps-cohomology", "--weights", "1,2,3", "--max-degree", "0"])
    assert code == 0 and json.loads(out) == {"0": "Z"}


def test_verify_32(tmp_path):
    code, out, _ = run_cli(["verify", weighted_file(tmp_path, (3, 2))])
    assert code == 0
    payload = json.loads(out)
    assert payload["md"] == "1/1"
    assert payload["inf_lsft"] == "2/1"
    assert payload["sh_min_degree"] == "3/1"
    assert payload["thm13_holds"] is True
    assert payload["thm14_scenario"] is True
    assert payload["shokurov_ok"] is True
    assert payload["engines_agree"] is True


def test_verify_112(tmp_path):
    code, out, _ = run_cli(["verify", weighted_file(tmp_path, (1, 1, 2))])
    assert code == 0
    payload = json.loads(out)
    assert payload["md"] == "2/1"
    assert payload["inf_lsft"] == "4/1"
    assert payload["sh_min_degree"] == "4/1"
    assert payload["thm13_holds"] is True


def test_report_21(tmp_path):
    path = weighted_file(tmp_path, (2, 1), homology_sphere_link=True)
    code, out, _ = run_cli(["report", path, "--max-degree", "9"])
    assert code == 0
    assert "page degenerates" in out
    for degree in ("3/1", "5/1", "7/1", "9/1"):
        assert "degree %-10s rank 1" % degree in out
    assert "homology-ball oracle match: yes" in out


def test_report_low_degree_no_crash(tmp_path):
    code, out, _ = run_cli(
        ["report", weighted_file(tmp_path, (1, 1, 1)), "--max-degree", "3"]
    )
    assert code == 0
    assert "empty page below the degree bound" in out


def test_text_rendering(tmp_path):
    code, out, _ = run_cli(["md", weighted_file(tmp_path, (1, 1, 1)), "--text"])
    assert code == 0
    assert "md: 2/1" in out


def test_round_trip_export_import(tmp_path):
    p = from_weighted_action(WeightedAction((3, 2)))
    data = input_from_dict(json.loads(json.dumps(presentation_to_dict(p))))
    assert data.presentation == p


def test_repeated_runs_byte_identical(tmp_path):
    path = weighted_file(tmp_path, (5, 3, 2))
    outputs = {run_cli(["verify", path])[1] for _ in range(3)}
    assert len(outputs) == 1
    outputs = {run_cli(["report", path, "--max-degree", "12"])[1] for _ in range(3)}
    assert len(outputs) == 1


def test_build_verification_report_engine_comparison(tmp_path):
    data = input_from_dict(
        {"format": "fanocone/1", "kind": "weighted_action", "weights": [4, 6, 9]}
    )
    report = build_verification_report(data)
    assert report["engines_agree"] is True
    assert report["thm13_holds"] is True


def test_report_nonpositive_max_degree_exits_2(tmp_path):
    path = weighted_file(tmp_path, (2, 1))
    for bound in ("0", "-5", "-1/2"):
        code, out, err = run_cli(["report", path, "--max-degree=" + bound])
        assert code == 2 and out == ""
        assert "--max-degree must be positive" in err
        assert "max_period" not in err


def _doctored_321():
    """(3,2,1) with chart axis1 (3; 1,1,2) replaced by (3; 1,1,1), strata kept."""
    action = WeightedAction((3, 2, 1))
    p = from_weighted_action(action)
    charts = tuple(
        ChartData(m=3, weights=(1, 1, 1), label=c.label) if c.label == "axis1" else c
        for c in p.charts
    )
    assert charts != p.charts
    return replace(p, charts=charts)


def test_engine_cross_check_can_fail(tmp_path, monkeypatch):
    # The chart engine sees the doctored chart; the diagonal-path engine
    # only sees the weights, so the two must disagree.
    doctored = _doctored_321()
    data = InputData(presentation=doctored, weighted=WeightedAction((3, 2, 1)),
                     homology_sphere_link=False)
    assert build_verification_report(data)["engines_agree"] is False
    # Every loop count disagrees, so neither engine borrows the other's
    # values at any ell.
    doctored_families = [f for f in enumerate_families(tower_table(doctored), 3)
                         if f.isotropy_order == 3]
    assert sorted({f.ell for f in doctored_families}) == [0, 1, 2]
    for f in doctored_families:
        got = index_of_family_weighted(data.weighted, 3, f.k, f.ell)
        assert got != (f.rs, f.lcz, f.lsft), f

    monkeypatch.setattr(cone_model, "from_weighted_action", lambda w: doctored)
    code, out, err = run_cli(["verify", weighted_file(tmp_path, (3, 2, 1))])
    assert code == 1 and err == ""
    assert json.loads(out)["engines_agree"] is False


def test_orphan_chart_exits_2(tmp_path):
    # The centre of chart (3; 1,1) has isotropy Z_3, but no stratum has
    # order 3: the chart scans would see elements no orbit family carries.
    p = ConePresentation(n=2, r=Fraction(1), strata=(Stratum(1, "0", 1, (1, 0, 1), "c"),),
                         charts=(ChartData(m=3, weights=(1, 1), label="c"),))
    assert validate_presentation(p) == ["chart 'c': no stratum has isotropy order m=3"]
    for layer in (minimal_discrepancy, lambda q: inf_lsft(tower_table(q)),
                  lambda q: assemble_e1(tower_table(q), 9)):
        with pytest.raises(InvalidPresentation):
            layer(p)
    path = presentation_file(tmp_path, p)
    for argv in (["verify", path], ["e1", path, "--max-degree", "9"]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert "no stratum has isotropy order m=3" in err


def _dimension_mismatch_above_the_degree_bound():
    """Point cone with charts (7; 1,1) and (2; 1,1), r = 3, and the same cone
    whose order-2 stratum records dimension 1 where its chart gives 0.  That
    stratum's one tower starts at lcz 3 and period 1/2, above the degree
    bound 8/7 that verify builds its page up to."""
    good = orbifold_point_cone(2, 7, (1,), 3, extra=[(2, (1,))])
    strata = tuple(replace(s, complex_dim=1, betti=(1, 0, 1)) if s.isotropy_order == 2 else s
                   for s in good.strata)
    return good, replace(good, strata=strata)


def test_dimension_check_covers_towers_above_the_degree_bound(tmp_path):
    good, bad = _dimension_mismatch_above_the_degree_bound()
    assert inf_lsft(tower_table(good)) + 3 - good.n + 1 == Fraction(8, 7)
    assert min(f.lcz for f in enumerate_families(tower_table(good), 3)
               if f.isotropy_order == 2) == 3
    assert run_cli(["verify", presentation_file(tmp_path, good)])[0] == 0
    path = presentation_file(tmp_path, bad, name="bad.json")
    code, out, err = run_cli(["verify", path])
    assert code == 2 and out == ""
    assert "gives dimension 0 for element k=1, stratum records 1" in err


def test_e1_checks_towers_above_its_degree_bound(tmp_path):
    _, bad = _dimension_mismatch_above_the_degree_bound()
    code, out, err = run_cli(["e1", presentation_file(tmp_path, bad), "--max-degree", "1"])
    assert code == 2 and out == ""
    assert "gives dimension 0 for element k=1, stratum records 1" in err


def test_orbits_below_the_mismatched_tower_does_not_raise(tmp_path):
    _, bad = _dimension_mismatch_above_the_degree_bound()
    path = presentation_file(tmp_path, bad)
    code, out, err = run_cli(["orbits", path, "--max-period", "1/4"])
    assert code == 0 and err == ""
    assert [(f["isotropy_order"], f["k"]) for f in json.loads(out)] == [(7, 1)]
    assert run_cli(["orbits", path, "--max-period", "1/2"])[0] == 2


def test_output_independent_of_hash_seed(tmp_path):
    src = os.path.dirname(os.path.dirname(fanocone.__file__))
    inputs = [weighted_file(tmp_path, (5, 3, 2), name="w532.json"),
              weighted_file(tmp_path, (2, 3, 6, 7), name="w2367.json"),
              presentation_file(tmp_path, dict(handbuilt_corpus())["football-2-3"])]
    outputs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for path in inputs:
            for args in (["verify", path], ["report", path, "--max-degree", "12"]):
                run = subprocess.run([sys.executable, "-m", "fanocone.cli"] + args, env=env,
                                     capture_output=True, check=True, timeout=120)
                outputs.setdefault(tuple(args), set()).add(run.stdout)
    assert len(outputs) == 6
    assert all(len(seen) == 1 for seen in outputs.values())


def _readme_cli_block():
    """The README's CLI code block: the cone.json it writes and its commands."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as handle:
        readme = handle.read()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    cone = block.split("<<'EOF'\n", 1)[1].split("\nEOF", 1)[0]
    commands = [line.split("#", 1)[0] for line in block.splitlines()
                if line.startswith("fanocone ")]
    return cone, [shlex.split(line)[1:] for line in commands]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    cone, commands = _readme_cli_block()
    (tmp_path / "cone.json").write_text(cone + "\n")
    monkeypatch.chdir(tmp_path)
    assert len(commands) >= 8
    for argv in commands:
        code, out, err = run_cli(argv)
        assert code == 0 and err == "" and out, argv


def _order_4_element_in_a_z8_tower():
    """n=2, r=1, charts A=(8;1,5) and B=(4;1,3), strata of orders 1 and 8 on
    A and 4 on B.  The element k=2 of the Z_8 point has order 4, but it fixes
    no tail direction of A, so it stays in the Z_8 tower although a stratum
    of order 4 exists elsewhere; it attains inf lSFT."""
    charts = (ChartData(m=8, weights=(1, 5), label="A"), ChartData(m=4, weights=(1, 3), label="B"))
    strata = (Stratum(1, "0", 1, (1, 0, 1), "A"), Stratum(8, "a", 0, (1,), "A"),
              Stratum(4, "b", 0, (1,), "B"))
    return ConePresentation(n=2, r=Fraction(1), strata=strata, charts=charts)


def test_admissibility_is_read_from_the_stratum_chart(tmp_path):
    p = _order_4_element_in_a_z8_tower()
    assert [list(c.ks) for c in tower_table(p).strata] == [[0], list(range(1, 8)), [1, 2, 3]]
    code, out, err = run_cli(["verify", presentation_file(tmp_path, p)])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert (payload["md"], payload["inf_lsft"], payload["sh_min_degree"]) == ("-1/2", "-1/1", "0/1")
    assert payload["thm13_holds"] is True


def test_verify_and_report_build_the_tower_table_once(tmp_path, monkeypatch):
    built = []
    original = reeb_orbits.tower_table

    def counting(p):
        built.append(p)
        return original(p)

    for module in (cli, reeb_orbits, ss_engine):
        if hasattr(module, "tower_table"):
            monkeypatch.setattr(module, "tower_table", counting)
    path = weighted_file(tmp_path, (5, 3, 2))
    for argv in (["verify", path], ["report", path, "--max-degree", "12"]):
        built.clear()
        assert run_cli(argv)[0] == 0
        assert len(built) == 1, argv


def test_chart_order_limit(tmp_path, monkeypatch):
    assert MAX_CHART_ORDER == 10**6
    accepted = input_from_dict({"format": "fanocone/1", "kind": "weighted_action",
                                "weights": [10**6, 1]})
    assert validate_presentation(accepted.presentation) == []
    for top in (10**7, 10**18):
        start = time.perf_counter()
        code, out, err = run_cli(["verify", weighted_file(tmp_path, (top, 1))])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == ("error: weight %d exceeds the chart order limit "
                       "MAX_CHART_ORDER = 1000000\n" % top)
    big = orbifold_point_cone(2, 10**7, (1,), 1)
    code, out, err = run_cli(["verify", presentation_file(tmp_path, big)])
    assert code == 2 and out == ""
    assert "m=10000000 exceeds the chart order limit MAX_CHART_ORDER = 1000000" in err

    def out_of_memory(p):
        raise MemoryError()

    monkeypatch.setattr(cli, "tower_table", out_of_memory)
    code, out, err = run_cli(["verify", weighted_file(tmp_path, (3, 2))])
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"


def test_element_of_a_bigger_stratum_needs_that_stratum_to_be_big_enough(tmp_path):
    # The element k=2 of the Z_4 point on chart (4; 1,2,3) fixes one tail
    # direction, so it belongs to a curve of isotropy Z_2; the only stratum
    # of order 2 here is a point, so the input is incoherent.
    charts = (ChartData(m=4, weights=(1, 2, 3), label="A"),
              ChartData(m=2, weights=(1, 1, 1), label="B"))
    strata = (Stratum(1, "0", 2, (1, 0, 1, 0, 1), "A"), Stratum(4, "a", 0, (1,), "A"),
              Stratum(2, "b", 0, (1,), "B"))
    p = ConePresentation(n=3, r=Fraction(7), strata=strata, charts=charts)
    assert validate_presentation(p) == []
    code, out, err = run_cli(["verify", presentation_file(tmp_path, p)])
    assert code == 2 and out == ""
    assert "stratum (|G|=4, 'a'): chart 'A' gives dimension 1 for element k=2" in err
    curve = replace(p, strata=strata[:2] + (Stratum(2, "b", 1, (1, 0, 1), "A"),))
    assert [list(c.ks) for c in tower_table(curve).strata] == [[0], [1, 3], [1]]


def test_verify_reads_inf_lsft_off_the_tower_table(tmp_path, monkeypatch):
    # md comes from the chart scan and inf lSFT from the tower table, so a
    # table whose first loops all sit one degree too high breaks 2*md = inf.
    def raised(p):
        table = reeb_orbits.tower_table(p)
        return table._replace(strata=tuple(
            column._replace(lsft0=[v + column.D for v in column.lsft0]) for column in table.strata))

    monkeypatch.setattr(cli, "tower_table", raised)
    code, out, err = run_cli(["verify", weighted_file(tmp_path, (3, 2))])
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert (payload["md"], payload["inf_lsft"], payload["sh_min_degree"]) == ("1/1", "3/1", "4/1")
    assert payload["thm13_holds"] is False


def _fraction_family_dict(f):
    """A family rendered from its Fraction values."""
    return {
        "isotropy_order": f.isotropy_order,
        "k": f.k,
        "ell": f.ell,
        "component_id": f.component_id,
        "period": format_rational(f.period),
        "stratum_dim": f.stratum_dim,
        "rs": format_rational(f.rs),
        "lcz": format_rational(f.lcz),
        "z2": f.z2,
        "lsft": format_rational(f.lsft),
    }


def test_orbits_and_e1_render_the_fraction_values(tmp_path):
    # The CLI renders each family from its integer numerators over D; the
    # expected payloads are rendered from its Fraction properties.
    corpus = dict(handbuilt_corpus())
    inputs = [(weighted_file(tmp_path, a, name="w%d.json" % i),
               from_weighted_action(WeightedAction(a)))
              for i, a in enumerate([(2, 1), (3, 2, 1), (6, 4, 3), (5, 3, 2, 2)])]
    inputs += [(presentation_file(tmp_path, corpus[name], name="h%d.json" % i), corpus[name])
               for i, name in enumerate(("football-2-3", "3fold-7-24", "3fold-curve",
                                         "a1-r=5/2", "veronese-3-4"))]
    unreduced = 0
    for path, p in inputs:
        table = tower_table(p)
        families = enumerate_families(table, 3)
        unreduced += sum(gcd(f.lsft_num, f.D) > 1 for f in families)
        code, out, err = run_cli(["orbits", path, "--max-period", "3"])
        assert code == 0, err
        assert json.loads(out) == [_fraction_family_dict(f) for f in families]

        page = assemble_e1(table, 12)
        expected = [
            {"p": key[0], "degree": format_rational(key[1]), "z2": key[2],
             "rank": entry.rank, "homology_degree": entry.homology_degree,
             "family": _fraction_family_dict(entry.family)}
            for key in page.keys_sorted() for entry in page.entries[key]
        ]
        code, out, err = run_cli(["e1", path, "--max-degree", "12"])
        assert code == 0, err
        assert expected and json.loads(out) == expected
    # The sample exercises the reduction of the numerators.
    assert unreduced > 0
