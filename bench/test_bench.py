"""Tests of the benchmark itself: metric names, failure counting, trace counts."""

import hashlib
import io
import json
import os
import subprocess
import sys
from time import perf_counter, process_time

import pytest

import calibrate
import run
import sweep
import workloads

import fanocone.cli

with open(run.BENCHMARK_FILE, "r", encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)


def _names(kind):
    return [m["name"] for m in DECLARED[kind]]


def _items(tmp_path, workload, count, seed=3):
    items = workloads.make_items(workload, seed)[:count]
    workloads.write_inputs(items, str(tmp_path))
    return items


def test_short_run_emits_the_declared_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "corpus-verify",
         "--seed", "7", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert list(result["metrics"]) == _names("end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 430
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_traced_run_emits_the_declared_per_layer_metrics(tmp_path):
    items = _items(tmp_path, "corpus-report-deep", 6)
    _, _, values, _ = run.traced_run(fanocone.cli, "report-50", items, 0)
    assert list(run.select_metrics(DECLARED["per_layer"], values)) == _names("per_layer")


def test_tampered_output_is_counted_as_failed(tmp_path):
    items = _items(tmp_path, "corpus-verify", 4)
    clean = run.run_pass(fanocone.cli, "verify", items)
    assert clean.failures == []

    item = items[0]
    out = io.StringIO()
    assert fanocone.cli.main(workloads.argv_for("verify", item.path), out, io.StringIO()) == 0
    text = out.getvalue()
    assert workloads.check(item, "verify", 0, text) is None
    assert workloads.check(item, "verify", 1, text) is not None
    assert workloads.check(item, "verify", 0, text.replace("true", "false", 1)) is not None

    item.golden = hashlib.sha256(b"not the output").hexdigest()
    tampered = run.run_pass(fanocone.cli, "verify", items)
    assert [name for name, _ in tampered.failures] == [item.name]


def test_closed_form_checks_without_golden():
    item = workloads.Item("w", {"kind": "weighted_action", "weights": [3, 2, 1]}, None)
    report = {"md": "2/1", "thm13_holds": True, "engines_agree": True}
    assert workloads.check(item, "verify", 0, json.dumps(report)) is None
    for key, bad in (("md", "1/1"), ("thm13_holds", False), ("engines_agree", False)):
        assert workloads.check(item, "verify", 0, json.dumps(dict(report, **{key: bad})))


def test_traced_call_counts_repeat_exactly(tmp_path):
    items = _items(tmp_path, "corpus-verify", 12)
    counts = []
    for _ in range(2):
        _, _, values, _ = run.traced_run(fanocone.cli, "verify", items, 0)
        counts.append({k: v for k, v in values.items() if not k.endswith("_s")
                       and k != "trace_overhead_ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["cli.build_parser.calls"] == len(items)
    # The tracer leaves no wrapper behind.
    assert not hasattr(fanocone.cli.main, "__wrapped__")


def test_call_times_cut_calls_at_calibrations_and_scale_each_piece():
    ref = calibrate.REFERENCE_S
    meter = calibrate.Meter(timer=False)
    meter.calibrations = [(0.0, 1.0, ref), (5.0, 6.0, 2 * ref), (10.0, 11.0, ref),
                          (13.0, 14.0, ref)]
    meter.calls = [(2.0, 9.0), (12.0, 12.5)]
    scaled, raw = meter.call_times()
    # Pieces 2-5 and 6-9 lie between a fast and a slow calibration: 2/3 each.
    assert raw == [6.0, 0.5]
    assert scaled == pytest.approx([4.0, 0.5])


def test_timer_calibrates_inside_a_long_call():
    with calibrate.Meter(timer=True) as meter:
        start = process_time()
        while process_time() - start < 4 * calibrate.INTERVAL_S:
            pass
        meter.record(start, process_time())
    assert len(meter.calibrations) >= 4
    scaled, raw = meter.call_times()
    assert 0 < raw[0] < process_time() - start and scaled[0] > 0


def test_sweep_points_over_the_cap_are_not_waited_on(tmp_path):
    entries = workloads.load_corpus()
    start = perf_counter()
    points = sweep.run_sweep(fanocone.cli, entries, str(tmp_path), cap=0.05)
    assert perf_counter() - start < 5
    assert len(points) == 9
    assert all(p.get("over_cap") or p["seconds"] < 0.1 for p in points)
    assert any(p.get("over_cap") for p in points)
