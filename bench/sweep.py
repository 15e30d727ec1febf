"""Diagnostic scaling sweep: recorded with traced runs, never gated.

Points: `verify` on weights [m, 1] over m, `md` on [m, 1] up to chart
order 10^5, and `report --max-degree D` on a fixed 20-input subset of the
corpus.  Each point has a wall-clock cap; a point still running at its
cap is interrupted by SIGALRM and recorded as over_cap instead of being
waited on.
"""

import io
import json
import os
import signal
from time import perf_counter

POINT_CAP_S = 5.0
VERIFY_M = (10**2, 10**3, 10**4)
MD_M = (10**3, 10**4, 10**5)
REPORT_DEGREES = (12, 50, 200)
REPORT_SUBSET = 20


class OverCap(Exception):
    pass


def _on_alarm(signum, frame):
    raise OverCap()


def _time_capped(calls, cap):
    """Seconds to run every (main, argv) call, or None if the cap is hit."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            start = perf_counter()
            codes = [main(argv, io.StringIO(), io.StringIO()) for main, argv in calls]
            elapsed = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverCap:
        return None, None
    finally:
        signal.signal(signal.SIGALRM, previous)
    return elapsed, codes


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def run_sweep(cli, corpus_entries, workdir, cap=POINT_CAP_S):
    """List of sweep points, each with its seconds or over_cap."""
    os.makedirs(workdir, exist_ok=True)

    def weighted(m):
        obj = {"format": "fanocone/1", "kind": "weighted_action", "weights": [m, 1]}
        return _write(os.path.join(workdir, "w%d.json" % m), obj)

    step = len(corpus_entries) // REPORT_SUBSET
    subset = [
        _write(os.path.join(workdir, "r%02d.json" % i), entry["input"])
        for i, entry in enumerate(corpus_entries[::step][:REPORT_SUBSET])
    ]

    points = []
    for m in VERIFY_M:
        points.append(("verify [m,1]", m, [["verify", weighted(m)]]))
    for m in MD_M:
        points.append(("md [m,1]", m, [["md", weighted(m)]]))
    for degree in REPORT_DEGREES:
        points.append((
            "report --max-degree on %d corpus inputs" % len(subset),
            degree,
            [["report", path, "--max-degree", str(degree)] for path in subset],
        ))

    results = []
    for name, x, argvs in points:
        elapsed, codes = _time_capped([(cli.main, argv) for argv in argvs], cap)
        point = {"point": name, "x": x, "cap_s": cap}
        if elapsed is None:
            point["over_cap"] = True
        else:
            point["seconds"] = elapsed
            point["nonzero_exits"] = sum(1 for code in codes if code != 0)
        results.append(point)
    return results
