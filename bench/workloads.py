"""Benchmark workloads: seeded inputs, the CLI argv for each call, output checks.

Every workload is a list of items, one fanocone/1 input each.  The seed
shuffles the order of the items and, for large-weight-verify, draws the
weights below the largest one.  An item passes when the CLI exits 0, its
stdout matches the golden sha256 (corpus workloads) and, for `verify`,
the closed-form checks hold.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_FILE = os.path.join(HERE, "data", "corpus.json")

# Subcommand key -> argv after the input path is filled in.
CORPUS_SUBCOMMANDS = ("verify", "report-50")

# Workload name -> subcommand key.
WORKLOADS = {
    "corpus-verify": "verify",
    "corpus-report-deep": "report-50",
    "large-weight-verify": "verify",
}

# large-weight-verify: one input per (n, largest weight).  The largest
# weights are fixed so that every seed does comparable work.  The other
# weights are drawn small and coprime to the largest, so that the largest
# one sets the cost: its stratum then has every k in 1..m-1 admissible.
LARGE_DIMS = (2, 3, 4)
LARGEST_WEIGHTS = (1000, 4000)
OTHER_WEIGHT_MAX = 64


@dataclass
class Item:
    name: str
    obj: dict  # fanocone/1 input object
    golden: object  # sha256 hex digest of stdout, or None
    path: str = ""  # input file, set by write_inputs


def argv_for(sub, path):
    if sub == "verify":
        return ["verify", path]
    if sub == "report-50":
        return ["report", path, "--max-degree", "50"]
    raise ValueError("unknown subcommand key %r" % (sub,))


def load_corpus():
    with open(CORPUS_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def corpus_items(sub, rng):
    items = [Item(e["name"], e["input"], e["sha256"][sub]) for e in load_corpus()]
    rng.shuffle(items)
    return items


def large_weight_items(rng):
    items = []
    for n in LARGE_DIMS:
        for top in LARGEST_WEIGHTS:
            others = [w for w in range(1, OTHER_WEIGHT_MAX + 1) if gcd(w, top) == 1]
            weights = [top] + [rng.choice(others) for _ in range(n - 1)]
            obj = {"format": "fanocone/1", "kind": "weighted_action", "weights": weights}
            items.append(Item("lw-" + "-".join(map(str, weights)), obj, None))
    rng.shuffle(items)
    return items


def make_items(workload, seed):
    rng = random.Random(seed)
    if workload == "large-weight-verify":
        return large_weight_items(rng)
    return corpus_items(WORKLOADS[workload], rng)


def write_inputs(items, workdir):
    os.makedirs(workdir, exist_ok=True)
    for i, item in enumerate(items):
        item.path = os.path.join(workdir, "%04d.json" % i)
        with open(item.path, "w", encoding="utf-8") as handle:
            json.dump(item.obj, handle)


def check(item, sub, code, text):
    """Reason the call failed, or None when exit code and output are correct."""
    if code != 0:
        return "exit code %r" % (code,)
    if item.golden is not None:
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != item.golden:
            return "stdout differs from the golden digest"
    if sub != "verify":
        return None
    try:
        report = json.loads(text)
    except ValueError:
        return "verify output is not JSON"
    if not isinstance(report, dict):
        return "verify output is not a JSON object"
    for key in ("thm13_holds", "engines_agree"):
        if report.get(key) is not True:
            return "%s is not true" % key
    if item.obj["kind"] == "weighted_action":
        expected = "%d/1" % (len(item.obj["weights"]) - 1)
        if report.get("md") != expected:
            return "md %r != n-1 = %s" % (report.get("md"), expected)
    return None
