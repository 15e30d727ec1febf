"""Regenerate bench/data/corpus.json: the acceptance corpus and its golden digests.

The corpus is the 406 weighted actions (n in {2,3,4}, entries <= 8, gcd 1)
and the 24 hand-built presentations of tests/corpus.py, stored in the
fanocone/1 input format.  Each entry carries the sha256 of the stdout of
`verify` and of `report --max-degree 50`, computed by the current CLI.
The digests are the golden-output anchor of the benchmark: regenerate
them only for a change that is meant to alter CLI output, and say so.

Run from the repository root:  python3 bench/make_corpus.py
"""

import hashlib
import io
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from corpus import handbuilt_corpus, weighted_corpus, weighted_inputs  # noqa: E402

from fanocone.cli import main  # noqa: E402
from fanocone.cone_model import presentation_to_dict  # noqa: E402

import workloads  # noqa: E402  (bench/ is on sys.path as the script directory)


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    if code != 0:
        raise SystemExit("%s exited %d: %s" % (argv, code, err.getvalue()))
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def build_entries(tmpdir):
    named = [("w-" + "-".join(map(str, obj["weights"])), obj)
             for obj in weighted_inputs(weighted_corpus())]
    named += [(name, presentation_to_dict(p)) for name, p in handbuilt_corpus()]
    entries = []
    for name, obj in named:
        path = os.path.join(tmpdir, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        entries.append({
            "name": name,
            "input": obj,
            "sha256": {
                sub: _digest(workloads.argv_for(sub, path)) for sub in workloads.CORPUS_SUBCOMMANDS
            },
        })
    return entries


if __name__ == "__main__":
    tmpdir = os.path.join(ROOT, ".bench_work", "make_corpus")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        entries = build_entries(tmpdir)
    finally:
        shutil.rmtree(tmpdir)
    os.makedirs(os.path.dirname(workloads.CORPUS_FILE), exist_ok=True)
    with open(workloads.CORPUS_FILE, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d entries to %s" % (len(entries), workloads.CORPUS_FILE))
