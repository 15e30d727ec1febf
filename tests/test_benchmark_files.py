"""The files the benchmark reads, checked by the test suite.

bench/data/corpus.json records, for each of its 430 inputs, the sha256 of
the stdout of `verify` and of `report --max-degree 50`: the CLI must
reproduce every digest byte for byte.  BENCHMARK.json declares per-layer
metrics named `<module>.<function>.calls` and `.self_s`, which the span
tracer makes only for the functions a module defines and exports: every
such function must exist and be public by the tracer's rule, or the
traced benchmark run cannot report it.  Both files are only read.
"""

import hashlib
import importlib
import inspect
import io
import json
import os

import pytest

from fanocone.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CORPUS_FILE = os.path.join(ROOT, "bench", "data", "corpus.json")
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("key, command, options", [
    ("verify", "verify", []),
    ("report-50", "report", ["--max-degree", "50"]),
])
def test_corpus_stdout_matches_the_golden_digests(tmp_path, key, command, options):
    path = str(tmp_path / "input.json")
    argv = [command, path] + options
    mismatched = []
    for entry in _load(CORPUS_FILE):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry["input"], handle)
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, out=out, err=err)
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if code != 0 or digest != entry["sha256"][key]:
            mismatched.append((entry["name"], code, err.getvalue()))
    assert mismatched == []


def _traced_public(module, name):
    """The span tracer's rule: a function the module defines, named in its
    __all__, or without a leading underscore when it has none."""
    fn = getattr(module, name, None)
    if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
        return False
    exported = getattr(module, "__all__", None)
    return name in exported if exported is not None else not name.startswith("_")


def test_declared_layers_name_traced_functions():
    names = [metric["name"] for metric in _load(BENCHMARK_FILE)["per_layer"]]
    layers = [name.rsplit(".", 1)[0] for name in names
              if name.endswith((".calls", ".self_s"))]
    assert layers
    missing = []
    for layer in layers:
        module_name, function = layer.split(".")
        module = importlib.import_module("fanocone." + module_name)
        if not _traced_public(module, function):
            missing.append(layer)
    assert missing == []
