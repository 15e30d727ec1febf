"""In-memory span tracer over the public functions of fanocone's modules.

The tracer wraps from the benchmark's side and leaves the package source
alone: each public function is replaced by a wrapper in every fanocone
module namespace that holds it, so a call made through a name another
module imported (`from .cone_model import validate_presentation`) is
traced as well.  A span records its id, its parent span, the request
(input index) it served, its name, start and end.  Per-layer totals are
kept as it runs: calls, self time (duration less the time covered by
child calls, their wrappers included) and counts of work done, computed
from arguments and results.
"""

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "fanocone"

# orb_topology is left out on purpose: neither verify nor report calls it.
TRACED_MODULES = (
    "rationals",
    "cone_model",
    "sympath_index",
    "discrepancy",
    "reeb_orbits",
    "ss_engine",
    "cli",
)

# Work counters, taken at a layer boundary: span name -> (counter, measure).
COUNTERS = {
    "discrepancy.minimal_discrepancy": (
        "discrepancy.chart_elements_scanned",
        lambda args, result: sum(chart.m - 1 for chart in args[0].charts),
    ),
    "reeb_orbits.enumerate_families": (
        "reeb_orbits.families_built",
        lambda args, result: len(result),
    ),
    "ss_engine.assemble_e1": (
        "ss_engine.page_entries",
        lambda args, result: sum(len(block) for block in result.entries.values()),
    ),
}

# Retained spans are capped so that a long traced run stays small in
# memory; the per-layer totals always cover every call.
SPAN_CAP = 50_000

SPAN_FIELDS = ("id", "parent", "request", "name", "start_ns", "end_ns")


def public_functions(module):
    """Functions a module defines and exports (its __all__, else no underscore)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return [
        name
        for name in names
        if inspect.isfunction(getattr(module, name, None))
        and getattr(module, name).__module__ == module.__name__
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.request = None
        self._stack = []  # [span id, time covered by children] per open span
        self._next_id = 0
        self._patched = []
        self.names = []  # span names of the wrapped functions, set by install
        self.reset()

    def reset(self):
        """Start a new window of per-layer totals; retained spans are kept."""
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = {counter: 0 for counter, _ in COUNTERS.values()}

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The parent is charged from `entry` to the end of the wrapper, so
            # that the wrapper's own bookkeeping stays out of the parent's
            # self time, as the wrapped call's time does.
            entry = perf_counter_ns()
            stack = self._stack
            try:
                span_id = self._next_id
                self._next_id += 1
                parent = stack[-1][0] if stack else None
                frame = [span_id, 0]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    self.calls[name] += 1
                    self.self_ns[name] += end - start - frame[1]
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((span_id, parent, self.request, name, start, end))
                    else:
                        self.dropped += 1
                if counter is not None:
                    self.counts[counter[0]] += counter[1](args, result)
                return result
            finally:
                if stack:
                    stack[-1][1] += perf_counter_ns() - entry

        return traced

    def install(self):
        """Wrap every public function of TRACED_MODULES where it is looked up."""
        self.names = []
        holders = [
            module
            for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for short in TRACED_MODULES:
            module = sys.modules["%s.%s" % (PACKAGE, short)]
            for fname in public_functions(module):
                original = getattr(module, fname)
                name = "%s.%s" % (short, fname)
                self.names.append(name)
                wrapper = self.wrap(name, original)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched = []

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "meta": meta,
                    "fields": SPAN_FIELDS,
                    "spans": self.spans,
                    "dropped": self.dropped,
                },
                handle,
            )
