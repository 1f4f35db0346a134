"""Spans and counts at the package's layer boundaries, from outside it.

``from .x import y`` gives every importing module its own binding of
``y``, so each public function is wrapped where each module binds it:
the CLI's bindings, the package-internal bindings that call across
layers (``optimize`` -> ``zeroblock`` / ``measures`` / ``linprog``,
``measures.sample_orbits`` -> ``validate``) and the ``OrbitSample``
line codecs. Spans are kept in memory and written out when the run
ends. A layer's self time is its spans' durations minus their direct
children.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name)
_SITES = [
    ("cli", "run", "cli"),
    ("cli", "build_max_entropy_table", "zeroblock.build"),
    ("cli", "check_feasible", "zeroblock.closed_form"),
    ("cli", "entropy_closed_form", "zeroblock.closed_form"),
    ("cli", "telescoping_increments", "zeroblock.closed_form"),
    ("cli", "entropy_ladder", "measures.ladder"),
    ("cli", "load_table", "measures.json"),
    ("cli", "table_to_json", "measures.json"),
    ("cli", "sample_orbits", "measures.sample"),
    ("cli", "recurrence_profile", "orbits.profile"),
    ("cli", "generic_point_half", "orbits.generic"),
    ("cli", "word_count_entropy", "estimators"),
    ("cli", "katok_entropy", "estimators"),
    ("cli", "solve", "optimize.solve"),
    ("cli", "compare_with_closed_form", "optimize.compare"),
    ("measures", "validate", "measures.validate"),
    ("measures", "table_from_json", "measures.json"),
    ("optimize", "solve", "optimize.solve"),
    ("optimize", "linprog", "optimize.lp"),
    ("optimize", "build_max_entropy_table", "zeroblock.build"),
    ("optimize", "conditional_entropy", "measures.table"),
    ("optimize", "max_abs_deviation", "measures.table"),
    ("optimize", "table_from_top_level", "measures.table"),
]


def _work(name, args, result, counts):
    """Work counts taken from a layer call's arguments and result."""
    if name == "zeroblock.build":
        counts["zeroblock.cells"] += (1 << (args[1] + 1)) - 1
    elif name == "measures.sample":
        counts["measures.sample_bits"] += args[1] * args[2]
    elif name == "orbits.profile":
        counts["orbits.windows"] += len(args[1]) * args[2]
    elif name == "estimators":
        counts["estimators.windows"] += sum(len(s) - args[1] + 1 for s in args[0])
    elif name == "optimize.solve":
        counts["optimize.iterations"] += result.iterations
        if result.status == "optimal":
            counts["optimize.kkt_max"] = max(counts["optimize.kkt_max"], result.kkt_residual)


class Tracer:
    """Records (task, name, start, end, parent) spans and work counts."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self.task = None
        self._stack = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [self.task, name, perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            self.calls[name] += 1
            _work(name, args, result, self.counts)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every site for the duration of the block, then restore."""
        modules = {m: getattr(package, m) for m in ("cli", "measures", "optimize")}
        saved = []
        try:
            for mod, attr, name in _SITES:
                saved.append((modules[mod], attr, getattr(modules[mod], attr)))
                setattr(modules[mod], attr, self._wrap(name, getattr(modules[mod], attr)))
            cls = package.measures.OrbitSample
            for attr in ("to_line", "from_line"):
                saved.append((cls, attr, cls.__dict__[attr]))
            cls.to_line = self._wrap("measures.orbit_io", cls.__dict__["to_line"])
            cls.from_line = classmethod(
                self._wrap("measures.orbit_io", cls.__dict__["from_line"].__func__))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """Total self time and inclusive time per span name."""
        child = [0.0] * len(self.spans)
        for task, name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        own, incl = defaultdict(float), defaultdict(float)
        for i, (task, name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
            incl[name] += end - start
        return own, incl

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for task, name, start, end, parent in self.spans:
                fh.write(json.dumps({"task": task, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def layer_metrics(self, tasks, bytes_out):
        own, incl = self.self_times()
        c, n = self.counts, self.calls

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        return {
            "cli.self_s": own["cli"],
            "cli.bytes_out": bytes_out,
            "zeroblock.build_s": own["zeroblock.build"],
            "zeroblock.build_calls": n["zeroblock.build"],
            "zeroblock.cells_per_s": rate(c["zeroblock.cells"], own["zeroblock.build"]),
            "zeroblock.closed_form_s": own["zeroblock.closed_form"],
            "measures.validate_s": own["measures.validate"],
            "measures.validate_calls": n["measures.validate"],
            "measures.validations_per_task": n["measures.validate"] / tasks,
            "measures.ladder_s": own["measures.ladder"],
            "measures.json_s": own["measures.json"],
            "measures.table_s": own["measures.table"],
            "measures.sample_s": own["measures.sample"],
            "measures.sample_bits": c["measures.sample_bits"],
            "measures.sample_bits_per_s": rate(c["measures.sample_bits"],
                                               own["measures.sample"]),
            "measures.orbit_io_s": own["measures.orbit_io"],
            "orbits.profile_s": own["orbits.profile"],
            "orbits.generic_s": own["orbits.generic"],
            "orbits.windows": c["orbits.windows"],
            "estimators.s": own["estimators"],
            "estimators.windows": c["estimators.windows"],
            "optimize.lp_calls": n["optimize.lp"],
            "optimize.lp_s": own["optimize.lp"],
            "optimize.lp_per_solve": n["optimize.lp"] / n["optimize.solve"]
            if n["optimize.solve"] else 0.0,
            "optimize.solve_s": incl["optimize.solve"],
            "optimize.solve_calls": n["optimize.solve"],
            "optimize.self_s": own["optimize.solve"],
            "optimize.iterations": c["optimize.iterations"],
            "optimize.kkt_max": c["optimize.kkt_max"],
        }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(python, env, cwd):
    """(shiftmaxent cumulative, scipy self-time sum) of one -X importtime
    launch of ``python -m shiftmaxent.cli --version``, in seconds."""
    proc = subprocess.run([python, "-X", "importtime", "-m", "shiftmaxent.cli", "--version"],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
                          check=True)
    package, scipy = math.nan, 0.0
    for m in _IMPORT_LINE.finditer(proc.stderr):
        own, cumulative, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "shiftmaxent":
            package = cumulative / 1e6
        elif name == "scipy" or name.startswith("scipy."):
            scipy += own / 1e6
    return package, scipy
