"""In-memory span recorder for the traced run.

Patch wraps the public triloc functions listed in WRAPPED and rebinds
every name in every loaded triloc module that refers to one of them (for
example invariants.schmidt_decompose, locc.profile, transfer.lu_equivalent
and the package namespace), so nested calls inside the library are traced
too.  A span is (name, start, end, parent span index, op id); counts that
need a call's argument or result are taken at the same boundary.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter

WRAPPED = (
    ("state_core", "schmidt_decompose"),
    ("state_core", "measure"),
    ("invariants", "profile"),
    ("invariants", "classify"),
    ("invariants", "lu_equivalent"),
    ("invariants", "coeffs_from_invariants"),
    ("locc", "dlocc_feasible"),
    ("locc", "min_measurements"),
    ("transfer", "verify_update"),
    ("transfer", "predict_update"),
    ("transfer", "lemma2_bounds"),
    ("transfer", "lemma4_check"),
    ("transfer", "alpha_average"),
    ("transfer", "synth_bisep_measurement"),
    ("transfer", "search_deterministic_measurement"),
)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.distinct = set()
        self.distinct_other = 0  # distinct inputs seen by traced child processes

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op under an "op" root span."""
        self.op = op_id
        return self.wrap("op", fn)(*args)

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced


def _distinct_input(rec, args, _result):
    rec.distinct.add(args[0].amplitudes.tobytes())


def _verdict(rec, _args, v):
    rec.counts[f"locc.case.{v.case}"] += 1
    if v.violated is not None:
        rec.counts[f"locc.violated.{v.violated}"] += 1
    rec.counts["locc.feasible"] += int(v.feasible)


def _found(rec, _args, meas):
    rec.counts["transfer.search.found"] += int(meas is not None)


HOOKS = {"schmidt_decompose": _distinct_input, "dlocc_feasible": _verdict,
         "search_deterministic_measurement": _found}


class Patch:
    """Wrappers for WRAPPED at every site that binds them; apply() swaps
    them in and undo() restores the originals."""

    def __init__(self, rec):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "triloc" or n.startswith("triloc."))]
        self.sites = []
        for mod_name, fn_name in WRAPPED:
            orig = getattr(importlib.import_module(f"triloc.{mod_name}"), fn_name)
            traced = rec.wrap(f"{mod_name}.{fn_name}", orig, HOOKS.get(fn_name))
            self.sites += [(mod, attr, orig, traced) for mod in modules
                           for attr, val in list(vars(mod).items()) if val is orig]

    def apply(self):
        for mod, attr, _, traced in self.sites:
            setattr(mod, attr, traced)

    def undo(self):
        for mod, attr, orig, _ in self.sites:
            setattr(mod, attr, orig)

    def names(self):
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _, _ in self.sites)


def summarize(spans):
    """Per span name: (calls, total seconds, self seconds)."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + end - start, own + end - start - inner)
    return out


def dump(rec, path, extra=None):
    data = {"fields": ["name", "start", "end", "parent", "op"], "spans": rec.spans,
            "counts": dict(rec.counts), "distinct_inputs": len(rec.distinct) + rec.distinct_other}
    data.update(extra or {})
    with open(path, "w") as fh:
        json.dump(data, fh)


def cli_main(path):
    """Run the triloc CLI with tracing on; the spans go to path at exit."""
    import triloc.cli
    rec = Recorder()
    Patch(rec).apply()
    try:
        triloc.cli.main()
    finally:
        dump(rec, path)
