"""Span tracing of gammasum's public functions, installed from outside.

`Tracer.install()` replaces every public function of each layer module
with a wrapper, at every name a gammasum module binds it under (so
`gammasum.pipeline.invert_to_table` is traced as well as
`gammasum.finite_sum.invert_to_table`).  Each wrapped call appends one
span (name, start, end, parent, work) to an in-memory list and counts
the exceptions it raises.  `uninstall()` restores the original objects,
so code run outside an install/uninstall pair is untraced.

No file of the package is changed; the wrappers live only in this
process's module dictionaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = (
    "weights",
    "cumulants",
    "edgeworth",
    "levy",
    "finite_sum",
    "pipeline",
    "mc_oracle",
    "cli",
)

# Work a call did, read from its result: the grid points an inversion or a
# Z table covers, and the gamma draws behind a sample batch.
_WORK = {
    "finite_sum.invert_to_table": lambda out: len(out.grid),
    "pipeline.z_cdf": lambda out: len(out.grid),
    "mc_oracle.sample_z": lambda out: out.n_samples * out.n_terms,
}
# A value worth keeping from a call's result.
_NOTE = {"mc_oracle.sample_z": lambda out: out.neglected_sd}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    work: float = 0.0
    note: float | None = None


def self_times(spans):
    """Per-span duration minus the time its direct child spans cover.

    Calls run on one thread, so children of one span never overlap and the
    covered time is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def has_ancestor(spans, i, name):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


class Tracer:
    """Collects spans and per-layer error counts while installed."""

    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        work = _WORK.get(name)
        note = _NOTE.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                stack.pop()
                span.end = time.perf_counter()
            if work is not None:
                span.work = work(out)
            if note is not None:
                span.note = note(out)
            return out

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gammasum.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gammasum" or mod_name.startswith("gammasum.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def summary(self, n_ops):
        """Per-layer metrics per traced operation, keyed by metric name."""
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        wall_s = defaultdict(float)
        work = defaultdict(float)
        for i, s in enumerate(self.spans):
            calls[s.name] += 1
            self_s[s.name] += selfs[i]
            if not has_ancestor(self.spans, i, s.name):
                wall_s[s.name] += s.end - s.start
            work[s.name] += s.work
        head_points = sum(
            s.work
            for i, s in enumerate(self.spans)
            if s.name == "finite_sum.invert_to_table"
            and has_ancestor(self.spans, i, "pipeline.z_cdf")
        )
        neglected = [s.note for s in self.spans if s.name == "mc_oracle.sample_z"]
        draws = work["mc_oracle.sample_z"]
        sampler_s = self_s["mc_oracle.sample_z"]
        z_points = work["pipeline.z_cdf"]
        per_op = 1.0 / max(n_ops, 1)
        out = {}
        for name in set(calls):
            out[f"{name}.calls"] = calls[name] * per_op
            out[f"{name}.self_s"] = self_s[name] * per_op
            out[f"{name}.wall_s"] = wall_s[name] * per_op
        out["finite_sum.invert_to_table.points"] = work["finite_sum.invert_to_table"] * per_op
        out["pipeline.head_points_ratio"] = head_points / z_points if z_points else 0.0
        out["mc_oracle.term_draws"] = draws * per_op
        out["mc_oracle.term_draws_per_s"] = draws / sampler_s if sampler_s > 0 else 0.0
        out["mc_oracle.neglected_sd"] = neglected[-1] if neglected else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = float(self.errors[layer])
        return out
