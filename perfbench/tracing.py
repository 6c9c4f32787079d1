"""In-memory spans and counts around the public entry points of each layer.

The program carries no tracing of its own, so spans are recorded here by
replacing a layer function with a timing wrapper in the namespace of the
module that calls it. Patching per calling module is what separates, for
example, ``cir`` called by ``channel`` (peak search, ring means) from
``cir`` called by ``perf`` (the neglected-tail integrand).

Each span is ``[name, start, end, parent_span, job]``; times are
``time.perf_counter`` seconds. A patch point whose function no longer
exists is skipped, so the layer reads zero instead of the run failing;
``install`` returns the patch points it found and those it did not, and
a counter that raises is tallied in ``count_errors``, so a result can
tell a layer that is gone from a layer that got cheaper.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import threading
import time
from collections import Counter

import numpy as np

# (calling module, attribute, span name, counter)
PATCH_POINTS = (
    ("cli", "main", "cli", None),
    ("channel", "cir", "channel.cir", None),
    ("cli", "cir", "channel.cir", None),
    ("perf", "cir", "perf.tail_cir", None),
    ("channel", "peak_time", "channel.peak_time", None),
    ("perf", "summarize", "channel.summarize", None),
    ("cli", "summarize", "channel.summarize", None),
    ("perf", "collapse_iui", "detection.collapse_iui", "atoms"),
    ("cli", "collapse_iui", "detection.collapse_iui", "atoms"),
    ("perf", "optimal_threshold", "detection.optimal_threshold", "iters"),
    ("detection", "optimal_threshold", "detection.optimal_threshold", "iters"),
    ("detection", "threshold_set", "detection.threshold_set", None),
    ("detection", "log_sum_exp", "specfun.log_sum_exp", "terms"),
    ("perf", "poisson_decision_curves", "perf.poisson_decision_curves", "atom_thetas"),
    ("cli", "poisson_decision_curves", "perf.poisson_decision_curves", "atom_thetas"),
    ("montecarlo", "poisson_decision_curves", "perf.poisson_decision_curves", "atom_thetas"),
    ("perf", "evaluate", "perf.evaluate", None),
    ("config", "enumerate_sites", "gridgeom.enumerate_sites", None),
    ("cli", "mc_run", "montecarlo.run", "samples"),
    ("cli", "simulate_cir", "pbs.simulate_cir", "particle_steps"),
)


def _count(kind: str, args, result) -> int:
    if kind == "atoms":
        return int(np.size(result.values))
    if kind == "iters":
        return int(result) + 1
    if kind == "terms":
        return int(np.size(args[0]))
    if kind == "atom_thetas":
        theta_max, values = args[0], args[2]
        return int(np.size(values)) * (int(theta_max) + 1)
    if kind == "samples":
        return int(result.samples)
    if kind == "particle_steps":
        pcfg = args[3]
        return pcfg.realizations * pcfg.particles * len(result.times)
    raise ValueError(f"unknown counter {kind!r}")


class Tracer:
    """Span and count recorder for one process; ``job`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.count_errors: Counter = Counter()
        self.job = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, counter: str | None = None):
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            self.spans.append(record)
            stack.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    self.counts[f"{name}.{counter}"] += _count(counter, args, result)
                except Exception as exc:  # the entry point changed shape, or _count is wrong
                    self.count_errors[f"{name}.{counter}: {exc!r}"] += 1
            return result

        return traced

    def install(self, package: str) -> dict:
        """Wrap every patch point that exists in ``package``'s modules.

        All modules are imported before any is patched, so a module that
        imports a name from another never picks up a wrapper as its original.
        Returns the patch points (``module.attr``) installed and missing.
        """
        modules = {}
        for module_name in {point[0] for point in PATCH_POINTS}:
            try:
                modules[module_name] = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                continue
        found = {"installed": [], "missing": []}
        for module_name, attr, name, counter in PATCH_POINTS:
            fn = getattr(modules.get(module_name), attr, None)
            found["missing" if fn is None else "installed"].append(f"{module_name}.{attr}")
            if fn is not None:
                setattr(modules[module_name], attr, self.span(name, fn, counter))
        return found

    def write(self, path: str) -> None:
        """Spans as gzip CSV: id, name, start, end, parent id, job."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id,name,start_s,end_s,parent,job\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                parent_id = index[id(parent)] if parent is not None else -1
                out.write(f"{i},{name},{start:.9f},{end:.9f},{parent_id},{job}\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_times(spans: list[list]) -> tuple[Counter, Counter, Counter]:
    """Per span name: call count, busy time and self time.

    Self time is a span's duration minus the part of it covered by its
    direct children.
    """
    calls: Counter = Counter()
    busy: Counter = Counter()
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        busy[name] += end - start
        if parent is not None:
            children.setdefault(id(parent), []).append((start, end))
    self_time: Counter = Counter()
    for record in spans:
        name, start, end = record[0], record[1], record[2]
        self_time[name] += (end - start) - _covered(children.get(id(record), []))
    return calls, busy, self_time


# per-layer metric -> (kind, span name or counter key); busy and self times
# are medians over the traced passes, counts those of one pass
LAYER_METRICS = {
    "channel.cir.calls": ("calls", "channel.cir"),
    "channel.cir.busy_s": ("busy", "channel.cir"),
    "perf.tail_cir.calls": ("calls", "perf.tail_cir"),
    "perf.tail_cir.busy_s": ("busy", "perf.tail_cir"),
    "channel.peak_time.calls": ("calls", "channel.peak_time"),
    "channel.peak_time.busy_s": ("busy", "channel.peak_time"),
    "channel.summarize.busy_s": ("busy", "channel.summarize"),
    "detection.collapse_iui.busy_s": ("busy", "detection.collapse_iui"),
    "detection.collapse_iui.atoms": ("counts", "detection.collapse_iui.atoms"),
    "detection.optimal_threshold.busy_s": ("busy", "detection.optimal_threshold"),
    "detection.optimal_threshold.iters": ("counts", "detection.optimal_threshold.iters"),
    "detection.threshold_set.busy_s": ("busy", "detection.threshold_set"),
    "specfun.log_sum_exp.calls": ("calls", "specfun.log_sum_exp"),
    "specfun.log_sum_exp.terms": ("counts", "specfun.log_sum_exp.terms"),
    "perf.poisson_decision_curves.busy_s": ("busy", "perf.poisson_decision_curves"),
    "perf.poisson_decision_curves.atom_thetas": ("counts", "perf.poisson_decision_curves.atom_thetas"),
    "perf.evaluate.calls": ("calls", "perf.evaluate"),
    "perf.evaluate.self_s": ("self", "perf.evaluate"),
    "gridgeom.enumerate_sites.calls": ("calls", "gridgeom.enumerate_sites"),
    "gridgeom.enumerate_sites.busy_s": ("busy", "gridgeom.enumerate_sites"),
    "montecarlo.run.busy_s": ("busy", "montecarlo.run"),
    "montecarlo.samples_per_s": ("rate", ("montecarlo.run.samples", "montecarlo.run")),
    "pbs.simulate_cir.busy_s": ("busy", "pbs.simulate_cir"),
    "pbs.particle_steps_per_s": ("rate", ("pbs.simulate_cir.particle_steps", "pbs.simulate_cir")),
    "cli.self_s": ("self", "cli"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def layer_metrics(passes: list[dict]) -> dict:
    """Per-layer metrics from the traced passes' calls, busy, self and counts."""

    def median(kind: str, key: str) -> float:
        return statistics.median(p[kind].get(key, 0.0) for p in passes)

    values = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind in ("calls", "counts"):
            values[metric] = passes[0][kind].get(key, 0)
        elif kind == "rate":
            count, span = key
            busy = median("busy", span)
            values[metric] = passes[0]["counts"].get(count, 0) / busy if busy else 0.0
        else:
            values[metric] = median(kind, key)
    return values
