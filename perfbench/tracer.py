"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry point of each layer at every
name a caller looks up: a method is replaced on its class, a function
in every loaded ``repro`` module that holds it.  Spans stay in memory
as ``[name, start, end, parent]`` and are written out once, by
:meth:`Recorder.document`.  Nothing here is imported by an untraced
unit, and nothing is added to the program's own sources.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: The attribute that marks a wrapper; :func:`installed_wrappers`
#: looks for it.
MARK = "__perfbench_span__"

#: The root span around ``main(argv)``.  Its self time is the wall no
#: layer span covers.
ROOT = "cli.main"


def _plan_messages(counts, args, out):
    counts["runtime.plan_messages"] += len(args[0].messages)


def _dispatch_stats(counts, args, out):
    counts["runtime.extrapolated_trips"] += int(out.extrapolated_trips)
    counts["runtime.fallbacks"] += int(out.fallbacks)


def _batch_rows(counts, args, out):
    counts["runtime.batch_rows"] += int(out.times.size)


def _static_comms(counts, args, out):
    counts["comm.static_comms"] += int(out[1].final)


def _cache_hit(counts, args, out):
    counts["engine.cache_hits"] += out is not None


#: (span name, module, attribute, counter hook).  A dotted attribute is
#: a method on a class of that module.
SPANS = (
    ("programs.source", "repro.programs.registry", "benchmark_source", None),
    ("frontend.parse", "repro.frontend.parser", "parse", None),
    ("frontend.analyze", "repro.frontend.semantic", "analyze", None),
    ("ir.lower", "repro.ir.build", "lower", None),
    ("comm.optimize", "repro.comm.optimizer", "optimize_with_report", _static_comms),
    ("runtime.plan", "repro.runtime.transfers", "TransferPlan.__init__", _plan_messages),
    ("runtime.simulate", "repro.runtime.executor", "simulate", None),
    ("runtime.schedule_lower", "repro.runtime.schedule", "compile_schedule", None),
    ("runtime.dispatch", "repro.runtime.schedule", "CompiledSchedule.execute", _dispatch_stats),
    ("runtime.batch", "repro.runtime.batch", "simulate_many", _batch_rows),
    ("machine.pack", "repro.machine.variants", "pack_variant_specs", None),
    ("sweep.expand", "repro.sweep.core", "expand_axes", None),
    ("engine.fingerprint", "repro.engine.jobs", "Job.fingerprint", None),
    ("engine.cache_get", "repro.engine.cache", "DirCache.get", _cache_hit),
    ("engine.cache_put", "repro.engine.cache", "DirCache.put", None),
    ("analysis.render", "repro.analysis.report", "format_table", None),
    ("analysis.render", "repro.analysis.figures", "figure8_counts", None),
    ("analysis.render", "repro.analysis.figures", "figure10a_times", None),
    ("analysis.render", "repro.analysis.figures", "figure10b_times", None),
    ("analysis.render", "repro.analysis.figures", "figure11_heuristic_counts", None),
    ("analysis.render", "repro.analysis.figures", "figure12_heuristic_times", None),
    ("analysis.render", "repro.analysis.figures", "table_full", None),
    ("analysis.render", "repro.analysis.scaling", "detect_crossovers", None),
    ("analysis.render", "repro.analysis.scaling", "format_scaling_report", None),
)

#: (counter name, module, method): calls counted without a span.
COUNTERS = (("runtime.plan_lookups", "repro.runtime.transfers", "PlanCache.plan"),)


class Recorder:
    """In-memory spans and counts of one unit."""

    def __init__(self, unit: int) -> None:
        self.unit = unit
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def span(self, name: str, fn: Callable, hook: Optional[Callable] = None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if hook is not None:
                hook(counts, args, out)
            return out

        setattr(wrapper, MARK, name)
        return wrapper

    def counter(self, name: str, fn: Callable):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, name)
        return wrapper

    def document(self, workload: str) -> Dict:
        return {
            "workload": workload,
            "unit": self.unit,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "unit": self.unit}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }


def _rebind(original, wrapper) -> None:
    """Point every loaded ``repro`` module's reference to ``original``
    at ``wrapper``: callers that imported the name look it up there."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point for ``recorder``."""
    targets = [
        (module, attr, functools.partial(recorder.span, name, hook=hook))
        for name, module, attr, hook in SPANS
    ]
    targets += [
        (module, attr, functools.partial(recorder.counter, name))
        for name, module, attr in COUNTERS
    ]
    for module_name, attr, wrap in targets:
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, leaf, wrap(owner.__dict__[leaf]))
        else:
            original = getattr(module, leaf)
            _rebind(original, wrap(original))


def installed_wrappers() -> int:
    """How many wrappers are reachable from the loaded ``repro``
    modules, as module attributes or class methods."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in list(vars(module).values()):
            if hasattr(value, MARK):
                seen.add(id(value))
            elif isinstance(value, type):
                for member in vars(value).values():
                    if hasattr(member, MARK):
                        seen.add(id(member))
    return len(seen)
