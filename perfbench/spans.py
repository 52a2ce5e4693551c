"""Layer spans recorded from outside the program, by wrapping its functions.

Each layer names the public functions that do its work. Every binding of
such a function found in a loaded ``mlofi`` module is replaced by one
wrapper, because ``from .x import f`` gives each caller its own name to
look up. A function that no loaded module binds any more marks its layer
``absent``; the layer then records nothing and its time falls into the
caller's span or into ``cli.other_s``.

Spans (name, start, end, parent index) are kept in memory and summarised
once the run ends. A layer's self time is its spans' durations minus the
time covered by their direct child spans, so the self times of all layers
add up to the duration of the top-level spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: layer -> function names whose calls are that layer's spans.
SPAN_LAYERS = {
    "lobster.parse": ("parse_message_file",),
    "imbalance.replay": ("compute_day_samples",),
    "evaluation.book_summary": ("summarize_book",),
    "sampling.assemble": ("assemble_problems",),
    "inference.select": ("select_lambda",),
    "inference.fit": ("fit_ols", "fit_ridge"),
    "evaluation.curves": (
        "adjusted_r2_curve",
        "rmse_curve",
        "seasonality_profile",
        "fit_all_windows",
    ),
}

#: Called far too often for a span each (about 250 per penalty search);
#: only counted, their time stays in the calling span.
COUNTED = {"inference.solves": ("ridge_coefficients",)}


def _day_events(args, kwargs, result):
    return {"imbalance.events": len(args[0].events),
            "imbalance.discarded_intervals": result.discarded_intervals}


def _parsed_rows(args, kwargs, result):
    return {"lobster.rows": len(result.events)}


def _summarized_days(args, kwargs, result):
    return {"evaluation.book_summary_days": len(args[0])}


def _problems(args, kwargs, result):
    grid = args[1]
    return {"sampling.problems": len(result),
            "sampling.dropped_windows": grid.n_windows - len(result)}


#: layer -> function(args, kwargs, result) giving counter increments. A
#: counter whose inputs changed shape is reported unavailable, not guessed.
COUNTERS = {
    "lobster.parse": _parsed_rows,
    "imbalance.replay": _day_events,
    "evaluation.book_summary": _summarized_days,
    "sampling.assemble": _problems,
}


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.unavailable: set[str] = set()
        self.absent: list[str] = []

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span_wrapper(self, fn, layer: str):
        counter = COUNTERS.get(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.add(f"{layer}.raised.{type(exc).__name__}")
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if counter is not None:
                self._count(counter, layer, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def count_wrapper(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _count(self, counter, layer, args, kwargs, result) -> None:
        try:
            increments = counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.unavailable.add(layer)
            return
        for name, amount in increments.items():
            self.add(name, int(amount))

    def install(self, package: str = "mlofi") -> None:
        """Wrap every binding of the layer functions in loaded package modules."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        plans = [(layer, fn_name, self.span_wrapper)
                 for layer, names in SPAN_LAYERS.items() for fn_name in names]
        plans += [(name, fn_name, self.count_wrapper)
                  for name, names in COUNTED.items() for fn_name in names]
        for layer, fn_name, make in plans:
            wrapped: dict[int, object] = {}
            for module in modules:
                fn = vars(module).get(fn_name)
                if not (inspect.isfunction(fn) and fn.__module__.startswith(package)):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = make(fn, layer)
                setattr(module, fn_name, wrapped[id(fn)])
            if not wrapped:
                self.absent.append(f"{layer}:{fn_name}")

    def summary(self) -> dict:
        """Per-layer self time, call count and per-call durations."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict] = {
            name: {"self_s": 0.0, "calls": 0, "call_ms": []} for name in SPAN_LAYERS
        }
        top_level_s = 0.0
        for i, (layer, start, end, parent) in enumerate(self.spans):
            entry = layers[layer]
            entry["self_s"] += (end - start) - child_time[i]
            entry["calls"] += 1
            entry["call_ms"].append((end - start) * 1e3)
            if parent < 0:
                top_level_s += end - start
        absent_layers = sorted(
            layer for layer, names in {**SPAN_LAYERS, **COUNTED}.items()
            if all(f"{layer}:{n}" in self.absent for n in names)
        )
        return {
            "layers": layers,
            "top_level_s": top_level_s,
            "spans": len(self.spans),
            "counts": dict(sorted(self.counts.items())),
            "unavailable": sorted(self.unavailable),
            "absent_functions": self.absent,
            "absent_layers": absent_layers,
        }

