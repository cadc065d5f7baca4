"""Spans recorded from outside the program, and the statistics the benchmark
reports.

A :class:`Tracer` wraps public functions where their caller binds them (for
example ``posauction.experiments.encode``), keeps one span per call in memory
(name, start, end, parent) and derives busy and self time per span name and
per layer.  The layer of a span is the part of its name before the first dot.

This module uses the standard library only, so the parent process of the
benchmark and the tests can import it without importing the program.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager

NO_PARENT = -1


class Tracer:
    """In-memory span recorder.

    ``spans[i]`` is ``(name, start_ns, end_ns, parent_index)``; a span's
    parent is the span that was open on the same thread when it started.
    ``counts`` holds counters recorded at the same boundaries (profiles
    scanned, table entries, ...).
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(tracer, result, args, kwargs)``
        runs after the span closes, in a ``trace.count`` span of its own so
        that the counting is not charged to the caller's self time."""
        spans, stack = self.spans, self._stack
        perf = time.perf_counter_ns
        count = self.wrap("trace.count", on_result) if on_result else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else NO_PARENT)
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace ``module.attr`` by a traced wrapper for the duration of the
    block.  ``targets`` holds ``(module_name, attr, span_name, on_result)``.
    """
    saved = []
    try:
        for module_name, attr, span_name, on_result in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, on_result))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover, in
    seconds.  Spans of one thread nest, so children never overlap."""
    child_ns = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent != NO_PARENT:
            child_ns[parent] += end - start
    return [(end - start - child_ns[i]) / 1e9
            for i, (_name, start, end, _parent) in enumerate(spans)]


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds (summed durations) and self
    seconds."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += (end - start) / 1e9
        row["self_s"] += own
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Self seconds per layer (the span name up to its first dot)."""
    out: Counter = Counter()
    for (name, *_rest), own in zip(spans, self_times(spans)):
        out[name.split(".", 1)[0]] += own
    return dict(out)


def tail_quantile(samples: int) -> float:
    """The quantile reported as the tail latency for this many samples.

    The 90th percentile when there are at least 100 samples; otherwise the
    highest quantile that leaves at least 10 samples above it.  Below 20
    samples that would fall under the median, and the median is reported.
    """
    if samples < 1:
        raise ValueError("no samples")
    return max(0.5, min(0.9, 1.0 - 10.0 / samples))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a share
    ``q`` of all samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_latency(values) -> tuple[float, float]:
    """``(quantile, value)`` of the tail latency rule above."""
    q = tail_quantile(len(values))
    return q, quantile(values, q)


def speed_factor(samples, nominal_s: float, trim: float = 0.1) -> float:
    """How much faster than measured a nominal machine would have run: the
    nominal time of the reference kernel over the mean of its samples, with
    the lowest and highest ``trim`` share of the samples left out.  The mean
    weighs slow and fast stretches of a run as the run's own time does."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    cut = int(trim * len(ordered))
    kept = ordered[cut:len(ordered) - cut]
    return nominal_s / statistics.fmean(kept)


def local_speed_factors(samples, units: int, nominal_s: float,
                        window: int) -> list[float]:
    """Per unit of a round, a speed factor from the kernel samples taken
    before it and before its ``window`` neighbours on either side: the
    nominal time over their median.  ``samples`` holds the same number of
    samples before each of the ``units`` units, in order."""
    if units < 1 or len(samples) % units:
        raise ValueError("samples do not split evenly over the units")
    per = len(samples) // units
    return [nominal_s / statistics.median(
                samples[max(0, i - window) * per:min(units, i + window + 1) * per])
            for i in range(units)]


def round_wall(rounds, key: str = "wall_s", factors=None) -> float:
    """Time of one round over all groups: per group the median over the
    rounds, summed.  Each round runs every group once with the same inputs,
    so the median drops passes slowed by other load on the machine.  With
    ``factors``, each round's times are first multiplied by its factor."""
    factors = factors or [1.0] * len(rounds)
    groups = len(rounds[0][key])
    return sum(statistics.median(r[key][g] * f for r, f in zip(rounds, factors))
               for g in range(groups))
