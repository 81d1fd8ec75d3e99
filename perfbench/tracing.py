"""Spans around the public functions of each risfso layer.

The tracer replaces module attributes with timing wrappers for the length
of a ``with`` block and puts the originals back in ``finally``. Callers
that look a function up through its module (``montecarlo.estimate_grid``
from cli, ``mgf`` from ``analytic.average_ber``, ``numerics.*`` from
analytic and channel) therefore reach the wrapper, so spans nest the way
the calls do. Nothing inside the package is changed.
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from risfso import analytic, channel, cli, montecarlo, numerics

# Layer -> (module, public functions wrapped). errors.py does no work.
LAYERS = {
    "cli": (cli, ("validate_config", "run_sweep", "emit")),
    "montecarlo": (montecarlo, ("estimate", "estimate_grid")),
    "channel": (channel, ("sample_aggregate", "sample_h_a", "sample_h_p", "pdf_b")),
    "analytic": (analytic, (
        "moments", "mgf", "generalized_moment", "amount_of_fading",
        "outage_probability", "asymptotic_profile", "asymptotic_outage",
        "average_ber", "channel_capacity", "oracle_metric",
    )),
    "numerics": (numerics, ("parabolic_cylinder_d", "meijer_g_1330")),
}


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int  # -1 for a root span
    failed: bool


class DrawCounter:
    """Monte Carlo blocks requested, computed from the estimator's arguments.

    A block is identified by (channel, N, seed, stream id); ``distinct``
    keeps the element-samples of each block once, which is what a sweep
    that drew every block once would need.
    """

    def __init__(self):
        self.blocks = 0
        self.element_samples = 0
        self.distinct: Dict[tuple, int] = {}

    def __call__(self, args: inspect.BoundArguments) -> None:
        a = args.arguments
        cfg = a["cfg"] if "cfg" in a else a["base_cfg"]
        n, first = cfg.n_elements, a.get("first_stream", 0)
        remaining = a["n_samples"]
        for block_id in itertools.count(first):
            if remaining <= 0:
                break
            count = min(montecarlo.BLOCK_SIZE, remaining)
            remaining -= count
            self.blocks += 1
            self.element_samples += count * n
            key = (repr(a["t"]), repr(a["g"]), n, a["seed"], block_id)
            self.distinct[key] = count * n


class Tracer:
    """Context manager that wraps the functions in LAYERS and records spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self.draws = DrawCounter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: List[Tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        try:
            for layer, (module, names) in LAYERS.items():
                for name in names:
                    original = getattr(module, name)
                    self._saved.append((module, name, original))
                    setattr(module, name, self._wrap(layer, name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        label = f"{layer}.{name}"
        on_call: Optional[Callable] = self.draws if layer == "montecarlo" else None
        by_kind = name == "oracle_metric"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = label
            if on_call or by_kind:
                bound = signature.bind(*args, **kwargs)
                if on_call:
                    on_call(bound)
                if by_kind:
                    span_name = f"{label}.{bound.arguments['kind']}"
            stack = self._stack()
            parent = stack[-1] if stack else -1
            span_id = next(self._ids)
            stack.append(span_id)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, span_name, layer, start, end, parent, failed))

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(Span._fields)
            for s in sorted(self.spans, key=lambda s: s.start):
                writer.writerow([s.id, s.name, s.layer, repr(s.start), repr(s.end),
                                 s.parent, int(s.failed)])


def summarize(spans: List[Span]) -> Tuple[Dict[str, Dict[str, float]], Dict[str, int]]:
    """Per span name: calls, total and self seconds; per layer: failed calls.

    Self time is a span's duration minus the durations of its children;
    children of one span run on its thread one after another, so they do
    not overlap.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    errors: Dict[str, int] = {layer: 0 for layer in LAYERS}
    for s in spans:
        entry = out[s.name]
        entry["calls"] += 1
        entry["s"] += s.end - s.start
        entry["self_s"] += s.end - s.start - child_time[s.id]
        errors[s.layer] += s.failed
    return dict(out), errors


def originals_restored(saved: Dict[Tuple[str, str], Callable]) -> bool:
    """True when every wrapped attribute is again the object in ``saved``."""
    return all(
        getattr(LAYERS[layer][0], name) is fn for (layer, name), fn in saved.items()
    )


def snapshot() -> Dict[Tuple[str, str], Callable]:
    return {
        (layer, name): getattr(module, name)
        for layer, (module, names) in LAYERS.items()
        for name in names
    }
