"""Span tracing from outside the library, for the per-layer metrics.

The traced run replaces the public functions at each module boundary with
wrappers that record a span (name, start, end, parent, work counts).  The
library binds some of these names at import time, so every binding is
patched: `ocft.cft` imports the Haar samplers, `haar._SAMPLERS` holds the
samplers `mc_expectation` calls, `ocft.moments` and `ocft.jacobi` import
`pfaffian`, and `ocft.cli` imports the entry points.  Spans stay in memory
and are summarised when the run ends.

A span's self time is its duration minus the durations of its child spans.
Calls are single-threaded, so child spans nest inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

# span name -> every (module, attribute[, dict key]) that binds the function
TARGETS = {
    "cli": [("ocft.cli", "run")],
    "haar.sample": [
        ("ocft.haar", "sample_orthogonal_batch"),
        ("ocft.haar", "sample_special_orthogonal_batch"),
        ("ocft.haar", "_SAMPLERS", "O"),
        ("ocft.haar", "_SAMPLERS", "SO"),
        ("ocft.cft", "sample_orthogonal_batch"),
        ("ocft.cft", "sample_special_orthogonal_batch"),
    ],
    "haar.mc_expectation": [
        ("ocft.haar", "mc_expectation"),
        ("ocft.moments", "mc_expectation"),
        ("ocft.cli", "mc_expectation"),
    ],
    "cft.lhs": [("ocft.cft", "lhs_coefficient_means")],
    "cft.bosonic_z": [("ocft.cft", "sample_bosonic_z")],
    "cft.verify": [
        (module, name)
        for module in ("ocft.cft", "ocft.cli")
        for name in ("verify_fermionic_cft", "verify_bosonic_cft", "verify_son_cft")
    ],
    "grassmann.gmul": [("ocft.grassmann", "gmul"), ("ocft.cft", "gmul")],
    "linalg.pfaffian": [
        (module, "pfaffian")
        for module in ("ocft.linalg", "ocft.moments", "ocft.jacobi", "ocft.cli")
    ],
    "moments.pfaffian_batch": [("ocft.moments", "pfaffian_batch")],
    "moments.integral": [
        ("ocft.moments", "moment_pfaffian_integral"),
        ("ocft.cli", "moment_pfaffian_integral"),
    ],
    "jacobi.quadrature": [
        (module, name)
        for module in ("ocft.jacobi", "ocft.cli")
        for name in ("jacobi_quadrature", "ginibre_pipeline")
    ],
    "jacobi.pfaffian_route": [
        ("ocft.jacobi", "jacobi_pfaffian"),
        ("ocft.cli", "jacobi_pfaffian"),
    ],
    "jacobi.ginibre_mc": [("ocft.jacobi", "ginibre_mc"), ("ocft.cli", "ginibre_mc")],
}

# span name -> {count: read(bound arguments, result)}
COUNTS = {
    "haar.sample": {"draws": lambda args, result: args["count"]},
    "cft.lhs": {
        "samples": lambda args, result: args["samples"],
        "monomials": lambda args, result: len(result),
    },
    "cft.bosonic_z": {"draws": lambda args, result: args["count"]},
    "moments.pfaffian_batch": {"kernels": lambda args, result: len(args["k"])},
    "jacobi.ginibre_mc": {"draws": lambda args, result: args["samples"]},
}

# (metric, unit, better): "<span>.<field>", where a field is calls, self_s, a
# count, or "<count>_per_s" (the count over the span's self time)
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("haar.sample.calls", "count", "lower"),
    ("haar.sample.draws", "count", "lower"),
    ("haar.sample.self_s", "s", "lower"),
    ("haar.sample.draws_per_s", "1/s", "higher"),
    ("haar.mc_expectation.self_s", "s", "lower"),
    ("cft.lhs.calls", "count", "lower"),
    ("cft.lhs.samples", "count", "lower"),
    ("cft.lhs.monomials", "count", "lower"),
    ("cft.lhs.self_s", "s", "lower"),
    ("cft.bosonic_z.calls", "count", "lower"),
    ("cft.bosonic_z.draws", "count", "lower"),
    ("cft.bosonic_z.self_s", "s", "lower"),
    ("cft.bosonic_z.draws_per_s", "1/s", "higher"),
    ("cft.verify.self_s", "s", "lower"),
    ("grassmann.gmul.calls", "count", "lower"),
    ("grassmann.gmul.self_s", "s", "lower"),
    ("linalg.pfaffian.calls", "count", "lower"),
    ("linalg.pfaffian.self_s", "s", "lower"),
    ("moments.pfaffian_batch.calls", "count", "lower"),
    ("moments.pfaffian_batch.kernels", "count", "lower"),
    ("moments.pfaffian_batch.self_s", "s", "lower"),
    ("moments.pfaffian_batch.kernels_per_s", "1/s", "higher"),
    ("moments.integral.self_s", "s", "lower"),
    ("jacobi.quadrature.calls", "count", "lower"),
    ("jacobi.quadrature.self_s", "s", "lower"),
    ("jacobi.pfaffian_route.self_s", "s", "lower"),
    ("jacobi.ginibre_mc.draws", "count", "lower"),
    ("jacobi.ginibre_mc.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.covered", "1", "higher"),
]


class Recorder:
    """In-memory span list; each span is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unmeasured: set[str] = set()

    def wrap(self, name: str, fn, counts: dict):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and self.spans[stack[-1]][0] == name:
                # re-entry, e.g. the SO(N) sampler calling the O(N) one
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = {}
                for count, read in counts.items():
                    try:
                        span[4][count] = int(read(bound.arguments, result))
                    except KeyError:  # the parameter was renamed
                        self.unmeasured.add(f"{name}.{count}")
            return result

        return wrapper


@contextmanager
def recording(recorder: Recorder):
    """Patch every binding in TARGETS with recording wrappers; restore on exit.

    A span whose function is bound nowhere is added to ``recorder.unmeasured``.
    """
    patched = []
    try:
        for name, targets in TARGETS.items():
            before = len(patched)
            for module_name, attr, *key in targets:
                holder = importlib.import_module(module_name)
                if key:
                    holder, attr = getattr(holder, attr, {}), key[0]
                    original = holder.get(attr)
                else:
                    original = getattr(holder, attr, None)
                if original is not None:
                    wrapper = recorder.wrap(name, original, COUNTS.get(name, {}))
                    _set(holder, attr, wrapper)
                    patched.append((holder, attr, original))
            if len(patched) == before:
                recorder.unmeasured.add(name)
        yield recorder
    finally:
        for holder, attr, original in reversed(patched):
            _set(holder, attr, original)


def _set(holder, attr: str, value) -> None:
    if isinstance(holder, dict):
        holder[attr] = value
    else:
        setattr(holder, attr, value)


def layer_stats(spans) -> tuple[dict[str, dict[str, float]], float]:
    """Per span name: calls, self_s and summed counts; plus top-level time."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    top_level = 0.0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        for count, value in (counts or {}).items():
            entry[count] = entry.get(count, 0) + value
        if parent < 0:
            top_level += end - start
    return stats, top_level


def layer_metrics(spans, wall_s: float, unmeasured=()) -> tuple[dict, list[str]]:
    """Every PER_LAYER metric except trace.overhead_s, from one traced pass.

    A span that ran no calls reports zero calls, time and work.  Metrics whose
    span or count is in ``unmeasured`` also read zero and are listed in the
    second return value, so that they are not taken for measurements.
    """
    stats, top_level = layer_stats(spans)
    values, missing = {}, []
    for metric, _, _ in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        if span == "trace":
            continue
        count = field.removesuffix("_per_s")
        if span in unmeasured or f"{span}.{count}" in unmeasured:
            missing.append(metric)
        entry = stats.get(span, {})
        if field != count:
            busy = entry.get("self_s", 0.0)
            values[metric] = entry.get(count, 0) / busy if busy > 0 else 0.0
        else:
            values[metric] = entry.get(field, 0)
    values["trace.covered"] = top_level / wall_s
    return values, missing
