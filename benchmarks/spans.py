"""Spans around every call into bandquant's public functions, for the traced run.

The wrappers live in the benchmark: ``Tracer.install`` replaces each public
function and method of the layer modules with a recording wrapper, also in
every module namespace that imported the name (``pipeline`` and ``cli`` bind
their imports at import time), and ``uninstall`` puts the originals back.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# The layers are the package's modules; svg draws one small chart per sweep
# and is counted with the cli.
LAYERS = ("generator", "signals", "sampling", "quantize", "condense", "frame", "pipeline", "cli")
_MODULE_LAYER = {**{name: name for name in LAYERS}, "svg": "cli"}

# Calls that write the CLI's report files; their time is cli time.
REPORT_WRITERS = frozenset(
    {
        "signals.SignalModel.to_csv",
        "sampling.BinnedSamples.to_csv",
        "quantize.QuantizationResult.to_csv",
        "pipeline.write_sweep_csv",
        "pipeline.write_sweep_chart",
    }
)

# Private callables that are traced: the generator's table build.
_EXTRA = frozenset({"generator.Generator.__init__"})

# Work counted at a call, from its result.
_MEASURES = {
    "generator.Generator.eval": lambda result: getattr(result, "size", 1),
    "signals.SignalModel.eval": lambda result: getattr(result, "size", 1),
    "quantize.greedy_noise_shape": lambda result: result.q.size,
    "sampling.draw_samples": lambda result: result.size,
    "sampling.partition_bins": lambda result: result.discarded,
}

# Self time per trial, by bucket.  With the harness's own share of each
# request (bucket "bench.self_s", not reported) they partition request time.
SELF_TIME_METRICS = (
    "generator.eval_self_s",
    "signals.eval_self_s",
    "sampling.self_s",
    "quantize.self_s",
    "condense.self_s",
    "frame.assemble_self_s",
    "frame.solve_self_s",
    "pipeline.self_s",
    "cli.write_self_s",
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "request", "count")

    def __init__(self, name, layer, start, parent, request):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.count = None


class Tracer:
    """Records spans (name, start, end, parent, request id) in memory."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._patches = None

    def begin(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent, self.request))
        self._stack.append(len(self.spans) - 1)

    def end(self):
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        return span

    def _wrap(self, fn, name):
        layer = "cli" if name in REPORT_WRITERS else _MODULE_LAYER[name.split(".", 1)[0]]
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end()
            if measure is not None:
                span.count = measure(result)
            return result

        return traced

    def _plan(self):
        """(owner, attribute, original, wrapper) for every traced binding."""
        package = sys.modules["bandquant"]
        modules = [importlib.import_module(f"bandquant.{m}") for m in _MODULE_LAYER]
        wrappers = {}
        patches = []
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    patches.extend(self._class_plan(obj, f"{short}.{attr}"))
                elif callable(obj) and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        # Rebind every module-level name that refers to a wrapped function,
        # wherever it was imported.
        for module in [package, *modules]:
            for attr, obj in vars(module).items():
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    patches.append((module, attr, obj, wrappers[id(obj)][1]))
        return patches

    def _class_plan(self, cls, qualname):
        patches = []
        wrapped = {}
        for attr, raw in vars(cls).items():
            name = f"{qualname}.{attr}"
            if id(raw) in wrapped:  # an alias such as ``__call__ = eval``
                wrapper = wrapped[id(raw)]
            elif attr.startswith("_") and name not in _EXTRA:
                continue
            elif isinstance(raw, (staticmethod, classmethod)):
                wrapper = type(raw)(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                wrapper = self._wrap(raw, name)
            else:
                continue
            wrapped[id(raw)] = wrapper
            patches.append((cls, attr, raw, wrapper))
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def write(self, path):
        """Write one JSON line per span, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (span, own) in enumerate(zip(self.spans, self_times(self.spans))):
                record = {slot: getattr(span, slot) for slot in Span.__slots__}
                fh.write(json.dumps({"id": index, **record, "self": own}) + "\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, child)]


def _bucket(span):
    if span["name"] == "frame.reconstruct":
        return "frame.solve_self_s"
    return {
        "generator": "generator.eval_self_s",
        "signals": "signals.eval_self_s",
        "frame": "frame.assemble_self_s",
        "cli": "cli.write_self_s",
    }.get(span["layer"], f"{span['layer']}.self_s")


def layer_metrics(request_spans, trials, build_s):
    """Per-layer metrics, per trial, from the spans of the traced requests.

    request_spans are span records as written by ``Tracer.write``; trials
    is the number of trials in those requests and build_s the generator
    build time.
    """
    totals = defaultdict(float)
    counts = defaultdict(float)
    calls = defaultdict(int)
    for span in request_spans:
        totals[_bucket(span)] += span["self"]
        calls[span["name"]] += 1
        if span["count"] is not None:
            counts[span["name"]] += span["count"]
        if span["name"] == "bench.request":
            totals["trace.request_s"] += span["end"] - span["start"]
    drawn = counts["sampling.draw_samples"]
    metrics = {
        "generator.build_s": (build_s, "s"),
        "generator.eval_points": (counts["generator.Generator.eval"] / trials, "count"),
        "signals.eval_points": (counts["signals.SignalModel.eval"] / trials, "count"),
        "sampling.kept_ratio": ((drawn - counts["sampling.partition_bins"]) / drawn, "1"),
        "quantize.greedy_steps": (counts["quantize.greedy_noise_shape"] / trials, "count"),
        "condense.matrix_builds": (calls["condense.BlockCondensation.matrix"] / trials, "count"),
        "frame.solve_calls": (calls["frame.reconstruct"] / trials, "count"),
    }
    for name in SELF_TIME_METRICS:
        metrics[name] = (totals[name] / trials, "s")
    covered = sum(totals[name] for name in SELF_TIME_METRICS)
    metrics["trace.request_s"] = (totals["trace.request_s"] / trials, "s")
    metrics["trace.covered_share"] = (covered / totals["trace.request_s"], "1")
    return metrics
