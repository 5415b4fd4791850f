"""In-memory spans around the public functions of each energia module.

The tracer wraps functions from outside the package.  ``cli``, ``checks``,
``bsg`` and ``decomposer`` import functions by name, so each wrapper is
bound under every name in every ``energia`` module that refers to the
original; calls inside one module go through its globals and are caught
the same way.  ``IntSet`` construction is traced by wrapping
``IntSet.__init__`` on the class, which every import shares.

A span is ``[name, start_ns, end_ns, parent, job, self_ns, count]``:
``parent`` is the index of the enclosing span (-1 for a job's root),
``self_ns`` is the duration minus the time its child spans cover, and
``count`` is a per-span size (output support, elements, iterations...)
for the names in ``_COUNTS``.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "sets", "energy", "checks", "bsg", "decomposer", "constants", "precision")


def _reports(out):
    """CheckReports a ``checks`` function returned (``digest`` returns none)."""
    items = out if isinstance(out, (list, tuple)) else [out]
    return sum(type(r).__name__ == "CheckReport" for r in items)


# span name -> fn(args, result) giving the span's count
_COUNTS = {
    "energy.rep_function": lambda args, out: len(out.support),
    "sets.iterated_sumset": lambda args, out: len(out),
    "sets.IntSet": lambda args, out: len(args[0]),
    "decomposer.decompose": lambda args, out: out.iterations_used,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._child_ns = []
        self._patches = []

    def _wrap(self, name, fn, count):
        spans, stack, child_ns = self.spans, self._stack, self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.job, 0, None]
            stack.append(len(spans))
            spans.append(span)
            child_ns.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child_ns.pop()
                if child_ns:
                    child_ns[-1] += end - start
                span[1], span[2], span[5] = start, end, end - start - inner
            if count is not None:
                span[6] = count(args, out)
            return out

        return traced

    def install(self):
        """Wrap the public functions of every layer module."""
        modules = [importlib.import_module(f"energia.{m}") for m in LAYERS]
        modules.append(importlib.import_module("energia"))
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                count = _COUNTS.get(name, (lambda a, o: _reports(o)) if layer == "checks" else None)
                wrapper = self._wrap(name, fn, count)
                for target in modules:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            self._patches.append((target, key, fn))
                            setattr(target, key, wrapper)
        int_set = modules[LAYERS.index("sets")].IntSet
        init = int_set.__init__
        self._patches.append((int_set, "__init__", init))
        int_set.__init__ = self._wrap("sets.IntSet", init, _COUNTS["sets.IntSet"])

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job, _, count in self.spans:
                fh.write(json.dumps([name, start, end, parent, job, count]) + "\n")


def per_layer(spans, passes):
    """Per-layer metrics per traced pass of the job list.

    Times are self times in seconds; counts are exact for a given seed.
    """
    per = {}
    layer_self = {layer: 0 for layer in LAYERS}
    job_ns = 0
    candidates = 0
    energy_calls = 0
    reports = 0
    for name, start, end, parent, _, self_ns, count in spans:
        agg = per.setdefault(name, [0, 0, 0, 0])  # calls, self_ns, total_ns, count
        agg[0] += 1
        agg[1] += self_ns
        agg[2] += end - start
        agg[3] += count or 0
        layer = name.split(".", 1)[0]
        layer_self[layer] += self_ns
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent < 0:
            job_ns += end - start
        if parent_name == "bsg.bsg_extract" and name in ("sets.iterated_sumset", "sets.iterated_product_set"):
            candidates += 1
        if name == "energy.energy" and parent_name and parent_name.startswith("decomposer."):
            energy_calls += 1
        if layer == "checks" and not (parent_name or "").startswith("checks."):
            reports += count or 0

    def get(name, i):
        return per.get(name, (0, 0, 0, 0))[i]

    def seconds(ns):
        return ns / 1e9 / passes

    bsg_calls = get("bsg.bsg_extract", 0)
    m = {
        "energy.rep_function.self_s": seconds(get("energy.rep_function", 1)),
        "energy.rep_function.calls": get("energy.rep_function", 0) / passes,
        "energy.rep_function.support_out": get("energy.rep_function", 3) / passes,
        "energy.energy.self_s": seconds(get("energy.energy", 1)),
        "energy.energy_oracle.self_s": seconds(get("energy.energy_oracle", 1)),
        "energy.energy_oracle.calls": get("energy.energy_oracle", 0) / passes,
        "sets.iterated_sumset.self_s": seconds(get("sets.iterated_sumset", 1)),
        "sets.iterated_sumset.calls": get("sets.iterated_sumset", 0) / passes,
        "sets.iterated_sumset.out_elems": get("sets.iterated_sumset", 3) / passes,
        "sets.iterated_product_set.self_s": seconds(get("sets.iterated_product_set", 1)),
        "sets.iterated_product_set.calls": get("sets.iterated_product_set", 0) / passes,
        "sets.IntSet.self_s": seconds(get("sets.IntSet", 1)),
        "sets.IntSet.calls": get("sets.IntSet", 0) / passes,
        "sets.IntSet.elems": get("sets.IntSet", 3) / passes,
        "bsg.kp_pipeline.self_s": seconds(get("bsg.kp_pipeline", 1)),
        "bsg.bsg_extract.self_s": seconds(get("bsg.bsg_extract", 1)),
        "bsg.bsg_extract.calls": bsg_calls / passes,
        "bsg.bsg_extract.candidates": candidates / passes,
        "bsg.bsg_extract.accept_ratio": bsg_calls / candidates if candidates else 0.0,
        "bsg.bsg_extract.share": get("bsg.bsg_extract", 2) / job_ns if job_ns else 0.0,
        "bsg.kp_verify.self_s": seconds(get("bsg.kp_verify", 1)),
        "decomposer.decompose.self_s": seconds(get("decomposer.decompose", 1)),
        "decomposer.iterations": get("decomposer.decompose", 3) / passes,
        "decomposer.energy_calls": energy_calls / passes,
        "checks.self_s": seconds(layer_self["checks"]),
        "checks.reports": reports / passes,
        "precision.self_s": seconds(layer_self["precision"]),
        "precision.guarded_cmp.calls": get("precision.guarded_cmp", 0) / passes,
        "precision.cmp_count_power.calls": get("precision.cmp_count_power", 0) / passes,
        "constants.self_s": seconds(layer_self["constants"]),
        "cli.self_s": seconds(layer_self["cli"]),
    }
    shares = sorted(((v[2] / job_ns if job_ns else 0.0), k) for k, v in per.items())
    return m, shares[::-1]


def missing_spans(spans, required):
    """Names in ``required`` that no span carries."""
    seen = {span[0] for span in spans}
    return [name for name in required if name not in seen]
