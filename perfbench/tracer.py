"""Span tracer for the benchmark's traced run.

``Tracer.install`` replaces every public function of each locert layer
module (the functions named in its ``__all__``) with a wrapper that records
a span: function, start, end, parent span and query id.  Two binding rules
decide where the wrapper must go:

* a call inside a module looks its target up in the module's globals
  (``dd_sign`` -> ``handle_reduce``), so patching the module attribute
  catches it;
* ``from x import f`` copies the binding into the importer, so every layer
  module's globals are searched and each copy of a wrapped function is
  replaced too (``compat.k_sign``, ``klein.abelianization``, the ``slopes``
  names in ``seifert``, ...).

Spans stay in memory, in flat arrays, until ``summary`` folds them into
per-function calls, total time and self time (duration minus the time
covered by direct child spans).  A few wrappers also read arguments or
results into counters, such as letters into and out of handle reduction.

Run as a script, it executes one CLI query under the tracer in a fresh
process: ``python perfbench/tracer.py braid sign aB``.  The envelope goes
to stdout as usual and the summary goes to the last line of stderr after
``TRACE ``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "braid", "compat", "klein", "fpgroup", "seifert", "alexander", "slopes")
TRACE_PREFIX = "TRACE "


def _handle_reduce(counters, args, result):
    counters["braid.handle_reduce.letters_in"] += len(args[0])
    counters["braid.handle_reduce.letters_out"] += len(result)


def _verify_compatibility(counters, args, result):
    counters["compat.grid_points"] += result.checked
    counters["compat.positives"] += result.positives


def _branched_cover_order(counters, args, result):
    if result is not None:
        counters["alexander.finite_orders"] += 1
        counters["alexander.order_digits_total"] += len(str(result))


def _enumerate_table(counters, args, result):
    if result is None:
        counters["fpgroup.cap_hits"] += 1
    else:
        counters["fpgroup.cosets_closed"] += result.index


def _certificate_search(counters, args, result):
    counters["seifert.certificates_found"] += result.certificate is not None


_COUNTER_HOOKS = {
    "braid.handle_reduce": _handle_reduce,
    "compat.verify_compatibility": _verify_compatibility,
    "alexander.branched_cover_order": _branched_cover_order,
    "fpgroup.enumerate_table": _enumerate_table,
    "seifert.certificate_search": _certificate_search,
}

COUNTERS = (
    "braid.handle_reduce.letters_in",
    "braid.handle_reduce.letters_out",
    "compat.grid_points",
    "compat.positives",
    "alexander.finite_orders",
    "alexander.order_digits_total",
    "fpgroup.cap_hits",
    "fpgroup.cosets_closed",
    "seifert.certificates_found",
)


def layer_modules() -> dict:
    return {name: importlib.import_module(f"locert.{name}") for name in LAYERS}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # function id -> "layer.function"
        self.query = 0  # id stamped on every span opened from now on
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._fn = array("i")
        self._parent = array("i")
        self._query = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._wrappers: dict = {}  # original function -> its wrapper
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, fid: int, hook):
        fns, parents, queries = self._fn, self._parent, self._query
        starts, ends, stack, counters = self._start, self._end, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            queries.append(self.query)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch the layers; spans accumulate across install / uninstall
        cycles, so a run can alternate traced and untraced passes."""
        modules = layer_modules()
        if not self._wrappers:
            for layer, module in modules.items():
                for name in module.__all__:
                    fn = getattr(module, name)
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        qualified = f"{layer}.{name}"
                        self.names.append(qualified)
                        hook = _COUNTER_HOOKS.get(qualified)
                        self._wrappers[fn] = self._wrap(fn, len(self.names) - 1, hook)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patches.append((module, key, value))
                    setattr(module, key, self._wrappers[value])

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict:
        """Per-function [calls, total_ns, self_ns] and the counters."""
        n = len(self._fn)
        covered = [0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                covered[p] += self._end[i] - self._start[i]
        functions: dict[str, list[int]] = {}
        for i in range(n):
            duration = self._end[i] - self._start[i]
            entry = functions.setdefault(self.names[self._fn[i]], [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered[i]
        return {"functions": functions, "counters": dict(self.counters)}


def merge(summaries: list[dict]) -> dict:
    functions: dict[str, list[int]] = {}
    counters = dict.fromkeys(COUNTERS, 0)
    for s in summaries:
        for name, values in s["functions"].items():
            entry = functions.setdefault(name, [0, 0, 0])
            for k in range(3):
                entry[k] += values[k]
        for name, value in s["counters"].items():
            counters[name] += value
    return {"functions": functions, "counters": counters}


# Per-layer metrics: name -> (unit, better).  The order is the order in
# BENCHMARK.json.
PER_LAYER = {
    "cli.overhead_ms_p50": ("ms", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "braid.handle_reduce.calls": ("count", "lower"),
    "braid.handle_reduce.self_s": ("s", "lower"),
    "braid.handle_reduce.letters_in": ("count", "lower"),
    "braid.handle_reduce.letters_out": ("count", "lower"),
    "braid.handle_reduce.ns_per_letter": ("ns", "lower"),
    "braid.delta_floor.self_s": ("s", "lower"),
    "braid.dd_compare.calls": ("count", "lower"),
    "braid.conj_sign.calls": ("count", "lower"),
    "braid.is_trivial.self_s": ("s", "lower"),
    "braid.commutes_with_sigma2.calls": ("count", "lower"),
    "compat.verify_compatibility.self_s": ("s", "lower"),
    "compat.grid_points": ("count", "lower"),
    "compat.positive_share": ("ratio", "lower"),
    "klein.k_sign.calls": ("count", "lower"),
    "klein.k_sign.self_s": ("s", "lower"),
    "alexander.branched_cover_order.calls": ("count", "lower"),
    "alexander.branched_cover_order.self_s": ("s", "lower"),
    "alexander.order_digits": ("digits", "lower"),
    "fpgroup.enumerate_table.self_s": ("s", "lower"),
    "fpgroup.cosets_closed": ("count", "lower"),
    "fpgroup.cap_hits": ("count", "lower"),
    "fpgroup.abelianization.self_s": ("s", "lower"),
    "seifert.certificate_search.self_s": ("s", "lower"),
    "seifert.slope_lo_verdict.calls": ("count", "lower"),
    "seifert.cert_found_ratio": ("ratio", "higher"),
    "seifert.enumerate_slopes.self_s": ("s", "lower"),
    "seifert.verify_certificate.self_s": ("s", "lower"),
    "slopes.apply_gluing.calls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_metrics(summary: dict, overhead_ms: list[float], overhead_ratio: float) -> dict:
    """The per-layer metrics of a traced run, from its merged summary, the
    per-query cli overheads and the traced / untraced wall-time ratio."""
    functions = summary["functions"]
    counters = summary["counters"]

    def calls(name: str) -> int:
        return functions.get(name, [0, 0, 0])[0]

    def self_s(name: str) -> float:
        return functions.get(name, [0, 0, 0])[2] / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    query_ns = functions.get("cli.run", [0, 0, 0])[1]
    values = {
        "cli.overhead_ms_p50": statistics.median(overhead_ms) if overhead_ms else 0.0,
        "trace.overhead_ratio": overhead_ratio,
        "compat.grid_points": counters["compat.grid_points"],
        "compat.positive_share": ratio(counters["compat.positives"], counters["compat.grid_points"]),
        "alexander.order_digits": ratio(counters["alexander.order_digits_total"], counters["alexander.finite_orders"]),
        "fpgroup.cosets_closed": counters["fpgroup.cosets_closed"],
        "fpgroup.cap_hits": counters["fpgroup.cap_hits"],
        "seifert.cert_found_ratio": ratio(counters["seifert.certificates_found"], calls("seifert.certificate_search")),
        "braid.handle_reduce.letters_in": counters["braid.handle_reduce.letters_in"],
        "braid.handle_reduce.letters_out": counters["braid.handle_reduce.letters_out"],
        "braid.handle_reduce.ns_per_letter": ratio(
            self_s("braid.handle_reduce") * 1e9, counters["braid.handle_reduce.letters_in"]
        ),
    }
    for layer in LAYERS:
        layer_ns = sum(v[2] for k, v in functions.items() if k.startswith(layer + "."))
        values[f"{layer}.self_share"] = ratio(layer_ns, query_ns)
    for name in PER_LAYER:
        if name in values:
            continue
        fn, _, kind = name.rpartition(".")
        values[name] = calls(fn) if kind == "calls" else self_s(fn)
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def split_summary(stderr: str) -> tuple[dict | None, str]:
    """Separate a traced child's summary line from the rest of its stderr."""
    head, _, last = stderr.rstrip().rpartition("\n")
    if last.startswith(TRACE_PREFIX):
        return json.loads(last[len(TRACE_PREFIX):]), head
    return None, stderr


def _child(argv: list[str]) -> int:
    """Run one CLI query under the tracer and report its summary."""
    tracer = Tracer()
    with tracer:
        cli = importlib.import_module("locert.cli")
        start = time.perf_counter()
        code = cli.run(argv)
        wall_ms = (time.perf_counter() - start) * 1000.0
    summary = tracer.summary()
    summary["cli_wall_ms"] = wall_ms
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(_child(sys.argv[1:]))
