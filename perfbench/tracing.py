"""Spans and counters recorded from the benchmark around calls into meshrates.

Nothing here edits the library. ``Tracer.install`` swaps each traced
function for a wrapper under every name a caller looks it up by: module
attributes of every loaded ``meshrates`` module (``from .x import y``
copies included), entries of module-level dicts such as
``cli._REGION_BUILDERS`` and entries of module-level tuples such as
``oracle._CHECKS``. ``Tracer.uninstall`` puts the originals back.

A traced function either opens a span (name, start, end, parent span id,
request id) or, where a span would cost more than the work it measures,
only counts its calls. Spans stay in memory until ``write_spans``, as
parallel lists of plain values, so that tens of thousands of them add no
objects for the garbage collector to walk.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (layer, function, module that defines it, attribute there, kind).
# kind "span" records a span per call, "count" only counts calls.
TARGETS = (
    ("cli", "sweep", "meshrates.cli", "main", "span"),
    ("schemes", "single_rate", "meshrates.schemes", "single_rate", "span"),
    ("schemes", "rate_splitting", "meshrates.schemes", "rate_splitting", "span"),
    ("schemes", "coop", "meshrates.schemes", "coop", "span"),
    ("schemes", "mcp", "meshrates.schemes", "mcp", "span"),
    ("schemes", "first_hop_upper_bound", "meshrates.schemes", "first_hop_upper_bound", "span"),
    ("regions", "hop1_region", "meshrates.regions", "hop1_region", "span"),
    ("regions", "hop2_rs_region", "meshrates.regions", "hop2_rs_region", "span"),
    ("regions", "hop2_coop_region", "meshrates.regions", "hop2_coop_region", "span"),
    ("regions", "hop2_mcp_region", "meshrates.regions", "hop2_mcp_region", "span"),
    ("regions", "mac_bounds", "meshrates.regions", "mac_bounds", "count"),
    ("regions", "coop_bounds", "meshrates.regions", "coop_bounds", "count"),
    ("regions", "corner_sum_rate", "meshrates.regions", "corner_sum_rate", "count"),
    ("regions", "vertex_a", "meshrates.regions", "vertex_a", "count"),
    ("quadrature", "integrate_unit", "meshrates.quadrature", "integrate_unit", "span"),
    ("polytope", "max_sum_rate", "meshrates.polytope", "max_sum_rate", "span"),
    ("polytope", "vertices", "meshrates.polytope", "vertices", "span"),
    ("polytope", "contains", "meshrates.polytope", "contains", "count"),
)

# The fourteen checks of oracle.run_suite, wrapped through oracle._CHECKS
# and named by the report each returns.
ORACLE_CHECKS = (
    "region-reduction", "vertex-a-sum", "lp-vs-grid", "quadrature-riemann",
    "substitution-symmetry", "vsi-exact-agree", "vsi-certificate",
    "vsi-paper-sufficient", "vsi-a2-dominates-a1", "rs-dense-grid",
    "scheme-ordering", "half-duplex-halving", "mcp-sum-dominance",
    "power-monotonicity",
)

# Calls each workload makes by its definition: one that exists but is never
# made fails the run (``Tracer.unreached``).
EXPECTED = {
    "figures": ["cli.sweep", "schemes.single_rate", "schemes.rate_splitting",
                "schemes.coop", "schemes.mcp", "schemes.first_hop_upper_bound"],
    "regions": ["regions.hop1_region", "regions.hop2_rs_region",
                "regions.hop2_coop_region", "regions.hop2_mcp_region",
                "polytope.max_sum_rate", "polytope.vertices", "polytope.contains",
                "quadrature.integrate_unit"],
    "verify": [f"oracle.{name}" for name in ORACLE_CHECKS],
}

LAYERS = ("cli", "schemes", "regions", "quadrature", "polytope", "oracle")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: Counter[str] = Counter()
        self.counted: Counter[str] = Counter()
        self.request = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._swaps: list[tuple] | None = None

    # -- recording ---------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs, on_result=None):
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            self.ends[span] = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(span, result)
        return result

    def _wrap(self, name: str, kind: str, fn):
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counted[name] += 1
                return fn(*args, **kwargs)
            return counted

        on_result = None
        if name == "quadrature.integrate_unit":
            def on_result(span, result):
                self.counts["quadrature.evaluations"] += getattr(result, "evaluations", 0)
        elif name == "polytope.max_sum_rate":
            def on_result(span, result):
                self.counts["polytope.lp_degenerate"] += bool(getattr(result, "degenerate", False))

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self._call(name, fn, args, kwargs, on_result)
        return spanned

    def _wrap_check(self, fn):
        def on_result(span, report):
            self.names[span] = f"oracle.{report.name}"

        @functools.wraps(fn)
        def check(*args, **kwargs):
            return self._call("oracle.check", fn, args, kwargs, on_result)
        return check

    # -- installing --------------------------------------------------------

    def _plan(self) -> list[tuple]:
        """Every (setter, owner, key, original, wrapper) that installs the
        wrappers: module attributes of every loaded meshrates module bound to
        a target, and target entries of module-level dicts and tuples."""
        wrappers = {}
        for layer, func, modname, attr, kind in TARGETS:
            name = f"{layer}.{func}"
            try:
                original = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrappers[id(original)] = self._wrap(name, kind, original)
        try:
            for check in importlib.import_module("meshrates.oracle")._CHECKS:
                wrappers[id(check)] = self._wrap_check(check)
        except (ImportError, AttributeError):
            self.absent.append("oracle")

        plan = []
        for modname, module in list(sys.modules.items()):
            if modname != "meshrates" and not modname.startswith("meshrates."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    plan.append((setattr, module, attr, value, wrappers[id(value)]))
                elif isinstance(value, dict):
                    plan += [(dict.__setitem__, value, key, v, wrappers[id(v)])
                             for key, v in value.items() if id(v) in wrappers]
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    wrapped = tuple(wrappers.get(id(v), v) for v in value)
                    plan.append((setattr, module, attr, value, wrapped))
        return plan

    def install(self) -> None:
        if self._swaps is None:
            self._swaps = self._plan()
        for setter, owner, key, _, wrapper in self._swaps:
            setter(owner, key, wrapper)

    def uninstall(self) -> None:
        for setter, owner, key, original, _ in self._swaps or ():
            setter(owner, key, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> Counter[str]:
        """Seconds per span name, minus the time covered by child spans."""
        own = Counter()
        for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
            own[name] += end - start
            if parent >= 0:
                own[self.names[parent]] -= end - start
        return own

    def unreached(self, workload: str) -> list[str]:
        """Calls the workload must make that exist but were never made.

        A check is known only by the name its report carries and every
        entry of ``_CHECKS`` runs, so a check never seen no longer exists:
        it is listed as absent instead.
        """
        calls = self.calls()
        missing = [name for name in EXPECTED[workload]
                   if name not in self.absent and name.split(".")[0] not in self.absent
                   and not calls[name]]
        self.absent += [name for name in missing if name.startswith("oracle.")]
        return [name for name in missing if not name.startswith("oracle.")]

    def calls(self) -> Counter[str]:
        """Calls per traced function: spans by name, plus the counted ones."""
        return Counter(self.names) + self.counted

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(zip(self.names, self.starts, self.ends,
                                         self.parents, self.requests)):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "request"),
                                             span), id=i)) + "\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """The per-layer metrics, each as a mean per traced pass."""
    own = tracer.self_times()
    counts = tracer.counts
    calls = tracer.calls()
    metrics: dict[str, float] = {}

    def per_pass(value: float) -> float:
        return value / passes

    for layer, func, _, _, kind in TARGETS:
        name = f"{layer}.{func}"
        metrics[name + ".calls"] = per_pass(calls[name])
        if kind == "span" and layer in ("schemes", "regions", "polytope"):
            metrics[name + ".self_s"] = per_pass(own[name])
    for check in ORACLE_CHECKS:
        metrics[f"oracle.{check}.self_s"] = per_pass(own[f"oracle.{check}"])
    for layer in LAYERS:
        metrics[layer + ".self_s"] = per_pass(sum(v for k, v in own.items()
                                                  if k.startswith(layer + ".")))
    quad_calls = calls["quadrature.integrate_unit"]
    metrics["quadrature.evaluations"] = per_pass(counts["quadrature.evaluations"])
    metrics["quadrature.evals_per_call"] = (counts["quadrature.evaluations"] / quad_calls
                                            if quad_calls else 0.0)
    metrics["quadrature.errors"] = per_pass(counts["quadrature.integrate_unit.errors"])
    lp_calls = calls["polytope.max_sum_rate"]
    metrics["polytope.lp_degenerate_ratio"] = (counts["polytope.lp_degenerate"] / lp_calls
                                               if lp_calls else 0.0)
    return metrics
