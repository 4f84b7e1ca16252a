"""Per-layer tracing from outside the program.

`Tracer.install` replaces each public boundary function of the package by a
wrapper in every namespace that binds it: the defining module, each module
that did ``from .x import f``, the package itself, and ``cli.ORACLES``.
Inner-loop methods such as ``Graph.has_edge`` are left alone.  Each wrapper
pushes a span on an in-memory stack; a function's self time is its span's
duration minus the time covered by nested wrapped spans.  Work counters and
ratios are read from return values.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("graphs", "reduce", "verify", "oracle", "canon", "atoms", "cli")

BOUNDARY = {
    "graphs": ("parse_dimacs", "serialize_coloring", "Graph.from_edges"),
    "reduce": ("greedy_coloring", "grundy_reduce", "cd_gcd_transform", "z_transform",
               "z_heuristic", "iterated_z", "complementary"),
    "verify": ("check_proper", "check_grundy", "check_cd", "dominating_vertices",
               "check_z", "find_dominating_star", "verify_star"),
    "oracle": ("z_reaches", "exact_chi", "exact_gamma", "exact_b", "exact_z"),
    "canon": ("colored_canonical_form",),
    "atoms": ("generate_atoms", "embed", "embedding_valid", "prove_upper_bound",
              "catalog_from_text", "catalog_to_text"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{layer}.{name}" for layer in LAYERS for name in BOUNDARY[layer])
COUNTERS = ("reduce.moves", "reduce.z_rounds", "oracle.explored")


class Tracer:
    """Span stack, per-function call counts and self times, and counters."""

    def __init__(self):
        self.stack: list[list] = []  # [start, time in nested spans, nested moves]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.certificates: set = set()
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _record(self, name: str, result, span) -> None:
        self.calls[name] += 1
        trace = result[1] if isinstance(result, tuple) and len(result) == 2 else None
        if hasattr(trace, "moves"):
            # a trace concatenates the moves of the traces nested in it
            self.counts["reduce.moves"] += len(trace.moves) - span[2]
            if self.stack:
                self.stack[-1][2] += len(trace.moves)
            if name == "reduce.z_transform":
                self.counts["reduce.z_rounds"] += trace.iterations
        if name.startswith("oracle.exact_"):
            self.counts["oracle.explored"] += result.explored
        elif name == "oracle.z_reaches":
            self.counts["oracle.z_reaches.true"] += bool(result)
        elif name == "atoms.embed":
            self.counts["atoms.embed.found"] += result is not None
        elif name == "canon.colored_canonical_form":
            if result not in self.certificates:
                self.certificates.add(result)
                self.counts["canon.distinct"] += 1
        elif name == "cli.main":
            self.certificates.clear()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [time.perf_counter(), 0.0, 0]
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                elapsed = time.perf_counter() - span[0]
                self.self_s[name] += elapsed - span[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
            self._record(name, result, span)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, package: str = "zcoloring") -> None:
        modules = [importlib.import_module(package)]
        modules += [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        modules += [m for name, m in sys.modules.items() if name.startswith(package + ".") and m not in modules]
        graph_cls = importlib.import_module(f"{package}.graphs").Graph
        for layer in LAYERS:
            home = importlib.import_module(f"{package}.{layer}")
            for fname in BOUNDARY[layer]:
                name = f"{layer}.{fname}"
                if fname == "Graph.from_edges":
                    original = graph_cls.__dict__["from_edges"]
                    graph_cls.from_edges = classmethod(self.wrap(name, original.__func__))
                    self._restore.append((graph_cls, "from_edges", original))
                    continue
                original = getattr(home, fname)
                wrapped = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._restore.append((module, attr, original))
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    value[key] = wrapped
                                    self._restore.append((value, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def work(self) -> dict:
        """Deterministic part: call counts, counters, ratios (as numerator and base)."""
        out = {f"{name}.calls": self.calls[name] for name in FUNCTIONS}
        out.update({c: self.counts[c] for c in COUNTERS})
        out["oracle.z_reaches.true"] = self.counts["oracle.z_reaches.true"]
        out["atoms.embed.found"] = self.counts["atoms.embed.found"]
        out["canon.distinct"] = self.counts["canon.distinct"]
        return out
