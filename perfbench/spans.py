"""Span wrappers around the program's layers, installed from outside.

``Tracer.install`` replaces the ``GFPoly`` multiplication methods and the
module-global functions that callers look up at call time
(``experiment.fpt_enclosure``, ``frobenius.nu``, ``groebner.groebner_basis``,
``groebner.normal_form``, ``newton.simplex_max``, ``newton.newton_order``, ...)
with wrappers that record a span (name, parent, start, end) and work counts
taken from the arguments and the result.  ``uninstall`` puts the originals
back, so untraced passes run the program unchanged.

Spans are kept in flat arrays in memory and written out once, at the end of
the run.  A layer's self time is its span time minus the time covered by its
child spans.  ``frobenius.nu`` spans carry the route in their name, derived
from the ideal's shape by the same rule as ``nu()``'s dispatch.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from collections import defaultdict

from fthresholds import experiment, frobenius, gfpoly, groebner, newton, parsing, reduction

NU_ROUTES = ("principal", "mixed", "dp", "monomial")

# Per-layer metrics in the order they are reported: (name, unit).
PER_LAYER = (
    [(f"gfpoly.mul.{s}", u) for s, u in
     (("calls", "count"), ("self_ms", "ms"), ("term_pairs", "count"), ("terms_out", "count"))]
    + [(f"gfpoly.mul_truncated.{s}", u) for s, u in
       (("calls", "count"), ("self_ms", "ms"), ("term_pairs", "count"), ("kept_ratio", "ratio"))]
    + [(f"gfpoly.{f}.{s}", u) for f in ("pow", "mul_term")
       for s, u in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"frobenius.nu.{r}.{s}", u) for r in NU_ROUTES
       for s, u in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"frobenius.{f}.{s}", u) for f in ("frobenius_root", "frobenius_root_principal_power")
       for s, u in (("calls", "count"), ("self_ms", "ms"), ("gens_out", "count"))]
    + [("groebner.groebner_basis.calls", "count"), ("groebner.groebner_basis.self_ms", "ms"),
       ("groebner.groebner_basis.basis_size", "count"),
       ("groebner.normal_form.calls", "count"), ("groebner.normal_form.self_ms", "ms"),
       ("groebner.normal_form.zero_ratio", "ratio"),
       ("lp.simplex_max.calls", "count"), ("lp.simplex_max.self_ms", "ms"),
       ("lp.simplex_max.size", "count"),
       ("newton.newton_order.calls", "count"), ("newton.newton_order.self_ms", "ms")]
    + [(f"newton.{f}.self_ms", "ms")
       for f in ("lct_monomial", "multiplier_ideal_monomial", "jumping_candidates")]
    + [(f"experiment.{f}.self_ms", "ms") for f in ("sweep", "convergence_report", "report_to_json")]
    + [(f"reduction.{f}.self_ms", "ms") for f in ("reduce_mod_p", "truncate_ideal")]
    + [("parsing.parse_ideal.self_ms", "ms"), ("parsing.parse_int_poly.self_ms", "ms"),
       ("trace.overhead_frac", "ratio")]
)

_ALL = ("sweep", "truncation", "ideal-gb", "monomial")


def _others(*names):
    return tuple(w for w in _ALL if w not in names)


# Layer map: span name -> (workloads where it must be called, where it must not).
LAYER_MAP = {
    "gfpoly.mul": (("sweep", "ideal-gb"), ("monomial",)),
    "gfpoly.mul_truncated": (("truncation",), ("monomial", "ideal-gb")),
    "gfpoly.pow": (("ideal-gb",), ("monomial",)),
    "gfpoly.mul_term": (("ideal-gb",), ("monomial",)),
    "frobenius.nu.principal": (("sweep",), _others("sweep")),
    "frobenius.nu.mixed": (("truncation",), _others("truncation")),
    "frobenius.nu.dp": (("truncation",), _others("truncation")),
    "frobenius.nu.monomial": (("monomial",), _others("monomial")),
    "frobenius.frobenius_root": (("ideal-gb",), ("truncation", "monomial")),
    "frobenius.frobenius_root_principal_power": (("ideal-gb",), ("truncation", "monomial")),
    "groebner.groebner_basis": (("ideal-gb",), _others("ideal-gb")),
    "groebner.normal_form": (("ideal-gb",), _others("ideal-gb")),
    "lp.simplex_max": (("monomial",), _others("monomial")),
    "newton.newton_order": (("monomial",), _others("monomial")),
    "newton.lct_monomial": (("monomial",), _others("monomial")),
    "newton.multiplier_ideal_monomial": (("monomial",), _others("monomial")),
    "newton.jumping_candidates": (("monomial",), _others("monomial")),
    "experiment.sweep": (("sweep",), _others("sweep")),
    "experiment.convergence_report": (("sweep",), _others("sweep")),
    "experiment.report_to_json": (("sweep",), _others("sweep")),
    "reduction.reduce_mod_p": (("sweep", "truncation"), ("ideal-gb", "monomial")),
    "reduction.truncate_ideal": (("truncation",), _others("truncation")),
}


def nu_route(a, e=None, method="auto", **_caps) -> str:
    """The route nu() takes for ideal `a`, from its generators' shapes."""
    if method == "dp":
        return "dp"
    monos = [g.lead_monomial() for g in a.gens if g.is_monomial()]
    others = len(a.gens) - len(monos)
    if others == 0:
        return "monomial"
    if others > 1:
        return "dp"
    if not monos:
        return "principal"
    # (f) + m^d: the monomials are exactly the degree-d antichain of m^d.
    degrees = {sum(m) for m in monos}
    d = degrees.pop()
    full = not degrees and d >= 1 and len(set(monos)) == math.comb(d + a.n - 1, a.n - 1)
    return "mixed" if full else "dp"


def _count_mul(counts, args, result):
    a, b = args[0], args[1]
    counts["gfpoly.mul.term_pairs"] += len(a.terms) * len(b.terms)
    counts["gfpoly.mul.terms_out"] += len(result.terms)


def _count_mul_truncated(counts, args, result):
    counts["gfpoly.mul_truncated.term_pairs"] += len(args[0].terms) * len(args[1].terms)
    counts["gfpoly.mul_truncated.kept"] += len(result.terms)


def _count_gens(name):
    def count(counts, args, result):
        counts[name + ".gens_out"] += len(result.gens)
    return count


def _count_basis(counts, args, result):
    counts["groebner.groebner_basis.basis_size"] += len(result)


def _count_normal_form(counts, args, result):
    counts["groebner.normal_form.zero"] += result.is_zero


def _count_simplex(counts, args, result):
    c, A = args[0], args[1]
    counts["lp.simplex_max.size"] += len(A) * len(c)


# (owner, attribute, span name or callable(args, kwargs) -> name, counter)
def _targets():
    G = gfpoly.GFPoly
    return [
        (G, "__mul__", "gfpoly.mul", _count_mul),
        (G, "mul_truncated", "gfpoly.mul_truncated", _count_mul_truncated),
        (G, "pow", "gfpoly.pow", None),
        (G, "mul_term", "gfpoly.mul_term", None),
        (experiment, "fpt_enclosure", "frobenius.fpt_enclosure", None),
        (frobenius, "fpt_enclosure", "frobenius.fpt_enclosure", None),
        (frobenius, "nu", lambda args, kw: "frobenius.nu." + nu_route(*args, **kw), None),
        (frobenius, "frobenius_root", "frobenius.frobenius_root",
         _count_gens("frobenius.frobenius_root")),
        (frobenius, "frobenius_root_principal_power", "frobenius.frobenius_root_principal_power",
         _count_gens("frobenius.frobenius_root_principal_power")),
        (groebner, "groebner_basis", "groebner.groebner_basis", _count_basis),
        (groebner, "normal_form", "groebner.normal_form", _count_normal_form),
        (newton, "simplex_max", "lp.simplex_max", _count_simplex),
        (newton, "newton_order", "newton.newton_order", None),
        (newton, "lct_monomial", "newton.lct_monomial", None),
        (newton, "multiplier_ideal_monomial", "newton.multiplier_ideal_monomial", None),
        (newton, "jumping_candidates", "newton.jumping_candidates", None),
        (experiment, "sweep", "experiment.sweep", None),
        (experiment, "convergence_report", "experiment.convergence_report", None),
        (experiment, "report_to_json", "experiment.report_to_json", None),
        (experiment, "reduce_mod_p", "reduction.reduce_mod_p", None),
        (reduction, "reduce_mod_p", "reduction.reduce_mod_p", None),
        (reduction, "truncate_ideal", "reduction.truncate_ideal", None),
        (parsing, "parse_ideal", "parsing.parse_ideal", None),
        (reduction, "parse_int_poly", "parsing.parse_int_poly", None),
    ]


class Tracer:
    """Records spans and counts while installed; one phase at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list = []
        self.missing: set[str] = set()
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.counts[name + ".calls"] += 1
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, count):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for owner, attr, name, count in _targets():
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                self.missing.add(name if isinstance(name, str) else attr)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_ms(self) -> dict:
        """Self time per span name over the recorded spans, in ms."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out: dict = defaultdict(float)
        for i in range(n):
            out[self.names[self.span_name[i]]] += \
                (self.span_end[i] - self.span_start[i] - child[i]) * 1000.0
        return out

    def write(self, path):
        """Write the recorded spans: one JSON line per span, times in microseconds
        from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(json.dumps([i, self.span_name[i], self.span_parent[i],
                                     round((self.span_start[i] - t0) * 1e6, 3),
                                     round((self.span_end[i] - self.span_start[i]) * 1e6, 3)])
                         + "\n")


def layer_counts(counts: dict) -> dict:
    """Deterministic per-layer counts (and the ratios made from them)."""
    out = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_ms") or name == "trace.overhead_frac":
            continue
        if name.endswith(".kept_ratio"):
            base = name.rsplit(".", 1)[0]
            pairs = counts.get(base + ".term_pairs", 0)
            out[name] = counts.get(base + ".kept", 0) / pairs if pairs else 0.0
        elif name.endswith(".zero_ratio"):
            base = name.rsplit(".", 1)[0]
            calls = counts.get(base + ".calls", 0)
            out[name] = counts.get(base + ".zero", 0) / calls if calls else 0.0
        else:
            out[name] = counts.get(name, 0)
    return out


def check_layer_map(workload: str, counts: dict, missing: set) -> list[str]:
    """Problems with the layer map: a layer not called on the workload it
    dominates, or called where the map says zero."""
    problems = []
    for name, (busy, idle) in LAYER_MAP.items():
        if name in missing:
            continue
        calls = counts.get(name + ".calls", 0)
        if workload in busy and calls == 0:
            problems.append(f"{name} was not called on {workload}")
        if workload in idle and calls:
            problems.append(f"{name} was called {calls} times on {workload}")
    return problems
