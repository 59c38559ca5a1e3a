"""Span tracing of charp_dilog's layer boundaries, installed from outside the library.

Each boundary wraps public functions or methods of one module (layer).  A
span records its boundary, start, end, parent span and op id; spans are kept
in flat in-memory arrays and reduced to per-layer metrics when the run ends.
Self time is a span's duration minus the durations of its direct children.
A call that re-enters the boundary it is already inside (``roots_in_field``
calling ``factor_squarefree_irreducibles``) belongs to the outer span.
``Poly.__mod__`` and ``__floordiv__`` go through ``divmod``, so the
``__divmod__`` boundary sees all three.  Counters (``gf.FqElem.ops``,
``tpoly.newton_root.calls``) count calls without recording spans, because
they are too frequent to time one by one.

A function bound into another module with ``from ... import`` is a second
reference to the same object; installing a boundary replaces every such
reference in every loaded ``charp_dilog`` module, or those calls are missed.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter


PACKAGE = "charp_dilog"


class TraceError(Exception):
    """A boundary could not be installed or recorded no calls where it must."""


def _gcd_extra(stats, args, kwargs, result):
    a, b = args[0], args[1]
    stats["useful"] += result.degree > 0
    stats["in_degree"] += max(a.degree, b.degree)


def _expand_extra(stats, args, kwargs, result):
    # the requested expansion order; a residue asks for order -1
    stats["order_sum"] += args[2] if len(args) > 2 else kwargs["order"]


def _boundary_extra(stats, args, kwargs, result):
    stats["points"] += len(result)


# (name, module, owner class or None, attributes, extra-stat hook, heavy workloads)
# The heavy workloads are those on which the boundary must record calls; an
# empty call count there means a wrapper missed a binding.
SPANS = (
    ("gf.Poly.gcd", "gf", "Poly", ("gcd",), _gcd_extra, ("residue-pairing", "exactness")),
    ("gf.Poly.divmod", "gf", "Poly", ("__divmod__",), None, ("residue-pairing", "exactness")),
    ("gf.Poly.mul", "gf", "Poly", ("__mul__", "__rmul__"), None, ("residue-pairing", "exactness")),
    ("gf.Fq.init", "gf", "Fq", ("__init__",), None, ("cycle-modulus",)),
    ("gf.factor", "gf", None, ("factor_squarefree_irreducibles", "roots_in_field"), None,
     ("cycle-modulus",)),
    ("tpoly.Trunc.mul", "tpoly", "Trunc", ("__mul__", "__rmul__"), None,
     ("theorem1", "cycle-modulus", "residue-pairing")),
    ("tpoly.Trunc.inverse", "tpoly", "Trunc", ("inverse",), None,
     ("theorem1", "cycle-modulus", "residue-pairing")),
    ("tpoly.log_circ", "tpoly", None, ("log_circ",), None,
     ("theorem1", "cycle-modulus", "residue-pairing")),
    ("tpoly.hensel_root_zpoly", "tpoly", None, ("hensel_root_zpoly",), None,
     ("theorem1", "cycle-modulus")),
    ("localfield.RatFn.reduced", "localfield", "RatFn", ("reduced",), None,
     ("residue-pairing",)),
    ("localfield.expand_at", "localfield", None, ("expand_at",), _expand_extra,
     ("residue-pairing",)),
    ("localfield.residue_at", "localfield", None, ("residue_at",), None, ("residue-pairing",)),
    ("wedge.res_local", "wedge", None, ("res_local",), None, ("residue-pairing",)),
    ("wedge.ell_p", "wedge", None, ("ell_p",), None,
     ("residue-pairing", "theorem1", "cycle-modulus")),
    ("wedge.ell", "wedge", None, ("ell",), None, ("cycle-modulus",)),
    ("wedge.goodness_split", "wedge", None, ("goodness_split",), None, ("residue-pairing",)),
    ("omega.omega_p", "omega", None, ("omega_p",), None, ("exactness", "residue-pairing")),
    ("omega.res_omega_pair", "omega", None, ("res_omega_pair",), None, ("residue-pairing",)),
    ("omega.sigma_letters", "omega", None, ("sigma_letters",), None, ("exactness",)),
    ("omega.antider_primitive", "omega", None, ("antider_primitive",), None, ("exactness",)),
    ("regulator.rho_K", "regulator", None, ("rho_K",), None, ("theorem1", "cycle-modulus")),
    ("regulator.theorem1_closed_form", "regulator", None, ("theorem1_closed_form",), None,
     ("theorem1",)),
    ("cycles.rho_K_cycle", "cycles", None, ("rho_K_cycle",), None, ("cycle-modulus",)),
    ("cycles.rho_cycle", "cycles", None, ("rho_cycle",), None, ("cycle-modulus",)),
    ("cycles.boundary", "cycles", None, ("boundary",), _boundary_extra, ("cycle-modulus",)),
    ("cycles.modulus_compare", "cycles", None, ("modulus_compare",), None, ("cycle-modulus",)),
)

COUNTERS = (
    ("gf.FqElem.ops", "gf", "FqElem",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__", "inverse"),
     ("theorem1",)),
    ("tpoly.newton_root.calls", "tpoly", None, ("newton_root",), ("theorem1", "cycle-modulus")),
)

# `from ... import` bindings that a wrapper must reach; checked after install.
REQUIRED_REBINDS = (
    ("omega", "residue_at"),
    ("regulator", "hensel_root_zpoly"),
    ("cycles", "ell_p"),
    ("bloch", "ell_p"),
)

EXTRA_STATS = {"gf.Poly.gcd": ("useful", "in_degree"),
               "localfield.expand_at": ("order_sum",),
               "cycles.boundary": ("points",)}


class Tracer:
    """Owns the span arrays and counters of one traced run."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.names = [s[0] for s in SPANS]
        self.kind = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = {c[0]: 0 for c in COUNTERS}
        self.extra = {name: dict.fromkeys(keys, 0) for name, keys in EXTRA_STATS.items()}

    # -- installation ---------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace(self, mod_name: str, owner: str | None, attrs, make_wrapper) -> None:
        mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
        if mod is None:
            raise TraceError(f"module {PACKAGE}.{mod_name} is not loaded")
        target = mod if owner is None else getattr(mod, owner, None)
        if target is None:
            raise TraceError(f"{mod_name}.{owner} does not exist")
        wrappers = {}
        for attr in attrs:
            orig = vars(target).get(attr)
            if orig is None:
                raise TraceError(f"{mod_name}.{owner + '.' if owner else ''}{attr} does not exist")
            if id(orig) not in wrappers:
                wrappers[id(orig)] = (orig, make_wrapper(orig))
            setattr(target, attr, wrappers[id(orig)][1])
        if owner is None:
            # rebind every `from ... import` copy of the same function object
            for other in self._modules():
                for key, value in list(vars(other).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(other, key, hit[1])

    def install(self) -> None:
        """Wrap every boundary and counter; raises TraceError if one is missing."""
        for kind, (name, mod_name, owner, attrs, extra, _) in enumerate(SPANS):
            self._replace(mod_name, owner, attrs,
                          lambda fn, k=kind, x=extra, n=name: self._span(fn, k, x, n))
        for name, mod_name, owner, attrs, _ in COUNTERS:
            self._replace(mod_name, owner, attrs, lambda fn, n=name: self._counter(fn, n))
        for mod_name, attr in REQUIRED_REBINDS:
            fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            if not getattr(fn, "_perfbench_wrapped", False):
                raise TraceError(f"{mod_name}.{attr} was not rebound to its wrapper")

    def _span(self, fn, kind: int, extra, name: str):
        stack = self.stack
        kinds = self.kind
        stats = self.extra.get(name)

        def wrapped(*args, **kwargs):
            if not self.on or (stack and kinds[stack[-1]] == kind):
                return fn(*args, **kwargs)
            idx = len(kinds)
            kinds.append(kind)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if extra is not None:
                extra(stats, args, kwargs, result)
            return result

        wrapped._perfbench_wrapped = True
        return wrapped

    def _counter(self, fn, name: str):
        counts = self.counts

        def wrapped(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapped._perfbench_wrapped = True
        return wrapped

    # -- reduction --------------------------------------------------------------

    def _calls(self) -> list[int]:
        calls = [0] * len(SPANS)
        for k in self.kind:
            calls[k] += 1
        return calls

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-boundary calls and self time, plus counters and extra statistics."""
        n = len(self.kind)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            j = parent[i]
            if j >= 0:
                child[j] += end[i] - start[i]
        calls = self._calls()
        self_s = [0.0] * len(SPANS)
        for i in range(n):
            self_s[self.kind[i]] += end[i] - start[i] - child[i]
        out: dict[str, tuple[float, str]] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[k], "count")
            out[f"{name}.self_s"] = (self_s[k], "s")
        gcd_calls = calls[self.names.index("gf.Poly.gcd")]
        gcd = self.extra["gf.Poly.gcd"]
        out["gf.Poly.gcd.useful_ratio"] = (gcd["useful"] / gcd_calls if gcd_calls else 0.0, "ratio")
        out["gf.Poly.gcd.in_degree_mean"] = (gcd["in_degree"] / gcd_calls if gcd_calls else 0.0,
                                             "degree")
        out["localfield.expand_at.order_sum"] = (self.extra["localfield.expand_at"]["order_sum"],
                                                 "count")
        out["cycles.boundary.points"] = (self.extra["cycles.boundary"]["points"], "count")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        return out

    def missing_calls(self, workload: str) -> list[str]:
        """Boundaries that must be busy on this workload but recorded no call."""
        calls = self._calls()
        missing = [name for k, (name, *_, heavy) in enumerate(SPANS)
                   if workload in heavy and calls[k] == 0]
        missing += [name for name, *_, heavy in COUNTERS
                    if workload in heavy and self.counts[name] == 0]
        return missing
