"""Span recording around npsurf's public functions, installed from outside.

The tracer rebinds the attributes callers look up: a module-level function is
replaced in every npsurf namespace that holds it (``families`` imports
``np_classify`` by name, ``selftest`` imports ``nakai_certificate`` by name,
and so on), and methods are replaced on their class.  ``uninstall`` puts every
original object back.

Each span records its name, start, end, parent span and request id, and stays
in memory until ``write`` dumps the run.  Self time is a span's duration minus
the time its child spans cover.  ``lattice.dot`` and ``lattice.divisor`` are
leaf counters instead of spans: one selftest pass makes about 424k pairings
and 282k divisor constructions, and a span apiece would cost tens of MB.  A
leaf's time is still subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# criteria tables: every public decision procedure except np_classify
CRITERIA_TABLES = (
    "np_classify_degree", "bpf_check", "adjoint_very_ample", "min_kA_bound",
    "adjoint_np_min_n", "reider_np", "lemma_125_bound",
    "verify_inequality_chain", "ampleness_termination",
    "thm_121_equivalence", "curve_np_reference",
)
FANO_OPS = (
    "primitive_np", "multiples_np_surface", "multiples_np_fano",
    "index_nm3_n0", "index_nm3_np", "projective_space_twist_max_np",
    "surface_induction_base",
)


class Tracer:
    def __init__(self, namespaces):
        # every npsurf module whose globals may hold a wrapped function
        self.namespaces = list(namespaces)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, parent index, request id, start, end, child seconds, outermost]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._depth: list[int] = []
        self.leaves: dict[str, list] = {}      # name -> [calls, seconds]
        self.counters: dict[str, int] = {}
        self.request = -1
        self._patched: list[tuple[object, str, object]] = []

    # --- wrappers ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        nid = self._id(name)
        spans, stack, depth = self.spans, self.stack, self._depth
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            depth[nid] += 1
            rec = [nid, parent, tracer.request, 0.0, 0.0, 0.0, depth[nid] == 1]
            spans.append(rec)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[nid] -= 1
                rec[3], rec[4] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def leaf(self, name: str, fn):
        agg = self.leaves.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                agg[0] += 1
                agg[1] += took
                if stack:
                    spans[stack[-1]][5] += took

        return traced

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # --- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, name: str, module, attr: str, on_result=None):
        """Wrap ``module.attr`` in every namespace that binds the same object."""
        original = getattr(module, attr)
        wrapped = self.span(name, original, on_result)
        for ns in self.namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, key, wrapped)

    def wrap_method(self, name: str, cls, attr: str, leaf: bool = False):
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            wrapped = staticmethod(self.span(name, getattr(cls, attr)))
        elif leaf:
            wrapped = self.leaf(name, original)
        else:
            wrapped = self.span(name, original)
        self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds of outermost spans, and
        self seconds; leaves report calls and seconds."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for nid, _parent, _req, start, end, child, outer in self.spans:
            row = out[self.names[nid]]
            row["calls"] += 1
            if outer:
                row["s"] += end - start
            row["self_s"] += end - start - child
        for name, (calls, seconds) in self.leaves.items():
            out[name] = {"calls": calls, "s": seconds, "self_s": seconds}
        return out

    def write(self, path, header: dict) -> None:
        """Dump every span, leaf total and counter as one JSON document."""
        doc = {
            **header,
            "span_fields": ["name", "parent", "request", "start", "end",
                            "self_s"],
            "spans": [[self.names[nid], parent, req, start, end,
                       end - start - child]
                      for nid, parent, req, start, end, child, _ in self.spans],
            "leaves": {k: {"calls": c, "s": s}
                       for k, (c, s) in self.leaves.items()},
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def install(tracer: Tracer, npsurf_modules) -> None:
    """Wrap every layer the benchmark reports on."""
    m = npsurf_modules
    tracer.wrap_function("api.evaluate", m.api, "evaluate")
    tracer.wrap_method("lattice.from_json", m.lattice.SurfaceModel, "from_json")
    tracer.wrap_method("lattice.from_json", m.lattice.DivisorClass, "from_json")
    tracer.wrap_function("lattice.from_json", m.lattice, "from_json")
    tracer.wrap_method("lattice.dot", m.lattice.DivisorClass, "dot", leaf=True)
    tracer.wrap_method("lattice.divisor", m.lattice.SurfaceModel, "divisor",
                       leaf=True)
    tracer.wrap_function("criteria.np_classify", m.criteria, "np_classify")
    for attr in CRITERIA_TABLES:
        tracer.wrap_function("criteria.tables", m.criteria, attr)
    for attr in FANO_OPS:
        tracer.wrap_function("fano", m.fano, attr)
    tracer.wrap_function("families.build_example", m.families, "build_example")
    tracer.wrap_function("families.nakai_certificate", m.families,
                         "nakai_certificate")
    # brute_force_ample_oracle reaches the oracle through this global
    tracer.counters["families.ample_oracle.candidates"] = 0
    tracer.wrap_function(
        "families.ample_oracle", m.families, "ample_oracle",
        on_result=lambda r: tracer.count("families.ample_oracle.candidates",
                                         r.candidates))
    tracer.wrap_function("families.verify_example", m.families,
                         "verify_example")
    checks = tuple(
        (label, tracer.span(f"selftest.{fn.__name__}", fn))
        for label, fn in m.selftest.CHECKS)
    tracer._set(m.selftest, "CHECKS", checks)
