"""perfbench's traced run wraps npsurf names from outside; this guards them.

``perfbench/spans.py`` rebinds the functions and methods the benchmark
reports on and puts them back afterwards.  If npsurf renames or deletes one
of them, installing the tracer fails here instead of in the benchmark.
"""

import importlib.util
import pathlib

import npsurf
from npsurf import api, cli, criteria, families, fano, lattice, selftest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
# the namespaces perfbench/run.py hands the tracer
MODULES = (npsurf, api, cli, criteria, families, fano, lattice, selftest)
CLASSES = (lattice.DivisorClass, lattice.SurfaceModel)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _bindings():
    return [(owner, dict(vars(owner))) for owner in MODULES + CLASSES]


def test_tracer_installs_over_npsurf_and_restores_every_original():
    spans = _load_spans()
    before, evaluate = _bindings(), api.evaluate
    tracer = spans.Tracer(MODULES)
    try:
        spans.install(tracer, npsurf)
        assert api.evaluate is not evaluate
        out = api.evaluate({"op": "np_classify", "args": {
            "divisor": {"kind": "P2", "coeffs": [2]},
            "flags": {"ample": True, "anticanonical": True}}})
        assert out["verdict"]["p"] == 3
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert {"api.evaluate", "lattice.from_json",
            "criteria.np_classify"} <= set(totals)
    for (owner, was), (_, now) in zip(before, _bindings()):
        assert was.keys() == now.keys(), owner
        moved = [k for k in was if now[k] is not was[k]]
        assert not moved, (owner, moved)
