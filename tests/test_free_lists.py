"""Tuples on check and request paths are built at their final size.

``tuple()`` over a generator, ``map``, ``filter`` or ``zip`` first allocates
a 10-slot tuple and then shrinks it, so each result is later freed onto the
free list of its own size.  CPython keeps up to 2,000 such blocks per size
and releases them only in a full collection, which a long run of checks
seldom triggers: resident memory then grows with the number of calls.
"""

import ast
import gc
import sys
from pathlib import Path

import npsurf
from npsurf import selftest

SRC = Path(npsurf.__file__).parent
_UNSIZED = {"map", "filter", "zip"}


def _unsized_tuple_calls(tree: ast.AST) -> list[int]:
    """Line numbers of ``tuple(<generator>)`` and ``tuple(map/filter/zip)``
    calls inside any function body of the tree."""
    calls = {node for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda))
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "tuple" and len(node.args) == 1}
    return sorted(node.lineno for node in calls
                  if isinstance(node.args[0], ast.GeneratorExp)
                  or (isinstance(node.args[0], ast.Call)
                      and isinstance(node.args[0].func, ast.Name)
                      and node.args[0].func.id in _UNSIZED))


def test_no_function_builds_a_tuple_of_unknown_size():
    # module-level constants (CONFIG_FLAGS, FAMILY_SWEEPS) are built once
    found = sorted({f"{path.name}:{line}"
                    for path in SRC.glob("*.py")
                    for line in _unsized_tuple_calls(
                        ast.parse(path.read_text()))})
    assert found == [], "build these tuples from a list: " + ", ".join(found)


def test_the_guard_sees_each_unsized_form():
    source = """
X = tuple(x for x in range(3))

def f(xs):
    a = tuple(x for x in xs)
    b = tuple(map(abs, xs))
    c = tuple([x for x in xs])
    return lambda: tuple(zip(xs, xs)) + tuple(filter(None, xs)) + a + b + c
"""
    assert _unsized_tuple_calls(ast.parse(source)) == [5, 6, 8, 8]


def test_repeated_mutation_checks_do_not_fill_the_free_lists():
    # 10.3k-12.0k blocks at 5 runs when flip_signature built its tuples
    # from generators, growing with the run count; 0.35k-2.1k from lists
    selftest.check_mutation_robustness()
    gc.collect()
    for _ in range(5):
        ok, detail = selftest.check_mutation_robustness()
        assert ok, detail
    before = sys.getallocatedblocks()
    gc.collect()
    freed = before - sys.getallocatedblocks()
    assert freed < 5_000
