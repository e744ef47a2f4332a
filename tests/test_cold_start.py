"""Cold start: each command imports only the modules it runs.

The in-process CLI tests cannot see a missing lazy import, because this test
session has already imported every npsurf module; the launches here start a
fresh interpreter each.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import npsurf
from npsurf import api

SRC = str(pathlib.Path(npsurf.__file__).resolve().parent.parent)
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ
             else []))}


def launch(*args, stdin=None, **kwargs):
    return subprocess.run([sys.executable, *args], input=stdin, env=ENV,
                          text=True, timeout=120, **kwargs)


def cold_main(argv, stdin=None):
    """Exit code, JSON output and loaded modules of one ``cli.main(argv)``
    call in a fresh interpreter."""
    proc = launch("-c", f"""if True:
        import contextlib, io, json, sys
        from npsurf import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main({list(argv)!r})
        print(json.dumps([code, json.loads(out.getvalue()),
                          sorted(sys.modules)]))
        """, stdin=stdin, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    code, payload, modules = json.loads(proc.stdout)
    return code, payload, set(modules)


def test_cold_classify_by_degree_loads_neither_families_nor_selftest():
    code, _, modules = cold_main(["--json", "classify", "--t", "7", "--ample",
                                  "--anticanonical"])
    assert code == 0
    assert {"npsurf.cli", "npsurf.api", "npsurf.criteria"} <= modules
    assert not {"npsurf.families", "npsurf.selftest", "npsurf.fano"} & modules
    # only ampleness_termination does exact rational arithmetic
    assert "fractions" not in modules


# one launch per subcommand and action, with the exit code each has always
# had; ``npsurf selftest`` is launched cold by the acceptance suite
SUBCOMMANDS = [
    (("--json", "classify", "--t", "7", "--ample", "--anticanonical"), 0),
    (("classify", "--curve-genus", "1", "--curve-degree", "5"), 0),
    (("classify", "--t", "0", "--ample", "--anticanonical"), 2),
    (("bounds", "--k2", "1", "--p", "0"), 0),
    (("adjoint", "--k2", "1", "--summands", "minus_k,other"), 0),
    (("reider", "--k2", "3", "--L2", "24", "--p", "2", "--cond1"), 0),
    (("terminate", "--k2", "1", "--p", "0", "--np-sharp"), 0),
    (("example", "list"), 0),
    (("example", "show", "1.16", "--param", "e=1", "--param", "n=2"), 0),
    (("example", "verify", "1.17", "--param", "l=4"), 0),
    (("example", "verify", "1.12", "--sweep"), 0),
    (("example", "verify", "9.99"), 2),
    (("fano", "classify", "--n", "3", "--index", "2", "--deg", "4"), 0),
    (("fano", "surface", "--minus-k-dot-b", "3", "--l", "2", "--p", "1"), 0),
    (("fano", "twist", "--dim", "3", "--k", "2"), 0),
    (("oracle", "--id", "1.17", "--param", "l=4"), 0),
    (("oracle", "--id", "1.13", "--param", "l=3"), 2),
    (("oracle", "--help"), 0),
]


@pytest.mark.parametrize("argv,code", SUBCOMMANDS,
                         ids=[" ".join(a) for a, _ in SUBCOMMANDS])
def test_each_subcommand_runs_cold(argv, code):
    proc = launch("-m", "npsurf", *argv, capture_output=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert bool(proc.stdout) == (code == 0)


def test_cold_oracle_help_names_the_default_box():
    from npsurf.families import DEFAULT_BOX

    proc = launch("-m", "npsurf", "oracle", "--help", capture_output=True)
    assert f"search box (default {DEFAULT_BOX})" in proc.stdout


def test_cold_eval_of_a_families_op():
    request = {"op": "ample_oracle", "args": {
        "divisor": {"kind": "P2", "coeffs": [1]}, "box": 3}}
    code, payload, modules = cold_main(["--eval-file", "-"],
                                       stdin=json.dumps(request))
    assert code == 0
    assert payload["verdict"]["min_value"] == 1
    assert "npsurf.families" in modules and "npsurf.fano" not in modules


@pytest.mark.parametrize("argv", [
    ("--json", "example", "list"),
    ("--json", "classify", "--t", "7", "--ample", "--anticanonical"),
    ("example", "verify", "1.12", "--sweep"),
])
def test_closed_stdout_is_not_an_error(argv):
    # the reader is gone before the first write, as after `| head -c 10`
    read, write = os.pipe()
    os.close(read)
    try:
        proc = launch("-m", "npsurf", *argv, stdout=write,
                      stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_every_op_derives():
    for op in api.OPERATIONS:
        call = api._call(op)
        assert call is api._call(op)
        assert set(call.required) <= call.names


def test_two_parameters_on_one_json_key_are_refused():
    with pytest.raises(TypeError, match="share one JSON key"):
        api._derive("families", "build_example", None,
                    {"family_id": "params"})


def test_every_public_name_resolves_to_its_home_object():
    for name in npsurf.__all__:
        home = importlib.import_module(f"npsurf.{npsurf._HOME[name]}")
        assert getattr(npsurf, name) is getattr(home, name), name
    assert set(npsurf.__all__) <= set(dir(npsurf))
    # resolved on every access, never stored in the package
    assert not set(npsurf.__all__) & set(vars(npsurf))
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        npsurf.nonesuch


def test_bare_import_loads_no_submodule_until_one_is_used():
    proc = launch("-c", """if True:
        import json, sys
        import npsurf
        before = sorted(m for m in sys.modules if m.startswith("npsurf."))
        npsurf.families.build_example("1.11", None)
        print(json.dumps([before, "npsurf.families" in sys.modules]))
        """, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True]
