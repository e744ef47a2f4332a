"""Command-line interface: exit codes, text output, JSON parity."""

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npsurf.families
from npsurf import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


# --- verdict commands ------------------------------------------------------


def test_bounds_summand_table(capsys):
    code, out, _ = run(capsys, "bounds", "--k2", "1", "--p", "0")
    assert code == 0
    assert "n >= 4" in out and "Thm 1.23(3)" in out


def test_text_and_json_agree(capsys):
    _, text, _ = run(capsys, "bounds", "--k2", "1", "--p", "0")
    code, payload, _ = run_json(capsys, "bounds", "--k2", "1", "--p", "0")
    assert code == 0
    v = payload["verdict"]
    assert (v["n"], v["case"]) == (4, "3")
    assert payload["justification"] == "Thm 1.23(3)"
    assert f"n >= {v['n']}" in text and v["justification"] in text


def test_classify_by_degree_with_level_queries(capsys):
    code, out, _ = run(capsys, "classify", "--t", "7", "--ample",
                       "--anticanonical", "--p", "4")
    assert code == 0
    assert "ExactMax(p = 4)" in out and "N_4: holds" in out
    code, out, _ = run(capsys, "classify", "--t", "7", "--ample",
                       "--anticanonical", "--p", "5")
    assert code == 0 and "N_5: fails" in out


def test_classify_refuses_contradictory_attestations(capsys):
    code, out, err = run(capsys, "classify", "--t", "0", "--ample",
                         "--anticanonical")
    assert code == 2 and out == "" and "contradicts" in err


def test_classify_surface_file(tmp_path, capsys):
    f = tmp_path / "plane.json"
    f.write_text(json.dumps({"kind": "P2", "coeffs": [2],
                             "flags": {"ample": True, "anticanonical": True}}))
    code, out, _ = run(capsys, "classify", "--surface", str(f))
    assert code == 0 and "ExactMax(p = 3)" in out
    code, payload, _ = run_json(capsys, "classify", "--surface", str(f))
    assert payload["verdict"]["p"] == 3


def test_classify_packaged_non_anticanonical_sample(capsys):
    path = resources.files("npsurf").joinpath("data/obs14.json")
    code, out, _ = run(capsys, "classify", "--surface", str(path))
    assert code == 0 and "AtLeast(p = 0)" in out


def test_classify_bpf_subquestion(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"kind": "P2", "coeffs": [1],
                             "flags": {"nef": True, "anticanonical": True}}))
    code, out, _ = run(capsys, "classify", "--surface", str(f),
                       "--check-bpf")
    assert code == 0 and out.startswith("bpf_check: yes")


def test_classify_curve_reference(capsys):
    code, out, _ = run(capsys, "classify", "--curve-genus", "1",
                       "--curve-degree", "5")
    assert code == 0 and "ExactMax(p = 2)" in out


def test_adjoint_exception_shape(capsys):
    code, payload, _ = run_json(capsys, "adjoint", "--k2", "1",
                                "--summands", "minus_k,minus_k")
    assert code == 0
    assert payload["verdict"]["status"] == "ExceptionListed"
    assert payload["verdict"]["case"] == "5a"


def test_adjoint_equivalence_report(capsys):
    code, out, _ = run(capsys, "adjoint", "--k2", "5", "--equivalence")
    assert code == 0 and "equivalent" in out


def test_reider_degree_gate(capsys):
    code, out, _ = run(capsys, "reider", "--k2", "0", "--L2", "27",
                       "--p", "2", "--minus-k-dot-L", "3", "--cond1")
    assert code == 0 and out.startswith("reider_np: no")
    code, out, err = run(capsys, "reider", "--k2", "10", "--L2", "26",
                         "--p", "2", "--cond1")
    assert (code, out) == (2, "")
    assert err == ("npsurf: error: K^2 = 10 exceeds the rational-surface "
                   "range\n")


def test_terminate_threshold(capsys):
    code, out, _ = run(capsys, "terminate", "--k2", "9", "--p", "9",
                       "--np-sharp")
    assert code == 0 and "m >= 2" in out


def test_fano_routes(capsys):
    code, out, _ = run(capsys, "fano", "classify", "--n", "3",
                       "--index", "2", "--deg", "8")
    assert code == 0 and "ExactMax(p = 5)" in out
    code, out, _ = run(capsys, "fano", "classify", "--n", "4",
                       "--index", "1", "--deg", "3", "--k", "3")
    assert code == 0 and "ConditionalN0" in out and "pending" in out
    code, payload, _ = run_json(capsys, "fano", "twist", "--dim", "3",
                                "--k", "3")
    assert code == 0 and payload["verdict"]["p"] == 6
    code, out, _ = run(capsys, "fano", "surface", "--minus-k-dot-b", "4",
                       "--l", "3", "--p", "3")
    assert code == 0 and out.startswith("multiples_np_surface: yes")


def test_oracle_minimum_and_refusal(capsys):
    code, out, _ = run(capsys, "oracle", "--id", "1.17", "--param", "l=4")
    assert code == 0 and out.startswith("ample_oracle: minimum 1 at")
    code, _, err = run(capsys, "oracle", "--id", "1.13", "--param", "l=3")
    assert code == 2 and "not applicable" in err


# --- example verification --------------------------------------------------


def test_example_verify_single(capsys):
    code, out, _ = run(capsys, "example", "verify", "1.13",
                       "--param", "l=3")
    assert code == 0 and out.startswith("verify_example: ok")


def test_example_verify_sweep(capsys):
    code, out, _ = run(capsys, "example", "verify", "1.12", "--sweep")
    assert code == 0
    assert out.count("ok   1.12[") == 9
    assert "9 instance(s): all passed" in out


def test_example_show_and_list(capsys):
    code, payload, _ = run_json(capsys, "example", "show", "1.16",
                                "--param", "e=1", "--param", "n=2")
    assert code == 0 and payload["verdict"]["id"] == "1.16"
    code, payload, _ = run_json(capsys, "example", "list")
    assert code == 0 and len(payload["verdict"]) == 11


@pytest.mark.parametrize("argv, headline", [
    (("example", "show", "1.11"), "build_example: 1.11"),
    (("example", "show", "1.16", "--param", "e=1", "--param", "n=2"),
     "build_example: 1.16[e=1,n=2]"),
    (("example", "list"), "example_list: 11 families, 88 instances"),
], ids=["show", "show-with-params", "list"])
def test_example_text_headline_repeats_no_field(capsys, argv, headline):
    code, out, _ = run(capsys, *argv)
    first, *fields = out.splitlines()
    assert code == 0 and first == headline
    # each further line is "  key: value"; the headline names the id
    values = [line.split(": ", 1)[1] for line in fields
              if not line.startswith("  id: ")]
    assert values and not any(v in first for v in values)


def test_example_verify_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(npsurf.families, "fixture_instance",
                        lambda a, b: None)
    code, out, _ = run(capsys, "example", "verify", "1.11")
    assert code == 1
    assert "FAILED" in out and "no fixture entry" in out
    code, out, _ = run(capsys, "example", "verify", "1.12", "--sweep")
    assert code == 1 and "FAILURES above" in out


# --- request-file evaluation -----------------------------------------------


def test_eval_file(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"op": "adjoint_np_min_n",
                               "args": {"ksq": 1, "p": 0}}))
    code, payload, err = run(capsys, "--eval-file", str(req))
    assert code == 0, err
    assert json.loads(payload)["verdict"]["n"] == 4


def test_eval_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps({"op": "thm_121_equivalence", "args": {"ksq": 9}})))
    code, out, _ = run(capsys, "--eval-file", "-")
    assert code == 0
    assert json.loads(out)["verdict"]["np_iff_ample"] == 0


def test_eval_unknown_op(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"op": "frobnicate", "args": {}}))
    code, _, err = run(capsys, "--eval-file", str(req))
    assert code == 2 and "error" in err


def _plane(digits):
    return {"kind": "P2", "coeffs": [int("9" * digits)]}


@pytest.mark.parametrize("argv, content", [
    (["classify", "--ample", "--anticanonical", "--surface"], _plane(4300)),
    (["--json", "classify", "--ample", "--anticanonical", "--surface"],
     _plane(4300)),
    (["--eval-file"], {"op": "intersect",
                       "args": {"d1": _plane(3000), "d2": _plane(3000)}}),
], ids=["text", "json", "eval-file"])
def test_an_answer_past_the_digit_limit_is_refused(tmp_path, capsys, argv,
                                                   content):
    # the input's integers are readable, the answer's too long to print
    f = tmp_path / "in.json"
    f.write_text(json.dumps(content))
    code, out, err = run(capsys, *argv, str(f))
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.startswith("npsurf: error: Exceeds the limit (4300 digits)")


_LONG = "x" * 200_000


@pytest.mark.parametrize("request_", [
    {"op": _LONG},
    {"op": "k_squared", _LONG: 1},
    {"op": "k_squared", "args": {_LONG: 1}},
    {"op": "k_squared", "args": {"surface": {"kind": _LONG}}},
    {"op": "k_squared", "args": {"surface": {"kind": "P2", _LONG: 1}}},
    {"op": "k_squared", "args": {"surface": {
        "kind": "P2", "l": 1, "config": {_LONG: True}}}},
    {"op": "build_example", "args": {"id": _LONG}},
    {"op": "np_classify", "args": {"t": 7, "flags": {_LONG: True}}},
    {"op": "min_kA_bound", "args": {"ksq": 1, "summand": _LONG}},
    {"op": "primitive_np",
     "args": {"n": 3, "m": 2, "Hn": 1, "morphism": _LONG}},
], ids=["op", "request field", "args key", "surface kind", "surface field",
        "config flag", "family id", "np flag", "summand tag", "morphism"])
def test_a_refusal_quoting_a_long_input_is_cut(tmp_path, capsys, request_):
    req = tmp_path / "req.json"
    req.write_text(json.dumps(request_))
    code, out, err = run(capsys, "--eval-file", str(req))
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("npsurf: error: ") and len(err) < 1200
    assert err.endswith(" characters cut)\n")


# --- error mapping ---------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "bounds", "--k2", "12", "--p", "0")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "example", "verify", "9.99")
    assert code == 2
    code, _, err = run(capsys, "classify")
    assert code == 2 and "nothing to classify" in err
    code, _, err = run(capsys, "example", "verify", "1.12", "--param", "e")
    assert code == 2 and "K=V" in err
    code, _, err = run(capsys)
    assert code == 2 and "subcommand" in err


@pytest.mark.parametrize("argv,message", [
    (("example", "verify", "1.17", "--sweep", "--param", "l=3",
      "--param", "l=4"), "--param l given more than once"),
    (("example", "verify", "1.12", "--param", "e=1_0"),
     "--param e must be an integer, got '1_0'"),
    (("example", "show", "1.12", "--param", "e=x"),
     "--param e must be an integer, got 'x'"),
    (("oracle", "--id", "1.17", "--param", "l=+4"),
     "--param l must be an integer, got '+4'"),
    (("example", "verify", "1.17", "--sweep", "--param", "l=3"),
     "--sweep verifies the whole parameter range; drop --param or --sweep"),
    (("example", "verify", "1.12", "--param", "e=" + "1" * 4400),
     "--param e is too long to read as an integer (4400 characters)"),
    (("classify", "--t", "7", "--ample", "--anticanonical", "--p", "x"),
     "--p must be an integer, got 'x'"),
    (("classify", "--t", "7", "--ample", "--anticanonical", "--p", " 3"),
     "--p must be an integer, got ' 3'"),
    (("classify", "--t", "7", "--ample", "--anticanonical", "--p", "1" * 4400),
     "--p is too long to read as an integer (4400 characters)"),
])
def test_param_values_are_strict(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"npsurf: error: {message}\n"


def _typed_options(parser):
    """Every option of the parser and its subparsers that has a ``type``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _typed_options(sub)
        elif action.type is not None:
            yield action


def _help_paths(parser, path=()):
    """The argv path of the top parser and of every subcommand and action,
    depth first in the order they were added."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _help_paths(sub, path + (name,))


# sha256 over the ``--help`` output of every path above at 80 columns;
# Python 3.13 formats argparse usage lines differently
HELP_SHA256 = (
    "d2e6159a21bd0473540e5263f69ddf1ce4dbd2667cbbdd8cebe767cf8688110f"
    if sys.version_info < (3, 13) else
    "cac948e4203c62598f2f6345954c350a1eb094e05665e5c85d89bfcbd5ca6724")


def test_help_text_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    paths = list(_help_paths(cli.build_parser()))
    for path in paths:
        with pytest.raises(SystemExit) as exit_:
            cli.main([*path, "--help"])
        out, err = capsys.readouterr()
        assert exit_.value.code == 0 and err == ""
        digest.update(out.encode())
    assert len(paths) == 16
    assert digest.hexdigest() == HELP_SHA256


def test_every_integer_option_uses_the_strict_reader():
    types = [action.type for action in _typed_options(cli.build_parser())]
    assert int not in types
    assert types.count(cli._int_option) == 28


@pytest.mark.parametrize("argv,bad", [
    (("bounds", "--k2", "1", "--p", "1_0"), "1_0"),
    (("bounds", "--k2", "1", "--p", " 2"), " 2"),
    (("bounds", "--k2", "+4", "--p", "0"), "+4"),
    (("reider", "--k2", "0", "--L2", "27", "--p", "2",
      "--minus-k-dot-L", "3 "), "3 "),
    (("classify", "--t", "7_0", "--ample", "--anticanonical"), "7_0"),
    (("fano", "twist", "--dim", "3", "--k", "\uff13"), "\uff13"),
    (("fano", "classify", "--n", "1_2", "--index", "1", "--deg", "1"), "1_2"),
    (("oracle", "--id", "1.11", "--box", "+12"), "+12"),
])
def test_integer_options_are_strict(capsys, argv, bad):
    with pytest.raises(SystemExit) as exit_:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert f"value must be an integer, got {bad!r}" in err


@pytest.mark.parametrize("argv", [
    ("classify", "--t", "7", "--ample", "--anticanonical", "--check-bpf"),
    ("classify", "--curve-genus", "1", "--curve-degree", "5", "--check-bpf"),
])
def test_check_bpf_needs_a_surface(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "npsurf: error: --check-bpf needs --surface FILE\n"


_OBS14 = str(resources.files("npsurf").joinpath("data/obs14.json"))


@pytest.mark.parametrize("argv,message", [
    (("classify", "--surface", _OBS14, "--t", "99", "--ample"),
     "--surface and --t name different inputs; give only one"),
    (("classify", "--t", "7", "--curve-genus", "1", "--curve-degree", "5"),
     "--t and --curve-genus/--curve-degree name different inputs; give "
     "only one"),
    (("classify", "--surface", _OBS14, "--curve-degree", "5"),
     "--surface and --curve-genus/--curve-degree name different inputs; "
     "give only one"),
    (("classify", "--surface", _OBS14, "--t", "7", "--curve-genus", "1",
      "--curve-degree", "5"),
     "--surface and --t and --curve-genus/--curve-degree name different "
     "inputs; give only one"),
    (("classify", "--surface", _OBS14, "--check-bpf", "--p", "3"),
     "--check-bpf answers base-point-freeness only; drop --p"),
])
def test_classify_refuses_options_it_would_ignore(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"npsurf: error: {message}\n"


@pytest.mark.parametrize("flags", [[1], None, "ample", True])
@pytest.mark.parametrize("command", ["classify --surface", "oracle --divisor"])
def test_file_flags_must_be_an_object(tmp_path, capsys, command, flags):
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"kind": "P2", "coeffs": [1], "flags": flags}))
    code, out, err = run(capsys, *command.split(), str(f))
    assert code == 2 and out == ""
    assert err == f"npsurf: error: {f}: flags must be a JSON object\n"


@pytest.mark.parametrize("command", ["--eval-file", "--eval-file -",
                                     "classify --surface", "oracle --divisor"])
def test_deeply_nested_json_input_exits_two(tmp_path, monkeypatch, capsys,
                                            command):
    # 100,000 open brackets in 100 KB: deeper than the JSON parser can
    # recurse on every supported Python (3.13 parses 2,000 to the end)
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000)
    argv = command.split()
    if argv[-1] == "-":
        monkeypatch.setattr("sys.stdin", io.StringIO(f.read_text()))
    else:
        argv.append(str(f))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("npsurf: error: ")
    assert err.endswith(": JSON nested too deeply\n")


def test_selftest_label_lines_exist():
    # the full selftest run is exercised by the acceptance suite; here just
    # check the registry wiring
    from npsurf import selftest

    assert len(selftest.CHECKS) == 8
    assert all(callable(fn) for _, fn in selftest.CHECKS)


def test_oracle_by_id_searches_the_family_divisor(tmp_path, capsys):
    divisor = npsurf.families.build_example("1.17", {"l": 4}).A.to_json()
    f = tmp_path / "d.json"
    f.write_text(json.dumps(divisor))
    by_id = run_json(capsys, "oracle", "--id", "1.17", "--param", "l=4",
                     "--box", "20")
    by_file = run_json(capsys, "oracle", "--divisor", str(f), "--box", "20")
    assert by_id == by_file
    assert by_id[1]["op"] == "ample_oracle"


def test_oracle_divisor_file_takes_no_param(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"kind": "Fe", "e": 1, "coeffs": [1, 2]}))
    code, out, err = run(capsys, "oracle", "--divisor", str(f),
                         "--param", "e=1")
    assert (code, out) == (2, "")
    assert err == ("npsurf: error: --param sets family parameters; it needs "
                   "--id FAMILY, not --divisor FILE\n")


def test_oracle_refuses_divisor_file_flags_no_op_reads(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"kind": "P2", "coeffs": [1],
                             "flags": {"ampel": True}}))
    code, out, err = run(capsys, "oracle", "--divisor", str(f))
    assert (code, out) == (2, "")
    assert err == f"npsurf: error: {f}: unknown flags: ['ampel']\n"


@pytest.mark.parametrize("argv,unread", [
    (("--nef",), "nef"),
    (("--check-bpf", "--bpf"), "bpf"),
    (("--check-bpf", "--ample"), "ample"),
])
def test_classify_refuses_flags_the_chosen_op_does_not_read(
        tmp_path, capsys, argv, unread):
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"kind": "P2", "coeffs": [2], "flags": {
        "ample": True, "anticanonical": True, "nef": True}}))
    code, out, err = run(capsys, "classify", "--surface", str(f), *argv)
    assert (code, out) == (2, "")
    assert err == f"npsurf: error: unknown flags: [{unread!r}]\n"


def test_classify_refuses_file_flags_no_op_reads(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"kind": "P2", "coeffs": [3], "flags": {
        "ample": True, "anticanonical": True, "bpff": True, "ampel": False}}))
    for extra in ((), ("--check-bpf",)):
        code, out, err = run(capsys, "classify", "--surface", str(f), *extra)
        assert (code, out) == (2, "")
        assert err == (f"npsurf: error: {f}: unknown flags: "
                       "['ampel', 'bpff']\n")


def test_classify_file_may_hold_both_ops_flags(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"kind": "P2", "coeffs": [2], "flags": {
        "ample": True, "anticanonical": True, "nef": True}}))
    code, out, _ = run(capsys, "classify", "--surface", str(f))
    assert code == 0 and out.startswith("np_classify: ExactMax(p = 3)")
    code, out, _ = run(capsys, "classify", "--surface", str(f), "--check-bpf")
    assert code == 0 and out.startswith("bpf_check: yes")


# --- table subcommands -----------------------------------------------------


@pytest.mark.parametrize("argv,message", [
    (("bounds", "--k2", "3", "--summand", "other", "--p", "4", "--exclude",
      "minus_k", "--multiple", "--adjoint-effective"),
     "unknown args: ['adjoint_effective', 'exclude', 'multiple_of_minus_k', "
     "'p']"),
    (("bounds", "--k2", "3", "--L2", "50", "--p", "2", "--e", "1", "--conic",
      "--adjoint-effective"), "unknown args: ['conic_fibration', 'e']"),
    (("bounds", "--k2", "3", "--p", "4", "--multiple", "--adjoint-effective"),
     "unknown args: ['adjoint_effective', 'multiple_of_minus_k']"),
    (("adjoint", "--k2", "5", "--summands", "other", "--e", "1", "--summand",
      "minus_k"), "unknown args: ['e', 'summand']"),
    (("adjoint", "--k2", "5", "--equivalence", "--summands", "other,other"),
     "unknown args: ['summands']"),
    (("classify", "--curve-genus", "1", "--curve-degree", "5", "--bpf"),
     "unknown flags: ['bpf']"),
    (("classify", "--curve-genus", "1", "--curve-degree", "5", "--ample",
      "--anticanonical", "--nef"),
     "unknown flags: ['ample', 'anticanonical', 'nef']"),
    (("--eval-file", "REQUEST", "bounds", "--k2", "3", "--p", "4"),
     "--eval-file evaluates its request alone; drop the bounds subcommand"),
], ids=["bounds min_kA", "bounds lemma_125", "bounds min_n", "adjoint table",
        "adjoint equivalence", "curve bpf", "curve flags", "eval-file"])
def test_options_no_op_reads_are_refused(tmp_path, capsys, argv, message):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"op": "adjoint_np_min_n",
                               "args": {"ksq": 1, "p": 0}}))
    argv = [str(req) if a == "REQUEST" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"npsurf: error: {message}\n"


def _subparser(parser, *path):
    for name in path:
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)
                      ).choices[name]
    return parser


# every op a table subcommand can call
TABLE_OPS = {
    ("bounds",): ("lemma_125_bound", "min_kA_bound", "adjoint_np_min_n"),
    ("adjoint",): ("adjoint_very_ample", "thm_121_equivalence"),
    ("reider",): ("reider_np",),
    ("terminate",): ("ampleness_termination",),
    ("fano", "classify"): ("primitive_np", "index_nm3_n0", "index_nm3_np",
                           "multiples_np_fano"),
    ("fano", "surface"): ("multiples_np_surface",),
    ("fano", "twist"): ("projective_space_twist_max_np",),
}


@pytest.mark.parametrize("path", TABLE_OPS, ids=" ".join)
def test_every_table_option_is_an_argument_of_its_ops(path):
    from npsurf import api
    from npsurf.fano import SurfaceProfile

    names = set().union(*(api._call(op).names for op in TABLE_OPS[path]))
    # the surface profile's fields are options of their own
    if "profile" in names:
        names |= SurfaceProfile.__optional_keys__
    dests = {action.dest for action in _subparser(cli.build_parser(),
                                                  *path)._actions
             if action.option_strings and action.dest != "help"}
    # --equivalence only chooses the op
    assert dests - {"equivalence"} <= names, sorted(dests - names)


FANO = {"n": 5, "m": 2, "Hn": 2}
# commands that answer one library call, each beside the request it makes
SINGLE_OP_COMMANDS = {
    "fano classify primitive": (
        ("fano", "classify", "--n", "3", "--index", "2", "--deg", "8"),
        "primitive_np", {"n": 3, "m": 2, "Hn": 8}),
    "fano classify multiples": (
        ("fano", "classify", "--n", "3", "--index", "2", "--deg", "8", "--k",
         "2", "--p", "3"),
        "multiples_np_fano", {"n": 3, "m": 2, "Hn": 8, "l": 2, "p": 3}),
    "fano classify n0": (
        ("fano", "classify", "--n", "5", "--index", "2", "--deg", "2", "--k",
         "3"), "index_nm3_n0", {**FANO, "k": 3}),
    "fano classify np": (
        ("fano", "classify", "--n", "5", "--index", "2", "--deg", "2", "--h0",
         "7", "--k", "4", "--p", "2"),
        "index_nm3_np", {**FANO, "h0H": 7, "k": 4, "p": 2}),
    "fano surface": (
        ("fano", "surface", "--minus-k-dot-b", "4", "--l", "1", "--p", "2"),
        "multiples_np_surface", {"profile": {"minusK_dot_B": 4}, "l": 1,
                                 "p": 2}),
    "fano surface plane": (
        ("fano", "surface", "--minus-k-dot-b", "3", "--l", "2", "--p", "2",
         "--p2-o1"),
        "multiples_np_surface", {"profile": {"minusK_dot_B": 3,
                                             "is_P2_O1": True},
                                 "l": 2, "p": 2}),
    "fano twist derived": (
        ("fano", "twist", "--dim", "3", "--k", "2"),
        "projective_space_twist_max_np", {"dim": 3, "k": 2}),
    "fano twist looked up": (
        ("fano", "twist", "--dim", "4", "--k", "2"),
        "projective_space_twist_max_np", {"dim": 4, "k": 2}),
    "bounds lemma_125": (
        ("bounds", "--k2", "3", "--L2", "24", "--p", "2",
         "--adjoint-effective"),
        "lemma_125_bound", {"ksq": 3, "Lsq": 24, "p": 2,
                            "adjoint_effective": True}),
    "bounds min_kA": (("bounds", "--k2", "2", "--summand", "minus_2k"),
                      "min_kA_bound", {"ksq": 2, "summand": "minus_2k"}),
    "bounds min_n": (("bounds", "--k2", "3", "--p", "4", "--exclude",
                      "minus_k"),
                     "adjoint_np_min_n", {"ksq": 3, "p": 4,
                                          "exclude": ["minus_k"]}),
    "adjoint table": (("adjoint", "--k2", "1", "--summands",
                       "minus_k,minus_2k"),
                      "adjoint_very_ample",
                      {"ksq": 1, "summands": ["minus_k", "minus_2k"]}),
    "adjoint equivalence": (("adjoint", "--k2", "5", "--equivalence",
                             "--summand", "minus_k"),
                            "thm_121_equivalence",
                            {"ksq": 5, "summand": "minus_k"}),
    "reider": (("reider", "--k2", "3", "--L2", "26", "--p", "2", "--cond1"),
               "reider_np", {"ksq": 3, "Lsq": 26, "p": 2,
                             "cond1_attested": True}),
    "terminate": (("terminate", "--k2", "4", "--p", "3", "--np-sharp",
                   "--not-multiple"),
                  "ampleness_termination",
                  {"ksq": 4, "p": 3, "np_sharp_attested": True,
                   "multiple_of_minus_k": False}),
    "classify t": (("classify", "--t", "7", "--ample", "--anticanonical"),
                   "np_classify",
                   {"t": 7, "flags": {"ample": True, "anticanonical": True}}),
    "oracle id": (("oracle", "--id", "1.17", "--param", "l=4"),
                  "ample_oracle",
                  {"divisor": {"kind": "Fe", "e": 1, "l": 4, "config": {
                      "on_smooth_anticanonical": True,
                      "away_from_min_section": True,
                      "anticanonical_effective": True},
                      "coeffs": [3, 4, -1, -1, -1, -1]}}),
}


@pytest.mark.parametrize("argv, op, args", SINGLE_OP_COMMANDS.values(),
                         ids=SINGLE_OP_COMMANDS)
def test_a_single_op_command_prints_what_evaluate_answers(capsys, argv, op,
                                                          args):
    from npsurf import api

    code, out, err = run(capsys, "--json", *argv)
    answer = api.evaluate({"op": op, "args": args})
    assert (code, err) == (0, "")
    assert out == json.dumps(answer, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("degree", [-7, 0, 1, 4])
def test_the_plane_profile_is_refused_with_another_degree(capsys, degree):
    from npsurf import api
    from npsurf.fano import FanoError, multiples_np_surface

    profile = {"minusK_dot_B": degree, "is_P2_O1": True}
    message = ("the plane with its line bundle has -K.B = 3, got "
               f"minusK_dot_B = {degree}")
    with pytest.raises(FanoError, match=f"^{re.escape(message)}$"):
        multiples_np_surface(profile, 2, 1)
    with pytest.raises(FanoError, match=f"^{re.escape(message)}$"):
        api.evaluate({"op": "multiples_np_surface",
                      "args": {"profile": profile, "l": 2, "p": 1}})
    code, out, err = run(capsys, "fano", "surface", "--p2-o1",
                         "--minus-k-dot-b", str(degree), "--l", "2", "--p",
                         "1")
    assert (code, out, err) == (2, "", f"npsurf: error: {message}\n")


# --- fuzz ------------------------------------------------------------------


def _commands(parser, path=()):
    """(argv path, positionals, options) of every leaf command but selftest,
    read off the parser."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if subs:
        for name, sub in subs[0].choices.items():
            if name != "selftest":
                yield from _commands(sub, path + (name,))
        return
    actions = [a for a in parser._actions
               if not isinstance(a, argparse._HelpAction)]
    yield (path, [a for a in actions if not a.option_strings],
           [a for a in actions if a.option_strings])


PARSER = cli.build_parser()
COMMANDS = list(_commands(PARSER))
EVAL_FILE = next(a for a in PARSER._actions if a.dest == "eval_file")
JUNK = ("", "x", "-1", "1_0", "+4", " 3", "auto", "e", "e=", "=1", "l=+4",
        "1.17", "9.99", "minus_k", "other", "minus_k,other", "ample")
PARAMS = ("e=0", "e=1", "l=3", "l=4", "n=2", "m=1", "bogus=1", "e=x", "e")
FAMILIES = ("1.11", "1.12", "1.13", "1.16", "1.17", "Obs1.4", "9.99")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Divisor and request files, good and bad, plus one that is missing."""
    d = tmp_path_factory.mktemp("cli-fuzz")
    docs = {
        "plane": {"kind": "P2", "coeffs": [2],
                  "flags": {"ample": True, "anticanonical": True}},
        "fe": {"kind": "Fe", "e": 1, "coeffs": [1, 2], "flags": {"nef": True}},
        "typo": {"kind": "P2", "coeffs": [1], "flags": {"ampel": True}},
        "list": [1, 2],
        "request": {"op": "adjoint_np_min_n", "args": {"ksq": 1, "p": 0}},
        "oracle": {"op": "ample_oracle", "args": {
            "divisor": {"kind": "P2", "coeffs": [1]}, "box": 3}},
        "bad-op": {"op": "frobnicate", "args": {}},
    }
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc))
    (d / "torn.json").write_text('{"kind": "P2", ')
    return [str(d / f"{name}.json")
            for name in (*docs, "torn", "missing")]


def _value(data, action, files):
    """A value for one option: mostly in its domain, sometimes junk."""
    if data.draw(st.integers(0, 11)) == 0:
        return data.draw(st.sampled_from(JUNK))
    if action.dest == "box":        # capped: the search grows as box^2
        return str(data.draw(st.integers(-1, 12)))
    if action.choices:
        return data.draw(st.sampled_from(sorted(action.choices)))
    if action.dest == "param":
        return data.draw(st.sampled_from(PARAMS))
    if action.dest in ("surface", "divisor", "eval_file"):
        return data.draw(st.sampled_from(files))
    if action.dest in ("id", "family_id"):
        return data.draw(st.sampled_from(FAMILIES))
    if action.type is cli._int_option:
        return str(data.draw(st.integers(-3, 12)))
    return data.draw(st.sampled_from(JUNK))


def _argv(data, files):
    argv = ["--json"] if data.draw(st.booleans()) else []
    if data.draw(st.integers(0, 9)) == 0:
        return argv + ["--eval-file", _value(data, EVAL_FILE, files)], ()
    path, positionals, options = data.draw(st.sampled_from(COMMANDS))
    argv += path
    for action in positionals:
        argv.append(_value(data, action, files))
    for action in options:
        # a required option is mostly given once, any other mostly left out
        counts = (1,) * 9 + (0, 2) if action.required else (0,) * 6 + (1, 2)
        for _ in range(data.draw(st.sampled_from(counts))):
            argv.append(action.option_strings[-1])
            if action.nargs != 0:
                argv.append(_value(data, action, files))
    return argv, path


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzz_cli_exits_zero_one_or_two(files, data):
    argv, path = _argv(data, files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse: usage error or --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    # a failed verification is the only exit 1
    assert code != 1 or path == ("example", "verify"), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("npsurf: ", "usage: ")), argv
    else:
        assert out.getvalue(), argv
