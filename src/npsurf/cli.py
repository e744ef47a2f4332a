"""Command-line interface for the exact syzygy-level toolkit.

Every subcommand prints the same verdict in text and JSON form (``--json``),
always echoing the verdict's justification tag.  Exit codes: 0 on success,
1 on verification or selftest failure (the failing claim is named), 2 on
argument or validation errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import api, criteria

# every attested flag of the two divisor ops, each a ``classify`` option
_FLAGS = sorted(criteria.CLASSIFY_FLAGS | criteria.BPF_FLAGS)

# --- output ----------------------------------------------------------------


def _status(v: dict) -> str:
    head = v["status"] if v.get("p") is None else f"{v['status']}(p = {v['p']})"
    if v.get("needed"):
        head += f" pending: {', '.join(v['needed'])}"
    return head


def _instance_name(fid: str, params: dict) -> str:
    """``1.17[l=4]``, or the bare id of an instance without parameters."""
    key = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{fid}[{key}]" if key else fid


# one-line summary of a verdict, by the ``kind`` the API reports, or by the
# op of a payload the CLI builds itself
_HEADLINES = {
    "NpVerdict": _status,
    "VAVerdict": _status,
    "FanoN0Decision": _status,
    "BoolVerdict": lambda v: "yes" if v["value"] else "no",
    "MinNResult": lambda v: f"n >= {v['n']}",
    "MinusKBoundReport": lambda v: f"-K.A >= {v['bound']}",
    "OracleResult": lambda v: (
        f"minimum {v['min_value']} at {tuple(v['argmin'])} "
        f"(box {v['box']}, {v['candidates']} candidates)"),
    "AmpleCertificate": lambda v: ("certificate valid" if v["valid"]
                                   else "certificate FAILED"),
    "TerminationThreshold": lambda v: (f"m <= {v['m_max']}"
                                       if v["direction"] == "below"
                                       else f"m >= {v['m_min']}"),
    "EquivalenceReport": lambda v: (
        "ample, very ample, and the syzygy bound are equivalent"
        if v["triple_equivalence"]
        else "only the syzygy/ampleness equivalence holds"),
    "VerifyReport": lambda v: ("ok" if v["passed"]
                               else f"FAILED: {v['failures'][0]}"),
    "ExampleFamily": lambda v: _instance_name(v["id"], v["params"]),
    "example_list": lambda v: (f"{len(v)} families, "
                               f"{sum(map(len, v.values()))} instances"),
}


def _render(payload: dict | list[str], as_json: bool) -> str:
    if isinstance(payload, list):       # a command's own text lines
        return "\n".join(payload)
    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True)
    v = payload.get("verdict")
    kind = payload.get("kind", payload.get("op"))
    headline = _HEADLINES.get(kind, json.dumps)(v)
    lines = [f"{payload.get('op')}: {headline}"]
    tag = payload.get("justification")
    if isinstance(v, dict):
        for key in sorted(v):
            if key == "justification":
                tag = v[key]
                continue
            value = v[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"  {key}: {value}")
    if "query" in payload:
        q = payload["query"]
        word = {True: "holds", False: "fails"}.get(q["holds"], "undetermined")
        lines.append(f"  N_{q['p']}: {word}")
    if tag:
        lines.append(f"  tag: {tag}")
    return "\n".join(lines)


def _augment_query(payload: dict, p: int | None) -> dict:
    """Resolve an explicit ``--p LEVEL`` query against the verdict."""
    if p is None:
        return payload
    v = payload["verdict"]
    status, level = v.get("status"), v.get("p")
    if status == "ExactMax":
        holds = p <= level
    elif status == "AtLeast":
        holds = True if p <= level else None
    elif status == "NotN0":
        holds = False
    else:
        holds = None
    return {**payload, "query": {"p": p, "holds": holds}}


def _read_int(name: str, value: str) -> int:
    """Read a plain decimal integer (``-?[0-9]+``) given for option ``name``."""
    if not re.fullmatch(r"-?[0-9]+", value):
        raise api.ApiError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:
        raise api.ApiError(f"{name} is too long to read as an integer "
                           f"({len(value)} characters)") from None


def _int_option(value: str) -> int:
    """The argparse ``type`` of every integer option: ``_read_int``'s rule."""
    try:
        return _read_int("value", value)
    except api.ApiError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tags(value: str) -> list[str]:
    """The argparse ``type`` of ``--summands``: its comma-separated tags."""
    return [t.strip() for t in value.split(",") if t.strip()]


def _parse_params(pairs: list[str]) -> dict | None:
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise api.ApiError(f"--param expects K=V, got {item!r}")
        if key in out:
            raise api.ApiError(f"--param {key} given more than once")
        out[key] = _read_int(f"--param {key}", value)
    return out or None


def _read_json(fh, name: str):
    """Parse one JSON document; nesting too deep to parse is a bad input."""
    try:
        return json.load(fh)
    except RecursionError:
        raise api.ApiError(f"{name}: JSON nested too deeply") from None


def _load_divisor_file(path: str) -> tuple[dict, dict]:
    """Read a flat divisor JSON file; returns (divisor_json, flags).  A flag
    that no divisor op reads is refused."""
    with open(path) as fh:
        data = _read_json(fh, path)
    if not isinstance(data, dict):
        raise api.ApiError(f"{path}: expected a JSON object")
    flags = data.pop("flags", {})
    if not isinstance(flags, dict):
        raise api.ApiError(f"{path}: flags must be a JSON object")
    unknown = sorted(set(flags).difference(_FLAGS))
    if unknown:
        raise api.ApiError(f"{path}: unknown flags: {unknown}")
    return data, flags


def _eval(op: str, **args) -> dict:
    """Evaluate one op on its JSON args (None is null)."""
    return api.evaluate({"op": op, "args": args})


# --- subcommand handlers ---------------------------------------------------


def _cmd_classify(args) -> tuple[int, dict]:
    p = None if args.p == "auto" else _read_int("--p", args.p)
    if p is not None and p < 0:
        raise api.ApiError("--p must be >= 0 or 'auto'")
    if args.check_bpf and args.surface is None:
        raise api.ApiError("--check-bpf needs --surface FILE")
    curve = args.curve_genus is not None or args.curve_degree is not None
    given = [name for name, present in (
        ("--surface", args.surface is not None), ("--t", args.t is not None),
        ("--curve-genus/--curve-degree", curve)) if present]
    if len(given) > 1:
        raise api.ApiError(f"{' and '.join(given)} name different inputs; "
                           "give only one")
    if args.check_bpf and p is not None:
        raise api.ApiError("--check-bpf answers base-point-freeness only; "
                           "drop --p")
    # a command-line flag the chosen op does not read is refused
    cli_flags = {name: True for name in _FLAGS if getattr(args, name)}
    if curve:
        if args.curve_genus is None or args.curve_degree is None:
            raise api.ApiError(
                "curve classification needs both --curve-genus and "
                "--curve-degree")
        if cli_flags:       # curve_np_reference reads no flag
            raise api.ApiError(f"unknown flags: {sorted(cli_flags)}")
        payload = _eval("curve_np_reference", genus=args.curve_genus,
                        degree=args.curve_degree)
        return 0, _augment_query(payload, p)

    if args.surface is not None:
        divisor, flags = _load_divisor_file(args.surface)
        # a file may hold both ops' flags; the chosen op gets its own
        op, reads = (("bpf_check", criteria.BPF_FLAGS) if args.check_bpf
                     else ("np_classify", criteria.CLASSIFY_FLAGS))
        flags = {k: v for k, v in flags.items() if k in reads}
        payload = _eval(op, divisor=divisor, flags={**flags, **cli_flags})
        return 0, _augment_query(payload, p)

    if args.t is not None:
        payload = _eval("np_classify", t=args.t, flags=cli_flags)
        return 0, _augment_query(payload, p)

    raise api.ApiError("nothing to classify: give --surface FILE, --t, or "
                       "--curve-genus/--curve-degree")


# what ``main`` and the parser keep beside a table subcommand's options
_NOT_OP_ARGS = frozenset({"json", "eval_file", "command", "action", "handler",
                          "op"})


def _cmd_table(args) -> tuple[int, dict]:
    """A table subcommand: the options given, each under its op's JSON
    argument name, are the op's args, and the op refuses a missing one or
    one it does not read.  ``args.op`` is the op, or a function that picks
    it from them (taking out a routing switch, renaming or nesting args)."""
    given = {k: v for k, v in vars(args).items() if k not in _NOT_OP_ARGS}
    op = args.op if isinstance(args.op, str) else args.op(given)
    return 0, _eval(op, **given)


def _bounds_op(given: dict) -> str:
    if "Lsq" in given:
        return "lemma_125_bound"
    if given.keys() & {"summand", "conic_fibration"}:
        return "min_kA_bound"
    return "adjoint_np_min_n"


def _adjoint_op(given: dict) -> str:
    # --equivalence routes to the report; no op reads it
    return ("thm_121_equivalence" if given.pop("equivalence", False)
            else "adjoint_very_ample")


def _fano_classify_op(given: dict) -> str:
    if not given.keys() & {"k", "p"}:
        return "primitive_np"
    if given["m"] == given["n"] - 3:
        return "index_nm3_np" if "p" in given else "index_nm3_n0"
    if "k" in given:        # the multiples criterion calls the twist l
        given["l"] = given.pop("k")
    return "multiples_np_fano"


def _fano_surface_op(given: dict) -> str:
    from .fano import SurfaceProfile

    # the profile's fields are options of their own
    keys = given.keys() & SurfaceProfile.__optional_keys__
    given["profile"] = {key: given.pop(key) for key in keys}
    return "multiples_np_surface"


def _cmd_example(args) -> tuple[int, dict | list[str]]:
    from .families import FAMILY_SWEEPS, sweep_family

    if args.action == "list":
        table = {fid: list(sweep) for fid, sweep in FAMILY_SWEEPS.items()}
        return 0, {"op": "example_list", "verdict": table,
                   "justification": "family table"}
    params = _parse_params(args.param)
    if args.action == "show":
        return 0, _eval("build_example", id=args.id, params=params)

    if not args.sweep:
        payload = _eval("verify_example", id=args.id, params=params,
                        strict=False)
        return (0 if payload["verdict"]["passed"] else 1), payload
    if params is not None:
        raise api.ApiError("--sweep verifies the whole parameter range; "
                           "drop --param or --sweep")
    instances = [report.to_json() for report in sweep_family(args.id)]
    code = 0 if all(inst["passed"] for inst in instances) else 1
    if args.json:
        return code, {"op": "example_sweep", "family": args.id,
                      "verdict": instances,
                      "justification": "family verification"}
    lines = []
    for inst in instances:
        name = _instance_name(inst["family"], inst["params"])
        if inst["passed"]:
            np_v = inst["np_verdict"]
            lines.append(f"ok   {name}: {_status(np_v)} "
                         f"[{np_v['justification']}]")
        else:
            lines.append(f"FAIL {name}: {inst['failures'][0]}")
    verdict = "all passed" if code == 0 else "FAILURES above"
    return code, [*lines, f"{len(instances)} instance(s): {verdict}"]


def _cmd_oracle(args) -> tuple[int, dict]:
    if (args.family_id is None) == (args.divisor is None):
        raise api.ApiError("give exactly one of --id FAMILY or --divisor FILE")
    if args.family_id is not None:
        from .families import build_example

        divisor = build_example(args.family_id,
                                _parse_params(args.param)).A.to_json()
    elif args.param:
        raise api.ApiError("--param sets family parameters; it needs --id "
                           "FAMILY, not --divisor FILE")
    else:
        divisor, _ = _load_divisor_file(args.divisor)
    return 0, _eval("ample_oracle", divisor=divisor, box=args.box)


def _cmd_selftest(args) -> tuple[int, dict | list[str]]:
    from .selftest import run_all

    results = run_all()
    code = 0 if all(r.passed for r in results) else 1
    if args.json:
        return code, {"op": "selftest",
                      "verdict": [{"name": r.name, "passed": r.passed,
                                   "detail": r.detail,
                                   "seconds": round(r.seconds, 2)}
                                  for r in results],
                      "passed": code == 0,
                      "justification": "hermetic check suite"}
    lines = [f"[{'ok  ' if r.passed else 'FAIL'}] {r.name}: {r.detail} "
             f"({r.seconds:.2f}s)" for r in results]
    total = sum(r.seconds for r in results)
    good = sum(1 for r in results if r.passed)
    return code, [*lines, f"{good}/{len(results)} checks passed in "
                  f"{total:.2f}s"]


# --- parser ----------------------------------------------------------------


class _BoxHelp(str):
    """``oracle --box`` help; argparse fills it in with ``%`` only when it
    prints help, so ``families`` is imported only then."""

    def __mod__(self, params):
        from .families import DEFAULT_BOX

        return f"{self} (default {DEFAULT_BOX})"


def _add_table(subs, name: str, op, help: str) -> argparse.ArgumentParser:
    """Add a table subcommand calling ``op``, or the op that ``op`` picks from
    the options given; the parser keeps only those, each under its op's JSON
    argument name."""
    parser = subs.add_parser(name, help=help,
                             argument_default=argparse.SUPPRESS)
    parser.set_defaults(handler=_cmd_table, op=op)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npsurf",
        description="Exact syzygy-level decisions for polarized rational "
                    "surfaces and Fano manifolds.")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--eval-file", metavar="FILE",
                        help='evaluate one {"op": ..., "args": ...} request '
                             "from FILE ('-' reads stdin) and print JSON")
    sub = parser.add_subparsers(dest="command")

    c = sub.add_parser("classify", help="syzygy level of a polarization")
    c.set_defaults(handler=_cmd_classify)
    c.add_argument("--surface", metavar="FILE",
                   help="flat JSON file: lattice keys, coeffs, optional flags")
    c.add_argument("--t", type=_int_option, help="anticanonical degree -K.L")
    c.add_argument("--p", default="auto",
                   help="level to query, or 'auto' for the criterion's level")
    for name in _FLAGS:
        c.add_argument(f"--{name}", action="store_true")
    c.add_argument("--check-bpf", action="store_true",
                   help="run the base-point-freeness test instead")
    c.add_argument("--curve-genus", type=_int_option)
    c.add_argument("--curve-degree", type=_int_option)

    b = _add_table(sub, "bounds", _bounds_op,
                   "degree and summand-count bounds")
    b.add_argument("--k2", type=_int_option, required=True, dest="ksq")
    b.add_argument("--p", type=_int_option)
    b.add_argument("--L2", type=_int_option, dest="Lsq")
    b.add_argument("--e", type=_int_option)
    b.add_argument("--exclude", action="append", metavar="TAG")
    b.add_argument("--summand", metavar="TAG")
    b.add_argument("--conic", action="store_true", dest="conic_fibration",
                   help="the adjoint maps onto a pencil of conics")
    b.add_argument("--multiple", action="store_true",
                   dest="multiple_of_minus_k",
                   help="the bundle is a multiple of the anticanonical class")
    b.add_argument("--adjoint-effective", action="store_true")

    a = _add_table(sub, "adjoint", _adjoint_op,
                   "very-ampleness of canonical-plus-ample bundles")
    a.add_argument("--k2", type=_int_option, required=True, dest="ksq")
    a.add_argument("--summands", metavar="TAG[,TAG...]", type=_tags,
                   help="shape tags of the ample summands")
    a.add_argument("--equivalence", action="store_true",
                   help="report the ampleness/very-ampleness/syzygy "
                        "equivalence for this K^2 instead")
    a.add_argument("--summand")
    a.add_argument("--e", type=_int_option)

    r = _add_table(sub, "reider", "reider_np",
                   "quadratic and degree gates for N_p")
    r.add_argument("--k2", type=_int_option, required=True, dest="ksq")
    r.add_argument("--L2", type=_int_option, required=True, dest="Lsq")
    r.add_argument("--p", type=_int_option, required=True)
    r.add_argument("--minus-k-dot-L", type=_int_option, dest="minus_k_dot_L")
    r.add_argument("--cond1", action="store_true", dest="cond1_attested",
                   help="attest L.C >= 3 on every curve and L^2 >= 10")
    r.add_argument("--adjoint-va", action="store_true",
                   dest="adjoint_very_ample", help="attest K + L very ample")
    r.add_argument("--multiple", action="store_true",
                   dest="multiple_of_minus_k")

    t = _add_table(sub, "terminate", "ampleness_termination",
                   "twist threshold where the adjoint bundle stops "
                   "being ample")
    t.add_argument("--k2", type=_int_option, required=True, dest="ksq")
    t.add_argument("--p", type=_int_option, required=True)
    t.add_argument("--e", type=_int_option)
    t.add_argument("--not-multiple", action="store_false",
                   dest="multiple_of_minus_k",
                   help="the polarization is not a multiple of -K")
    t.add_argument("--np-sharp", action="store_true",
                   dest="np_sharp_attested",
                   help="attest that p is the exact syzygy level")

    ex = sub.add_parser("example",
                        help="reference families: build, verify, sweep")
    ex.set_defaults(handler=_cmd_example)
    exs = ex.add_subparsers(dest="action", required=True)
    ev = exs.add_parser("verify", help="recompute and cross-check claims")
    ev.add_argument("id")
    ev.add_argument("--param", action="append", default=[], metavar="K=V")
    ev.add_argument("--sweep", action="store_true",
                    help="verify the whole parameter range")
    es = exs.add_parser("show", help="print one instance's data")
    es.add_argument("id")
    es.add_argument("--param", action="append", default=[], metavar="K=V")
    exs.add_parser("list", help="list families and parameter ranges")

    f = sub.add_parser("fano", help="Fano n-fold criteria")
    fs = f.add_subparsers(dest="action", required=True)
    fc = _add_table(fs, "classify", _fano_classify_op,
                    "classify (X, H) or a twist of it")
    fc.add_argument("--n", type=_int_option, required=True, help="dimension")
    fc.add_argument("--index", type=_int_option, required=True, dest="m")
    fc.add_argument("--deg", type=_int_option, required=True, dest="Hn",
                    help="top self-intersection H^n")
    fc.add_argument("--h0", type=_int_option, dest="h0H",
                    help="section count of H")
    fc.add_argument("--morphism", choices=criteria.MORPHISM_KINDS)
    fc.add_argument("--k", type=_int_option, help="twist kH to classify")
    fc.add_argument("--p", type=_int_option, help="syzygy level to test")
    fp = _add_table(fs, "surface", _fano_surface_op,
                    "multiples on an anticanonical surface")
    fp.add_argument("--minus-k-dot-b", type=_int_option, required=True,
                    dest="minusK_dot_B")
    fp.add_argument("--l", type=_int_option, required=True, help="multiple lB")
    fp.add_argument("--p", type=_int_option, required=True)
    fp.add_argument("--p2-o1", action="store_true", dest="is_P2_O1",
                    help="B is the plane with its line bundle")
    ft = _add_table(fs, "twist", "projective_space_twist_max_np",
                    "pinned projective-space twists")
    ft.add_argument("--dim", type=_int_option, required=True)
    ft.add_argument("--k", type=_int_option, required=True)

    o = sub.add_parser("oracle", help="exhaustive ampleness search")
    o.set_defaults(handler=_cmd_oracle)
    o.add_argument("--id", dest="family_id", help="family id")
    o.add_argument("--param", action="append", default=[], metavar="K=V")
    o.add_argument("--divisor", metavar="FILE",
                   help="flat divisor JSON file to test instead")
    o.add_argument("--box", type=_int_option,
                   help=_BoxHelp("search box"))

    st = sub.add_parser("selftest", help="run the hermetic check suite")
    st.set_defaults(handler=_cmd_selftest)
    return parser


def _cmd_eval_file(args) -> tuple[int, dict]:
    if args.command is not None:
        raise api.ApiError("--eval-file evaluates its request alone; drop "
                           f"the {args.command} subcommand")
    if args.eval_file == "-":
        request = _read_json(sys.stdin, "stdin")
    else:
        with open(args.eval_file) as fh:
            request = _read_json(fh, args.eval_file)
    return 0, api.evaluate(request)


# a refusal echoes its input: an unknown op, key or tag is quoted whole
_REFUSAL_CHARS = 1000


def _refuse(label: str, exc: Exception, code: int) -> int:
    """Write ``npsurf: <label>: <message>`` to stderr, the message cut to
    ``_REFUSAL_CHARS`` characters; returns ``code``."""
    message = str(exc)
    cut = len(message) - _REFUSAL_CHARS
    if cut > 0:
        message = f"{message[:_REFUSAL_CHARS]}... ({cut} characters cut)"
    print(f"npsurf: {label}: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.eval_file is not None:
        args.handler, args.json = _cmd_eval_file, True
    elif args.command is None:
        parser.print_usage(sys.stderr)
        print("npsurf: error: a subcommand (or --eval-file) is required",
              file=sys.stderr)
        return 2

    try:
        code, payload = args.handler(args)
        # an answer with an integer too long for str() is a refusal too
        text = _render(payload, args.json)
    except (ValueError, OSError) as exc:
        return _refuse("error", exc, 2)
    except Exception as exc:
        # the other refusals are families' own, so it is loaded already
        from . import families

        if isinstance(exc, families.VerificationError):
            return _refuse("verification failed", exc, 1)
        if not isinstance(exc, (families.OracleNotApplicable,
                                families.CertificateRefused)):
            raise
        return _refuse("not applicable", exc, 2)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left, and the flush at
        # exit, to the null device instead of reporting an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
