"""The JSON boundary: the op table, strict argument typing, and a fuzz."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npsurf.criteria
import npsurf.lattice
from npsurf import api, cli
from npsurf.criteria import (
    CriteriaError,
    adjoint_np_min_n,
    ampleness_termination,
    min_kA_bound,
    thm_121_equivalence,
)
from npsurf.families import (
    DEFAULT_BOX,
    FAMILY_IDS,
    CertificateRefused,
    OracleBoxError,
    OracleNotApplicable,
    build_example,
)
from npsurf.lattice import (
    CONFIG_FLAGS,
    MAX_POINTS,
    DivisorClass,
    LatticeError,
    PointConfig,
    SurfaceModel,
)

# (required, optional) argument names of every op, as the JSON API has
# accepted them since the first release
OP_ARGS = {
    "intersect": (("d1", "d2"), ()),
    "canonical_class": (("surface",), ()),
    "k_squared": (("surface",), ()),
    "euler_characteristic": (("divisor",), ()),
    "sectional_genus": (("divisor",), ()),
    "hodge_index_bound": (("a", "b"), ()),
    "signature": (("surface",), ()),
    "blow_up": (("surface", "count", "config"), ()),
    "np_classify": (("flags",), ("divisor", "t")),
    "bpf_check": (("divisor", "flags"), ()),
    "adjoint_very_ample": (("ksq", "summands"), ()),
    "min_kA_bound": (("ksq",), ("summand", "e", "conic_fibration")),
    "adjoint_np_min_n": (("ksq", "p"), ("e", "exclude")),
    "reider_np": (("ksq", "Lsq", "p"),
                  ("minus_k_dot_L", "cond1_attested", "adjoint_very_ample",
                   "multiple_of_minus_k")),
    "lemma_125_bound": (("ksq", "Lsq", "p"),
                        ("multiple_of_minus_k", "adjoint_effective")),
    "verify_inequality_chain": (("p", "m", "ksq"), ()),
    "ampleness_termination": (("ksq", "p"),
                              ("e", "multiple_of_minus_k",
                               "np_sharp_attested")),
    "thm_121_equivalence": (("ksq",), ("summand", "e")),
    "curve_np_reference": (("genus", "degree"), ()),
    "build_example": (("id",), ("params",)),
    "nakai_certificate": (("id",), ("params",)),
    "ample_oracle": (("divisor",), ("box",)),
    "verify_example": (("id",), ("params", "strict")),
    "primitive_np": (("n", "m", "Hn"), ("h0H", "morphism")),
    "multiples_np_surface": (("profile", "l", "p"), ()),
    "multiples_np_fano": (("n", "m", "Hn", "l", "p"), ("h0H", "morphism")),
    "index_nm3_n0": (("n", "m", "Hn", "k"), ("h0H", "morphism")),
    "index_nm3_np": (("n", "m", "Hn", "k", "p"), ("h0H", "morphism")),
    "projective_space_twist_max_np": (("dim", "k"), ()),
}

PLANE_DIVISOR = {"kind": "P2", "coeffs": [2]}


def test_derived_op_table_matches_the_pinned_argument_names():
    assert sorted(OP_ARGS) == list(api.OPERATIONS)
    for op, (required, optional) in OP_ARGS.items():
        call = api._call(op)
        assert set(call.required) == set(required), op
        assert call.names - set(call.required) == set(optional), op


def test_responses_name_the_verdict_kind():
    cases = [
        ({"op": "np_classify", "args": {"t": 7, "flags": {
            "ample": True, "anticanonical": True}}}, "NpVerdict"),
        ({"op": "reider_np", "args": {"ksq": 3, "Lsq": 24, "p": 2,
                                      "cond1_attested": True}},
         "BoolVerdict"),
        ({"op": "adjoint_np_min_n", "args": {"ksq": 1, "p": 0}},
         "MinNResult"),
        ({"op": "k_squared", "args": {"surface": {"kind": "P2"}}}, "value"),
        ({"op": "signature", "args": {"surface": {"kind": "P2"}}}, "value"),
        ({"op": "canonical_class", "args": {"surface": {"kind": "P2"}}},
         "DivisorClass"),
        ({"op": "lemma_125_bound", "args": {
            "ksq": 3, "Lsq": 24, "p": 2, "adjoint_effective": True}},
         "value"),
        ({"op": "ample_oracle", "args": {"divisor": PLANE_DIVISOR}},
         "OracleResult"),
        ({"op": "verify_example", "args": {"id": "1.17",
                                           "params": {"l": 4}}},
         "VerifyReport"),
        ({"op": "build_example", "args": {"id": "1.17",
                                          "params": {"l": 4}}},
         "ExampleFamily"),
    ]
    for request, kind in cases:
        out = api.evaluate(request)
        assert out["kind"] == kind, request["op"]
        assert set(out) == {"op", "kind", "verdict", "justification"}


def test_evaluate_calls_the_library_function_bound_at_call_time(monkeypatch):
    seen = []
    real = npsurf.criteria.reider_np

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(npsurf.criteria, "reider_np", spy)
    out = api.evaluate({"op": "reider_np", "args": {
        "ksq": 3, "Lsq": 24, "p": 2, "cond1_attested": True}})
    assert out["verdict"]["value"] is True
    assert seen == [{"ksq": 3, "Lsq": 24, "p": 2, "cond1_attested": True}]


def test_evaluate_parses_divisors_through_the_current_from_json(monkeypatch):
    parsed = []
    real = npsurf.lattice.DivisorClass.from_json

    def spy(obj):
        parsed.append(obj)
        return real(obj)

    monkeypatch.setattr(npsurf.lattice.DivisorClass, "from_json",
                        staticmethod(spy))
    api.evaluate({"op": "euler_characteristic",
                  "args": {"divisor": PLANE_DIVISOR}})
    assert parsed == [PLANE_DIVISOR]


# --- regressions: each request used to be coerced or to crash --------------

REIDER = {"ksq": 3, "Lsq": 24, "p": 2}
BAD_REQUESTS = {
    "string attests a hypothesis": {"op": "reider_np", "args": {
        **REIDER, "cond1_attested": "false"}},
    "integer for a boolean": {"op": "reider_np", "args": {
        **REIDER, "cond1_attested": 1}},
    "float ksq": {"op": "adjoint_np_min_n", "args": {"ksq": 2.7, "p": 0}},
    "boolean for an integer": {"op": "adjoint_np_min_n", "args": {
        "ksq": True, "p": 0}},
    "float coefficient": {"op": "euler_characteristic", "args": {
        "divisor": {"kind": "P2", "coeffs": [2.5]}}},
    "args not an object": {"op": "k_squared", "args": [1]},
    "op not a string": {"op": ["k_squared"], "args": {}},
    "surface without kind": {"op": "k_squared", "args": {"surface": {}}},
    "string config flag": {"op": "blow_up", "args": {
        "surface": {"kind": "P2"}, "count": 2,
        "config": {"general_position": "false"}}},
    "string flag value": {"op": "np_classify", "args": {
        "t": 7, "flags": {"ample": "yes"}}},
    "summands not an array": {"op": "adjoint_very_ample", "args": {
        "ksq": 5, "summands": "minus_k"}},
    "unhashable exclusion": {"op": "adjoint_np_min_n", "args": {
        "ksq": 3, "p": 0, "exclude": [["minus_k"]]}},
    "string family parameter": {"op": "build_example", "args": {
        "id": "1.17", "params": {"l": "4"}}},
    "string profile degree": {"op": "multiples_np_surface", "args": {
        "profile": {"minusK_dot_B": "4"}, "l": 3, "p": 3}},
    "null morphism": {"op": "primitive_np", "args": {
        "n": 3, "m": 2, "Hn": 8, "morphism": None}},
    "blow-up above the point bound": {"op": "k_squared", "args": {
        "surface": {"kind": "P2", "l": MAX_POINTS + 1, "config": {}}}},
}


@pytest.mark.parametrize("name", sorted(BAD_REQUESTS))
def test_bad_request_is_refused(name, tmp_path, capsys):
    request = BAD_REQUESTS[name]
    with pytest.raises(api.ApiError):
        api.evaluate(request)
    path = tmp_path / "req.json"
    path.write_text(json.dumps(request))
    code = cli.main(["--eval-file", str(path)])
    _, err = capsys.readouterr()
    assert code == 2 and "error" in err and "Traceback" not in err


# a divisor of the attested family 1.13: no model, but its box is checked
ATTESTED_DIVISOR = build_example("1.13", {"l": 3}).A.to_json()


@pytest.mark.parametrize("request_", [
    {"op": "ample_oracle", "args": {"divisor": PLANE_DIVISOR, "box": 1001}},
    {"op": "ample_oracle", "args": {"divisor": ATTESTED_DIVISOR,
                                    "box": 1001}},
], ids=["ample_oracle", "ample_oracle-attested"])
def test_oracle_box_above_the_cap_is_refused(request_, tmp_path, capsys):
    box = request_["args"]["box"]
    message = f"box must be <= 1000, got {box}"
    with pytest.raises(OracleBoxError, match=f"^{message}$"):
        api.evaluate(request_)
    path = tmp_path / "req.json"
    path.write_text(json.dumps(request_))
    assert cli.main(["--eval-file", str(path)]) == 2
    assert capsys.readouterr() == ("", f"npsurf: error: {message}\n")


def test_oracle_box_at_the_cap_is_searched(capsys):
    out = api.evaluate({"op": "ample_oracle",
                        "args": {"divisor": PLANE_DIVISOR, "box": 1000}})
    assert out["verdict"]["candidates"] == 1000
    code = cli.main(["--json", "oracle", "--id", "1.11", "--box", "1000"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"]["box"] == 1000
    code = cli.main(["oracle", "--id", "1.11", "--box", "1001"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "npsurf: error: box must be <= 1000, got 1001\n")


def test_verification_always_searches_the_default_box(capsys):
    out = api.evaluate({"op": "verify_example", "args": {"id": "1.11"}})
    assert out["verdict"]["oracle"]["box"] == DEFAULT_BOX
    with pytest.raises(api.ApiError, match=r"^unknown args: \['box'\]$"):
        api.evaluate({"op": "verify_example",
                      "args": {"id": "1.11", "box": 40}})
    with pytest.raises(SystemExit) as exit_:
        cli.main(["example", "verify", "1.11", "--box", "40"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --box 40" in capsys.readouterr().err


def test_negative_hirzebruch_invariant_is_a_domain_error(capsys):
    for call in (lambda: adjoint_np_min_n(8, 0, e=-4),
                 lambda: min_kA_bound(8, e=-9),
                 lambda: thm_121_equivalence(8, e=-3),
                 lambda: ampleness_termination(8, 3, e=-1,
                                               np_sharp_attested=True)):
        with pytest.raises(CriteriaError, match="e must be >= 0"):
            call()
    with pytest.raises(CriteriaError):
        api.evaluate({"op": "adjoint_np_min_n",
                      "args": {"ksq": 8, "p": 0, "e": -4}})
    code = cli.main(["bounds", "--k2", "8", "--p", "0", "--e", "-4"])
    _, err = capsys.readouterr()
    assert code == 2 and "e must be >= 0" in err and "Traceback" not in err


def test_lattice_json_parsing_is_strict():
    with pytest.raises(LatticeError):
        PointConfig.from_json({"general_position": "false"})
    assert PointConfig.from_json({"general_position": False}) == PointConfig()
    with pytest.raises(LatticeError):
        SurfaceModel.from_json({})
    with pytest.raises(LatticeError):
        SurfaceModel.from_json({"kind": "Fe", "e": 1.0})
    for coeffs in ([2.5], [True], "2", [[2]]):
        with pytest.raises(LatticeError):
            DivisorClass.from_json({"kind": "P2", "coeffs": coeffs})


def test_divisor_file_with_float_coefficient_exits_two(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"kind": "P2", "coeffs": [2.5],
                             "flags": {"ample": True,
                                       "anticanonical": True}}))
    code = cli.main(["classify", "--surface", str(f)])
    _, err = capsys.readouterr()
    assert code == 2 and "coeffs" in err


def test_blow_up_above_the_point_bound_exits_two(tmp_path, capsys):
    message = f"cannot blow up more than {MAX_POINTS} points, got {MAX_POINTS + 1}"
    request = {"op": "blow_up", "args": {
        "surface": {"kind": "P2"}, "count": MAX_POINTS + 1, "config": {}}}
    with pytest.raises(LatticeError, match=message):
        api.evaluate(request)
    path = tmp_path / "req.json"
    path.write_text(json.dumps(request))
    assert cli.main(["--eval-file", str(path)]) == 2
    assert capsys.readouterr() == ("", f"npsurf: error: {message}\n")
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"kind": "P2", "l": MAX_POINTS + 1, "config": {},
                             "coeffs": [3] + [-1] * (MAX_POINTS + 1),
                             "flags": {"ample": True,
                                       "anticanonical": True}}))
    code = cli.main(["classify", "--surface", str(f)])
    _, err = capsys.readouterr()
    assert code == 2 and message in err and "Traceback" not in err


# --- the answers, pinned ---------------------------------------------------

P2 = {"kind": "P2"}
F1 = {"kind": "Fe", "e": 1}
CUBIC6 = {"general_position": True, "on_smooth_anticanonical": True}
# a blow-up of P2 at six flagged points and one of F_2 at three unflagged
DP3 = {**P2, "l": 6, "config": CUBIC6}
F2_3 = {"kind": "Fe", "e": 2, "l": 3, "config": {}}
ANTI = {"ample": True, "anticanonical": True}
FANO = {"n": 3, "m": 2, "Hn": 8}
NM3 = {"n": 5, "m": 2, "Hn": 2}
# one request list over all 29 ops; each optional verdict field is both set
# and left unset by some answer
PINNED_REQUESTS = [
    ("intersect", {"d1": {**DP3, "coeffs": [3] + [-1] * 6},
                   "d2": {**DP3, "coeffs": [1, -1, 0, 0, 0, 0, 0]}}),
    *[(op, {"surface": s}) for op in ("canonical_class", "k_squared",
                                      "signature")
      for s in (P2, F1, DP3, F2_3, {**P2, "l": 0, "config": {}})],
    ("euler_characteristic", {"divisor": {**F2_3, "coeffs": [2, 5, -1, -1,
                                                             -2]}}),
    ("sectional_genus", {"divisor": {**DP3, "coeffs": [6] + [-2] * 6}}),
    ("hodge_index_bound", {"a": {**P2, "coeffs": [2]},
                           "b": {**P2, "coeffs": [-5]}}),
    *[("blow_up", {"surface": s, "count": n, "config": c})
      for s, n, c in ((P2, 6, CUBIC6), (P2, 0, {}), (F1, 3, {}),
                      (F1, 2, {"distinct_fibers": True,
                               "away_from_min_section": True}),
                      ({"kind": "Fe", "e": 0}, 1,
                       {"general_position": False}))],
    # NpVerdict: ExactMax (p, assumed), NotN0 (assumed, reason), AtLeast
    # (p, assumed), NotApplicable (reason), AtLeast with nothing assumed
    ("np_classify", {"t": 7, "flags": ANTI}),
    ("np_classify", {"t": 2, "flags": ANTI}),
    ("np_classify", {"t": 5, "flags": {"ample": True, "bpf": True}}),
    ("np_classify", {"t": 5, "flags": {"ample": True}}),
    ("np_classify", {"divisor": {**DP3, "coeffs": [3] + [-1] * 6},
                     "flags": ANTI}),
    ("curve_np_reference", {"genus": 2, "degree": 9}),
    ("curve_np_reference", {"genus": 1, "degree": 2}),
    ("curve_np_reference", {"genus": 1, "degree": 0}),
    # BoolVerdict with and without a reason
    ("bpf_check", {"divisor": {**DP3, "coeffs": [3] + [-1] * 6},
                   "flags": {"nef": True, "anticanonical": True}}),
    ("bpf_check", {"divisor": {**DP3, "coeffs": [1, -1, -1, 0, 0, 0, 0]},
                   "flags": {"nef": True, "anticanonical": True}}),
    ("reider_np", {"ksq": 3, "Lsq": 26, "p": 2, "cond1_attested": True}),
    ("reider_np", {"ksq": 1, "Lsq": 24, "p": 2, "adjoint_very_ample": True,
                   "multiple_of_minus_k": True}),
    ("reider_np", {"ksq": -2, "Lsq": 0, "p": 1, "minus_k_dot_L": 3,
                   "cond1_attested": True}),
    ("adjoint_very_ample", {"ksq": 1, "summands": ["minus_k", "minus_2k"]}),
    ("adjoint_very_ample", {"ksq": 8, "summands": ["other"]}),
    ("min_kA_bound", {"ksq": 2, "summand": "minus_2k"}),
    ("min_kA_bound", {"ksq": 8, "e": 3}),
    ("min_kA_bound", {"ksq": 5, "conic_fibration": True}),
    ("adjoint_np_min_n", {"ksq": 3, "p": 4, "exclude": ["minus_k",
                                                         "conic_fibration"]}),
    ("adjoint_np_min_n", {"ksq": 8, "p": 2, "e": 1}),
    ("lemma_125_bound", {"ksq": 3, "Lsq": 24, "p": 2,
                         "adjoint_effective": True}),
    ("lemma_125_bound", {"ksq": 3, "Lsq": 10, "p": 2,
                         "adjoint_effective": True}),
    ("verify_inequality_chain", {"p": 2, "m": 4, "ksq": 5}),
    ("ampleness_termination", {"ksq": 4, "p": 3, "np_sharp_attested": True,
                               "multiple_of_minus_k": False}),
    ("ampleness_termination", {"ksq": -3, "p": 2, "np_sharp_attested": True}),
    ("thm_121_equivalence", {"ksq": 5, "summand": "minus_k"}),
    ("thm_121_equivalence", {"ksq": 2, "summand": "minus_k"}),
    ("build_example", {"id": "1.17", "params": {"l": 4}}),
    ("build_example", {"id": "1.13", "params": {"l": 3}}),
    ("nakai_certificate", {"id": "1.17", "params": {"l": 4}}),
    ("nakai_certificate", {"id": "1.11"}),
    ("ample_oracle", {"divisor": {**P2, "coeffs": [2]}}),
    ("ample_oracle", {"divisor": {"kind": "Fe", "e": 2, "coeffs": [1, 3]},
                      "box": 8}),
    ("verify_example", {"id": "1.17", "params": {"l": 4}}),
    ("verify_example", {"id": "1.13", "params": {"l": 3}}),
    ("primitive_np", FANO),
    ("primitive_np", {"n": 4, "m": 3, "Hn": 2, "h0H": 6,
                      "morphism": "neither_of_those"}),
    ("multiples_np_surface", {"profile": {"minusK_dot_B": 4}, "l": 3, "p": 2}),
    ("multiples_np_surface", {"profile": {"minusK_dot_B": 3}, "l": 3, "p": 2}),
    ("multiples_np_fano", {**FANO, "l": 2, "p": 3}),
    # FanoN0Decision with ``needed`` non-empty, then empty
    ("index_nm3_n0", {**NM3, "k": 3}),
    ("index_nm3_n0", {**NM3, "k": 2, "morphism": "neither_of_those"}),
    ("index_nm3_np", {**NM3, "h0H": 7, "k": 4, "p": 2}),
    ("index_nm3_np", {**NM3, "h0H": 6, "k": 4, "p": 2}),
    # the pin primitive_np derives, then one looked up
    ("projective_space_twist_max_np", {"dim": 3, "k": 2}),
    ("projective_space_twist_max_np", {"dim": 4, "k": 2}),
]
PINNED_ANSWERS = (
    "660ddd32f420e9a9da5c3cba7304887de6cfd1128c41a04bb42628661a379ef2")


def test_pinned_requests_cover_every_op():
    assert {op for op, _ in PINNED_REQUESTS} == set(api.OPERATIONS)


def test_value_and_verdict_types_share_one_json_rule():
    from npsurf import criteria, families, fano, lattice

    shared = (lattice.PointConfig, lattice.SurfaceModel, criteria.NpVerdict,
              criteria.BoolVerdict, criteria.VAVerdict,
              criteria.MinusKBoundReport, criteria.MinNResult,
              criteria.EquivalenceReport, fano.FanoInput,
              fano.FanoN0Decision, families.OracleResult,
              families.CurveCaseCheck, families.ClaimResult)
    for cls in shared:
        assert cls.to_json is lattice.fields_json, cls.__name__
    # no op answers with a FanoInput, so its form is checked here: fields
    # in order, each left out while it holds its declared default
    assert fano.FanoInput(3, 2, 8).to_json() == {"n": 3, "m": 2, "Hn": 8}
    profile = fano.FanoInput(4, 1, 2, h0H=0, morphism="neither_of_those")
    assert list(profile.to_json().items()) == [
        ("n", 4), ("m", 1), ("Hn", 2), ("h0H", 0),
        ("morphism", "neither_of_those")]


def test_api_answers_are_pinned():
    digest = hashlib.sha256()
    for op, args in PINNED_REQUESTS:
        answer = api.evaluate({"op": op, "args": args})
        digest.update(json.dumps(answer, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == PINNED_ANSWERS


# --- fuzz ------------------------------------------------------------------

# this op searches the default box of a family instance; a fuzzed
# ample_oracle request searches at most a box of 12, which is cheap
SEARCH_OPS = {"verify_example"}
NON_SEARCH_OPS = sorted(set(api.OPERATIONS) - SEARCH_OPS)

WORDS = ("P2", "Fe", "ample", "anticanonical", "bpf", "nef", "minus_k",
         "minus_2k", "other", "conic_fibration", "unknown",
         "two_to_one_onto_pn", "x") + FAMILY_IDS
KEYS = ("kind", "e", "l", "n", "config", "coeffs", "ample", "anticanonical",
        "bpf", "nef", "minusK_dot_B", "is_P2_O1", "x") + CONFIG_FLAGS
small = st.integers(-3, 12)
scalars = st.one_of(st.none(), st.booleans(), small,
                    st.floats(-3, 12, allow_nan=False), st.sampled_from(WORDS))
# anything JSON can carry, mostly of the wrong shape for a given argument
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=10)
configs = st.dictionaries(st.sampled_from(CONFIG_FLAGS), st.booleans())
surfaces = st.fixed_dictionaries(
    {"kind": st.sampled_from(("P2", "Fe"))},
    optional={"e": small, "l": st.integers(0, 9), "config": configs})
divisors = st.builds(lambda s, c: {**s, "coeffs": c}, surfaces,
                     st.lists(small, min_size=1, max_size=11))
# values of the right JSON shape for each argument name
WELL_TYPED = {
    **dict.fromkeys(("d1", "d2", "a", "b", "divisor"), divisors),
    "surface": surfaces,
    "config": configs,
    "flags": st.dictionaries(st.sampled_from(
        ("ample", "anticanonical", "bpf", "nef")), st.booleans()),
    **dict.fromkeys(("summands", "exclude"),
                    st.lists(st.sampled_from(WORDS), max_size=4)),
    **dict.fromkeys(("summand", "morphism", "id"), st.sampled_from(WORDS)),
    "params": st.dictionaries(st.sampled_from(("e", "n", "l")), small,
                              max_size=2),
    "profile": st.fixed_dictionaries({"minusK_dot_B": small},
                                     optional={"is_P2_O1": st.booleans()}),
    **dict.fromkeys(("cond1_attested", "adjoint_very_ample",
                     "multiple_of_minus_k", "adjoint_effective",
                     "np_sharp_attested", "conic_fibration"), st.booleans()),
}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fuzz_evaluate_answers_in_json_or_refuses(data):
    op = data.draw(st.sampled_from(NON_SEARCH_OPS), label="op")
    call = api._call(op)
    keys = [k for k in sorted(call.names)
            if data.draw(st.integers(0, 9), label=f"omit {k}?") > 1]
    if data.draw(st.booleans(), label="unknown key?"):
        keys.append("bogus")
    args = {}
    for k in keys:
        well_typed = WELL_TYPED.get(k, small)
        wrong = data.draw(st.integers(0, 5), label=f"wrong {k}?") == 0
        args[k] = data.draw(values if wrong else well_typed, label=k)
    # the CLI answers each of these refusals with exit 2
    refusals = (ValueError, CertificateRefused) + (
        (OracleNotApplicable,) if op == "ample_oracle" else ())
    try:
        out = api.evaluate({"op": op, "args": args})
    except refusals:
        return
    json.dumps(out)
    assert out["op"] == op and out["kind"]


def _outcome(request) -> str:
    """The answer to a request, or the type and message of its refusal, as
    type-exact JSON text (``1 == True`` in Python, not in JSON)."""
    try:
        return json.dumps(api.evaluate(request), sort_keys=True)
    except Exception as exc:
        return json.dumps([type(exc).__name__, str(exc)])


def _equal_hashing_twin(value):
    """``value`` with each integer ``e``/``l`` and each boolean config flag
    given in another JSON type that Python holds equal and hashes alike."""
    if type(value) is list:
        return [_equal_hashing_twin(v) for v in value]
    if type(value) is not dict:
        return value
    twin = {}
    for key, v in value.items():
        if key in ("e", "l") and type(v) is int:
            v = bool(v) if v in (0, 1) else float(v)
        elif key in CONFIG_FLAGS and type(v) is bool:
            v = int(v)
        twin[key] = _equal_hashing_twin(v)
    return twin


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzz_answers_the_same_with_a_cold_and_a_warm_surface_cache(data):
    requests = []
    for _ in range(3):
        op = data.draw(st.sampled_from(NON_SEARCH_OPS), label="op")
        args = {}
        for k in sorted(api._call(op).names):
            wrong = data.draw(st.integers(0, 5), label=f"wrong {k}?") == 0
            args[k] = data.draw(values if wrong else WELL_TYPED.get(k, small),
                                label=k)
        request = {"op": op, "args": args}
        # each twin follows its request, which may have kept its surfaces
        requests += [request, _equal_hashing_twin(request)]
    cold = []
    for request in requests:
        npsurf.lattice._SURFACES.clear()
        cold.append(_outcome(request))
    # the first warm pass keeps surfaces as it goes, the second finds all
    assert [_outcome(r) for r in requests] == cold
    assert [_outcome(r) for r in requests] == cold
