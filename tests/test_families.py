"""Reference families: construction, certificates, oracle, verification."""

import ast
import dataclasses
import hashlib
import importlib.util
import json
import pathlib
import random
import tracemalloc
from importlib import resources

import pytest

from npsurf import families
from npsurf.families import (
    DEFAULT_BOX,
    FAMILIES,
    FAMILY_IDS,
    FAMILY_SWEEPS,
    CertificateRefused,
    FamilyError,
    OracleBoxError,
    OracleNotApplicable,
    VerificationError,
    ample_oracle,
    build_example,
    fixture_instance,
    mutate_polarization,
    nakai_certificate,
    sweep_family,
    verify_example,
)
from npsurf.lattice import (
    MAX_POINTS,
    PointConfig,
    SurfaceModel,
    blow_up,
    canonical_class,
)

CERTIFIED = ("1.11", "1.12", "1.16", "1.17", "1.18", "1.19", "1.20")
ATTESTED = ("1.13", "1.14", "1.15", "Obs1.4")


# --- construction ----------------------------------------------------------


def test_family_roster_is_closed():
    assert set(CERTIFIED) | set(ATTESTED) == set(FAMILY_IDS)
    assert set(FAMILY_SWEEPS) == set(FAMILY_IDS)


def test_build_validation():
    with pytest.raises(FamilyError):
        build_example("9.99")
    with pytest.raises(FamilyError):
        build_example("1.12", {"q": 1})
    with pytest.raises(FamilyError):
        build_example("1.12")            # e missing
    with pytest.raises(FamilyError):
        build_example("1.12", {"e": 9})  # above stated range
    with pytest.raises(FamilyError):
        build_example("1.13", {"l": 1})
    with pytest.raises(FamilyError):
        build_example("1.19", {"n": -2})   # parity
    with pytest.raises(FamilyError):
        build_example("1.19", {"n": -21})  # range
    with pytest.raises(FamilyError):
        build_example("1.20", {"n": -3})   # parity
    for value in (2.7, True, "3"):         # integers only, never coerced
        with pytest.raises(FamilyError):
            build_example("1.12", {"e": value})


@pytest.mark.parametrize("family_id", [["1.11"], {"1.11": 1}])
def test_an_unhashable_family_id_is_unknown(family_id):
    with pytest.raises(FamilyError, match="unknown family id"):
        build_example(family_id)
    with pytest.raises(FamilyError, match="unknown family id"):
        sweep_family(family_id)
    assert fixture_instance(family_id, "-") is None
    assert fixture_instance("1.11", family_id) is None


def test_instance_keys_and_parameters():
    assert build_example("1.11").instance_key == "-"
    ex = build_example("1.16", {"e": 0, "n": -1})
    assert ex.instance_key == "e=0,n=-1"
    assert dict(ex.params) == {"e": 0, "n": -1}


def test_annotations_only_where_stated():
    ex = build_example("Obs1.4", {"n": 7})
    assert ex.to_json()["annotations"] == {"h0(-K)": 0, "h1(-K)": 1,
                                           "h1(-K - L)": 4}
    assert dict(ex.np_flags)["anticanonical"] is False
    for fid in FAMILY_IDS:
        if fid == "Obs1.4":
            continue
        first = dict(FAMILY_SWEEPS[fid][0])
        assert build_example(fid, first).to_json()["annotations"] == {}


def test_instances_are_built_once_per_row_and_params():
    ex = build_example("1.16", {"e": 0, "n": -1})
    assert build_example("1.16", {"n": -1, "e": 0}) is ex
    assert build_example("1.16", {"e": 1, "n": -1}) is not ex
    assert build_example("1.11") is build_example("1.11", {})
    # a cached success does not let a bad request through
    for params in ({"e": 0, "n": -1, "q": 1},    # unknown
                   {"e": 0},                     # missing
                   {"e": 0, "n": True},          # not an int
                   {"e": 0, "n": -1.0},
                   {"e": 0, "n": 9}):            # out of the domain
        with pytest.raises(FamilyError):
            build_example("1.16", params)
    build_example("1.19", {"n": -1})
    with pytest.raises(FamilyError, match="needs odd negative n"):
        build_example("1.19", {"n": -2})


def test_a_replaced_row_builds_afresh(monkeypatch):
    ex = build_example("1.17", {"l": 3})
    monkeypatch.setitem(FAMILIES, "1.17",
                        dataclasses.replace(FAMILIES["1.17"]))
    fresh = build_example("1.17", {"l": 3})
    assert fresh is not ex and fresh == ex
    monkeypatch.undo()
    assert build_example("1.17", {"l": 3}) is ex


def test_mutation_leaves_the_built_instance_alone():
    ex = build_example("1.20", {"n": -6})
    A, before = ex.A, ex.to_json()
    for i in range(ex.surface.l):
        for delta in (1, -1):
            mut = mutate_polarization(build_example("1.20", {"n": -6}),
                                      i, delta)
            assert mut is not ex and mut.A != A
            nakai_certificate(mut)
            ample_oracle(mut.A)
    again = build_example("1.20", {"n": -6})
    assert again is ex and again.A is A and again.to_json() == before


def test_instance_json_runs_the_claims_function_at_most_once(monkeypatch):
    calls = []

    def counted(D, box=None):
        calls.append(box)
        return ample_oracle(D, box)

    # 1.12's claims run the oracle; its names are read off the instance, and
    # a fresh row holds no instance yet
    monkeypatch.setattr(families, "ample_oracle", counted)
    monkeypatch.setitem(FAMILIES, "1.12",
                        dataclasses.replace(FAMILIES["1.12"]))
    ex = build_example("1.12", {"e": 2})
    first = ex.to_json()
    for _ in range(3):
        assert build_example("1.12", {"e": 2}).to_json() == first
    assert calls == [8]
    assert list(first["claims"]) == list(ex.claims(ex.A))


# --- certificates ----------------------------------------------------------


def test_certificates_exist_exactly_for_certified_families():
    for fid in CERTIFIED:
        ex = build_example(fid, dict(FAMILY_SWEEPS[fid][0]))
        cert = nakai_certificate(ex)
        assert cert.valid and cert.family == fid
    for fid in ATTESTED:
        ex = build_example(fid, dict(FAMILY_SWEEPS[fid][0]))
        with pytest.raises(CertificateRefused) as err:
            nakai_certificate(ex)
        assert err.value.family == fid
        assert err.value.missing == "on_smooth_anticanonical"
        assert "refused" in str(err.value)


def test_certificate_json_and_flip_signature():
    cert = nakai_certificate(build_example("1.17", {"l": 4}))
    obj = cert.to_json()
    assert obj["valid"] is True
    assert obj["self_intersection"] == cert.self_intersection > 0
    assert all(v > 0 for v in obj["exceptional_values"])
    assert all(c["passed"] for c in obj["checks"])
    sig = cert.flip_signature()
    assert sig[0] is True and all(sig[1])


def _cert_json(fid, a2, values, checks, assumptions, valid=True):
    keys = ("case", "worst_case_lhs", "rhs", "passed")
    return {"family": fid, "self_intersection": a2,
            "exceptional_values": values,
            "checks": [dict(zip(keys, c)) for c in checks],
            "assumptions_used": assumptions, "valid": valid}


_ON_C = ["on_smooth_anticanonical", "distinct_fibers"]
_PENCIL = ["complete_intersection_of_cubics"]

# the point-configuration flags each family's model reads; a blow-up at zero
# points has the bare base's model and assumes nothing
_ASSUMED = {
    "1.11": (),
    "1.12": (),
    "1.16": ("on_smooth_anticanonical", "distinct_fibers"),
    "1.17": ("on_smooth_anticanonical", "away_from_min_section"),
    "1.18": ("complete_intersection_of_cubics",),
    "1.19": ("on_smooth_anticanonical", "distinct_fibers"),
    "1.20": ("on_smooth_anticanonical", "distinct_fibers"),
}


def test_certificate_pins_every_body():
    pins = [
        (("1.11", {}), _cert_json(
            "1.11", 1, [], [("ProperIntersection(1)", 0, 1, True)], [])),
        (("1.12", {"e": 1}), _cert_json(
            "1.12", 3, [], [("FiberSpecial(C0)", 0, 1, True),
                            ("FiberSpecial(f)", 0, 1, True)], [])),
        (("1.16", {"e": 0, "n": 2}), _cert_json(
            "1.16", 6, [1] * 6,
            [("ProperIntersection(1,1)", 4, 5, True),
             ("ProperIntersection(1,0)", 2, 3, True),
             ("ProperIntersection(0,1)", 2, 2, True),
             ("FiberSpecial(f1)", 1, 3, True),
             ("FiberSpecial(f2)", 1, 2, True),
             ("EqualsC", 6, 10, True)], _ON_C)),
        (("1.17", {"l": 0}), _cert_json(
            "1.17", 15, [], [("FiberSpecial(C0)", 0, 1, True),
                             ("FiberSpecial(f)", 0, 3, True)], [])),
        (("1.17", {"l": 4}), _cert_json(
            "1.17", 11, [1] * 4,
            [("ProperIntersection(1,1)", 3, 4, True),
             ("ProperIntersection(0,1)", 2, 3, True),
             ("FiberSpecial(C0)", 0, 1, True),
             ("FiberSpecial(f)", 2, 3, True),
             ("EqualsC", 4, 11, True)],
            ["on_smooth_anticanonical", "away_from_min_section"])),
        (("1.20", {"n": -2}), _cert_json(
            "1.20", 5, [2] + [1] * 9,
            [("ProperIntersection(1,1)", 5, 6, True),
             ("ProperIntersection(1,0)", 3, 3, True),
             ("ProperIntersection(0,1)", 2, 3, True),
             ("FiberSpecial(f1)", 2, 3, True),
             ("FiberSpecial(f2)", 2, 3, True),
             ("EqualsC", 11, 12, True)], _ON_C)),
        (("1.18", {}), _cert_json(
            "1.18", 3, [2] * 8 + [1],
            [("FiberSpecial(F)", 0, 1, True),
             ("EqualsC", 0, 1, True),
             ("ProperIntersection(0,1)", 0, 2, True)], _PENCIL)),
    ]
    for (fid, params), pin in pins:
        assert nakai_certificate(build_example(fid, params)).to_json() == pin
    # E1 + 1 leaves the section/fiber span of the pencil
    off_span = mutate_polarization(build_example("1.18"), 0, 1)
    assert nakai_certificate(off_span).to_json() == _cert_json(
        "1.18", 6, [1] + [2] * 7 + [1],
        [("ProperIntersection(span)", 1, 0, False)], _PENCIL, valid=False)
    # two weights on F_0: the heaviest point loads a curve (a, b) at most a
    # times, every other point at most the second-highest weight
    heavy = mutate_polarization(build_example("1.19", {"n": -1}), 0, -1)
    assert nakai_certificate(heavy).to_json() == _cert_json(
        "1.19", 0, [2] + [1] * 8,
        [("ProperIntersection(1,1)", 5, 5, False),
         ("ProperIntersection(1,0)", 3, 3, True),
         ("ProperIntersection(0,1)", 2, 2, True),
         ("FiberSpecial(f1)", 2, 3, True),
         ("FiberSpecial(f2)", 2, 2, False),
         ("EqualsC", 10, 10, False)], _ON_C, valid=False)
    for fid in CERTIFIED:
        for params in FAMILY_SWEEPS[fid]:
            ex = build_example(fid, params)
            expected = () if ex.surface.l == 0 else _ASSUMED[fid]
            assert nakai_certificate(ex).assumptions_used == expected


def _certificate_or_refusal(ex):
    try:
        return nakai_certificate(ex).to_json()
    except CertificateRefused as exc:
        return str(exc)


def test_certificate_pins_every_instance_and_unit_mutant():
    # every check value of the 88 sweep instances and of each +-1 change to
    # one exceptional coefficient (1,370 mutants), or the refusal text
    records = []
    for fid in FAMILY_IDS:
        for params in FAMILY_SWEEPS[fid]:
            ex = build_example(fid, params)
            records.append([fid, ex.instance_key, None, 0,
                            _certificate_or_refusal(ex)])
            for i in range(ex.surface.l or 0):
                for delta in (1, -1):
                    mut = mutate_polarization(ex, i, delta)
                    records.append([fid, ex.instance_key, i, delta,
                                    _certificate_or_refusal(mut)])
    assert len(records) == 1458
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "8e9319619a04d6c045219f31abc4d79f31074427e5465c51fe5d94897431a0a9")


def _certificate_and_signature_or_refusal(ex):
    try:
        cert = nakai_certificate(ex)
    except CertificateRefused as exc:
        return str(exc)
    return [cert.to_json(), cert.flip_signature()]


def test_certificate_and_flip_signature_pin_every_instance_2a_and_mutant():
    # the certificate's JSON and flip signature, or the refusal text, for
    # the 88 sweep instances, their doubled polarizations and each +-1 and
    # +-2 change to one exceptional coefficient (2,740 mutants)
    records = []
    for fid in FAMILY_IDS:
        for params in FAMILY_SWEEPS[fid]:
            ex = build_example(fid, params)
            # (index, delta, instance), the doubled class under index "2A"
            cases = [(None, 0, ex), ("2A", 0, ex.with_polarization(2 * ex.A))]
            cases += [(i, delta, mutate_polarization(ex, i, delta))
                      for i in range(ex.surface.l or 0)
                      for delta in (1, -1, 2, -2)]
            records += [[fid, ex.instance_key, i, delta,
                         _certificate_and_signature_or_refusal(inst)]
                        for i, delta, inst in cases]
    assert len(records) == 2916
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "8fb97539bd4af12edf78fdec842d8b8b186d737abca9341ef0044e8515b950f4")


def _oracle_or_refusal(ex):
    try:
        return ample_oracle(ex.A).to_json()
    except OracleNotApplicable as exc:
        return [type(exc).__name__, str(exc)]


def test_oracle_pins_every_instance_and_unit_mutant():
    # the oracle's minimum, argmin, box and candidate count at DEFAULT_BOX,
    # or the refusal's type and text, for the 88 sweep instances and each
    # +-1 change to one exceptional coefficient
    records = []
    for fid in FAMILY_IDS:
        for params in FAMILY_SWEEPS[fid]:
            ex = build_example(fid, params)
            records.append([fid, ex.instance_key, None, 0,
                            _oracle_or_refusal(ex)])
            for i in range(ex.surface.l or 0):
                for delta in (1, -1):
                    mut = mutate_polarization(ex, i, delta)
                    records.append([fid, ex.instance_key, i, delta,
                                    _oracle_or_refusal(mut)])
    assert len(records) == 1458
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "4fc3371873aae3ae1e74ddc0e80b7eca1091688c5c3a2bbb60575ea5e0f05a65")


def test_certificate_validity_is_its_defining_formula():
    # validity is computed once per certificate; on the certified sweep
    # instances and their +-1 mutants (the attested ones refuse) it equals
    # the formula over the certificate's fields, and the flip signatures
    # are pinned
    signatures = []
    for fid in CERTIFIED:
        for params in FAMILY_SWEEPS[fid]:
            ex = build_example(fid, params)
            for mut in [ex] + [mutate_polarization(ex, i, delta)
                               for i in range(ex.surface.l or 0)
                               for delta in (1, -1)]:
                cert = nakai_certificate(mut)
                formula = (cert.self_intersection > 0
                           and all(v > 0 for v in cert.exceptional_values)
                           and all(c.passed for c in cert.curve_case_checks))
                assert cert.valid is formula
                assert cert.to_json()["valid"] is formula
                sig = cert.flip_signature()
                assert formula == (sig[0] and all(sig[1])
                                   and all(p for _, p in sig[2]))
                signatures.append(sig)
    assert len(signatures) == 1210
    digest = hashlib.sha256(repr(signatures).encode())
    assert digest.hexdigest() == (
        "064bba25ef52dd62170266185767dd2594e0946667dc5ba1d047440d25a34d7d")


# --- oracle ----------------------------------------------------------------


def test_oracle_on_a_minimal_surface_scans_the_cone():
    ex = build_example("1.12", {"e": 1})
    res = ample_oracle(ex.A)
    assert res.min_value >= 1
    assert res.argmin[0] == "base"
    assert res.to_json()["box"] == DEFAULT_BOX


def test_oracle_refuses_attested_configurations():
    for fid, params in (("1.13", {"l": 3}), ("1.14", {}), ("1.15", {}),
                        ("Obs1.4", {"n": 5})):
        with pytest.raises(OracleNotApplicable):
            ample_oracle(build_example(fid, params).A)


def test_oracle_agrees_with_certificate_on_certified_instances():
    for fid, params in (("1.16", {"e": 2, "n": 3}), ("1.17", {"l": 7}),
                        ("1.18", {}), ("1.19", {"n": -7}),
                        ("1.20", {"n": -10})):
        ex = build_example(fid, params)
        assert nakai_certificate(ex).valid
        assert ample_oracle(ex.A).min_value >= 1


def test_oracle_box_must_reach_the_anticanonical_class():
    ex = build_example("1.16", {"e": 2, "n": 0})   # base class needs b = 4
    with pytest.raises(OracleBoxError):
        ample_oracle(ex.A, box=3)
    A = _on_cubic([4, -1, -1])
    with pytest.raises(OracleBoxError):
        ample_oracle(A, box=2)                     # cannot reach the cubic
    assert ample_oracle(A, box=6).min_value >= 1


def _polarized(fid, params):
    return build_example(fid, params).A


def _on_cubic(coeffs):
    """A class on P2 blown up at len(coeffs) - 1 points of a smooth cubic."""
    S = blow_up(SurfaceModel.projective_plane(), len(coeffs) - 1,
                PointConfig(on_smooth_anticanonical=True))
    return S.divisor(coeffs)


@pytest.mark.parametrize("A,box,pin", [
    # bare P2 and bare F_1: the cone of base classes
    (_polarized("1.11", {}), 12, (1, ("base", 1), 12)),
    (_polarized("1.12", {"e": 1}), 12, (1, ("base", 0, 1), 80)),
    # a blow-up at zero points scans its base's cone
    (_polarized("1.17", {"l": 0}), 12, (1, ("base", 1, 0), 80)),
    # the elliptic pencil
    (_polarized("1.18", {}), 12, (1, ("E", 8), 166)),
    # points on the cubic of P2
    (_on_cubic([4, -1, -1]), 6, (1, ("E", 0), 9)),
    (_on_cubic([3, -1, -1]), 6, (1, ("D", 1, 0, (1, 1)), 9)),
    # not ample: the minimum sits where the multiplicity cap d - 1 binds
    (_on_cubic([2, -1, -1, -1]), 6, (-3, ("D", 6, 0, (5, 5, 5)), 10)),
    # points on the anticanonical curve of F_0, and of F_1 with the points
    # free to lie on the negative section or kept away from it
    (_polarized("1.19", {"n": -5}), 12, (1, ("C", (1,) * 13), 160)),
    (_polarized("1.16", {"e": 1, "n": 2}), 12,
     (1, ("D", 0, 1, (1, 0, 0, 0, 0, 0)), 87)),
    (_polarized("1.17", {"l": 4}), 12, (1, ("D", 0, 1, (1, 1, 0, 0)), 85)),
], ids=["P2", "F1", "F1-zero-points", "pencil", "P2-cubic-E", "P2-cubic-D",
        "P2-cubic-cap", "F0-points", "F1-points", "F1-points-away"])
def test_oracle_pins_every_model(A, box, pin):
    res = ample_oracle(A, box)
    assert (res.min_value, res.argmin, res.candidates) == pin


def test_oracle_pins_every_modelled_instance_at_wide_boxes():
    # the minimum, argmin and candidate count of every sweep instance the
    # oracle models, at the boxes 24, 44 and 64 of the oracle-wide workload
    records = []
    for fid in FAMILY_IDS:
        for params in FAMILY_SWEEPS[fid]:
            ex = build_example(fid, params)
            for box in (24, 44, 64):
                try:
                    res = ample_oracle(ex.A, box)
                except OracleNotApplicable:
                    break
                records.append([fid, ex.instance_key, box, res.min_value,
                                res.argmin, res.candidates])
    assert len(records) == 3 * 72
    digest = hashlib.sha256(json.dumps(records).encode())
    assert digest.hexdigest() == (
        "e15e8edd7fed13443b83c784f9c02cb0e47767a4ac2fdefc96abcab03cb56115")


def test_oracle_box_error_messages():
    ex = build_example("1.16", {"e": 2, "n": 0})
    with pytest.raises(OracleBoxError,
                       match=r"^box must reach the anticanonical base class "
                             r"\(>= 4\)$"):
        ample_oracle(ex.A, box=3)
    with pytest.raises(OracleBoxError,
                       match=r"^box must reach the cubic class \(>= 3\)$"):
        ample_oracle(_on_cubic([4, -1, -1]), box=2)


def test_oracle_box_ignores_the_environment(monkeypatch):
    # an exact answer must not depend on the environment
    monkeypatch.setenv("NP_ORACLE_BOX", "17")
    ex = build_example("1.17", {"l": 2})
    assert ample_oracle(ex.A).box == DEFAULT_BOX == 12


def test_oracle_is_deterministic():
    ex = build_example("1.17", {"l": 5})
    a = ample_oracle(ex.A)
    b = ample_oracle(ex.A)
    assert (a.min_value, a.argmin, a.candidates) == \
        (b.min_value, b.argmin, b.candidates)


def test_every_family_instance_is_within_the_point_bound():
    points = [build_example(fid, p).surface.l or 0
              for fid, sweep in FAMILY_SWEEPS.items() for p in sweep]
    assert len(points) == 88
    assert max(points) == build_example("1.20", {"n": -20}).surface.l == 28
    assert max(points) <= MAX_POINTS


def test_oracle_box_is_capped():
    A = _polarized("1.11", {})
    assert families.MAX_BOX == 1000
    assert ample_oracle(A, 1000).candidates == 1000
    with pytest.raises(OracleBoxError, match=r"^box must be <= 1000, got 1001$"):
        ample_oracle(A, 1001)
    # an attested family has nothing to search, but its box is still checked
    attested = _polarized("1.13", {"l": 3})
    for box, bound in ((1001, "<= 1000"), (0, ">= 1")):
        with pytest.raises(OracleBoxError,
                           match=f"^box must be {bound}, got {box}$"):
            ample_oracle(attested, box=box)


@pytest.mark.parametrize("box", [True, 2.5, "3"])
def test_oracle_box_must_be_an_int(box):
    # refused before the model is looked up, so the attested surface (no
    # model) and a searchable one give the same refusal
    for A in (_polarized("1.11", {}), _polarized("1.13", {"l": 3})):
        with pytest.raises(OracleBoxError) as err:
            ample_oracle(A, box)
        assert str(err.value) == f"box must be an integer, got {box!r}"


def test_oracle_memory_does_not_grow_with_the_box():
    S = SurfaceModel.hirzebruch(0)
    A = S.divisor([1, 1])
    tracemalloc.start()
    try:
        res = ample_oracle(A, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.candidates == 300 * 300 + 2
    assert peak < 1_000_000


# --- the streaming oracle against the list enumerator it replaced ----------


def _reference_greedy_load(weights, cap, budget):
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    m = [0] * len(weights)
    left = budget
    total = 0
    for i in order:
        if left <= 0 or weights[i] <= 0:
            break
        m[i] = min(cap, left)
        left -= m[i]
        total += weights[i] * m[i]
    return total, tuple(m)


def _reference_base_classes(base, box):
    if base.kind == "P2":
        coords = [(d,) for d in range(1, box + 1)]
    else:
        coords = [(1, 0), (0, 1)] + [
            (a, b) for a in range(1, box + 1)
            for b in range(max(1, a * base.e), box + 1)]
    return [(c, base.divisor(c)) for c in coords]


def _reference_candidates(S, D, box):
    """The oracle's candidate list as it was built before the oracle
    streamed: a divisor class, two pairings and a greedy sort per class."""
    base = SurfaceModel(S.kind, e=S.e)
    D_base = base.divisor(D.coeffs[:base.rank])
    l = S.l or 0
    if l == 0:
        return [(D_base.dot(T), ("base", *c))
                for c, T in _reference_base_classes(base, box)]
    cfg = S.config
    pencil = (cfg.complete_intersection_of_cubics and S.kind == "P2"
              and l == 9)
    if not (pencil or cfg.on_smooth_anticanonical):
        raise OracleNotApplicable(
            "no admissible-curve model for this point configuration")
    weights = [D.dot(S.exceptional(i)) for i in range(l)]
    cands = [(w, ("E", i)) for i, w in enumerate(weights)]
    if pencil:
        span = families._fibration_span(D)
        if span is None:
            raise OracleNotApplicable(
                "polarization leaves the section/fiber span; the "
                "admissible-curve model only covers that span")
        alpha, beta = span
        cands.append((D.dot(-canonical_class(S)), ("F",)))
        cands += [(alpha * x + beta * y, ("T", x, y))
                  for x in range(box + 1) for y in range(1, box + 1)]
        return cands
    C = -canonical_class(base)
    reach = max(C.coeffs)
    if box < reach:
        name = "cubic" if S.kind == "P2" else "anticanonical base"
        raise OracleBoxError(f"box must reach the {name} class (>= {reach})")
    plane = S.kind == "P2"
    pad = (0,) if plane else ()
    rulings = ({} if plane
               else dict(zip(((1, 0), (0, 1)), families._ruling_budgets(S))))
    for c, T in _reference_base_classes(base, box):
        cap = max(1, c[0] - 1) if plane else max(1, min(c))
        budget = rulings[c] if c in rulings else C.dot(T)
        load, m = _reference_greedy_load(weights, cap, budget)
        cands.append((D_base.dot(T) - load, ("D", *c, *pad, m)))
    cands.append((D_base.dot(C) - sum(weights), ("C", (1,) * l)))
    return cands


def _outcome(search):
    try:
        return search()
    except (OracleBoxError, OracleNotApplicable) as exc:
        return type(exc).__name__, str(exc)


def _random_surface(rng, model):
    """A surface of the given oracle model, with a fixed-seed draw."""
    if model == "pencil":
        return blow_up(SurfaceModel.projective_plane(), 9,
                       PointConfig(complete_intersection_of_cubics=True))
    base = (SurfaceModel.projective_plane() if model.startswith("P2")
            else SurfaceModel.hirzebruch(rng.randrange(4)))
    if model.startswith("bare"):
        return base
    if model == "zero-point":
        return blow_up(base, 0, PointConfig())
    if model == "no-model":
        return blow_up(base, rng.randrange(1, 5), PointConfig())
    return blow_up(base, rng.randrange(1, 10), PointConfig(
        on_smooth_anticanonical=True,
        distinct_fibers="distinct" in model,
        away_from_min_section="away" in model))


def _random_class(rng, S):
    if S.l == 9 and S.config.complete_intersection_of_cubics:
        # mostly inside the section/fiber span, sometimes beside it
        A = (rng.randrange(-3, 4) * S.exceptional(8)
             - rng.randrange(-2, 4) * canonical_class(S))
        return A + S.exceptional(0) if rng.random() < 0.2 else A
    return S.divisor([rng.randrange(-3, 12) for _ in range(S.base_rank)]
                     + [rng.randrange(-4, 2) for _ in range(S.l or 0)])


def test_fibration_span_is_the_section_fiber_decomposition():
    # _reference_candidates reads the span from _fibration_span itself, so
    # its closed form is checked here against class arithmetic: on the span
    # A = alpha E_9 + beta F with A.F = alpha and A.E_9 = beta - alpha
    S = blow_up(SurfaceModel.projective_plane(), 9,
                PointConfig(complete_intersection_of_cubics=True))
    F, E9 = -canonical_class(S), S.exceptional(8)
    rng = random.Random("fibration-span")
    seen = set()
    for _ in range(400):
        A = rng.randrange(-9, 10) * E9 + rng.randrange(-9, 10) * F
        if rng.random() < 0.5:
            # one coefficient moved: off the span unless it is E_9's
            c = [*A.coeffs]
            c[rng.randrange(S.rank)] += rng.choice((-3, -1, 1, 3))
            A = S.divisor(c)
        alpha, beta = A.dot(F), A.dot(E9) + A.dot(F)
        in_span = alpha * E9 + beta * F == A
        assert families._fibration_span(A) == (
            (alpha, beta) if in_span else None), A
        seen.add(in_span)
    assert seen == {True, False}


_MODELS = ["bare-P2", "bare-Fe", "zero-point", "pencil", "P2-points",
           "Fe-points", "Fe-points-away", "Fe-points-distinct",
           "Fe-points-away-distinct", "no-model"]


@pytest.mark.parametrize("model", _MODELS)
def test_linear_forms_match_the_pairing(model):
    # the certificate and the oracle read every pairing of the polarization
    # from these two forms; ``dot`` is their reference
    rng = random.Random(f"forms-{model}")
    for _ in range(20):
        S = _random_surface(rng, model)
        D = _random_class(rng, S)
        assert families._weights(S, D) == [
            D.dot(S.exceptional(i)) for i in range(S.l or 0)], (S, D)
        p, q = families._base_form(S, D)
        for a, b in ((1, 0), (0, 1), (2, 3), (5, -4)):
            T = S.pullback([a, b][:S.base_rank])
            assert p * a + q * b == D.dot(T), (S, D, a, b)
        # C is -K of the bare base, (cp, cq) its base form, and the box
        # reaches its largest coefficient
        bare = SurfaceModel(S.kind, e=S.e)
        C, form, reach = families._anticanonical(S)
        assert bare.divisor(C) == -canonical_class(bare), S
        assert form == families._base_form(bare, bare.divisor(C)), S
        assert reach == max(C), S


@pytest.mark.parametrize("model", _MODELS)
def test_streaming_oracle_matches_the_list_enumerator(model):
    rng = random.Random(f"oracle-{model}")
    for _ in range(40):
        S = _random_surface(rng, model)
        D = _random_class(rng, S)
        box = rng.randrange(1, 10)

        def reference():
            cands = _reference_candidates(S, D, box)
            value, key = min(cands)
            return value, key, box, len(cands)

        def streamed():
            res = ample_oracle(D, box)
            return res.min_value, res.argmin, res.box, res.candidates

        assert _outcome(streamed) == _outcome(reference), (S, D, box)

        # every candidate, not only the minimum
        def listed():
            return sorted((value, families._full_key(S, D, key))
                          for value, key in families._candidates(S, D, box))

        assert _outcome(listed) == _outcome(
            lambda: sorted(_reference_candidates(S, D, box))), (S, D, box)


@pytest.mark.parametrize("model", _MODELS)
def test_certificate_and_oracle_share_one_model(model):
    # the certificate refuses exactly where the oracle has no model, with
    # two exceptions: the pencil off its span, which the certificate rejects
    # and the oracle cannot search, and points on the plane cubic, which
    # the oracle searches and no certificate body covers
    rng = random.Random(f"parity-{model}")
    seen = set()
    for _ in range(20):
        S = _random_surface(rng, model)
        D = _random_class(rng, S)
        try:
            cert = nakai_certificate(
                families.ExampleFamily("probe", (), D, (), ()))
        except CertificateRefused:
            cert = None
        try:
            ample_oracle(D, 6)
            modeled = True
        except OracleNotApplicable:
            modeled = False
        seen.add(modeled)
        if model == "P2-points":
            assert cert is None and modeled, (S, D)
        elif model == "pencil" and not modeled:
            assert [c.case for c in cert.curve_case_checks] == [
                "ProperIntersection(span)"] and not cert.valid, D
        else:
            assert (cert is not None) == modeled, (S, D)
    assert seen == ({True, False} if model == "pencil"
                    else {model != "no-model"})


@pytest.mark.parametrize("model", [m for m in _MODELS
                                   if m.startswith("Fe-points")])
def test_ruling_checks_subtract_the_oracle_load(model):
    # each ruling's FiberSpecial margin is the oracle's value for that
    # ruling, also where a weight is negative and loads nothing
    rng = random.Random(f"rulings-{model}")
    draws = [(S, _random_class(rng, S))
             for S in (_random_surface(rng, model) for _ in range(20))]
    if model == "Fe-points-away":
        S = blow_up(SurfaceModel.hirzebruch(1), 1, PointConfig(
            on_smooth_anticanonical=True, away_from_min_section=True))
        draws.append((S, S.divisor([0, 3, 1])))
    for S, D in draws:
        cert = nakai_certificate(
            families.ExampleFamily("probe", (), D, None, ()))
        margins = {c.case: c.rhs - c.worst_case_lhs
                   for c in cert.curve_case_checks}
        values = {key[1:3]: value for value, key
                  in families._candidates(S, D, DEFAULT_BOX) if key[0] == "D"}
        tags = ("f1", "f2") if S.e == 0 else ("C0", "f")
        for tag, ruling in zip(tags, families._RULINGS):
            assert margins[f"FiberSpecial({tag})"] == values[ruling], (
                S, D, tag)


# --- perturbation behaviour ------------------------------------------------


def test_targeted_mutation_is_caught_by_both_sides():
    ex = build_example("1.17", {"l": 4})
    bad = mutate_polarization(ex, 0, -1)
    assert not nakai_certificate(bad).valid
    assert ample_oracle(bad.A).min_value <= 0


def test_valid_mutant_certificates_are_never_contradicted():
    # On the sharp polarizations every unit mutation kills the certificate,
    # so double the polarization to leave room for survivors.
    base = build_example("1.17", {"l": 3})
    strong = base.with_polarization(2 * base.A)
    checked = 0
    for index in range(3):
        for delta in (-1, 1):
            mut = mutate_polarization(strong, index, delta)
            cert = nakai_certificate(mut)
            if cert.valid:
                assert ample_oracle(mut.A).min_value >= 1
                checked += 1
    assert checked >= 1


def test_mutation_bounds_checked():
    ex = build_example("1.11")
    with pytest.raises(FamilyError):
        mutate_polarization(ex, 0, 1)
    ex = build_example("1.17", {"l": 2})
    with pytest.raises(FamilyError):
        mutate_polarization(ex, 2, 1)


@pytest.mark.parametrize("index", [True, False, 1.0, "1", None])
def test_mutation_index_is_an_int_never_coerced(index):
    # True is not index 1: the polarization of 1.17 l=3 stays unperturbed
    ex = build_example("1.17", {"l": 3})
    with pytest.raises(FamilyError, match="must be an integer"):
        mutate_polarization(ex, index, 1)
    assert ex.A.coeffs == (3, 4, -1, -1, -1)


@pytest.mark.parametrize("delta", [1.5, True, "1", None])
def test_mutation_delta_is_an_int_never_coerced(delta):
    ex = build_example("1.17", {"l": 3})
    with pytest.raises(FamilyError, match="delta must be an integer"):
        mutate_polarization(ex, 0, delta)


def test_a_polarization_on_another_surface_is_refused():
    ex = build_example("1.17", {"l": 4})
    with pytest.raises(FamilyError, match="another surface"):
        ex.with_polarization(SurfaceModel.hirzebruch(0).divisor([1, 1]))
    # an equal surface built apart is the instance's
    twin = SurfaceModel.from_json(ex.surface.to_json())
    assert twin is not ex.surface
    assert ex.with_polarization(twin.divisor(ex.A.coeffs)) == ex


def test_with_polarization_keeps_every_field_replace_keeps():
    # ``claims`` compares as equal whatever it is, so each field is
    # compared by identity; a field added later fails here until the
    # direct constructor passes it on
    names = [f.name for f in dataclasses.fields(families.ExampleFamily)]
    checked = 0
    for fid in FAMILY_IDS:
        for params in FAMILY_SWEEPS[fid]:
            ex = build_example(fid, params)
            mut = (mutate_polarization(ex, 0, 1).A if ex.surface.l
                   else 2 * ex.A)
            for A in (ex.A, mut):
                direct = ex.with_polarization(A)
                replaced = dataclasses.replace(ex, A=A)
                assert type(direct) is families.ExampleFamily
                for name in names:
                    assert getattr(direct, name) is getattr(replaced, name), (
                        fid, params, name)
                checked += 1
    assert checked == 176


def test_mutation_keeps_the_recorded_expectations():
    ex = build_example("1.16", {"e": 0, "n": 4})
    mut = mutate_polarization(ex, 1, 1)
    assert mut.claims == ex.claims
    assert mut.to_json()["np_expected"] == ex.to_json()["np_expected"]
    assert mut.A != ex.A


# --- verification ----------------------------------------------------------


@pytest.mark.parametrize("fid,params", [
    ("1.11", {}),
    ("1.12", {"e": 3}),
    ("1.13", {"l": 3}),
    ("1.14", {}),
    ("1.15", {}),
    ("1.16", {"e": 1, "n": 4}),
    ("1.17", {"l": 8}),
    ("1.18", {}),
    ("1.19", {"n": -5}),
    ("1.20", {"n": -6}),
    ("Obs1.4", {"n": 9}),
])
def test_verify_passes_on_every_named_instance(fid, params):
    report = verify_example(fid, params)
    assert report.passed and report.agreement_ok
    verdict = report.np_verdict
    assert (verdict.status, verdict.p) == report.np_expected
    if fid in CERTIFIED:
        assert report.certificate is not None and report.oracle is not None
        assert report.ample is True
    else:
        assert report.certificate is None and report.oracle is None
        assert "refused" in report.certificate_refused
        assert report.oracle_note == ("no admissible-curve model for this "
                                      "point configuration")
        assert report.ample is None
    obj = report.to_json()
    assert obj["passed"] is True and obj["family"] == fid


def test_verify_recomputes_every_stage(monkeypatch):
    # the instance is built once, but each verify runs the claims function,
    # the certificate and the oracle again (1.12's claims run one more oracle)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("nakai_certificate", "ample_oracle"):
        monkeypatch.setattr(families, name,
                            counted(name, getattr(families, name)))
    for fid in FAMILY_IDS:
        family = FAMILIES[fid]

        def build(family=family, **params):
            A, claims = family.build(**params)
            return A, counted("claims", claims)

        monkeypatch.setitem(FAMILIES, fid,
                            dataclasses.replace(family, build=build))
        params = FAMILY_SWEEPS[fid][-1]
        expected = sorted(["claims", "nakai_certificate", "ample_oracle"]
                          + ["ample_oracle"] * (fid == "1.12"))
        reports = []
        for _ in range(2):
            calls.clear()
            reports.append(verify_example(fid, params, strict=False))
            assert sorted(calls) == expected, fid
        assert reports[0] is not reports[1]
        assert reports[0].to_json() == reports[1].to_json()
        assert reports[0].passed, fid


def test_every_instance_json_is_pinned():
    # the instance and its verify report for all 88 sweep instances, with
    # sorted keys and in the dicts' own order (the claims keep theirs)
    digest = hashlib.sha256()
    count = 0
    for fid, sweep in FAMILY_SWEEPS.items():
        for params in sweep:
            count += 1
            for obj in (build_example(fid, params).to_json(),
                        verify_example(fid, params, strict=False).to_json()):
                for sort_keys in (True, False):
                    digest.update(
                        json.dumps(obj, sort_keys=sort_keys).encode())
    assert count == 88
    assert digest.hexdigest() == (
        "c96b2348d436f6577a6b753d7c5343737b02929efb6b7ec5568dbc9dc709a627")


def test_claims_pin_every_instance_and_mutant():
    # the claims of each sweep instance's polarization A, of 2A and of each
    # +-1 and +-2 change to one exceptional coefficient: a claim that reads
    # a fixed class off A, rather than off the surface, changes the digest
    digest = hashlib.sha256()
    count = 0
    for fid, sweep in FAMILY_SWEEPS.items():
        for params in sweep:
            ex = build_example(fid, params)
            variants = [("A", ex), ("2A", ex.with_polarization(2 * ex.A))]
            variants += [(f"E{i}{d:+d}", mutate_polarization(ex, i, d))
                         for i in range(ex.surface.l or 0)
                         for d in (1, -1, 2, -2)]
            for tag, v in variants:
                count += 1
                digest.update(json.dumps(
                    [fid, ex.instance_key, tag,
                     list(v.claims(v.A).items())]).encode())
    assert count == 2916
    assert digest.hexdigest() == (
        "fb42f07decb801121bffc05511d664e1f0d582961c3107a95899aaeaf5ef7629")


def test_verify_strictness_raises_with_the_culprit_named(monkeypatch):
    monkeypatch.setattr(families, "fixture_instance", lambda a, b: None)
    with pytest.raises(VerificationError) as err:
        verify_example("1.11")
    assert "no fixture entry" in str(err.value)
    report = verify_example("1.11", strict=False)
    assert not report.passed and "no fixture entry" in report.failures[0]


def test_verify_fails_on_a_pinned_claim_no_builder_computes(monkeypatch):
    family = FAMILIES["1.17"]

    def without_claim(**params):
        A, claims = family.build(**params)
        return A, lambda A: {name: value for name, value
                             in claims(A).items() if name != "-K.(K+A)"}

    monkeypatch.setitem(FAMILIES, "1.17",
                        dataclasses.replace(family, build=without_claim))
    report = verify_example("1.17", {"l": 3}, strict=False)
    assert report.failures == (
        "1.17[l=3]: pinned claim '-K.(K+A)' not computed",)


def test_fixture_ampleness_pin_is_compared_when_null(monkeypatch):
    pin = {**fixture_instance("1.11", "-"), "ample": None}
    monkeypatch.setattr(families, "fixture_instance", lambda a, b: pin)
    report = verify_example("1.11", strict=False)
    assert report.failures == ("1.11[-]: fixture ampleness pin None != True",)


def test_null_ampleness_pin_needs_both_routes_to_refuse(monkeypatch):
    # an abstaining oracle alone leaves the verdict None, matching the pin;
    # the certificate must refuse too
    pin = {**fixture_instance("1.11", "-"), "ample": None}
    monkeypatch.setattr(families, "fixture_instance", lambda a, b: pin)

    def abstain(D, box=None):
        raise OracleNotApplicable("no admissible-curve model")

    monkeypatch.setattr(families, "ample_oracle", abstain)
    report = verify_example("1.11", strict=False)
    assert report.failures == ("1.11[-]: expected certificate refusal",)


def _oracle_minimum(value):
    def search(D, box=None):
        return families.OracleResult(value, ("base", 1), DEFAULT_BOX, 1)
    return search


def test_verify_reports_a_certificate_the_oracle_contradicts(monkeypatch):
    monkeypatch.setattr(families, "ample_oracle", _oracle_minimum(0))
    report = verify_example("1.11", strict=False)
    assert report.certificate.valid
    assert report.ample is False and report.agreement_ok is False
    assert report.failures == (
        "1.11[-]: certificate validity True disagrees with oracle minimum 0",
        "1.11[-]: fixture ampleness pin True != False")
    obj = report.to_json()
    assert (obj["ample"], obj["agreement_ok"], obj["passed"]) == (
        False, False, False)
    with pytest.raises(VerificationError, match="disagrees with oracle"):
        verify_example("1.11")


def test_verify_reports_an_invalid_certificate_the_oracle_confirms(
        monkeypatch):
    invalid = families.AmpleCertificate("1.11", 0, (), (), ())
    monkeypatch.setattr(families, "nakai_certificate", lambda ex: invalid)
    for value in (0, -2):
        monkeypatch.setattr(families, "ample_oracle", _oracle_minimum(value))
        report = verify_example("1.11", strict=False)
        assert report.ample is False and report.agreement_ok is True
        assert report.failures == (
            "1.11[-]: certificate failed on the unperturbed polarization",
            "1.11[-]: fixture ampleness pin True != False")
        obj = report.to_json()
        assert (obj["ample"], obj["agreement_ok"], obj["passed"]) == (
            False, True, False)


def test_sweeps_cover_the_stated_ranges():
    with pytest.raises(FamilyError):
        sweep_family("nope")
    reports = sweep_family("1.13")
    assert len(reports) == 5 and all(r.passed for r in reports)
    assert sum(len(v) for v in FAMILY_SWEEPS.values()) == 88


def test_fixture_lookup():
    assert fixture_instance("1.11", "-") is not None
    assert fixture_instance("1.16", "e=0,n=-1") is not None
    assert fixture_instance("1.16", "e=0,n=99") is None
    assert fixture_instance("9.99", "-") is None


# the fixture generator: the one place the expected values are written
GENERATOR = (pathlib.Path(__file__).resolve().parent.parent / "tools"
             / "make_fixtures.py")


def test_fixture_file_is_the_generator_output(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", GENERATOR)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "OUT", tmp_path / "examples.json")
    make_fixtures.main()
    packaged = resources.files("npsurf").joinpath("data/examples.json")
    assert (tmp_path / "examples.json").read_bytes() == packaged.read_bytes()


def test_fixture_generator_imports_nothing_from_npsurf():
    imported = []
    for node in ast.walk(ast.parse(GENERATOR.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0
            imported.append(node.module)
    assert imported and not any(name.split(".")[0] == "npsurf"
                                for name in imported)


def test_fixture_instances_are_exactly_the_sweeps():
    data = resources.files("npsurf").joinpath("data/examples.json")
    pinned = json.loads(data.read_text())["families"]
    assert set(pinned) == set(FAMILY_IDS)
    for fid in FAMILY_IDS:
        swept = {build_example(fid, p).instance_key for p in FAMILY_SWEEPS[fid]}
        assert set(pinned[fid]["instances"]) == swept, fid
