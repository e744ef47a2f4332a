"""Reference families: construction, certificates, oracle, verification."""

import ast
import dataclasses
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
    brute_force_ample_oracle,
    build_example,
    fixture_instance,
    mutate_polarization,
    nakai_certificate,
    sweep_family,
    verify_example,
)
from npsurf.lattice import PointConfig, SurfaceModel, blow_up, canonical_class

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


# --- oracle ----------------------------------------------------------------


def test_oracle_on_a_minimal_surface_scans_the_cone():
    ex = build_example("1.12", {"e": 1})
    res = brute_force_ample_oracle(ex)
    assert res.min_value >= 1
    assert res.argmin[0] == "base"
    assert res.to_json()["box"] == DEFAULT_BOX


def test_oracle_refuses_attested_configurations():
    for fid, params in (("1.13", {"l": 3}), ("1.14", {}), ("1.15", {}),
                        ("Obs1.4", {"n": 5})):
        with pytest.raises(OracleNotApplicable):
            brute_force_ample_oracle(build_example(fid, params))


def test_oracle_agrees_with_certificate_on_certified_instances():
    for fid, params in (("1.16", {"e": 2, "n": 3}), ("1.17", {"l": 7}),
                        ("1.18", {}), ("1.19", {"n": -7}),
                        ("1.20", {"n": -10})):
        ex = build_example(fid, params)
        assert nakai_certificate(ex).valid
        assert brute_force_ample_oracle(ex).min_value >= 1


def test_oracle_box_must_reach_the_anticanonical_class():
    ex = build_example("1.16", {"e": 2, "n": 0})   # base class needs b = 4
    with pytest.raises(OracleBoxError):
        brute_force_ample_oracle(ex, box=3)
    S = blow_up(SurfaceModel.projective_plane(), 2,
                PointConfig(on_smooth_anticanonical=True))
    A = S.divisor([4, -1, -1])
    with pytest.raises(OracleBoxError):
        ample_oracle(S, A, box=2)                  # cannot reach the cubic
    assert ample_oracle(S, A, box=6).min_value >= 1


def _polarized(fid, params):
    ex = build_example(fid, params)
    return ex.surface, ex.A


def _on_cubic(coeffs):
    """P2 blown up at len(coeffs) - 1 points of a smooth cubic, with a class."""
    S = blow_up(SurfaceModel.projective_plane(), len(coeffs) - 1,
                PointConfig(on_smooth_anticanonical=True))
    return S, S.divisor(coeffs)


@pytest.mark.parametrize("S,A,box,pin", [
    # bare P2 and bare F_1: the cone of base classes
    (*_polarized("1.11", {}), 12, (1, ("base", 1), 12)),
    (*_polarized("1.12", {"e": 1}), 12, (1, ("base", 0, 1), 80)),
    # a blow-up at zero points scans its base's cone
    (*_polarized("1.17", {"l": 0}), 12, (1, ("base", 1, 0), 80)),
    # the elliptic pencil
    (*_polarized("1.18", {}), 12, (1, ("E", 8), 166)),
    # points on the cubic of P2
    (*_on_cubic([4, -1, -1]), 6, (1, ("E", 0), 9)),
    (*_on_cubic([3, -1, -1]), 6, (1, ("D", 1, 0, (1, 1)), 9)),
    # not ample: the minimum sits where the multiplicity cap d - 1 binds
    (*_on_cubic([2, -1, -1, -1]), 6, (-3, ("D", 6, 0, (5, 5, 5)), 10)),
    # points on the anticanonical curve of F_0, and of F_1 with the points
    # free to lie on the negative section or kept away from it
    (*_polarized("1.19", {"n": -5}), 12, (1, ("C", (1,) * 13), 160)),
    (*_polarized("1.16", {"e": 1, "n": 2}), 12,
     (1, ("D", 0, 1, (1, 0, 0, 0, 0, 0)), 87)),
    (*_polarized("1.17", {"l": 4}), 12, (1, ("D", 0, 1, (1, 1, 0, 0)), 85)),
], ids=["P2", "F1", "F1-zero-points", "pencil", "P2-cubic-E", "P2-cubic-D",
        "P2-cubic-cap", "F0-points", "F1-points", "F1-points-away"])
def test_oracle_pins_every_model(S, A, box, pin):
    res = ample_oracle(S, A, box)
    assert (res.min_value, res.argmin, res.candidates) == pin


def test_oracle_box_error_messages():
    ex = build_example("1.16", {"e": 2, "n": 0})
    with pytest.raises(OracleBoxError,
                       match=r"^box must reach the anticanonical base class "
                             r"\(>= 4\)$"):
        brute_force_ample_oracle(ex, box=3)
    with pytest.raises(OracleBoxError,
                       match=r"^box must reach the cubic class \(>= 3\)$"):
        ample_oracle(*_on_cubic([4, -1, -1]), box=2)


def test_oracle_box_ignores_the_environment(monkeypatch):
    # an exact answer must not depend on the environment
    monkeypatch.setenv("NP_ORACLE_BOX", "17")
    ex = build_example("1.17", {"l": 2})
    assert brute_force_ample_oracle(ex).box == DEFAULT_BOX == 12


def test_oracle_is_deterministic():
    ex = build_example("1.17", {"l": 5})
    a = brute_force_ample_oracle(ex)
    b = brute_force_ample_oracle(ex)
    assert (a.min_value, a.argmin, a.candidates) == \
        (b.min_value, b.argmin, b.candidates)


def test_oracle_box_is_capped():
    S, A = _polarized("1.11", {})
    assert families.MAX_BOX == 1000
    assert ample_oracle(S, A, 1000).candidates == 1000
    with pytest.raises(OracleBoxError, match=r"^box must be <= 1000, got 1001$"):
        ample_oracle(S, A, 1001)
    with pytest.raises(OracleBoxError, match=r"^box must be <= 1000, got 1001$"):
        brute_force_ample_oracle(build_example("1.11"), box=1001)
    with pytest.raises(OracleBoxError, match=r"^box must be <= 1000, got 1001$"):
        verify_example("1.11", box=1001)
    # an attested family has nothing to search, but its box is still checked
    attested = build_example("1.13", {"l": 3})
    for box, bound in ((1001, "<= 1000"), (0, ">= 1")):
        with pytest.raises(OracleBoxError,
                           match=f"^box must be {bound}, got {box}$"):
            brute_force_ample_oracle(attested, box=box)
        with pytest.raises(OracleBoxError,
                           match=f"^box must be {bound}, got {box}$"):
            verify_example("1.13", {"l": 3}, box=box)


def test_oracle_memory_does_not_grow_with_the_box():
    S = SurfaceModel.hirzebruch(0)
    A = S.divisor([1, 1])
    tracemalloc.start()
    try:
        res = ample_oracle(S, A, 300)
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
    base = families._bare_base(S)
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
    weights = families._weights(S, D)
    cands = [(w, ("E", i)) for i, w in enumerate(weights)]
    if pencil:
        span = families._fibration_span(S, D)
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


_MODELS = ["bare-P2", "bare-Fe", "zero-point", "pencil", "P2-points",
           "Fe-points", "Fe-points-away", "Fe-points-distinct",
           "Fe-points-away-distinct", "no-model"]


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
            res = ample_oracle(S, D, box)
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
                families.ExampleFamily("probe", (), S, D, (), ()))
        except CertificateRefused:
            cert = None
        try:
            ample_oracle(S, D, 6)
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


# --- perturbation behaviour ------------------------------------------------


def test_targeted_mutation_is_caught_by_both_sides():
    ex = build_example("1.17", {"l": 4})
    bad = mutate_polarization(ex, 0, -1)
    assert not nakai_certificate(bad).valid
    assert ample_oracle(bad.surface, bad.A).min_value <= 0


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
                assert ample_oracle(mut.surface, mut.A).min_value >= 1
                checked += 1
    assert checked >= 1


def test_mutation_bounds_checked():
    ex = build_example("1.11")
    with pytest.raises(FamilyError):
        mutate_polarization(ex, 0, 1)
    ex = build_example("1.17", {"l": 2})
    with pytest.raises(FamilyError):
        mutate_polarization(ex, 2, 1)


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
    assert report.passed and report.np_ok and report.agreement_ok
    if fid in CERTIFIED:
        assert report.certificate is not None and report.oracle is not None
        assert report.ample_verdict is True
    else:
        assert report.certificate is None and report.oracle is None
        assert "refused" in report.certificate_refused
        assert "attested" in report.oracle_note
        assert report.ample_verdict is None
    obj = report.to_json()
    assert obj["passed"] is True and obj["family"] == fid


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
        S, A, claims = family.build(**params)
        return S, A, [c for c in claims if c.quantity != "-K.(K+A)"]

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

    def abstain(ex, box=None):
        raise OracleNotApplicable("no admissible-curve model")

    monkeypatch.setattr(families, "brute_force_ample_oracle", abstain)
    report = verify_example("1.11", strict=False)
    assert report.failures == ("1.11[-]: expected certificate refusal",)


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
