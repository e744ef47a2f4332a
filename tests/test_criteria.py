"""Numeric syzygy criteria: classification, bounds, gates, thresholds."""

from fractions import Fraction

import pytest

from npsurf.criteria import (
    CriteriaError,
    NpVerdict,
    adjoint_np_min_n,
    adjoint_very_ample,
    ampleness_termination,
    bpf_check,
    curve_np_reference,
    green_lazarsfeld_failure,
    lemma_125_bound,
    min_kA_bound,
    np_classify,
    np_classify_degree,
    reider_np,
    thm_121_equivalence,
    verify_inequality_chain,
)
from npsurf.lattice import PointConfig, SurfaceModel, blow_up, canonical_class

ANTI = {"ample": True, "anticanonical": True}


# --- classification --------------------------------------------------------


def test_equivalence_classification_by_degree():
    for t in range(3, 20):
        v = np_classify_degree(t, ANTI)
        assert (v.status, v.p) == ("ExactMax", t - 3)
        assert v.justification == "Thm 1.3 iff"
    for t in (2, 1):
        v = np_classify_degree(t, ANTI)
        assert v.status == "NotN0" and v.p is None
    # an ample L meets the nonzero effective -K positively, so -K.L < 1
    # contradicts the two attestations
    for t in (0, -4):
        with pytest.raises(CriteriaError, match="contradicts"):
            np_classify_degree(t, ANTI)


def test_one_sided_classification_needs_base_point_freeness():
    v = np_classify_degree(7, {"ample": True, "bpf": True})
    assert (v.status, v.p) == ("AtLeast", 4)
    assert np_classify_degree(7, {"ample": True}).status == "NotApplicable"
    assert np_classify_degree(2, {"ample": True, "bpf": True}).status == \
        "NotApplicable"


def test_classification_flag_validation():
    with pytest.raises(CriteriaError):
        np_classify_degree(5, {"anticanonical": True})  # ample missing
    with pytest.raises(CriteriaError):
        np_classify_degree(5, {"ample": True, "smooth": True})


@pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
def test_flags_are_booleans_never_coerced(value):
    with pytest.raises(CriteriaError, match="must be a bool"):
        np_classify_degree(7, {"ample": value, "anticanonical": True})
    with pytest.raises(CriteriaError, match="must be a bool"):
        np_classify_degree(7, {"ample": True, "anticanonical": value})
    S = SurfaceModel.hirzebruch(1)
    with pytest.raises(CriteriaError, match="must be a bool"):
        bpf_check(S.divisor([1, 2]), {"nef": value, "anticanonical": True})


# each attestation keyword of the table functions, with the arguments and
# other keywords under which a truthy or falsy stand-in would be read
_ATTESTATIONS = [
    (reider_np, (3, 100, 1), "cond1_attested", {}),
    (reider_np, (3, 100, 1), "adjoint_very_ample", {}),
    (reider_np, (1, 15, 1), "multiple_of_minus_k", {"cond1_attested": True}),
    (lemma_125_bound, (3, 100, 1), "adjoint_effective", {}),
    (lemma_125_bound, (1, 100, 1), "multiple_of_minus_k",
     {"adjoint_effective": True}),
    (ampleness_termination, (9, 3), "np_sharp_attested", {}),
    (ampleness_termination, (3, 3), "multiple_of_minus_k",
     {"np_sharp_attested": True}),
    (min_kA_bound, (3,), "conic_fibration", {}),
]


@pytest.mark.parametrize("fn, args, keyword, others", _ATTESTATIONS,
                         ids=[f"{fn.__name__}-{kw}"
                              for fn, _, kw, _ in _ATTESTATIONS])
@pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
def test_attestation_keywords_are_booleans_never_coerced(fn, args, keyword,
                                                         others, value):
    with pytest.raises(CriteriaError, match=f"{keyword!r} must be a bool"):
        fn(*args, **others, **{keyword: value})


def test_classification_from_a_lattice_polarization():
    S = blow_up(SurfaceModel.projective_plane(), 6,
                PointConfig(general_position=True,
                            anticanonical_effective=True))
    A = -S.canonical
    v = np_classify(A, ANTI)
    assert (v.status, v.p) == ("ExactMax", 0)
    # the surface is the divisor's own: a line of P2 has -K.L = 3
    v = np_classify(SurfaceModel.projective_plane().divisor([1]), ANTI)
    assert (v.status, v.p) == ("ExactMax", 0)


def test_exact_level_requires_an_exactness_hypothesis():
    with pytest.raises(CriteriaError):
        NpVerdict("ExactMax", p=2, justification="x")
    with pytest.raises(CriteriaError):
        NpVerdict("AtLeast", justification="x")  # p missing
    with pytest.raises(CriteriaError):
        NpVerdict("NotN0", p=1, justification="x")  # p meaningless
    with pytest.raises(CriteriaError):
        NpVerdict("ExactMax", p=1, justification="")


def test_failure_level_for_effective_twists():
    assert green_lazarsfeld_failure(1) == -1
    assert green_lazarsfeld_failure(5) == 3
    with pytest.raises(CriteriaError):
        green_lazarsfeld_failure(0)


# --- base-point freedom ----------------------------------------------------


def test_base_point_free_threshold():
    S = SurfaceModel.hirzebruch(1)
    flags = {"nef": True, "anticanonical": True}
    assert bpf_check(S.divisor([1, 2]), flags)             # -K.L = 5
    low = bpf_check(S.divisor([0, 0]), flags)
    assert not low and low.reason
    with pytest.raises(CriteriaError):
        bpf_check(S.divisor([1, 2]), {"nef": True})
    with pytest.raises(CriteriaError):
        bpf_check(S.divisor([1, 2]), {"anticanonical": True})


@pytest.mark.parametrize("coeffs, t, established", [
    ([1, 0], 1, False), ([0, 1], 2, True), ([1, 1], 3, True)])
def test_base_point_free_threshold_boundary(coeffs, t, established):
    # Harbourne's -K.L >= 2, pinned at and on both sides of the threshold
    S = SurfaceModel.hirzebruch(1)
    L = S.divisor(coeffs)
    assert -canonical_class(S).dot(L) == t
    v = bpf_check(L, {"nef": True, "anticanonical": True})
    assert v.value is established
    assert v.reason == (None if established
                        else f"-K.L = {t} < 2: not established")


# --- very ampleness of adjoint sums ---------------------------------------


def test_very_ample_count_thresholds():
    assert adjoint_very_ample(9, ["other"] * 4)
    assert not adjoint_very_ample(9, ["other"] * 3)
    assert adjoint_very_ample(8, ["other"] * 3)
    assert adjoint_very_ample(5, ["other"] * 2)
    assert adjoint_very_ample(0, ["other"] * 3)
    assert not adjoint_very_ample(0, ["other"] * 2)
    assert adjoint_very_ample(-3, ["other"] * 2)
    assert not adjoint_very_ample(-3, ["other"])


@pytest.mark.parametrize("ksq", [3, 7])
def test_very_ample_regime_3_to_7_boundaries(ksq):
    # both ends of the 3 <= K^2 <= 7 regime need two summands
    v = adjoint_very_ample(ksq, ["other"])
    assert (v.status, v.case) == ("NotGuaranteed", "3")
    v = adjoint_very_ample(ksq, ["other"] * 2)
    assert (v.status, v.case) == ("VeryAmple", "3")


def test_very_ample_exception_shapes():
    v = adjoint_very_ample(2, ["minus_k", "minus_k"])
    assert v.status == "ExceptionListed" and v.case == "4"
    assert adjoint_very_ample(2, ["minus_k", "other"])
    v = adjoint_very_ample(1, ["minus_k", "minus_k"])
    assert v.status == "ExceptionListed" and v.case == "5a"
    v = adjoint_very_ample(1, ["minus_k", "minus_2k"])
    assert v.status == "ExceptionListed" and v.case == "5a"
    v = adjoint_very_ample(1, ["minus_k"] * 3)
    assert v.status == "ExceptionListed" and v.case == "5b"
    assert adjoint_very_ample(1, ["minus_k", "minus_k", "other"])
    assert adjoint_very_ample(1, ["other"] * 4)


def test_very_ample_validation():
    with pytest.raises(CriteriaError):
        adjoint_very_ample(10, ["other"])
    with pytest.raises(CriteriaError):
        adjoint_very_ample(3, [])
    with pytest.raises(CriteriaError):
        adjoint_very_ample(3, ["plus_k"])


# --- per-summand degree bounds --------------------------------------------


def test_min_degree_bound_regimes():
    assert min_kA_bound(9).bound == 3
    assert min_kA_bound(8).bound == 4
    assert min_kA_bound(8, e=3).bound == 7
    r = min_kA_bound(5)
    assert (r.bound, r.exception, r.exact) == (8, None, False)
    r = min_kA_bound(5, summand="minus_k")
    assert (r.bound, r.exception, r.exact) == (5, "minus_k", True)
    assert min_kA_bound(1, summand="minus_2k").bound == 2
    assert min_kA_bound(1, summand="minus_3k").bound == 3
    assert min_kA_bound(2, summand="minus_2k").bound == 4
    assert min_kA_bound(4, conic_fibration=True).bound == 6
    assert min_kA_bound(0).bound == 1
    assert min_kA_bound(-7).bound == 1


def test_min_degree_bound_validation():
    with pytest.raises(CriteriaError):
        min_kA_bound(10)
    with pytest.raises(CriteriaError):
        min_kA_bound(5, summand="anti")
    with pytest.raises(CriteriaError):
        min_kA_bound(5, e=1)


# --- minimal summand-count table ------------------------------------------


def test_summand_count_pinned_values():
    assert adjoint_np_min_n(9, 0).n == 4
    assert adjoint_np_min_n(9, 3).n == 5
    assert adjoint_np_min_n(8, 0).n == 3
    assert adjoint_np_min_n(8, 0, e=5).n == 3
    assert adjoint_np_min_n(8, 25, e=5).n == 4
    assert adjoint_np_min_n(1, 0).n == 4
    assert adjoint_np_min_n(7, 0).n == 2
    assert adjoint_np_min_n(0, 0).n == 3
    assert adjoint_np_min_n(-1, 0).n == 2
    assert adjoint_np_min_n(-5, 0).n == 2
    assert adjoint_np_min_n(-5, 10).n == 8


def test_summand_count_exclusion_regimes():
    base = adjoint_np_min_n(3, 12)
    assert base.case == "3"
    better = adjoint_np_min_n(3, 12, exclude=("minus_k",))
    assert better.case == "4" and better.n <= base.n
    best = adjoint_np_min_n(3, 12, exclude=("minus_k", "conic_fibration"))
    assert best.case == "5" and best.n <= better.n
    # incomplete exclusion sets fall back to the unconditional row
    assert adjoint_np_min_n(1, 5, exclude=("minus_k",)).case == "3"
    assert adjoint_np_min_n(2, 5, exclude=("minus_k",)).case == "4"


def test_summand_count_validation():
    with pytest.raises(CriteriaError):
        adjoint_np_min_n(3, -1)
    with pytest.raises(CriteriaError):
        adjoint_np_min_n(10, 0)
    with pytest.raises(CriteriaError):
        adjoint_np_min_n(3, 0, exclude=("weird",))
    with pytest.raises(CriteriaError):
        adjoint_np_min_n(9, 0, exclude=("minus_k",))
    with pytest.raises(CriteriaError):
        adjoint_np_min_n(3, 0, e=2)


# --- quadratic gates -------------------------------------------------------


def test_quadratic_gate_thresholds():
    assert reider_np(3, 26, 2, cond1_attested=True)          # above square
    assert reider_np(3, 24, 2, cond1_attested=True)          # near square
    assert not reider_np(3, 23, 2, cond1_attested=True)
    blocked = reider_np(1, 24, 2, cond1_attested=True,
                        multiple_of_minus_k=True)
    assert not blocked and blocked.reason
    assert reider_np(1, 26, 2, cond1_attested=True,
                     multiple_of_minus_k=True)


def test_degree_gate_is_the_only_gate_at_nonpositive_ksq():
    assert not reider_np(0, 27, 2, minus_k_dot_L=3, cond1_attested=True)
    assert reider_np(0, 27, 0, minus_k_dot_L=3, cond1_attested=True)
    assert reider_np(-4, 5, 1, minus_k_dot_L=9, adjoint_very_ample=True)
    with pytest.raises(CriteriaError):
        reider_np(0, 27, 2, cond1_attested=True)


def test_gate_entry_hypotheses():
    with pytest.raises(CriteriaError):
        reider_np(3, 100, 1)
    with pytest.raises(CriteriaError):
        reider_np(3, 100, -1, cond1_attested=True)
    v = reider_np(3, 100, 1, cond1_attested=True, adjoint_very_ample=True)
    assert set(v.assumed) >= {"cond1", "adjoint_very_ample"}


@pytest.mark.parametrize("ksq", [10, 250])
def test_quadratic_gates_refuse_ksq_above_the_rational_range(ksq):
    # L^2 = 26 would pass gate 2a at p = 2 if K^2 were not checked
    with pytest.raises(CriteriaError,
                       match=rf"^K\^2 = {ksq} exceeds the rational-surface "
                             "range$"):
        reider_np(ksq, 26, 2, cond1_attested=True)
    assert reider_np(9, 26, 2, cond1_attested=True).justification == \
        "Thm 1.24 gate 2a"


# --- quadratic-to-degree bound and its proof chain -------------------------


def test_degree_bound_fires_exactly_on_threshold():
    for ksq in (1, 4, 8):
        p = 2
        edge = (p + 3) ** 2 - 1
        assert lemma_125_bound(ksq, edge, p, adjoint_effective=True) == \
            p + 3 + ksq
        assert lemma_125_bound(ksq, edge - 1, p,
                               adjoint_effective=True) is None


def test_degree_bound_scope():
    with pytest.raises(CriteriaError):
        lemma_125_bound(0, 100, 2, adjoint_effective=True)
    with pytest.raises(CriteriaError):
        lemma_125_bound(9, 100, 2, adjoint_effective=True)
    with pytest.raises(CriteriaError):
        lemma_125_bound(3, 100, 0, adjoint_effective=True)
    with pytest.raises(CriteriaError):
        lemma_125_bound(8, 100, 1, adjoint_effective=True)
    with pytest.raises(CriteriaError):
        lemma_125_bound(3, 100, 2)
    with pytest.raises(CriteriaError):
        lemma_125_bound(1, 100, 2, multiple_of_minus_k=True,
                        adjoint_effective=True)


def test_proof_chain_inequalities_and_equality_locus():
    assert verify_inequality_chain(5, 7, 3) == (True, True, True)
    d_equal = verify_inequality_chain(2, 4, 1)  # p - m = -2
    assert d_equal == (True, True, True)
    assert (2 - 4) ** 2 + 5 * (2 - 4) + 6 == 0
    assert (3 - 5) ** 2 + 5 * (3 - 5) + 6 == 0
    assert (1 - 5) ** 2 + 5 * (1 - 5) + 6 > 0
    with pytest.raises(CriteriaError):
        verify_inequality_chain(0, 2, 3)
    with pytest.raises(CriteriaError):
        verify_inequality_chain(1, 1, 3)
    with pytest.raises(CriteriaError):
        verify_inequality_chain(1, 2, 0)
    # where the proof is tight: p = 1 and K^2 = 7 make inequality 1 zero;
    # m = 3 puts p - m at -2, where inequality 2 is zero too, and m = 2
    # gives inequality 3 its least value, p(p + 1) = 2
    assert verify_inequality_chain(1, 3, 7) == (True, True, True)
    assert verify_inequality_chain(1, 2, 7) == (True, True, True)


# --- termination thresholds ------------------------------------------------


def test_termination_threshold_cases():
    t = ampleness_termination(9, 9, np_sharp_attested=True)
    assert (t.case, t.m_min, t.boundary) == ("a", 2, Fraction(1))
    t = ampleness_termination(8, 6, e=1, np_sharp_attested=True)
    assert (t.case, t.m_min) == ("b", 1)
    t = ampleness_termination(4, 9, np_sharp_attested=True)
    assert (t.case, t.m_min) == ("c", 3)   # boundary 2 exactly
    t = ampleness_termination(4, 9, multiple_of_minus_k=False,
                              np_sharp_attested=True)
    assert (t.case, t.m_min) == ("d", 2)   # boundary 3/2
    t = ampleness_termination(-2, 1, np_sharp_attested=True)
    assert (t.case, t.direction, t.m_max) == ("e", "below", -2)
    assert t.contains(-2) and t.contains(-5) and not t.contains(-1)
    t = ampleness_termination(-2, 2, np_sharp_attested=True)
    assert t.m_max == -3   # integral boundary -2 is excluded (strict)


def test_termination_membership_is_one_sided():
    t = ampleness_termination(5, 12, np_sharp_attested=True)
    assert not t.contains(t.m_min - 1)
    assert t.contains(t.m_min) and t.contains(t.m_min + 10)


def test_termination_validation():
    with pytest.raises(CriteriaError):
        ampleness_termination(9, 3)   # sharpness not attested
    with pytest.raises(CriteriaError):
        ampleness_termination(0, 3, np_sharp_attested=True)
    with pytest.raises(CriteriaError):
        ampleness_termination(8, 3, np_sharp_attested=True)  # e missing
    with pytest.raises(CriteriaError):
        ampleness_termination(5, 3, e=1, np_sharp_attested=True)
    with pytest.raises(CriteriaError):
        ampleness_termination(9, -1, np_sharp_attested=True)
    with pytest.raises(CriteriaError):
        ampleness_termination(11, 3, np_sharp_attested=True)


# --- equivalence regimes ---------------------------------------------------


def test_equivalence_report_by_regime():
    r = thm_121_equivalence(9)
    assert (r.triple_equivalence, r.np_iff_ample) == (True, 0)
    r = thm_121_equivalence(8, e=2)
    assert (r.triple_equivalence, r.np_iff_ample) == (True, 3)
    r = thm_121_equivalence(5)
    assert (r.triple_equivalence, r.np_iff_ample, r.minus_k_exact_max) == \
        (True, 4, 2)
    r = thm_121_equivalence(5, summand="minus_k")
    assert r.np_iff_ample == 2
    r = thm_121_equivalence(2)
    assert (r.triple_equivalence, r.np_iff_ample) == (False, 1)
    assert thm_121_equivalence(2, summand="minus_k").np_iff_ample is None


def test_equivalence_validation():
    with pytest.raises(CriteriaError):
        thm_121_equivalence(1)
    with pytest.raises(CriteriaError):
        thm_121_equivalence(8)       # e missing
    with pytest.raises(CriteriaError):
        thm_121_equivalence(5, e=0)
    with pytest.raises(CriteriaError):
        thm_121_equivalence(5, summand="minus_2k")


# --- curve reference -------------------------------------------------------


def test_curve_reference_levels():
    v = curve_np_reference(1, 3)
    assert (v.status, v.p, v.assumed) == ("ExactMax", 0, ("elliptic",))
    assert curve_np_reference(1, 10).p == 7
    assert curve_np_reference(1, 2).status == "NotN0"
    assert curve_np_reference(1, 0).status == "NotApplicable"
    v = curve_np_reference(3, 8)
    assert (v.status, v.p) == ("AtLeast", 1)
    assert curve_np_reference(0, 1).status == "AtLeast"
    assert curve_np_reference(3, 6).status == "NotApplicable"
    with pytest.raises(CriteriaError):
        curve_np_reference(-1, 5)


# --- integer arguments -----------------------------------------------------


_INTEGER_REFUSALS = [
    (np_classify_degree, (7.5, ANTI), "t", 7.5),
    (np_classify_degree, (True, ANTI), "t", True),
    (curve_np_reference, (1, 3.5), "degree", 3.5),
    (curve_np_reference, (1, True), "degree", True),
    (curve_np_reference, (True, 5), "genus", True),
    (curve_np_reference, (1.0, 5), "genus", 1.0),
    (adjoint_np_min_n, (3, 2.5), "p", 2.5),
    (adjoint_np_min_n, (3, True), "p", True),
    (adjoint_np_min_n, (3.0, 2), "ksq", 3.0),
    (adjoint_np_min_n, (8, 2, 1.0), "e", 1.0),
    (adjoint_np_min_n, (8, 2, True), "e", True),
    (ampleness_termination, (9, 1.5, None, True, True), "p", 1.5),
    (ampleness_termination, (9, True, None, True, True), "p", True),
    (green_lazarsfeld_failure, (2.5,), "effective_degree", 2.5),
    (reider_np, (3, 50.5, 2, None, True), "Lsq", 50.5),
    (reider_np, (0, 50, 2, True, True), "minus_k_dot_L", True),
    (lemma_125_bound, (3, 50, 1.5, False, True), "p", 1.5),
    (lemma_125_bound, (3, True, 1, False, True), "Lsq", True),
    (verify_inequality_chain, (2, 2.5, 3), "m", 2.5),
    (verify_inequality_chain, (2, 3, True), "ksq", True),
    (thm_121_equivalence, (5.0,), "ksq", 5.0),
    (min_kA_bound, (True,), "ksq", True),
]


@pytest.mark.parametrize("fn, args, name, value", _INTEGER_REFUSALS)
def test_integer_arguments_are_ints_never_coerced(fn, args, name, value):
    # a float or a bool is refused, never answered with a fractional level
    with pytest.raises(CriteriaError,
                       match=f"^{name} must be an integer, got {value!r}$"):
        fn(*args)
