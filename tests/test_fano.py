"""Higher-dimensional (Fano) criteria driven by numeric profiles."""

import pytest

from npsurf.criteria import np_classify_degree
from npsurf.fano import (
    MORPHISM_KINDS,
    PROJECTIVE_SPACE_TWIST_MAX_NP,
    FanoError,
    FanoInput,
    index_nm3_n0,
    index_nm3_np,
    multiples_np_fano,
    multiples_np_surface,
    primitive_np,
    projective_space_twist_max_np,
    surface_induction_base,
)


# --- input profile ---------------------------------------------------------


def test_input_validation():
    with pytest.raises(FanoError):
        FanoInput(1, 1, 3)
    with pytest.raises(FanoError):
        FanoInput(3, 0, 3)
    with pytest.raises(FanoError):
        FanoInput(3, 2, 0)
    with pytest.raises(FanoError):
        FanoInput(3, 2, 3, h0H=-1)
    with pytest.raises(FanoError):
        FanoInput(3, 2, 3, morphism="embedding")
    # a morphism with n-dimensional image needs at least n+1 sections
    with pytest.raises(FanoError):
        FanoInput(4, 1, 3, h0H=4, morphism="two_to_one_onto_pn")
    f = FanoInput(4, 1, 3, h0H=5, morphism="two_to_one_onto_pn")
    assert f.morphism in MORPHISM_KINDS


@pytest.mark.parametrize("fields", [
    {"Hn": 8.5}, {"n": 3.0}, {"m": True}, {"h0H": 6.0}, {"Hn": "8"},
    {"n": None}, {"h0H": False}])
def test_input_refuses_what_is_not_an_integer(fields):
    name, value = next(iter(fields.items()))
    with pytest.raises(FanoError,
                       match=f"^{name} must be an integer, got {value!r}$"):
        FanoInput(**{"n": 3, "m": 2, "Hn": 8, **fields})


def test_input_json_omits_defaults():
    assert FanoInput(3, 2, 8).to_json() == {"n": 3, "m": 2, "Hn": 8}
    full = FanoInput(4, 1, 2, h0H=6, morphism="neither_of_those").to_json()
    assert full == {"n": 4, "m": 1, "Hn": 2, "h0H": 6,
                    "morphism": "neither_of_those"}


# --- primitive polarization (index n-1) ------------------------------------


def test_primitive_polarization_is_an_equivalence_in_the_degree():
    for d in range(3, 12):
        v = primitive_np(FanoInput(3, 2, d))
        assert (v.status, v.p) == ("ExactMax", d - 3)
        assert "anticanonical" in v.assumed
    v = primitive_np(FanoInput(3, 2, 2))
    assert v.status == "NotN0" and v.reason
    with pytest.raises(FanoError):
        primitive_np(FanoInput(3, 1, 5))


def test_surface_base_case_matches_the_surface_classification():
    for d in range(1, 10):
        v = surface_induction_base(d)
        w = np_classify_degree(d, {"ample": True, "anticanonical": True})
        assert (v.status, v.p) == (w.status, w.p)
    with pytest.raises(FanoError):
        surface_induction_base(0)
    with pytest.raises(FanoError):
        surface_induction_base(10)


# --- multiples of the polarization -----------------------------------------


def test_multiples_on_a_surface_profile():
    assert multiples_np_surface({"minusK_dot_B": 4}, 3, 3)
    assert multiples_np_surface({"minusK_dot_B": 3, "is_P2_O1": True}, 2, 2)
    low = multiples_np_surface({"minusK_dot_B": 4}, 1, 2)
    assert not low and "l = 1 < p = 2" in low.reason
    silent = multiples_np_surface({"minusK_dot_B": 3}, 5, 2)
    assert not silent and "silent" in silent.reason
    with pytest.raises(FanoError):
        multiples_np_surface({"deg": 4}, 2, 2)
    with pytest.raises(FanoError):
        multiples_np_surface({}, 2, 2)
    with pytest.raises(FanoError):
        multiples_np_surface({"minusK_dot_B": 4}, 2, 0)


@pytest.mark.parametrize("profile", [
    {"minusK_dot_B": 4.9},
    {"minusK_dot_B": "4"},
    {"minusK_dot_B": True},
    {"minusK_dot_B": 1, "is_P2_O1": "no"},
    {"minusK_dot_B": 1, "is_P2_O1": 1},
])
def test_surface_profile_values_are_never_coerced(profile):
    with pytest.raises(FanoError, match="must be"):
        multiples_np_surface(profile, 2, 2)


def test_multiples_on_a_surface_refuse_a_twist_that_is_not_an_integer():
    with pytest.raises(FanoError, match="^l must be an integer, got 2.5$"):
        multiples_np_surface({"minusK_dot_B": 5}, 2.5, 1)
    with pytest.raises(FanoError, match="^p must be an integer, got True$"):
        multiples_np_surface({"minusK_dot_B": 5}, 2, True)


def test_multiples_on_a_fano_profile():
    assert multiples_np_fano(FanoInput(4, 4, 2), 3, 3)   # index above n-1
    assert multiples_np_fano(FanoInput(4, 3, 4), 2, 2)   # degree rescue
    tight = multiples_np_fano(FanoInput(4, 3, 3), 2, 2)
    assert not tight and "H^n >= 4" in tight.reason
    assert not multiples_np_fano(FanoInput(4, 4, 9), 1, 2)
    with pytest.raises(FanoError):
        multiples_np_fano(FanoInput(4, 2, 3), 2, 2)
    with pytest.raises(FanoError):
        multiples_np_fano(FanoInput(4, 3, 3), 2, 0)


def test_multiples_on_a_fano_profile_refuse_a_twist_that_is_not_an_integer():
    with pytest.raises(FanoError, match="^l must be an integer, got 3.5$"):
        multiples_np_fano(FanoInput(4, 4, 2), 3.5, True)
    with pytest.raises(FanoError, match="^p must be an integer, got True$"):
        multiples_np_fano(FanoInput(4, 4, 2), 3, True)


# --- index n-3 -------------------------------------------------------------


def test_low_index_projective_normality_decision():
    f = FanoInput(4, 1, 3)
    assert index_nm3_n0(f, 5).status == "N0"
    assert index_nm3_n0(f, 3).status == "ConditionalN0"
    assert index_nm3_n0(f, 3).needed == \
        ("morphism != two_to_one_onto_pn",)
    two = FanoInput(4, 1, 3, h0H=6, morphism="two_to_one_onto_pn")
    assert index_nm3_n0(two, 3).status == "NotN0"
    nice = FanoInput(4, 1, 3, morphism="neither_of_those")
    assert index_nm3_n0(nice, 3).status == "N0"
    assert index_nm3_n0(nice, 2).status == "N0"
    assert index_nm3_n0(f, 2).status == "Silent"
    assert index_nm3_n0(f, 1).status == "Silent"
    obj = index_nm3_n0(f, 4).to_json()
    assert obj["status"] == "N0" and obj["needed"] == []
    with pytest.raises(FanoError):
        index_nm3_n0(FanoInput(3, 2, 3), 4)   # m != n - 3
    with pytest.raises(FanoError):
        index_nm3_n0(FanoInput(4, 2, 3), 4)


def test_low_index_decision_refuses_a_twist_that_is_not_an_integer():
    with pytest.raises(FanoError, match="^k must be an integer, got 4.5$"):
        index_nm3_n0(FanoInput(5, 2, 3), 4.5)
    with pytest.raises(FanoError, match="^k must be an integer, got False$"):
        index_nm3_n0(FanoInput(5, 2, 3), False)


def test_low_index_syzygy_levels():
    f = FanoInput(5, 2, 3, h0H=7)
    assert index_nm3_np(f, 4, 2)
    short = index_nm3_np(f, 3, 2)
    assert not short and "k = 3 < p + 2 = 4" in short.reason
    few = index_nm3_np(FanoInput(5, 2, 3, h0H=6), 9, 2)
    assert not few and "h0(H) = 6 < n + 2 = 7" in few.reason
    zero = index_nm3_np(f, 9, 0)
    assert not zero and "p = 0 < 1" in zero.reason
    with pytest.raises(FanoError):
        index_nm3_np(FanoInput(5, 2, 3), 4, 2)   # h0H absent


def test_low_index_levels_refuse_a_twist_that_is_not_an_integer():
    f = FanoInput(5, 2, 3, h0H=7)
    with pytest.raises(FanoError, match="^k must be an integer, got 9.0$"):
        index_nm3_np(f, 9.0, 2)
    with pytest.raises(FanoError, match="^p must be an integer, got True$"):
        index_nm3_np(f, 9, True)


# --- pinned twists ---------------------------------------------------------


def test_projective_space_twist_pins():
    assert PROJECTIVE_SPACE_TWIST_MAX_NP == {(3, 2): 5, (3, 3): 6, (4, 2): 5}
    v = projective_space_twist_max_np(3, 2)
    assert v.p == 5 and v.justification == "Thm 2.1 + Rmk 2.2"
    # the (3, 2) pin is reproduced by the primitive criterion: -K = 2H,
    # H^3 = 8 on the quadric-free profile of projective 3-space
    assert primitive_np(FanoInput(3, 2, 8)).p == 5
    assert projective_space_twist_max_np(3, 3).p == 6
    assert projective_space_twist_max_np(4, 2).justification == \
        "pinned fixture"
    with pytest.raises(FanoError):
        projective_space_twist_max_np(5, 2)


@pytest.mark.parametrize("dim, k, name", [(3.0, 2.0, "dim"), (3, 2.0, "k"),
                                         (True, 2, "dim"), (3, True, "k")])
def test_projective_space_twist_arguments_are_ints(dim, k, name):
    # 3.0 would hash like 3 and find the (3, 2) pin
    with pytest.raises(FanoError, match=f"^{name} must be an integer"):
        projective_space_twist_max_np(dim, k)


def test_decisions_never_weaken_with_more_positivity():
    rank = {"NotN0": 0, "Silent": 1, "ConditionalN0": 2, "N0": 3}
    f = FanoInput(6, 3, 2)
    grades = [rank[index_nm3_n0(f, k).status] for k in range(2, 7)]
    assert grades == sorted(grades)
    for l in range(1, 6):
        for lplus in range(l, 6):
            a = bool(multiples_np_fano(FanoInput(4, 4, 2), l, 2))
            b = bool(multiples_np_fano(FanoInput(4, 4, 2), lplus, 2))
            assert b or not a   # more twisting never loses the property
