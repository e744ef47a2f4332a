"""Syzygy criteria for polarized Fano n-folds, driven by numeric profiles.

The engine never models an n-fold geometrically: callers supply the
dimension, the index datum (``-K = m * H`` with ``H`` ample and base-point
free), the degree ``H^n``, and optionally ``h^0(H)`` and the behavior of the
morphism induced by ``|H|``.  All verdicts reduce to integer comparisons.

Only the primitive-polarization classification at index ``n - 1`` and the
degree-3 branch of the index ``n - 3`` criterion are equivalences; every
other operation is a sufficient criterion whose ``False``/``Silent`` outcome
means "not established".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypedDict

from .criteria import (
    EXACT_MAX,
    MORPHISM_KINDS,
    MORPHISM_NEITHER,
    MORPHISM_ONTO_MINIMAL_DEGREE_NOT_PN,
    MORPHISM_TWO_TO_ONE_ONTO_PN,
    MORPHISM_UNKNOWN,
    NOT_N0,
    BoolVerdict,
    NpVerdict,
)
from .lattice import fields_json


class FanoError(ValueError):
    """Inconsistent or out-of-scope Fano profile data."""


# morphism kinds that presuppose an image of full dimension in some
# projective space, forcing h0(H) >= n + 1
_FULL_IMAGE_KINDS = (
    MORPHISM_TWO_TO_ONE_ONTO_PN,
    MORPHISM_ONTO_MINIMAL_DEGREE_NOT_PN,
)


def _check_int(name: str, value) -> None:
    # an int, not a bool
    if type(value) is not int:
        raise FanoError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FanoInput:
    """Numeric profile of a polarized Fano n-fold (H ample, base-point free).

    ``m`` is the index datum: ``-K = m * H``.  ``morphism`` describes the
    map induced by ``|H|`` when that is known.
    """

    n: int
    m: int
    Hn: int
    h0H: int | None = None
    morphism: str = MORPHISM_UNKNOWN

    def __post_init__(self) -> None:
        for name in ("n", "m", "Hn", "h0H"):
            value = getattr(self, name)
            # h0(H) may be absent
            if name != "h0H" or value is not None:
                _check_int(name, value)
        if self.n < 2:
            raise FanoError("dimension n must be >= 2")
        if self.m < 1:
            raise FanoError("index datum m must be >= 1")
        if self.Hn < 1:
            raise FanoError("degree H^n must be positive")
        if self.h0H is not None and self.h0H < 0:
            raise FanoError("h0(H) must be nonnegative")
        if self.morphism not in MORPHISM_KINDS:
            raise FanoError(f"unknown morphism kind {self.morphism!r}")
        if (self.morphism in _FULL_IMAGE_KINDS and self.h0H is not None
                and self.h0H < self.n + 1):
            raise FanoError(
                f"h0(H) = {self.h0H} cannot induce a morphism with "
                f"{self.n}-dimensional image (needs >= {self.n + 1})")

    to_json = fields_json


# --- index n-1: the primitive polarization ---------------------------------


def primitive_np(f: FanoInput) -> NpVerdict:
    """Exact syzygy level of H itself when -K = (n-1) H.

    The degree criterion is an equivalence here: N_p holds iff
    ``H^n >= p + 3``, so the verdict is ``ExactMax(H^n - 3)`` for degree at
    least 3 and ``NotN0`` below that.
    """
    if f.m != f.n - 1:
        raise FanoError(f"needs index datum m = n - 1 = {f.n - 1}, got {f.m}")
    assumed = ("ample", "bpf", "anticanonical")
    if f.Hn >= 3:
        return NpVerdict(EXACT_MAX, p=f.Hn - 3,
                         justification="Thm 2.1 + Rmk 2.2", assumed=assumed)
    return NpVerdict(NOT_N0, justification="Thm 2.1 + Rmk 2.2",
                     assumed=assumed, reason=f"H^n = {f.Hn} < 3")


# --- multiples of the polarization -----------------------------------------


class SurfaceProfile(TypedDict, total=False):
    """Numeric profile of a polarized surface (S, B); ``minusK_dot_B`` is
    required, ``is_P2_O1`` marks the plane with its line bundle (-K.B = 3)."""

    minusK_dot_B: int
    is_P2_O1: bool


def multiples_np_surface(B_profile: SurfaceProfile, l: int, p: int) -> BoolVerdict:
    """N_p for l*B on a surface profile: needs -K.B >= 4 (or the plane with
    its line bundle) and l >= p.  Sufficient only."""
    _check_int("l", l)
    _check_int("p", p)
    unknown = set(B_profile) - SurfaceProfile.__optional_keys__
    if unknown:
        raise FanoError(f"unknown profile fields: {sorted(unknown)}")
    if "minusK_dot_B" not in B_profile:
        raise FanoError("profile needs minusK_dot_B")
    if p < 1:
        raise FanoError("needs p >= 1")
    deg = B_profile["minusK_dot_B"]
    plane = B_profile.get("is_P2_O1", False)
    if type(deg) is not int:
        raise FanoError(f"minusK_dot_B must be an integer, got {deg!r}")
    if type(plane) is not bool:
        raise FanoError(f"is_P2_O1 must be a bool, got {plane!r}")
    if plane and deg != 3:
        raise FanoError("the plane with its line bundle has -K.B = 3, "
                        f"got minusK_dot_B = {deg}")
    assumed = ("ample", "bpf")
    if (deg >= 4 or plane) and l >= p:
        return BoolVerdict(True, "Thm 2.6", assumed)
    if l < p:
        return BoolVerdict(False, "Thm 2.6", assumed,
                           reason=f"l = {l} < p = {p}")
    return BoolVerdict(False, "Thm 2.6", assumed,
                       reason=f"-K.B = {deg} < 4 and not the plane with its "
                              "line bundle: criterion silent")


def multiples_np_fano(f: FanoInput, l: int, p: int) -> BoolVerdict:
    """N_p for l*H on a Fano n-fold of index >= n - 1.  Sufficient only:
    true iff l >= p and (index exceeds n - 1 or H^n >= 4)."""
    _check_int("l", l)
    _check_int("p", p)
    if f.m < f.n - 1:
        raise FanoError(f"needs index datum m >= n - 1 = {f.n - 1}, got {f.m}")
    if p < 1:
        raise FanoError("needs p >= 1")
    assumed = ("ample", "bpf")
    if l < p:
        return BoolVerdict(False, "Cor 2.8", assumed,
                           reason=f"l = {l} < p = {p}")
    if f.m > f.n - 1 or f.Hn >= 4:
        return BoolVerdict(True, "Cor 2.8", assumed)
    return BoolVerdict(False, "Cor 2.8", assumed,
                       reason=f"index m = n - 1 needs H^n >= 4, got {f.Hn}")


# --- index n-3 -------------------------------------------------------------

N0_YES = "N0"
N0_NO = "NotN0"
N0_CONDITIONAL = "ConditionalN0"
N0_SILENT = "Silent"


@dataclass(frozen=True)
class FanoN0Decision:
    """Projective-normality decision for kH at index n - 3."""

    status: str
    needed: tuple[str, ...]
    justification: str

    to_json = fields_json


def _require_index_nm3(f: FanoInput) -> None:
    if f.n < 4 or f.m != f.n - 3:
        raise FanoError(
            f"needs index datum m = n - 3 >= 1 (n >= 4); got n = {f.n}, "
            f"m = {f.m}")


def index_nm3_n0(f: FanoInput, k: int) -> FanoN0Decision:
    """Projective normality of kH when -K = (n-3) H.

    k >= 4 always yields N_0.  k = 3 is an equivalence in the morphism
    datum: N_0 holds iff |H| does not map the n-fold 2:1 onto projective
    space; with the morphism unknown the decision is conditional.  k = 2
    needs the morphism to avoid both special shapes; k <= 1 is out of range.
    """
    _check_int("k", k)
    _require_index_nm3(f)
    if k >= 4:
        return FanoN0Decision(N0_YES, (), "Thm 3.1(1)")
    if k == 3:
        if f.morphism == MORPHISM_TWO_TO_ONE_ONTO_PN:
            return FanoN0Decision(N0_NO, (), "Thm 3.1(2)")
        if f.morphism == MORPHISM_UNKNOWN:
            return FanoN0Decision(
                N0_CONDITIONAL,
                (f"morphism != {MORPHISM_TWO_TO_ONE_ONTO_PN}",),
                "Thm 3.1(2)")
        return FanoN0Decision(N0_YES, (), "Thm 3.1(2)")
    if k == 2:
        if f.morphism == MORPHISM_NEITHER:
            return FanoN0Decision(N0_YES, (), "Thm 3.1(3)")
        return FanoN0Decision(N0_SILENT, (), "Thm 3.1(3)")
    return FanoN0Decision(N0_SILENT, (), "Thm 3.1")


def index_nm3_np(f: FanoInput, k: int, p: int) -> BoolVerdict:
    """N_p for kH when -K = (n-3) H: needs h0(H) >= n + 2, k >= p + 2,
    p >= 1.  Sufficient only; an absent h0(H) is an error."""
    _check_int("k", k)
    _check_int("p", p)
    _require_index_nm3(f)
    if f.h0H is None:
        raise FanoError("needs h0(H)")
    assumed = ("ample", "bpf")
    if f.h0H >= f.n + 2 and k >= p + 2 and p >= 1:
        return BoolVerdict(True, "Thm 3.2", assumed)
    if p < 1:
        reason = f"p = {p} < 1"
    elif f.h0H < f.n + 2:
        reason = f"h0(H) = {f.h0H} < n + 2 = {f.n + 2}"
    else:
        reason = f"k = {k} < p + 2 = {p + 2}"
    return BoolVerdict(False, "Thm 3.2", assumed, reason=reason)


# --- pinned reference values ----------------------------------------------

# exact maximal N_p levels for low twists of projective space; the first is
# reproduced by primitive_np (P^3 with H = O(2) has -K = 2H, H^3 = 8), the
# other two come from external syzygy tables and are pinned as lookups
PROJECTIVE_SPACE_TWIST_MAX_NP: dict[tuple[int, int], int] = {
    (3, 2): 5,
    (3, 3): 6,
    (4, 2): 5,
}


def projective_space_twist_max_np(dim: int, k: int) -> NpVerdict:
    """Pinned exact level for O(k) on projective space of small dimension."""
    _check_int("dim", dim)
    _check_int("k", k)
    try:
        level = PROJECTIVE_SPACE_TWIST_MAX_NP[(dim, k)]
    except KeyError:
        raise FanoError(
            f"no pinned level for O({k}) on P^{dim}") from None
    if (dim, k) == (3, 2):
        justification = "Thm 2.1 + Rmk 2.2"
    else:
        justification = "pinned fixture"
    return NpVerdict(EXACT_MAX, p=level, justification=justification,
                     assumed=("ample", "bpf", "anticanonical"))


def surface_induction_base(d: int) -> NpVerdict:
    """The n = 2 base case: an anticanonical surface with (-K)^2 = d,
    polarized by -K itself.  Matches the surface-side classification."""
    if not 1 <= d <= 9:
        raise FanoError("needs 1 <= d <= 9")
    return primitive_np(FanoInput(n=2, m=1, Hn=d))
