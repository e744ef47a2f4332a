"""Decision procedures for syzygy levels of polarized rational surfaces.

Everything here reduces to exact integer (occasionally exact rational)
arithmetic on intersection numbers.  Each procedure returns a verdict object
that carries a short citation tag in its ``justification`` field and, where a
hypothesis was supplied by the caller rather than computed, the list of
assumptions used.  Tags name the source results and are part of the output
data contract; nothing else about the sources is encoded here.

A note on the one-sided results: several procedures are sufficient criteria
only.  Their ``False``/silent outcomes mean "not established by this rule",
never "disproved".  The only equivalences are the anticanonical degree
criterion (``np_classify`` with the anticanonical flag), the elliptic-curve
reference case, and the ampleness/syzygy equivalences reported by
``thm_121_equivalence``.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .lattice import DivisorClass, SurfaceModel, canonical_class


class CriteriaError(ValueError):
    """Raised on inconsistent hypotheses or out-of-scope inputs."""


# --- verdict types ---------------------------------------------------------

EXACT_MAX = "ExactMax"
AT_LEAST = "AtLeast"
NOT_N0 = "NotN0"
NOT_APPLICABLE = "NotApplicable"

_NP_STATUSES = (EXACT_MAX, AT_LEAST, NOT_N0, NOT_APPLICABLE)

# flags under which an exact (if-and-only-if) syzygy level may be asserted
_EXACTNESS_FLAGS = frozenset({"anticanonical", "elliptic"})


@dataclass(frozen=True)
class NpVerdict:
    """Outcome of a syzygy-level classification.

    ``ExactMax(p)``: property N_p holds and N_{p+1} fails.
    ``AtLeast(p)``: N_p holds; nothing asserted about N_{p+1}.
    ``NotN0``: even N_0 (projective normality) fails.
    ``NotApplicable``: the procedure is silent; ``reason`` says why.
    """

    status: str
    p: int | None = None
    justification: str = ""
    assumed: tuple[str, ...] = ()
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.status not in _NP_STATUSES:
            raise CriteriaError(f"unknown verdict status {self.status!r}")
        if self.status in (EXACT_MAX, AT_LEAST):
            if self.p is None or self.p < 0:
                raise CriteriaError(f"{self.status} needs p >= 0, got {self.p}")
        elif self.p is not None:
            raise CriteriaError(f"{self.status} carries no level p")
        if self.status == EXACT_MAX and not _EXACTNESS_FLAGS & set(self.assumed):
            raise CriteriaError(
                "an exact maximal level requires an exactness hypothesis "
                "(anticanonical or elliptic)"
            )
        if not self.justification:
            raise CriteriaError("every verdict carries a justification tag")

    def to_json(self) -> dict:
        obj: dict = {"status": self.status, "justification": self.justification}
        if self.p is not None:
            obj["p"] = self.p
        if self.assumed:
            obj["assumed"] = list(self.assumed)
        if self.reason is not None:
            obj["reason"] = self.reason
        return obj


@dataclass(frozen=True)
class BoolVerdict:
    """A yes/no outcome with its citation tag; falsy means 'not established'."""

    value: bool
    justification: str
    assumed: tuple[str, ...] = ()
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.value

    def to_json(self) -> dict:
        obj: dict = {"value": self.value, "justification": self.justification}
        if self.assumed:
            obj["assumed"] = list(self.assumed)
        if self.reason is not None:
            obj["reason"] = self.reason
        return obj


# --- helpers ---------------------------------------------------------------


def _require_flags(flags, allowed: frozenset[str]) -> dict[str, bool]:
    flags = dict(flags or {})
    unknown = set(flags) - allowed
    if unknown:
        raise CriteriaError(f"unknown flags: {sorted(unknown)}")
    for name, value in flags.items():
        if type(value) is not bool:
            raise CriteriaError(f"flag {name!r} must be a bool, got {value!r}")
    return flags


def _check_ksq(ksq: int) -> None:
    if ksq > 9:
        raise CriteriaError(f"K^2 = {ksq} exceeds the rational-surface range")


def _check_p(p: int) -> None:
    if p < 0:
        raise CriteriaError("p must be >= 0")


def _check_e(ksq: int, e: int | None) -> None:
    """``e`` is the invariant of a minimal Hirzebruch surface F_e."""
    if e is None:
        return
    if ksq != 8:
        raise CriteriaError("e is only meaningful for K^2 = 8")
    if e < 0:
        raise CriteriaError(f"the Hirzebruch invariant e must be >= 0, got {e}")


def green_lazarsfeld_failure(effective_degree: int) -> int:
    """First failing level for K_C + N with N effective of the given degree.

    For a line bundle ``K_C + N`` on a curve with ``N`` effective and nonzero
    of degree ``d``, property N_{d-2} fails.  Returns ``d - 2``.
    """
    if effective_degree < 1:
        raise CriteriaError("needs an effective nonzero twist (degree >= 1)")
    return effective_degree - 2


# --- np_classify -----------------------------------------------------------

_CLASSIFY_FLAGS = frozenset({"ample", "bpf", "anticanonical"})


def np_classify_degree(t: int, flags: Mapping[str, bool]) -> NpVerdict:
    """Classify from the anticanonical degree ``t = -K.L`` alone.

    With the anticanonical flag and ``L`` ample the degree criterion is an
    equivalence: N_p holds iff ``t >= p + 3``, so the verdict is
    ``ExactMax(t - 3)`` for ``t >= 3`` and ``NotN0`` below that.  Without the
    anticanonical flag the same bound is one-sided and needs ``L`` ample and
    base-point free: ``AtLeast(t - 3)`` when ``t >= 3``, otherwise silent.
    The two attestations together with ``t < 1`` contradict each other (an
    ample ``L`` meets the nonzero effective ``-K`` positively) and are
    refused.
    """
    f = _require_flags(flags, _CLASSIFY_FLAGS)
    if not f.get("ample"):
        raise CriteriaError("np_classify requires the ample flag")
    if f.get("anticanonical"):
        assumed = ("ample", "anticanonical")
        if t >= 3:
            return NpVerdict(EXACT_MAX, p=t - 3, justification="Thm 1.3 iff",
                             assumed=assumed)
        if t < 1:
            raise CriteriaError(
                f"-K.L = {t} < 1 contradicts the ample and anticanonical "
                "attestations: an ample L meets the nonzero effective -K "
                "positively")
        # -K restricts to an effective nonzero class on a member of |-K|,
        # so N_{t-2} fails with t - 2 <= 0
        return NpVerdict(
            NOT_N0, justification="Thm 1.3 iff", assumed=assumed,
            reason=f"-K.L = {t} < 3: N_{green_lazarsfeld_failure(t)} "
                   "already fails",
        )
    if not f.get("bpf"):
        return NpVerdict(
            NOT_APPLICABLE, justification="Thm 1.2",
            reason="base-point-freeness not attested and not derivable here",
        )
    if t >= 3:
        return NpVerdict(AT_LEAST, p=t - 3, justification="Thm 1.2",
                         assumed=("ample", "bpf"))
    return NpVerdict(
        NOT_APPLICABLE, justification="Thm 1.2",
        reason=f"-K.L = {t} < 3: the sufficient bound is silent",
    )


def np_classify(surface: SurfaceModel, L: DivisorClass,
                flags: Mapping[str, bool]) -> NpVerdict:
    """Classify the syzygy level of ``(surface, L)`` from ``-K.L``."""
    if L.surface != surface:
        raise CriteriaError("L does not live on the given surface")
    t = -canonical_class(surface).dot(L)
    return np_classify_degree(t, flags)


# --- bpf_check -------------------------------------------------------------


def bpf_check(surface: SurfaceModel, L: DivisorClass,
              flags: Mapping[str, bool]) -> BoolVerdict:
    """Sufficient base-point-freeness test on an anticanonical surface.

    Needs ``L`` nef (attested) and the anticanonical flag; then ``-K.L >= 2``
    guarantees base-point freedom.  ``False`` means not established.
    """
    f = _require_flags(flags, frozenset({"nef", "anticanonical"}))
    if not f.get("anticanonical"):
        raise CriteriaError("bpf_check applies to anticanonical surfaces only")
    if not f.get("nef"):
        raise CriteriaError("bpf_check requires L nef (attested)")
    t = -canonical_class(surface).dot(L)
    if t >= 2:
        return BoolVerdict(True, justification="Harbourne bpf",
                           assumed=("nef", "anticanonical"))
    return BoolVerdict(False, justification="Harbourne bpf",
                       assumed=("nef", "anticanonical"),
                       reason=f"-K.L = {t} < 2: not established")


# --- adjoint_very_ample ----------------------------------------------------

VA_VERY_AMPLE = "VeryAmple"
VA_EXCEPTION = "ExceptionListed"
VA_NOT_GUARANTEED = "NotGuaranteed"


@dataclass(frozen=True)
class VAVerdict:
    """Very-ampleness verdict for an adjoint sum K + A_1 + ... + A_n."""

    status: str
    case: str | None
    justification: str

    def __bool__(self) -> bool:
        return self.status == VA_VERY_AMPLE

    def to_json(self) -> dict:
        return {"status": self.status, "case": self.case,
                "justification": self.justification}


_SUMMAND_TAGS = frozenset({"minus_k", "minus_2k", "minus_3k", "other"})


def _summand_tags(summands) -> tuple[str, ...]:
    tags = tuple(summands)
    unknown = set(tags) - _SUMMAND_TAGS
    if unknown:
        raise CriteriaError(f"unknown summand tags: {sorted(unknown)}")
    return tags


def adjoint_very_ample(ksq: int, summands: Sequence[str]) -> VAVerdict:
    """Very ampleness of K + A_1 + ... + A_n for ample A_i, by K^2 regime.

    ``summands`` is a sequence of tags (one per A_i) from
    {"minus_k", "minus_2k", "minus_3k", "other"} describing which A_i are
    proportional to the anticanonical class.  The count thresholds depend on
    K^2; the two listed exception shapes return ``ExceptionListed`` and
    anything below threshold returns ``NotGuaranteed``.
    """
    _check_ksq(ksq)
    tags = _summand_tags(summands)
    n = len(tags)
    if n < 1:
        raise CriteriaError("need at least one ample summand")
    multiset = sorted(tags)

    def ok(case: str) -> VAVerdict:
        return VAVerdict(VA_VERY_AMPLE, case, f"Prop 1.6({case})")

    def short(case: str) -> VAVerdict:
        return VAVerdict(VA_NOT_GUARANTEED, case, f"Prop 1.6({case})")

    def exception(case: str) -> VAVerdict:
        return VAVerdict(VA_EXCEPTION, case, f"Prop 1.6({case})")

    if ksq == 9:
        return ok("1") if n >= 4 else short("1")
    if ksq == 8:
        return ok("2") if n >= 3 else short("2")
    if 3 <= ksq <= 7:
        return ok("3") if n >= 2 else short("3")
    if ksq == 2:
        if n >= 3:
            return ok("4")
        if n == 2:
            if multiset == ["minus_k", "minus_k"]:
                return exception("4")
            return ok("4")
        return short("4")
    if ksq == 1:
        if n >= 4:
            return ok("5")
        if n == 3:
            if multiset == ["minus_k", "minus_k", "minus_k"]:
                return exception("5b")
            return ok("5")
        if n == 2:
            if multiset in (["minus_k", "minus_k"], ["minus_2k", "minus_k"]):
                return exception("5a")
            return ok("5")
        return short("5")
    if ksq == 0:
        return ok("6") if n >= 3 else short("6")
    return ok("7") if n >= 2 else short("7")


# --- min_kA_bound ----------------------------------------------------------

EXC_MINUS_K = "minus_k"
EXC_MINUS_2K_KSQ1 = "minus_2k_ksq1"
EXC_MINUS_3K_KSQ1 = "minus_3k_ksq1"
EXC_MINUS_2K_KSQ2 = "minus_2k_ksq2"
EXC_CONIC = "conic_fibration"


@dataclass(frozen=True)
class MinusKBoundReport:
    """Lower bound on -K.A for an ample A, with any exception that fired.

    ``exact`` marks the cases where the bound is attained with equality by
    the named exceptional shape; otherwise ``bound`` is a plain lower bound.
    """

    bound: int
    exception: str | None
    exact: bool
    justification: str

    def to_json(self) -> dict:
        return {"bound": self.bound, "exception": self.exception,
                "exact": self.exact, "justification": self.justification}


def min_kA_bound(ksq: int, summand: str = "other", e: int | None = None,
                 conic_fibration: bool = False) -> MinusKBoundReport:
    """Sharp lower bound for -K.A over ample A, by K^2 regime.

    ``summand`` tags A itself ({"minus_k","minus_2k","minus_3k","other"});
    ``conic_fibration`` marks the attested shape where the adjoint system
    maps onto a pencil of conics.  For minimal Hirzebruch input pass
    ``ksq = 8`` with ``e`` set; ``e = None`` means the blown-up K^2 = 8 case.
    """
    _check_ksq(ksq)
    if summand not in _SUMMAND_TAGS:
        raise CriteriaError(f"unknown summand tag {summand!r}")
    _check_e(ksq, e)
    if ksq == 9:
        return MinusKBoundReport(3, None, False, "Prop 1.9")
    if ksq == 8:
        if e is not None:
            return MinusKBoundReport(e + 4, None, False, "Prop 1.9")
        return MinusKBoundReport(4, None, False, "Prop 1.9")
    if 1 <= ksq <= 7:
        if summand == "minus_k":
            return MinusKBoundReport(ksq, EXC_MINUS_K, True, "Prop 1.10(a)")
        if ksq == 1 and summand == "minus_2k":
            return MinusKBoundReport(2, EXC_MINUS_2K_KSQ1, True, "Prop 1.10(b)")
        if ksq == 1 and summand == "minus_3k":
            return MinusKBoundReport(3, EXC_MINUS_3K_KSQ1, True, "Prop 1.10(c)")
        if ksq == 2 and summand == "minus_2k":
            return MinusKBoundReport(4, EXC_MINUS_2K_KSQ2, True, "Prop 1.10(d)")
        if conic_fibration:
            return MinusKBoundReport(ksq + 2, EXC_CONIC, False, "Prop 1.10(e)")
        return MinusKBoundReport(ksq + 3, None, False, "Prop 1.10")
    # K^2 <= 0: no better uniform bound than ampleness itself (-K.A >= 1 is
    # attained by explicit families at every K^2 in this range)
    return MinusKBoundReport(1, None, False, "Prop 1.10 range edge")


# --- adjoint_np_min_n ------------------------------------------------------

_EXCLUDE_TAGS = frozenset({"minus_k", "minus_2k", "minus_3k", "conic_fibration"})


@dataclass(frozen=True)
class MinNResult:
    """Minimal number n of ample summands making K + A_1 + ... + A_n
    satisfy N_p, for the given K^2 regime and exclusion set."""

    n: int
    case: str
    justification: str

    def to_json(self) -> dict:
        return {"n": self.n, "case": self.case,
                "justification": self.justification}


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def adjoint_np_min_n(ksq: int, p: int, e: int | None = None,
                     exclude: Collection[str] = ()) -> MinNResult:
    """Table of minimal n with K + A_1 + ... + A_n satisfying N_p.

    ``exclude`` lists shapes the A_i are promised to avoid (tags from
    {"minus_k", "minus_2k", "minus_3k", "conic_fibration"}).  Supplying
    exclusions can only lower the answer; an exclusion set that does not
    match a stronger table row falls back to the unconditional row.
    """
    _check_p(p)
    _check_ksq(ksq)
    exclude = frozenset(exclude)
    unknown = exclude - _EXCLUDE_TAGS
    if unknown:
        raise CriteriaError(f"unknown exclusion tags: {sorted(unknown)}")
    if exclude and not 1 <= ksq <= 7:
        raise CriteriaError("exclusion regimes only exist for 1 <= K^2 <= 7")
    _check_e(ksq, e)

    def res(n: int, case: str) -> MinNResult:
        return MinNResult(n, case, f"Thm 1.23({case})")

    if ksq == 9:
        return res(_ceil_div(p, 3) + 4, "1")
    if ksq == 8:
        if e is not None:
            return res(max(3, _ceil_div(p + 11, e + 4)), "2")
        return res(_ceil_div(p + 3, 4) + 2, "2")
    if 1 <= ksq <= 7:
        req5 = {"minus_k", "conic_fibration"} | ({"minus_2k"} if ksq == 2 else set())
        req4 = {"minus_k"} | ({"minus_2k"} if ksq == 1 else set())
        if 2 <= ksq <= 7 and exclude >= req5:
            return res(max(2, _ceil_div(p + ksq + 3, ksq + 3)), "5")
        if exclude >= req4:
            return res(_ceil_div(p + ksq + 3, ksq + 2), "4")
        return res(_ceil_div(p + 3, ksq) + 1, "3")
    if ksq >= -1:
        return res(p + 3 + ksq, "6")
    return res(max(2, p + 3 + ksq), "7")


# --- reider_np -------------------------------------------------------------


def reider_np(ksq: int, Lsq: int, p: int, minus_k_dot_L: int | None = None,
              cond1_attested: bool = False, adjoint_very_ample: bool = False,
              multiple_of_minus_k: bool = False) -> BoolVerdict:
    """Reider-style sufficient N_p test from L^2 (or -K.L when K^2 <= 0).

    Entry requires one of two attested hypotheses: ``cond1_attested``
    (L meets every curve at least 3 times and L^2 >= 10) or
    ``adjoint_very_ample`` (K + L very ample).  Then for K^2 >= 1 the test
    accepts when L^2 >= (p+3)^2 + 1, or when L^2 >= (p+3)^2 - 1 provided L
    is not a multiple of -K with K^2 = 1.  For K^2 <= 0 only the degree
    gate -K.L >= p + 3 applies; the quadratic gates are unsound there.
    """
    _check_p(p)
    if not (cond1_attested or adjoint_very_ample):
        raise CriteriaError(
            "entry hypothesis missing: attest cond1 (L.C >= 3 on every curve "
            "and L^2 >= 10) or K + L very ample"
        )
    assumed = tuple(
        t for t, on in (("cond1", cond1_attested),
                        ("adjoint_very_ample", adjoint_very_ample)) if on
    )
    if ksq >= 1:
        box = (p + 3) ** 2
        if Lsq >= box + 1:
            return BoolVerdict(True, "Thm 1.24 gate 2a", assumed)
        blocked = ksq == 1 and multiple_of_minus_k
        if not blocked and Lsq >= box - 1:
            return BoolVerdict(True, "Thm 1.24 gate 2b",
                               assumed + ("not multiple of -K at K^2=1",))
        return BoolVerdict(False, "Thm 1.24", assumed,
                           reason=f"L^2 = {Lsq} below the applicable gates "
                                  f"for p = {p}")
    if minus_k_dot_L is None:
        raise CriteriaError("K^2 <= 0 needs -K.L (the quadratic gates do not "
                            "apply in this range)")
    if minus_k_dot_L >= p + 3:
        return BoolVerdict(True, "Thm 1.24 gate 2c", assumed)
    return BoolVerdict(False, "Thm 1.24", assumed,
                       reason=f"-K.L = {minus_k_dot_L} < p + 3 = {p + 3}")


# --- lemma_125_bound -------------------------------------------------------


def lemma_125_bound(ksq: int, Lsq: int, p: int,
                    multiple_of_minus_k: bool = False,
                    adjoint_effective: bool = False) -> int | None:
    """Degree bound -K.L >= p + 3 + K^2 implied by a quadratic bound on L^2.

    Scope: 1 <= K^2 <= 8 (so not the plane), K + L effective (attested),
    p >= 1 (p >= 2 when K^2 = 8), and L not a multiple of -K when K^2 = 1.
    Returns ``p + 3 + ksq`` when ``L^2 >= (p+3)^2 - 1``, else ``None``.
    """
    if not 1 <= ksq <= 8:
        raise CriteriaError("needs 1 <= K^2 <= 8")
    if not adjoint_effective:
        raise CriteriaError("needs K + L effective (attested)")
    min_p = 2 if ksq == 8 else 1
    if p < min_p:
        raise CriteriaError(f"needs p >= {min_p} for K^2 = {ksq}")
    if ksq == 1 and multiple_of_minus_k:
        raise CriteriaError("excluded shape: multiple of -K with K^2 = 1")
    if Lsq >= (p + 3) ** 2 - 1:
        return p + 3 + ksq
    return None


def verify_inequality_chain(p: int, m: int, ksq: int) -> tuple[bool, bool, bool]:
    """The three integer inequalities behind ``lemma_125_bound``.

    For p >= 1, m >= 2, 1 <= K^2 <= 8 (p >= 2 when K^2 = 8):

    1. p^2 + 3p + 3 - K^2 >= 0
    2. (p-m)^2 + 5(p-m) + 6 >= 0, with equality exactly at p - m in {-2, -3}
    3. p^2 + (5-2m)p + (2m^2 - 6m + 4) > 0
    """
    if not 1 <= ksq <= 8:
        raise CriteriaError("needs 1 <= K^2 <= 8")
    min_p = 2 if ksq == 8 else 1
    if p < min_p or m < 2:
        raise CriteriaError(f"needs p >= {min_p} and m >= 2")
    d = p - m
    ineq1 = p * p + 3 * p + 3 - ksq >= 0
    ineq2 = d * d + 5 * d + 6 >= 0
    ineq3 = p * p + (5 - 2 * m) * p + (2 * m * m - 6 * m + 4) > 0
    return ineq1, ineq2, ineq3


# --- ampleness_termination -------------------------------------------------


@dataclass(frozen=True)
class TerminationThreshold:
    """Integer range of twists m for which mK + L stops being ample.

    ``direction`` is "above" (all m >= m_min give non-ample mK + L) or
    "below" (all m <= m_max do).  ``boundary`` is the exact rational
    threshold the integer cutoff was derived from.
    """

    case: str
    direction: str
    boundary: Fraction
    m_min: int | None
    m_max: int | None
    justification: str

    def contains(self, m: int) -> bool:
        """Is mK + L asserted non-ample at this integer twist?"""
        if self.direction == "above":
            return m >= self.m_min
        return m <= self.m_max

    def to_json(self) -> dict:
        return {
            "case": self.case, "direction": self.direction,
            "boundary": [self.boundary.numerator, self.boundary.denominator],
            "m_min": self.m_min, "m_max": self.m_max,
            "justification": self.justification,
        }


def ampleness_termination(ksq: int, p: int, e: int | None = None,
                          multiple_of_minus_k: bool = True,
                          np_sharp_attested: bool = False) -> TerminationThreshold:
    """Twist range where mK + L cannot stay ample, given L exactly N_p.

    Precondition (attested): L is ample, satisfies N_p, and fails N_{p+1};
    on these surfaces that pins -K.L = p + 3.  The threshold depends on the
    K^2 regime; for 1 <= K^2 <= 7 a promise that L is not a multiple of -K
    sharpens it.  K^2 = 0 admits no such threshold and is an error, as is
    K^2 = 8 without the Hirzebruch invariant ``e``.
    """
    _check_p(p)
    if not np_sharp_attested:
        raise CriteriaError(
            "needs the sharp syzygy level attested (N_p holds, N_{p+1} fails)"
        )
    _check_ksq(ksq)
    if ksq == 0:
        raise CriteriaError("K^2 = 0 supports no termination threshold "
                            "(K is a fiber class there)")
    _check_e(ksq, e)

    def above(case: str, q: Fraction) -> TerminationThreshold:
        m_min = q.numerator // q.denominator + 1  # floor(q) + 1: least m > q
        return TerminationThreshold(case, "above", q, m_min, None,
                                    f"Thm 1.29({case})")

    if ksq == 9:
        return above("a", Fraction(p, 9))
    if ksq == 8:
        if e is None:
            raise CriteriaError("K^2 = 8 needs the Hirzebruch invariant e")
        return above("b", Fraction(p - e - 1, 8))
    if ksq >= 1:
        if multiple_of_minus_k:
            return above("c", Fraction(p + 3, ksq) - 1)
        return above("d", Fraction(p + 1, ksq) - 1)
    # ksq < 0: the inequality flips
    q = Fraction(p + 2, ksq)
    if q.denominator == 1:
        m_max = q.numerator - 1  # strict: greatest integer < q
    else:
        m_max = q.numerator // q.denominator
    return TerminationThreshold("e", "below", q, None, m_max, "Thm 1.29(e)")


# --- thm_121_equivalence ---------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """How ampleness, very ampleness, and syzygy levels align for -K-multiples.

    ``triple_equivalence``: ample, very ample, and N_0 coincide for the
    adjoint-type bundles in this regime.  ``np_iff_ample``: the level p such
    that N_p holds iff the bundle is ample (for the given summand tag).
    ``minus_k_exact_max``: for the anticanonical bundle itself, the exact
    maximal level, when the regime pins one.
    """

    ksq: int
    triple_equivalence: bool
    np_iff_ample: int | None
    minus_k_exact_max: int | None
    justification: str

    def to_json(self) -> dict:
        return {
            "ksq": self.ksq, "triple_equivalence": self.triple_equivalence,
            "np_iff_ample": self.np_iff_ample,
            "minus_k_exact_max": self.minus_k_exact_max,
            "justification": self.justification,
        }


def thm_121_equivalence(ksq: int, summand: str = "other",
                        e: int | None = None) -> EquivalenceReport:
    """Ampleness/very-ampleness/N_p equivalences by K^2 regime.

    ``summand`` tags the bundle ({"minus_k", "other"}).  K^2 < 2 is out of
    scope.  K^2 = 8 is the minimal Hirzebruch case and needs ``e``.
    """
    if ksq < 2:
        raise CriteriaError("needs K^2 >= 2")
    _check_ksq(ksq)
    if summand not in ("minus_k", "other"):
        raise CriteriaError(f"unknown summand tag {summand!r}")
    _check_e(ksq, e)
    tag = "Thm 1.21"
    if ksq == 9:
        return EquivalenceReport(9, True, 0, None, tag)
    if ksq == 8:
        if e is None:
            raise CriteriaError("K^2 = 8 needs the Hirzebruch invariant e")
        return EquivalenceReport(8, True, e + 1, None, tag)
    if ksq >= 3:
        level = ksq - 3 if summand == "minus_k" else ksq - 1
        return EquivalenceReport(ksq, True, level, ksq - 3, tag)
    # ksq == 2: only the N_1 rider survives, and -K itself is excluded
    level = None if summand == "minus_k" else 1
    return EquivalenceReport(2, False, level, None, "Prop 1.22")


# --- curve_np_reference ----------------------------------------------------


def curve_np_reference(genus: int, degree: int) -> NpVerdict:
    """Reference syzygy facts for a line bundle of given degree on a curve.

    Elliptic curves give an equivalence: N_p iff degree >= p + 3, hence
    ``ExactMax(degree - 3)`` (or NotN0 below degree 3).  For other genera
    only the one-sided bound applies (Green): degree >= 2g + 1 + p gives N_p,
    hence ``AtLeast(degree - 2g - 1)``; below 2g + 1 the procedure is silent.
    """
    if genus < 0:
        raise CriteriaError("genus must be >= 0")
    if genus == 1:
        if degree >= 3:
            return NpVerdict(EXACT_MAX, p=degree - 3, justification="Rmk 1.5",
                             assumed=("elliptic",))
        if degree >= 1:
            return NpVerdict(NOT_N0, justification="Rmk 1.5",
                             assumed=("elliptic",),
                             reason=f"degree {degree} < 3")
        return NpVerdict(NOT_APPLICABLE, justification="Rmk 1.5",
                         reason="degree <= 0 carries no embedding")
    if degree >= 2 * genus + 1:
        return NpVerdict(AT_LEAST, p=degree - 2 * genus - 1,
                         justification="Green 4.a.1")
    return NpVerdict(NOT_APPLICABLE, justification="Green 4.a.1",
                     reason=f"degree {degree} < 2g + 1 = {2 * genus + 1}")
