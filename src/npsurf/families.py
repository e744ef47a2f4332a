"""Reference families of polarized rational surfaces, with ampleness checks.

``FAMILIES`` is the one table of reference families.  Each row holds the
family's builder, its parameter domain as ``range``s (a step of 2 carries a
parity), and its syzygy flags.  ``build_example`` validates a request against
its row and assembles the instance; ``FAMILY_IDS`` and ``FAMILY_SWEEPS`` (the
product of each row's ranges) derive from the table.

Each builder returns the polarization, whose surface is the instance's, and
a claims function mapping a polarization to the family's named integers; the
builders hold no expected values.  Examples 1.11-1.20 state one claim set,
made by one rule, ``_adjoint_claims``: ``K2``, ``A2``, ``-K.A``, the residual
of ``K + mA - X`` for the example's m and class X, and at most one more
integer read off ``K + mA``.  Obs1.4 states a different set (``-K.L``,
``chi(-K - L)``) and keeps its own claims function.

What does not depend on the polarization is built once.  ``build_example``
validates every request, but builds each instance once per table row and
parameters and returns that same frozen object after it; the builder makes
the fixed classes its claims subtract or pair with (and ``K2``) once, outside
the claims function; the instance reads its claim names and its instance
key once; a certificate computes its validity once.  ``verify_example``
recomputes all that depends on the polarization on every call: the claims,
the certificate, the oracle and the syzygy verdict; it decides ampleness,
agreement and the failures from those results and builds its report, which
holds those decisions, once.
The frozen fixture table shipped in ``data/examples.json`` is the only
expectation: ``verify_example`` recomputes every claim from the lattice, runs
the ampleness certificate and the brute-force oracle, classifies the syzygy
level, and diffs the results against the instance's pins; a ``null``
ampleness pin holds only where both the certificate and the oracle refuse.

Ampleness is checked twice, against one admissible-curve model per surface.
``_model`` reads the model off the surface alone: the cone of base classes
(bare surfaces and zero-point blow-ups); the exceptional curves, fiber and
section/fiber span of the cubic-pencil blow-up; or, for points on the
anticanonical curve C, the exceptional curves, the strict transform of every
base class with its worst-case point load (a per-point cap, and ``C.T``
points in all), and C itself.  Where no model applies, ampleness is attested
and both checks refuse.  The two checks are:

* ``nakai_certificate``: a short list of closed curve-case checks (corner
  and direction margins of linear bounds) from the model's certificate body,
  sufficient by construction.  It records the ``PointConfig`` flags the
  model reads as its assumptions.
* ``ample_oracle``: exhaustive minimization of ``D.T`` over the model of
  the divisor's own surface, for candidate classes inside a search box
  (``DEFAULT_BOX`` unless the caller passes one, never above ``MAX_BOX``).
  It takes the minimum in one streaming pass of integer arithmetic, so its
  memory does not grow with the box.  Verification always searches
  ``DEFAULT_BOX``.

The certificate bodies and the candidate generators read the polarization's
pairings from the same two linear forms: ``_weights`` on the exceptional
curves and ``_base_form`` on pulled-back base classes.  On F_e the classes
(1,0) and (0,1) take their point budgets from ``_ruling_budgets``, which both
checks read, as they read C (``_anticanonical``) and, for points on C, the
heaviest point loads: ``_loads`` gives both the positive weights in descending
order and their prefix sums, and ``_full_key``, which alone names the points
of an argmin, orders the point indices the same way.  The certificate is
conservative for the model: whenever it validates a (possibly perturbed)
polarization, the oracle's minimum is >= 1.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from operator import attrgetter, mul
from typing import Callable

from .criteria import NpVerdict, np_classify
from .lattice import (
    KIND_P2,
    DivisorClass,
    PointConfig,
    SurfaceModel,
    blow_up,
    canonical_class,
    euler_characteristic,
    fields_json,
    k_squared,
)

DEFAULT_BOX = 12
MAX_BOX = 1000


class FamilyError(ValueError):
    """Unknown family id or out-of-range parameters."""


class CertificateRefused(Exception):
    """The certificate's case analysis needs an assumption the config lacks."""

    def __init__(self, family: str, missing: str):
        self.family = family
        self.missing = missing
        super().__init__(
            f"{family}: certificate refused, configuration does not assume "
            f"{missing!r}"
        )


class OracleNotApplicable(Exception):
    """No admissible-curve model exists for this configuration."""


class OracleBoxError(ValueError):
    """The search box cannot contain a required candidate class."""


class VerificationError(AssertionError):
    """A claim, fixture pin, or cross-check failed; names the culprit."""


# --- family data model -----------------------------------------------------


@dataclass(frozen=True)
class ExampleFamily:
    id: str
    params: tuple[tuple[str, int], ...]
    A: DivisorClass
    # the family's named integers for a polarization, pinned by the fixture
    claims: Callable[[DivisorClass], dict[str, int]] = field(compare=False)
    np_flags: tuple[tuple[str, bool], ...]

    @property
    def surface(self) -> SurfaceModel:
        """The polarization's surface, which is the instance's."""
        return self.A.surface

    @cached_property
    def instance_key(self) -> str:
        if not self.params:
            return "-"
        return ",".join(f"{k}={v}" for k, v in self.params)

    def with_polarization(self, A: DivisorClass) -> "ExampleFamily":
        """The same instance with a perturbed polarization (for robustness
        tests); id and params, and so the fixture pin, stay the same.  A
        class on another surface is refused: the instance's surface, its
        model and its claims would not be its own."""
        S = self.A.surface
        # identity first, then equality, as ``DivisorClass`` pairs classes
        if A.surface is not S and A.surface != S:
            raise FamilyError(f"{self.id}[{self.instance_key}]: the "
                              "polarization lives on another surface")
        return ExampleFamily(self.id, self.params, A, self.claims,
                             self.np_flags)

    @cached_property
    def claim_names(self) -> tuple[str, ...]:
        """The names of the claims, in order; they do not depend on the
        polarization, so the claims function runs once per instance here."""
        return tuple(self.claims(self.A))

    def to_json(self) -> dict:
        """The instance with the expectations its fixture pin holds."""
        pin = fixture_instance(self.id, self.instance_key)
        return {
            "id": self.id, "params": dict(self.params),
            "surface": self.surface.to_json(), "A": list(self.A.coeffs),
            "claims": {name: pin["claims"][name]
                       for name in self.claim_names},
            "np_expected": {"status": pin["np"]["status"],
                            "p": pin["np"]["p"]},
            "annotations": dict(pin.get("annotations", {})),
        }


def _residual(D: DivisorClass) -> int:
    """The largest |coefficient| of D: 0 exactly when D is the zero class."""
    return max(map(abs, D.coeffs), default=0)


def _adjoint_claims(S: SurfaceModel, m: int, residual_name: str,
                    X: DivisorClass | None = None, extra: tuple | None = None
                    ) -> Callable[[DivisorClass], dict[str, int]]:
    """The claims of Examples 1.11-1.20, where ``K + mA`` equals the class X
    (the zero class where X is None): ``K2``, ``A2``, ``-K.A``, then the
    residual of ``K + mA - X`` under ``residual_name`` and, where the example
    states one more integer, ``extra = (name, f)`` gives ``f(K + mA)``.
    ``K2`` and K are computed once, here; the builder makes X and any class
    ``f`` pairs with once."""
    K2, K = k_squared(S), canonical_class(S)

    def claims(A):
        KmA = K + (A if m == 1 else m * A)
        out = {"K2": K2, "A2": A.dot(A), "-K.A": -K.dot(A),
               residual_name: _residual(KmA if X is None else KmA - X)}
        if extra is not None:
            out[extra[0]] = extra[1](KmA)
        return out
    return claims


# --- builders --------------------------------------------------------------


def _build_1_11():
    S = SurfaceModel.projective_plane()
    return S.divisor([1]), _adjoint_claims(S, 3, "residual(K + 3A)")


def _build_1_12(e):
    S = SurfaceModel.hirzebruch(e)
    # ``ample_oracle`` is looked up when the claim runs, not bound here
    return S.divisor([1, e + 1]), _adjoint_claims(
        S, 2, "residual(K + 2A - e*fiber)", S.divisor([0, e]),
        ("oracle_min(K + 2A)", lambda D: ample_oracle(D, 8).min_value))


def _del_pezzo(l: int) -> SurfaceModel:
    cfg = PointConfig(general_position=True, anticanonical_effective=True)
    return blow_up(SurfaceModel.projective_plane(), l, cfg)


def _build_1_13(l):
    S = _del_pezzo(l)
    return -canonical_class(S), _adjoint_claims(S, 1, "residual(K + A)")


def _build_1_14():
    S = _del_pezzo(7)
    minus_K = -canonical_class(S)
    return minus_K, _adjoint_claims(S, 2, "residual(K + 2A - (-K))", minus_K)


def _build_1_15():
    S = _del_pezzo(8)
    minus_K = -canonical_class(S)
    return minus_K, _adjoint_claims(S, 3, "residual(K + 3A - (-2K))",
                                    2 * minus_K)


# points on the anticanonical curve, one in each fiber (1.16, 1.19, 1.20)
_ON_C_DISTINCT = PointConfig(on_smooth_anticanonical=True,
                             distinct_fibers=True,
                             anticanonical_effective=True)


def _build_1_16(e, n):
    l = 8 - n
    S = blow_up(SurfaceModel.hirzebruch(e), l, _ON_C_DISTINCT)
    return S.divisor([2, e + 3] + [-1] * l), _adjoint_claims(
        S, 1, "residual(K + A - pullback(fiber))", S.pullback([0, 1]),
        ("(K+A)^2", lambda D: D.dot(D)))


def _build_1_17(l):
    cfg = PointConfig(on_smooth_anticanonical=True, away_from_min_section=True,
                      anticanonical_effective=True)
    S = blow_up(SurfaceModel.hirzebruch(1), l, cfg)
    return S.divisor([3, 4] + [-1] * l), _adjoint_claims(
        S, 1, "residual(K + A - pullback(C0 + fiber))", S.pullback([1, 1]),
        ("-K.(K+A)", (-canonical_class(S)).dot))


def _build_1_18():
    cfg = PointConfig(complete_intersection_of_cubics=True,
                      anticanonical_effective=True)
    S = blow_up(SurfaceModel.projective_plane(), 9, cfg)
    F = -canonical_class(S)          # elliptic fiber class
    E = S.exceptional(8)             # a section of the fibration
    return E + 2 * F, _adjoint_claims(
        S, 2, "residual(K + 2A - (2*section + 3*fiber))", 2 * E + 3 * F,
        ("(K+2A).fiber", F.dot))


def _build_1_19(n):
    l = 8 - n
    k = (l - 3) // 2
    S = blow_up(SurfaceModel.hirzebruch(0), l, _ON_C_DISTINCT)
    return S.divisor([2, k] + [-1] * l), _adjoint_claims(
        S, 1, "residual(K + A - pullback((k-2)*fiber2))",
        S.pullback([0, k - 2]), ("(K+A)^2", lambda D: D.dot(D)))


def _build_1_20(n):
    l = 8 - n
    k = (l - 4) // 2
    S = blow_up(SurfaceModel.hirzebruch(0), l, _ON_C_DISTINCT)
    E1 = S.exceptional(0)
    return S.divisor([3, k, -2] + [-1] * (l - 1)), _adjoint_claims(
        S, 1, "residual(K + A - (pullback(fiber1 + (k-2)*fiber2) - E1))",
        S.pullback([1, k - 2]) - E1,
        ("(K+A).(fiber2 through first point)", (S.pullback([0, 1]) - E1).dot))


def _build_obs_1_4(n):
    cfg = PointConfig(general_position=True)
    S = blow_up(SurfaceModel.hirzebruch(0), 9, cfg)
    L = S.divisor([2, n] + [-1] * 9)
    K2, K, fibers2 = k_squared(S), canonical_class(S), S.pullback([0, 2 - n])

    def claims(L):
        minus_KL = -K - L
        return {"K2": K2, "-K.L": -K.dot(L),
                "chi(-K - L)": euler_characteristic(minus_KL),
                "residual(-K - L - pullback((2-n)*fiber2))":
                    _residual(minus_KL - fibers2)}
    return L, claims


# --- ampleness certificate -------------------------------------------------


@dataclass(frozen=True)
class CurveCaseCheck:
    """One curve-case margin: worst admissible point-load vs available degree.

    ``passed`` is the check's own verdict; corner cases require a strictly
    positive margin, direction cases only a nonnegative one.
    """

    case: str
    worst_case_lhs: int
    rhs: int
    passed: bool

    to_json = fields_json


_PASSED = attrgetter("passed")


@dataclass(frozen=True)
class AmpleCertificate:
    family: str
    self_intersection: int
    exceptional_values: tuple[int, ...]
    curve_case_checks: tuple[CurveCaseCheck, ...]
    assumptions_used: tuple[str, ...]
    # derived once, here, from the fields above
    valid: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # every value positive is the least one positive
        object.__setattr__(self, "valid", (
            self.self_intersection > 0
            and min(self.exceptional_values, default=1) > 0
            and all(map(_PASSED, self.curve_case_checks))))

    def flip_signature(self) -> tuple:
        """Pass/fail pattern of every check, for perturbation comparisons."""
        return (self.self_intersection > 0,
                tuple([v > 0 for v in self.exceptional_values]),
                tuple([(c.case, c.passed) for c in self.curve_case_checks]))

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "self_intersection": self.self_intersection,
            "exceptional_values": list(self.exceptional_values),
            "checks": [c.to_json() for c in self.curve_case_checks],
            "assumptions_used": list(self.assumptions_used),
            "valid": self.valid,
        }


def _weights(S: SurfaceModel, A: DivisorClass) -> list[int]:
    """``A.E_i`` for each exceptional class: ``E_i^2 = -1`` and ``E_i`` meets
    no other basis class, so it is minus A's coefficient on ``E_i``."""
    return [-c for c in A.coeffs[S.base_rank:]]


def _base_form(S: SurfaceModel, X: DivisorClass) -> tuple[int, int]:
    """``(p, q)`` with ``X.T = p*a + q*b`` for the pullback T of the base
    class ``(a, b)`` of ``_base_classes``: the exceptional classes meet no
    pullback, and on F_e ``C0^2 = -e``, ``C0.f = 1``, ``f^2 = 0``."""
    x = X.coeffs
    if S.kind == KIND_P2:
        return x[0], 0
    return x[1] - S.e * x[0], x[0]


def _loads(weights: list[int]) -> tuple[list[int], list[int]]:
    """The positive weights in descending order and their prefix sums (from
    0): the heaviest load ``sum(w_i * m_i)`` with ``0 <= m_i <= cap`` and
    ``sum(m_i) <= budget`` fills the points in this order, so it is read
    off these two lists.  Which point carries which weight is left to
    ``_full_key``, the one reader of the point indices."""
    top = sorted([w for w in weights if w > 0], reverse=True)
    return top, list(itertools.accumulate(top, initial=0))


def _anticanonical(S: SurfaceModel) -> tuple[list[int], tuple[int, int], int]:
    """The anticanonical class C of S's bare P2 or F_e, the base part of
    ``-S.canonical``: its coefficients, its ``_base_form`` ``(cp, cq)`` and
    its largest coefficient, which a search box must reach."""
    K = S.canonical
    C = [-k for k in K.coeffs[:S.base_rank]]
    kp, kq = _base_form(S, K)
    return C, (-kp, -kq), max(C)


# the classes (1,0) and (0,1) of F_e: the two rulings of F_0, or the negative
# section C0 and the fiber
_RULINGS = ((1, 0), (0, 1))


def _ruling_budgets(S: SurfaceModel) -> tuple[int, int]:
    """How many blown-up points, counted with multiplicity, a curve in each
    of ``_RULINGS`` can pass through.

    The points lie on the anticanonical curve C, which meets a fiber or a
    ruling twice, or once per fiber when the points lie in distinct fibers.
    For e > 0, C meets the negative section C0 in 2 - e points, and in none
    when the points avoid C0.
    """
    cfg = S.config
    fiber = 1 if cfg.distinct_fibers else 2
    if S.e == 0:
        return fiber, fiber
    return (0 if cfg.away_from_min_section else max(0, 2 - S.e)), fiber


def nakai_certificate(ex: ExampleFamily) -> AmpleCertificate:
    """Closed-form sufficiency certificate that the polarization is ample.

    Runs the certificate body of the model of the instance's surface, as
    the oracle does; every check is recomputed from the instance's actual
    intersection numbers, so perturbed polarizations get an honest
    re-evaluation rather than a cached verdict.  The body returns only its
    curve-case checks; the flags the model reads are recorded as the
    assumptions used.
    """
    S, A = ex.surface, ex.A
    model = _model(S)
    if model is None:
        raise CertificateRefused(ex.id, "on_smooth_anticanonical")
    certify, _, flags = model
    if certify is None:
        raise CertificateRefused(ex.id, "a Hirzebruch base")
    weights = _weights(S, A)
    return AmpleCertificate(ex.id, A.dot(A), tuple(weights),
                            tuple(certify(S, A, weights)), flags)


def _cone_certificate(S, A, weights) -> list[CurveCaseCheck]:
    """Bare P2 or F_e: A is positive on the line, or on C0 and the fiber."""
    p, q = _base_form(S, A)
    if S.kind == KIND_P2:
        return [CurveCaseCheck("ProperIntersection(1)", 0, p, p >= 1)]
    return [CurveCaseCheck("FiberSpecial(C0)", 0, p, p >= 1),
            CurveCaseCheck("FiberSpecial(f)", 0, q, q >= 1)]


def _points_on_c_certificate(S, A, weights) -> list[CurveCaseCheck]:
    """Points on C in F_e: strict transforms over a cone of base classes,
    each of ``_RULINGS`` against its heaviest admissible point-load, and C.

    The point-load of a class (a, b) in the cone is bounded by
    ``wmax * (C.(a,b)) + extra * a``; both the available degree and the
    load bound are linear, so positivity on the corner plus monotonicity
    along the other generating directions bounds the whole cone.  On F_0
    the heaviest point's load is bounded by its ruling cap and every other
    load by the second-highest weight (sound while every weight is
    positive, which a valid certificate requires).
    """
    p, q = _base_form(S, A)
    C, (cp, cq), _ = _anticanonical(S)
    positive, prefix = _loads(weights)
    # the positive weights start with the two largest unless fewer than two
    # are positive, which no valid certificate allows
    top = positive if len(positive) > 1 else sorted(weights, reverse=True)
    if S.e == 0:
        wmax = top[1] if len(top) > 1 else top[0]
        extra = top[0] - wmax
        # ``(case, a, b, margin)`` for the corner (1, 1) and the two rulings
        # as directions; each ruling is a fiber of one of the projections
        linear = (("ProperIntersection(1,1)", 1, 1, 1),
                  ("ProperIntersection(1,0)", 1, 0, 0),
                  ("ProperIntersection(0,1)", 0, 1, 0))
        rulings = ("FiberSpecial(f1)", "FiberSpecial(f2)")
    else:
        wmax, extra = top[0], 0
        # the corner (1, e) and the fiber as the one direction; the rulings
        # are the negative section C0 and the fiber
        linear = ((f"ProperIntersection(1,{S.e})", 1, S.e, 1),
                  ("ProperIntersection(0,1)", 0, 1, 0))
        rulings = ("FiberSpecial(C0)", "FiberSpecial(f)")
    checks = []
    for case, a, b, margin in linear:
        lhs, rhs = wmax * (cp * a + cq * b) + extra * a, p * a + q * b
        checks.append(CurveCaseCheck(case, lhs, rhs, rhs - lhs >= margin))
    for case, (a, b), budget in zip(rulings, _RULINGS, _ruling_budgets(S)):
        # the greedy load with a cap of 1: the top ``budget`` positive weights
        lhs = prefix[min(budget, len(positive))]
        rhs = p * a + q * b
        checks.append(CurveCaseCheck(case, lhs, rhs, rhs - lhs >= 1))
    lhs, rhs = sum(weights), p * C[0] + q * C[1]
    checks.append(CurveCaseCheck("EqualsC", lhs, rhs, rhs - lhs >= 1))
    return checks


def _fibration_span(A: DivisorClass) -> tuple[int, int] | None:
    """Write A = alpha * section + beta * fiber on the 9-point pencil blow-up,
    if A lies in that rank-2 span; otherwise None.  The section is E_9 and
    the fiber is -K = (3, -1, ..., -1), so A = (3beta, -beta x 8,
    alpha - beta); as F^2 = 0 and E_9.F = 1, A.F = alpha."""
    c = A.coeffs
    beta, rest = divmod(c[0], 3)
    if rest or c[1:9] != (-beta,) * 8:
        return None
    return c[9] + beta, beta


def _elliptic_pencil_certificate(S, A, weights) -> list[CurveCaseCheck]:
    span = _fibration_span(A)
    if span is None:
        return [CurveCaseCheck("ProperIntersection(span)", 1, 0, False)]
    alpha, beta = span
    section_value = weights[8]
    return [
        CurveCaseCheck("FiberSpecial(F)", 0, alpha, alpha >= 1),
        CurveCaseCheck("EqualsC", 0, section_value, section_value >= 1),
        # any other irreducible curve T has section.T >= 0 and fiber.T >= 1,
        # so A.T = alpha*(section.T) + beta*(fiber.T) >= beta when alpha >= 0
        CurveCaseCheck("ProperIntersection(0,1)", 0, beta,
                       alpha >= 0 and beta >= 1),
    ]


# --- the family table ------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One row of the family table.

    ``build`` takes the parameters as keywords and returns ``(polarization,
    claims)``, ``claims(A)`` giving the named integers of a polarization; the
    polarization's surface is the instance's.  ``params`` maps each
    parameter to the ``range`` of its allowed values; a step of 2 carries a
    parity.
    ``np_flags`` are the hypotheses the syzygy classification is given.
    How ampleness is checked is not a property of the row: it follows from
    the built surface (see ``_model``).  ``instances`` holds the instances
    built from this row, keyed by their validated parameters; a row made
    with ``dataclasses.replace`` starts with none.
    """

    build: Callable[..., tuple]
    params: Mapping[str, range]
    np_flags: tuple[tuple[str, bool], ...] = (("ample", True),
                                              ("anticanonical", True))
    instances: dict[tuple, "ExampleFamily"] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def validate(self, family_id: str,
                 params: Mapping[str, int] | None) -> dict[str, int]:
        """The requested parameters in table order; refuses unknown, missing,
        non-integer and out-of-domain values."""
        params = dict(params or {})
        unknown = params.keys() - self.params.keys()
        if unknown:
            raise FamilyError(f"unknown parameters: {sorted(unknown)}")
        for name, allowed in self.params.items():
            if name not in params:
                raise FamilyError(f"missing parameter {name!r}")
            value = params[name]
            if type(value) is not int:
                raise FamilyError(
                    f"parameter {name} must be an integer, got {value!r}")
            if value in allowed:
                continue
            # only a refusal reads the range's bounds
            lo, hi = min(allowed), max(allowed)
            if not lo <= value <= hi:
                raise FamilyError(
                    f"parameter {name}={value} outside [{lo}, {hi}]")
            parity = "odd" if allowed.start % 2 else "even"
            sign = " negative" if hi < 0 else ""
            raise FamilyError(f"{family_id} needs {parity}{sign} {name}")
        return {name: params[name] for name in self.params}


FAMILIES: dict[str, Family] = {
    "1.11": Family(_build_1_11, {}),
    "1.12": Family(_build_1_12, {"e": range(0, 9)}),
    "1.13": Family(_build_1_13, {"l": range(2, 7)}),
    "1.14": Family(_build_1_14, {}),
    "1.15": Family(_build_1_15, {}),
    "1.16": Family(_build_1_16, {"e": range(0, 3), "n": range(-1, 9)}),
    "1.17": Family(_build_1_17, {"l": range(0, 11)}),
    "1.18": Family(_build_1_18, {}),
    "1.19": Family(_build_1_19, {"n": range(-1, -20, -2)}),
    "1.20": Family(_build_1_20, {"n": range(-2, -21, -2)}),
    "Obs1.4": Family(_build_obs_1_4, {"n": range(4, 13)},
                     np_flags=(("ample", True), ("bpf", True),
                               ("anticanonical", False))),
}

FAMILY_IDS = tuple(FAMILIES)

# default parameter sweeps: every combination of a family's parameter ranges
FAMILY_SWEEPS: dict[str, tuple[dict, ...]] = {
    fid: tuple(dict(zip(family.params, values))
               for values in itertools.product(*family.params.values()))
    for fid, family in FAMILIES.items()
}


def build_example(family_id: str,
                  params: Mapping[str, int] | None = None) -> ExampleFamily:
    """One instance of a reference family.

    The request is validated on every call; the instance is built on the
    first call for its row and parameters, and that same object is returned
    after it.
    """
    # an unhashable id is unknown, not a TypeError
    family = FAMILIES.get(family_id) if isinstance(family_id, str) else None
    if family is None:
        raise FamilyError(f"unknown family id {family_id!r}")
    p = family.validate(family_id, params)
    key = tuple(p.items())
    ex = family.instances.get(key)
    if ex is None:
        A, claims = family.build(**p)
        ex = family.instances[key] = ExampleFamily(
            family_id, key, A, claims, family.np_flags)
    return ex


# --- brute-force oracle ----------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    min_value: int
    argmin: tuple
    box: int
    candidates: int

    to_json = fields_json


def _base_classes(S: SurfaceModel, box: int):
    """Yield the irreducible-capable classes of S's bare base inside the box
    as ``(a, b)``: the ``d`` lines of P2 as ``(d, 0)``; on F_e the two
    ``_RULINGS``, then ``(a, b)`` with ``b >= max(1, a*e)``."""
    if S.kind == KIND_P2:
        yield from zip(range(1, box + 1), itertools.repeat(0))
        return
    yield from _RULINGS
    for a in range(1, box + 1):
        for b in range(max(1, a * S.e), box + 1):
            yield a, b


def _cone_candidates(S: SurfaceModel, D: DivisorClass, box: int):
    """The cone of base classes (a bare surface or a zero-point blow-up)."""
    p, q = _base_form(S, D)
    classes = _base_classes(S, box)
    if S.kind == KIND_P2:
        for a, b in classes:
            yield p * a + q * b, ("base", a)
    else:
        for a, b in classes:
            yield p * a + q * b, ("base", a, b)


def _pencil_candidates(S: SurfaceModel, D: DivisorClass, box: int):
    """The exceptional curves, the fiber and the section/fiber span of the
    blow-up of P2 at the nine base points of a cubic pencil."""
    span = _fibration_span(D)
    if span is None:
        raise OracleNotApplicable(
            "polarization leaves the section/fiber span; the "
            "admissible-curve model only covers that span")
    alpha, beta = span
    yield from ((w, ("E", i)) for i, w in enumerate(_weights(S, D)))
    yield alpha, ("F",)
    for x in range(box + 1):
        for y in range(1, box + 1):
            yield alpha * x + beta * y, ("T", x, y)


def _points_on_c_candidates(S: SurfaceModel, D: DivisorClass, box: int):
    """For points on the anticanonical curve C: the exceptional curves, the
    strict transform of every base class with its worst-case point load,
    and C.

    A strict transform's key ``("D", a, b, cap, budget)`` carries the load's
    inputs where the oracle's key has the multiplicities; ``_full_key`` puts
    them in.  Coordinates are unique within a tag, so the two keys sort
    alike.

    A curve of class T has multiplicity at most ``cap`` at a point and
    passes through at most ``budget`` points, counted with multiplicity:
    ``C.T`` of them, or on F_e a ruling's ``_ruling_budgets`` with a cap of
    1.  The cap is ``max(1, d - 1)`` on a plane curve of degree d and
    ``min(a, b)`` on the grid of F_e, where ``a, b >= 1``.
    """
    plane = S.kind == KIND_P2
    C, (cp, cq), reach = _anticanonical(S)
    if box < reach:
        name = "cubic" if plane else "anticanonical base"
        raise OracleBoxError(f"box must reach the {name} class (>= {reach})")
    weights = _weights(S, D)
    yield from ((w, ("E", i)) for i, w in enumerate(weights))
    # the greedy load in O(1): a cap of ``cap`` at each point and ``budget``
    # points in all load the top ``budget // cap`` weights fully and the
    # next one ``budget % cap`` times
    top, prefix = _loads(weights)
    n = len(top)
    top.append(0)          # once every point is full, the rest loads nothing
    p, q = _base_form(S, D)
    classes = _base_classes(S, box)
    if plane:
        for a, b in classes:
            cap, budget = max(1, a - 1), cp * a + cq * b
            k = min(budget // cap, n)
            load = cap * prefix[k] + budget % cap * top[k]
            yield p * a + q * b - load, ("D", a, b, cap, budget)
    else:
        # the rulings lead the classes; zip pulls a class only after a budget,
        # so it stops without taking the first grid class
        for budget, (a, b) in zip(_ruling_budgets(S), classes):
            load = prefix[min(budget, n)]
            yield p * a + q * b - load, ("D", a, b, 1, budget)
        for a, b in classes:
            cap, budget = min(a, b), cp * a + cq * b
            k = min(budget // cap, n)
            load = cap * prefix[k] + budget % cap * top[k]
            yield p * a + q * b - load, ("D", a, b, cap, budget)
    yield (sum(map(mul, (p, q), C)) - sum(weights),
           ("C", (1,) * len(weights)))


def _model(S: SurfaceModel):
    """The admissible-curve model of S, or None where ampleness is attested.

    A model is ``(certify, candidates, flags)``: the certificate body, mapping
    ``(S, A, exceptional values)`` to curve-case checks (None for points on
    the plane cubic, which has no body); the generator of ``(D.T, key)`` over
    the admissible classes T in a box; and the ``PointConfig`` flags it reads.
    """
    plane = S.kind == KIND_P2
    if not S.l:
        return _cone_certificate, _cone_candidates, ()
    cfg = S.config
    if cfg.complete_intersection_of_cubics and plane and S.l == 9:
        return (_elliptic_pencil_certificate, _pencil_candidates,
                ("complete_intersection_of_cubics",))
    if not cfg.on_smooth_anticanonical:
        return None
    flags = ("on_smooth_anticanonical",)
    if plane:
        return None, _points_on_c_candidates, flags
    # on F_e, also each flag ``_ruling_budgets`` reads that is set
    if cfg.distinct_fibers:
        flags += ("distinct_fibers",)
    if S.e and cfg.away_from_min_section:
        flags += ("away_from_min_section",)
    return _points_on_c_certificate, _points_on_c_candidates, flags


def _candidates(S: SurfaceModel, D: DivisorClass, box: int):
    """``(D.T, key)`` for every admissible curve class T of S in the box, in
    integer arithmetic on precomputed linear forms."""
    model = _model(S)
    if model is None:
        raise OracleNotApplicable(
            "no admissible-curve model for this point configuration")
    return model[1](S, D, box)


def _full_key(S: SurfaceModel, D: DivisorClass, key: tuple) -> tuple:
    """The oracle's argmin key for a key of ``_candidates``: a strict
    transform's cap and budget become its greedy multiplicities."""
    if key[0] != "D":
        return key
    *head, cap, budget = key
    weights = _weights(S, D)
    # the points of ``_loads``'s weights: descending weight, ties by index
    # (a reversed sort is still stable)
    order = sorted([i for i, w in enumerate(weights) if w > 0],
                   key=weights.__getitem__, reverse=True)
    m = [0] * len(weights)
    for i in order:
        if budget <= 0:
            break
        m[i] = min(cap, budget)
        budget -= m[i]
    return (*head, tuple(m))


def _search_box(box: int | None) -> int:
    """The box a search uses: ``DEFAULT_BOX`` unless given, an ``int`` (not
    ``bool``) within 1..MAX_BOX."""
    box = DEFAULT_BOX if box is None else box
    if type(box) is not int:
        raise OracleBoxError(f"box must be an integer, got {box!r}")
    if box < 1:
        raise OracleBoxError(f"box must be >= 1, got {box}")
    if box > MAX_BOX:
        raise OracleBoxError(f"box must be <= {MAX_BOX}, got {box}")
    return box


def ample_oracle(D: DivisorClass, box: int | None = None) -> OracleResult:
    """Exhaustively minimize D.T over the admissible curve classes of D's
    surface.

    A positive minimum certifies ampleness within the model; the search is
    deterministic (canonical tie-breaking) and exact.  It is one streaming
    pass: memory does not grow with the box, and ``MAX_BOX`` bounds the work.
    The box is checked before the model, so a bad box is refused the same
    way on every surface.
    """
    box = _search_box(box)
    S = D.surface
    best, count = None, 0
    for cand in _candidates(S, D, box):
        count += 1
        if best is None or cand < best:
            best = cand
    value, key = best
    return OracleResult(value, _full_key(S, D, key), box, count)


# --- verification ----------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    """A recomputed claim against its fixture pin (None where unpinned)."""

    quantity: str
    expected: int | None
    actual: int
    ok: bool

    to_json = fields_json


@dataclass(frozen=True)
class VerifyReport:
    family: str
    params: tuple[tuple[str, int], ...]
    claims: tuple[ClaimResult, ...]
    certificate: AmpleCertificate | None
    certificate_refused: str | None
    oracle: OracleResult | None
    oracle_note: str | None
    np_verdict: NpVerdict
    np_expected: tuple[str | None, int | None]
    # a valid certificate and an oracle minimum >= 1; None where either refused
    ample: bool | None
    # the certificate and the oracle agree (True where either refused)
    agreement_ok: bool
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "claims": [c.to_json() for c in self.claims],
            "certificate": (None if self.certificate is None
                            else self.certificate.to_json()),
            "certificate_refused": self.certificate_refused,
            "oracle": None if self.oracle is None else self.oracle.to_json(),
            "oracle_note": self.oracle_note,
            "np_verdict": self.np_verdict.to_json(),
            "np_expected": {"status": self.np_expected[0],
                            "p": self.np_expected[1]},
            "ample": self.ample,
            "agreement_ok": self.agreement_ok,
            "passed": self.passed,
            "failures": list(self.failures),
        }


@lru_cache(maxsize=1)
def _fixture_table() -> dict:
    data = resources.files("npsurf").joinpath("data/examples.json").read_text()
    return json.loads(data)


def fixture_instance(family_id: str, instance_key: str) -> dict | None:
    """The pin of one instance, or None for an unknown family id or
    instance key, a non-``str`` one included."""
    if not (isinstance(family_id, str) and isinstance(instance_key, str)):
        return None
    fam = _fixture_table()["families"].get(family_id)
    if fam is None:
        return None
    return fam["instances"].get(instance_key)


def verify_example(family_id: str, params: Mapping[str, int] | None = None, *,
                   strict: bool = True) -> VerifyReport:
    """Recompute every claim of one family instance and diff it against the
    instance's fixture pin; the oracle searches ``DEFAULT_BOX``.

    Raises ``VerificationError`` when ``strict`` (the default), its message
    joining every failure; otherwise returns the report with failures
    recorded.
    """
    ex = build_example(family_id, params)
    pin = fixture_instance(ex.id, ex.instance_key)
    pinned = {} if pin is None else pin["claims"]

    computed = ex.claims(ex.A)
    claims = []
    for name, actual in computed.items():
        expected = pinned.get(name)
        claims.append(ClaimResult(name, expected, actual, actual == expected))

    certificate = refused = None
    try:
        certificate = nakai_certificate(ex)
    except CertificateRefused as exc:
        refused = str(exc)

    oracle = oracle_note = None
    try:
        oracle = ample_oracle(ex.A)
    except OracleNotApplicable as exc:
        oracle_note = str(exc)

    # np_classify reads the flag pairs into a dict of its own
    verdict = np_classify(ex.A, ex.np_flags)
    np_expected = ((None, None) if pin is None
                   else (pin["np"]["status"], pin["np"]["p"]))

    # each failure as it reads after the instance's name, prefixed below
    failures = []
    ample, agreement_ok = None, True
    if certificate is not None and oracle is not None:
        oracle_ample = oracle.min_value >= 1
        ample = certificate.valid and oracle_ample
        agreement_ok = certificate.valid == oracle_ample
        if not agreement_ok:
            failures.append(f"certificate validity {certificate.valid} "
                            f"disagrees with oracle minimum {oracle.min_value}")
        if not certificate.valid:
            failures.append("certificate failed on the unperturbed "
                            "polarization")

    if pin is None:
        failures.append("no fixture entry")
    else:
        for c in claims:
            if not c.ok:
                failures.append(f"claim {c.quantity!r} fixture pins "
                                f"{c.expected}, recomputed {c.actual}")
        failures += [f"pinned claim {name!r} not computed"
                     for name in pinned if name not in computed]
        if (verdict.status, verdict.p) != np_expected:
            failures.append(f"fixture syzygy pin {pin['np']} != verdict "
                            f"({verdict.status}, {verdict.p})")
        if pin["ample"] != ample:
            failures.append(f"fixture ampleness pin {pin['ample']} != {ample}")
        elif pin["ample"] is None:
            if refused is None:
                failures.append("expected certificate refusal")
            if oracle_note is None:
                failures.append("expected oracle abstention")

    if failures:
        where = f"{ex.id}[{ex.instance_key}]"
        failures = [f"{where}: {failure}" for failure in failures]
    report = VerifyReport(
        family=ex.id, params=ex.params, claims=tuple(claims),
        certificate=certificate, certificate_refused=refused,
        oracle=oracle, oracle_note=oracle_note,
        np_verdict=verdict, np_expected=np_expected,
        ample=ample, agreement_ok=agreement_ok, failures=tuple(failures))
    if failures and strict:
        raise VerificationError("; ".join(failures))
    return report


def sweep_family(family_id: str) -> list[VerifyReport]:
    """Verify every instance of a family over its full stated range; each
    report records its own failures."""
    if not isinstance(family_id, str) or family_id not in FAMILY_SWEEPS:
        raise FamilyError(f"unknown family id {family_id!r}")
    return [verify_example(family_id, params, strict=False)
            for params in FAMILY_SWEEPS[family_id]]


def mutate_polarization(ex: ExampleFamily, index: int, delta: int) -> ExampleFamily:
    """Perturb one exceptional coefficient of the polarization by delta."""
    if type(index) is not int:
        raise FamilyError(
            f"exceptional index must be an integer, got {index!r}")
    if type(delta) is not int:
        raise FamilyError(f"delta must be an integer, got {delta!r}")
    if not 0 <= index < (ex.surface.l or 0):
        raise FamilyError(f"no exceptional index {index}")
    coeffs = [*ex.A.coeffs]
    coeffs[ex.surface.base_rank + index] += delta
    return ex.with_polarization(DivisorClass(ex.surface, tuple(coeffs)))
