"""Reference families of polarized rational surfaces, with ampleness checks.

``FAMILIES`` is the one table of reference families.  Each row holds the
family's builder, its parameter domain as ``range``s (a step of 2 carries a
parity), and its syzygy flags.  ``build_example`` validates a request against
its row and assembles the instance; ``FAMILY_IDS`` and ``FAMILY_SWEEPS`` (the
product of each row's ranges) derive from the table.

Each builder returns the surface, the polarization, and the family's named
integer claims (intersection numbers, adjoint identities), each with the
lattice computation that derives it; the builders hold no expected values.
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
* ``brute_force_ample_oracle``: exhaustive minimization of ``A.T`` over the
  model's candidate classes inside a search box (``DEFAULT_BOX`` unless the
  caller passes one, never above ``MAX_BOX``).  ``ample_oracle`` takes the
  minimum in one streaming pass of integer arithmetic, so its memory does
  not grow with the box.

On F_e the classes (1,0) and (0,1) take their point budgets from
``_ruling_budgets``, which both checks read.  The certificate is
conservative for the model: whenever it validates a (possibly perturbed)
polarization, the oracle's minimum is >= 1.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
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
class Claim:
    """One named integer quantity of a family instance.

    ``compute`` derives the quantity from the lattice data alone; its
    expected value is the instance's fixture pin.
    """

    quantity: str
    compute: Callable[[SurfaceModel, DivisorClass], int] = field(compare=False)


@dataclass(frozen=True)
class ExampleFamily:
    id: str
    params: tuple[tuple[str, int], ...]
    surface: SurfaceModel
    A: DivisorClass
    claims: tuple[Claim, ...]
    np_flags: tuple[tuple[str, bool], ...]

    @property
    def instance_key(self) -> str:
        if not self.params:
            return "-"
        return ",".join(f"{k}={v}" for k, v in self.params)

    def with_polarization(self, A: DivisorClass) -> "ExampleFamily":
        """The same instance with a perturbed polarization (for robustness
        tests); id and params, and so the fixture pin, stay the same."""
        return dataclasses.replace(self, A=A)

    def to_json(self) -> dict:
        """The instance with the expectations its fixture pin holds."""
        pin = fixture_instance(self.id, self.instance_key)
        return {
            "id": self.id, "params": dict(self.params),
            "surface": self.surface.to_json(), "A": list(self.A.coeffs),
            "claims": {c.quantity: pin["claims"][c.quantity]
                       for c in self.claims},
            "np_expected": {"status": pin["np"]["status"],
                            "p": pin["np"]["p"]},
            "annotations": dict(pin.get("annotations", {})),
        }


def _claim_dot(name: str, d1, d2) -> Claim:
    """Claim about a pairing of two derived divisors; d1/d2 are callables."""
    return Claim(name, lambda S, A: d1(S, A).dot(d2(S, A)))


def _residual(name: str, lhs, rhs) -> Claim:
    """Claim that two derived divisor classes agree componentwise."""

    def compute(S: SurfaceModel, A: DivisorClass) -> int:
        delta = lhs(S, A) - rhs(S, A)
        return max((abs(c) for c in delta.coeffs), default=0)

    return Claim(name, compute)


_COMMON_CLAIMS = [
    Claim("K2", lambda S, A: k_squared(S)),
    Claim("A2", lambda S, A: A.dot(A)),
    Claim("-K.A", lambda S, A: -canonical_class(S).dot(A)),
]


# --- builders --------------------------------------------------------------


def _build_1_11():
    S = SurfaceModel.projective_plane()
    A = S.divisor([1])
    claims = _COMMON_CLAIMS + [
        _residual("residual(K + 3A)",
                  lambda S, A: canonical_class(S) + 3 * A,
                  lambda S, A: S.zero()),
    ]
    return S, A, claims


def _build_1_12(e):
    S = SurfaceModel.hirzebruch(e)
    A = S.divisor([1, e + 1])
    claims = _COMMON_CLAIMS + [
        _residual("residual(K + 2A - e*fiber)",
                  lambda S, A: canonical_class(S) + 2 * A,
                  lambda S, A: S.divisor([0, S.e])),
        Claim("oracle_min(K + 2A)",
              lambda S, A: ample_oracle(S, canonical_class(S) + 2 * A,
                                        8).min_value),
    ]
    return S, A, claims


def _del_pezzo(l: int) -> SurfaceModel:
    cfg = PointConfig(general_position=True, anticanonical_effective=True)
    return blow_up(SurfaceModel.projective_plane(), l, cfg)


def _build_1_13(l):
    S = _del_pezzo(l)
    A = -canonical_class(S)
    claims = _COMMON_CLAIMS + [
        _residual("residual(K + A)",
                  lambda S, A: canonical_class(S) + A,
                  lambda S, A: S.zero()),
    ]
    return S, A, claims


def _build_1_14():
    S = _del_pezzo(7)
    A = -canonical_class(S)
    claims = _COMMON_CLAIMS + [
        _residual("residual(K + 2A - (-K))",
                  lambda S, A: canonical_class(S) + 2 * A,
                  lambda S, A: -canonical_class(S)),
    ]
    return S, A, claims


def _build_1_15():
    S = _del_pezzo(8)
    A = -canonical_class(S)
    claims = _COMMON_CLAIMS + [
        _residual("residual(K + 3A - (-2K))",
                  lambda S, A: canonical_class(S) + 3 * A,
                  lambda S, A: -2 * canonical_class(S)),
    ]
    return S, A, claims


def _build_1_16(e, n):
    l = 8 - n
    cfg = PointConfig(on_smooth_anticanonical=True, distinct_fibers=True,
                      anticanonical_effective=True)
    S = blow_up(SurfaceModel.hirzebruch(e), l, cfg)
    A = S.divisor([2, e + 3] + [-1] * l)
    claims = _COMMON_CLAIMS + [
        _residual("residual(K + A - pullback(fiber))",
                  lambda S, A: canonical_class(S) + A,
                  lambda S, A: S.pullback([0, 1])),
        _claim_dot("(K+A)^2",
                   lambda S, A: canonical_class(S) + A,
                   lambda S, A: canonical_class(S) + A),
    ]
    return S, A, claims


def _build_1_17(l):
    cfg = PointConfig(on_smooth_anticanonical=True, away_from_min_section=True,
                      anticanonical_effective=True)
    S = blow_up(SurfaceModel.hirzebruch(1), l, cfg)
    A = S.divisor([3, 4] + [-1] * l)
    claims = _COMMON_CLAIMS + [
        _residual("residual(K + A - pullback(C0 + fiber))",
                  lambda S, A: canonical_class(S) + A,
                  lambda S, A: S.pullback([1, 1])),
        _claim_dot("-K.(K+A)",
                   lambda S, A: -canonical_class(S),
                   lambda S, A: canonical_class(S) + A),
    ]
    return S, A, claims


def _build_1_18():
    cfg = PointConfig(complete_intersection_of_cubics=True,
                      anticanonical_effective=True)
    S = blow_up(SurfaceModel.projective_plane(), 9, cfg)
    F = -canonical_class(S)          # elliptic fiber class
    E = S.exceptional(8)             # a section of the fibration
    A = E + 2 * F
    claims = _COMMON_CLAIMS + [
        _residual("residual(K + 2A - (2*section + 3*fiber))",
                  lambda S, A: canonical_class(S) + 2 * A,
                  lambda S, A: 2 * S.exceptional(8) - 3 * canonical_class(S)),
        _claim_dot("(K+2A).fiber",
                   lambda S, A: canonical_class(S) + 2 * A,
                   lambda S, A: -canonical_class(S)),
    ]
    return S, A, claims


def _build_1_19(n):
    l = 8 - n
    k = (l - 3) // 2
    cfg = PointConfig(on_smooth_anticanonical=True, distinct_fibers=True,
                      anticanonical_effective=True)
    S = blow_up(SurfaceModel.hirzebruch(0), l, cfg)
    A = S.divisor([2, k] + [-1] * l)
    claims = _COMMON_CLAIMS + [
        _residual("residual(K + A - pullback((k-2)*fiber2))",
                  lambda S, A: canonical_class(S) + A,
                  lambda S, A: S.pullback([0, k - 2])),
        _claim_dot("(K+A)^2",
                   lambda S, A: canonical_class(S) + A,
                   lambda S, A: canonical_class(S) + A),
    ]
    return S, A, claims


def _build_1_20(n):
    l = 8 - n
    k = (l - 4) // 2
    cfg = PointConfig(on_smooth_anticanonical=True, distinct_fibers=True,
                      anticanonical_effective=True)
    S = blow_up(SurfaceModel.hirzebruch(0), l, cfg)
    A = S.divisor([3, k, -2] + [-1] * (l - 1))
    claims = _COMMON_CLAIMS + [
        _residual("residual(K + A - (pullback(fiber1 + (k-2)*fiber2) - E1))",
                  lambda S, A: canonical_class(S) + A,
                  lambda S, A: S.pullback([1, k - 2]) - S.exceptional(0)),
        _claim_dot("(K+A).(fiber2 through first point)",
                   lambda S, A: canonical_class(S) + A,
                   lambda S, A: S.pullback([0, 1]) - S.exceptional(0)),
    ]
    return S, A, claims


def _build_obs_1_4(n):
    cfg = PointConfig(general_position=True)
    S = blow_up(SurfaceModel.hirzebruch(0), 9, cfg)
    L = S.divisor([2, n] + [-1] * 9)
    claims = [
        Claim("K2", lambda S, A: k_squared(S)),
        Claim("-K.L", lambda S, A: -canonical_class(S).dot(A)),
        Claim("chi(-K - L)",
              lambda S, A: euler_characteristic(-canonical_class(S) - A)),
        _residual("residual(-K - L - pullback((2-n)*fiber2))",
                  lambda S, A: -canonical_class(S) - A,
                  lambda S, A: S.pullback([0, 2 - n])),
    ]
    return S, L, claims


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


@dataclass(frozen=True)
class AmpleCertificate:
    family: str
    self_intersection: int
    exceptional_values: tuple[int, ...]
    curve_case_checks: tuple[CurveCaseCheck, ...]
    assumptions_used: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return (self.self_intersection > 0
                and all(v > 0 for v in self.exceptional_values)
                and all(c.passed for c in self.curve_case_checks))

    def flip_signature(self) -> tuple:
        """Pass/fail pattern of every check, for perturbation comparisons."""
        return (self.self_intersection > 0,
                tuple(v > 0 for v in self.exceptional_values),
                tuple((c.case, c.passed) for c in self.curve_case_checks))

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "self_intersection": self.self_intersection,
            "exceptional_values": list(self.exceptional_values),
            "checks": [
                {"case": c.case, "worst_case_lhs": c.worst_case_lhs,
                 "rhs": c.rhs, "passed": c.passed}
                for c in self.curve_case_checks
            ],
            "assumptions_used": list(self.assumptions_used),
            "valid": self.valid,
        }


def _weights(ex_surface: SurfaceModel, A: DivisorClass) -> list[int]:
    return [A.dot(ex_surface.exceptional(i)) for i in range(ex_surface.l or 0)]


def _top_sum(weights: list[int], count: int) -> int:
    """Largest possible sum of ``count`` single-point loads (unit caps)."""
    if count <= 0 or not weights:
        return 0
    return sum(sorted(weights, reverse=True)[:count])


def _pair(S: SurfaceModel, A: DivisorClass, a: int, b: int) -> int:
    return A.dot(S.pullback([a, b]))


def _bare_base(S: SurfaceModel) -> SurfaceModel:
    """The bare P2 or F_e that S is (or blows up)."""
    return (SurfaceModel.projective_plane() if S.kind == KIND_P2
            else SurfaceModel.hirzebruch(S.e))


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


def _cone_cases(S: SurfaceModel, A: DivisorClass, wmax: int, corner, dirs,
                extra: int = 0) -> list[CurveCaseCheck]:
    """Margin checks for strict transforms over a cone of base classes.

    The admissible point-load of a class (a, b) is bounded by
    ``wmax * (C . (a,b)) + extra * a``; both the available degree and the
    load bound are linear, so positivity on the corner plus monotonicity
    along the other generating directions bounds the whole cone.
    """
    base = _bare_base(S)
    C = -canonical_class(base)

    def load(a: int, b: int) -> int:
        return wmax * C.dot(base.divisor([a, b])) + extra * a

    checks = []
    a0, b0 = corner
    checks.append(CurveCaseCheck(
        f"ProperIntersection({a0},{b0})", load(a0, b0), _pair(S, A, a0, b0),
        _pair(S, A, a0, b0) - load(a0, b0) >= 1))
    for (da, db) in dirs:
        checks.append(CurveCaseCheck(
            f"ProperIntersection({da},{db})", load(da, db), _pair(S, A, da, db),
            _pair(S, A, da, db) - load(da, db) >= 0))
    return checks


def _ruling_checks(S: SurfaceModel, A: DivisorClass, weights: list[int],
                   tags: tuple[str, str]) -> list[CurveCaseCheck]:
    """Each of ``_RULINGS`` against its heaviest admissible point-load."""
    checks = []
    for tag, (a, b), budget in zip(tags, _RULINGS, _ruling_budgets(S)):
        lhs, rhs = _top_sum(weights, budget), _pair(S, A, a, b)
        checks.append(CurveCaseCheck(f"FiberSpecial({tag})", lhs, rhs,
                                     rhs - lhs >= 1))
    return checks


def _equals_c_check(S: SurfaceModel, A: DivisorClass,
                    weights: list[int]) -> CurveCaseCheck:
    C = -canonical_class(_bare_base(S))
    lhs = sum(weights)
    rhs = _pair(S, A, *C.coeffs)
    return CurveCaseCheck("EqualsC", lhs, rhs, rhs - lhs >= 1)


def nakai_certificate(ex: ExampleFamily) -> AmpleCertificate:
    """Closed-form sufficiency certificate that the polarization is ample.

    Runs the certificate body of the surface's admissible-curve model; every
    check is recomputed from the instance's actual intersection numbers, so
    perturbed polarizations get an honest re-evaluation rather than a cached
    verdict.  The body returns only its curve-case checks; the flags the
    model reads are recorded as the assumptions used.
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


def _plane_certificate(S, A, weights) -> list[CurveCaseCheck]:
    return [CurveCaseCheck("ProperIntersection(1)", 0, A.coeffs[0],
                           A.coeffs[0] >= 1)]


def _hirzebruch_certificate(S, A, weights) -> list[CurveCaseCheck]:
    c0 = A.dot(S.divisor([1, 0]))
    f = A.dot(S.divisor([0, 1]))
    return [
        CurveCaseCheck("FiberSpecial(C0)", 0, c0, c0 >= 1),
        CurveCaseCheck("FiberSpecial(f)", 0, f, f >= 1),
    ]


def _points_on_c_certificate(S, A, weights) -> list[CurveCaseCheck]:
    """Points on C in F_e.  On F_0 the heaviest point's load is bounded by
    its ruling cap and every other load by the second-highest weight (sound
    while every weight is positive, which a valid certificate requires)."""
    if S.e == 0:
        w1, *rest = sorted(weights, reverse=True)
        w2 = rest[0] if rest else w1
        checks = (_cone_cases(S, A, w2, corner=(1, 1), dirs=_RULINGS,
                              extra=w1 - w2)
                  + _ruling_checks(S, A, weights, ("f1", "f2")))
    else:
        checks = (_cone_cases(S, A, max(weights), corner=(1, S.e),
                              dirs=((0, 1),))
                  + _ruling_checks(S, A, weights, ("C0", "f")))
    return checks + [_equals_c_check(S, A, weights)]


def _fibration_span(S: SurfaceModel, A: DivisorClass) -> tuple[int, int] | None:
    """Write A = alpha * section + beta * fiber on the 9-point pencil blow-up,
    if A lies in that rank-2 span; otherwise None."""
    F = -canonical_class(S)
    E = S.exceptional(8)
    c = A.coeffs
    if c[0] % 3:
        return None
    beta = c[0] // 3
    alpha = c[9] + beta
    if (alpha * E + beta * F).coeffs != c:
        return None
    return alpha, beta


def _elliptic_pencil_certificate(S, A, weights) -> list[CurveCaseCheck]:
    span = _fibration_span(S, A)
    if span is None:
        return [CurveCaseCheck("ProperIntersection(span)", 1, 0, False)]
    alpha, beta = span
    fiber_value = A.dot(-canonical_class(S))
    section_value = A.dot(S.exceptional(8))
    return [
        CurveCaseCheck("FiberSpecial(F)", 0, fiber_value, fiber_value >= 1),
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

    ``build`` takes the parameters as keywords and returns ``(surface,
    polarization, claims)``.  ``params`` maps each parameter to the
    ``range`` of its allowed values; a step of 2 carries a parity.
    ``np_flags`` are the hypotheses the syzygy classification is given.
    How ampleness is checked is not a property of the row: it follows from
    the built surface (see ``_model``).
    """

    build: Callable[..., tuple]
    params: Mapping[str, range]
    np_flags: tuple[tuple[str, bool], ...] = (("ample", True),
                                              ("anticanonical", True))

    def validate(self, family_id: str,
                 params: Mapping[str, int] | None) -> dict[str, int]:
        """The requested parameters in table order; refuses unknown, missing,
        non-integer and out-of-domain values."""
        params = dict(params or {})
        unknown = set(params) - set(self.params)
        if unknown:
            raise FamilyError(f"unknown parameters: {sorted(unknown)}")
        for name, allowed in self.params.items():
            if name not in params:
                raise FamilyError(f"missing parameter {name!r}")
            value = params[name]
            if type(value) is not int:
                raise FamilyError(
                    f"parameter {name} must be an integer, got {value!r}")
            lo, hi = min(allowed), max(allowed)
            if not lo <= value <= hi:
                raise FamilyError(
                    f"parameter {name}={value} outside [{lo}, {hi}]")
            if value not in allowed:
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
    """Construct one instance of a reference family."""
    family = FAMILIES.get(family_id)
    if family is None:
        raise FamilyError(f"unknown family id {family_id!r}")
    p = family.validate(family_id, params)
    surface, A, claims = family.build(**p)
    return ExampleFamily(family_id, tuple(p.items()), surface, A,
                         tuple(claims), family.np_flags)


# --- brute-force oracle ----------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    min_value: int
    argmin: tuple
    box: int
    candidates: int

    def to_json(self) -> dict:
        return {"min_value": self.min_value, "argmin": list(self.argmin),
                "box": self.box, "candidates": self.candidates}


def _greedy_load(weights: list[int], cap: int,
                 budget: int) -> tuple[int, tuple[int, ...]]:
    """Maximum of sum(w_i * m_i) with 0 <= m_i <= cap, sum(m_i) <= budget.

    Greedy by descending weight (ties by index) is exact here; returns the
    maximum and its canonical assignment.
    """
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


def _base_classes(base: SurfaceModel, box: int):
    """Yield the irreducible-capable classes of a bare base inside the box as
    ``(a, b)``: the ``d`` lines of P2 as ``(d, 0)``; on F_e the two
    ``_RULINGS``, then ``(a, b)`` with ``b >= max(1, a*e)``."""
    if base.kind == KIND_P2:
        yield from zip(range(1, box + 1), itertools.repeat(0))
        return
    yield from _RULINGS
    for a in range(1, box + 1):
        for b in range(max(1, a * base.e), box + 1):
            yield a, b


def _base_form(base: SurfaceModel, X: DivisorClass) -> tuple[int, int]:
    """``(p, q)`` with ``X.T = p*a + q*b`` for the base class T that
    ``_base_classes`` writes as ``(a, b)``."""
    if base.kind == KIND_P2:
        return X.dot(base.divisor([1])), 0
    return X.dot(base.divisor([1, 0])), X.dot(base.divisor([0, 1]))


def _cone_candidates(S: SurfaceModel, D: DivisorClass, box: int):
    """The cone of base classes (a bare surface or a zero-point blow-up)."""
    base = _bare_base(S)
    p, q = _base_form(base, base.divisor(D.coeffs[:base.rank]))
    plane = base.kind == KIND_P2
    for a, b in _base_classes(base, box):
        yield p * a + q * b, ("base", a) if plane else ("base", a, b)


def _pencil_candidates(S: SurfaceModel, D: DivisorClass, box: int):
    """The exceptional curves, the fiber and the section/fiber span of the
    blow-up of P2 at the nine base points of a cubic pencil."""
    span = _fibration_span(S, D)
    if span is None:
        raise OracleNotApplicable(
            "polarization leaves the section/fiber span; the "
            "admissible-curve model only covers that span")
    alpha, beta = span
    yield from ((w, ("E", i)) for i, w in enumerate(_weights(S, D)))
    yield D.dot(-canonical_class(S)), ("F",)
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
    """
    base = _bare_base(S)
    plane = base.kind == KIND_P2
    C = -canonical_class(base)
    reach = max(C.coeffs)
    if box < reach:
        name = "cubic" if plane else "anticanonical base"
        raise OracleBoxError(f"box must reach the {name} class (>= {reach})")
    weights = _weights(S, D)
    yield from ((w, ("E", i)) for i, w in enumerate(weights))
    # ``_greedy_load`` in O(1): with the positive weights sorted once and
    # their prefix sums, a cap of ``cap`` at each point and ``budget`` points
    # in all load the top ``budget // cap`` weights fully and the next one
    # ``budget % cap`` times
    top = sorted((w for w in weights if w > 0), reverse=True)
    prefix = list(itertools.accumulate(top, initial=0))
    n = len(top)
    top.append(0)          # once every point is full, the rest loads nothing
    D_base = base.divisor(D.coeffs[:base.rank])
    p, q = _base_form(base, D_base)
    cp, cq = _base_form(base, C)
    rulings = {} if plane else dict(zip(_RULINGS, _ruling_budgets(S)))
    for a, b in _base_classes(base, box):
        # a curve of class T has multiplicity at most ``cap`` at a point and
        # passes through at most C.T points of C, counted with multiplicity
        cap = max(1, a - 1) if plane else max(1, min(a, b))
        budget = rulings[a, b] if (a, b) in rulings else cp * a + cq * b
        k = min(budget // cap, n)
        load = cap * prefix[k] + budget % cap * top[k]
        yield p * a + q * b - load, ("D", a, b, cap, budget)
    yield D_base.dot(C) - sum(weights), ("C", (1,) * len(weights))


def _model(S: SurfaceModel):
    """The admissible-curve model of S, or None where ampleness is attested.

    A model is ``(certify, candidates, flags)``: the certificate body, mapping
    ``(S, A, exceptional values)`` to curve-case checks (None for points on
    the plane cubic, which has no body); the generator of ``(D.T, key)`` over
    the admissible classes T in a box; and the ``PointConfig`` flags it reads.
    """
    plane = S.kind == KIND_P2
    if not S.l:
        return ((_plane_certificate if plane else _hirzebruch_certificate),
                _cone_candidates, ())
    cfg = S.config
    if cfg.complete_intersection_of_cubics and plane and S.l == 9:
        return (_elliptic_pencil_certificate, _pencil_candidates,
                ("complete_intersection_of_cubics",))
    if not cfg.on_smooth_anticanonical:
        return None
    if plane:
        return None, _points_on_c_candidates, ("on_smooth_anticanonical",)
    # the flags ``_ruling_budgets`` reads
    read = ("distinct_fibers",) + (("away_from_min_section",) if S.e else ())
    return (_points_on_c_certificate, _points_on_c_candidates,
            ("on_smooth_anticanonical", *(f for f in read if getattr(cfg, f))))


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
    return (*head, _greedy_load(_weights(S, D), cap, budget)[1])


def _search_box(box: int | None) -> int:
    """The box a search uses: ``DEFAULT_BOX`` unless given, within 1..MAX_BOX."""
    box = DEFAULT_BOX if box is None else box
    if box < 1:
        raise OracleBoxError(f"box must be >= 1, got {box}")
    if box > MAX_BOX:
        raise OracleBoxError(f"box must be <= {MAX_BOX}, got {box}")
    return box


def ample_oracle(S: SurfaceModel, D: DivisorClass, box: int | None = None) -> OracleResult:
    """Exhaustively minimize D.T over the admissible curve classes of S.

    A positive minimum certifies ampleness within the model; the search is
    deterministic (canonical tie-breaking) and exact.  It is one streaming
    pass: memory does not grow with the box, and ``MAX_BOX`` bounds the work.
    """
    box = _search_box(box)
    best, count = None, 0
    for cand in _candidates(S, D, box):
        count += 1
        if best is None or cand < best:
            best = cand
    value, key = best
    return OracleResult(value, _full_key(S, D, key), box, count)


def brute_force_ample_oracle(ex: ExampleFamily, box: int | None = None) -> OracleResult:
    """Family-aware entry point for the exhaustive ampleness search.

    The box is checked even where no model leaves anything to search, so a
    bad box is refused the same way for every family.
    """
    box = _search_box(box)
    if _model(ex.surface) is None:
        raise OracleNotApplicable(
            f"{ex.id}: ampleness is attested for this configuration; no "
            "admissible-curve model is available")
    return ample_oracle(ex.surface, ex.A, box)


# --- verification ----------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    """A recomputed claim against its fixture pin (None where unpinned)."""

    quantity: str
    expected: int | None
    actual: int
    ok: bool


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
    failures: tuple[str, ...] = ()

    @property
    def ample_verdict(self) -> bool | None:
        if self.certificate is None or self.oracle is None:
            return None
        return self.certificate.valid and self.oracle.min_value >= 1

    @property
    def agreement_ok(self) -> bool:
        if self.certificate is None or self.oracle is None:
            return True
        return self.certificate.valid == (self.oracle.min_value >= 1)

    @property
    def np_ok(self) -> bool:
        return (self.np_verdict.status, self.np_verdict.p) == self.np_expected

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "claims": [dataclasses.asdict(c) for c in self.claims],
            "certificate": (None if self.certificate is None
                            else self.certificate.to_json()),
            "certificate_refused": self.certificate_refused,
            "oracle": None if self.oracle is None else self.oracle.to_json(),
            "oracle_note": self.oracle_note,
            "np_verdict": self.np_verdict.to_json(),
            "np_expected": {"status": self.np_expected[0],
                            "p": self.np_expected[1]},
            "ample": self.ample_verdict,
            "agreement_ok": self.agreement_ok,
            "passed": self.passed,
            "failures": list(self.failures),
        }


@lru_cache(maxsize=1)
def _fixture_table() -> dict:
    data = resources.files("npsurf").joinpath("data/examples.json").read_text()
    return json.loads(data)


def fixture_instance(family_id: str, instance_key: str) -> dict | None:
    table = _fixture_table()
    fam = table["families"].get(family_id)
    if fam is None:
        return None
    return fam["instances"].get(instance_key)


def verify_example(family_id: str, params: Mapping[str, int] | None = None, *,
                   box: int | None = None, strict: bool = True) -> VerifyReport:
    """Recompute every claim of one family instance and diff it against the
    instance's fixture pin.

    Raises ``VerificationError`` naming the first failing quantity when
    ``strict`` (the default); otherwise returns the report with failures
    recorded.
    """
    ex = build_example(family_id, params)
    pin = fixture_instance(ex.id, ex.instance_key)
    pinned = {} if pin is None else pin["claims"]

    claims = []
    for claim in ex.claims:
        actual = claim.compute(ex.surface, ex.A)
        expected = pinned.get(claim.quantity)
        claims.append(ClaimResult(claim.quantity, expected, actual,
                                  actual == expected))

    certificate = refused = None
    try:
        certificate = nakai_certificate(ex)
    except CertificateRefused as exc:
        refused = str(exc)

    oracle = oracle_note = None
    try:
        oracle = brute_force_ample_oracle(ex, box)
    except OracleNotApplicable as exc:
        oracle_note = str(exc)

    verdict = np_classify(ex.surface, ex.A, dict(ex.np_flags))
    report = VerifyReport(
        family=ex.id, params=ex.params, claims=tuple(claims),
        certificate=certificate, certificate_refused=refused,
        oracle=oracle, oracle_note=oracle_note,
        np_verdict=verdict,
        np_expected=((None, None) if pin is None
                     else (pin["np"]["status"], pin["np"]["p"])),
    )

    failures = []
    where = f"{ex.id}[{ex.instance_key}]"
    if not report.agreement_ok:
        failures.append(
            f"{where}: certificate validity {certificate.valid} disagrees "
            f"with oracle minimum {oracle.min_value}")
    if report.ample_verdict is not None and not certificate.valid:
        failures.append(f"{where}: certificate failed on the unperturbed "
                        "polarization")

    if pin is None:
        failures.append(f"{where}: no fixture entry")
    else:
        for c in claims:
            if not c.ok:
                failures.append(f"{where}: claim {c.quantity!r} fixture "
                                f"pins {c.expected}, recomputed {c.actual}")
        computed = {c.quantity for c in claims}
        failures += [f"{where}: pinned claim {name!r} not computed"
                     for name in pinned if name not in computed]
        if not report.np_ok:
            failures.append(
                f"{where}: fixture syzygy pin {pin['np']} != verdict "
                f"({verdict.status}, {verdict.p})")
        if pin["ample"] != report.ample_verdict:
            failures.append(f"{where}: fixture ampleness pin "
                            f"{pin['ample']} != {report.ample_verdict}")
        elif pin["ample"] is None:
            if refused is None:
                failures.append(f"{where}: expected certificate refusal")
            if oracle_note is None:
                failures.append(f"{where}: expected oracle abstention")

    report = dataclasses.replace(report, failures=tuple(failures))
    if failures and strict:
        raise VerificationError("; ".join(failures))
    return report


def sweep_family(family_id: str, *, box: int | None = None,
                 strict: bool = True) -> list[VerifyReport]:
    """Verify every instance of a family over its full stated range."""
    if family_id not in FAMILY_SWEEPS:
        raise FamilyError(f"unknown family id {family_id!r}")
    return [verify_example(family_id, params, box=box, strict=strict)
            for params in FAMILY_SWEEPS[family_id]]


def mutate_polarization(ex: ExampleFamily, index: int, delta: int) -> ExampleFamily:
    """Perturb one exceptional coefficient of the polarization by delta."""
    if not 0 <= index < (ex.surface.l or 0):
        raise FamilyError(f"no exceptional index {index}")
    return ex.with_polarization(ex.A + delta * ex.surface.exceptional(index))
