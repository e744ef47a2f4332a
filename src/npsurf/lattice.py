"""Exact integer models of Picard lattices of rational surfaces.

Surfaces are the projective plane, a Hirzebruch surface, or a single-stage
blow-up of one of those at ``l`` configured points.  Divisor classes are
integer coefficient vectors in the standard basis; every pairing is computed
exactly in Python integers.  No floating point enters any computation here.

Basis conventions:

* ``P2``: basis ``(H)``, ``H^2 = 1``, canonical class ``-3H``.
* ``Fe``: basis ``(C0, f)`` with ``C0^2 = -e``, ``C0.f = 1``, ``f^2 = 0``,
  canonical class ``-2C0 - (e+2)f``.
* blow-up at ``l`` points: basis ``(base..., E1, ..., El)``; the gram matrix
  gains ``diag(-1, ..., -1)`` and the canonical class gains ``+E1+...+El``.
  A class ``pi*D - sum(m_i E_i)`` is stored as ``(D..., -m1, ..., -ml)``.

JSON schema (lossless round-trip)::

    surface: {"kind": "P2" | "Fe", "e": int?, "l": int?, "config": {...}?}
    divisor: surface fields + {"coeffs": [ints]}

``l``/``config`` are present exactly when the surface is a blow-up (``l`` may
be 0: a blow-up wrapper at zero points is distinct from its base).  ``config``
lists only the flags that are set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

KIND_P2 = "P2"
KIND_FE = "Fe"

CONFIG_FLAGS = (
    "on_smooth_anticanonical",
    "distinct_fibers",
    "away_from_min_section",
    "anticanonical_effective",
    "general_position",
    "complete_intersection_of_cubics",
)


class LatticeError(ValueError):
    """Raised for ill-formed surfaces, divisors, or cross-surface pairings."""


@dataclass(frozen=True)
class PointConfig:
    """Incidence assumptions about the blown-up points.

    These are assumptions, never computed facts; any certificate that relies
    on one must name it in its output.
    """

    on_smooth_anticanonical: bool = False
    distinct_fibers: bool = False
    away_from_min_section: bool = False
    anticanonical_effective: bool = False
    general_position: bool = False
    complete_intersection_of_cubics: bool = False

    def flags(self) -> tuple[str, ...]:
        """Names of the flags that are set, in canonical order."""
        return tuple(name for name in CONFIG_FLAGS if getattr(self, name))

    def to_json(self) -> dict:
        return {name: True for name in self.flags()}

    @classmethod
    def from_json(cls, obj: dict) -> "PointConfig":
        if not isinstance(obj, dict):
            raise LatticeError("config JSON must be an object")
        unknown = obj.keys() - CONFIG_FLAGS
        if unknown:
            raise LatticeError(f"unknown config flags: {sorted(unknown)}")
        if not {bool}.issuperset(map(type, obj.values())):
            raise LatticeError("config flags must be JSON booleans")
        return cls(**obj)


@dataclass(frozen=True)
class SurfaceModel:
    """A rational surface presented by its Picard lattice data.

    ``l is None`` means the surface is a bare P2/F_e; ``l >= 0`` (with a
    config) means a single-stage blow-up of the base at ``l`` points.
    """

    kind: str
    e: int | None = None
    l: int | None = None
    config: PointConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_P2, KIND_FE):
            raise LatticeError(f"unknown surface kind {self.kind!r}")
        if self.kind == KIND_FE:
            if self.e is None or self.e < 0:
                raise LatticeError("Fe requires a nonnegative integer e")
        elif self.e is not None:
            raise LatticeError("e is only meaningful for Fe")
        if (self.l is None) != (self.config is None):
            raise LatticeError("blow-ups carry both l and config")
        if self.l is not None and self.l < 0:
            raise LatticeError("cannot blow up a negative number of points")

    # --- constructors -----------------------------------------------------

    @classmethod
    def projective_plane(cls) -> "SurfaceModel":
        return cls(KIND_P2)

    @classmethod
    def hirzebruch(cls, e: int) -> "SurfaceModel":
        return cls(KIND_FE, e=e)

    # --- structure --------------------------------------------------------

    @property
    def is_blow_up(self) -> bool:
        return self.l is not None

    @cached_property
    def base_rank(self) -> int:
        return 1 if self.kind == KIND_P2 else 2

    @cached_property
    def rank(self) -> int:
        return self.base_rank + (self.l or 0)

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        rows = [[0] * n for _ in range(n)]
        if self.kind == KIND_P2:
            rows[0][0] = 1
        else:
            rows[0][0] = -self.e
            rows[0][1] = 1
            rows[1][0] = 1
        for i in range(self.base_rank, n):
            rows[i][i] = -1
        return tuple(tuple(r) for r in rows)

    @cached_property
    def canonical(self) -> "DivisorClass":
        if self.kind == KIND_P2:
            base = [-3]
        else:
            base = [-2, -(self.e + 2)]
        return DivisorClass(self, tuple(base + [1] * (self.l or 0)))

    # --- divisor helpers --------------------------------------------------

    def divisor(self, coeffs) -> "DivisorClass":
        # tuples are built from lists, here and in the arithmetic below:
        # tuple() over a generator or map resizes a 10-slot tuple, so the
        # result is freed into another size's free list, and those fill up
        # until a full collection, which a streaming search seldom triggers
        coeffs = [*coeffs]
        if not {int}.issuperset(map(type, coeffs)):
            raise LatticeError(f"coefficients must be integers, got {coeffs}")
        return DivisorClass(self, tuple(coeffs))

    def zero(self) -> "DivisorClass":
        return self.divisor([0] * self.rank)

    def pullback(self, base_coeffs) -> "DivisorClass":
        """Pull a base class back to this blow-up (exceptional parts zero)."""
        base_coeffs = [*base_coeffs]
        if len(base_coeffs) != self.base_rank:
            raise LatticeError("pullback expects base-rank coefficients")
        return self.divisor(base_coeffs + [0] * (self.l or 0))

    def exceptional(self, i: int) -> "DivisorClass":
        """The class E_{i+1} (0-indexed) of a blown-up point."""
        if not self.is_blow_up or not 0 <= i < (self.l or 0):
            raise LatticeError(f"no exceptional class with index {i}")
        coeffs = [0] * self.rank
        coeffs[self.base_rank + i] = 1
        return self.divisor(coeffs)

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.kind == KIND_FE:
            obj["e"] = self.e
        if self.is_blow_up:
            obj["l"] = self.l
            obj["config"] = self.config.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SurfaceModel":
        if not isinstance(obj, dict):
            raise LatticeError("surface JSON must be an object")
        unknown = obj.keys() - ("kind", "e", "l", "config")
        if unknown:
            raise LatticeError(f"unknown surface fields: {sorted(unknown)}")
        if "kind" not in obj:
            raise LatticeError("surface JSON needs a kind field")
        if type(obj.get("e", 0)) is not int or type(obj.get("l", 0)) is not int:
            raise LatticeError("surface fields e and l must be JSON integers")
        config = None
        if "config" in obj or "l" in obj:
            if not ("config" in obj and "l" in obj):
                raise LatticeError("blow-up JSON needs both l and config")
            config = PointConfig.from_json(obj["config"])
        return cls(obj["kind"], e=obj.get("e"), l=obj.get("l"), config=config)


@dataclass(frozen=True)
class DivisorClass:
    """Integer divisor class on a fixed surface."""

    surface: SurfaceModel
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.surface.rank:
            raise LatticeError(
                f"expected {self.surface.rank} coefficients, got {len(self.coeffs)}"
            )

    def _same_surface(self, other: "DivisorClass") -> None:
        # classes built on one surface object share it; equal but distinct
        # surfaces still pair
        if self.surface is not other.surface and self.surface != other.surface:
            raise LatticeError("divisor classes live on different surfaces")

    def dot(self, other: "DivisorClass") -> int:
        self._same_surface(other)
        S = self.surface
        a, b = self.coeffs, other.coeffs
        # the gram matrix is -identity plus a correction on the base block,
        # so the pairing is linear-time in the rank: H^2 = 1 on P2, and on
        # F_e C0^2 = -e, C0.f = 1, f^2 = 0
        a0, b0 = a[0], b[0]
        if S.kind == KIND_P2:
            return 2 * a0 * b0 - sum(map(mul, a, b))
        a1, b1 = a[1], b[1]
        return ((1 - S.e) * a0 * b0 + a0 * b1 + a1 * b0 + a1 * b1
                - sum(map(mul, a, b)))

    # componentwise exact arithmetic (tuples from lists: see
    # SurfaceModel.divisor)
    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_surface(other)
        return DivisorClass(self.surface, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_surface(other)
        return DivisorClass(self.surface, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple([-a for a in self.coeffs]))

    def __mul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(self.surface, tuple([scalar * a for a in self.coeffs]))

    __rmul__ = __mul__

    def to_json(self) -> dict:
        obj = self.surface.to_json()
        obj["coeffs"] = list(self.coeffs)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "DivisorClass":
        if not isinstance(obj, dict):
            raise LatticeError("divisor JSON must be an object")
        if "coeffs" not in obj:
            raise LatticeError("divisor JSON needs a coeffs field")
        coeffs = obj["coeffs"]
        if type(coeffs) is not list or not {int}.issuperset(map(type, coeffs)):
            raise LatticeError("coeffs must be a JSON array of integers")
        surface_obj = dict(obj)
        del surface_obj["coeffs"]
        surface = SurfaceModel.from_json(surface_obj)
        return surface.divisor(coeffs)


def from_json(obj: dict):
    """Parse either a surface or a divisor JSON object."""
    if "coeffs" in obj:
        return DivisorClass.from_json(obj)
    return SurfaceModel.from_json(obj)


# --- the operations -------------------------------------------------------


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number of two classes on the same surface."""
    return d1.dot(d2)


def canonical_class(surface: SurfaceModel) -> DivisorClass:
    return surface.canonical


def k_squared(surface: SurfaceModel) -> int:
    k = surface.canonical
    return k.dot(k)


def euler_characteristic(d: DivisorClass) -> int:
    """chi(D) = 1 + (D^2 - D.K)/2, exact."""
    k = d.surface.canonical
    num = d.dot(d) - d.dot(k)
    if num % 2:
        raise LatticeError("D^2 - D.K must be even on these lattices")
    return 1 + num // 2


def sectional_genus(d: DivisorClass) -> int:
    """g(D) = 1 + (D^2 + D.K)/2, exact."""
    k = d.surface.canonical
    num = d.dot(d) + d.dot(k)
    if num % 2:
        raise LatticeError("D^2 + D.K must be even on these lattices")
    return 1 + num // 2


def hodge_index_bound(a: DivisorClass, b: DivisorClass) -> bool:
    """Check (A.B)^2 >= A^2 * B^2; requires A^2 > 0."""
    a2 = a.dot(a)
    if a2 <= 0:
        raise LatticeError("hodge_index_bound needs A^2 > 0")
    return a.dot(b) ** 2 >= a2 * b.dot(b)


def blow_up(surface: SurfaceModel, count: int, config: PointConfig) -> SurfaceModel:
    """Blow up a bare P2/F_e at ``count`` configured points."""
    if surface.is_blow_up:
        raise LatticeError("iterated blow-ups are not supported")
    if count < 0:
        raise LatticeError("cannot blow up a negative number of points")
    return SurfaceModel(surface.kind, e=surface.e, l=count, config=config)


def signature(surface: SurfaceModel) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of the gram matrix.

    Computed by symmetric (congruence) elimination over exact rationals, so
    the answer carries no rounding caveats.
    """
    n = surface.rank
    m = [[Fraction(x) for x in row] for row in surface.gram]
    pos = neg = zero = 0

    def swap_rowcol(a: int, b: int) -> None:
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    def add_rowcol(dst: int, src: int) -> None:
        for j in range(n):
            m[dst][j] += m[src][j]
        for j in range(n):
            m[j][dst] += m[j][src]

    for i in range(n):
        if m[i][i] == 0:
            j = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if j is not None:
                swap_rowcol(i, j)
            else:
                k = next((k for k in range(i + 1, n) if m[i][k] != 0), None)
                if k is None:
                    zero += 1
                    continue
                add_rowcol(i, k)  # diagonal becomes 2*m[i][k] != 0
        pivot = m[i][i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if m[j][i]:
                f = m[j][i] / pivot
                for kk in range(n):
                    m[j][kk] -= f * m[i][kk]
                for kk in range(n):
                    m[kk][j] -= f * m[kk][i]
    return pos, neg, zero
