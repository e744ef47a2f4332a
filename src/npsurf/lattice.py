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
be 0: a blow-up wrapper at zero points is distinct from its base; it is at
most ``MAX_POINTS``).  ``config`` lists only the flags that are set.

Parsing keeps one object per surface JSON: ``SurfaceModel.from_json`` and
``DivisorClass.from_json`` return the surface parsed first from equal JSON
(equal field by field, with each field of its exact JSON type, and a config
by the set of flags that are true), so a request stream that names the same
surface again skips the parse.  A kept surface holds what it was built with:
its fields, ranks, canonical class and signature, about 0.5 KB, and never
the rank**2 gram.  At most ``_MAX_SURFACES`` are kept, the oldest dropped
first; a refused object is never kept, and every divisor's coefficients are
checked on every parse.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from operator import mul

KIND_P2 = "P2"
KIND_FE = "Fe"

# the most points a surface may blow up: every class is a tuple of rank
# l + 1 or l + 2 and the gram matrix has rank**2 entries, so l bounds the
# memory and work of any request; the family table goes up to l = 28
MAX_POINTS = 100

_INT_OR_NONE = (int, type(None))
_SURFACE_FIELDS = frozenset({"kind", "e", "l", "config"})
_DIVISOR_FIELDS = _SURFACE_FIELDS | {"coeffs"}


class LatticeError(ValueError):
    """Raised for ill-formed surfaces, divisors, or cross-surface pairings."""


# class -> (name, whether it declares a default, that default) of each init
# field, read on first use
_FIELD_SPECS: dict[type, tuple[tuple[str, bool, object], ...]] = {}
_JSON_SCALARS = frozenset({str, int, bool, type(None)})


def fields_json(obj) -> dict:
    """A value or verdict dataclass as JSON: its init fields in order, less
    any that holds its declared default; a tuple as a list (shallowly), and
    any other value that is not a JSON scalar by its own ``to_json``."""
    spec = _FIELD_SPECS.get(type(obj))
    if spec is None:
        spec = _FIELD_SPECS[type(obj)] = tuple(
            [(f.name, f.default is not MISSING, f.default)
             for f in fields(obj) if f.init])
    out = {}
    for name, defaulted, default in spec:
        value = getattr(obj, name)
        if defaulted and value == default:
            continue
        if type(value) not in _JSON_SCALARS:
            value = list(value) if type(value) is tuple else value.to_json()
        out[name] = value
    return out


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

    def __post_init__(self) -> None:
        # the instance dict holds exactly the flags
        if not {bool}.issuperset(map(type, vars(self).values())):
            raise LatticeError("config flags must be JSON booleans")

    to_json = fields_json

    @classmethod
    def from_json(cls, obj: dict) -> "PointConfig":
        if not isinstance(obj, dict):
            raise LatticeError("config JSON must be an object")
        unknown = obj.keys() - CONFIG_FLAGS
        if unknown:
            raise LatticeError(f"unknown config flags: {sorted(unknown)}")
        return cls(**obj)


CONFIG_FLAGS = tuple(f.name for f in fields(PointConfig))


@dataclass(frozen=True)
class SurfaceModel:
    """A rational surface presented by its Picard lattice data.

    ``l is None`` means the surface is a bare P2/F_e; ``0 <= l <=
    MAX_POINTS`` (with a config) means a single-stage blow-up of the base at
    ``l`` points.  ``base_rank``, ``rank``, ``canonical`` and ``signature``
    are derived once, at construction, and are neither compared nor shown;
    every instance writes them in one order, so instances share one dict
    key table.  The rank**2 ``gram`` is built on each read and never kept:
    a value written later would un-share the dict, and on CPython 3.11 a
    written dict also slows every attribute read of the surface.
    """

    kind: str
    e: int | None = None
    l: int | None = None
    config: PointConfig | None = None
    base_rank: int = field(init=False, repr=False, compare=False)
    rank: int = field(init=False, repr=False, compare=False)
    canonical: "DivisorClass" = field(init=False, repr=False, compare=False)
    signature: tuple[int, int, int] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        if type(self.e) not in _INT_OR_NONE or type(self.l) not in _INT_OR_NONE:
            raise LatticeError("surface fields e and l must be JSON integers")
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
        if self.l is not None and self.l > MAX_POINTS:
            raise LatticeError(
                f"cannot blow up more than {MAX_POINTS} points, got {self.l}")
        points = self.l or 0
        if self.kind == KIND_P2:
            base = [-3]
        else:
            base = [-2, -(self.e + 2)]
        rank = len(base) + points
        object.__setattr__(self, "base_rank", len(base))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "canonical",
                           DivisorClass(self, tuple(base + [1] * points)))
        # the gram is the base block and -1 once per point, so by
        # Sylvester's law its inertia is the block's plus l negatives:
        # [[1]] on P2 is positive, and [[-e, 1], [1, 0]] on F_e has
        # determinant -1, so one positive and one negative eigenvalue
        object.__setattr__(self, "signature", (1, rank - 1, 0))

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

    @property
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
        return tuple([tuple(r) for r in rows])

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
        return DivisorClass(self, (0,) * self.rank)

    def pullback(self, base_coeffs) -> "DivisorClass":
        """Pull a base class back to this blow-up (exceptional parts zero)."""
        base_coeffs = [*base_coeffs]
        if len(base_coeffs) != self.base_rank:
            raise LatticeError("pullback expects base-rank coefficients")
        return self.divisor(base_coeffs + [0] * (self.l or 0))

    def exceptional(self, i: int) -> "DivisorClass":
        """The class E_{i+1} (0-indexed) of a blown-up point; the index is
        an ``int`` (not ``bool``)."""
        if type(i) is not int:
            raise LatticeError(
                f"exceptional index must be an integer, got {i!r}")
        if not self.is_blow_up or not 0 <= i < (self.l or 0):
            raise LatticeError(f"no exceptional class with index {i}")
        coeffs = [0] * self.rank
        coeffs[self.base_rank + i] = 1
        return DivisorClass(self, tuple(coeffs))

    # --- serialization ----------------------------------------------------

    to_json = fields_json

    @classmethod
    def from_json(cls, obj: dict) -> "SurfaceModel":
        """The surface ``obj`` describes: the one kept for equal JSON, or
        else parsed with every check and kept."""
        if not isinstance(obj, dict):
            raise LatticeError("surface JSON must be an object")
        key = _surface_key(obj, _SURFACE_FIELDS)
        surface = _SURFACES.get(key)
        if surface is None:
            surface = cls._parse(obj)
            if key is not None:
                if len(_SURFACES) >= _MAX_SURFACES:
                    _SURFACES.pop(next(iter(_SURFACES)), None)
                _SURFACES[key] = surface
        return surface

    @classmethod
    def _parse(cls, obj: dict) -> "SurfaceModel":
        unknown = obj.keys() - _SURFACE_FIELDS
        if unknown:
            raise LatticeError(f"unknown surface fields: {sorted(unknown)}")
        if "kind" not in obj:
            raise LatticeError("surface JSON needs a kind field")
        config = None
        if "config" in obj or "l" in obj:
            if not ("config" in obj and "l" in obj):
                raise LatticeError("blow-up JSON needs both l and config")
            config = PointConfig.from_json(obj["config"])
            config = _CONFIGS.setdefault(config, config)
        return cls(obj["kind"], e=obj.get("e"), l=obj.get("l"), config=config)


# parsed surfaces by the key of their JSON, oldest first; the cap holds
# every surface of a request stream over the 88 family instances and the
# bare and blown-up (l <= 8) P2 and F_e, e <= 100, with room to spare
_MAX_SURFACES = 2048
_SURFACES: dict[tuple, SurfaceModel] = {}
# the config they share, one per set of flags (at most 2**6)
_CONFIGS: dict[PointConfig, PointConfig] = {}


# each config flag's bit in a surface key
_FLAG_BITS = {name: 1 << i for i, name in enumerate(CONFIG_FLAGS)}


def _surface_key(obj: dict, names: frozenset):
    """The key under which the surface of JSON object ``obj`` is kept, or
    None, leaving ``obj`` to the full parse, unless every field is a name
    in ``names`` and of its exact JSON type and every config flag is one of
    ``CONFIG_FLAGS``.  Two keys are equal only for objects whose surfaces
    are equal: ``true``, ``1`` and ``1.0`` are equal, and hash alike, in
    Python, so the type check is what keeps them apart.  An ``e`` of null
    reads as an absent ``e``, as in the parse, and a config as the bitmask
    of its true flags, so a false flag reads as an absent one."""
    kind, e, config = obj.get("kind"), obj.get("e"), obj.get("config")
    if type(kind) is not str or type(e) not in _INT_OR_NONE \
            or not names.issuperset(obj):
        return None
    if "l" not in obj and "config" not in obj:
        return kind, e
    l = obj.get("l")
    if type(l) is not int or type(config) is not dict:
        return None
    mask = 0
    for name, value in config.items():
        bit = _FLAG_BITS.get(name)
        if bit is None or type(value) is not bool:
            return None
        if value:
            mask |= bit
    return kind, e, l, mask


@dataclass(frozen=True, slots=True)
class DivisorClass:
    """Integer divisor class on a fixed surface; slotted, so no ``__dict__``.

    Scaling takes an ``int`` only: any other scalar, ``bool`` and ``float``
    included, gets ``NotImplemented``."""

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
        # _same_surface, inlined: this runs for every pairing
        S = self.surface
        if S is not other.surface and S != other.surface:
            raise LatticeError("divisor classes live on different surfaces")
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
        if type(scalar) is not int:
            return NotImplemented
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
        surface = _SURFACES.get(_surface_key(obj, _DIVISOR_FIELDS))
        if surface is None:
            surface_obj = dict(obj)
            del surface_obj["coeffs"]
            surface = SurfaceModel.from_json(surface_obj)
        return cls(surface, tuple(coeffs))


def from_json(obj: dict):
    """Parse either a surface or a divisor JSON object."""
    if not isinstance(obj, dict):
        raise LatticeError("surface or divisor JSON must be an object")
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
    return SurfaceModel(surface.kind, e=surface.e, l=count, config=config)


def signature(surface: SurfaceModel) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of the gram matrix: ``(1, rank -
    1, 0)`` on every surface, as the Hodge index theorem requires, read
    from the base block at construction (see ``SurfaceModel``)."""
    return surface.signature
