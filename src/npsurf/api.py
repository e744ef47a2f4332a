"""JSON-in/JSON-out evaluation of every library operation.

``evaluate`` takes ``{"op": <name>, "args": {...}}`` and returns
``{"op", "kind", "verdict", "justification"}``; ``kind`` is the verdict's
class name, or ``"value"`` for plain integers, booleans and lists.

Each op is one row of ``_ROWS`` naming a library callable, whose signature
and annotations, read on the op's first request, give the argument names,
which are required, and a strict converter per argument: ``int`` takes a
JSON integer only, ``bool`` a JSON boolean only, null is accepted only where
the annotation allows None, and ``FanoInput``/``ExampleFamily`` parameters
are built from their own flat fields.  Bad requests raise ``ApiError``; nothing
is coerced.
"""

from __future__ import annotations

import importlib
import inspect
import types
import typing
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass

from . import criteria, lattice
from .lattice import DivisorClass, PointConfig, SurfaceModel


class ApiError(ValueError):
    """Unknown op, unknown or missing argument, or a wrongly typed value."""


# --- converters: one per annotation, built when an op is derived -------------

_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object", types.NoneType: "null"}
_SCALARS = (int, bool, str)


def _type_error(label: str, want: str, value) -> ApiError:
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    return ApiError(f"{label} must be a JSON {want}, got {got}")


def _converter(hint, label: str):
    """The checking converter from JSON for one parameter annotation."""
    origin, params = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALARS:
        def scalar(value):
            if type(value) is not hint:
                raise _type_error(label, _JSON_TYPES[hint], value)
            return value
        return scalar
    if origin in (typing.Union, types.UnionType) \
            and params[1:] == (types.NoneType,):
        inner = _converter(params[0], label)
        return lambda value: None if value is None else inner(value)
    if hint in (DivisorClass, SurfaceModel, PointConfig):
        name = hint.__name__

        def parsed(value):
            # looked up on every call, so a rebound from_json is the one used
            try:
                return getattr(lattice, name).from_json(value)
            except lattice.LatticeError as exc:
                raise ApiError(f"{label}: {exc}") from exc
        return parsed
    # containers hold scalars: a JSON array or object whose items have one
    # type (Sequence, Mapping), or one type per field (TypedDict)
    if origin in (Sequence, Collection, Mapping) and params[-1] in _SCALARS:
        shape, items = (dict, dict.values) if origin is Mapping else (list, iter)
        item_type = {params[-1]}
        want = f"{_JSON_TYPES[shape]} of {_JSON_TYPES[params[-1]]}s"

        def container(value):
            if type(value) is not shape \
                    or not item_type.issuperset(map(type, items(value))):
                raise _type_error(label, want, value)
            return value
        return container
    fields = typing.get_type_hints(hint) if typing.is_typeddict(hint) else {}
    if fields and set(fields.values()) <= set(_SCALARS):
        def record(value):
            if type(value) is not dict:
                raise _type_error(label, "object", value)
            for key, x in value.items():
                # undeclared fields are left to the library to reject
                if key in fields and type(x) is not fields[key]:
                    raise _type_error(f"{label}.{key}",
                                      _JSON_TYPES[fields[key]], x)
            return value
        return record
    raise TypeError(f"{label}: no JSON form for {hint!r}")


# --- the op table ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Call:
    """``getattr(owner, attr)``, looked up on every call, with its keyword
    arguments taken from flat JSON: ``fields`` holds ``(json key, parameter,
    converter, required)``, ``nested`` holds ``(parameter, _Call)`` for
    parameters built from their own flat fields."""

    owner: object
    attr: str
    fields: tuple
    nested: tuple
    required: tuple[str, ...]
    names: frozenset[str]
    tag: str | None

    def run(self, args: dict):
        kw = {}
        for key, name, convert, required in self.fields:
            if key in args:
                kw[name] = convert(args[key])
            elif required:
                missing = [k for k in self.required if k not in args]
                raise ApiError(f"missing args: {missing}")
        for name, sub in self.nested:
            kw[name] = sub.run(args)
        return getattr(self.owner, self.attr)(**kw)


def _derive(owner, attr: str, tag: str | None = None,
            rename: dict | None = None) -> _Call:
    """Read one callable's signature; ``owner`` is a class or the name of an
    npsurf module, and ``rename`` maps a parameter to its JSON key."""
    if isinstance(owner, str):
        owner = importlib.import_module(f".{owner}", __package__)
    target = getattr(owner, attr)
    hints = typing.get_type_hints(target)
    fields, nested, required, keys = [], [], [], []
    for name, param in inspect.signature(target).parameters.items():
        key = (rename or {}).get(name, name)
        built = _BUILT_FROM_FIELDS.get(getattr(hints[name], "__name__", None))
        if built is not None:
            sub = _derive(*built)
            nested.append((name, sub))
            required += sub.required
            keys += sub.names
            continue
        is_required = param.default is inspect.Parameter.empty
        fields.append((key, name, _converter(hints[name], f"arg {key!r}"),
                       is_required))
        required += [key] if is_required else []
        keys.append(key)
    if len(set(keys)) != len(keys):
        raise TypeError(f"{attr}: two parameters share one JSON key")
    return _Call(owner, attr, tuple(fields), tuple(nested), tuple(required),
                 frozenset(keys), tag)


_ID = {"family_id": "id"}
# parameter class name -> the call that builds it from its own flat fields
_BUILT_FROM_FIELDS = {
    "FanoInput": ("fano", "FanoInput"),
    "ExampleFamily": ("families", "build_example", None, _ID),
}


class _Adapters:
    """Ops whose JSON shape differs from the library call: np_classify takes
    a divisor or its anticanonical degree ``t``."""

    @staticmethod
    def np_classify(flags: Mapping[str, bool],
                    divisor: DivisorClass | None = None,
                    t: int | None = None) -> criteria.NpVerdict:
        if (divisor is None) == (t is None):
            raise ApiError("pass exactly one of divisor or t")
        if divisor is None:
            return criteria.np_classify_degree(t, flags)
        return criteria.np_classify(divisor, flags)


_ARITH_TAG = "exact lattice arithmetic"

# op -> (owner of the callable of that name, fixed justification tag or None
# to read the verdict's own, JSON keys of renamed parameters); an owner module
# is imported when its first op is derived
_ROWS = {
    "intersect": ("lattice",),
    "canonical_class": ("lattice",),
    "k_squared": ("lattice",),
    "euler_characteristic": ("lattice", None, {"d": "divisor"}),
    "sectional_genus": ("lattice", None, {"d": "divisor"}),
    "hodge_index_bound": ("lattice",),
    "signature": ("lattice",),
    "blow_up": ("lattice",),
    "np_classify": (_Adapters,),
    "bpf_check": ("criteria", None, {"L": "divisor"}),
    "adjoint_very_ample": ("criteria",),
    "min_kA_bound": ("criteria",),
    "adjoint_np_min_n": ("criteria",),
    "reider_np": ("criteria",),
    "lemma_125_bound": ("criteria", "Lem 1.25"),
    "verify_inequality_chain": ("criteria", "Lem 1.25 chain"),
    "ampleness_termination": ("criteria",),
    "thm_121_equivalence": ("criteria",),
    "curve_np_reference": ("criteria",),
    "build_example": ("families", "family table", _ID),
    "nakai_certificate": ("families", "Nakai curve cases"),
    "ample_oracle": ("families", "exhaustive search", {"D": "divisor"}),
    "verify_example": ("families", "family verification", _ID),
    "primitive_np": ("fano",),
    "multiples_np_surface": ("fano", None, {"B_profile": "profile"}),
    "multiples_np_fano": ("fano",),
    "index_nm3_n0": ("fano",),
    "index_nm3_np": ("fano",),
    "projective_space_twist_max_np": ("fano",),
}
OPERATIONS = tuple(sorted(_ROWS))
_OPS: dict[str, _Call] = {}     # the ops derived so far
_REQUEST_FIELDS = frozenset({"op", "args"})


def _call(op: str) -> _Call:
    """A known op's call, derived from its row on first use."""
    call = _OPS.get(op)
    if call is None:
        owner, *rest = _ROWS[op]
        call = _OPS[op] = _derive(owner, op, *rest)
    return call


def evaluate(request: dict) -> dict:
    """Evaluate one JSON operation request."""
    if not isinstance(request, dict):
        raise ApiError("request must be a JSON object")
    if not _REQUEST_FIELDS.issuperset(request):
        raise ApiError("unknown request fields: "
                       f"{sorted(request.keys() - _REQUEST_FIELDS)}")
    op = request.get("op")
    call = _OPS.get(op) if isinstance(op, str) else None
    if call is None and op in OPERATIONS:
        call = _call(op)
    if call is None:
        raise ApiError(f"unknown op {op!r}; known ops: {', '.join(OPERATIONS)}")
    args = request.get("args", {})
    if not isinstance(args, dict):
        raise ApiError("args must be a JSON object")
    if not call.names.issuperset(args):
        raise ApiError(f"unknown args: {sorted(args.keys() - call.names)}")
    result = call.run(args)
    to_json = getattr(result, "to_json", None)
    if to_json is not None:
        verdict, kind = to_json(), type(result).__name__
    else:
        verdict = list(result) if isinstance(result, tuple) else result
        kind = "value"
    tag = call.tag or (verdict.get("justification", _ARITH_TAG)
                       if isinstance(verdict, dict) else _ARITH_TAG)
    return {"op": op, "kind": kind, "verdict": verdict, "justification": tag}
