"""Intersection-lattice arithmetic: pairings, invariants, serialization."""

import copy
import dataclasses
import gc
import json
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npsurf import lattice
from npsurf.lattice import (
    MAX_POINTS,
    DivisorClass,
    LatticeError,
    PointConfig,
    SurfaceModel,
    blow_up,
    canonical_class,
    euler_characteristic,
    from_json,
    hodge_index_bound,
    intersect,
    k_squared,
    sectional_genus,
    signature,
)

CFG = PointConfig(general_position=True)


def sample_surfaces():
    return [
        SurfaceModel.projective_plane(),
        SurfaceModel.hirzebruch(0),
        SurfaceModel.hirzebruch(1),
        SurfaceModel.hirzebruch(3),
        blow_up(SurfaceModel.projective_plane(), 6, CFG),
        blow_up(SurfaceModel.hirzebruch(1), 4, CFG),
        blow_up(SurfaceModel.hirzebruch(0), 9, CFG),
        blow_up(SurfaceModel.projective_plane(), 0, CFG),
    ]


def gram_dot(d1: DivisorClass, d2: DivisorClass) -> int:
    gram = d1.surface.gram
    return sum(ci * gram[i][j] * cj
               for i, ci in enumerate(d1.coeffs)
               for j, cj in enumerate(d2.coeffs))


def test_fast_pairing_matches_gram_matrix():
    rng = random.Random(7)
    for S in sample_surfaces():
        for _ in range(100):
            d1 = S.divisor([rng.randint(-6, 6) for _ in range(S.rank)])
            d2 = S.divisor([rng.randint(-6, 6) for _ in range(S.rank)])
            assert d1.dot(d2) == gram_dot(d1, d2)
            assert intersect(d1, d2) == d1.dot(d2)


@st.composite
def surface_and_coefficients(draw):
    """A bare or blown-up P2/F_e (e in 0..20, l in 0..12) and two
    coefficient lists on it."""
    base = draw(st.sampled_from([None, *range(21)]))
    S = (SurfaceModel.projective_plane() if base is None
         else SurfaceModel.hirzebruch(base))
    l = draw(st.none() | st.integers(0, 12))
    if l is not None:
        S = blow_up(S, l, CFG)
    coeffs = st.lists(st.integers(-40, 40), min_size=S.rank, max_size=S.rank)
    return S, draw(coeffs), draw(coeffs)


@settings(max_examples=200, deadline=None)
@given(surface_and_coefficients())
def test_pairing_matches_gram_matrix_on_every_base_and_blow_up(case):
    S, c1, c2 = case
    d1, d2 = S.divisor(c1), S.divisor(c2)
    assert d1.dot(d2) == gram_dot(d1, d2) == d2.dot(d1)


def test_equal_surfaces_built_separately_pair():
    for make in (SurfaceModel.projective_plane,
                 lambda: SurfaceModel.hirzebruch(4),
                 lambda: blow_up(SurfaceModel.hirzebruch(2), 3, CFG)):
        S, T = make(), make()
        assert S is not T and S == T
        d1 = S.divisor(range(1, S.rank + 1))
        d2 = T.divisor([2] * T.rank)
        assert d1.dot(d2) == d2.dot(d1) == gram_dot(d1, d2)
        assert (d1 + d2).coeffs == tuple(c + 2 for c in d1.coeffs)
        assert (d1 - d2).coeffs == tuple(c - 2 for c in d1.coeffs)
        back = from_json(d1.to_json())
        assert back.surface is not S and back.dot(d1) == d1.dot(d1)


def test_pairing_refuses_surfaces_that_differ_only_in_config_or_blow_up():
    plane = SurfaceModel.projective_plane()
    general = blow_up(plane, 2, CFG).divisor([1, 0, 0])
    fibers = blow_up(plane, 2, PointConfig(distinct_fibers=True)).divisor(
        [1, 0, 0])
    wrapped = blow_up(plane, 0, CFG).divisor([1])
    bare = plane.divisor([1])
    for a, b in ((general, fibers), (wrapped, bare),
                 (SurfaceModel.hirzebruch(0).divisor([1, 1]),
                  SurfaceModel.hirzebruch(1).divisor([1, 1]))):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(LatticeError):
                x.dot(y)
            with pytest.raises(LatticeError):
                _ = x - y


def test_pairing_is_symmetric_and_bilinear():
    rng = random.Random(11)
    for S in sample_surfaces():
        d1, d2, d3 = (S.divisor([rng.randint(-5, 5) for _ in range(S.rank)])
                      for _ in range(3))
        assert d1.dot(d2) == d2.dot(d1)
        assert (d1 + d2).dot(d3) == d1.dot(d3) + d2.dot(d3)
        assert (3 * d1 - d2).dot(d3) == 3 * d1.dot(d3) - d2.dot(d3)


def test_signature_is_lorentzian_for_every_surface():
    for S in sample_surfaces():
        assert signature(S) == (1, S.rank - 1, 0)


def test_signature_is_lorentzian_over_the_table_range():
    # every base the table uses, bare and blown up at up to 28 points
    for base in (SurfaceModel.projective_plane(),
                 *map(SurfaceModel.hirzebruch, range(21))):
        assert signature(base) == (1, base.rank - 1, 0)
        for l in range(29):
            S = blow_up(base, l, CFG)
            assert signature(S) == (1, S.rank - 1, 0)


def _reference_inertia(rows) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric integer matrix, by
    symmetric elimination over the rationals: each step is a congruence, so
    by Sylvester's law of inertia the signs of the pivots count it."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    pos = neg = zero = 0

    def swap_rowcol(a, b):
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    def add_rowcol(dst, src):
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
                add_rowcol(i, k)
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


@pytest.mark.parametrize("S", sample_surfaces() + [
    SurfaceModel("Fe", 0, MAX_POINTS, CFG), SurfaceModel("P2", None, 1, CFG)])
def test_signature_is_the_inertia_of_the_whole_gram(S):
    # signature reads the base's block only; the elimination over the whole
    # gram (F_0 starts from a zero diagonal) must agree
    assert signature(S) == _reference_inertia(S.gram)


def test_gram_matrix_blocks():
    S = blow_up(SurfaceModel.hirzebruch(2), 3, CFG)
    g = S.gram
    assert g[0][0] == -2 and g[0][1] == g[1][0] == 1 and g[1][1] == 0
    for i in range(2, 5):
        assert g[i][i] == -1
        assert all(g[i][j] == 0 for j in range(5) if j != i)


def test_canonical_class_and_its_square():
    assert canonical_class(SurfaceModel.projective_plane()).coeffs == (-3,)
    assert canonical_class(SurfaceModel.hirzebruch(3)).coeffs == (-2, -5)
    S = blow_up(SurfaceModel.projective_plane(), 5, CFG)
    assert canonical_class(S).coeffs == (-3, 1, 1, 1, 1, 1)
    assert k_squared(S) == 4
    assert k_squared(blow_up(SurfaceModel.hirzebruch(1), 7, CFG)) == 1


def test_characteristic_genus_identity():
    rng = random.Random(13)
    for S in sample_surfaces():
        for _ in range(50):
            d = S.divisor([rng.randint(-6, 6) for _ in range(S.rank)])
            assert (euler_characteristic(d) + sectional_genus(d)
                    == 2 + d.dot(d))
    line = SurfaceModel.projective_plane().divisor([1])
    assert euler_characteristic(line) == 3
    assert sectional_genus(line) == 0


def test_exceptional_classes_are_orthonormal_to_pullbacks():
    S = blow_up(SurfaceModel.hirzebruch(1), 4, CFG)
    pull = S.pullback([2, 3])
    for i in range(4):
        ei = S.exceptional(i)
        assert ei.dot(ei) == -1
        assert ei.dot(pull) == 0
        for j in range(i + 1, 4):
            assert ei.dot(S.exceptional(j)) == 0
    for bad in (4, -1):
        with pytest.raises(LatticeError, match="no exceptional class"):
            S.exceptional(bad)
    with pytest.raises(LatticeError, match="no exceptional class"):
        SurfaceModel.hirzebruch(1).exceptional(0)
    with pytest.raises(LatticeError):
        S.pullback([1, 2, 3])
    assert S.zero() == S.divisor([0] * S.rank)


@pytest.mark.parametrize("index", [True, False, 1.0, "1", None])
def test_exceptional_index_is_an_int_never_coerced(index):
    S = blow_up(SurfaceModel.hirzebruch(1), 4, CFG)
    with pytest.raises(LatticeError, match="must be an integer"):
        S.exceptional(index)


def test_blow_up_validation():
    S = blow_up(SurfaceModel.projective_plane(), 2, CFG)
    with pytest.raises(LatticeError):
        blow_up(S, 1, CFG)
    with pytest.raises(LatticeError):
        blow_up(SurfaceModel.projective_plane(), -1, CFG)
    with pytest.raises(LatticeError):
        SurfaceModel.hirzebruch(-1)
    with pytest.raises(LatticeError):
        SurfaceModel(kind="K3")


def test_constructors_refuse_what_from_json_refuses():
    P2 = SurfaceModel.projective_plane()
    for call in (lambda: blow_up(P2, 2.5, CFG),
                 lambda: SurfaceModel.hirzebruch(True),
                 lambda: SurfaceModel.hirzebruch(1.0)):
        with pytest.raises(LatticeError,
                           match="^surface fields e and l must be JSON integers$"):
            call()
    # the type is checked first, so a float e on P2 is named as a float
    with pytest.raises(LatticeError, match="must be JSON integers"):
        SurfaceModel.from_json({"kind": "P2", "e": 1.5})
    # a null e is an absent e, as a null optional argument is
    assert SurfaceModel.from_json({"kind": "P2", "e": None}) == P2
    for flags in ({"distinct_fibers": 1}, {"general_position": "yes"}):
        with pytest.raises(LatticeError,
                           match="^config flags must be JSON booleans$"):
            PointConfig(**flags)
    with pytest.raises(LatticeError,
                       match="^cannot blow up a negative number of points$"):
        blow_up(P2, -1, CFG)


def test_blow_up_above_the_point_bound_is_refused():
    message = f"cannot blow up more than {MAX_POINTS} points, got {MAX_POINTS + 1}"
    with pytest.raises(LatticeError, match=message):
        blow_up(SurfaceModel.projective_plane(), MAX_POINTS + 1, CFG)
    with pytest.raises(LatticeError, match=message):
        SurfaceModel.from_json({"kind": "Fe", "e": 1, "l": MAX_POINTS + 1,
                                "config": {}})


def test_blow_up_at_the_point_bound_is_accepted():
    assert k_squared(blow_up(SurfaceModel.projective_plane(), MAX_POINTS,
                             CFG)) == 9 - MAX_POINTS
    S = SurfaceModel.from_json({"kind": "Fe", "e": 1, "l": MAX_POINTS,
                                "config": {}})
    assert S.rank == MAX_POINTS + 2 and k_squared(S) == 8 - MAX_POINTS


def test_ranks_are_set_once_and_stay_out_of_equality_and_repr():
    S = blow_up(SurfaceModel.hirzebruch(2), 3, CFG)
    assert repr(S) == (
        "SurfaceModel(kind='Fe', e=2, l=3, config=PointConfig("
        "on_smooth_anticanonical=False, distinct_fibers=False, "
        "away_from_min_section=False, anticanonical_effective=False, "
        "general_position=True, complete_intersection_of_cubics=False))")
    compared = [f.name for f in dataclasses.fields(S) if f.compare]
    assert compared == ["kind", "e", "l", "config"]
    assert hash(S) == hash((S.kind, S.e, S.l, S.config))
    assert (S.base_rank, S.rank) == (2, 5)
    assert dataclasses.replace(S, l=3) == S
    for l in (0, 3, 7):
        assert dataclasses.replace(S, l=l).rank == S.base_rank + l
    for T in sample_surfaces():
        back = SurfaceModel.from_json(T.to_json())
        assert back == T and hash(back) == hash(T)
        assert (back.base_rank, back.rank) == (T.base_rank, T.rank)


@pytest.mark.parametrize("coeffs", [[1, 2.7], [1, "3"], [True, 1], [1, 2, 3],
                                    [1]])
def test_divisor_json_refuses_non_integer_coefficients_and_wrong_length(
        coeffs):
    with pytest.raises(LatticeError):
        DivisorClass.from_json({"kind": "Fe", "e": 1, "coeffs": coeffs})


def test_zero_point_blow_up_is_distinct_from_the_bare_base():
    bare = SurfaceModel.projective_plane()
    wrapped = blow_up(bare, 0, CFG)
    assert wrapped != bare
    assert wrapped.rank == bare.rank
    assert k_squared(wrapped) == k_squared(bare)


def test_divisor_classes_refuse_mixed_surfaces():
    a = SurfaceModel.projective_plane().divisor([1])
    b = SurfaceModel.hirzebruch(0).divisor([1, 1])
    message = "^divisor classes live on different surfaces$"
    for mixed in (lambda: a.dot(b), lambda: a + b, lambda: a - b):
        with pytest.raises(LatticeError, match=message):
            mixed()
    with pytest.raises(LatticeError):
        SurfaceModel.projective_plane().divisor([1, 2])


@pytest.mark.parametrize("bad", [2.7, "3", True])
def test_divisor_and_pullback_refuse_non_integer_coefficients(bad):
    # never coerced: int() would turn these into 2, 3 and 1
    S = blow_up(SurfaceModel.hirzebruch(1), 1, CFG)
    with pytest.raises(LatticeError, match="must be integers"):
        S.divisor([1, bad, 0])
    with pytest.raises(LatticeError, match="must be integers"):
        S.pullback([bad, 1])


@pytest.mark.parametrize("scalar", [1.5, True, "2"])
def test_scaling_refuses_non_integers(scalar):
    # 1.5 would give float coefficients and True would be read as 1
    d = SurfaceModel.projective_plane().divisor([2])
    with pytest.raises(TypeError):
        _ = d * scalar
    with pytest.raises(TypeError):
        _ = scalar * d
    assert (d * 3).coeffs == (3 * d).coeffs == (6,)


def test_divisor_classes_are_slotted_values():
    S = blow_up(SurfaceModel.hirzebruch(2), 3, CFG)
    d = S.divisor([1, 2, -1, 0, 3])
    assert not hasattr(d, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.coeffs = (0,) * S.rank
    same = S.divisor([1, 2, -1, 0, 3])
    assert d == same and hash(d) == hash(same)
    assert d != S.zero()
    assert repr(d) == f"DivisorClass(surface={S!r}, coeffs=(1, 2, -1, 0, 3))"
    assert dataclasses.replace(d, coeffs=(0,) * S.rank) == S.zero()
    for back in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert back == d and hash(back) == hash(d)
        assert back.surface is not S and back.dot(d) == d.dot(d)


def test_json_round_trips():
    for S in sample_surfaces():
        assert SurfaceModel.from_json(S.to_json()) == S
        d = S.divisor(list(range(1, S.rank + 1)))
        back = from_json(d.to_json())
        assert isinstance(back, DivisorClass) and back == d
    assert isinstance(from_json({"kind": "P2"}), SurfaceModel)


@pytest.mark.parametrize("obj", [5, None, 2.5, True])
def test_from_json_refuses_a_non_object(obj):
    with pytest.raises(LatticeError,
                       match="^surface or divisor JSON must be an object$"):
        from_json(obj)


def test_json_rejects_unknown_and_inconsistent_fields():
    with pytest.raises(LatticeError):
        SurfaceModel.from_json({"kind": "P2", "spin": 1})
    with pytest.raises(LatticeError):
        SurfaceModel.from_json({"kind": "P2", "l": 3})  # config missing
    with pytest.raises(LatticeError):
        PointConfig.from_json({"points_on_a_line": True})
    with pytest.raises(LatticeError):
        DivisorClass.from_json({"kind": "P2"})


def test_hodge_index_bound_requires_positive_square():
    S = SurfaceModel.projective_plane()
    with pytest.raises(LatticeError):
        hodge_index_bound(S.divisor([0]), S.divisor([1]))
    assert hodge_index_bound(S.divisor([2]), S.divisor([-5]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=7, max_size=7),
       st.lists(st.integers(-8, 8), min_size=7, max_size=7))
def test_index_inequality_on_positive_classes(c1, c2):
    S = blow_up(SurfaceModel.projective_plane(), 6, CFG)
    d1, d2 = S.divisor(c1), S.divisor(c2)
    a2 = d1.dot(d1)
    if a2 > 0:
        assert d1.dot(d2) ** 2 >= a2 * d2.dot(d2)


def test_divisor_arithmetic_does_not_fill_other_tuple_free_lists():
    # tuple() over a generator or a map starts from a 10-slot tuple and
    # resizes it, so each result is freed into the free list of another
    # size; a process that seldom runs a full collection, as one serving
    # streaming oracle requests does, then keeps megabytes of dead tuples
    S = blow_up(SurfaceModel.projective_plane(), 12, CFG)
    A = S.divisor([3] + [-1] * 12)

    def churn():
        held = [A + A for _ in range(200)] + [A - A for _ in range(200)]
        held += [-A for _ in range(200)] + [2 * A for _ in range(200)]
        held += [S.divisor(A.coeffs) for _ in range(200)]
        return len(held)

    gc.disable()
    try:
        gc.collect()
        churn()
        before = sys.getallocatedblocks()
        for _ in range(5):
            churn()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 100


# --- one parsed object per surface JSON ------------------------------------

BLOWN_UP = {"kind": "Fe", "e": 1, "l": 2, "config": {"general_position": True}}


def test_equal_json_parses_to_one_surface_object():
    S = SurfaceModel.from_json(BLOWN_UP)
    # an equal object read again, and one with its fields in another order
    assert SurfaceModel.from_json(json.loads(json.dumps(BLOWN_UP))) is S
    assert SurfaceModel.from_json(dict(reversed(BLOWN_UP.items()))) is S
    d1 = DivisorClass.from_json({**BLOWN_UP, "coeffs": [1, 2, 3, 4]})
    d2 = DivisorClass.from_json({**BLOWN_UP, "coeffs": [0, 1, -1, 0]})
    assert d1.surface is d2.surface is S
    # a null e reads as an absent one, here as in the parse
    plane = SurfaceModel.from_json({"kind": "P2"})
    assert SurfaceModel.from_json({"kind": "P2", "e": None}) is plane
    # a kept surface is the value the parse gives, with its answers kept
    assert S == blow_up(SurfaceModel.hirzebruch(1), 2, CFG)
    assert signature(S) is signature(S) and S.canonical is S.canonical
    assert "gram" not in vars(S)


# (a valid surface, a request that differs from it in one field, today's
# refusal of that request); each valid surface is parsed first, so an
# equal-hashing value would find it kept
TWINS = [
    ({"kind": "Fe", "e": 1}, {"kind": "Fe", "e": True},
     "surface fields e and l must be JSON integers"),
    ({"kind": "Fe", "e": 1}, {"kind": "Fe", "e": 1.0},
     "surface fields e and l must be JSON integers"),
    ({"kind": "Fe", "e": 0}, {"kind": "Fe", "e": False},
     "surface fields e and l must be JSON integers"),
    ({"kind": "P2", "l": 1, "config": {}},
     {"kind": "P2", "l": True, "config": {}},
     "surface fields e and l must be JSON integers"),
    ({"kind": "P2", "l": 1, "config": {}},
     {"kind": "P2", "l": 1.0, "config": {}},
     "surface fields e and l must be JSON integers"),
    ({"kind": "P2", "l": 1, "config": {"general_position": True}},
     {"kind": "P2", "l": 1, "config": {"general_position": 1}},
     "config flags must be JSON booleans"),
    ({"kind": "P2", "l": 1, "config": {"general_position": False}},
     {"kind": "P2", "l": 1, "config": {"general_position": 0}},
     "config flags must be JSON booleans"),
    ({"kind": "P2", "l": 1, "config": {}},
     {"kind": "P2", "l": 1, "config": {"spin": False}},
     "unknown config flags: ['spin']"),
    ({"kind": "P2"}, {"kind": "P2", "spin": 1},
     "unknown surface fields: ['spin']"),
    ({"kind": "P2", "l": 1, "config": {}},
     {"kind": "P2", "l": 1, "config": {}, "spin": None},
     "unknown surface fields: ['spin']"),
    ({"kind": "P2", "l": 0, "config": {}},
     {"kind": "P2", "l": 0, "config": []}, "config JSON must be an object"),
    ({"kind": "P2", "l": 0, "config": {}},
     {"kind": "P2", "l": 0, "config": None}, "config JSON must be an object"),
    ({"kind": "P2"}, {"kind": "P2", "l": None},
     "blow-up JSON needs both l and config"),
    ({"kind": "P2"}, {"kind": "P2", "config": {}},
     "blow-up JSON needs both l and config"),
    ({"kind": "P2"}, {"e": None}, "surface JSON needs a kind field"),
    ({"kind": "P2"}, {}, "surface JSON needs a kind field"),
]


@pytest.mark.parametrize("valid,twin,message", TWINS,
                         ids=[json.dumps(t) for _, t, _ in TWINS])
def test_a_kept_surface_never_answers_for_a_refused_twin(valid, twin, message):
    rank = SurfaceModel.from_json(valid).rank
    DivisorClass.from_json({**valid, "coeffs": [1] * rank})
    with pytest.raises(LatticeError) as refused:
        SurfaceModel.from_json(twin)
    assert str(refused.value) == message
    with pytest.raises(LatticeError) as refused:
        DivisorClass.from_json({**twin, "coeffs": [1] * rank})
    assert str(refused.value) == message


def test_a_kept_surface_still_checks_every_divisor():
    SurfaceModel.from_json(BLOWN_UP)
    for coeffs, message in (([1, 2, 3], "expected 4 coefficients, got 3"),
                            ([1, 2, 3, True], "coeffs must be a JSON array"),
                            ((1, 2, 3, 4), "coeffs must be a JSON array")):
        with pytest.raises(LatticeError, match=message):
            DivisorClass.from_json({**BLOWN_UP, "coeffs": coeffs})
    with pytest.raises(LatticeError, match="unknown surface fields"):
        SurfaceModel.from_json({**BLOWN_UP, "coeffs": [1, 2, 3, 4]})


def test_a_full_cache_of_the_largest_surfaces_keeps_no_gram():
    # every kept surface blows up MAX_POINTS points and is asked for each
    # answer it keeps; a kept gram alone would be rank**2 = 10,404 entries,
    # about 87 KB, per surface
    bound = 4_000 * lattice._MAX_SURFACES
    lattice._SURFACES.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for e in range(lattice._MAX_SURFACES + 1):
            obj = {"kind": "Fe", "e": e, "l": MAX_POINTS, "config": {}}
            S = SurfaceModel.from_json(obj)
            assert signature(S) == (1, S.rank - 1, 0)
            k_squared(S)
            sectional_genus(DivisorClass.from_json(
                {**obj, "coeffs": [1] * S.rank}))
        del S
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the oldest surface made room for the last
    kept = [key[1] for key in lattice._SURFACES]
    lattice._SURFACES.clear()
    assert kept == list(range(1, lattice._MAX_SURFACES + 1))
    assert retained < bound


def _flag_sets():
    """The 64 configs, each as the JSON object of its true flags."""
    return [{name: True for i, name in enumerate(lattice.CONFIG_FLAGS)
             if mask >> i & 1} for mask in range(1 << len(lattice.CONFIG_FLAGS))]


def test_a_surface_writes_every_derived_value_at_construction():
    S = SurfaceModel.from_json({"kind": "Fe", "e": 3, "l": 4, "config": {}})
    keys = list(vars(S))
    assert keys == ["kind", "e", "l", "config", "base_rank", "rank",
                    "canonical", "signature"]
    signature(S), canonical_class(S), k_squared(S), S.gram
    sectional_genus(S.divisor([1, 2, 0, 0, 0, 0]))
    assert list(vars(S)) == keys


def test_kept_surfaces_hold_about_half_a_kilobyte_each():
    # 1,000 distinct blown-up P2 and F_e (l <= 8), each asked every answer
    # it keeps; about 460-520 B each on CPython 3.10-3.13, about 1 KB when
    # a value written after construction un-shares the instance dict
    objs = [{"kind": kind, "e": e, "l": l, "config": config}
            for l in range(9) for config in _flag_sets()
            for kind, e in (("P2", None), ("Fe", l % 3))][:1000]
    lattice._SURFACES.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for obj in objs:
            S = SurfaceModel.from_json(obj)
            signature(S), k_squared(S)
            sectional_genus(S.canonical)
        del S
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kept = len(lattice._SURFACES)
    lattice._SURFACES.clear()
    assert kept == len(objs) == 1000
    assert retained < 640 * kept


def test_a_config_is_keyed_by_its_true_flags():
    lattice._SURFACES.clear()
    for l, first, second in ((2, {}, {"general_position": False}),
                             (3, {"general_position": False}, {}),
                             (4, dict.fromkeys(lattice.CONFIG_FLAGS, False),
                              {})):
        S = SurfaceModel.from_json({"kind": "P2", "l": l, "config": first})
        assert SurfaceModel.from_json(
            {"kind": "P2", "l": l, "config": second}) is S
        assert S.to_json() == {"kind": "P2", "l": l, "config": {}}
    # every set of flags on one (kind, e, l) is its own surface, the one
    # the full parse gives
    objs = [{"kind": "Fe", "e": 2, "l": 5, "config": config}
            for config in _flag_sets()]
    kept = [SurfaceModel.from_json(obj) for obj in objs]
    assert len(set(kept)) == 64
    for obj, S in zip(objs, kept):
        assert S == SurfaceModel._parse(obj)
        assert SurfaceModel.from_json(json.loads(json.dumps(obj))) is S
    lattice._SURFACES.clear()
