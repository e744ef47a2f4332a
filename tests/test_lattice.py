"""Intersection-lattice arithmetic: pairings, invariants, serialization."""

import gc
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npsurf.lattice import (
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
    with pytest.raises(LatticeError):
        S.exceptional(4)
    with pytest.raises(LatticeError):
        S.pullback([1, 2, 3])


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


def test_zero_point_blow_up_is_distinct_from_the_bare_base():
    bare = SurfaceModel.projective_plane()
    wrapped = blow_up(bare, 0, CFG)
    assert wrapped != bare
    assert wrapped.rank == bare.rank
    assert k_squared(wrapped) == k_squared(bare)


def test_divisor_classes_refuse_mixed_surfaces():
    a = SurfaceModel.projective_plane().divisor([1])
    b = SurfaceModel.hirzebruch(0).divisor([1, 1])
    with pytest.raises(LatticeError):
        a.dot(b)
    with pytest.raises(LatticeError):
        _ = a + b
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


def test_json_round_trips():
    for S in sample_surfaces():
        assert SurfaceModel.from_json(S.to_json()) == S
        d = S.divisor(list(range(1, S.rank + 1)))
        back = from_json(d.to_json())
        assert isinstance(back, DivisorClass) and back == d
    assert isinstance(from_json({"kind": "P2"}), SurfaceModel)


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
