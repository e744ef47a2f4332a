"""Hermetic self-checks covering the package's verification contract.

Each check is a pure function of no arguments returning (passed, detail);
``run_all`` wraps them with timing.  The same functions back the acceptance
test suite and the ``selftest`` CLI subcommand.  A check collects its failure
messages in one ``_Failures`` list: ``expect`` records a message when a
condition is false, ``refuses`` when a call that must raise returns instead,
and ``result`` reports the first five messages, or the detail string when
there are none.  Everything is deterministic: fixed seeds, fixed sizes
(``_PAIRS_PER_FAMILY`` sampled pairs per family, ``_MIN_DETECTION_RATE`` for
the perturbation suite, the default oracle box for the sweeps), no network,
no files outside the installed package data.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from operator import mul

from . import criteria, families, fano, lattice
from .criteria import (
    CriteriaError,
    NpVerdict,
    adjoint_np_min_n,
    ampleness_termination,
    curve_np_reference,
    lemma_125_bound,
    np_classify_degree,
    reider_np,
    thm_121_equivalence,
    verify_inequality_chain,
)
from .families import (
    FAMILY_IDS,
    FAMILY_SWEEPS,
    brute_force_ample_oracle,
    build_example,
    mutate_polarization,
    nakai_certificate,
    sweep_family,
)

_SEED = 20230823
_PAIRS_PER_FAMILY = 10_000
_MIN_DETECTION_RATE = 0.9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class _Failures(list):
    """The failure messages of one check."""

    def expect(self, cond: bool, msg: str) -> None:
        if not cond:
            self.append(msg)

    def refuses(self, call, exc: type[Exception], msg: str) -> None:
        """Record ``msg`` unless ``call()`` raises ``exc``."""
        try:
            call()
        except exc:
            return
        self.append(msg)

    def result(self, detail: str, limit: int | None = 5) -> tuple[bool, str]:
        if self:
            return False, "; ".join(self[:limit])
        return True, detail


# --- 1: family sweeps ------------------------------------------------------


def check_family_sweeps() -> tuple[bool, str]:
    """Re-verify every instance of every reference family, including the
    certificate/oracle agreement, the attested refusals and the frozen
    fixture pins, all of which ``verify_example`` compares."""
    failures = _Failures()
    instances = 0
    for fid in FAMILY_IDS:
        try:
            instances += len(sweep_family(fid, strict=True))
        except families.VerificationError as exc:
            failures.append(str(exc))
    return failures.result(
        f"{instances} instances across {len(FAMILY_IDS)} families")


# --- 2: minimal summand-count table ---------------------------------------


def reconstructed_min_n(ksq: int, p: int, e: int | None = None,
                        exclude: frozenset = frozenset()) -> int:
    """Independent reconstruction of the minimal-summand table.

    Combines the very-ampleness floor on the number of ample summands with
    the worst-case per-summand degree: n summands contribute at least
    ``n * beta`` to ``-K.(K + sum A_i) - K^2``, where ``beta`` is the least
    ``-K.A`` over the summand shapes not excluded.
    """
    if ksq == 9:
        floor_n = 4
    elif ksq == 8:
        floor_n = 3
    elif 3 <= ksq <= 7:
        floor_n = 2
    elif ksq == 2:
        floor_n = 2 if "minus_k" in exclude else 3
    elif ksq == 1:
        floor_n = 2 if "minus_k" in exclude else 4
    elif ksq == 0:
        floor_n = 3
    else:
        floor_n = 2

    if ksq == 9:
        beta = 3
    elif ksq == 8:
        beta = (e + 4) if e is not None else 4
    elif 1 <= ksq <= 7:
        vals = {"other": ksq + 3, "conic_fibration": ksq + 2, "minus_k": ksq}
        if ksq == 1:
            vals["minus_2k"] = 2
            vals["minus_3k"] = 3
        if ksq == 2:
            vals["minus_2k"] = 4
        beta = min(v for tag, v in vals.items() if tag not in exclude)
    else:
        beta = 1

    need = p + 3 + ksq
    n_deg = -(-need // beta) if need > 0 else 0
    return max(floor_n, n_deg)


def check_min_n_table() -> tuple[bool, str]:
    """The closed-form minimal-summand table must equal its reconstruction
    on every regime, and behave monotonically."""
    failures = _Failures()
    compared = 0
    for ksq in range(-5, 10):
        regimes: list[tuple[int | None, frozenset]] = [(None, frozenset())]
        if 1 <= ksq <= 7:
            four = {"minus_k"} | ({"minus_2k"} if ksq == 1 else set())
            regimes.append((None, frozenset(four)))
        if 2 <= ksq <= 7:
            five = {"minus_k", "conic_fibration"} | (
                {"minus_2k"} if ksq == 2 else set())
            regimes.append((None, frozenset(five)))
        if ksq == 8:
            regimes += [(e, frozenset()) for e in range(0, 6)]
        for e, exclude in regimes:
            prev = None
            for p in range(0, 41):
                got = adjoint_np_min_n(ksq, p, e=e, exclude=exclude).n
                want = reconstructed_min_n(ksq, p, e=e, exclude=exclude)
                compared += 1
                if got != want:
                    failures.append(
                        f"ksq={ksq} p={p} e={e} exclude={sorted(exclude)}: "
                        f"table {got} != reconstruction {want}")
                if prev is not None and got < prev:
                    failures.append(
                        f"ksq={ksq} e={e} exclude={sorted(exclude)}: "
                        f"not monotone at p={p}")
                prev = got
        # exclusions may only help
        if 2 <= ksq <= 7:
            for p in range(0, 41):
                if (adjoint_np_min_n(ksq, p, exclude=five).n
                        > adjoint_np_min_n(ksq, p).n):
                    failures.append(f"ksq={ksq} p={p}: exclusions raised the "
                                    "summand count")
    return failures.result(f"{compared} (ksq, p, regime) cells agree")


# --- 3: degree-bound inequality chain --------------------------------------


def check_degree_chain() -> tuple[bool, str]:
    """The quadratic-to-degree bound and its proof inequalities over the
    full integer grid, with the exact equality locus."""
    failures = _Failures()
    cells = 0
    for ksq in range(1, 9):
        p_lo = 2 if ksq == 8 else 1
        for p in range(p_lo, 51):
            for m in range(2, 51):
                i1, i2, i3 = verify_inequality_chain(p, m, ksq)
                cells += 1
                if not (i1 and i2 and i3):
                    failures.append(f"chain failed at p={p} m={m} ksq={ksq}: "
                                    f"{(i1, i2, i3)}")
                d = p - m
                if ((d * d + 5 * d + 6 == 0) != (d in (-2, -3))):
                    failures.append(f"equality locus wrong at p={p} m={m}")
    # the bound itself: fires exactly on the quadratic threshold
    for ksq in range(1, 9):
        p_lo = 2 if ksq == 8 else 1
        for p in range(p_lo, 11):
            edge = (p + 3) ** 2 - 1
            if lemma_125_bound(ksq, edge, p, adjoint_effective=True) != p + 3 + ksq:
                failures.append(f"bound missing at ksq={ksq} p={p}")
            if lemma_125_bound(ksq, edge - 1, p, adjoint_effective=True) is not None:
                failures.append(f"bound overfired at ksq={ksq} p={p}")
    for bad_call in (
        lambda: lemma_125_bound(1, 100, 1, multiple_of_minus_k=True,
                                adjoint_effective=True),
        lambda: lemma_125_bound(8, 100, 1, adjoint_effective=True),
        lambda: lemma_125_bound(3, 100, 1),
        lambda: lemma_125_bound(9, 100, 1, adjoint_effective=True),
    ):
        failures.refuses(bad_call, CriteriaError,
                         "an out-of-scope degree-bound call was accepted")
    return failures.result(f"{cells} grid cells verified")


# --- 4: sharpness boundaries ----------------------------------------------


def _fe_ample(e: int, a: int, b: int) -> bool:
    """Ampleness on a bare Hirzebruch surface via its curve cone."""
    return a > 0 and b > a * e


def check_sharpness() -> tuple[bool, str]:
    """Equality-adjacent fixtures: each criterion fires exactly at its
    stated boundary and is silent or reversed one step past it."""
    failures = _Failures()
    expect = failures.expect

    # ampleness/very-ampleness/N_p equivalences, lowest interesting degree
    rep = thm_121_equivalence(3)
    expect(rep.triple_equivalence and rep.minus_k_exact_max == 0,
           "degree-3 equivalence report off")
    v = np_classify_degree(3, {"ample": True, "anticanonical": True})
    expect((v.status, v.p) == ("ExactMax", 0), "degree-3 classification off")
    rep2 = thm_121_equivalence(2)
    expect(rep2.np_iff_ample == 1 and not rep2.triple_equivalence,
           "degree-2 rider off")
    expect(thm_121_equivalence(2, summand="minus_k").np_iff_ample is None,
           "degree-2 anticanonical bundle should be excluded")
    failures.refuses(lambda: thm_121_equivalence(1), CriteriaError,
                     "degree-1 equivalence should be out of scope")

    # quadratic gates: exact thresholds
    for p in range(0, 11):
        box = (p + 3) ** 2
        expect(bool(reider_np(2, (p + 4) ** 2, p, cond1_attested=True)),
               f"square-above gate failed at p={p}")
        r = reider_np(2, box, p, cond1_attested=True)
        expect(bool(r) and r.justification.endswith("2b"),
               f"near-square gate failed at p={p}")
        expect(not reider_np(2, box - 2, p, cond1_attested=True),
               f"gate fired below threshold at p={p}")
        expect(not reider_np(1, box, p, cond1_attested=True,
                             multiple_of_minus_k=True),
               f"blocked shape passed the near-square gate at p={p}")
        expect(bool(reider_np(1, box + 1, p, cond1_attested=True,
                              multiple_of_minus_k=True)),
               f"square-above gate blocked incorrectly at p={p}")

    # at nonpositive K^2 only the degree gate is sound: this profile
    # (self-intersection 27 >= 26) must still be rejected for p = 2
    trap = reider_np(0, 27, 2, minus_k_dot_L=3, cond1_attested=True)
    expect(not trap, "quadratic gate leaked into the nonpositive range")
    expect(bool(reider_np(0, 27, 0, minus_k_dot_L=3, cond1_attested=True)),
           "degree gate failed at its boundary")
    failures.refuses(lambda: reider_np(0, 27, 2, cond1_attested=True),
                     CriteriaError,
                     "nonpositive range accepted without the degree datum")

    # termination thresholds, equality-adjacent on both sides
    for d in range(1, 13):
        thr = ampleness_termination(9, 3 * d - 3, np_sharp_attested=True)
        m1 = thr.m_min
        expect(m1 == (d - 1) // 3 + 1, f"plane threshold off at d={d}")
        expect(d - 3 * m1 < 1, f"plane twist m={m1} still ample at d={d}")
        expect(d - 3 * (m1 - 1) >= 1,
               f"plane twist m={m1 - 1} lost ampleness at d={d}")
    for e in range(0, 9):
        thr = ampleness_termination(8, e + 1, e=e, np_sharp_attested=True)
        expect(thr.m_min == 1, f"ruled threshold off at e={e}")
        expect(not _fe_ample(e, -2 + 1, -(e + 2) + (e + 1)),
               f"adjoint twist unexpectedly ample at e={e}")
        expect(_fe_ample(e, 1, e + 1), f"polarization not ample at e={e}")
    for ksq in range(1, 8):
        for scale in range(1, 7):
            p = scale * ksq - 3
            if p < 0:
                continue
            thr = ampleness_termination(ksq, p, multiple_of_minus_k=True,
                                        np_sharp_attested=True)
            expect(thr.m_min == scale,
                   f"anticanonical-multiple threshold off at ksq={ksq} "
                   f"scale={scale}")
            expect(thr.contains(scale) and not thr.contains(scale - 1),
                   f"threshold membership off at ksq={ksq} scale={scale}")
    for e in range(0, 3):
        for n in range(1, 8):
            thr = ampleness_termination(n, n - 1, multiple_of_minus_k=False,
                                        np_sharp_attested=True)
            expect(thr.m_min == 1,
                   f"non-multiple threshold off at ksq={n}")
            ex = build_example("1.16", {"e": e, "n": n})
            adjoint = lattice.canonical_class(ex.surface) + ex.A
            expect(adjoint.dot(adjoint) == 0,
                   f"adjoint of the boundary family not on the cone edge "
                   f"(e={e}, n={n})")
            cert = nakai_certificate(ex)
            expect(cert.valid, f"boundary family not certified (e={e}, n={n})")
    thr = ampleness_termination(-2, 1, np_sharp_attested=True)
    expect(thr.direction == "below" and thr.m_max == -2,
           "negative-range threshold off at p=1")
    thr = ampleness_termination(-2, 2, np_sharp_attested=True)
    expect(thr.m_max == -3, "negative-range integral boundary off")
    failures.refuses(
        lambda: ampleness_termination(0, 3, np_sharp_attested=True),
        CriteriaError, "fiber-class regime accepted a threshold")
    failures.refuses(lambda: ampleness_termination(9, 3), CriteriaError,
                     "threshold issued without the sharpness attestation")

    # the curve reference cases pin the surface criterion's shape
    v = curve_np_reference(1, 3)
    expect((v.status, v.p) == ("ExactMax", 0), "elliptic base case off")
    expect(curve_np_reference(1, 2).status == "NotN0",
           "elliptic low-degree case off")
    v = curve_np_reference(3, 8)
    expect((v.status, v.p) == ("AtLeast", 1), "genus-3 curve bound off")
    expect(curve_np_reference(3, 6).status == "NotApplicable",
           "curve bound fired below threshold")

    return failures.result("all boundary fixtures equality-adjacent")


# --- 5: fano criteria ------------------------------------------------------


def check_fano() -> tuple[bool, str]:
    failures = _Failures()
    expect = failures.expect

    # pinned twists of projective space; the first is recomputed
    expect(fano.projective_space_twist_max_np(3, 2).p == 5, "P3 O(2) pin off")
    expect(fano.projective_space_twist_max_np(3, 3).p == 6, "P3 O(3) pin off")
    expect(fano.projective_space_twist_max_np(4, 2).p == 5, "P4 O(2) pin off")
    v = fano.primitive_np(fano.FanoInput(n=3, m=2, Hn=8))
    expect((v.status, v.p) == ("ExactMax", 5),
           "primitive classification disagrees with the degree-8 pin")
    failures.refuses(lambda: fano.projective_space_twist_max_np(5, 2),
                     fano.FanoError, "unpinned lookup did not error")

    # induction base: dimension-2 case must match the surface classifier
    for d in range(1, 10):
        a = fano.surface_induction_base(d)
        b = np_classify_degree(d, {"ample": True, "anticanonical": True})
        expect((a.status, a.p) == (b.status, b.p),
               f"induction base mismatch at degree {d}")

    expect(bool(fano.multiples_np_surface({"minusK_dot_B": 4}, 2, 2)),
           "surface multiples gate failed")
    expect(bool(fano.multiples_np_surface(
        {"minusK_dot_B": 3, "is_P2_O1": True}, 1, 1)),
        "plane line-bundle special case failed")
    expect(not fano.multiples_np_surface({"minusK_dot_B": 3}, 5, 1),
           "surface multiples fired without its degree hypothesis")
    failures.refuses(
        lambda: fano.multiples_np_surface({"minusK_dot_B": 4}, 1, 0),
        fano.FanoError, "surface multiples accepted p = 0")

    expect(bool(fano.multiples_np_fano(fano.FanoInput(4, 3, 4), 3, 3)),
           "fano multiples gate failed")
    expect(not fano.multiples_np_fano(fano.FanoInput(4, 3, 3), 5, 3),
           "fano multiples fired at degree 3 with index n-1")
    expect(bool(fano.multiples_np_fano(fano.FanoInput(3, 3, 1), 2, 2)),
           "index above n-1 should not need the degree gate")
    failures.refuses(
        lambda: fano.multiples_np_fano(fano.FanoInput(4, 2, 5), 3, 3),
        fano.FanoError, "fano multiples accepted index below n-1")

    f43 = fano.FanoInput(n=6, m=3, Hn=2)
    expect(fano.index_nm3_n0(f43, 4).status == "N0", "k=4 case off")
    expect(fano.index_nm3_n0(fano.FanoInput(
        n=6, m=3, Hn=2, morphism=fano.MORPHISM_TWO_TO_ONE_ONTO_PN), 3
    ).status == "NotN0", "k=3 double-cover case off")
    expect(fano.index_nm3_n0(f43, 3).status == "ConditionalN0",
           "k=3 unknown-morphism case off")
    expect(fano.index_nm3_n0(fano.FanoInput(
        n=6, m=3, Hn=2, morphism=fano.MORPHISM_NEITHER), 3
    ).status == "N0", "k=3 generic-morphism case off")
    expect(fano.index_nm3_n0(fano.FanoInput(
        n=6, m=3, Hn=2, morphism=fano.MORPHISM_ONTO_MINIMAL_DEGREE_NOT_PN), 2
    ).status == "Silent", "k=2 minimal-degree case should be silent")
    expect(fano.index_nm3_n0(fano.FanoInput(
        n=6, m=3, Hn=2, morphism=fano.MORPHISM_NEITHER), 2
    ).status == "N0", "k=2 generic-morphism case off")
    expect(fano.index_nm3_n0(f43, 1).status == "Silent", "k=1 not silent")
    failures.refuses(
        lambda: fano.index_nm3_n0(fano.FanoInput(n=6, m=5, Hn=2), 4),
        fano.FanoError, "index n-3 op accepted the wrong index")

    expect(bool(fano.index_nm3_np(fano.FanoInput(4, 1, 2, h0H=6), 3, 1)),
           "index n-3 syzygy gate failed")
    expect(not fano.index_nm3_np(fano.FanoInput(4, 1, 2, h0H=5), 3, 1),
           "section-count gate leaked")
    expect(not fano.index_nm3_np(fano.FanoInput(4, 1, 2, h0H=6), 2, 1),
           "twist gate leaked")
    failures.refuses(lambda: fano.index_nm3_np(fano.FanoInput(4, 1, 2), 3, 1),
                     fano.FanoError, "missing section count did not error")

    # monotonicity in each numeric argument
    for p in range(1, 6):
        prev = False
        for l in range(0, 10):
            cur = bool(fano.multiples_np_fano(fano.FanoInput(4, 3, 4), l, p))
            expect(cur or not prev, f"multiples not monotone in l at p={p}")
            prev = cur
        prev = False
        for k in range(1, 10):
            cur = bool(fano.index_nm3_np(fano.FanoInput(4, 1, 2, h0H=6), k, p))
            expect(cur or not prev, f"twist criterion not monotone at p={p}")
            prev = cur
    order = {"Silent": 0, "ConditionalN0": 1, "N0": 2}
    prev_rank = -1
    for k in range(1, 7):
        rank = order.get(fano.index_nm3_n0(f43, k).status, 0)
        expect(rank >= prev_rank, f"normality decision regressed at k={k}")
        prev_rank = rank

    failures.refuses(
        lambda: fano.FanoInput(n=4, m=3, Hn=2, h0H=4,
                               morphism=fano.MORPHISM_TWO_TO_ONE_ONTO_PN),
        fano.FanoError, "inconsistent section count accepted")

    return failures.result(
        "pins, induction base, gates, and monotonicity verified")


# --- 6: algebraic property suites ------------------------------------------


def _slow_dot(d1: lattice.DivisorClass, d2: lattice.DivisorClass) -> int:
    gram = d1.surface.gram
    return sum(ci * gram[i][j] * cj
               for i, ci in enumerate(d1.coeffs)
               for j, cj in enumerate(d2.coeffs))


def _family_surfaces() -> list[tuple[str, lattice.SurfaceModel]]:
    return [(fid, build_example(fid, FAMILY_SWEEPS[fid][-1]).surface)
            for fid in FAMILY_IDS]


def _randints(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """``[rng.randint(lo, hi) for _ in range(k)]``, value for value.

    This is CPython's own rejection loop (``_randbelow_with_getrandbits``,
    with ``n.bit_length()`` bits per draw, not ``(n - 1).bit_length()``)
    without the ``randint -> randrange`` call layers, so it consumes the
    generator exactly as ``randint`` does.
    """
    n = hi - lo + 1
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(k):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        out.append(lo + r)
    return out


def _random_positive(S: lattice.SurfaceModel, rng: random.Random):
    """A class with positive self-intersection: random exceptional part,
    base part forced large enough (no rejection sampling)."""
    ms = _randints(rng, -4, 4, S.rank - S.base_rank)
    load = sum(map(mul, ms, ms))
    if S.base_rank == 1:
        a = math.isqrt(load) + 1 + _randints(rng, 0, 9, 1)[0]
        return S.divisor([a, *ms])
    e = S.e
    a = _randints(rng, 1, 6, 1)[0]
    b = (e * a * a + load) // (2 * a) + 1 + _randints(rng, 0, 9, 1)[0]
    return S.divisor([a, b, *ms])


def check_properties() -> tuple[bool, str]:
    """Randomized algebraic invariants, exact on every sampled pair.

    Every draw goes through ``_randints``, which must stay identical to
    ``randint`` value for value, so the sampled pairs never move."""
    failures = _Failures()
    rng = random.Random(_SEED)

    for fid, S in _family_surfaces():
        sig = lattice.signature(S)
        if sig != (1, S.rank - 1, 0):
            failures.append(f"{fid}: signature {sig}")
            continue
        for i in range(_PAIRS_PER_FAMILY):
            d1 = _random_positive(S, rng)
            a2 = d1.dot(d1)
            if a2 <= 0:
                failures.append(f"{fid}: sampler produced {d1.coeffs} with "
                                f"self-intersection {a2}")
                break
            d2 = S.divisor(_randints(rng, -9, 9, S.rank))
            lhs = d1.dot(d2)
            if lhs * lhs < a2 * d2.dot(d2):
                failures.append(f"{fid}: index bound violated at "
                                f"{d1.coeffs} . {d2.coeffs}")
                break
            if i < 500:
                if lhs != d2.dot(d1):
                    failures.append(f"{fid}: pairing not symmetric")
                    break
                total = (lattice.euler_characteristic(d2)
                         + lattice.sectional_genus(d2))
                if total != 2 + d2.dot(d2):
                    failures.append(
                        f"{fid}: characteristic/genus identity broke")
                    break
        # the linear-time pairing must match the gram-matrix pairing
        for _ in range(50):
            d1 = S.divisor(_randints(rng, -4, 4, S.rank))
            d2 = S.divisor(_randints(rng, -4, 4, S.rank))
            if d1.dot(d2) != _slow_dot(d1, d2):
                failures.append(f"{fid}: pairing disagrees with gram matrix")
                break

    # serialization round-trips, with unknown keys rejected
    for fid, S in _family_surfaces():
        if lattice.SurfaceModel.from_json(S.to_json()) != S:
            failures.append(f"{fid}: surface JSON round-trip broke")
        d = S.divisor(list(range(1, S.rank + 1)))
        if lattice.DivisorClass.from_json(d.to_json()) != d:
            failures.append(f"{fid}: divisor JSON round-trip broke")
    failures.refuses(
        lambda: lattice.SurfaceModel.from_json({"kind": "P2", "extra": 1}),
        lattice.LatticeError, "unknown surface key accepted")

    # verdict-shape invariants
    failures.refuses(lambda: NpVerdict("ExactMax", p=1, justification="x"),
                     CriteriaError,
                     "exact level allowed without an exactness hypothesis")
    failures.refuses(lambda: NpVerdict("AtLeast", p=-1, justification="x"),
                     CriteriaError, "negative level accepted")

    return failures.result(f"{_PAIRS_PER_FAMILY} exact pairs per family, "
                           "round-trips and verdict shapes included")


def check_mutation_robustness() -> tuple[bool, str]:
    """Perturbing any single exceptional coefficient by +-1 must move a
    claim or flip a certificate check, and a certificate that still
    validates must keep the oracle minimum positive."""
    failures = _Failures()
    total = detected = 0
    for fid in FAMILY_IDS:
        for params in FAMILY_SWEEPS[fid]:
            ex = build_example(fid, params)
            try:
                base_cert = nakai_certificate(ex)
            except families.CertificateRefused:
                continue
            pinned = families.fixture_instance(fid, ex.instance_key)["claims"]
            l = ex.surface.l or 0
            for i in range(l):
                for delta in (1, -1):
                    total += 1
                    mut = mutate_polarization(ex, i, delta)
                    claims_moved = any(
                        c.compute(mut.surface, mut.A) != pinned[c.quantity]
                        for c in mut.claims)
                    mut_cert = nakai_certificate(mut)
                    flipped = (mut_cert.flip_signature()
                               != base_cert.flip_signature())
                    if claims_moved or flipped:
                        detected += 1
                    if mut_cert.valid:
                        try:
                            res = brute_force_ample_oracle(mut)
                        except families.OracleNotApplicable:
                            failures.append(
                                f"{fid}{params}: certificate validated a "
                                "perturbation the oracle cannot model")
                            continue
                        failures.expect(
                            res.min_value >= 1,
                            f"{fid}{params}: certificate passed E{i}"
                            f"{delta:+d} but oracle found "
                            f"{res.min_value} at {res.argmin}")
    rate = detected / total if total else 0.0
    failures.expect(rate >= _MIN_DETECTION_RATE,
                    f"mutation detection rate {rate:.3f} < "
                    f"{_MIN_DETECTION_RATE}")

    # a targeted disagreement probe: strengthening one point of the
    # shortest wide family breaks both checks the same way
    ex = build_example("1.17", {"l": 4})
    mut = mutate_polarization(ex, 0, -1)
    cert = nakai_certificate(mut)
    res = families.ample_oracle(mut.surface, mut.A)
    failures.expect(not cert.valid and res.min_value <= 0,
                    "targeted perturbation was not caught by both checks")

    return failures.result(
        f"{detected}/{total} perturbations detected ({rate:.0%})")


def check_oracle_determinism() -> tuple[bool, str]:
    """The oracle's (minimum, argmin) must not depend on enumeration order."""
    failures = _Failures()
    rng = random.Random(_SEED + 1)
    probes = [("1.12", {"e": 1}), ("1.18", {}),
              ("1.16", {"e": 1, "n": 2}), ("1.17", {"l": 7}),
              ("1.19", {"n": -5}), ("1.20", {"n": -8})]
    for fid, params in probes:
        ex = build_example(fid, params)
        res = brute_force_ample_oracle(ex)
        cands = [(value, families._full_key(ex.surface, ex.A, key))
                 for value, key in families._candidates(
                     ex.surface, ex.A, families.DEFAULT_BOX)]
        for _ in range(5):
            shuffled = list(cands)
            rng.shuffle(shuffled)
            if min(shuffled) != (res.min_value, res.argmin):
                failures.append(f"{fid}{params}: argmin depends on order")
                break
        again = brute_force_ample_oracle(ex)
        failures.expect(
            (again.min_value, again.argmin) == (res.min_value, res.argmin),
            f"{fid}{params}: oracle not reproducible")
    return failures.result(f"{len(probes)} probes stable under reshuffling",
                           limit=None)


# --- runner ----------------------------------------------------------------

CHECKS: tuple[tuple[str, object], ...] = (
    ("family sweeps and ampleness agreement", check_family_sweeps),
    ("minimal summand-count table vs reconstruction", check_min_n_table),
    ("degree-bound inequality chain", check_degree_chain),
    ("sharpness boundaries", check_sharpness),
    ("fano criteria and induction base", check_fano),
    ("algebraic property suites", check_properties),
    ("mutation robustness", check_mutation_robustness),
    ("oracle determinism", check_oracle_determinism),
)


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"crashed: {exc!r}"
        results.append(CheckResult(name, passed,
                                   detail, time.perf_counter() - start))
    return results
