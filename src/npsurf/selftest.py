"""Hermetic self-checks covering the package's verification contract.

Each check is a pure function of no arguments returning (passed, detail);
``run_all`` wraps them with timing.  The same functions back the acceptance
test suite and the ``selftest`` CLI subcommand.  A check collects its failure
messages in one ``_Failures`` list: ``expect`` records a message when a
condition is false, ``refuses`` when a call that must raise returns instead,
and ``result`` reports the first five messages, or the detail string when
there are none.  Everything is deterministic: fixed seeds, fixed sizes
(``_DENSE_PAIRS`` drawn pairs per family, ``_MIN_DETECTION_RATE`` for the
certificate flips of the perturbation suite, the default oracle box for
the sweeps), no network, no files outside the installed package data.

A check states only what the package computes, and each fact once: a
statement that calls no npsurf code can catch no fault of the package.
Check 1 is the home of the family facts, since ``verify_example`` compares
every instance's claims and certificate with its frozen fixture pin.
Check 2 derives Thm 1.23's table from the package's own Prop 1.6
(``adjoint_very_ample``) and Props 1.9-1.10 (``min_kA_bound``) tables, so
a slip in any of the three fails it.

A check does not recompute what a proof already gives.
``lemma_125_bound``'s docstring proves the three integer inequalities
behind Lemma 1.25, so check 3 states only the bound.  A +-1 change d to
an exceptional coefficient c moves ``A^2`` by ``-(2cd + 1)``, an odd
number, so every perturbation moves the ``A2`` claim and only the
certificate's flips are counted.  A minimum over distinct integer keys
has one least element whatever the order, so the oracle is compared once
with the least of its candidates, not with reshuffles of them.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import mul

from . import criteria, families, fano, lattice
from .criteria import (
    CriteriaError,
    NpVerdict,
    adjoint_np_min_n,
    adjoint_very_ample,
    ampleness_termination,
    curve_np_reference,
    lemma_125_bound,
    min_kA_bound,
    np_classify_degree,
    reider_np,
    thm_121_equivalence,
)
from .families import (
    FAMILY_IDS,
    FAMILY_SWEEPS,
    ample_oracle,
    build_example,
    mutate_polarization,
    nakai_certificate,
    sweep_family,
)

_SEED = 20230823
_DENSE_PAIRS = 50
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
    reports = [report for fid in FAMILY_IDS for report in sweep_family(fid)]
    for report in reports:
        failures += report.failures
    return failures.result(
        f"{len(reports)} instances across {len(FAMILY_IDS)} families")


# --- 2: minimal summand-count table ---------------------------------------


def check_min_n_table() -> tuple[bool, str]:
    """Thm 1.23's minimal-summand table must equal what Props 1.6, 1.9 and
    1.10 give on every regime.  With the shapes the regime allows, the
    floor is the least n at which Prop 1.6 makes K + A_1 + ... + A_n very
    ample for every multiset of n shapes, and beta is the least -K.A of a
    shape (Props 1.9 and 1.10, the conic pencil included unless excluded);
    Thm 1.3 needs -K^2 + n * beta >= p + 3, so the table's n must be
    ``max(floor, ceil((p + 3 + K^2) / beta))``.

    The floor is at least 1 and beta is checked to be at least 1, so that
    value cannot fall as p grows, and cannot rise as shapes are excluded:
    fewer shapes leave fewer multisets for the floor and a least -K.A that
    is no smaller.  So a table equal to it on every cell is monotone in p
    and never raised by an exclusion."""
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
            shapes = sorted(criteria._SUMMAND_TAGS - exclude)
            # Prop 1.6 asks for at most 4 summands; none up to 8 is a crash
            floor = next(n for n in range(1, 9) if all(
                adjoint_very_ample(ksq, c)
                for c in combinations_with_replacement(shapes, n)))
            bounds = [min_kA_bound(ksq, s, e=e).bound for s in shapes]
            if "conic_fibration" not in exclude:
                bounds.append(
                    min_kA_bound(ksq, e=e, conic_fibration=True).bound)
            beta = min(bounds)
            failures.expect(beta >= 1, f"ksq={ksq} e={e}: least -K.A {beta}")
            for p in range(0, 41):
                got = adjoint_np_min_n(ksq, p, e=e, exclude=exclude).n
                want = max(floor, -(-(p + 3 + ksq) // beta))
                compared += 1
                if got != want:
                    failures.append(
                        f"ksq={ksq} p={p} e={e} exclude={sorted(exclude)}: "
                        f"table {got} != derived {want}")
    return failures.result(f"{compared} (ksq, p, regime) cells agree")


# --- 3: degree bound of Lemma 1.25 -----------------------------------------


def check_degree_chain() -> tuple[bool, str]:
    """Lemma 1.25's degree bound fires exactly on its quadratic threshold,
    is silent one below it and refuses every call outside its scope."""
    failures = _Failures()
    cells = [(ksq, p) for ksq in range(1, 9)
             for p in range(2 if ksq == 8 else 1, 11)]
    for ksq, p in cells:
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
    return failures.result(f"{len(cells)} threshold cells verified")


# --- 4: sharpness boundaries ----------------------------------------------


def check_sharpness() -> tuple[bool, str]:
    """Equality-adjacent fixtures: each criterion fires exactly at its
    stated boundary and is silent or reversed one step past it."""
    failures = _Failures()
    expect = failures.expect

    # ampleness/very-ampleness/N_p equivalences, lowest interesting degree
    rep = thm_121_equivalence(3)
    expect(rep.triple_equivalence and rep.minus_k_exact_max == 0,
           "degree-3 equivalence report off")
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
        m1 = ampleness_termination(9, 3 * d - 3, np_sharp_attested=True).m_min
        expect(d - 3 * m1 < 1, f"plane twist m={m1} still ample at d={d}")
        expect(d - 3 * (m1 - 1) >= 1,
               f"plane twist m={m1 - 1} lost ampleness at d={d}")
    for e in range(0, 9):
        thr = ampleness_termination(8, e + 1, e=e, np_sharp_attested=True)
        expect(thr.m_min == 1, f"ruled threshold off at e={e}")
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
    # Example 1.16's threshold; check 1 pins its (K + A)^2 = 0 and ampleness
    for n in range(1, 8):
        thr = ampleness_termination(n, n - 1, multiple_of_minus_k=False,
                                    np_sharp_attested=True)
        expect(thr.m_min == 1, f"non-multiple threshold off at ksq={n}")
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
    expect(fano.projective_space_twist_max_np(3, 2)
           == fano.primitive_np(fano.FanoInput(n=3, m=2, Hn=8)),
           "primitive classification disagrees with the P3 O(2) pin")
    expect(fano.projective_space_twist_max_np(3, 3).p == 6, "P3 O(3) pin off")
    expect(fano.projective_space_twist_max_np(4, 2).p == 5, "P4 O(2) pin off")
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


def _slow_dot(gram, d1: lattice.DivisorClass,
              d2: lattice.DivisorClass) -> int:
    """``d1 . gram . d2``, row by row over the whole matrix."""
    return sum(ci * sum(map(mul, row, d2.coeffs))
               for ci, row in zip(d1.coeffs, gram))


def _family_surfaces() -> list[tuple[str, lattice.SurfaceModel]]:
    return [(fid, build_example(fid, FAMILY_SWEEPS[fid][-1]).surface)
            for fid in FAMILY_IDS]


def _is_hyperbolic(gram, base_rank: int) -> bool:
    """Whether ``gram`` is a symmetric base block plus ``-I``, the block
    positive on P2 and of negative determinant on F_e, so that by
    Sylvester's law it has signature ``(1, rank - 1)``."""
    r = len(gram)
    block = (gram[0][0] if base_rank == 1
             else gram[0][1] * gram[1][0] - gram[0][0] * gram[1][1])
    return block > 0 and all(
        gram[i][j] == gram[j][i]
        and (max(i, j) < base_rank or gram[i][j] == -(i == j))
        for i in range(r) for j in range(r))


def _dense_pair(rng: random.Random, S: lattice.SurfaceModel):
    """Two classes at the examples' magnitudes (base part up to a few
    hundred, exceptional part within +-9), the first of positive square.

    ``randrange(n) + lo`` makes the one ``_randbelow(n)`` draw that
    ``randint(lo, lo + n - 1)`` makes, without its argument handling, so
    the pairs are those ``randint`` gave."""
    below = rng.randrange
    ms = [below(19) - 9 for _ in range(S.rank - S.base_rank)]
    load = sum(m * m for m in ms)
    if S.base_rank == 1:
        base = [math.isqrt(load) + 1 + below(201)]
    else:
        a = below(20) + 1
        base = [a, (S.e * a * a + load) // (2 * a) + 1 + below(201)]
    other = [below(601) - 300 for _ in base] + [below(19) - 9 for _ in ms]
    return S.divisor(base + ms), S.divisor(other)


def _lattice_fault(S: lattice.SurfaceModel, rng: random.Random) -> str | None:
    """The first of ``check_properties``'s lattice facts that fails on S."""
    gram, r = S.gram, S.rank
    if not (_is_hyperbolic(gram, S.base_rank)
            and lattice.signature(S) == (1, r - 1, 0)):
        return f"gram is not of signature (1, {r - 1})"
    units = [S.divisor([int(i == j) for j in range(r)]) for i in range(r)]
    negs = [-u for u in units]
    if any(u.dot(v) != gram[i][j] or negs[i].dot(v) != -gram[i][j]
           for i, u in enumerate(units) for j, v in enumerate(units)):
        return "pairing disagrees with the gram on the basis"
    pairs = [_dense_pair(rng, S) for _ in range(_DENSE_PAIRS)]
    # a pair's coefficients are formatted only for the failure they name
    for d1, d2 in pairs:
        if not d1.dot(d2) == d2.dot(d1) == _slow_dot(gram, d1, d2):
            return ("pairing is not the gram pairing at "
                    f"{d1.coeffs} . {d2.coeffs}")
        if not lattice.hodge_index_bound(d1, d2):
            return f"index bound violated at {d1.coeffs} . {d2.coeffs}"
    probes = [S.zero(), *units, *negs,
              *[u + v for i, u in enumerate(units) for v in units[i + 1:]],
              *[d for pair in pairs for d in pair]]
    for d in probes:
        if (lattice.euler_characteristic(d) + lattice.sectional_genus(d)
                != 2 + d.dot(d)):
            return f"characteristic/genus identity broke at {d.coeffs}"
    return None


def check_properties() -> tuple[bool, str]:
    """The lattice facts every pairing rests on, exact on each family
    surface (``_lattice_fault``); a ``LatticeError`` is a failure.

    * The gram has signature ``(1, r - 1)``, which gives the Hodge index
      bound: for A^2 > 0, A's orthogonal complement is negative definite,
      so B = tA + B' with B'.A = 0 has B^2 = t^2 A^2 + B'^2 <= (A.B)^2/A^2.
    * ``dot`` equals the gram on every ``(e_i, e_j)`` and ``(-e_i, e_j)``.
    * ``chi + g = 2 + D^2`` on ``{0, +-e_i, e_i + e_j}``, whose values
      determine a quadratic polynomial.

    These prove the facts everywhere only for a bilinear ``dot`` and
    quadratic chi and g; a slip that branches on magnitude (``+1`` once a
    coefficient passes 50) agrees on the whole basis.  So ``_DENSE_PAIRS``
    pairs per family, at the magnitudes the examples reach, are checked
    against ``_slow_dot``, for symmetry, with ``hodge_index_bound`` and
    for ``chi + g``."""
    failures = _Failures()
    rng = random.Random(_SEED)
    for fid, S in _family_surfaces():
        try:
            fault = _lattice_fault(S, rng)
        except lattice.LatticeError as exc:
            fault = f"refused: {exc}"
        failures.expect(fault is None, f"{fid}: {fault}")

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

    return failures.result(
        f"signature, basis pairings and {_DENSE_PAIRS} dense pairs per "
        "family exact, round-trips and verdict shapes included")


def check_mutation_robustness() -> tuple[bool, str]:
    """Perturbing one exceptional coefficient of a certified instance by
    +-1 must flip a check of its certificate on at least
    ``_MIN_DETECTION_RATE`` of the perturbations, and a certificate that
    still validates must keep the oracle minimum positive.

    Every perturbation also moves a claim, so that half is one premise per
    instance, ``A2`` among its claims: for A's coefficient c on E (so
    ``A.E = -c``, ``E^2 = -1``), ``(A + dE)^2 - A^2 = -(2cd + 1)`` at
    ``d = +-1``, an odd number and never 0.  Counting a moved claim as a
    detection would pass a certificate that ignores the polarization."""
    failures = _Failures()
    total = detected = 0
    for fid in FAMILY_IDS:
        for params in FAMILY_SWEEPS[fid]:
            ex = build_example(fid, params)
            try:
                base_signature = nakai_certificate(ex).flip_signature()
            except families.CertificateRefused:
                continue
            failures.expect("A2" in ex.claim_names,
                            f"{fid}{params}: no A2 claim to move")
            for i in range(ex.surface.l or 0):
                for delta in (1, -1):
                    total += 1
                    mut = mutate_polarization(ex, i, delta)
                    mut_cert = nakai_certificate(mut)
                    detected += mut_cert.flip_signature() != base_signature
                    if mut_cert.valid:
                        try:
                            res = ample_oracle(mut.A)
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
                    f"certificate flip rate {rate:.3f} < "
                    f"{_MIN_DETECTION_RATE}")

    # a targeted disagreement probe: strengthening one point of the
    # shortest wide family breaks both checks the same way
    ex = build_example("1.17", {"l": 4})
    mut = mutate_polarization(ex, 0, -1)
    cert = nakai_certificate(mut)
    res = ample_oracle(mut.A)
    failures.expect(not cert.valid and res.min_value <= 0,
                    "targeted perturbation was not caught by both checks")

    return failures.result(
        f"{detected}/{total} perturbations flip the certificate "
        f"({rate:.0%}); A2 moves under each")


def check_oracle_determinism() -> tuple[bool, str]:
    """The oracle's (minimum, argmin) must be the least ``(value, full
    key)`` of its candidates, and the same on a second run.

    That least pair does not depend on enumeration order: integer tuples
    are totally ordered and a probe's keys are distinct, so exactly one
    candidate is least and every order finds it; a reshuffled list has
    the same minimum."""
    failures = _Failures()
    probes = [("1.12", {"e": 1}), ("1.18", {}),
              ("1.16", {"e": 1, "n": 2}), ("1.17", {"l": 7}),
              ("1.19", {"n": -5}), ("1.20", {"n": -8})]
    for fid, params in probes:
        ex = build_example(fid, params)
        res = ample_oracle(ex.A)
        least = min((value, families._full_key(ex.surface, ex.A, key))
                    for value, key in families._candidates(
                        ex.surface, ex.A, families.DEFAULT_BOX))
        failures.expect(least == (res.min_value, res.argmin),
                        f"{fid}{params}: argmin is not the least candidate")
        again = ample_oracle(ex.A)
        failures.expect(
            (again.min_value, again.argmin) == (res.min_value, res.argmin),
            f"{fid}{params}: oracle not reproducible")
    return failures.result(
        f"{len(probes)} probes agree with the least candidate and reproduce",
        limit=None)


# --- runner ----------------------------------------------------------------

CHECKS: tuple[tuple[str, object], ...] = (
    ("family sweeps and ampleness agreement", check_family_sweeps),
    ("minimal summand-count table from Props 1.6, 1.9 and 1.10",
     check_min_n_table),
    ("degree bound of Lemma 1.25", check_degree_chain),
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
