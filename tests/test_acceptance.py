"""Acceptance suite: one test per contract, exact integer tolerance.

Each test delegates to the corresponding hermetic check in
``npsurf.selftest`` so the command-line ``npsurf selftest`` and this suite
can never drift apart.
"""

import dataclasses
import math
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from npsurf import families, lattice, selftest


def _randint_dense_pair(rng, S):
    """Check 6's dense pair as it was drawn with ``randint``."""
    ms = [rng.randint(-9, 9) for _ in range(S.rank - S.base_rank)]
    load = sum(m * m for m in ms)
    if S.base_rank == 1:
        base = [math.isqrt(load) + 1 + rng.randint(0, 200)]
    else:
        a = rng.randint(1, 20)
        base = [a, (S.e * a * a + load) // (2 * a) + 1 + rng.randint(0, 200)]
    other = ([rng.randint(-300, 300) for _ in base]
             + [rng.randint(-9, 9) for _ in ms])
    return S.divisor(base + ms), S.divisor(other)


def test_dense_pairs_are_the_randint_draws():
    # check 6 draws _DENSE_PAIRS pairs per family surface from one stream
    ref, new = random.Random(selftest._SEED), random.Random(selftest._SEED)
    pairs = 0
    for fid, S in selftest._family_surfaces():
        for _ in range(selftest._DENSE_PAIRS):
            want = _randint_dense_pair(ref, S)
            assert selftest._dense_pair(new, S) == want, fid
            pairs += 1
    assert pairs == 550


def test_family_sweeps_and_ampleness_agreement_under_ten_seconds():
    start = time.perf_counter()
    ok, detail = selftest.check_family_sweeps()
    elapsed = time.perf_counter() - start
    assert ok, detail
    assert elapsed < 10.0, f"sweeps took {elapsed:.2f}s (budget 10s)"


def test_min_summand_count_table_matches_props_1_6_1_9_and_1_10():
    ok, detail = selftest.check_min_n_table()
    assert ok, detail


def test_lemma_125_degree_bound_fires_exactly_on_its_threshold():
    ok, detail = selftest.check_degree_chain()
    assert ok, detail


def test_sharpness_boundaries_are_exact():
    ok, detail = selftest.check_sharpness()
    assert ok, detail


def test_fano_fixtures_and_surface_induction_base():
    ok, detail = selftest.check_fano()
    assert ok, detail


def test_property_suites_mutation_detection_and_determinism():
    ok, detail = selftest.check_properties()
    assert ok, detail
    ok, detail = selftest.check_mutation_robustness()
    assert ok, detail
    ok, detail = selftest.check_oracle_determinism()
    assert ok, detail


def _largest(*coeffs):
    return max(map(abs, (c for cs in coeffs for c in cs)))


def _pairing_mutant(extra):
    """``DivisorClass.dot`` plus ``extra(S, a, b)`` on the coefficients."""
    real = lattice.DivisorClass.dot

    def dot(self, other):
        return real(self, other) + extra(self.surface, self.coeffs,
                                         other.coeffs)
    return lattice.DivisorClass, "dot", dot


def _sign_blind(S, a, b):
    """Turns the exceptional part's -sum(a_i b_i) into -sum|a_i b_i|."""
    return sum(x * y - abs(x * y)
               for x, y in zip(a[S.base_rank:], b[S.base_rank:]))


# wrong pairings and characteristics that check_properties must reject,
# each a single slip in the formulas of lattice.py
MUTANTS = {
    # (1 - e) a0 b0 written (2 - e) a0 b0
    "fe-term-off-by-one": _pairing_mutant(
        lambda S, a, b: a[0] * b[0] if S.kind == "Fe" else 0),
    "p2-three-a0-b0": _pairing_mutant(
        lambda S, a, b: a[0] * b[0] if S.kind == "P2" else 0),
    "last-exceptional-dropped": _pairing_mutant(
        lambda S, a, b: a[-1] * b[-1] if S.l else 0),
    # not symmetric
    "extra-a0-b1": _pairing_mutant(
        lambda S, a, b: a[0] * b[1] if S.rank > 1 else 0),
    "sign-blind-exceptional": _pairing_mutant(_sign_blind),
    "plus-one-past-5": _pairing_mutant(
        lambda S, a, b: int(_largest(a, b) > 5)),
    "plus-one-past-50": _pairing_mutant(
        lambda S, a, b: int(_largest(a, b) > 50)),
    "cubic-term": _pairing_mutant(
        lambda S, a, b: a[0] * a[0] * b[0] - a[0] * b[0]),
    "chi-off-by-one-past-3": (
        lattice, "euler_characteristic",
        lambda d, real=lattice.euler_characteristic:
            real(d) + (_largest(d.coeffs) > 3)),
}


@pytest.mark.parametrize("owner, name, mutant", MUTANTS.values(),
                         ids=list(MUTANTS))
def test_property_suite_rejects_each_mutant(monkeypatch, owner, name, mutant):
    # the family instances are cached, so they are built unpatched
    selftest._family_surfaces()
    monkeypatch.setattr(owner, name, mutant)
    ok, detail = selftest.check_properties()
    assert not ok and detail


def test_mutation_check_rejects_a_certificate_blind_to_the_polarization(
        monkeypatch):
    # never valid, and the same certificate for every polarization
    def blind(ex):
        return families.AmpleCertificate(ex.id, 0, (), (), ())
    monkeypatch.setattr(selftest, "nakai_certificate", blind)
    ok, detail = selftest.check_mutation_robustness()
    assert not ok and detail
    # refusing where the real certificate refuses leaves the flip rate
    def refusing_blind(ex):
        families.nakai_certificate(ex)
        return blind(ex)
    monkeypatch.setattr(selftest, "nakai_certificate", refusing_blind)
    assert selftest.check_mutation_robustness() == (
        False, "certificate flip rate 0.000 < 0.9")


_termination = selftest.ampleness_termination


def _plane_one_lower(ksq, p, **kw):
    thr = _termination(ksq, p, **kw)
    return dataclasses.replace(thr, m_min=thr.m_min - 1) if ksq == 9 else thr


def _ruled_blind_to_e(ksq, p, e=None, **kw):
    return _termination(ksq, p, e=0 if ksq == 8 else e, **kw)


def _case_d_reads_p_plus_2(ksq, p, multiple_of_minus_k=True, **kw):
    # (p + 1)/K^2 - 1 written (p + 2)/K^2 - 1
    return _termination(ksq, p + (1 <= ksq <= 7 and not multiple_of_minus_k),
                        multiple_of_minus_k=multiple_of_minus_k, **kw)


_min_n = selftest.adjoint_np_min_n
_very_ample = selftest.adjoint_very_ample
_kA_bound = selftest.min_kA_bound


def _one_higher_at_5_7(ksq, p, **kw):
    # in the excluding regime (5, 8) stays 2, so the table is not monotone
    res = _min_n(ksq, p, **kw)
    return dataclasses.replace(res, n=res.n + ((ksq, p) == (5, 7)))


def _conic_exclusion_raises(ksq, p, e=None, exclude=()):
    if "conic_fibration" not in exclude:
        return _min_n(ksq, p, e=e, exclude=exclude)
    res = _min_n(ksq, p, e=e)
    return dataclasses.replace(res, n=res.n + 1)


def _conic_bound_one_lower(*args, **kw):
    rep = _kA_bound(*args, **kw)
    return dataclasses.replace(
        rep, bound=rep.bound - (rep.exception == "conic_fibration"))


def _very_ample_needs(count, ksq_range):
    """``adjoint_very_ample`` short of ``count`` summands on ``ksq_range``."""
    def very_ample(ksq, summands):
        v = _very_ample(ksq, summands)
        if ksq in ksq_range and len(summands) < count:
            return dataclasses.replace(v, status="NotGuaranteed")
        return v
    return very_ample


# single slips in the criteria that checks 2 and 4 must reject, each
# patched into the name selftest imports
CHECK_MUTANTS = {
    "min-n-one-higher-at-5-7": ("adjoint_np_min_n", _one_higher_at_5_7),
    "conic-exclusion-raises-n": ("adjoint_np_min_n",
                                 _conic_exclusion_raises),
    "conic-bound-one-lower": ("min_kA_bound", _conic_bound_one_lower),
    "very-ample-needs-3-at-3-to-7": ("adjoint_very_ample",
                                     _very_ample_needs(3, range(3, 8))),
    "very-ample-needs-5-at-9": ("adjoint_very_ample",
                                _very_ample_needs(5, range(9, 10))),
    "plane-m-min-one-lower": ("ampleness_termination", _plane_one_lower),
    "ruled-case-ignores-e": ("ampleness_termination", _ruled_blind_to_e),
    "case-d-reads-p-plus-2": ("ampleness_termination",
                              _case_d_reads_p_plus_2),
}
_CHECK_OF = {"adjoint_np_min_n": selftest.check_min_n_table,
             "adjoint_very_ample": selftest.check_min_n_table,
             "min_kA_bound": selftest.check_min_n_table,
             "ampleness_termination": selftest.check_sharpness}


@pytest.mark.parametrize("name, mutant", CHECK_MUTANTS.values(),
                         ids=list(CHECK_MUTANTS))
def test_threshold_and_chain_checks_reject_each_mutant(monkeypatch, name,
                                                       mutant):
    monkeypatch.setattr(selftest, name, mutant)
    ok, detail = _CHECK_OF[name]()
    assert not ok and detail


def test_a_check_reports_the_failure_it_found(monkeypatch):
    real = selftest.thm_121_equivalence
    monkeypatch.setattr(selftest, "thm_121_equivalence",
                        lambda ksq, **kw: real(max(ksq, 2), **kw))
    assert selftest.check_sharpness() == (
        False, "degree-1 equivalence should be out of scope")


def test_selftest_command_is_hermetic_and_fast():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "npsurf", "selftest"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0, f"selftest took {elapsed:.2f}s (budget 60s)"
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("[ok")]
    assert len(lines) == len(selftest.CHECKS)
    assert f"{len(selftest.CHECKS)}/{len(selftest.CHECKS)} checks passed" \
        in proc.stdout


# what ``npsurf selftest`` reports, check by check
SELFTEST_RESULTS = [
    ("family sweeps and ampleness agreement", True,
     "88 instances across 11 families"),
    ("minimal summand-count table from Props 1.6, 1.9 and 1.10", True,
     "1394 (ksq, p, regime) cells agree"),
    ("degree bound of Lemma 1.25", True, "79 threshold cells verified"),
    ("sharpness boundaries", True, "all boundary fixtures equality-adjacent"),
    ("fano criteria and induction base", True,
     "pins, induction base, gates, and monotonicity verified"),
    ("algebraic property suites", True,
     "signature, basis pairings and 50 dense pairs per family exact, "
     "round-trips and verdict shapes included"),
    ("mutation robustness", True,
     "1128/1138 perturbations flip the certificate (99%); A2 moves under "
     "each"),
    ("oracle determinism", True,
     "6 probes agree with the least candidate and reproduce"),
]


def test_selftest_results_are_pinned():
    assert [(r.name, r.passed, r.detail)
            for r in selftest.run_all()] == SELFTEST_RESULTS


_README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_sample_selftest_output_matches_run_all():
    block = _README.read_text().split("$ npsurf selftest\n", 1)[1]
    sample = [re.sub(r" \(\d+\.\d+s\)$", "", line)
              for line in block.split("```", 1)[0].splitlines()
              if line.startswith("[")]
    assert sample == [f"[ok  ] {r.name}: {r.detail}"
                      for r in selftest.run_all()]
