"""Acceptance suite: one test per contract, exact integer tolerance.

Each test delegates to the corresponding hermetic check in
``npsurf.selftest`` so the command-line ``npsurf selftest`` and this suite
can never drift apart.
"""

import hashlib
import random
import subprocess
import sys
import time

import pytest

from npsurf import lattice, selftest

# sha256 over repr((d1.coeffs, d2.coeffs, value)) of every pairing that
# check_properties makes, in call order, as drawn with random.randint
PAIR_STREAM_SHA256 = (
    "a5f75f39c5ce66e1b4754523c781fae4884993fe804c97e50f50b833bbc9fd55")
PAIR_STREAM_CALLS = 363_550


def test_family_sweeps_and_ampleness_agreement_under_ten_seconds():
    start = time.perf_counter()
    ok, detail = selftest.check_family_sweeps()
    elapsed = time.perf_counter() - start
    assert ok, detail
    assert elapsed < 10.0, f"sweeps took {elapsed:.2f}s (budget 10s)"


def test_min_summand_count_table_matches_independent_reconstruction():
    ok, detail = selftest.check_min_n_table()
    assert ok, detail


def test_degree_bound_chain_holds_on_the_full_grid():
    ok, detail = selftest.check_degree_chain()
    assert ok, detail


def test_sharpness_boundaries_are_exact():
    ok, detail = selftest.check_sharpness()
    assert ok, detail


def test_fano_fixtures_and_surface_induction_base():
    ok, detail = selftest.check_fano()
    assert ok, detail


def test_property_suites_mutation_detection_and_determinism(monkeypatch):
    digest = hashlib.sha256()
    calls = 0
    real = lattice.DivisorClass.dot

    def recording_dot(self, other):
        nonlocal calls
        value = real(self, other)
        calls += 1
        digest.update(repr((self.coeffs, other.coeffs, value)).encode())
        return value

    with monkeypatch.context() as m:
        m.setattr(lattice.DivisorClass, "dot", recording_dot)
        ok, detail = selftest.check_properties()
    assert ok, detail
    # the sampler may get faster, but must not move a single drawn pair
    assert (calls, digest.hexdigest()) == (PAIR_STREAM_CALLS,
                                           PAIR_STREAM_SHA256)
    ok, detail = selftest.check_mutation_robustness()
    assert ok, detail
    ok, detail = selftest.check_oracle_determinism()
    assert ok, detail


@pytest.mark.parametrize("lo, hi", [
    (-4, 4), (-9, 9), (0, 9), (1, 6),  # the ranges the property suite draws
    (3, 3),                            # width 1
    (-8, 7), (0, 1023),                # widths that are powers of two
])
def test_property_sampler_draws_what_randint_draws(lo, hi):
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        ints, _ = selftest._sampler(rng)
        for k in (0, 1, 2, 7, 30):
            assert ints(lo, hi, k) == [ref.randint(lo, hi) for _ in range(k)]
        assert rng.getstate() == ref.getstate()


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
