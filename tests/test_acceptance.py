"""Acceptance gate: every criterion at its stated tolerance.

Each criterion runs properties from :mod:`weylreps.verify` with its own
seed and sample counts, prints one PASS/FAIL line (visible with ``pytest
-s`` or in the captured output of a failure) and then asserts.
"""

import random

from weylreps import gaussian_ground_state, momentum_state, position_state, vacuum_state, verify
from weylreps.reps import POSITION

SEED = 42


def report(criterion: str, *checks: verify.CheckResult) -> None:
    passed = all(check.passed for check in checks)
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"{criterion}: {[check for check in checks if not check.passed]}"


def test_criterion_01_weyl_relation():
    rng = random.Random(SEED)
    report("1. exchange relation < 1e-12 in the algebra and on basis vectors",
           verify.exchange_relation(rng, pairs=200),
           verify.basis_exchange_relation(rng, triples=200, flavors=(POSITION,)))


def test_criterion_02_position_eigenstructure():
    rng = random.Random(SEED + 1)
    report("2. sharp eigenvectors exact on keys; finite differences halve with the step",
           verify.sharp_eigenvectors(rng, pairs=50),
           verify.finite_differences(rng, points=10, halvings=3))


def test_criterion_03_nonregularity():
    report("3. translated-family diagonal exactly 0 for 50 nonzero shifts (incl. 1e-6), 1 at 0",
           verify.shifted_diagonal(random.Random(SEED + 2), shifts=49))


def test_criterion_04_eigenvector_witness():
    rng = random.Random(SEED + 3)
    report("4. eigenvector witness passes at 10 points per kind; proof chain < 1e-12",
           verify.eigenvector_witnesses(rng, points=10),
           verify.conjugation_chain(rng, samples=25))


def test_criterion_05_word_geometry_equals_point_model():
    report("5. cyclic word geometry matches the sharp-point model < 1e-12",
           verify.word_geometry(random.Random(SEED + 4), points=5, words=50))


def test_criterion_06_momentum_fourier_witness():
    report("6. momentum spectral Fourier data equals the invariant measure's, exactly",
           verify.momentum_fourier(random.Random(SEED + 5), points=5, probes=50))


def test_criterion_07_invariant_mean():
    rng = random.Random(SEED + 6)
    report("7. exact mean within the analytic truncation bound; characters killed exactly",
           verify.mean_truncation(rng, polys=20),
           verify.mean_kills_characters(rng, chars=50))


def test_criterion_08_vacuum_oracle_agreement():
    report("8. Gaussian state formula vs quadrature oracle <= 1e-6 on the 5x5 grid",
           verify.vacuum_oracle(gaussian_ground_state()))


def test_criterion_09_dispersion_bound():
    report("9. dispersion product >= 1/2 - 1e-3 on the family; Gaussians saturate",
           verify.dispersion_family(gaussian_ground_state()))


def test_criterion_10_point_localisation_scaling():
    report("10. point weight halves with eps from 1/8 down to 1/1024",
           verify.point_localisation(gaussian_ground_state(count=2**16)))


def test_criterion_11_gram_positivity():
    states = (position_state(1), momentum_state(-2), vacuum_state())
    report("11. min Gram eigenvalue >= -1e-10 for 100 seeded bases per state",
           verify.gram_positivity(random.Random(SEED + 7), states, bases=100))


def test_criterion_12_regularity_fingerprints():
    states = (position_state(0), momentum_state(0), vacuum_state())
    report("12. regularity fingerprints (U,V) per state, pairwise distinct",
           verify.regularity_fingerprints(states))
