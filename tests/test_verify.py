"""The interface of the property registry behind ``weylreps verify``."""

from dataclasses import fields

import pytest

from weylreps.verify import SUITE_NAMES, CheckResult, run_suites

SUITES = ("algebra", "reps", "gns", "ap", "oracle")

CHECKS = [
    ("algebra", "exchange relation, 200 random rational pairs"),
    ("algebra", "associativity on random 3-term elements"),
    ("algebra", "star laws: (xy)* = y*x* and x** = x"),
    ("algebra", "group law: single product term with unit-modulus phase"),
    ("algebra", "conjugation identity V_-b U_a V_b = exp(-iab) U_a"),
    ("algebra", "l1 bound submultiplicative"),
    ("reps", "unitarity: U and V preserve inner products, both flavors"),
    ("reps", "sharp eigenvectors: U_a phi_x = exp(iax) phi_x"),
    ("reps", "exchange relation on random basis vectors, both flavors"),
    ("reps", "diagonal elements of the shifted family: exact indicator of 0"),
    ("reps", "finite differences converge to the generator, first order"),
    ("reps", "typed refusal of the nonexistent generator, both flavors"),
    ("gns", "representation property pi(xy) = pi(x)pi(y) on the cyclic vector"),
    ("gns", "generators act isometrically"),
    ("gns", "Cauchy-Schwarz inequality"),
    ("gns", "eigenvector obstruction witness, position and momentum"),
    ("gns", "word geometry matches the sharp-point model"),
    ("gns", "states normalised and bounded by one on generators"),
    ("gns", "Gram matrices positive semidefinite, 100 random bases per state"),
    ("gns", "regularity fingerprints pairwise distinct"),
    ("gns", "scans: sharp states collapse to the indicator, vacuum stays continuous"),
    ("ap", "commutative star algebra of characters"),
    ("ap", "mean of f* f is exactly real and nonnegative"),
    ("ap", "translation invariance of the mean, exact"),
    ("ap", "exact mean matches the truncated average within the analytic bound"),
    ("ap", "evaluation functionals are multiplicative"),
    ("ap", "mean kills every nontrivial character, exactly"),
    ("ap", "momentum spectral data in a sharp-position vector equals the mean's"),
    ("ap", "certified sup-norm bounds bracket and square consistently"),
    ("oracle", "ground state normalised on the default grid"),
    ("oracle", "Gaussian state formula agrees with quadrature on the 5x5 grid"),
    ("oracle", "dispersion product >= 1/2 on the 10-member family"),
    ("oracle", "point-localisation weight scales linearly down to 1/1024"),
    ("oracle", "localisation weight monotone in the window size"),
    ("oracle", "truncated averages: constants exact, pure tones suppressed"),
]


def test_suite_names_and_result_fields():
    assert SUITE_NAMES == SUITES + ("all",)
    assert [f.name for f in fields(CheckResult)] == ["suite", "name", "passed", "detail"]


@pytest.mark.parametrize("seed", [42, 7, 123])
def test_all_runs_every_check_in_order_and_equals_the_single_suites(seed):
    results = run_suites(["all"], seed)
    assert [(r.suite, r.name) for r in results] == CHECKS
    assert [r for r in results if not r.passed] == []
    assert results == [r for suite in SUITES for r in run_suites([suite], seed)]


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["nope"], 0)
