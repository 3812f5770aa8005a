"""The interface of the property registry behind ``weylreps verify``."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from fresh import MainRuns
from helpers import count_element_products
from weylreps import reps
from weylreps.algebra import RationalIndex
from weylreps.almost_periodic import TrigPolynomial
from weylreps.gns import DEFAULT_PROBES
from weylreps.verify import (SUITE_NAMES, CheckResult, conjugation_identity,
                            mean_kills_characters, momentum_fourier, rand_fraction,
                            run_suites)

SUITES = ("algebra", "reps", "gns", "ap", "oracle")

CHECKS = [
    ("algebra", "exchange relation, 200 random rational pairs"),
    ("algebra", "associativity on random 3-term elements"),
    ("algebra", "star laws: (xy)* = y*x* and x** = x"),
    ("algebra", "group law: single product term with unit-modulus phase"),
    ("algebra", "conjugation identities V_-b U_a V_b = exp(-iab) U_a"
                " and U_-a V_b U_a = exp(iab) V_b"),
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
    assert list(CheckResult._fields) == ["suite", "name", "passed", "detail"]


@pytest.mark.parametrize("seed", [42, 7, 123])
def test_all_runs_every_check_in_order_and_equals_the_single_suites(seed):
    results = run_suites(["all"], seed)
    assert [(r.suite, r.name) for r in results] == CHECKS
    assert [r for r in results if not r.passed] == []
    assert results == [r for suite in SUITES for r in run_suites([suite], seed)]


GOLDEN = Path(__file__).parent / "data" / "verify"
SEEDS = (42, 7, 123)
# their numbers come from LAPACK, BLAS or numpy quadrature, which can differ
# across platforms: these lines compare by check name and verdict only
PLATFORM_LINES = ("[gns] Gram matrices positive semidefinite", "[oracle] ")


def golden_lines(seed: int) -> list[str]:
    return (GOLDEN / f"seed-{seed}.out").read_text().splitlines()


def name_and_verdict(line: str):
    if line.startswith(PLATFORM_LINES):
        return re.match(r"(.*?): (PASS|FAIL) \(", line).groups()
    return line


@pytest.fixture(scope="module")
def hash_seed_runs() -> list:
    """``verify --suite all`` at each seed, in two fresh interpreters side by
    side, one under ``PYTHONHASHSEED=0`` and one under ``1``: per seed, the
    (exit code, stdout, stderr) of each."""
    requests = [["verify", "--suite", "all", "--seed", str(seed)] for seed in SEEDS]
    runs = [MainRuns(requests, PYTHONHASHSEED=hash_seed) for hash_seed in ("0", "1")]
    return list(zip(*(run.results() for run in runs)))


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_stdout_matches_its_golden_file(hash_seed_runs, seed):
    # a printed seed reproduces the run byte for byte, whatever the string hash seed
    first, second = hash_seed_runs[SEEDS.index(seed)]
    assert first == second
    code, out, err = first
    assert (code, err) == (0, "")
    want = golden_lines(seed)
    assert sum(line.startswith(PLATFORM_LINES) for line in want) == 7
    assert [name_and_verdict(line) for line in out.splitlines()] == \
        [name_and_verdict(line) for line in want]


def test_exact_suites_print_their_golden_lines_without_numpy():
    requests = [(suite, seed) for suite in ("algebra", "reps") for seed in SEEDS]
    runs = MainRuns([["verify", "--suite", suite, "--seed", str(seed)]
                     for suite, seed in requests], blocked=["numpy"])
    for (suite, seed), (code, out, err) in zip(requests, runs.results()):
        lines = [line for line in golden_lines(seed) if line.startswith(f"[{suite}] ")]
        n = len(lines)
        assert (code, err) == (0, ""), (suite, seed)
        assert out.splitlines() == [f"seed {seed}", *lines, f"{n}/{n} checks passed"]


def test_verify_all_builds_few_fractions(monkeypatch):
    """The checks draw and compute on integers: ``run_suites(["all"], 42)``
    built 446 ``Fraction``s when this bound was set, and 14.4k when the draws
    were ``Fraction``s and the phases ``phase(-a * b)``."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert all(result.passed for result in run_suites(["all"], 42))
    assert 0 < len(built) <= 1000


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["nope"], 0)


def test_conjugation_identity_checks_both_identities_on_the_probe_grid(monkeypatch):
    products = count_element_products(monkeypatch)
    result = conjugation_identity(random.Random(0), pairs=0)
    assert result.passed
    # two identities, two products each, on every pair of the witness probes
    assert len(products) == 2 * 2 * len(DEFAULT_PROBES) ** 2 == 144


def test_conjugation_identity_draws_only_its_random_pairs():
    rng, fresh = random.Random(5), random.Random(5)
    conjugation_identity(rng, pairs=3)
    for _ in range(3):
        rand_fraction(fresh), rand_fraction(fresh)
    assert rng.getstate() == fresh.getstate()


def test_momentum_fourier_fails_on_one_wrong_matrix_element(monkeypatch):
    # the last nonzero shift of the last point, drawn as momentum_fourier draws it
    fresh = random.Random(3)
    for _ in range(5):
        lam = rand_fraction(fresh)
        shifts = [rand_fraction(fresh, nonzero=True) for _ in range(49)]
    assert momentum_fourier(random.Random(3), points=5, probes=50).passed
    original = reps.v_direction_matrix_element

    def wrong(b, point):
        return 1 + 0j if (b, point) == (shifts[-1], lam) else original(b, point)

    monkeypatch.setattr(reps, "v_direction_matrix_element", wrong)
    assert not momentum_fourier(random.Random(3), points=5, probes=50).passed


@pytest.mark.parametrize("mean", [
    lambda self: sum(self._data.values(), 0j),  # every frequency: the value at 0
    lambda self: self._data.get(RationalIndex(1), 0j),  # frequency 1 for frequency 0
], ids=["every-frequency", "frequency-1"])
def test_mean_kills_characters_fails_when_the_mean_reads_a_nonzero_frequency(monkeypatch,
                                                                           mean):
    assert mean_kills_characters(random.Random(3), chars=50).passed
    monkeypatch.setattr(TrigPolynomial, "invariant_mean", mean)
    assert not mean_kills_characters(random.Random(3), chars=50).passed
