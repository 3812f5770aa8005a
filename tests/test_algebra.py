import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given

from helpers import elements_st, fractions_st, rand_element
from weylreps import (
    MOMENTUM,
    POSITION,
    PRUNE_TOL,
    FiniteSupportVector,
    FlavorMismatchError,
    TrigPolynomial,
    WeylElement,
    WeylIndex,
    as_fraction,
    generator,
    identity,
    phase,
    zero,
)


def test_generator_identity_case():
    assert generator(0, 0) == identity()
    assert list(identity().terms.items()) == [(WeylIndex(Fraction(0), Fraction(0)), 1 + 0j)]


def test_generators_are_single_terms():
    u1 = generator(1, 0)
    v1 = generator(0, 1)
    assert list(u1.terms) == [WeylIndex(Fraction(1), Fraction(0))]
    assert list(v1.terms) == [WeylIndex(Fraction(0), Fraction(1))]


def test_product_normal_order_no_phase():
    # U then V is already normal ordered, so no phase appears
    product = generator(1, 0) * generator(0, 1)
    assert product == generator(1, 1)


def test_product_reordering_phase():
    # V_1 U_1 picks up exp(i) when brought to normal order
    product = generator(0, 1) * generator(1, 0)
    (index, coeff), = product.terms.items()
    assert index == WeylIndex(Fraction(1), Fraction(1))
    assert coeff == pytest.approx(cmath.exp(1j), abs=1e-15)


def test_generator_times_adjoint_is_identity():
    g = generator(2, 3)
    assert (g * g.adjoint() - identity()).max_coeff() < 1e-15
    assert (g.adjoint() * g - identity()).max_coeff() < 1e-15


def test_adjoint_identity():
    assert identity().adjoint() == identity()


def test_adjoint_of_generator_carries_reordering_phase():
    adj = generator(1, 1).adjoint()
    (index, coeff), = adj.terms.items()
    assert index == WeylIndex(Fraction(-1), Fraction(-1))
    assert coeff == pytest.approx(cmath.exp(1j), abs=1e-15)


def test_adjoint_conjugates_coefficients():
    c = 0.3 - 0.7j
    adj = (c * generator(2, 0)).adjoint()
    (index, coeff), = adj.terms.items()
    assert index == WeylIndex(Fraction(-2), Fraction(0))
    assert coeff == c.conjugate()


def test_add_and_scale():
    u1 = generator(1, 0)
    assert (u1 + u1) == 2 * u1
    assert 0 * u1 == zero()
    x = rand_element(random.Random(7))
    assert (x + (-1) * x) == zero()
    assert not zero()


def test_l1_bound_values():
    assert identity().l1_bound() == 1.0
    assert (generator(1, 0) + generator(0, 1)).l1_bound() == 2.0
    assert abs((phase(1) * generator(1, 1)).l1_bound() - 1.0) < 1e-12


def test_prune_threshold():
    tiny = WeylElement({WeylIndex(Fraction(1), Fraction(0)): PRUNE_TOL / 2})
    assert tiny == zero()
    kept = WeylElement({WeylIndex(Fraction(1), Fraction(0)): 2 * PRUNE_TOL})
    assert kept


def test_rejects_non_finite_coefficients():
    with pytest.raises(ValueError):
        WeylElement({WeylIndex(Fraction(0), Fraction(0)): complex("inf")})


@pytest.mark.parametrize(
    "magnitude",
    [10**4, 10**8, 10**12, 10**100, 10**300],
    ids=lambda m: f"1e{len(str(m)) - 1}",
)
def test_phase_reduces_exact_angles_at_every_magnitude(magnitude):
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(len(str(magnitude)))
    with mpmath.workdps(len(str(magnitude)) + 40):
        for _ in range(100):
            den = rng.randint(1, 1000)
            theta = Fraction(rng.randint(-magnitude * den, magnitude * den), den)
            exact = mpmath.expj(mpmath.mpf(theta.numerator) / theta.denominator)
            assert abs(phase(theta) - complex(exact)) <= 1e-15


def test_phase_refuses_angles_past_the_float_range():
    for theta in (2**1025, -(2**1025), Fraction(2**1100, 3)):
        with pytest.raises(ValueError):
            phase(theta)


def test_phase_fast_path_is_the_float_exp():
    rng = random.Random(3)
    for _ in range(200):
        den = rng.randint(1, 10**6)
        theta = Fraction(rng.randint(-den, den), den)
        assert phase(theta) == cmath.exp(1j * float(theta))
    for theta in (0, 1, -1):
        assert phase(theta) == cmath.exp(1j * theta)
    assert phase(123.25) == cmath.exp(123.25j)


def test_as_fraction_parses_exact_strings():
    assert as_fraction("3/2") == Fraction(3, 2)
    assert as_fraction(-7) == Fraction(-7)
    with pytest.raises(TypeError):
        as_fraction(1.5)


@given(fractions_st, fractions_st)
def test_exchange_relation(a, b):
    lhs = generator(a, 0) * generator(0, b)
    rhs = phase(-a * b) * (generator(0, b) * generator(a, 0))
    assert (lhs - rhs).max_coeff() < 1e-12


@given(fractions_st, fractions_st, fractions_st, fractions_st)
def test_group_law_single_unimodular_term(a, b, a2, b2):
    product = generator(a, b) * generator(a2, b2)
    assert list(product.terms) == [WeylIndex(a + a2, b + b2)]
    assert abs(abs(next(iter(product.terms.values()))) - 1) < 1e-12


@given(elements_st, elements_st)
def test_star_antihomomorphism(x, y):
    lhs = (x * y).adjoint()
    rhs = y.adjoint() * x.adjoint()
    assert set(lhs.terms) == set(rhs.terms)
    assert (lhs - rhs).max_coeff() < 1e-12


@given(elements_st)
def test_star_involution(x):
    double = x.adjoint().adjoint()
    assert set(double.terms) == set(x.terms)
    assert (double - x).max_coeff() < 1e-12


@given(elements_st, elements_st, elements_st)
def test_associativity(x, y, z):
    assert ((x * y) * z - x * (y * z)).max_coeff() < 1e-10


@given(elements_st, elements_st)
def test_l1_submultiplicative(x, y):
    assert (x * y).l1_bound() <= x.l1_bound() * y.l1_bound() + 1e-9


@given(fractions_st, fractions_st)
def test_conjugation_collapses_to_phase(a, b):
    # V_-b U_a V_b = exp(-iab) U_a, the identity behind the eigenvector witness
    left = generator(0, -b) * generator(a, 0) * generator(0, b)
    assert (left - phase(-a * b) * generator(a, 0)).max_coeff() < 1e-12


def test_associativity_random_sweep():
    rng = random.Random(42)
    for _ in range(50):
        x, y, z = (rand_element(rng) for _ in range(3))
        assert ((x * y) * z - x * (y * z)).max_coeff() < 1e-10


# every kind of sparse map: constructor from data, and a key it accepts
SPARSE_KINDS = {
    "weyl": (WeylElement, (Fraction(1, 2), Fraction(-3))),
    "position": (lambda data: FiniteSupportVector(data, POSITION), Fraction(3, 2)),
    "momentum": (lambda data: FiniteSupportVector(data, MOMENTUM), Fraction(3, 2)),
    "trig": (TrigPolynomial, Fraction(3, 2)),
}


@pytest.mark.parametrize("kind", sorted(SPARSE_KINDS))
def test_sparse_map_normal_form(kind):
    make, key = SPARSE_KINDS[kind]
    merged = make([(key, 1.0), (key, 2j)])
    assert len(merged) == 1
    assert merged == make({key: 1 + 2j})
    assert not make({key: PRUNE_TOL / 2})
    assert make({key: 2 * PRUNE_TOL})
    for bad in (float("inf"), complex("nan"), complex(0.0, float("-inf"))):
        with pytest.raises(ValueError):
            make({key: bad})
    x = make({key: 1 + 2j})
    assert not (x - x)
    assert len(x - x) == 0
    with pytest.raises(TypeError):
        hash(x)
    for other_kind, (other_make, other_key) in SPARSE_KINDS.items():
        if other_kind == kind:
            continue
        other = other_make({other_key: 1 + 2j})
        assert x != other
        assert not (x == other)
        if type(other) is type(x):
            with pytest.raises(FlavorMismatchError):
                x + other
        else:
            with pytest.raises(TypeError):
                x + other
