import cmath
import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given

from helpers import elements_st, fractions_st, rand_element, rand_fraction
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
from weylreps.serialize import element_from_records


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


LABEL_PAIRS = (
    (Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(-3)),
    (Fraction(-7, 3), Fraction(5, 11)),
    (Fraction(10**30, 7), Fraction(-5, 10**20)),
)


def test_label_hash_is_the_pair_hash():
    for a, b in LABEL_PAIRS:
        assert hash(WeylIndex(a, b)) == hash((a, b))


def test_equal_labels_from_every_route_merge():
    a, b = Fraction(1, 2), Fraction(-3)
    routes = [
        next(iter(generator(a, b).terms)),
        next(iter((generator(Fraction(1, 3), -1) * generator(Fraction(1, 6), -2)).terms)),
        next(iter(generator(-a, -b).adjoint().terms)),
        next(iter(element_from_records([{"a": "1/2", "b": "-3", "re": 1, "im": 0}]).terms)),
        WeylIndex(a, b),
    ]
    assert len({label: None for label in routes}) == 1
    assert all(label == (a, b) and (a, b) == label for label in routes)
    assert generator(a, b).terms[(a, b)] == 1
    total = sum((WeylElement({label: 1}) for label in routes[1:]), WeylElement({routes[0]: 1}))
    assert len(total) == 1
    assert total == 5 * generator(a, b)


def test_label_order_is_tuple_order():
    rng = random.Random(11)
    pairs = [(rand_fraction(rng, 3, 2), rand_fraction(rng, 3, 2)) for _ in range(60)]
    labels = [WeylIndex(a, b) for a, b in pairs]
    assert [tuple(label) for label in sorted(labels)] == sorted(pairs)
    for (a, b), label in zip(pairs, labels):
        for other in pairs[:10]:
            assert (label < other) == ((a, b) < other)
            assert (label <= other) == ((a, b) <= other)
            assert (label > WeylIndex(*other)) == ((a, b) > other)
            assert (label >= WeylIndex(*other)) == ((a, b) >= other)


def test_label_behaves_as_the_pair():
    a, b = LABEL_PAIRS[1]
    label = WeylIndex(a, b)
    first, second = label
    assert (first, second) == (label.a, label.b) == (a, b)
    assert str(label) == "(1/2, -3)"
    assert repr(label) == "WeylIndex(a=Fraction(1, 2), b=Fraction(-3, 1))"
    assert label != (a, b, 0) and label != [a, b] and label != a
    with pytest.raises(AttributeError):
        label.a = Fraction(0)
    for twin in (pickle.loads(pickle.dumps(label)), copy.copy(label), copy.deepcopy(label)):
        assert type(twin) is WeylIndex
        assert twin == label and hash(twin) == hash(label)
    x = generator(a, b) + 0.5j * generator(-2, Fraction(1, 3))
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x


def test_fast_path_refuses_non_finite_values():
    big = 1e200 * generator(0, 0)
    with pytest.raises(ValueError):
        big * big
    huge = 1e308 * generator(0, 0)
    with pytest.raises(ValueError):
        huge + huge
    with pytest.raises(ValueError):
        -huge - huge
    with pytest.raises(ValueError):
        generator(1, 2) * float("inf")
    with pytest.raises(ValueError):
        generator(1, 2) * complex("nan")


def test_coefficient_modulus_past_the_float_range_is_refused():
    # finite parts whose modulus overflows: abs() raises OverflowError
    big = complex(1.7e308, 1.7e308)
    with pytest.raises(ValueError, match="float range"):
        WeylElement({(0, 0): big})
    with pytest.raises(ValueError, match="float range"):
        generator(0, 0) * big


def test_int_coefficient_or_scalar_past_the_float_range_is_refused():
    # complex() of such an int raises OverflowError; a map refuses it
    huge = 10**400
    with pytest.raises(ValueError, match="float range"):
        WeylElement({(0, 0): huge})
    with pytest.raises(ValueError, match="float range"):
        generator(0, 0) * huge
    with pytest.raises(ValueError, match="float range"):
        huge * generator(0, 0)
    with pytest.raises(ValueError, match="float range"):
        TrigPolynomial({0: huge})
    # in range, a scalar scales each coefficient as ``c * scalar`` does, bit for bit
    x = generator(1, 2) + (0.3 - 0.7j) * generator(-1, Fraction(1, 3))
    for scalar in (3, -(2**60), 10**300, -0.5, 2.5, True):
        expected = [(k, repr(c * scalar)) for k, c in x.terms.items()
                    if abs(c * scalar) > PRUNE_TOL]
        for scaled in (x * scalar, scalar * x):
            assert [(k, repr(c)) for k, c in scaled.terms.items()] == expected


def test_constructor_refuses_a_merge_that_overflows():
    with pytest.raises(ValueError, match="non-finite"):
        WeylElement([((0, 0), 1e308), ((0, 0), 1e308)])


def test_fast_path_prunes_at_the_tolerance():
    g = generator(1, 0)
    x, y = (3 * PRUNE_TOL) * g, (2.5 * PRUNE_TOL) * g
    assert x and y and x + y
    assert not x - y
    assert not (1e-8 * g) * (1e-8 * g)
    assert (1e-7 * g) * (1e-7 * g)
    assert ((2 * PRUNE_TOL) * g).adjoint()
    assert not (PRUNE_TOL / 2) * g
    # a product term that cancels to below the tolerance is dropped
    left = generator(0, 1) + generator(0, 0)
    right = generator(1, 0) - phase(1) * generator(1, 1)
    for label in (left * right).terms:
        assert label != WeylIndex(Fraction(1), Fraction(1))


def test_fast_path_matches_the_constructor():
    rng = random.Random(17)
    for _ in range(30):
        x, y = rand_element(rng, 4), rand_element(rng, 4)
        for result in (x * y, x.adjoint(), x + y, x - y, -x, 0.5j * x):
            assert result == WeylElement(dict(result.terms))
