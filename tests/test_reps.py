import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given

from helpers import fractions_st, rand_coeff, rand_fraction
from weylreps import (
    MOMENTUM,
    POSITION,
    FiniteSupportVector,
    FlavorMismatchError,
    NonexistentObservableError,
    apply_P,
    apply_Q,
    apply_U,
    apply_V,
    apply_element,
    basis_vector,
    finite_difference_generator,
    generator,
    inner,
    u_direction_matrix_element,
    v_direction_matrix_element,
    weyl_relation_check,
)


def test_basis_vectors_orthonormal():
    assert inner(basis_vector(1), basis_vector(2)) == 0
    assert inner(basis_vector(Fraction(3, 2)), basis_vector(Fraction(3, 2))) == 1


def test_inner_conjugate_linear_in_first_slot():
    u = basis_vector(0) + 1j * basis_vector(1)
    value = inner(u, basis_vector(1))
    assert value == -1j


def test_inner_rejects_mixed_flavors():
    with pytest.raises(FlavorMismatchError):
        inner(basis_vector(0, POSITION), basis_vector(0, MOMENTUM))


def test_apply_U_identity_and_eigenrelation():
    v = basis_vector(3) + basis_vector(5)
    assert apply_U(0, v) == v
    moved = apply_U(2, basis_vector(3))
    assert set(moved.amplitudes) == {Fraction(3)}
    assert moved.amplitudes[Fraction(3)] == pytest.approx(cmath.exp(6j), abs=1e-15)


def test_apply_U_linear():
    moved = apply_U(1, basis_vector(0) + basis_vector(1))
    assert moved.amplitudes[Fraction(0)] == 1
    assert moved.amplitudes[Fraction(1)] == pytest.approx(cmath.exp(1j), abs=1e-15)


def test_apply_V_translates_exactly():
    assert apply_V(0, basis_vector(7)) == basis_vector(7)
    assert apply_V(1, basis_vector(3)) == basis_vector(2)
    v = basis_vector(0) + 0.5j * basis_vector(Fraction(1, 3))
    assert apply_V(-1, apply_V(1, v)) == v


@given(fractions_st, fractions_st, fractions_st)
def test_exchange_relation_on_basis_vectors(a, b, lam):
    assert weyl_relation_check(a, b, lam) < 1e-12
    assert weyl_relation_check(a, b, lam, MOMENTUM) < 1e-12


def test_exchange_relation_trivial_when_b_zero():
    assert weyl_relation_check(Fraction(5, 3), 0, Fraction(-2)) == 0.0


def test_apply_Q_eigenvalues():
    assert apply_Q(basis_vector(3)) == 3 * basis_vector(3)
    assert not apply_Q(basis_vector(0))


def test_apply_Q_refused_in_momentum_flavor():
    with pytest.raises(NonexistentObservableError, match="nonexistent observable"):
        apply_Q(basis_vector(1, MOMENTUM))


def test_apply_P_mirror():
    assert apply_P(basis_vector(3, MOMENTUM)) == 3 * basis_vector(3, MOMENTUM)
    with pytest.raises(NonexistentObservableError, match="nonexistent observable"):
        apply_P(basis_vector(1, POSITION))


def test_finite_difference_amplitude():
    step = Fraction(1, 1024)
    approx = finite_difference_generator(step, basis_vector(1))
    amp = approx.amplitudes[Fraction(1)]
    expected = -1j * 1024 * (cmath.exp(1j / 1024) - 1)
    assert amp == pytest.approx(expected, abs=1e-15)
    distance = (approx - apply_Q(basis_vector(1))).norm()
    assert distance <= 2**-10


def test_finite_difference_exact_zero_at_origin():
    assert not finite_difference_generator(Fraction(1, 1024), basis_vector(0))


def test_finite_difference_zero_step_rejected():
    with pytest.raises(ValueError):
        finite_difference_generator(0, basis_vector(1))


def test_finite_difference_error_halves_with_step():
    target = apply_Q(basis_vector(1))
    e1 = (finite_difference_generator(Fraction(1, 1024), basis_vector(1)) - target).norm()
    e2 = (finite_difference_generator(Fraction(1, 2048), basis_vector(1)) - target).norm()
    assert abs(e2 / e1 - 0.5) < 0.05


def test_float_conversions_refuse_rationals_past_the_float_range():
    with pytest.raises(ValueError, match="point out of float range"):
        apply_Q(basis_vector(10**400))
    with pytest.raises(ValueError, match="point out of float range"):
        apply_P(basis_vector(-(10**400), MOMENTUM))
    # a nonzero step whose float is 0.0 must not divide by zero
    with pytest.raises(ValueError, match="1/step out of float range"):
        finite_difference_generator(Fraction(1, 10**400), basis_vector(1))
    with pytest.raises(ValueError, match="1/step out of float range"):
        finite_difference_generator(Fraction(1, 10**400), basis_vector(1, MOMENTUM))
    # a point whose float underflows is taken as 0, well inside the prune
    assert not apply_Q(basis_vector(Fraction(1, 10**400)))


def test_v_direction_matrix_element_is_exact_indicator():
    assert v_direction_matrix_element(0, 5) == 1
    assert v_direction_matrix_element(Fraction(1, 10**6), 5) == 0
    assert v_direction_matrix_element(-2, 0) == 0


def test_unitarity_preserves_inner_products():
    rng = random.Random(3)
    for flavor in (POSITION, MOMENTUM):
        u = FiniteSupportVector(
            {rand_fraction(rng): rand_coeff(rng) for _ in range(3)}, flavor
        )
        v = FiniteSupportVector(
            {rand_fraction(rng): rand_coeff(rng) for _ in range(3)}, flavor
        )
        before = inner(u, v)
        t = rand_fraction(rng)
        assert inner(apply_U(t, u), apply_U(t, v)) == pytest.approx(before, abs=1e-12)
        assert inner(apply_V(t, u), apply_V(t, v)) == pytest.approx(before, abs=1e-12)


def test_apply_element_composes_like_the_algebra():
    rng = random.Random(11)
    for _ in range(20):
        x = generator(rand_fraction(rng), rand_fraction(rng))
        y = generator(rand_fraction(rng), rand_fraction(rng))
        phi = basis_vector(rand_fraction(rng))
        staged = apply_element(x, apply_element(y, phi))
        direct = apply_element(x * y, phi)
        assert (staged - direct).max_amplitude() < 1e-12


class TestMomentumMirror:
    """The momentum flavor passes the position tests with U and V swapped."""

    def test_sharp_eigenvectors_of_V(self):
        moved = apply_V(3, basis_vector(1, MOMENTUM))
        assert set(moved.amplitudes) == {Fraction(1)}
        assert moved.amplitudes[Fraction(1)] == pytest.approx(cmath.exp(3j), abs=1e-15)

    def test_U_translates(self):
        assert apply_U(2, basis_vector(1, MOMENTUM)) == basis_vector(3, MOMENTUM)

    def test_u_direction_matrix_element_indicator(self):
        assert u_direction_matrix_element(0, 5) == 1
        assert u_direction_matrix_element(Fraction(1, 10**6), 5) == 0

    def test_finite_difference_converges_to_P(self):
        target = apply_P(basis_vector(2, MOMENTUM))
        e1 = (
            finite_difference_generator(Fraction(1, 1024), basis_vector(2, MOMENTUM))
            - target
        ).norm()
        e2 = (
            finite_difference_generator(Fraction(1, 2048), basis_vector(2, MOMENTUM))
            - target
        ).norm()
        assert abs(e2 / e1 - 0.5) < 0.05
