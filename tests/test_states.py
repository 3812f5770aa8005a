import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import rand_coeff, rand_fraction
from weylreps import (
    MOMENTUM,
    POSITION,
    StateFunctional,
    WeylElement,
    WeylIndex,
    characteristic_function,
    check_positivity,
    gaussian_ground_state,
    generator,
    gram_matrix,
    identity,
    momentum_state,
    position_state,
    vacuum_state,
    zero,
)
from weylreps.algebra import EXACT_TOL, RationalIndex


@pytest.mark.parametrize("kind", [POSITION, MOMENTUM])
def test_state_parameter_is_coerced_once_at_construction(kind):
    exact = Fraction(1, 2)
    assert StateFunctional(kind, exact).parameter is exact
    for parameter in ("1/2", RationalIndex(exact)):
        state = StateFunctional(kind, parameter)
        assert type(state.parameter) is Fraction
        assert state == StateFunctional(kind, exact)
        assert repr(state) == repr(StateFunctional(kind, exact))
        x = generator(1, 0) + generator(0, 1)  # one term on each axis
        assert state(x) == StateFunctional(kind, exact)(x)
    assert StateFunctional(kind, 2).parameter == 2
    with pytest.raises(TypeError):
        StateFunctional(kind, 0.5)


def test_position_state_values():
    omega = position_state(1)
    assert omega(generator(2, 0)) == pytest.approx(cmath.exp(2j), abs=1e-15)
    assert omega(generator(0, 1)) == 0
    assert omega(identity()) == 1


def test_position_state_support_exact():
    omega = position_state(Fraction(5, 2))
    rng = random.Random(9)
    for _ in range(100):
        a = rand_fraction(rng)
        b = rand_fraction(rng, nonzero=True)
        assert omega(generator(a, b)) == 0


def test_momentum_state_mirror():
    omega = momentum_state(1)
    assert omega(generator(0, 3)) == pytest.approx(cmath.exp(3j), abs=1e-15)
    assert omega(generator(1, 0)) == 0
    assert omega(identity()) == 1


def test_vacuum_state_values():
    omega = vacuum_state()
    assert omega(identity()) == 1
    assert omega(generator(2, 0)) == pytest.approx(math.exp(-1), abs=1e-12)
    expected = cmath.exp(-0.5j) * math.exp(-0.5)
    assert omega(generator(1, 1)) == pytest.approx(expected, abs=1e-12)


def test_evaluate_is_linear():
    omega = position_state(1)
    assert omega(generator(2, 0) + generator(0, 1)) == pytest.approx(
        cmath.exp(2j), abs=1e-15
    )
    assert omega(zero()) == 0
    assert vacuum_state()(2 * identity()) == pytest.approx(2, abs=1e-12)


def test_generator_values_bounded_by_one():
    rng = random.Random(21)
    for state in (position_state(3), momentum_state(Fraction(-1, 2)), vacuum_state()):
        for _ in range(100):
            value = state(generator(rand_fraction(rng), rand_fraction(rng)))
            assert abs(value) <= 1 + 1e-12


def test_state_constructor_validation():
    with pytest.raises(ValueError):
        StateFunctional("position")
    with pytest.raises(ValueError):
        StateFunctional("vacuum", Fraction(1))
    with pytest.raises(ValueError):
        StateFunctional("thermal")


def test_gram_matrix_identity_basis():
    g = gram_matrix(position_state(0), [identity()])
    assert g.shape == (1, 1)
    assert g[0, 0] == 1


def test_gram_matrix_orthogonal_translates():
    g = gram_matrix(position_state(2), [generator(0, 0), generator(0, 1)])
    assert np.allclose(g, np.eye(2), atol=1e-15)


def test_gram_matrix_vacuum_two_point():
    g = gram_matrix(vacuum_state(), [identity(), generator(1, 0)])
    expected = np.array([[1.0, math.exp(-0.25)], [math.exp(-0.25), 1.0]])
    assert np.allclose(g, expected, atol=1e-12)


def test_gram_matrices_hermitian():
    rng = random.Random(5)
    for state in (position_state(1), momentum_state(2), vacuum_state()):
        basis = [
            generator(rand_fraction(rng), rand_fraction(rng)) for _ in range(6)
        ]
        g = gram_matrix(state, basis)
        assert np.max(np.abs(g - g.conj().T)) < 1e-12


SHARP_AND_VACUUM = (
    position_state(Fraction(7, 3)),
    momentum_state(Fraction(-5, 2)),
    vacuum_state(),
)


def alphabet_basis(rng, n_words, max_terms=4):
    """Seeded words over one 4x4 alphabet of labels with |a|, |b| <= 10."""
    a_vals, b_vals = set(), set()
    while len(a_vals) < 4:
        a_vals.add(rand_fraction(rng))
    while len(b_vals) < 4:
        b_vals.add(rand_fraction(rng))
    alphabet = [(a, b) for a in sorted(a_vals) for b in sorted(b_vals)]
    return [
        WeylElement(
            {
                WeylIndex(a, b): rand_coeff(rng)
                for a, b in rng.sample(alphabet, rng.randint(1, max_terms))
            }
        )
        for _ in range(n_words)
    ]


def test_gram_matrix_matches_pairwise_products():
    for seed in range(6):
        rng = random.Random(seed)
        for state in SHARP_AND_VACUUM:
            basis = alphabet_basis(rng, 12)
            g = gram_matrix(state, basis)
            pairwise = np.array(
                [[state(x.adjoint() * y) for y in basis] for x in basis]
            )
            assert np.max(np.abs(g - pairwise)) <= 1e-12


def test_gram_matrix_sharp_zeros_are_exact():
    # a sharp state kills W(t - s) unless its broken label agrees, so words
    # with disjoint supports in that label have an exactly zero cell
    for state, label in ((SHARP_AND_VACUUM[0], "b"), (SHARP_AND_VACUUM[1], "a")):
        disjoint = 0
        for seed in range(6):
            basis = alphabet_basis(random.Random(seed), 16, max_terms=2)
            g = gram_matrix(state, basis)
            supports = [{getattr(i, label) for i in x.terms} for x in basis]
            for i, j in itertools.product(range(len(basis)), repeat=2):
                if supports[i].isdisjoint(supports[j]):
                    disjoint += 1
                    assert g[i, j] == 0
        assert disjoint > 0


def test_gram_matrix_of_a_sharp_state_takes_one_phase_per_label(monkeypatch):
    from weylreps import states

    kernel_calls, phase_calls = [], []
    kernel, phase_ratio = StateFunctional.kernel, states.phase_ratio
    monkeypatch.setattr(StateFunctional, "kernel",
                        lambda self, s, t: kernel_calls.append(1) or kernel(self, s, t))
    monkeypatch.setattr(states, "phase_ratio",
                        lambda p, q: phase_calls.append(1) or phase_ratio(p, q))
    rng = random.Random(17)
    for state in SHARP_AND_VACUUM[:2]:
        for _ in range(3):
            basis = alphabet_basis(rng, 16)
            labels = {label for x in basis for label in x.terms}
            assert sum(len(x.terms) for x in basis) > len(labels)
            phase_calls.clear()
            gram_matrix(state, basis)
            assert len(phase_calls) == len(labels)
    assert kernel_calls == []


def test_gram_matrix_of_the_vacuum_takes_one_phase_per_a_and_b_value(monkeypatch):
    from weylreps import states

    kernel_calls, phase_calls = [], []
    kernel, phase_ratio = StateFunctional.kernel, states.phase_ratio
    monkeypatch.setattr(StateFunctional, "kernel",
                        lambda self, s, t: kernel_calls.append(1) or kernel(self, s, t))
    monkeypatch.setattr(states, "phase_ratio",
                        lambda p, q: phase_calls.append(1) or phase_ratio(p, q))
    rng = random.Random(18)
    # a = 1/2 is stored over q = 6 in the first label and over q = 2 in the second
    bases = [[generator(Fraction(1, 2), Fraction(1, 3)), generator(Fraction(1, 2), 0),
              generator(0, Fraction(1, 3))]]
    bases += [alphabet_basis(rng, 16) for _ in range(3)]
    for basis in bases:
        labels = {label for x in basis for label in x.terms}
        a_vals, b_vals = {label.a for label in labels}, {label.b for label in labels}
        phase_calls.clear()
        gram_matrix(vacuum_state(), basis)
        assert len(phase_calls) == len(a_vals) * len(b_vals) < len(labels) ** 2
    # a phase that only cells beyond the Gaussian's reach would read is not taken
    phase_calls.clear()
    g = gram_matrix(vacuum_state(), [generator(0, 0), generator(100, 100)])
    assert len(phase_calls) == 2 and g[0, 1] == 0
    assert kernel_calls == []


def exact_angle_gram(state, basis, mpmath):
    """state(x_i* x_j) summed term by term, each phase taken at 60 digits.

    W(s)* W(t) = exp(i (a_s - a_t) b_s) W(t - s), and a sharp state's value
    on W(t - s) is one more exact phase or exactly 0.
    """
    g = np.zeros((len(basis), len(basis)), dtype=complex)
    with mpmath.workdps(60):
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                total = mpmath.mpc(0)
                for (a_s, b_s), c in x.terms.items():
                    for (a_t, b_t), d in y.terms.items():
                        if state.kind == POSITION and b_t == b_s:
                            value = (a_t - a_s) * state.parameter
                        elif state.kind == MOMENTUM and a_t == a_s:
                            value = (b_t - b_s) * state.parameter
                        else:
                            continue
                        angle = (a_s - a_t) * b_s + value
                        total += (
                            mpmath.conj(mpmath.mpc(c))
                            * mpmath.mpc(d)
                            * mpmath.expj(mpmath.mpf(angle.numerator) / angle.denominator)
                        )
                g[i, j] = complex(total)
    return g


@pytest.mark.parametrize("state", SHARP_AND_VACUUM[:2], ids=["position", "momentum"])
def test_gram_matrix_exact_angles_at_large_labels(state):
    mpmath = pytest.importorskip("mpmath")
    scale = 10**8
    basis = [
        WeylElement({WeylIndex(i.a * scale, i.b * scale): c for i, c in x.terms.items()})
        for x in alphabet_basis(random.Random(21), 16)
    ]
    exact = exact_angle_gram(state, basis, mpmath)
    assert np.count_nonzero(exact) > 2 * len(basis)
    assert np.max(np.abs(gram_matrix(state, basis) - exact)) <= 1e-12


def exact_vacuum_gram(basis, mpmath):
    """vacuum(x_i* x_j) summed term by term at 300 digits.

    W(s)* W(t) = exp(i (a_s - a_t) b_s) W(t - s), and the vacuum's value on
    W(a, b) is exp(-i a b / 2) exp(-(a^2 + b^2) / 4).
    """
    g = np.zeros((len(basis), len(basis)), dtype=complex)
    with mpmath.workdps(300):
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                total = mpmath.mpc(0)
                for (a_s, b_s), c in x.terms.items():
                    for (a_t, b_t), d in y.terms.items():
                        a, b = a_t - a_s, b_t - b_s
                        angle = -a * b_s - a * b / 2
                        square = (a * a + b * b) / 4
                        total += (
                            mpmath.conj(mpmath.mpc(c))
                            * mpmath.mpc(d)
                            * mpmath.expj(mpmath.mpf(angle.numerator) / angle.denominator)
                            * mpmath.exp(-mpmath.mpf(square.numerator) / square.denominator)
                        )
                g[i, j] = complex(total)
    return g


@pytest.mark.parametrize("scale", [10**8, 10**50, 10**200], ids=["1e8", "1e50", "1e200"])
def test_vacuum_gram_matrix_exact_angles_at_large_labels(scale):
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(23)
    # one large base per axis and offsets k/12, |k| <= 36, so that most
    # label pairs are within reach of the Gaussian envelope
    a_base, b_base = rng.choice((-scale, scale)), rng.choice((-scale, scale))
    a_vals = [a_base + Fraction(k, 12) for k in rng.sample(range(-36, 37), 4)]
    b_vals = [b_base + Fraction(k, 12) for k in rng.sample(range(-36, 37), 4)]
    alphabet = [(a, b) for a in a_vals for b in b_vals]
    basis = [
        WeylElement({WeylIndex(a, b): rand_coeff(rng)
                     for a, b in rng.sample(alphabet, rng.randint(1, 4))})
        for _ in range(16)
    ]
    exact = exact_vacuum_gram(basis, mpmath)
    assert np.count_nonzero(exact) > len(basis) ** 2 // 2
    assert np.max(np.abs(gram_matrix(vacuum_state(), basis) - exact)) <= 1e-12


def test_vacuum_gram_matrix_reads_a_from_the_first_a_value():
    huge = 10**200
    omega = vacuum_state()
    # a single generator's cell is 1 whatever the size of a b
    assert gram_matrix(omega, [generator(huge, huge)]).tolist() == [[1]]
    assert check_positivity(omega, [generator(huge, huge), generator(huge + 1, huge)]) > 0
    # labels beyond each other's reach: the cells between them are exactly 0,
    # and W(0, huge) reads its phase (0 - huge) huge / 2 from a0 = huge, so
    # its diagonal cell is 1 within roundoff, as in the kernel route
    labels = (WeylIndex(huge, 0), WeylIndex(0, huge))
    kernel = [[omega.kernel(s, t) for t in labels] for s in labels]
    assert kernel == [[1, 0], [0, 1]]
    gram = gram_matrix(omega, [generator(huge, 0), generator(0, huge)])
    assert gram[0, 1] == 0 and gram[1, 0] == 0
    assert np.max(np.abs(np.diag(gram) - 1)) <= 1e-15
    # two far groups of two a values each, reached interleaved, against the
    # kernel route summed cell by cell
    basis = [generator(huge, 0), generator(0, huge),
             generator(huge + 1, 1) * 0.5 + generator(1, huge - 1) * 2j]
    expected = [[sum(c.conjugate() * d * omega.kernel(s, t) for s, c in x.terms.items()
                     for t, d in y.terms.items()) for y in basis] for x in basis]
    assert np.max(np.abs(gram_matrix(omega, basis) - np.array(expected))) <= 1e-12


def test_vacuum_gram_matrix_on_a_long_chain_of_a_values_is_the_kernel_route():
    # each a value is within the Gaussian's reach of the next, and the last
    # phase angle from a0 = 0, 200 * 2e306 / 2, passes 2**1023; the kernel
    # route gives 1 on the diagonal and about 1.9e-174 between neighbours
    omega = vacuum_state()
    basis = [generator(40 * k, 2 * 10**306) for k in range(6)]
    labels = [next(iter(x.terms)) for x in basis]
    kernel = np.array([[omega.kernel(s, t) for t in labels] for s in labels])
    assert abs(kernel[0, 1]) == pytest.approx(1.9e-174, rel=0.01)
    assert np.max(np.abs(gram_matrix(omega, basis) - kernel)) <= EXACT_TOL


def test_vacuum_beyond_the_float_range_is_exactly_zero():
    huge = Fraction(10**400)
    omega = vacuum_state()
    assert omega.generator_value(huge, Fraction(0)) == 0j
    assert omega.generator_value(Fraction(1, 2), -huge) == 0j
    assert omega(generator(huge, 1) + generator(0, 0)) == 1


def test_gram_matrix_zero_element_gives_zero_row_and_column():
    rng = random.Random(3)
    for state in SHARP_AND_VACUUM:
        basis = alphabet_basis(rng, 5)
        basis.insert(2, zero())
        g = gram_matrix(state, basis)
        assert np.all(g[2, :] == 0) and np.all(g[:, 2] == 0)
    assert np.all(gram_matrix(vacuum_state(), [zero(), zero()]) == 0)


def test_check_positivity_trivial():
    assert check_positivity(vacuum_state(), [identity()]) == pytest.approx(1.0)


def test_check_positivity_random_bases():
    rng = random.Random(13)
    for state in (position_state(1), momentum_state(Fraction(-3, 4)), vacuum_state()):
        for _ in range(25):
            basis = [
                generator(rand_fraction(rng), rand_fraction(rng))
                for _ in range(rng.randint(1, 8))
            ]
            assert check_positivity(state, basis) >= -1e-10


def test_check_positivity_input_validation():
    # the empty basis is refused once, by gram_matrix, for either entry point
    for refuse in (gram_matrix, check_positivity):
        with pytest.raises(ValueError, match="^basis must be non-empty$"):
            refuse(vacuum_state(), [])
    with pytest.raises(ValueError, match=r"^basis too large \(limit 64\)$"):
        check_positivity(vacuum_state(), [identity()] * 65)


def test_the_vacuum_has_no_point_model():
    with pytest.raises(ValueError) as refused:
        vacuum_state()._point(0, 0, 1)
    assert type(refused.value) is ValueError
    assert str(refused.value) == "the vacuum has no point model"


def test_vacuum_matches_quadrature_oracle():
    psi0 = gaussian_ground_state()
    omega = vacuum_state()
    for a in (-2, -1, 0, 1, 2):
        for b in (-2, -1, 0, 1, 2):
            formula = omega(generator(a, b))
            quadrature = characteristic_function(psi0, a, b)
            assert abs(formula - quadrature) <= 1e-6
