import cmath
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from helpers import rand_coeff, rand_fraction
from weylreps import (
    TrigPolynomial,
    characteristic_function,
    constant,
    dispersion_product,
    gaussian_ground_state,
    gaussian_packet,
    mean_quadrature,
    point_mass_probe,
    superpose,
    trig_generator,
    truncation_bound,
)
from weylreps.verify import AVERAGE_N, RATIO_TOL, TONE_TOL


@pytest.fixture(scope="module")
def psi0():
    return gaussian_ground_state()


def test_ground_state_normalised(psi0):
    assert abs(psi0.norm() - 1) < 1e-8


def test_ground_state_symmetric(psi0):
    assert np.array_equal(psi0.psi, psi0.psi[::-1])


def test_ground_state_centered(psi0):
    density = np.abs(psi0.psi) ** 2
    mean = np.trapezoid(psi0.x * density, dx=psi0.step)
    assert abs(mean) < 1e-8


def test_grid_validation():
    with pytest.raises(ValueError):
        gaussian_ground_state(count=512)
    with pytest.raises(ValueError):
        gaussian_packet(width=0.0)


def test_characteristic_function_at_origin(psi0):
    assert characteristic_function(psi0, 0, 0) == pytest.approx(1, abs=1e-8)


def test_characteristic_function_gaussian_values(psi0):
    # closed forms: exp(-a^2/4) on the phase axis, with the ordering phase off it
    assert characteristic_function(psi0, 2, 0) == pytest.approx(
        math.exp(-1), abs=1e-6
    )
    expected = cmath.exp(-0.5j) * math.exp(-0.5)
    assert characteristic_function(psi0, 1, 1) == pytest.approx(expected, abs=1e-6)


def test_characteristic_function_modulus_bounded(psi0):
    for a, b in ((3, 2), (-5, 1), (0, 4)):
        assert abs(characteristic_function(psi0, a, b)) <= 1 + 1e-6


def test_characteristic_function_rejects_large_shift(psi0):
    with pytest.raises(ValueError):
        characteristic_function(psi0, 0, 7)


def test_dispersion_saturated_on_ground_state(psi0):
    assert dispersion_product(psi0) == pytest.approx(0.5, abs=1e-3)


def test_dispersion_invariant_under_shift_and_squeeze():
    assert dispersion_product(gaussian_packet(center=1.0)) == pytest.approx(0.5, abs=1e-3)
    assert dispersion_product(gaussian_packet(width=2.0)) == pytest.approx(0.5, abs=1e-3)
    assert dispersion_product(gaussian_packet(momentum=1.0)) == pytest.approx(0.5, abs=1e-3)


def test_dispersion_exceeds_half_on_superposition():
    bump = superpose(gaussian_packet(center=-1.0), gaussian_packet(center=1.0))
    assert dispersion_product(bump) >= 0.5 - 1e-3
    assert dispersion_product(bump) > 0.52


def test_superpose_requires_matching_grids():
    with pytest.raises(ValueError):
        superpose(gaussian_packet(), gaussian_ground_state(count=2048))


@pytest.fixture(scope="module")
def psi0_fine():
    return gaussian_ground_state(count=2**16)


def test_point_mass_probe_against_error_function(psi0_fine):
    # independent closed form: integral of the squared ground state is erf
    value = point_mass_probe(psi0_fine, 0.0, 0.125)
    assert value == pytest.approx(math.erf(0.125), abs=1e-6)
    assert value == pytest.approx(0.1410, abs=0.01)


def test_point_mass_probe_halves_with_eps(psi0_fine):
    v1 = point_mass_probe(psi0_fine, 0.0, 0.125)
    v2 = point_mass_probe(psi0_fine, 0.0, 0.0625)
    assert abs(v2 / v1 - 0.5) < RATIO_TOL


def test_point_mass_probe_tail(psi0_fine):
    assert point_mass_probe(psi0_fine, 6.0, 0.125) < 1e-8


def test_point_mass_probe_monotone_in_eps(psi0_fine):
    values = [point_mass_probe(psi0_fine, 0.3, e) for e in (0.5, 0.25, 0.125, 0.0625)]
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_point_mass_probe_requires_eps_above_step(psi0_fine):
    with pytest.raises(ValueError):
        point_mass_probe(psi0_fine, 0.0, psi0_fine.step / 2)


def test_mean_quadrature_constant():
    assert mean_quadrature(constant(1), 1000.0) == pytest.approx(1, abs=1e-12)


def test_mean_quadrature_pure_tone_suppressed():
    assert abs(mean_quadrature(trig_generator(1), AVERAGE_N)) <= TONE_TOL


def test_mean_quadrature_two_terms():
    f = constant(2) + trig_generator(Fraction(1, 2))
    assert mean_quadrature(f, 1000.0) == pytest.approx(2, abs=5e-3)


CONVERGENCE_SAMPLE = TrigPolynomial(
    {Fraction(0): 2.0, Fraction(1, 2): 5.0, Fraction(-3): -1j, Fraction(7, 4): 0.25 + 0.25j}
)


@pytest.mark.parametrize("n", [10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0])
def test_mean_quadrature_converges_inside_the_envelope(n):
    # the analytic envelope sum_j 2|c_j| / (|a_j| N), with no slack
    exact = CONVERGENCE_SAMPLE.invariant_mean()
    gap = abs(mean_quadrature(CONVERGENCE_SAMPLE, n) - exact)
    assert gap <= truncation_bound(CONVERGENCE_SAMPLE, n)


def test_mean_quadrature_validates_n():
    with pytest.raises(ValueError):
        mean_quadrature(constant(1), 0.5)


@pytest.mark.parametrize(
    "n, points_per_unit, message",
    [
        (float("nan"), 128, "finite"),
        (float("inf"), 128, "finite"),
        (1e13, 128, "limit of 4194304 points"),
        (1e6, 128, "limit of 4194304 points"),
        (1e308, 128, "limit of 4194304 points"),  # 2 N points_per_unit overflows
        (2.0**21, 1, "limit of 4194304 points"),  # 2**22 + 1 points, one too many
    ],
)
def test_mean_quadrature_rejects_bad_n_before_allocating(
    monkeypatch, n, points_per_unit, message
):
    # Without numpy any allocation fails with ImportError, not ValueError.
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ValueError, match=message):
        mean_quadrature(constant(1), n, points_per_unit)


@pytest.mark.parametrize("points_per_unit", [0, 0.001, -5, 16.0, True, "128"])
def test_mean_quadrature_rejects_bad_points_per_unit(monkeypatch, points_per_unit):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ValueError, match="points per unit"):
        mean_quadrature(constant(1), 10.0, points_per_unit)


def _grid_mean(f, n, points_per_unit):
    """Reference: the trapezoid rule on the explicit grid of m + 1 points."""
    count = int(2.0 * n * points_per_unit) + 1
    xs = np.linspace(-n, n, count)
    total = np.zeros(count, dtype=complex)
    for freq, coeff in f.coefficients.items():
        total += coeff * np.exp(1j * float(freq) * xs)
    return complex(np.trapezoid(total, dx=xs[1] - xs[0]) / (2.0 * n))


@pytest.mark.parametrize("points_per_unit", [1, 16, 128])
@pytest.mark.parametrize("n", [1.0, 3.7, 1000.0, 10000.0])
def test_mean_quadrature_closed_form_equals_grid_sum(n, points_per_unit):
    rng = random.Random(71)
    for _ in range(3):
        f = TrigPolynomial(
            {rand_fraction(rng, 64, 12): rand_coeff(rng) for _ in range(5)}
        )
        gap = abs(mean_quadrature(f, n, points_per_unit)
                  - _grid_mean(f, n, points_per_unit))
        assert gap <= 1e-12 * f.l1_bound()


ALIAS = Fraction(round(2 * math.pi * 128 * 10**9), 10**9)  # within 1e-9 of 2 pi 128


@pytest.mark.parametrize("points_per_unit", [1, 16, 128])
@pytest.mark.parametrize("n", [1.0, 3.7, 1000.0, 10000.0])
@pytest.mark.parametrize("freq", [Fraction(0), Fraction(1, 10**9), ALIAS])
def test_mean_quadrature_closed_form_at_zero_tiny_and_aliased(
    freq, n, points_per_unit
):
    f = TrigPolynomial({freq: 1.0})
    gap = abs(mean_quadrature(f, n, points_per_unit)
              - _grid_mean(f, n, points_per_unit))
    assert gap <= 1e-9
