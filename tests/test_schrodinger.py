import cmath
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from helpers import rand_coeff, rand_fraction
from weylreps import (
    GridWavefunction,
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
from weylreps.schrodinger import POINTS_PER_UNIT, _trapezoid_mean
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
    for count in (2**22 + 1, 10**400, float("nan")):  # refused before allocating
        with pytest.raises(ValueError, match="grid points"):
            gaussian_ground_state(count=count)
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


def test_superpose_refuses_a_sum_of_norm_zero(psi0):
    with pytest.raises(ValueError) as refused:
        superpose(psi0, GridWavefunction(psi0.x, -psi0.psi))
    assert type(refused.value) is ValueError
    assert str(refused.value) == "cannot normalise a function of norm 0.0"


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
    "n, message",
    [
        (float("nan"), "finite"),
        (float("inf"), "finite"),
        (1e13, "limit of 4194304 points"),
        (1e6, "limit of 4194304 points"),
        (1e308, "limit of 4194304 points"),  # 2 N POINTS_PER_UNIT overflows
        (16384.0, "limit of 4194304 points"),  # 2**22 + 1 points, one too many
        pytest.param(10**400, "out of float range", id="1e400-out of float range"),
    ],
)
def test_mean_quadrature_rejects_bad_n_before_allocating(monkeypatch, n, message):
    # Without numpy any allocation fails with ImportError, not ValueError.
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ValueError, match=message):
        mean_quadrature(constant(1), n)


def test_mean_quadrature_accepts_the_largest_grid_below_the_limit(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    n = math.nextafter(16384.0, 0.0)  # 2**22 points: the last grid under the limit
    assert POINTS_PER_UNIT == 128 and int(2.0 * n * POINTS_PER_UNIT) + 1 == 2**22
    assert mean_quadrature(constant(1), n) == pytest.approx(1, abs=1e-12)


def _grid_mean(f, n, points_per_unit):
    """Reference: the trapezoid rule on the explicit grid of m + 1 points."""
    count = int(2.0 * n * points_per_unit) + 1
    xs = np.linspace(-n, n, count)
    total = np.zeros(count, dtype=complex)
    for freq, coeff in f.coefficients.items():
        total += coeff * np.exp(1j * float(freq) * xs)
    return complex(np.trapezoid(total, dx=xs[1] - xs[0]) / (2.0 * n))


def _closed_form(f, n, points_per_unit):
    """mean_quadrature at its fixed density; its closed form at the others."""
    if points_per_unit == POINTS_PER_UNIT:
        return mean_quadrature(f, n)
    return _trapezoid_mean(f, n, int(2.0 * n * points_per_unit))


# 1 and 16 points per unit keep the coarse grids (two cells at N = 1) on
# the closed form that mean_quadrature sums at 128
@pytest.mark.parametrize("points_per_unit", [1, 16, 128])
@pytest.mark.parametrize("n", [1.0, 3.7, 1000.0, 10000.0])
def test_mean_quadrature_closed_form_equals_grid_sum(n, points_per_unit):
    rng = random.Random(71)
    for _ in range(3):
        f = TrigPolynomial(
            {rand_fraction(rng, 64, 12): rand_coeff(rng) for _ in range(5)}
        )
        gap = abs(_closed_form(f, n, points_per_unit) - _grid_mean(f, n, points_per_unit))
        assert gap <= 1e-12 * f.l1_bound()


ALIAS = Fraction(round(2 * math.pi * 128 * 10**9), 10**9)  # within 1e-9 of 2 pi 128


@pytest.mark.parametrize("points_per_unit", [1, 16, 128])
@pytest.mark.parametrize("n", [1.0, 3.7, 1000.0, 10000.0])
@pytest.mark.parametrize("freq", [Fraction(0), Fraction(1, 10**9), ALIAS])
def test_mean_quadrature_closed_form_at_zero_tiny_and_aliased(
    freq, n, points_per_unit
):
    # at N = 3.7 and 128 points per unit the grid has m = 947 cells and
    # ALIAS reduces to k = 1, so the sign flip of the kernel for odd k m is taken
    f = TrigPolynomial({freq: 1.0})
    gap = abs(_closed_form(f, n, points_per_unit) - _grid_mean(f, n, points_per_unit))
    assert gap <= 1e-9


def test_mean_quadrature_refuses_a_frequency_past_the_float_range(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ValueError, match="frequency out of float range"):
        mean_quadrature(constant(1) + trig_generator(10**400), 10.0)


def test_truncation_bound_takes_the_reciprocal_frequency_exactly():
    # 1/|a| rounds to 0 for a past the float range: the term vanishes
    huge = constant(1) + trig_generator(10**400)
    assert truncation_bound(huge, 10.0) == 0.0
    # and is past the float range for a that a float rounds to 0
    tiny = TrigPolynomial({Fraction(1, 10**400): 1.0})
    with pytest.raises(ValueError, match="1/frequency out of float range"):
        truncation_bound(tiny, 10.0)
    assert truncation_bound(trig_generator(Fraction(1, 3)), 10.0) == pytest.approx(0.6)


@pytest.mark.parametrize("n", [float("nan"), float("inf"), 10**400, 0.5],
                         ids=["nan", "inf", "1e400", "0.5"])
def test_truncation_bound_validates_n(n):
    with pytest.raises(ValueError, match="averaging length"):
        truncation_bound(trig_generator(1), n)


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda psi: characteristic_function(psi, NAN, 0),
        lambda psi: characteristic_function(psi, 0, NAN),
        lambda psi: characteristic_function(psi, float("inf"), 0),
        lambda psi: characteristic_function(psi, 10**400, 0),
        lambda psi: point_mass_probe(psi, NAN, 0.125),
        lambda psi: point_mass_probe(psi, 0.0, NAN),
        lambda psi: point_mass_probe(psi, float("-inf"), 0.125),
        lambda psi: gaussian_packet(center=NAN),
        lambda psi: gaussian_packet(width=NAN),
        lambda psi: gaussian_packet(momentum=NAN),
        lambda psi: gaussian_packet(center=10**400),
        # finite, but exp(i a x) or the envelope is not on the window
        lambda psi: characteristic_function(psi, 1.6e307, 0),
        lambda psi: gaussian_packet(momentum=1.6e307),
        # refused before numpy divides by the width's square, with no warning
        pytest.param(lambda psi: gaussian_packet(width=1e-200),
                     marks=pytest.mark.filterwarnings("error")),
    ],
    ids=["charfn-a", "charfn-b", "charfn-inf", "charfn-overflow", "probe-lam",
         "probe-eps", "probe-inf", "packet-center", "packet-width",
         "packet-momentum", "packet-overflow", "charfn-a-window",
         "packet-momentum-window", "packet-width-tiny"],
)
def test_oracle_refuses_nan_inf_and_overflow(psi0, call):
    with pytest.raises(ValueError, match="must be finite|out of float range|cannot normalise"):
        call(psi0)


def test_packet_wider_than_the_float_range_squared_is_flat():
    # width**2 passes the float range: the envelope is 1 on the window
    psi = gaussian_packet(width=1e160)
    assert abs(psi.norm() - 1) < 1e-12 and np.ptp(np.abs(psi.psi)) < 1e-12


def _cumulative_probe(psi, lam, eps):
    """Reference: the cumulative-sum antiderivative of the interpolant."""
    density = np.abs(psi.psi) ** 2
    h = psi.step
    cumulative = np.concatenate(
        [[0.0], np.cumsum((density[1:] + density[:-1]) / 2.0 * h)]
    )
    x = psi.x

    def antiderivative(t):
        t = min(max(t, float(x[0])), float(x[-1]))
        k = int(np.searchsorted(x, t, side="right")) - 1
        k = min(max(k, 0), len(x) - 2)
        u = t - float(x[k])
        y0 = float(density[k])
        y1 = float(density[k + 1])
        yt = y0 + (y1 - y0) * u / h
        return float(cumulative[k]) + u * (y0 + yt) / 2.0

    value = antiderivative(lam + eps) - antiderivative(lam - eps)
    return min(max(value, 0.0), 1.0)


def test_point_mass_probe_matches_the_cumulative_sum(psi0_fine):
    rng = random.Random(29)
    bump = superpose(gaussian_packet(center=-2.0), gaussian_packet(center=3.0, width=0.5))
    for psi in (psi0_fine, bump):
        h, x = psi.step, psi.x
        # cut to the window, an interval past its edge can lie inside the
        # last cell, or have no width left at all
        intervals = [(12.0 + 1.7 * h, 2.0 * h), (-12.0 - 1.2 * h, 1.5 * h),
                     (12.0, 0.5), (-12.0, 0.5), (11.9, 1.0), (-11.9, 1.0),
                     (13.0, 0.5), (-13.0, 0.5), (0.0, 30.0)]
        for _ in range(40):
            # just wider than two cells, ends anywhere in their cells
            cell = rng.randrange(len(x))
            intervals.append((float(x[cell]) + rng.random() * h, h * (1.0 + rng.random())))
            intervals.append((rng.uniform(-14.0, 14.0), rng.uniform(2 * h, 4.0)))
        for lam, eps in intervals:
            assert abs(point_mass_probe(psi, lam, eps)
                       - _cumulative_probe(psi, lam, eps)) <= 1e-12
