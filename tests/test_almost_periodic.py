import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from helpers import fractions_st, rand_coeff, rand_fraction, rand_trig
from weylreps import (
    TrigPolynomial,
    constant,
    mean_quadrature,
    trig_generator,
    truncation_bound,
    v_direction_matrix_element,
)
from weylreps.verify import AVERAGE_N, EXACT_TOL, NORM_TOL

trig_st = st.dictionaries(
    fractions_st,
    st.complex_numbers(min_magnitude=0.01, max_magnitude=1.5,
                       allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
).map(TrigPolynomial)


def test_frequency_cancellation():
    product = trig_generator(1) * trig_generator(-1)
    assert product == constant(1)


def test_number_minus_polynomial_is_constant_minus_polynomial():
    f = TrigPolynomial({Fraction(0): 0.5 - 1j, Fraction(1, 3): 2.0, Fraction(-2): 1j})
    assert 2 - f == constant(2) - f
    assert 2 - f == -(f - 2)
    assert (f - 2).coefficients == {Fraction(0): -1.5 - 1j, Fraction(1, 3): 2.0,
                                    Fraction(-2): 1j}
    assert (1.5 - trig_generator(1)).coefficients == {Fraction(0): 1.5, Fraction(1): -1}
    with pytest.raises(TypeError):
        "2" - f


def test_conjugate_flips_frequency():
    assert trig_generator(Fraction(3, 2)).conjugate() == trig_generator(Fraction(-3, 2))


def test_four_term_expansion_collects_constant():
    f = constant(1) + trig_generator(1)
    g = constant(1) + trig_generator(-1)
    product = f * g
    expected = constant(2) + trig_generator(1) + trig_generator(-1)
    assert (product - expected).max_coeff() < 1e-15


def test_mean_of_characters():
    assert trig_generator(Fraction(5, 7)).invariant_mean() == 0
    assert constant(3).invariant_mean() == 3


def test_mean_reads_off_constant_coefficient():
    f = constant(2) + 5 * trig_generator(Fraction(1, 2)) + (-1j) * trig_generator(-3)
    assert f.invariant_mean() == 2
    # quadrature cross-check at a long truncation
    assert abs(mean_quadrature(f, 10_000.0) - 2) <= 1e-2


def test_evaluate_at_examples():
    assert trig_generator(Fraction(5, 3)).evaluate_at(0) == 1
    assert trig_generator(2).evaluate_at(3) == pytest.approx(
        complex(math.cos(6), math.sin(6)), abs=1e-15
    )
    f = (constant(1) + trig_generator(1)) * (constant(1) + trig_generator(-1))
    assert f.evaluate_at(1) == pytest.approx(2 + 2 * math.cos(1), abs=1e-12)


@given(trig_st, trig_st, fractions_st)
def test_evaluation_is_multiplicative(f, g, x):
    lhs = (f * g).evaluate_at(x)
    rhs = f.evaluate_at(x) * g.evaluate_at(x)
    assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + f.l1_bound() * g.l1_bound()))


@given(trig_st, trig_st)
def test_multiplication_commutative(f, g):
    assert (f * g - g * f).max_coeff() < 1e-12


@given(trig_st)
def test_star_involution(f):
    assert (f.conjugate().conjugate() - f).max_coeff() == 0


def test_mean_positive_on_squares():
    rng = random.Random(19)
    for _ in range(50):
        f = rand_trig(rng, 4)
        mean = (f.conjugate() * f).invariant_mean()
        assert mean.imag == 0
        assert mean.real >= 0
        expected = math.fsum(abs(c) ** 2 for c in f.coefficients.values())
        assert mean.real == pytest.approx(expected, rel=1e-12)


def test_translation_invariance_exact():
    rng = random.Random(43)
    for _ in range(50):
        f = rand_trig(rng, 4)
        t = rand_fraction(rng)
        assert f.translate(t).invariant_mean() == f.invariant_mean()


def test_translate_is_evaluation_shift():
    f = rand_trig(random.Random(47), 4)
    t = Fraction(5, 4)
    x = Fraction(-2, 3)
    assert f.translate(t).evaluate_at(x) == pytest.approx(
        f.evaluate_at(x + t), abs=1e-12
    )


def test_sup_norm_bounds_unimodular_character():
    low, high = trig_generator(Fraction(2, 3)).sup_norm_bounds()
    assert high == 1
    assert low == pytest.approx(1, abs=1e-12)


def test_sup_norm_bounds_constant():
    low, high = constant(3 - 4j).sup_norm_bounds()
    assert low == pytest.approx(5, abs=1e-12)
    assert high == pytest.approx(5, abs=1e-12)


def test_sup_norm_bounds_peak_near_zero():
    low, high = (constant(1) + trig_generator(1)).sup_norm_bounds()
    assert high == 2
    assert low >= 1.99


def test_sup_norm_bounds_bracket():
    rng = random.Random(53)
    for _ in range(20):
        f = rand_trig(rng, 4)
        low, high = f.sup_norm_bounds()
        assert low <= high + EXACT_TOL
        low2, high2 = (f.conjugate() * f).sup_norm_bounds()
        assert low**2 <= high2 + NORM_TOL
        assert low2 <= high**2 + NORM_TOL


def _scaled_trig(rng: random.Random, scale: int, n_terms: int = 4) -> TrigPolynomial:
    """Random polynomial with frequencies p/q, |p/q| <= scale, q <= 12."""
    coeffs = {}
    while len(coeffs) < n_terms:
        coeffs[rand_fraction(rng, scale, 12)] = rand_coeff(rng)
    return TrigPolynomial(coeffs)


def _stated_sup_error(f: TrigPolynomial) -> float:
    """The float-error bound of the sup_norm_bounds docstring."""
    terms = len(f)
    return math.fsum(
        abs(c) * (4 * abs(float(a)) * 1023 / 16 + 2 * terms + 8) * 2.0**-53
        for a, c in f.coefficients.items()
    )


@pytest.mark.parametrize("scale", [10, 10**4, 10**8])
def test_sup_norm_lower_matches_pointwise_loop(scale):
    rng = random.Random(61 + scale)
    for _ in range(5):
        f = _scaled_trig(rng, scale)
        loop = max(abs(f.evaluate_at(Fraction(k, 16))) for k in range(1024))
        low, high = f.sup_norm_bounds()
        error = _stated_sup_error(f)
        assert high == f.l1_bound()
        # raw sample max within the bound of the loop; lower subtracts it
        assert 0.0 <= loop - low <= 2 * error


def test_sup_norm_bounds_zero_polynomial():
    assert TrigPolynomial().sup_norm_bounds() == (0.0, 0.0)


@pytest.mark.parametrize("scale", [10, 10**4, 10**8, 10**15])
def test_sup_norm_lower_certified_at_60_digits(scale):
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 60
    rng = random.Random(67 + scale)
    for _ in range(3):
        f = _scaled_trig(rng, scale, n_terms=3)
        terms = [
            (ctx.mpc(c.real, c.imag), a.numerator, a.denominator)
            for a, c in f.coefficients.items()
        ]
        # angle p k / (16 q) as an exact integer ratio, reduced at 60 digits
        sample_max = max(
            abs(ctx.fsum(c * ctx.expj(ctx.mpf(p * k) / (16 * q)) for c, p, q in terms))
            for k in range(1024)
        )
        low, _ = f.sup_norm_bounds()
        assert ctx.mpf(low) <= sample_max


def test_sup_norm_bounds_past_the_float_range():
    with pytest.raises(ValueError, match="frequency out of float range"):
        trig_generator(10**400).sup_norm_bounds()
    # the frequency is a float but its sampled angles overflow: lower is 0
    for f in (trig_generator(10**307), constant(1) + trig_generator(-(10**308))):
        low, high = f.sup_norm_bounds()
        assert low == 0.0
        assert high == f.l1_bound()


def test_haar_fourier_coefficients():
    # the Fourier coefficients of the invariant measure: the mean of each character
    assert trig_generator(0).invariant_mean() == 1
    assert trig_generator(1).invariant_mean() == 0
    assert trig_generator(Fraction(-7, 3)).invariant_mean() == 0


def test_mean_vs_quadrature_within_analytic_bound():
    rng = random.Random(59)
    for _ in range(20):
        f = rand_trig(rng, 5)
        approx = mean_quadrature(f, AVERAGE_N)
        assert abs(approx - f.invariant_mean()) <= truncation_bound(f, AVERAGE_N)


def _momentum_data_is_the_mean(lam, probes):
    """<phi_lam, V_a phi_lam> equals the mean of the character u_a, exactly, at each probe."""
    return all(v_direction_matrix_element(a, lam) == trig_generator(a).invariant_mean()
               for a in probes)


def test_fourier_witness_trivial_probe():
    assert v_direction_matrix_element(Fraction(0), 0) == 1
    assert _momentum_data_is_the_mean(0, [Fraction(0)])


def test_fourier_witness_matches_haar():
    probes = [Fraction(1), Fraction(1, 2), Fraction(-3)]
    assert all(v_direction_matrix_element(a, 0) == 0 for a in probes)
    assert _momentum_data_is_the_mean(0, probes)


def test_fourier_witness_random_sweep():
    rng = random.Random(61)
    probes = [rand_fraction(rng, nonzero=True) for _ in range(50)]
    assert _momentum_data_is_the_mean(Fraction(5, 2), probes)
    assert all(v_direction_matrix_element(a, Fraction(5, 2)) == 0 for a in probes)
