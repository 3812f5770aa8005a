"""Independent high-precision references the benchmark checks outputs against.

Angles are exact rationals.  Each is reduced modulo 2*pi in mpmath at a
working precision of 64 bits beyond the angle's magnitude, so the reduced
angle is exact to about 1e-19 however large the labels are.  Only the final
cos/sin values are rounded to double.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np


def exact_unit(theta: Fraction, log_modulus: Fraction = Fraction(0)) -> complex:
    """exp(-log_modulus) * exp(i*theta), with theta reduced mod 2*pi exactly."""
    p, q = theta.numerator, theta.denominator
    prec = 64 + max(p.bit_length() - q.bit_length(), 0)
    with mpmath.workprec(prec):
        x = mpmath.mpf(p) / q
        two_pi = 2 * mpmath.pi
        r = x - mpmath.nint(x / two_pi) * two_pi
        scale = mpmath.exp(-mpmath.mpf(log_modulus.numerator) / log_modulus.denominator)
        return complex(float(scale * mpmath.cos(r)), float(scale * mpmath.sin(r)))


def pair_value(kind: str, parameter, s, t) -> complex:
    """state(W(s)* W(t)) for generators s = (a1, b1), t = (a2, b2).

    W(s)* = exp(i a1 b1) W(-a1, -b1), and W(-a1, -b1) W(a2, b2) =
    exp(-i a2 b1) W(a2 - a1, b2 - b1); the state then contributes its own
    value on that generator (exactly 0 off its support for sharp states).
    """
    (a1, b1), (a2, b2) = s, t
    da, db = a2 - a1, b2 - b1
    theta = a1 * b1 - a2 * b1
    if kind == "position":
        return exact_unit(theta + da * parameter) if db == 0 else 0j
    if kind == "momentum":
        return exact_unit(theta + db * parameter) if da == 0 else 0j
    return exact_unit(theta - da * db / 2, (da * da + db * db) / 4)


def gram_reference(kind: str, parameter, words) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix C^H K C over the distinct generators of ``words``, and its weights.

    ``words`` is a list of term lists ``[(a, b, coeff), ...]``.  K holds the
    exact pair values; C the word coefficients.  Each cell sums at most
    (terms per word)^2 nonzero double products of modulus <= 2, so its
    rounding error stays below 1e-14, a hundredth of the 1e-12 budget.

    The weights |C|^T S |C|, with S the support of K, bound how far a cell
    can move when every nonzero term's phase is off by at most 1.
    """
    labels = sorted({(a, b) for word in words for a, b, _ in word})
    slot = {label: k for k, label in enumerate(labels)}
    kernel = np.array([[pair_value(kind, parameter, s, t) for t in labels] for s in labels])
    coeffs = np.zeros((len(labels), len(words)), dtype=complex)
    for j, word in enumerate(words):
        for a, b, c in word:
            coeffs[slot[(a, b)], j] += c
    weights = np.abs(coeffs).T @ (kernel != 0) @ np.abs(coeffs)
    return coeffs.conj().T @ kernel @ coeffs, weights
