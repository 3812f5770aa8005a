"""Trigonometric polynomials with exact rational frequencies.

A polynomial is a finite map frequency -> complex coefficient standing for
``f(x) = sum_j c_j exp(i a_j x)``.  Multiplication convolves frequency
supports, conjugation negates them, and the translation-invariant mean is
literally the coefficient at frequency 0 - which makes translation
invariance and positivity of the mean exact statements rather than limits.

The same frequency-0 functional returns as ``haar_fourier``: the Fourier
coefficients of the normalised invariant measure on the character
compactification of the line.  :func:`momentum_fourier_witness` checks that
the translation family's diagonal matrix elements in a sharp-position basis
vector reproduce exactly those coefficients; all spectral weight of the
momentum data then sits at infinity, which is the computable face of "no
real momentum value coexists with a point position".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence, Tuple

from .algebra import RationalLike, SparseMap, as_float, as_fraction, phase
from .reps import v_direction_matrix_element


class TrigPolynomial(SparseMap):
    """Finite complex combination of characters exp(i a x), a rational;
    a number added or subtracted acts as a constant."""

    __slots__ = ()

    @property
    def coefficients(self) -> Mapping[Fraction, complex]:
        return MappingProxyType(self._data)

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = constant(other)
        return SparseMap.__add__(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, TrigPolynomial):
            return SparseMap.__mul__(self, other)
        out: dict[Fraction, complex] = {}
        for f1, c1 in self._data.items():
            for f2, c2 in other._data.items():
                freq = f1 + f2
                out[freq] = out.get(freq, 0j) + c1 * c2
        return self._new(out)

    def conjugate(self) -> "TrigPolynomial":
        """Star operation: frequencies flip sign, coefficients conjugate."""
        return self._new({-f: c.conjugate() for f, c in self._data.items()})

    def translate(self, t: RationalLike) -> "TrigPolynomial":
        """f(. + t): each coefficient picks up the phase exp(i a t)."""
        t = as_fraction(t)
        return self._new({f: c * phase(f * t) for f, c in self._data.items()})

    def evaluate_at(self, x: RationalLike) -> complex:
        """Pointwise value; a multiplicative functional on the algebra."""
        x = as_fraction(x)
        return sum((c * phase(f * x) for f, c in self._data.items()), 0j)

    def invariant_mean(self) -> complex:
        """The frequency-0 coefficient: exact value of the symmetric-average limit."""
        return self._data.get(Fraction(0), 0j)

    def sup_norm_bounds(self) -> Tuple[float, float]:
        """(lower, upper) certified bracket for the sup norm.

        Upper is the coefficient l1 sum.  Lower is the max modulus over the
        fixed 1024-point sample k/16, k = 0..1023, computed in one numpy
        pass over the angles theta_kj = (k/16) float(a_j), minus the
        float-error bound

            sum_j |c_j| (4 max_k |theta_kj| + 2 terms + 8) 2**-53

        and clamped at 0.  The angle term covers the rounding of a_j and of
        the product (at most 2 |theta| 2**-53 each); the rest covers exp,
        the coefficient product, the sum over the terms and the modulus.
        So lower <= sup <= upper at every label scale; once the angle term
        reaches the l1 sum, lower is 0, and so it is where an angle passes
        the float range.  A frequency past the float range raises
        ``ValueError``.
        """
        upper = self.l1_bound()
        if not self._data:
            return 0.0, upper
        import numpy as np

        coeffs = np.array(list(self._data.values()))
        freqs = [as_float(f, "frequency") for f in self._data]
        with np.errstate(over="ignore", invalid="ignore"):
            theta = np.outer(np.arange(1024) / 16.0, freqs)
            values = (np.exp(1j * theta) * coeffs).sum(axis=1)
            slack = 4.0 * np.abs(theta[-1]) + 2 * len(coeffs) + 8
            error = float((np.abs(coeffs) * slack).sum()) * 2.0**-53
        lower = float(np.abs(values).max()) - error
        # an infinite angle makes lower nan, which the clamp also sends to 0
        return (lower if lower > 0 else 0.0), upper


def trig_generator(a: RationalLike) -> TrigPolynomial:
    """The character u_a(x) = exp(i a x)."""
    return TrigPolynomial({as_fraction(a): 1.0 + 0j})


def constant(c) -> TrigPolynomial:
    return TrigPolynomial({Fraction(0): c})


def haar_fourier(a: RationalLike) -> complex:
    """Fourier coefficient of the invariant measure: 1 at frequency 0, else 0."""
    return (1.0 + 0j) if as_fraction(a) == 0 else 0j


@dataclass(frozen=True)
class FourierWitness:
    """Per-probe comparison of momentum spectral data with the mean's."""

    point: Fraction
    rows: Tuple[Tuple[Fraction, complex, complex], ...]  # (probe, measured, mean)

    @property
    def passed(self) -> bool:
        return all(measured == expected for _, measured, expected in self.rows)


def momentum_fourier_witness(
    lam: RationalLike, probes: Sequence[RationalLike]
) -> FourierWitness:
    """Fourier data of the translation family in a sharp-position vector.

    For each probe ``a`` the diagonal element ``<phi_lam, V_a phi_lam>`` is
    computed in the point model and compared, exactly, against
    :func:`haar_fourier`.  Agreement means the induced spectral measure has
    the Fourier coefficients of the invariant measure, whose entire weight
    lies off the real line.
    """
    probes = [as_fraction(a) for a in probes]
    if not probes:
        raise ValueError("probes must be non-empty")
    lam = as_fraction(lam)
    rows = tuple(
        (a, v_direction_matrix_element(a, lam), haar_fourier(a)) for a in probes
    )
    return FourierWitness(point=lam, rows=rows)
