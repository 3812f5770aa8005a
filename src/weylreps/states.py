"""State functionals on the exponentiated-pair algebra.

Three built-in kinds:

* ``position(lam)``  - value ``exp(i a lam)`` on W(a, 0), exactly 0 on any
  generator with a nonzero translation part.  The vanishing is an exact
  rational support test, not a numeric limit; it is the algebraic shadow of
  the broken continuity in the sharp-position representation.
* ``momentum(mu)``   - the mirror: ``exp(i b mu)`` on W(0, b), 0 when a != 0.
* ``vacuum``         - the Gaussian vector state
  ``exp(-i a b / 2) * exp(-(a^2 + b^2) / 4)``, continuous in both directions.
  The formula is cross-checked against the grid quadrature oracle.

Positivity is tested, not assumed: finite Gram matrices of the functional
are handed to a dense Hermitian eigensolver and the minimum eigenvalue is
reported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .algebra import RationalLike, WeylElement, WeylIndex, as_fraction, phase_ratio
from .reps import MOMENTUM, POSITION

# numpy is imported inside the two functions that compute with it, so
# evaluating a state does not load it.
if TYPE_CHECKING:
    import numpy as np

VACUUM = "vacuum"
KINDS = (POSITION, MOMENTUM, VACUUM)

U_DIRECTION = "U"
V_DIRECTION = "V"
#: the family each sharp kind breaks, the one translating its point model
BROKEN_DIRECTION = {POSITION: V_DIRECTION, MOMENTUM: U_DIRECTION}


class EigensolverError(RuntimeError):
    """Eigenvalue iteration failed; distinct from a negative verdict."""


@dataclass(frozen=True)
class StateFunctional:
    """Positive normalised linear functional on the generator algebra."""

    kind: str
    parameter: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown state kind: {self.kind!r}")
        if self.kind == VACUUM and self.parameter is not None:
            raise ValueError("the vacuum state takes no parameter")
        if self.kind != VACUUM and self.parameter is None:
            raise ValueError(f"{self.kind} state needs a rational parameter")

    def generator_value(self, a: RationalLike, b: RationalLike) -> complex:
        """Value on the single generator W(a, b)."""
        a, b = as_fraction(a), as_fraction(b)
        return self._lattice_value(a.numerator * b.denominator, b.numerator * a.denominator,
                                   a.denominator * b.denominator)

    def _lattice_value(self, pa: int, pb: int, q: int) -> complex:
        """Value on W(pa/q, pb/q), for q > 0 and any common factor of the three.

        The sharp states' zeros are decided exactly on the integers, and
        every float is a correctly rounded quotient, so the value does not
        depend on the common factor.
        """
        if self.kind == POSITION:
            if pb == 0:
                lam = self.parameter
                return phase_ratio(pa * lam.numerator, q * lam.denominator)
            return 0j
        if self.kind == MOMENTUM:
            if pa == 0:
                mu = self.parameter
                return phase_ratio(pb * mu.numerator, q * mu.denominator)
            return 0j
        # vacuum: normal-ordering phase times the Gaussian envelope, which
        # damps the float angle's error to (|ab|/2) 2**-53 e^{-(a^2+b^2)/4}
        # <= 2**-53/e, and is exactly 0 past the float range of a^2 + b^2
        qq = q * q
        try:
            return cmath.exp(complex(-((pa * pa + pb * pb) / qq) / 4.0, -((pa * pb) / qq) / 2.0))
        except OverflowError:
            return 0j

    def kernel(self, s: WeylIndex, t: WeylIndex) -> complex:
        """state(W(s)* W(t)) for the generator labels s and t.

        From the adjoint rule and the product rule,

            W(s)* W(t) = exp(i (a_s - a_t) b_s) W(t - s)

        so this is one phase times one generator value, both on the labels'
        integers over a common denominator.  The phase is taken only where
        the value is nonzero, so a sharp state's zeros are decided exactly.
        """
        qs, qt = s._q, t._q
        if qs == qt:
            q, da, db = qs, t._pa - s._pa, t._pb - s._pb
        else:
            g = math.gcd(qs, qt)
            ms, mt = qt // g, qs // g
            q, da, db = qs * ms, t._pa * mt - s._pa * ms, t._pb * mt - s._pb * ms
        value = self._lattice_value(da, db, q)
        if value:
            return phase_ratio(-da * s._pb, q * qs) * value
        return value

    def __call__(self, element: WeylElement) -> complex:
        """Linear extension of the generator rule."""
        value = self._lattice_value
        total = 0j
        for index, coeff in element.terms.items():
            total += coeff * value(index._pa, index._pb, index._q)
        return total

    def __repr__(self) -> str:
        if self.kind == VACUUM:
            return "StateFunctional(vacuum)"
        return f"StateFunctional({self.kind}, {self.parameter})"


def position_state(lam: RationalLike) -> StateFunctional:
    return StateFunctional(POSITION, as_fraction(lam))


def momentum_state(mu: RationalLike) -> StateFunctional:
    return StateFunctional(MOMENTUM, as_fraction(mu))


def vacuum_state() -> StateFunctional:
    return StateFunctional(VACUUM)


def gram_matrix(
    state: StateFunctional, basis: Sequence[WeylElement]
) -> np.ndarray:
    """Matrix of state(x_i* x_j); Hermitian up to coefficient roundoff.

    Computed as ``C^H K C`` over the L distinct generators s = (a_s, b_s)
    of the basis: C is the L x n coefficient matrix and K the generator
    kernel ``K[s, t] = state(W(s)* W(t))`` of :meth:`StateFunctional.kernel`.
    Only the upper triangle is evaluated; the lower is its conjugate.  For
    a sharp state, cells between words it cannot connect come out exactly 0.
    """
    import numpy as np

    basis = list(basis)
    if not basis:
        raise ValueError("basis must be non-empty")
    labels = sorted({index for x in basis for index in x.terms})
    slot = {label: k for k, label in enumerate(labels)}
    coeffs = np.zeros((len(labels), len(basis)), dtype=complex)
    for j, x in enumerate(basis):
        for index, c in x.terms.items():
            coeffs[slot[index], j] = c
    kernel = np.zeros((len(labels), len(labels)), dtype=complex)
    for s, label in enumerate(labels):
        for t in range(s, len(labels)):
            value = state.kernel(label, labels[t])
            if value:
                kernel[s, t] = value
                kernel[t, s] = value.conjugate()
    return coeffs.conj().T @ kernel @ coeffs


def check_positivity(state: StateFunctional, basis: Sequence[WeylElement]) -> float:
    """Minimum eigenvalue of the Gram matrix.

    For a valid state it is at least ``weylreps.verify.PSD_FLOOR``, the
    floor that the ``gns`` suite and the acceptance tests check.

    Raises :class:`EigensolverError` if the eigensolver fails, so a broken
    iteration is never reported as a negative eigenvalue.
    """
    import numpy as np

    basis = list(basis)
    if not basis:
        raise ValueError("basis must be non-empty")
    if len(basis) > 64:
        raise ValueError("basis too large (limit 64)")
    g = gram_matrix(state, basis)
    hermitian = (g + g.conj().T) / 2.0
    try:
        eigenvalues = np.linalg.eigvalsh(hermitian)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"Hermitian eigensolver failed: {exc}") from exc
    return float(eigenvalues[0])
