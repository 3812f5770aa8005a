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

A sharp state has a point model: W(a, b) applied to its cyclic vector is a
unit phase times one point vector, at b for position and at a for momentum
(:meth:`StateFunctional._point`).  So its Gram matrix is ``R^H R`` for the
matrix R of the words' canonical reductions, and the vacuum's is ``C^H K C``
over the generator kernel.

Positivity is tested, not assumed: finite Gram matrices of the functional
are handed to a dense Hermitian eigensolver and the minimum eigenvalue is
reported.  ``R^H R`` is positive semidefinite by construction, so for a
sharp state the ``gns`` suite also checks the factorisation cell by cell
against the kernel route, ``gns.gns_inner``.
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

    def _point(self, pa: int, pb: int, q: int) -> tuple[int, int, complex]:
        """W(pa/q, pb/q) applied to a sharp state's cyclic vector, on its point
        model: the point n/d in lowest terms and the unit amplitude there.

        Position(lam) puts it at b with amplitude exp(i a (lam - b)), momentum(mu)
        at a with amplitude exp(i b mu).  The angle goes to ``phase_ratio``
        unreduced, which equals the phase of the ``Fraction`` angle bit for bit.
        The map is isometric: state(W(s)* W(t)) is the conjugate amplitude of s
        times that of t where the points agree, and 0 where they do not.
        """
        if self.kind == POSITION:
            lam = self.parameter
            ln, ld = lam.numerator, lam.denominator
            n, amplitude = pb, phase_ratio(pa * (ln * q - pb * ld), q * q * ld)
        elif self.kind == MOMENTUM:
            mu = self.parameter
            n, amplitude = pa, phase_ratio(pb * mu.numerator, q * mu.denominator)
        else:
            raise ValueError("the vacuum has no point model")
        g = math.gcd(n, q)
        return n // g, q // g, amplitude

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

    For a sharp state it is ``R^H R``: row k of R is one point of the state's
    point model, and column j the canonical reduction of x_j there (one
    :meth:`StateFunctional._point` per distinct label, no kernel call).
    Words whose reductions share no point get an exactly 0 cell.

    For the vacuum it is ``C^H K C`` over the L distinct generators
    s = (a_s, b_s) of the basis: C is the L x n coefficient matrix and K the
    generator kernel ``K[s, t] = state(W(s)* W(t))`` of
    :meth:`StateFunctional.kernel`, evaluated on the upper triangle only;
    the lower is its conjugate.
    """
    import numpy as np

    basis = list(basis)
    if not basis:
        raise ValueError("basis must be non-empty")
    if state.kind != VACUUM:
        reduced = _reduction_matrix(state, basis)
        return reduced.conj().T @ reduced
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


def _reduction_matrix(state: StateFunctional, basis: list[WeylElement]) -> np.ndarray:
    """R[k, j]: the canonical reduction of basis[j] at the k-th point reached.

    Rows are numbered in the order the terms first reach their point; terms
    of one word at one point are summed in term order, from 0.  R is filled
    as a flat list, one row appended per new point, and converted once.
    """
    import numpy as np

    point = state._point
    width = len(basis)
    empty_row = [0j] * width
    flat: list[complex] = []
    rows: dict[tuple[int, int], int] = {}  # point -> offset of its row in flat
    # label integers -> (offset of its row, amplitude): one phase per label
    seen: dict[tuple[int, int, int], tuple[int, complex]] = {}
    for j, x in enumerate(basis):
        for label, c in x.terms.items():
            key = (label._pa, label._pb, label._q)
            hit = seen.get(key)
            if hit is None:
                n, d, amplitude = point(*key)
                row = rows.get((n, d))
                if row is None:
                    row = rows[n, d] = len(flat)
                    flat += empty_row
                hit = seen[key] = (row, amplitude)
            flat[hit[0] + j] += c * hit[1]
    return np.array(flat, dtype=complex).reshape(len(rows), width)


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
