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
matrix R of the words' canonical reductions.  The vacuum's value on
W(s)* W(t) splits into a phase per generator, a phase per (a, b) pair of the
basis's distinct values (a read from the first a value) and a Gaussian per
axis, so its Gram matrix is ``C'^H K' C'`` built from exact per-axis tables.
Neither makes a kernel call: :meth:`StateFunctional.kernel` and
``gns.gns_inner`` stay an independent route to check them against.

Positivity is tested, not assumed: finite Gram matrices of the functional
are handed to a dense Hermitian eigensolver and the minimum eigenvalue is
reported (:func:`least_eigenvalue`).  ``R^H R`` is positive semidefinite by
construction, so for a sharp state the ``gns`` suite also checks the
factorisation cell by cell against the kernel route, ``gns.gns_inner``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .algebra import RationalLike, WeylElement, WeylIndex, as_fraction, phase_ratio
from .reps import MOMENTUM, POSITION

# numpy is imported inside the functions that compute with it, so
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

    For the vacuum it is ``C'^H K' C'`` over the distinct generators of the
    basis (:func:`_vacuum_factors`), every phase exact and no kernel call.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("basis must be non-empty")
    if state.kind == VACUUM:
        coeffs, kernel = _vacuum_factors(basis)
        return coeffs.conj().T @ kernel @ coeffs
    reduced = _reduction_matrix(state, basis)
    return reduced.conj().T @ reduced


def _vacuum_factors(basis: list[WeylElement]) -> tuple[np.ndarray, np.ndarray]:
    """C' and K' with the vacuum's Gram matrix ``C'^H K' C'``.

    The vacuum's value on W(s)* W(t) factors as

        e^{i a_s b_s/2} e^{-i a_t b_t/2} e^{i (a_s b_t - a_t b_s)/2}
        e^{-(a_s - a_t)^2/4} e^{-(b_s - b_t)^2/4}.

    The phases of a cell add up to (a_s - a_t)(b_s + b_t)/2, which depends
    on a only through differences, so a may be read from any origin a0; a0
    is the a value the terms reach first.  With P[a, b] = e^{i (a - a0) b/2}
    over the basis's distinct a values times its distinct b values, row s
    of C' is the coefficients of W(s) in the words times conj(P[a_s, b_s]),
    and K'[s, t] = P[a_s, b_t] conj(P[a_t, b_s]) E_a[a_s, a_t] E_b[b_s, b_t]
    with the envelopes of :func:`_envelope`.  Each P[a, b] is one
    ``phase_ratio`` on integers, taken only if a cell with a nonzero
    envelope reads it (else it is 0), so a pair of labels beyond the
    Gaussian's reach costs no phase.  Like the adjoint, this refuses
    (``ValueError``) a phase it takes whose angle (a - a0) b / 2 passes
    2**1023: labels near one another keep their range at every magnitude,
    but the diagonal of W(0, 10**200) after W(10**200, 0) is refused.

    Rows, a values and b values are numbered in the order the terms first
    reach them; C' is filled as a flat list and converted once.  A basis
    with no terms gives 0 x 0 tables, so a zero Gram matrix.
    """
    import numpy as np

    gcd = math.gcd
    width = len(basis)
    empty_row = [0j] * width
    flat: list[complex] = []
    rows: dict[tuple[int, int, int], int] = {}  # label integers -> offset of its row
    a_slot: dict[tuple[int, int], int] = {}  # a in lowest terms -> its index
    b_slot: dict[tuple[int, int], int] = {}
    row_a: list[int] = []
    row_b: list[int] = []
    for j, x in enumerate(basis):
        for label, c in x.terms.items():
            key = (label._pa, label._pb, label._q)
            row = rows.get(key)
            if row is None:
                row = rows[key] = len(flat)
                flat += empty_row
                pa, pb, q = key
                g = gcd(pa, q)
                row_a.append(a_slot.setdefault((pa // g, q // g), len(a_slot)))
                g = gcd(pb, q)
                row_b.append(b_slot.setdefault((pb // g, q // g), len(b_slot)))
            flat[row + j] = c
    a_vals, b_vals = list(a_slot), list(b_slot)
    ia, ib = np.array(row_a, dtype=np.intp), np.array(row_b, dtype=np.intp)
    envelope = _envelope(a_vals)[ia[:, None], ia] * _envelope(b_vals)[ib[:, None], ib]
    needed = np.zeros(len(a_vals) * len(b_vals), dtype=bool)
    needed[(ia[:, None] * len(b_vals) + ib)[envelope != 0]] = True
    phases = [0j] * len(needed)
    n0, d0 = a_vals[0] if a_vals else (0, 1)
    for k in np.flatnonzero(needed).tolist():
        (na, da), (nb, db) = a_vals[k // len(b_vals)], b_vals[k % len(b_vals)]
        phases[k] = phase_ratio((na * d0 - n0 * da) * nb, 2 * da * d0 * db)
    phases = np.array(phases, dtype=complex).reshape(len(a_vals), len(b_vals))
    cross = phases[ia[:, None], ib]  # P[a_s, b_t]
    coeffs = np.array(flat, dtype=complex).reshape(len(rows), width)
    coeffs *= phases[ia, ib].conj()[:, None]
    return coeffs, cross * cross.conj().T * envelope


def _envelope(values: list[tuple[int, int]]) -> np.ndarray:
    """E[i, j] = exp(-(u_i - u_j)^2 / 4) for the rationals u = n/d in ``values``.

    Each square is an exact integer ratio, correctly rounded once; past the
    float range it gives exactly 0, as the vacuum's value does.
    """
    import numpy as np

    k = len(values)
    out = [0.0] * (k * k)
    for i, (n, d) in enumerate(values):
        out[i * k + i] = 1.0
        for j in range(i):
            m, e = values[j]
            num = n * e - m * d
            try:
                value = math.exp(-(num * num / (4 * d * d * e * e)))
            except OverflowError:
                value = 0.0
            out[i * k + j] = out[j * k + i] = value
    return np.array(out).reshape(k, k)


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
    basis = list(basis)
    if not basis:
        raise ValueError("basis must be non-empty")
    if len(basis) > 64:
        raise ValueError("basis too large (limit 64)")
    return least_eigenvalue(gram_matrix(state, basis))


def least_eigenvalue(gram: np.ndarray) -> float:
    """Least eigenvalue of the Hermitian part of a Gram matrix.

    Raises :class:`EigensolverError` if the eigensolver fails.
    """
    import numpy as np

    hermitian = (gram + gram.conj().T) / 2.0
    try:
        eigenvalues = np.linalg.eigvalsh(hermitian)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"Hermitian eigensolver failed: {exc}") from exc
    return float(eigenvalues[0])
