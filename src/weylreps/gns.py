"""Cyclic representations reconstructed from a state functional.

A :class:`GnsVector` is a formal algebra word applied to the cyclic vector;
the geometry is defined by ``<A w, B w> = state(A* B)``.  Only the dense
finitely generated subspace is represented - no completion is taken.  For
the sharp position and momentum states the null-space structure is fully
known, so those vectors also admit an exact canonical reduction onto the
finitely-supported point model, and the two inner products agree to
coefficient roundoff.

The module also packages the two executable obstruction facts:

* :func:`eigenvector_witness` - if the cyclic vector is a sharp eigenvector
  of one unitary family, the diagonal matrix elements of the other family
  vanish identically away from 0, so that family has no self-adjoint
  generator.
* :func:`is_regular_direction` / :func:`regularity_fingerprint` - the
  structural continuity verdict per direction, which separates the three
  built-in states pairwise.

Both read one table, ``states.BROKEN_DIRECTION``: the family in which each
sharp state is broken, the one that translates its point model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .algebra import (
    EXACT_TOL,
    RationalLike,
    WeylElement,
    as_fraction,
    generator,
    identity,
    phase,
)
from .reps import (
    MOMENTUM,
    POSITION,
    FiniteSupportVector,
    apply_element,
    apply_U,
    apply_V,
    basis_vector,
    inner,
)
from .states import (BROKEN_DIRECTION, U_DIRECTION, V_DIRECTION, StateFunctional,
                     position_state)

#: default probe parameters for witnesses and scans
DEFAULT_PROBES: Tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(3),
    Fraction(-7, 3),
    Fraction(1, 10**6),
)


class OwnerMismatchError(ValueError):
    """Vectors built over different states are not comparable."""


@dataclass(frozen=True)
class GnsVector:
    """Formal word applied to the cyclic vector of ``owner``."""

    word: WeylElement
    owner: StateFunctional

    def _check_owner(self, other: "GnsVector") -> None:
        if self.owner != other.owner:
            raise OwnerMismatchError(
                f"vectors owned by {self.owner!r} and {other.owner!r}"
            )

    def __add__(self, other: "GnsVector") -> "GnsVector":
        if not isinstance(other, GnsVector):
            return NotImplemented
        self._check_owner(other)
        return GnsVector(self.word + other.word, self.owner)

    def __sub__(self, other: "GnsVector") -> "GnsVector":
        if not isinstance(other, GnsVector):
            return NotImplemented
        self._check_owner(other)
        return GnsVector(self.word - other.word, self.owner)

    def __mul__(self, other) -> "GnsVector":
        if isinstance(other, (int, float, complex)):
            return GnsVector(self.word * other, self.owner)
        return NotImplemented

    __rmul__ = __mul__


def cyclic_vector(state: StateFunctional) -> GnsVector:
    """The distinguished unit vector represented by the identity word."""
    return GnsVector(identity(), state)


def gns_inner(u: GnsVector, v: GnsVector) -> complex:
    """<u, v> = owner(u.word.adjoint() * v.word), conjugate-linear in u.

    Summed without building the product: for u.word = sum_s c_s W(s) and
    v.word = sum_t d_t W(t) it is sum_{s,t} conj(c_s) d_t K(s, t), over the
    generator kernel K(s, t) = owner(W(s)* W(t)) of
    :meth:`StateFunctional.kernel`.  ``gram_matrix`` factors the same
    cells another way, so the two routes check each other.
    """
    u._check_owner(v)
    kernel = v.owner.kernel
    right = v.word.terms.items()
    total = 0j
    for s, c in u.word.terms.items():
        c = c.conjugate()
        for t, d in right:
            value = kernel(s, t)
            if value:
                total += c * d * value
    return total


def _squared_norm(v: GnsVector) -> float:
    """Re <v, v>, summed once per unordered pair of terms.

    K(t, s) = conj K(s, t), so the pair (s, t) and its mirror add up to
    2 Re(conj(c_s) c_t K(s, t)): n(n + 1)/2 kernel calls for n terms where
    ``gns_inner(v, v)`` makes n^2.
    """
    kernel = v.owner.kernel
    terms = list(v.word.terms.items())
    total = 0.0
    for i, (s, c) in enumerate(terms):
        conj = c.conjugate()
        pairs = 0j
        for t, d in terms[i + 1:]:
            value = kernel(s, t)
            if value:
                pairs += conj * d * value
        total += (conj * c * kernel(s, s)).real + 2.0 * pairs.real
    return total


def gns_norm(v: GnsVector) -> float:
    """Norm from the state; tiny negative roundoff is clamped to zero."""
    return math.sqrt(max(_squared_norm(v), 0.0))


def gns_apply(x: WeylElement, v: GnsVector) -> GnsVector:
    """Represented action: the word is left-multiplied by ``x``."""
    return GnsVector(x * v.word, v.owner)


def is_null(v: GnsVector) -> bool:
    """Null-vector test.

    For the vacuum the squared norm must fall below 1e-12.  For sharp
    position/momentum states the canonical reduction is exact (unit phases
    cancel bit-for-bit on equal keys), so nullity means an empty reduction.
    """
    reduced = _reduction(v)
    if reduced is None:
        return _squared_norm(v) < 1e-12
    return not reduced


def _reduction(v: GnsVector) -> Optional[FiniteSupportVector]:
    """Canonical reduction over a sharp state; None over the vacuum.

    The reducers are looked up as module globals on each call, so a wrapper
    bound to ``gns.reduce_position`` or ``gns.reduce_momentum`` sees it.
    """
    kind = v.owner.kind
    if kind == POSITION:
        return reduce_position(v)
    if kind == MOMENTUM:
        return reduce_momentum(v)
    return None


def reduce_position(v: GnsVector) -> FiniteSupportVector:
    """Canonical form of a vector over a sharp-position state.

    Each term c*W(a, b) of the word contributes ``c * exp(i a (lam - b))``
    at translation key ``b`` of a position-flavor vector; the reduction is
    isometric for gns_inner.
    """
    if v.owner.kind != POSITION:
        raise ValueError(f"owner is {v.owner.kind}, needs a position state")
    return _reduce(v)


def reduce_momentum(v: GnsVector) -> FiniteSupportVector:
    """Mirror reduction: c*W(a, b) contributes c * exp(i b mu) at key a of a
    momentum-flavor vector."""
    if v.owner.kind != MOMENTUM:
        raise ValueError(f"owner is {v.owner.kind}, needs a momentum state")
    return _reduce(v)


def _reduce(v: GnsVector) -> FiniteSupportVector:
    """Sum the terms on the owner's point model (``StateFunctional._point``),
    as a vector of the owner's flavor."""
    point = v.owner._point
    out: dict[Fraction, complex] = {}
    for index, c in v.word.terms.items():
        n, d, amplitude = point(index._pa, index._pb, index._q)
        key = Fraction(n, d)
        out[key] = out.get(key, 0j) + c * amplitude
    return FiniteSupportVector(out, v.owner.kind)


def _direction(direction: str) -> str:
    direction = direction.upper()
    if direction not in (U_DIRECTION, V_DIRECTION):
        raise ValueError(f"direction must be 'U' or 'V', got {direction!r}")
    return direction


def _family_generator(direction: str, t: Fraction) -> WeylElement:
    return generator(t, 0) if direction == U_DIRECTION else generator(0, t)


def continuity_scan(
    state: StateFunctional,
    direction: str,
    grid: Sequence[RationalLike],
) -> list[Tuple[Fraction, complex]]:
    """Diagonal matrix elements t -> <cyclic, G_t cyclic> along one family."""
    direction = _direction(direction)
    if not grid:
        raise ValueError("grid must be non-empty")
    points = [as_fraction(t) for t in grid]
    return [(t, state(_family_generator(direction, t))) for t in points]


def is_regular_direction(state: StateFunctional, direction: str) -> bool:
    """Structural continuity verdict for one unitary family.

    A direction is regular exactly when the diagonal values do not collapse
    to the indicator of 0.  The sharp states collapse along the family in
    ``states.BROKEN_DIRECTION`` (V for position, U for momentum); the
    Gaussian vacuum is in no row of it and is continuous in both.
    """
    return BROKEN_DIRECTION.get(state.kind) != _direction(direction)


def regularity_fingerprint(state: StateFunctional) -> Tuple[bool, bool]:
    """(U regular, V regular), read from ``states.BROKEN_DIRECTION``;
    distinct per built-in state kind."""
    return is_regular_direction(state, U_DIRECTION), is_regular_direction(state, V_DIRECTION)


@dataclass(frozen=True)
class EigenvectorWitness:
    """Executable record that a sharp eigenvector kills the other family;
    every field depends on the state (the algebra's identities do not).

    ``eigen_deviation``        max distance of G_t(cyclic) from its phase
                               multiple over the probe set, measured in the
                               exact canonical reduction (expected 0.0: the
                               two unit phases cancel bit-for-bit).
    ``gram_residual``          the same distance squared through the Gram
                               route state(d* d); pure coefficient roundoff.
    ``chain_deviation``        the proof's conjugation chain over probe pairs,
                               as matrix elements on the state's point model,
                               against the phase times the diagonal element -
                               consistent only because the latter vanishes.
    ``broken_elements``        continuity scan of the broken family, which
                               must be exactly 0 away from parameter 0.
    """

    state: StateFunctional
    eigen_deviation: float
    gram_residual: float
    chain_deviation: float
    broken_elements: Tuple[Tuple[Fraction, complex], ...]

    @property
    def vanishing_exact(self) -> bool:
        return all(value == 0 for t, value in self.broken_elements if t != 0)

    @property
    def passed(self) -> bool:
        return (
            self.eigen_deviation < EXACT_TOL
            and self.gram_residual < EXACT_TOL
            and self.chain_deviation < EXACT_TOL
            and self.vanishing_exact
        )


def eigenvector_witness(
    state: StateFunctional,
    probes: Optional[Sequence[RationalLike]] = None,
) -> EigenvectorWitness:
    """Verify the eigenvector obstruction for a sharp position/momentum state.

    The cyclic vector is an eigenvector of the regular family, and the
    family in ``states.BROKEN_DIRECTION`` is scanned.
    """
    broken = BROKEN_DIRECTION.get(state.kind)
    if broken is None:
        raise ValueError("witness applies to position or momentum states only")
    regular = U_DIRECTION if broken == V_DIRECTION else V_DIRECTION
    probe_list = [as_fraction(t) for t in (probes if probes else DEFAULT_PROBES)]
    kappa = state.parameter
    omega = cyclic_vector(state)

    eigen_dev = gram_residual = 0.0
    for t in probe_list:
        shifted = gns_apply(_family_generator(regular, t), omega) - phase(t * kappa) * omega
        eigen_dev = max(eigen_dev, _reduction(shifted).norm())
        gram_residual = max(gram_residual, abs(_squared_norm(shifted)))

    chain_dev = 0.0
    model_phi = basis_vector(kappa, state.kind)
    for a in probe_list:
        for b in probe_list:
            chain_dev = max(chain_dev, _chain_gap(model_phi, a, b))

    return EigenvectorWitness(
        state=state,
        eigen_deviation=eigen_dev,
        gram_residual=gram_residual,
        chain_deviation=chain_dev,
        broken_elements=tuple(continuity_scan(state, broken, probe_list)),
    )


def _chain_gap(phi: FiniteSupportVector, s: Fraction, t: Fraction) -> float:
    """|<phi, P_-s T_t P_s phi> - exp(ist) <phi, T_t phi>| in phi's flavor.

    P is the flavor's phase family and T its translating family: U and V in
    the position flavor, V and U in the momentum flavor.
    """
    phased, translate = (apply_U, apply_V) if phi.flavor == POSITION else (apply_V, apply_U)
    lhs = inner(phi, phased(-s, translate(t, phased(s, phi))))
    return abs(lhs - phase(s * t) * inner(phi, translate(t, phi)))


def equivalence_check(lam: RationalLike, words: Sequence[WeylElement]) -> float:
    """Max deviation between the word geometry and the point model.

    For every pair of words, compares ``gns_inner`` over the sharp-position
    state with the finitely-supported inner product of the words applied to
    the basis vector at the same point.  Zero (to roundoff) witnesses that
    the two constructions are the same representation.
    """
    words = list(words)
    if not words:
        raise ValueError("words must be non-empty")
    lam = as_fraction(lam)
    state = position_state(lam)
    omega = cyclic_vector(state)
    phi = basis_vector(lam, POSITION)
    gns_side = [gns_apply(w, omega) for w in words]
    model_side = [apply_element(w, phi) for w in words]
    deviation = 0.0
    for i in range(len(words)):
        for j in range(len(words)):
            lhs = gns_inner(gns_side[i], gns_side[j])
            rhs = inner(model_side[i], model_side[j])
            deviation = max(deviation, abs(lhs - rhs))
    return deviation
