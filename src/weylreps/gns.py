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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .algebra import (
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
from .states import VACUUM, StateFunctional

U_DIRECTION = "U"
V_DIRECTION = "V"

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
    """<u, v> = owner(adjoint(u.word) * v.word), conjugate-linear in u."""
    u._check_owner(v)
    return v.owner(u.word.adjoint() * v.word)


def gns_norm(v: GnsVector) -> float:
    """Norm from the state; tiny negative roundoff is clamped to zero."""
    return math.sqrt(max(gns_inner(v, v).real, 0.0))


def gns_apply(x: WeylElement, v: GnsVector) -> GnsVector:
    """Represented action: the word is left-multiplied by ``x``."""
    return GnsVector(x * v.word, v.owner)


def is_null(v: GnsVector) -> bool:
    """Null-vector test.

    For the vacuum the squared norm must fall below 1e-12.  For sharp
    position/momentum states the canonical reduction is exact (unit phases
    cancel bit-for-bit on equal keys), so nullity means an empty reduction.
    """
    if v.owner.kind == VACUUM:
        return gns_inner(v, v).real < 1e-12
    reduced = reduce_position(v) if v.owner.kind == POSITION else reduce_momentum(v)
    return not reduced


def reduce_position(v: GnsVector) -> FiniteSupportVector:
    """Canonical form of a vector over a sharp-position state.

    Each term c*W(a, b) of the word contributes ``c * exp(i a (lam - b))``
    at translation key ``b`` of a position-flavor vector; the reduction is
    isometric for gns_inner.
    """
    if v.owner.kind != POSITION:
        raise ValueError(f"owner is {v.owner.kind}, needs a position state")
    lam = v.owner.parameter
    out: dict[Fraction, complex] = {}
    for (a, b), c in v.word.terms.items():
        out[b] = out.get(b, 0j) + c * phase(a * (lam - b))
    return FiniteSupportVector(out, POSITION)


def reduce_momentum(v: GnsVector) -> FiniteSupportVector:
    """Mirror reduction: c*W(a, b) contributes c * exp(i b mu) at key a of a
    momentum-flavor vector."""
    if v.owner.kind != MOMENTUM:
        raise ValueError(f"owner is {v.owner.kind}, needs a momentum state")
    mu = v.owner.parameter
    out: dict[Fraction, complex] = {}
    for (a, b), c in v.word.terms.items():
        out[a] = out.get(a, 0j) + c * phase(b * mu)
    return FiniteSupportVector(out, MOMENTUM)


def continuity_scan(
    state: StateFunctional,
    direction: str,
    grid: Sequence[RationalLike],
) -> list[Tuple[Fraction, complex]]:
    """Diagonal matrix elements t -> <cyclic, G_t cyclic> along one family."""
    direction = direction.upper()
    if direction not in (U_DIRECTION, V_DIRECTION):
        raise ValueError(f"direction must be 'U' or 'V', got {direction!r}")
    if not grid:
        raise ValueError("grid must be non-empty")
    rows = []
    for t in grid:
        t = as_fraction(t)
        element = generator(t, 0) if direction == U_DIRECTION else generator(0, t)
        rows.append((t, state(element)))
    return rows


def is_regular_direction(state: StateFunctional, direction: str) -> bool:
    """Structural continuity verdict for one unitary family.

    Decided from the exact generator-value rules: a direction is regular
    exactly when the diagonal values do not collapse to the indicator of 0.
    Sharp position kills the V family and sharp momentum the U family; the
    Gaussian vacuum is continuous in both.
    """
    direction = direction.upper()
    if direction not in (U_DIRECTION, V_DIRECTION):
        raise ValueError(f"direction must be 'U' or 'V', got {direction!r}")
    if state.kind == POSITION:
        return direction == U_DIRECTION
    if state.kind == MOMENTUM:
        return direction == V_DIRECTION
    return True


def regularity_fingerprint(state: StateFunctional) -> Tuple[bool, bool]:
    """(U regular, V regular); distinct per built-in state kind."""
    return (
        is_regular_direction(state, U_DIRECTION),
        is_regular_direction(state, V_DIRECTION),
    )


@dataclass(frozen=True)
class EigenvectorWitness:
    """Executable record that a sharp eigenvector kills the other family.

    ``eigen_deviation``        max distance of G_t(cyclic) from its phase
                               multiple over the probe set, measured in the
                               exact canonical reduction (expected 0.0: the
                               two unit phases cancel bit-for-bit).
    ``gram_residual``          the same distance squared through the Gram
                               route state(d* d); pure coefficient roundoff.
    ``conjugation_deviation``  max coefficient deviation of the algebra
                               identities V_-b U_a V_b = exp(-iab) U_a and
                               U_-a V_b U_a = exp(iab) V_b over probe pairs.
    ``chain_deviation``        the same conjugation chain evaluated as matrix
                               elements on the explicit point model, compared
                               against the phase times the diagonal element -
                               consistent only because the latter vanishes.
    ``broken_elements``        diagonal elements of the broken family, which
                               must be exactly 0 away from parameter 0.
    """

    state: StateFunctional
    eigen_deviation: float
    gram_residual: float
    conjugation_deviation: float
    chain_deviation: float
    broken_elements: Tuple[Tuple[Fraction, complex], ...]

    @property
    def vanishing_exact(self) -> bool:
        return all(value == 0 for t, value in self.broken_elements if t != 0)

    @property
    def passed(self) -> bool:
        return (
            self.eigen_deviation < 1e-12
            and self.gram_residual < 1e-12
            and self.conjugation_deviation < 1e-12
            and self.chain_deviation < 1e-12
            and self.vanishing_exact
        )


def eigenvector_witness(
    state: StateFunctional,
    probes: Optional[Sequence[RationalLike]] = None,
) -> EigenvectorWitness:
    """Verify the eigenvector obstruction for a sharp position/momentum state."""
    if state.kind not in (POSITION, MOMENTUM):
        raise ValueError("witness applies to position or momentum states only")
    probe_list = [as_fraction(t) for t in (probes if probes else DEFAULT_PROBES)]
    kappa = state.parameter
    omega = cyclic_vector(state)
    is_position = state.kind == POSITION

    reduce = reduce_position if is_position else reduce_momentum
    eigen_dev = 0.0
    gram_residual = 0.0
    for t in probe_list:
        gen = generator(t, 0) if is_position else generator(0, t)
        shifted = gns_apply(gen, omega) - phase(t * kappa) * omega
        eigen_dev = max(eigen_dev, reduce(shifted).norm())
        gram_residual = max(gram_residual, abs(gns_inner(shifted, shifted)))

    conj_dev = 0.0
    chain_dev = 0.0
    model_phi = basis_vector(kappa, state.kind)
    for a in probe_list:
        for b in probe_list:
            # representation-independent conjugation identities
            left = generator(0, -b) * generator(a, 0) * generator(0, b)
            conj_dev = max(
                conj_dev, (left - phase(-a * b) * generator(a, 0)).max_coeff()
            )
            left = generator(-a, 0) * generator(0, b) * generator(a, 0)
            conj_dev = max(
                conj_dev, (left - phase(a * b) * generator(0, b)).max_coeff()
            )
            # the chain on the explicit model, hung on the sharp eigenvector
            if is_position:
                lhs = inner(
                    model_phi, apply_U(-a, apply_V(b, apply_U(a, model_phi)))
                )
                rhs = phase(a * b) * inner(model_phi, apply_V(b, model_phi))
            else:
                lhs = inner(
                    model_phi, apply_V(-b, apply_U(a, apply_V(b, model_phi)))
                )
                rhs = phase(a * b) * inner(model_phi, apply_U(a, model_phi))
            chain_dev = max(chain_dev, abs(lhs - rhs))

    broken = []
    for t in probe_list:
        gen = generator(0, t) if is_position else generator(t, 0)
        broken.append((t, state(gen)))

    return EigenvectorWitness(
        state=state,
        eigen_deviation=eigen_dev,
        gram_residual=gram_residual,
        conjugation_deviation=conj_dev,
        chain_deviation=chain_dev,
        broken_elements=tuple(broken),
    )


def equivalence_check(lam: RationalLike, words: Sequence[WeylElement]) -> float:
    """Max deviation between the word geometry and the point model.

    For every pair of words, compares ``gns_inner`` over the sharp-position
    state with the finitely-supported inner product of the words applied to
    the basis vector at the same point.  Zero (to roundoff) witnesses that
    the two constructions are the same representation.
    """
    from .states import position_state  # local import to avoid cycle at load

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
