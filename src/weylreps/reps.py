"""Sharp-point representations on finitely supported vectors.

Vectors are finite complex combinations of basis points ``phi_x`` indexed by
exact rationals.  The ``position`` flavor acts by

    U_a phi_x = exp(i a x) phi_x        (pointwise phase)
    V_b phi_x = phi_{x-b}               (translation)

so every basis vector is a sharp eigenvector of the phase family, while the
translation family moves basis vectors onto orthogonal ones: the diagonal
matrix element ``<phi_x, V_b phi_x>`` is the exact indicator of ``b = 0``,
discontinuous at 0 no matter how small ``b`` gets.  The ``momentum`` flavor
swaps the two roles (``U_a`` translates ``x -> x+a``, ``V_b`` multiplies by
``exp(i b x)``); the exchange relation holds exactly in both flavors.

Only the phase direction has a self-adjoint generator.  Asking for the other
one raises :class:`NonexistentObservableError` - the representation-level
form of position/momentum complementarity.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .algebra import RationalLike, SparseMap, WeylElement, as_float, as_fraction, phase

POSITION = "position"
MOMENTUM = "momentum"
FLAVORS = (POSITION, MOMENTUM)


class FlavorMismatchError(ValueError):
    """Vectors of different flavors have no common inner product."""


class NonexistentObservableError(ValueError):
    """Asked a flavor for the generator that does not exist in it."""


class FiniteSupportVector(SparseMap):
    """Finitely supported map from exact rational points to amplitudes.

    Vectors of different flavors live in different spaces: they compare
    unequal, and adding them or taking their inner product raises
    :class:`FlavorMismatchError`.
    """

    __slots__ = ("flavor",)

    def __init__(self, amplitudes: Union[Mapping, Iterable, None] = None,
                 flavor: str = POSITION):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor: {flavor!r}")
        super().__init__(amplitudes)
        self.flavor = flavor

    def _new(self, data: dict) -> "FiniteSupportVector":
        new = SparseMap._new(self, data)
        new.flavor = self.flavor
        return new

    @property
    def amplitudes(self) -> Mapping[Fraction, complex]:
        return MappingProxyType(self._data)

    def __eq__(self, other) -> bool:
        return SparseMap.__eq__(self, other) and self.flavor == other.flavor

    def _check_flavor(self, other: "FiniteSupportVector") -> None:
        if self.flavor != other.flavor:
            raise FlavorMismatchError(f"cannot combine {self.flavor} with {other.flavor}")

    def __add__(self, other):
        if isinstance(other, FiniteSupportVector):
            self._check_flavor(other)
        return SparseMap.__add__(self, other)

    max_amplitude = SparseMap.max_coeff

    def inner(self, other: "FiniteSupportVector") -> complex:
        """Sum over the exact key intersection, conjugate-linear in ``self``."""
        self._check_flavor(other)
        mine, theirs = self._data, other._data
        small, large = (mine, theirs) if len(mine) <= len(theirs) else (theirs, mine)
        total = 0j
        for point in small:
            if point in large:
                total += mine[point].conjugate() * theirs[point]
        return total


def basis_vector(point: RationalLike, flavor: str = POSITION) -> FiniteSupportVector:
    """The characteristic function of a single point."""
    return FiniteSupportVector({as_fraction(point): 1.0 + 0j}, flavor)


def inner(u: FiniteSupportVector, v: FiniteSupportVector) -> complex:
    """Sum over the exact key intersection, conjugate-linear in ``u``."""
    return u.inner(v)


def _phased(v: FiniteSupportVector, t: Fraction) -> FiniteSupportVector:
    return v._new({p: c * phase(t * p) for p, c in v.amplitudes.items()})


def _shifted(v: FiniteSupportVector, t: Fraction) -> FiniteSupportVector:
    return v._new({p + t: c for p, c in v.amplitudes.items()})


def apply_U(a: RationalLike, v: FiniteSupportVector) -> FiniteSupportVector:
    """Phase multiplication in the position flavor, translation in momentum."""
    a = as_fraction(a)
    return _phased(v, a) if v.flavor == POSITION else _shifted(v, a)


def apply_V(b: RationalLike, v: FiniteSupportVector) -> FiniteSupportVector:
    """Translation in the position flavor, phase multiplication in momentum."""
    b = as_fraction(b)
    return _shifted(v, -b) if v.flavor == POSITION else _phased(v, b)


def apply_Q(v: FiniteSupportVector) -> FiniteSupportVector:
    """Position operator: multiply each amplitude by its point.

    Exists only in the position flavor.  In the momentum flavor the phase
    family ``U_a`` is discontinuous, so it has no self-adjoint generator.
    """
    if v.flavor != POSITION:
        raise NonexistentObservableError(
            "nonexistent observable: no position operator in the momentum flavor"
        )
    return v._new({p: c * as_float(p, "point") for p, c in v.amplitudes.items()})


def apply_P(v: FiniteSupportVector) -> FiniteSupportVector:
    """Momentum operator, the mirror of :func:`apply_Q`.

    Exists only in the momentum flavor; in the position flavor ``V_b`` is
    discontinuous and has no generator.
    """
    if v.flavor != MOMENTUM:
        raise NonexistentObservableError(
            "nonexistent observable: no momentum operator in the position flavor"
        )
    return v._new({p: c * as_float(p, "point") for p, c in v.amplitudes.items()})


def finite_difference_generator(
    step: RationalLike, v: FiniteSupportVector
) -> FiniteSupportVector:
    """-i * step^-1 * (G_step - I) v for the continuous direction.

    Approximates :func:`apply_Q` (position flavor, via ``U``) or
    :func:`apply_P` (momentum flavor, via ``V``) with per-basis-vector error
    bounded by ``|step| * x**2 / 2`` at point ``x``.
    """
    step = as_fraction(step)
    if step == 0:
        raise ValueError("step must be nonzero")
    moved = apply_U(step, v) if v.flavor == POSITION else apply_V(step, v)
    # 1/step is taken exactly, so a step too small for a float is refused
    return (-1j * as_float(1 / step, "1/step")) * (moved - v)


def apply_element(x: WeylElement, v: FiniteSupportVector) -> FiniteSupportVector:
    """Act by a normal-ordered element: each W(a, b) applies V_b then U_a."""
    total: dict[Fraction, complex] = {}
    for (a, b), c in x.terms.items():
        moved = apply_U(a, apply_V(b, v))
        for point, amp in moved.amplitudes.items():
            total[point] = total.get(point, 0j) + c * amp
    return v._new(total)


def weyl_relation_check(
    a: RationalLike, b: RationalLike, point: RationalLike, flavor: str = POSITION
) -> float:
    """Max amplitude deviation of U_a V_b phi - exp(-iab) V_b U_a phi."""
    a = as_fraction(a)
    b = as_fraction(b)
    phi = basis_vector(point, flavor)
    lhs = apply_U(a, apply_V(b, phi))
    rhs = phase(-a * b) * apply_V(b, apply_U(a, phi))
    return (lhs - rhs).max_amplitude()


def v_direction_matrix_element(b: RationalLike, point: RationalLike) -> complex:
    """<phi_x, V_b phi_x> in the position flavor: the exact indicator of b=0."""
    phi = basis_vector(point, POSITION)
    return inner(phi, apply_V(b, phi))


def u_direction_matrix_element(a: RationalLike, point: RationalLike) -> complex:
    """<phi_x, U_a phi_x> in the momentum flavor: the exact indicator of a=0."""
    phi = basis_vector(point, MOMENTUM)
    return inner(phi, apply_U(a, phi))
