"""Exact sparse algebra of an exponentiated canonical pair.

Generators are labelled by pairs of rationals.  ``W(a, b)`` stands for the
normal-ordered product ``U_a V_b`` of two one-parameter unitary families
obeying the exchange relation

    U_a V_b = exp(-i a b) V_b U_a

so a product of generators collapses to a single generator times a
unit-modulus phase:

    W(a, b) * W(a2, b2) = exp(i a2 b) W(a + a2, b + b2)

A general element is a finitely supported complex combination of generators.
Index arithmetic is exact (`fractions.Fraction`); only the coefficients live
in floating point.  Elements are immutable; every operation returns a new
element in normal form with near-zero coefficients pruned.  That normal
form is :class:`SparseMap`, which the point-model vectors of ``reps`` and
the trigonometric polynomials of ``almost_periodic`` share.

:func:`phase` reduces an exact angle modulo 2 pi in integers before its one
float ``exp``, so a phase is as accurate at label 1e100 as at label 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Tuple, Union

RationalLike = Union[Fraction, int, str]

# coefficients at or below this modulus are dropped during normalisation
PRUNE_TOL = 1e-15


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction, or an exact string such as ``"3/2"``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def as_float(value: Fraction, what: str) -> float:
    """``float(value)``, refusing a value past the float range.

    ``float`` raises ``OverflowError`` there; like :func:`phase`, the
    library refuses it with a ``ValueError`` that names ``what``.
    """
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} out of float range: |{what}| >= 2**1024") from None


def _arctan_inv(n: int, one: int) -> int:
    """arctan(1/n) * one, summed as the alternating series in integers."""
    total, power, k = 0, one // n, 1
    while power:
        total += power // k if k % 4 == 1 else -(power // k)
        power //= n * n
        k += 2
    return total


# 2 pi 2**_TWO_PI_BITS rounded down, from Machin's formula
# pi = 16 arctan(1/5) - 4 arctan(1/239) with 32 guard bits.  It has 72 bits
# beyond the largest angle phase() accepts: 64 for the reduced angle, 8 spare.
_MAX_ANGLE_BITS = 1024
_TWO_PI_BITS = _MAX_ANGLE_BITS + 72
_ONE = 1 << (_TWO_PI_BITS + 32)
_TWO_PI = (32 * _arctan_inv(5, _ONE) - 8 * _arctan_inv(239, _ONE)) >> 32


def phase(theta: Union[Fraction, int, float]) -> complex:
    """exp(i*theta), the unit-modulus phase attached to exact angles.

    An exact angle p/q with |p/q| < 2**mag, mag > 0, is taken to s = mag + 64
    fractional bits and reduced into [-pi, pi] against 2 pi at the same
    precision, in integers, before the one float ``exp``; so the phase is
    accurate to a few units of 2**-53 at every magnitude.  Up to 1 in
    modulus no reduction is needed, and a float angle is used as it is.
    mag > 1024 (|theta| > 2**1023) raises ``ValueError``.
    """
    if isinstance(theta, Fraction):
        p, q = theta.numerator, theta.denominator
    elif isinstance(theta, int):
        p, q = theta, 1
    else:
        return cmath.exp(1j * float(theta))
    if abs(p) <= q:
        return cmath.exp(1j * (p / q))
    mag = p.bit_length() - q.bit_length() + 1
    if mag > _MAX_ANGLE_BITS:
        raise ValueError(f"phase angle out of range: |theta| > 2**{_MAX_ANGLE_BITS - 1}")
    s = mag + 64
    two_pi = _TWO_PI >> (_TWO_PI_BITS - s)
    r = ((p << s) // q) % two_pi
    if 2 * r > two_pi:
        r -= two_pi
    return cmath.exp(1j * (r / (1 << s)))


def _modulus(key, c: complex) -> float:
    """``abs(c)``, refusing with ``ValueError`` a value no map may hold.

    That is a non-finite value, or a finite one whose modulus passes the
    float range, such as ``complex(1.7e308, 1.7e308)``: ``abs`` raises
    ``OverflowError`` for it.
    """
    try:
        size = abs(c)
    except OverflowError:
        raise ValueError(f"coefficient modulus past the float range at {key}: {c!r}") from None
    if not size < math.inf:  # inf, or nan
        raise ValueError(f"non-finite coefficient at {key}: {c!r}")
    return size


class SparseMap:
    """Finitely supported map from exact keys to complex numbers, immutable.

    Equal keys are merged, values at or below ``PRUNE_TOL`` in modulus are
    dropped, and a non-finite value, or one whose modulus passes the float
    range, is refused with ``ValueError``; ``_key`` coerces the keys.
    ``+``, ``-`` and scalar ``*`` build maps of the same kind with
    :meth:`_new`, which skips the merge their keys do not need.  ``==`` is
    exact; compare with tolerance through :meth:`max_coeff` of a difference.
    """

    __slots__ = ("_data",)

    _key = staticmethod(as_fraction)

    def __init__(self, data: Union[Mapping, Iterable[Tuple], None] = None):
        clean: dict = {}
        if data is not None:
            key_of = self._key
            items = data.items() if isinstance(data, Mapping) else data
            for key, value in items:
                key = key_of(key)
                merged = clean.get(key, 0j) + complex(value)
                if _modulus(key, merged) <= PRUNE_TOL:
                    clean.pop(key, None)
                else:
                    clean[key] = merged
        self._data = clean

    def _new(self, data: dict) -> "SparseMap":
        """A map of the same kind as ``self`` that takes over ``data``.

        ``data`` is a fresh dict whose keys are already coerced and
        distinct, as every operation on maps in normal form builds it.  Of
        the constructor's steps only two remain: the refusal of a value no
        map may hold and the prune at ``PRUNE_TOL``.
        """
        pruned = []
        for key, c in data.items():
            if _modulus(key, c) <= PRUNE_TOL:
                pruned.append(key)
        for key in pruned:
            del data[key]
        new = object.__new__(type(self))
        new._data = data
        return new

    def __bool__(self) -> bool:
        return bool(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._data == other._data

    __hash__ = None

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._data)
        for key, c in other._data.items():
            out[key] = out.get(key, 0j) + c
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({key: -c for key, c in self._data.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._new({key: c * other for key, c in self._data.items()})
        return NotImplemented

    __rmul__ = __mul__

    def l1_bound(self) -> float:
        """Sum of value moduli; for an algebra element, the operator-norm
        bound that every norm statement in this package goes through."""
        return math.fsum(abs(c) for c in self._data.values())

    def max_coeff(self) -> float:
        """Largest value modulus (0 for the empty map)."""
        return max((abs(c) for c in self._data.values()), default=0.0)

    def norm(self) -> float:
        """Euclidean norm of the values."""
        return math.sqrt(math.fsum(abs(c) ** 2 for c in self._data.values()))

    def __repr__(self) -> str:
        items = sorted(self._data.items())
        body = ", ".join(f"{key}: {c:.6g}" for key, c in items[:6])
        if len(items) > 6:
            body += f", ... {len(items) - 6} more"
        # a subclass's own slots (a vector's flavor) complete the description
        extra = "".join(f", {name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({{{body}}}{extra})"


@functools.total_ordering
class WeylIndex:
    """Label (a, b) of the normal-ordered generator W(a, b) = U_a V_b.

    Immutable.  It unpacks, compares and orders as the tuple ``(a, b)``,
    equals it and has its hash.  That hash is computed once, when the label
    is built: every product term puts its label in a dict, and a tuple of
    two ``Fraction``s hashes both of them again on each lookup.
    """

    __slots__ = ("_a", "_b", "_hash")

    def __init__(self, a: Fraction, b: Fraction):
        self._a = a
        self._b = b
        self._hash = hash((a, b))

    a = property(attrgetter("_a"))
    b = property(attrgetter("_b"))

    def __iter__(self):
        return iter((self._a, self._b))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, WeylIndex):
            return (self._hash == other._hash and self._a == other._a
                    and self._b == other._b)
        if isinstance(other, tuple):
            return (self._a, self._b) == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, WeylIndex):
            other = (other._a, other._b)
        elif not isinstance(other, tuple):
            return NotImplemented
        return (self._a, self._b) < other

    def __reduce__(self):
        return WeylIndex, (self._a, self._b)

    def __repr__(self) -> str:
        return f"WeylIndex(a={self._a!r}, b={self._b!r})"

    def __str__(self) -> str:
        return f"({self._a}, {self._b})"


def _as_index(key) -> WeylIndex:
    if isinstance(key, WeylIndex):
        return key
    a, b = key
    return WeylIndex(as_fraction(a), as_fraction(b))


class WeylElement(SparseMap):
    """Finite linear combination of generators, with the algebra product
    ``*`` and ``adjoint``."""

    __slots__ = ()

    _key = staticmethod(_as_index)
    # bound here too, so that ``WeylElement.__init__`` names the L1
    # normalising step alone (the benchmark tracer wraps it by that name)
    __init__ = SparseMap.__init__

    @property
    def terms(self) -> Mapping[WeylIndex, complex]:
        """Read-only view of the normal-form terms."""
        return MappingProxyType(self._data)

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return SparseMap.__mul__(self, other)
        right = [(index._a, index._b, c) for index, c in other._data.items()]
        out: dict[WeylIndex, complex] = {}
        for index, c1 in self._data.items():
            a1, b1 = index._a, index._b
            for a2, b2, c2 in right:
                key = WeylIndex(a1 + a2, b1 + b2)
                out[key] = out.get(key, 0j) + c1 * c2 * phase(a2 * b1)
        return self._new(out)

    def adjoint(self) -> "WeylElement":
        """Conjugate-linear star operation: W(a,b)* = exp(iab) W(-a,-b)."""
        return self._new(
            {
                WeylIndex(-i._a, -i._b): c.conjugate() * phase(i._a * i._b)
                for i, c in self._data.items()
            }
        )


def generator(a: RationalLike, b: RationalLike) -> WeylElement:
    """Single generator W(a, b) with coefficient one."""
    return WeylElement({WeylIndex(as_fraction(a), as_fraction(b)): 1.0 + 0j})


def identity() -> WeylElement:
    """The unit W(0, 0)."""
    return generator(0, 0)


def zero() -> WeylElement:
    return WeylElement()
