"""Exact sparse algebra of an exponentiated canonical pair.

Generators are labelled by pairs of rationals.  ``W(a, b)`` stands for the
normal-ordered product ``U_a V_b`` of two one-parameter unitary families
obeying the exchange relation

    U_a V_b = exp(-i a b) V_b U_a

so a product of generators collapses to a single generator times a
unit-modulus phase:

    W(a, b) * W(a2, b2) = exp(i a2 b) W(a + a2, b + b2)

A general element is a finitely supported complex combination of generators.
Index arithmetic is exact: a label stores its pair as integers
``(p_a, p_b, q)`` on the lattice of a common denominator q, and the product,
the adjoint and the state kernels add, multiply and reduce those integers
with ``math.gcd``; only the coefficients live in floating point.  Elements
are immutable; every operation returns a new element in normal form with
near-zero coefficients pruned.  That normal form is :class:`SparseMap`, which
the point-model vectors of ``reps`` and the trigonometric polynomials of
``almost_periodic`` share.

:func:`phase_ratio` reduces an exact angle p/q modulo 2 pi in integers
before its one float ``exp``, so a phase is as accurate at label 1e100 as at
label 1; :func:`phase` takes the angle as a ``Fraction`` or an ``int``.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from fractions import Fraction
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

    A ``Fraction`` or ``int`` angle goes through :func:`phase_ratio`; a
    float angle is used as it is.
    """
    if isinstance(theta, Fraction):
        return phase_ratio(theta.numerator, theta.denominator)
    if isinstance(theta, int):
        return phase_ratio(theta, 1)
    return cmath.exp(1j * float(theta))


def phase_ratio(p: int, q: int) -> complex:
    """exp(i p/q) for integers p and q > 0, not necessarily coprime.

    Up to 1 in modulus no reduction is needed: ``p / q`` is correctly
    rounded whatever the common factor.  Beyond, p/q is first reduced by
    its gcd, and then, with |p/q| < 2**mag, taken to s = mag + 64 fractional
    bits and reduced into [-pi, pi] against 2 pi at the same precision, in
    integers, before the one float ``exp``; so the phase is accurate to a
    few units of 2**-53 at every magnitude, and equal bit for bit to the
    phase of ``Fraction(p, q)``.  mag > 1024 (|p/q| > 2**1023) raises
    ``ValueError``.
    """
    if -q <= p <= q:
        return cmath.exp(1j * (p / q))
    g = math.gcd(p, q)
    if g != 1:
        p //= g
        q //= g
    mag = p.bit_length() - q.bit_length() + 1
    if mag > _MAX_ANGLE_BITS:
        raise ValueError(f"phase angle out of range: |theta| > 2**{_MAX_ANGLE_BITS - 1}")
    s = mag + 64
    two_pi = _TWO_PI >> (_TWO_PI_BITS - s)
    r = ((p << s) // q) % two_pi
    if 2 * r > two_pi:
        r -= two_pi
    return cmath.exp(1j * (r / (1 << s)))


def _complex(value, key) -> complex:
    """``complex(value)``, refusing an ``int`` past the float range.

    ``complex`` raises ``OverflowError`` there; a map refuses it with
    ``ValueError``, like every other value it may not hold.
    """
    try:
        return complex(value)
    except OverflowError:
        raise ValueError(f"coefficient past the float range at {key}") from None


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
                merged = clean.get(key, 0j) + _complex(value, key)
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
            # the conversion ``complex * int`` and ``complex * float`` make
            # anyway (before Python 3.14), done once and refused past the range
            other = _complex(other, "scalar")
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


_MODULUS = sys.hash_info.modulus


@functools.lru_cache(maxsize=1024)
def _hash_inverse(q: int) -> int:
    """1/q modulo the numeric-hash modulus; ``ValueError`` if q is a multiple."""
    return pow(q, -1, _MODULUS)


def _label_hash(pa: int, pb: int, q: int) -> int:
    """``hash((pa/q, pb/q))`` for q > 0, from the integers alone.

    By the documented rule for numeric hashes, a rational p/q whose q has an
    inverse modulo ``sys.hash_info.modulus`` hashes as the int p times that
    inverse; a tuple hashes its items' hashes.  A q without an inverse
    falls back to each coordinate in lowest terms.
    """
    if q == 1:
        return hash((pa, pb))
    try:
        inverse = _hash_inverse(q)
    except ValueError:
        return hash((_lowest_terms_hash(pa, q), _lowest_terms_hash(pb, q)))
    return hash((pa * inverse, pb * inverse))


def _lowest_terms_hash(p: int, q: int) -> int:
    """``hash(Fraction(p, q))`` for q > 0 a multiple of the modulus."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q % _MODULUS == 0:
        return -sys.hash_info.inf if p < 0 else sys.hash_info.inf
    return hash(p * pow(q, -1, _MODULUS))


@functools.total_ordering
class WeylIndex:
    """Label (a, b) of the normal-ordered generator W(a, b) = U_a V_b.

    Immutable.  It stores three integers: a = p_a/q and b = p_b/q with q > 0
    the least common denominator, so the triple is unique for the pair.  The
    product, the adjoint and the state kernels compute on these integers
    (the slots ``_pa``, ``_pb`` and ``_q``); ``a`` and ``b`` are read as
    ``Fraction``s.  The label unpacks, compares and orders as the tuple
    ``(a, b)``, equals it and has its hash.  That hash is computed once, when
    the label is built, from the integers by the rule for numeric hashes.
    """

    __slots__ = ("_pa", "_pb", "_q", "_hash")

    def __init__(self, a: RationalLike, b: RationalLike):
        # an int has a numerator and a denominator already
        a = a if isinstance(a, (int, Fraction)) else as_fraction(a)
        b = b if isinstance(b, (int, Fraction)) else as_fraction(b)
        qa, qb = a.denominator, b.denominator
        q = qa // math.gcd(qa, qb) * qb
        self._pa = a.numerator * (q // qa)
        self._pb = b.numerator * (q // qb)
        self._q = q
        self._hash = _label_hash(self._pa, self._pb, q)

    @property
    def a(self) -> Fraction:
        return Fraction(self._pa, self._q)

    @property
    def b(self) -> Fraction:
        return Fraction(self._pb, self._q)

    def __iter__(self):
        return iter((self.a, self.b))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, WeylIndex):
            return (self._hash == other._hash and self._pa == other._pa
                    and self._pb == other._pb and self._q == other._q)
        if isinstance(other, tuple):
            return (self.a, self.b) == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, WeylIndex):
            # tuple order by cross-multiplication; both denominators are positive
            left, right = self._pa * other._q, other._pa * self._q
            if left != right:
                return left < right
            return self._pb * other._q < other._pb * self._q
        if isinstance(other, tuple):
            return (self.a, self.b) < other
        return NotImplemented

    def __reduce__(self):
        return WeylIndex, (self.a, self.b)

    def __repr__(self) -> str:
        return f"WeylIndex(a={self.a!r}, b={self.b!r})"

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


_new_index = object.__new__


def _index(pa: int, pb: int, q: int) -> WeylIndex:
    """The label (pa/q, pb/q), for q > 0 and pa, pb, q without a common factor."""
    index = _new_index(WeylIndex)
    index._pa = pa
    index._pb = pb
    index._q = q
    index._hash = _label_hash(pa, pb, q)
    return index


def _as_index(key) -> WeylIndex:
    if isinstance(key, WeylIndex):
        return key
    a, b = key
    return WeylIndex(a, b)


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
        """W(s1) W(s2) = exp(i a2 b1) W(s1 + s2), summed on the integer labels."""
        if not isinstance(other, WeylElement):
            return SparseMap.__mul__(self, other)
        gcd = math.gcd
        right = [(index._pa, index._pb, index._q, c) for index, c in other._data.items()]
        out: dict[WeylIndex, complex] = {}
        get = out.get
        for index, c1 in self._data.items():
            pa1, pb1, q1 = index._pa, index._pb, index._q
            for pa2, pb2, q2, c2 in right:
                if q1 == q2:
                    pa, pb, q = pa1 + pa2, pb1 + pb2, q1
                else:
                    g = gcd(q1, q2)
                    m1, m2 = q2 // g, q1 // g
                    pa, pb, q = pa1 * m1 + pa2 * m2, pb1 * m1 + pb2 * m2, q1 * m1
                if q != 1:
                    g = gcd(pa, pb, q)
                    if g != 1:
                        pa, pb, q = pa // g, pb // g, q // g
                key = _index(pa, pb, q)
                out[key] = get(key, 0j) + c1 * c2 * phase_ratio(pa2 * pb1, q1 * q2)
        return self._new(out)

    def adjoint(self) -> "WeylElement":
        """Conjugate-linear star operation: W(a,b)* = exp(iab) W(-a,-b)."""
        return self._new({
            _index(-i._pa, -i._pb, i._q): c.conjugate() * phase_ratio(i._pa * i._pb, i._q * i._q)
            for i, c in self._data.items()
        })


def generator(a: RationalLike, b: RationalLike) -> WeylElement:
    """Single generator W(a, b) with coefficient one."""
    return WeylElement({WeylIndex(a, b): 1.0 + 0j})


def identity() -> WeylElement:
    """The unit W(0, 0)."""
    return generator(0, 0)


def zero() -> WeylElement:
    return WeylElement()
