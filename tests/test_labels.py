"""The integer-lattice label and key contracts, pinned against a ``Fraction`` route.

A label stores (a, b) as the integers (p_a, p_b, q).  These tests check
that its hash is the hash of the pair ``(a, b)``, that it orders as the
pair, that ``phase_ratio`` on an unreduced ratio is the phase of the
``Fraction``, and that the product, the adjoint, the state kernels, the
canonical reductions and the Gram matrix equal, bit for bit, a reference
that computes on ``Fraction`` labels as the package did before the labels
held integers.

A point or frequency key (``RationalIndex``) stores p/q as two integers.
The tests check that it hashes, equals, orders, adds, negates, prints and
pickles as the ``Fraction``; that the point-model operators, the
trigonometric polynomial operations and the canonical reduction equal, bit
for bit, a reference on ``Fraction`` keys; and that those operations, on
prebuilt vectors and polynomials, construct and hash no ``Fraction``.

The file needs neither pytest nor numpy, except for the Gram matrix test;
run it as a script to check the contract on an interpreter without them:

    PYTHONPATH=src python3 tests/test_labels.py

``tests/test_scripts.py`` runs it so, where neither can be imported.
"""

import cmath
import math
import random
import sys
from fractions import Fraction

from weylreps import gns, reps
from weylreps.algebra import (EXACT_TOL, PRUNE_TOL, RationalIndex, WeylElement, WeylIndex, phase,
                              phase_ratio)
from weylreps.almost_periodic import TrigPolynomial, trig_generator
from weylreps.gns import GnsVector, reduce_momentum, reduce_position
from weylreps.reps import FiniteSupportVector
from weylreps.serialize import trig_to_records, vector_to_records
from weylreps.states import _point_rows, momentum_state, position_state, vacuum_state

MODULUS = sys.hash_info.modulus
# at 10**300 the product angles pass 2**1023, the import-time precision of 2 pi
SCALES = (10, 10**4, 10**8, 10**100, 10**300)


# -- the Fraction route ------------------------------------------------------

def reference_product(x: WeylElement, y: WeylElement) -> dict:
    out = {}
    for (a1, b1), c1 in x.terms.items():
        for (a2, b2), c2 in y.terms.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0j) + c1 * c2 * phase(a2 * b1)
    return {key: c for key, c in out.items() if abs(c) > PRUNE_TOL}


def reference_adjoint(x: WeylElement) -> dict:
    out = {(-a, -b): c.conjugate() * phase(a * b) for (a, b), c in x.terms.items()}
    return {key: c for key, c in out.items() if abs(c) > PRUNE_TOL}


def reference_value(state, a: Fraction, b: Fraction) -> complex:
    if state.kind == "position":
        return phase(a * state.parameter) if b == 0 else 0j
    if state.kind == "momentum":
        return phase(b * state.parameter) if a == 0 else 0j
    try:
        return cmath.exp(complex(-float(a * a + b * b) / 4.0, -float(a * b) / 2.0))
    except OverflowError:
        return 0j


def reference_kernel(state, s, t) -> complex:
    (a_s, b_s), (a_t, b_t) = s, t
    a = a_t - a_s
    value = reference_value(state, a, b_t - b_s)
    return phase(-a * b_s) * value if value else value


def reference_reduction(state, x: WeylElement) -> dict:
    """x applied to a sharp state's cyclic vector, on its point model:
    W(a, b) goes to b with amplitude exp(i a (lam - b)) for position(lam), to
    a with amplitude exp(i b mu) for momentum(mu)."""
    out = {}
    for (a, b), c in x.terms.items():
        if state.kind == "position":
            point, amplitude = b, phase(a * (state.parameter - b))
        else:
            point, amplitude = a, phase(b * state.parameter)
        out[point] = out.get(point, 0j) + c * amplitude
    return out


def bits(c: complex) -> tuple:
    return c.real.hex(), c.imag.hex()


def as_pairs(x: WeylElement) -> dict:
    """Terms keyed by the pair (a, b), values by their bits."""
    return {(label.a, label.b): bits(c) for label, c in x.terms.items()}


# -- random labels -----------------------------------------------------------

def rational(rng: random.Random, scale: int) -> Fraction:
    den = rng.choice((1, 1, 2, 3, 6, 7, 12, rng.randint(1, 10**6)))
    return Fraction(rng.randint(-scale * den, scale * den), den)


def words(rng: random.Random, scale: int, count: int) -> list:
    """``count`` words of 1-4 terms over a 4x4 alphabet, so that sharp states
    see labels that share an a or a b."""
    a_vals = [rational(rng, scale) for _ in range(4)]
    b_vals = [rational(rng, scale) for _ in range(4)]
    alphabet = [(a, b) for a in a_vals for b in b_vals]
    return [
        WeylElement({pair: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for pair in rng.sample(alphabet, rng.randint(1, 4))})
        for _ in range(count)
    ]


def states_at(rng: random.Random, scale: int) -> list:
    return [position_state(rational(rng, scale)), momentum_state(rational(rng, scale)),
            vacuum_state()]


# -- hash and order ----------------------------------------------------------

def hash_cases() -> list:
    big = 10**400
    cases = [
        (Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(0)),  # hash(-1) is -2
        (Fraction(-1), Fraction(-1, 2)),
        (Fraction(1, MODULUS), Fraction(2, 3)),  # no inverse: hash_info.inf
        (Fraction(-5, 3 * MODULUS), Fraction(1, 2)),
        (Fraction(1), Fraction(1, MODULUS)),  # q a multiple, a in lowest terms not
        (Fraction(7, MODULUS**2), Fraction(-1, 7 * MODULUS)),
        (Fraction(MODULUS - 1, MODULUS + 1), Fraction(-MODULUS, 1)),
        (Fraction(big + 1, 3), Fraction(-big, 7)),
        (Fraction(1, big + 1), Fraction(-(big - 1), big + 3)),
        (Fraction(-(big + 7), big - 3), Fraction(0)),
        (Fraction(-(MODULUS * big + 1), MODULUS * 7), Fraction(3, big)),
    ]
    rng = random.Random(4)
    for _ in range(2000):
        den = rng.choice((1, 2, 12, MODULUS, 2 * MODULUS, big + 1, rng.randint(1, 10**30)))
        num = rng.choice((0, -1, 1, MODULUS, -MODULUS, rng.randint(-big, big),
                          rng.randint(-10**20, 10**20)))
        cases.append((Fraction(num, den), rational(rng, rng.choice(SCALES))))
    return cases


def test_label_hash_is_the_fraction_pair_hash():
    for a, b in hash_cases():
        label = WeylIndex(a, b)
        assert hash(label) == hash((a, b)), (a, b)
        assert (label.a, label.b) == (a, b)
        assert label == WeylIndex(label.a, label.b)


def test_label_hash_from_every_route():
    rng = random.Random(5)
    for scale in SCALES:
        for x, y in zip(words(rng, scale, 20), words(rng, scale, 20)):
            for label in list((x * y).terms) + list(x.adjoint().terms):
                assert hash(label) == hash((label.a, label.b))
                assert label == WeylIndex(label.a, label.b)


def test_label_order_is_tuple_order_at_every_scale():
    rng = random.Random(6)
    pairs = [(rational(rng, scale), rational(rng, scale))
             for scale in SCALES for _ in range(30)]
    pairs += [(a, b) for a, _ in pairs[:20] for _, b in pairs[-5:]]  # equal a, other b
    labels = [WeylIndex(a, b) for a, b in pairs]
    assert [(label.a, label.b) for label in sorted(labels)] == sorted(pairs)
    for label, pair in zip(labels, pairs):
        for other, other_pair in zip(labels[::7], pairs[::7]):
            assert (label < other) == (pair < other_pair)
            assert (label > other) == (pair > other_pair)
            assert (label == other) == (pair == other_pair)


# -- phase on an unreduced ratio ---------------------------------------------

def test_phase_ratio_on_an_unreduced_ratio_is_the_fraction_phase():
    rng = random.Random(7)
    for magnitude in (1, 2**64, 2**1023, 2**4000):
        for _ in range(200):
            q = rng.randint(1, 10**6)
            theta = Fraction(rng.randint(-magnitude * q, magnitude * q), q)
            p, q = theta.numerator, theta.denominator
            expected = bits(phase(theta))
            for k in (1, 2, 3 * 10**20 + 1, MODULUS):
                assert bits(phase_ratio(k * p, k * q)) == expected, (theta, k)


def test_phase_ratio_past_the_float_range_is_the_mpmath_phase_however_unreduced():
    import mpmath

    for p, q in ((2**1024 + 1, 1), (-(2**1100), 3), (2**1023 * 5 + 1, 2)):
        with mpmath.workdps(400):
            exact = complex(mpmath.expj(mpmath.mpf(p) / q))
        for k in (1, 7, 2**200):
            assert abs(phase_ratio(k * p, k * q) - exact) <= 1e-15, (p, q, k)


def test_phase_ratio_refuses_at_the_size_cap_however_unreduced():
    # angles of 2**65536 and more are refused, reduced or not; just below are not
    for p, q in ((2**65536, 1), (-(2**65536 * 3 + 1), 3)):
        for k in (1, 7, 2**200):
            try:
                phase_ratio(k * p, k * q)
            except ValueError as exc:
                assert "size limit" in str(exc)
                continue
            raise AssertionError(f"phase_ratio accepted {p}/{q} times {k}")
    below = 2**65536 - 1
    assert bits(phase_ratio(below * 2**300, 2**300)) == bits(phase_ratio(below, 1))


# -- product, adjoint, kernel and Gram matrix against the Fraction route ---

def test_product_and_adjoint_equal_the_fraction_route():
    rng = random.Random(8)
    for scale in SCALES:
        left, right = words(rng, scale, 12), words(rng, scale, 12)
        for x, y in zip(left, right):
            assert as_pairs(x * y) == {key: bits(c) for key, c in
                                       reference_product(x, y).items()}
            assert as_pairs(x.adjoint()) == {key: bits(c) for key, c in
                                             reference_adjoint(x).items()}
        big_x = sum(left, WeylElement())
        big_y = sum(right, WeylElement())
        assert as_pairs(big_x * big_y) == {key: bits(c) for key, c in
                                           reference_product(big_x, big_y).items()}


def test_product_is_associative_at_1e300_labels():
    rng = random.Random(12)
    x, y, z = (sum(words(rng, 10**300, 4), WeylElement()) for _ in range(3))
    left = (x * y) * z
    assert as_pairs(left) == {key: bits(c) for key, c in
                              reference_product(WeylElement(reference_product(x, y)), z).items()}
    assert (left - x * (y * z)).max_coeff() <= EXACT_TOL


def test_kernel_and_evaluation_equal_the_fraction_route():
    rng = random.Random(9)
    for scale in SCALES:
        labels = [label for x in words(rng, scale, 8) for label in x.terms]
        for state in states_at(rng, scale):
            for s in labels:
                for t in labels:
                    assert bits(state.kernel(s, t)) == bits(reference_kernel(state, s, t))
                assert bits(state.generator_value(s.a, s.b)) == \
                    bits(reference_value(state, s.a, s.b))
            for x in words(rng, scale, 8):
                total = 0j
                for (a, b), c in x.terms.items():
                    total += c * reference_value(state, a, b)
                assert bits(state(x)) == bits(total)


def test_reductions_equal_the_fraction_route():
    rng = random.Random(11)
    for scale in SCALES:
        for state in states_at(rng, scale)[:2]:
            reduce = reduce_position if state.kind == "position" else reduce_momentum
            for x in words(rng, scale, 20):
                expected = reference_reduction(state, x)
                reduced = reduce(GnsVector(x, state)).amplitudes
                assert list(reduced) == list(expected)
                assert {point: bits(c) for point, c in reduced.items()} == \
                    {point: bits(c) for point, c in expected.items()}


def reference_vacuum_factors(basis: list, np) -> tuple:
    """C' and K' of the vacuum's Gram matrix C'^H K' C' on ``Fraction`` labels.

    Labels, a values and b values are numbered in the order the terms first
    reach them, and a0 is the first a value reached.  With
    P[a, b] = phase((a - a0) b / 2), row s of C' is scaled by
    conj(P[a_s, b_s]), and K'[s, t] = P[a_s, b_t] conj(P[a_t, b_s]) times
    exp(-(a_s - a_t)^2 / 4) exp(-(b_s - b_t)^2 / 4), 0 past the float range.
    P is 0 where no cell with a nonzero envelope reads it.
    """
    labels = list(dict.fromkeys((label.a, label.b) for x in basis for label in x.terms))
    a_vals = list(dict.fromkeys(a for a, _ in labels))
    b_vals = list(dict.fromkeys(b for _, b in labels))
    ia = [a_vals.index(a) for a, _ in labels]
    ib = [b_vals.index(b) for _, b in labels]

    def envelope(values):
        out = []
        for u in values:
            row = []
            for v in values:
                try:
                    row.append(math.exp(-float((u - v) ** 2 / 4)))
                except OverflowError:
                    row.append(0.0)
            out.append(row)
        return out

    env_a, env_b = envelope(a_vals), envelope(b_vals)
    needed = {(a, b2) for a, b in zip(ia, ib) for a2, b2 in zip(ia, ib)
              if env_a[a][a2] * env_b[b][b2]}
    phases = [[phase((a - a_vals[0]) * b / 2) if (i, j) in needed else 0j
               for j, b in enumerate(b_vals)]
              for i, a in enumerate(a_vals)]
    coeffs = np.zeros((len(labels), len(basis)), dtype=complex)
    for j, x in enumerate(basis):
        for label, c in x.terms.items():
            coeffs[labels.index((label.a, label.b)), j] = c
    coeffs *= np.array([phases[a][b].conjugate() for a, b in zip(ia, ib)])[:, None]
    cross = np.array([[phases[a][b] for b in ib] for a in ia], dtype=complex)
    envelopes = np.array([[env_a[a][a2] * env_b[b][b2] for a2, b2 in zip(ia, ib)]
                          for a, b in zip(ia, ib)])
    return coeffs, cross * cross.conj().T * envelopes


def test_gram_matrix_equals_the_fraction_route():
    """The vacuum is C'^H K' C' over the labels in the order the terms first
    reach them; a sharp state is R^H R, its rows the points in the order the
    terms first reach them."""
    import numpy as np

    from weylreps.states import gram_matrix

    rng = random.Random(10)
    for scale in SCALES:
        basis = words(rng, scale, 12)
        for state in states_at(rng, scale):
            if state.kind == "vacuum":
                coeffs, kernel = reference_vacuum_factors(basis, np)
                expected = coeffs.conj().T @ kernel @ coeffs
            else:
                columns = [reference_reduction(state, x) for x in basis]
                rows = {}
                for column in columns:
                    for point in column:
                        rows.setdefault(point, len(rows))
                reduced = np.zeros((len(rows), len(basis)), dtype=complex)
                for j, column in enumerate(columns):
                    for point, amplitude in column.items():
                        reduced[rows[point], j] = amplitude
                expected = reduced.conj().T @ reduced
            assert gram_matrix(state, basis).tobytes() == expected.tobytes()


# -- the point and frequency key ---------------------------------------------

def key_cases() -> list:
    """Rationals from 1 to 10**300 in size, and denominators that are
    multiples of the hash modulus (the fallback hash path)."""
    cases = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, MODULUS),
             Fraction(-5, 3 * MODULUS), Fraction(7, MODULUS**2), Fraction(-MODULUS),
             Fraction(MODULUS - 1, MODULUS + 1), Fraction(10**300 + 1, 7 * MODULUS)]
    rng = random.Random(13)
    for scale in (1, 10, 10**8, 10**100, 10**300):
        cases += [rational(rng, scale) for _ in range(30)]
    return cases


def test_key_is_its_fraction():
    import pickle

    cases = key_cases()
    keys = [RationalIndex(f) for f in cases]
    for key, f in zip(keys, cases):
        assert hash(key) == hash(f), f
        assert key == f and f == key and not key != f
        assert (key.numerator, key.denominator) == (f.numerator, f.denominator)
        assert str(key) == str(f) and float(key) == float(f) and bool(key) == bool(f)
        negated = -key
        assert type(negated) is RationalIndex and negated == -f and hash(negated) == hash(-f)
        copied = pickle.loads(pickle.dumps(key))
        assert type(copied) is RationalIndex and copied == key and hash(copied) == hash(key)
        assert RationalIndex(str(f)) == key and RationalIndex(key) == key
        for n in (0, 1, -2, 10**300):
            assert (key == n) == (f == n) and (n == key) == (n == f)
            assert (key < n) == (f < n) and (n < key) == (n < f)
    for key, f in zip(keys, cases):
        for other_key, other in zip(keys[::7], cases[::7]):
            assert (key == other_key) == (f == other)
            assert (key < other_key) == (f < other) and (key > other_key) == (f > other)
            assert (key <= other) == (f <= other) and (other < key) == (other < f)
            total = key + other_key
            assert type(total) is RationalIndex and total == f + other
            assert hash(total) == hash(f + other)
            assert key + other == f + other == other + key
    assert sorted(keys) == sorted(cases)


# -- points and frequencies against the Fraction route -----------------------
# The package's operations as they computed on ``Fraction`` keys, on dicts.

def prune(amplitudes: dict) -> dict:
    return {key: c for key, c in amplitudes.items() if abs(c) > PRUNE_TOL}


def reference_phased(v: dict, t: Fraction) -> dict:
    return prune({p: c * phase(t * p) for p, c in v.items()})


def reference_shifted(v: dict, t: Fraction) -> dict:
    return prune({p + t: c for p, c in v.items()})


def reference_apply_element(x: WeylElement, v: dict, flavor: str) -> dict:
    total = {}
    for (a, b), c in x.terms.items():
        if flavor == "position":
            moved = reference_phased(reference_shifted(v, -b), a)
        else:
            moved = reference_shifted(reference_phased(v, b), a)
        for point, amp in moved.items():
            total[point] = total.get(point, 0j) + c * amp
    return prune(total)


def reference_inner(u: dict, v: dict) -> complex:
    small, large = (u, v) if len(u) <= len(v) else (v, u)
    total = 0j
    for point in small:
        if point in large:
            total += u[point].conjugate() * v[point]
    return total


def reference_trig_product(f: dict, g: dict) -> dict:
    out = {}
    for f1, c1 in f.items():
        for f2, c2 in g.items():
            freq = f1 + f2
            out[freq] = out.get(freq, 0j) + c1 * c2
    return prune(out)


def reference_conjugate(f: dict) -> dict:
    return prune({-a: c.conjugate() for a, c in f.items()})


def reference_translate(f: dict, t: Fraction) -> dict:
    return prune({a: c * phase(a * t) for a, c in f.items()})


def reference_evaluate_at(f: dict, x: Fraction) -> complex:
    return sum((c * phase(a * x) for a, c in f.items()), 0j)


def reference_reduce(state, word: WeylElement) -> dict:
    """The point-model rows keyed by ``Fraction(n, d)``, merged as a map's
    constructor merges them (from 0j)."""
    rows, flat = _point_rows(state, [word])
    return prune({Fraction(n, d): 0j + flat[row] for (n, d), row in rows.items()})


def keyed_bits(amplitudes) -> list:
    """(key, bits) in the map's order."""
    return [(key, bits(c)) for key, c in amplitudes.items()]


def sparse_dicts(rng: random.Random, scale: int, count: int) -> list:
    """``count`` maps of 1-5 keys over a 6-value alphabet, so that they meet."""
    alphabet = [rational(rng, scale) for _ in range(6)]
    return [{key: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for key in rng.sample(alphabet, rng.randint(1, 5))} for _ in range(count)]


ROUTE_SCALES = (1, 10**8, 10**300)  # at 10**300 the angles pass 2**1023


def test_point_model_equals_the_fraction_route():
    rng = random.Random(14)
    for scale in ROUTE_SCALES:
        for flavor in ("position", "momentum"):
            dicts = sparse_dicts(rng, scale, 8)
            vectors = [FiniteSupportVector(d, flavor) for d in dicts]
            for v, d in zip(vectors, dicts):
                assert all(type(key) is RationalIndex for key in v.amplitudes)
                t = rational(rng, scale)
                phased = v._phased(t.numerator, t.denominator)
                shifted = reps._shifted(v, t.numerator, t.denominator)
                assert all(type(key) is RationalIndex for key in shifted.amplitudes)
                assert keyed_bits(phased.amplitudes) == keyed_bits(reference_phased(d, t))
                assert keyed_bits(shifted.amplitudes) == keyed_bits(reference_shifted(d, t))
                for x in words(rng, scale, 3):
                    assert keyed_bits(reps.apply_element(x, v).amplitudes) == \
                        keyed_bits(reference_apply_element(x, d, flavor))
                for w, e in zip(vectors, dicts):
                    assert bits(reps.inner(v, w)) == bits(reference_inner(d, e))


def test_polynomials_equal_the_fraction_route():
    rng = random.Random(15)
    for scale in ROUTE_SCALES:
        dicts = sparse_dicts(rng, scale, 8)
        polys = [TrigPolynomial(d) for d in dicts]
        for f, d in zip(polys, dicts):
            t = rational(rng, scale)
            assert keyed_bits(f.conjugate().coefficients) == keyed_bits(reference_conjugate(d))
            assert keyed_bits(f.translate(t).coefficients) == \
                keyed_bits(reference_translate(d, t))
            assert bits(f.evaluate_at(t)) == bits(reference_evaluate_at(d, t))
            for g, e in zip(polys, dicts):
                assert keyed_bits((f * g).coefficients) == \
                    keyed_bits(reference_trig_product(d, e))


def test_reduce_equals_the_fraction_route():
    rng = random.Random(16)
    for scale in ROUTE_SCALES:
        for state in states_at(rng, scale)[:2]:
            for x in words(rng, scale, 10):
                assert keyed_bits(gns._reduce(GnsVector(x, state)).amplitudes) == \
                    keyed_bits(reference_reduce(state, x))


# -- no Fraction on the hot paths --------------------------------------------

class FractionCounter:
    """Counts the ``Fraction``s constructed and hashed while it is entered."""

    def __enter__(self):
        self.built = self.hashed = 0
        self._saved = Fraction.__dict__["__new__"], Fraction.__dict__["__hash__"]
        new, hash_ = Fraction.__new__, Fraction.__hash__

        def counting_new(cls, *args, **kwargs):
            self.built += 1
            return new(cls, *args, **kwargs)

        def counting_hash(value):
            self.hashed += 1
            return hash_(value)

        Fraction.__new__ = staticmethod(counting_new)
        Fraction.__hash__ = counting_hash
        return self

    def __exit__(self, *exc_info):
        Fraction.__new__, Fraction.__hash__ = self._saved


def test_hot_paths_construct_and_hash_no_fraction():
    rng = random.Random(17)
    scale = 10**8
    states = states_at(rng, scale)[:2]
    word = words(rng, scale, 1)[0]
    shift = rational(rng, scale)
    vectors = [FiniteSupportVector(d, flavor) for flavor in ("position", "momentum")
               for d in sparse_dicts(rng, scale, 2)]
    f, g = (TrigPolynomial(d) for d in sparse_dicts(rng, scale, 2))
    with FractionCounter() as counter:
        for v in vectors:
            reps.apply_U(shift, v)
            reps.apply_V(shift, v)
            reps.apply_element(word, v)
            reps.inner(v, v)
            v + v
            vector_to_records(v)
        reps.basis_vector(shift)
        (f * g).conjugate().translate(shift).evaluate_at(shift)
        f.invariant_mean()
        trig_generator(shift)
        trig_to_records(f - g)
        for state in states:
            gns._reduce(GnsVector(word, state))
    assert (counter.built, counter.hashed) == (0, 0)
    # the counter sees a Fraction made and hashed as it is entered again
    with FractionCounter() as counter:
        hash(Fraction(1, 3))
    assert (counter.built, counter.hashed) == (1, 1)


#: the tests that need a module besides the standard library
NEEDS = {
    "test_phase_ratio_past_the_float_range_is_the_mpmath_phase_however_unreduced": "mpmath",
    "test_gram_matrix_equals_the_fraction_route": "numpy",
}

if __name__ == "__main__":
    import importlib.util

    names = []
    for name in list(globals()):
        if name.startswith("test_"):
            module = NEEDS.get(name)
            if module is None or importlib.util.find_spec(module) is not None:
                names.append(name)
            else:
                print(f"{module} is missing: {name} not run")
    for name in names:
        globals()[name]()
    print(f"{len(names)} label checks passed on Python {sys.version.split()[0]}")
