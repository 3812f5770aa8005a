"""The seeded draws of ``verify`` and the exchange phases, pinned against a ``Fraction`` route.

``verify`` draws its rationals as integers (``_rand_ratio``) and builds its
keys, labels and phases from them.  These tests check that those draws make
the same RNG calls, in the same order, as a copy of the ``Fraction`` draw
kept here as the reference: equal values and equal RNG states after 2,000
draws, for every range the suites use and more.  They check too that the
public generators return the reference's values, and that
``reps.weyl_relation_check`` and ``gns._chain_gap``, which take their phase
with ``phase_ratio`` on integer products, return bit for bit the floats of
the ``Fraction`` route.

The file needs neither pytest nor numpy; run it as a script to check the
draws on an interpreter without them:

    PYTHONPATH=src python3 tests/test_draws.py

``tests/test_scripts.py`` runs it so, where neither can be imported.
"""

import random
import sys
from fractions import Fraction

from weylreps import gns, reps
from weylreps.algebra import WeylElement, WeylIndex, phase
from weylreps.almost_periodic import TrigPolynomial
from weylreps.reps import MOMENTUM, POSITION, apply_U, apply_V, basis_vector, inner
from weylreps.verify import (_rand_index, _rand_key, _rand_ratio, rand_coeff, rand_element,
                             rand_fraction, rand_trig)

DRAWS = 2000
SAMPLES = 500


# -- the Fraction route ------------------------------------------------------

def reference_fraction(rng, max_abs=10, max_den=12, nonzero=False) -> Fraction:
    while True:
        den = rng.randint(1, max_den)
        value = Fraction(rng.randint(-max_abs * den, max_abs * den), den)
        if value or not nonzero:
            return value


def reference_element(rng, max_terms=3) -> WeylElement:
    return WeylElement({
        WeylIndex(reference_fraction(rng, 5, 6), reference_fraction(rng, 5, 6)): rand_coeff(rng)
        for _ in range(rng.randint(1, max_terms))
    })


def reference_trig(rng, n_terms) -> TrigPolynomial:
    coeffs = {Fraction(0): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))}
    while len(coeffs) < n_terms:
        freq = reference_fraction(rng, 3, 8, nonzero=True)
        coeffs[freq] = rand_coeff(rng)
    return TrigPolynomial(coeffs)


def reference_weyl_relation_check(a, b, point, flavor) -> float:
    phi = basis_vector(point, flavor)
    lhs = apply_U(a, apply_V(b, phi))
    rhs = phase(-a * b) * apply_V(b, apply_U(a, phi))
    return (lhs - rhs).max_amplitude()


def reference_chain_gap(phi, s, t) -> float:
    phased, translate = (apply_U, apply_V) if phi.flavor == POSITION else (apply_V, apply_U)
    lhs = inner(phi, phased(-s, translate(t, phased(s, phi))))
    return abs(lhs - phase(s * t) * inner(phi, translate(t, phi)))


# -- the draws ---------------------------------------------------------------

RANGES = [(max_abs, max_den, nonzero)
          for max_abs in (3, 5, 10) for max_den in (2, 6, 8, 12) for nonzero in (False, True)]


def test_integer_draws_are_the_fraction_draws_and_leave_the_rng_where_it_left_it():
    for seed, (max_abs, max_den, nonzero) in enumerate(RANGES):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(DRAWS):
            num, den = _rand_ratio(rng, max_abs, max_den, nonzero)
            want = reference_fraction(reference, max_abs, max_den, nonzero)
            # lowest terms with a positive denominator: the Fraction's own integers
            assert (num, den) == (want.numerator, want.denominator), (max_abs, max_den, nonzero)
            assert not nonzero or num
        assert rng.getstate() == reference.getstate(), (max_abs, max_den, nonzero)


def test_keys_labels_and_public_generators_equal_the_fraction_route():
    rng, reference = random.Random(11), random.Random(11)
    for _ in range(DRAWS):
        key = _rand_key(rng, 3, 8, nonzero=True)
        assert key == reference_fraction(reference, 3, 8, nonzero=True)
        assert hash(key) == hash(Fraction(key.numerator, key.denominator))
        index = _rand_index(rng, 5, 6)
        want = WeylIndex(reference_fraction(reference, 5, 6), reference_fraction(reference, 5, 6))
        # the same integers on the same least common denominator
        assert (index._pa, index._pb, index._q, hash(index)) == (
            want._pa, want._pb, want._q, hash(want))
        value = rand_fraction(rng)
        assert type(value) is Fraction and value == reference_fraction(reference)
        assert rand_element(rng) == reference_element(reference)
        assert rand_trig(rng, 4) == reference_trig(reference, 4)
    assert rng.getstate() == reference.getstate()


# -- the exchange phases -----------------------------------------------------

def samples(seed: int):
    """``SAMPLES`` seeded triples of rationals; every other one far past angle 1."""
    rng = random.Random(seed)
    for k in range(SAMPLES):
        max_abs = 10 if k % 2 else 10**8
        yield tuple(reference_fraction(rng, max_abs, 12) for _ in range(3))


def test_weyl_relation_check_is_the_fraction_route_bit_for_bit():
    for flavor in (POSITION, MOMENTUM):
        for a, b, point in samples(3):
            got = reps.weyl_relation_check(a, b, point, flavor)
            assert got == reference_weyl_relation_check(a, b, point, flavor), (a, b, point)
            # a key, an int or a string reads as the same rational
            assert reps.weyl_relation_check(str(a), str(b), point, flavor) == got


def test_chain_gap_is_the_fraction_route_bit_for_bit():
    for flavor in (POSITION, MOMENTUM):
        for s, t, point in samples(4):
            phi = basis_vector(point, flavor)
            assert gns._chain_gap(phi, s, t) == reference_chain_gap(phi, s, t), (s, t, point)


if __name__ == "__main__":
    names = [name for name in list(globals()) if name.startswith("test_")]
    for name in names:
        globals()[name]()
    print(f"{len(names)} draw checks passed on Python {sys.version.split()[0]}")
