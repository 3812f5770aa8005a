"""Property registry behind the ``verify`` command and the acceptance tests.

Each property is one function that takes a seeded ``random.Random`` and its
sample sizes and returns one :class:`CheckResult`; each tolerance is one
named constant.  A suite is a fixed list of calls on one RNG.  ``states``
arguments are a sharp-position, a sharp-momentum and the vacuum state, in
that order; the oracle properties take the grid wavefunction they test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Sequence

from . import almost_periodic as ap
from . import gns, reps, schrodinger
from .algebra import (EXACT_TOL, RationalIndex, Record, WeylElement, WeylIndex, _index,
                      _rational, generator, identity, phase_ratio)
from .states import (BROKEN_DIRECTION, StateFunctional, gram_matrix, least_eigenvalue,
                     momentum_state, position_state, vacuum_state)

SUM_TOL = 1e-10  # associativity of 3-term products; Cauchy-Schwarz excess
NORM_TOL = 1e-9  # l1 submultiplicativity; squares of the sup-norm bounds
PSD_FLOOR = -1e-10  # least Gram eigenvalue a state may show
GRID_NORM_TOL = 1e-8  # ground state normalised on the default grid
ORACLE_TOL = 1e-6  # Gaussian state formula against grid quadrature
DISPERSION_TOL = 1e-3  # dispersion products against 1/2
TONE_TOL = 2e-3  # truncated average of a pure tone at AVERAGE_N
RATIO_TOL = 0.05  # halving ratios against 1/2

AVERAGE_N = 1000.0  # half-length of the truncated averages

States = Sequence[StateFunctional]


class CheckResult(Record):
    _fields = ("suite", "name", "passed", "detail")


def _rand_ratio(rng: random.Random, max_abs: int = 10, max_den: int = 12,
                nonzero: bool = False) -> tuple[int, int]:
    """The integers (num, den), in lowest terms, of one seeded rational draw.

    ``den`` is uniform in [1, max_den], then ``num`` in [-max_abs den,
    max_abs den], both drawn again while ``num`` is 0 if ``nonzero``.  Each
    is one ``randrange(lo, hi + 1)``, the call ``randint(lo, hi)`` makes, so
    every generator of this module draws the stream of ``randint``.
    """
    randrange = rng.randrange
    while True:
        den = randrange(1, max_den + 1)
        bound = max_abs * den
        num = randrange(-bound, bound + 1)
        if num or not nonzero:
            g = math.gcd(num, den)
            return num // g, den // g


def _rand_key(rng: random.Random, max_abs: int = 10, max_den: int = 12,
              nonzero: bool = False) -> RationalIndex:
    """:func:`rand_fraction`'s value as a ``RationalIndex``, built from the integers."""
    return _rational(*_rand_ratio(rng, max_abs, max_den, nonzero))


def _rand_index(rng: random.Random, max_abs: int = 10, max_den: int = 12) -> WeylIndex:
    """``WeylIndex`` of two :func:`rand_fraction` draws, on their least common
    denominator as ``WeylIndex`` puts it."""
    pa, qa = _rand_ratio(rng, max_abs, max_den)
    pb, qb = _rand_ratio(rng, max_abs, max_den)
    q = qa // math.gcd(qa, qb) * qb
    return _index(pa * (q // qa), pb * (q // qb), q)


def rand_fraction(rng: random.Random, max_abs: int = 10, max_den: int = 12,
                  nonzero: bool = False) -> Fraction:
    return Fraction(*_rand_ratio(rng, max_abs, max_den, nonzero))


def rand_coeff(rng: random.Random) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def rand_element(rng: random.Random, max_terms: int = 3) -> WeylElement:
    return WeylElement({
        _rand_index(rng, 5, 6): rand_coeff(rng) for _ in range(rng.randint(1, max_terms))
    })


def rand_trig(rng: random.Random, n_terms: int) -> ap.TrigPolynomial:
    coeffs = {_rational(0, 1): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))}
    while len(coeffs) < n_terms:
        freq = _rand_key(rng, 3, 8, nonzero=True)  # drawn before its coefficient
        coeffs[freq] = rand_coeff(rng)
    return ap.TrigPolynomial(coeffs)


def _rand_generator(rng: random.Random) -> WeylElement:
    return WeylElement({_rand_index(rng): 1.0 + 0j})


def _deviation(suite: str, name: str, dev: float, tol: float = EXACT_TOL,
               label: str = "max deviation") -> CheckResult:
    return CheckResult(suite, name, dev < tol, f"{label} {dev:.2e}")


def _halves(values: Sequence[float]) -> bool:
    """Each value is half the one before it, within RATIO_TOL."""
    return all(abs(later / earlier - 0.5) < RATIO_TOL
               for earlier, later in zip(values, values[1:]))


def exchange_relation(rng: random.Random, pairs: int) -> CheckResult:
    dev = 0.0
    for _ in range(pairs):
        a = _rand_key(rng)
        b = _rand_key(rng)
        lhs = generator(a, 0) * generator(0, b)
        rhs = phase_ratio(-a._p * b._p, a._q * b._q) * (generator(0, b) * generator(a, 0))
        dev = max(dev, (lhs - rhs).max_coeff())
    return _deviation("algebra", f"exchange relation, {pairs} random rational pairs", dev)


def associativity(rng: random.Random, triples: int) -> CheckResult:
    dev = 0.0
    for _ in range(triples):
        x, y, z = (rand_element(rng) for _ in range(3))
        dev = max(dev, ((x * y) * z - x * (y * z)).max_coeff())
    return _deviation("algebra", "associativity on random 3-term elements", dev, SUM_TOL)


def star_laws(rng: random.Random, pairs: int) -> CheckResult:
    dev = 0.0
    index_ok = True
    for _ in range(pairs):
        x, y = rand_element(rng), rand_element(rng)
        lhs = (x * y).adjoint()
        rhs = y.adjoint() * x.adjoint()
        index_ok = index_ok and set(lhs.terms) == set(rhs.terms)
        dev = max(dev, (lhs - rhs).max_coeff())
        double = x.adjoint().adjoint()
        index_ok = index_ok and set(double.terms) == set(x.terms)
        dev = max(dev, (double - x).max_coeff())
    return CheckResult(
        "algebra", "star laws: (xy)* = y*x* and x** = x",
        index_ok and dev < EXACT_TOL, f"max deviation {dev:.2e}, indices exact: {index_ok}")


def group_law(rng: random.Random, pairs: int) -> CheckResult:
    ok = True
    worst = 0.0
    for _ in range(pairs):
        a, b = _rand_key(rng), _rand_key(rng)
        a2, b2 = _rand_key(rng), _rand_key(rng)
        product = generator(a, b) * generator(a2, b2)
        terms = dict(product.terms)
        ok = ok and list(terms) == [WeylIndex(a + a2, b + b2)]
        worst = max(worst, abs(abs(next(iter(terms.values()))) - 1.0))
    return CheckResult(
        "algebra", "group law: single product term with unit-modulus phase",
        ok and worst < EXACT_TOL, f"modulus off by {worst:.2e}")


def conjugation_identity(rng: random.Random, pairs: int) -> CheckResult:
    """Both identities on the drawn pairs, then on gns.DEFAULT_PROBES squared."""
    drawn = [(_rand_key(rng), _rand_key(rng)) for _ in range(pairs)]
    probes = [RationalIndex(t) for t in gns.DEFAULT_PROBES]
    grid = [(a, b) for a in probes for b in probes]
    dev = 0.0
    for a, b in drawn + grid:
        p, q = a._p * b._p, a._q * b._q
        left = generator(0, -b) * generator(a, 0) * generator(0, b)
        dev = max(dev, (left - phase_ratio(-p, q) * generator(a, 0)).max_coeff())
        left = generator(-a, 0) * generator(0, b) * generator(a, 0)
        dev = max(dev, (left - phase_ratio(p, q) * generator(0, b)).max_coeff())
    return _deviation("algebra", "conjugation identities V_-b U_a V_b = exp(-iab) U_a"
                      " and U_-a V_b U_a = exp(iab) V_b", dev)


def l1_submultiplicative(rng: random.Random, pairs: int) -> CheckResult:
    worst = 0.0
    for _ in range(pairs):
        x, y = rand_element(rng), rand_element(rng)
        worst = max(worst, (x * y).l1_bound() - x.l1_bound() * y.l1_bound())
    return CheckResult(
        "algebra", "l1 bound submultiplicative",
        worst <= NORM_TOL, f"worst excess {worst:.2e}")


def unitarity(rng: random.Random, vectors: int) -> CheckResult:
    dev = 0.0
    for flavor in reps.FLAVORS:
        for _ in range(vectors):
            a = _rand_key(rng)
            u = reps.FiniteSupportVector(
                {_rand_key(rng): rand_coeff(rng) for _ in range(3)}, flavor)
            v = reps.FiniteSupportVector(
                {_rand_key(rng): rand_coeff(rng) for _ in range(3)}, flavor)
            before = reps.inner(u, v)
            dev = max(dev, abs(reps.inner(reps.apply_U(a, u), reps.apply_U(a, v)) - before))
            dev = max(dev, abs(reps.inner(reps.apply_V(a, u), reps.apply_V(a, v)) - before))
    return _deviation("reps", "unitarity: U and V preserve inner products, both flavors", dev)


def sharp_eigenvectors(rng: random.Random, pairs: int) -> CheckResult:
    dev = 0.0
    keys_ok = True
    for _ in range(pairs):
        a = _rand_key(rng)
        lam = _rand_key(rng)
        moved = reps.apply_U(a, reps.basis_vector(lam))
        keys_ok = keys_ok and set(moved.amplitudes) == {lam}
        dev = max(dev, abs(moved.amplitudes[lam] - phase_ratio(a._p * lam._p, a._q * lam._q)))
    return CheckResult(
        "reps", "sharp eigenvectors: U_a phi_x = exp(iax) phi_x",
        keys_ok and dev < EXACT_TOL, f"keys exact: {keys_ok}, phase off {dev:.2e}")


def basis_exchange_relation(rng: random.Random, triples: int,
                            flavors: Sequence[str] = reps.FLAVORS) -> CheckResult:
    dev = 0.0
    for flavor in flavors:
        for _ in range(triples):
            dev = max(dev, reps.weyl_relation_check(
                _rand_key(rng), _rand_key(rng), _rand_key(rng), flavor))
    which = "both flavors" if len(flavors) == 2 else f"{flavors[0]} flavor"
    return _deviation("reps", f"exchange relation on random basis vectors, {which}", dev)


def shifted_diagonal(rng: random.Random, shifts: int) -> CheckResult:
    exact = True
    for _ in range(shifts):
        b = _rand_key(rng, nonzero=True)
        lam = _rand_key(rng)
        exact = exact and reps.v_direction_matrix_element(b, lam) == 0
        exact = exact and reps.u_direction_matrix_element(b, lam) == 0
    exact = exact and reps.v_direction_matrix_element(Fraction(1, 10**6), Fraction(5)) == 0
    exact = exact and reps.v_direction_matrix_element(0, Fraction(5)) == 1
    return CheckResult(
        "reps", "diagonal elements of the shifted family: exact indicator of 0",
        exact, "includes probe 1/1000000")


def finite_differences(rng: random.Random, points: int, halvings: int) -> CheckResult:
    ok = True
    for _ in range(points):
        phi = reps.basis_vector(_rand_key(rng, nonzero=True))
        target = reps.apply_Q(phi)
        errors = [(reps.finite_difference_generator(Fraction(1, 2**k), phi) - target).norm()
                  for k in range(8, 9 + halvings)]
        ok = ok and _halves(errors)
    return CheckResult(
        "reps", "finite differences converge to the generator, first order",
        ok, f"halving the step halves the error (ratio 0.5 +/- {RATIO_TOL})")


def typed_refusal() -> CheckResult:
    refused = 0
    for apply, flavor in ((reps.apply_Q, reps.MOMENTUM), (reps.apply_P, reps.POSITION)):
        try:
            apply(reps.basis_vector(0, flavor))
        except reps.NonexistentObservableError:
            refused += 1
    return CheckResult(
        "reps", "typed refusal of the nonexistent generator, both flavors",
        refused == 2, "NonexistentObservableError raised")


def conjugation_chain(rng: random.Random, samples: int) -> CheckResult:
    """The conjugation chain of the eigenvector proof, on sharp eigenvectors.

    Literal on the momentum side, with the roles of U and V swapped on the
    position side.  No suite runs it.
    """
    dev = 0.0
    for _ in range(samples):
        a, b = _rand_key(rng), _rand_key(rng)
        phi = reps.basis_vector(_rand_key(rng), reps.MOMENTUM)
        dev = max(dev, gns._chain_gap(phi, b, a))
        dev = max(dev, gns._chain_gap(reps.basis_vector(_rand_key(rng)), a, b))
    return _deviation("reps", "conjugation chain on the sharp eigenvectors of both models", dev)


def representation_property(rng: random.Random, states: States, pairs: int) -> CheckResult:
    dev = 0.0
    for state in states:
        omega = gns.cyclic_vector(state)
        for _ in range(pairs):
            x, y = rand_element(rng), rand_element(rng)
            direct = gns.gns_apply(x * y, omega)
            staged = gns.gns_apply(x, gns.gns_apply(y, omega))
            dev = max(dev, gns.gns_norm(direct - staged))
    return _deviation("gns", "representation property pi(xy) = pi(x)pi(y) on the cyclic vector",
                      dev, label="max norm gap")


def isometric_generators(rng: random.Random, states: States, vectors: int) -> CheckResult:
    dev = 0.0
    for state in states:
        omega = gns.cyclic_vector(state)
        for _ in range(vectors):
            v = gns.gns_apply(rand_element(rng), omega)
            moved = gns.gns_apply(_rand_generator(rng), v)
            dev = max(dev, abs(gns.gns_norm(moved) - gns.gns_norm(v)))
    return _deviation("gns", "generators act isometrically", dev, label="max norm drift")


def cauchy_schwarz(rng: random.Random, states: States, pairs: int) -> CheckResult:
    worst = 0.0
    for state in states:
        omega = gns.cyclic_vector(state)
        for _ in range(pairs):
            u = gns.gns_apply(rand_element(rng), omega)
            v = gns.gns_apply(rand_element(rng), omega)
            excess = abs(gns.gns_inner(u, v)) - gns.gns_norm(u) * gns.gns_norm(v)
            worst = max(worst, excess)
    return CheckResult(
        "gns", "Cauchy-Schwarz inequality",
        worst <= SUM_TOL, f"worst excess {worst:.2e}")


def eigenvector_witnesses(rng: random.Random, points: int) -> CheckResult:
    lam_probes = [_rand_key(rng) for _ in range(points)]
    witnesses = [gns.eigenvector_witness(position_state(lam)) for lam in lam_probes]
    witnesses += [gns.eigenvector_witness(momentum_state(lam)) for lam in lam_probes]
    return CheckResult(
        "gns", "eigenvector obstruction witness, position and momentum",
        all(w.passed for w in witnesses),
        f"{len(witnesses)} witnesses, all diagonal elements exactly 0 away from 0")


def word_geometry(rng: random.Random, points: int, words: int) -> CheckResult:
    dev = 0.0
    for _ in range(points):
        lam = _rand_key(rng)
        dev = max(dev, gns.equivalence_check(lam, [rand_element(rng) for _ in range(words)]))
    return _deviation("gns", "word geometry matches the sharp-point model", dev,
                      label="max inner-product gap")


def states_bounded(rng: random.Random, states: States, generators: int) -> CheckResult:
    normalised = True
    bounded = 0.0
    for state in states:
        normalised = normalised and state(identity()) == 1
        for _ in range(generators):
            bounded = max(bounded, abs(state(_rand_generator(rng))) - 1.0)
    return CheckResult(
        "gns", "states normalised and bounded by one on generators",
        normalised and bounded <= EXACT_TOL, f"worst modulus excess {bounded:.2e}")


def gram_positivity(rng: random.Random, states: States, bases: int) -> CheckResult:
    """Least Gram eigenvalue over random generator bases.

    A sharp state's Gram matrix is ``R^H R``, positive by construction, so
    for those bases the factorisation is also checked against the kernel
    route: the largest |gram_matrix - gns_inner| over the upper triangle.
    """
    min_eig = gap = 0.0
    for state in states:
        sharp = state.kind in BROKEN_DIRECTION
        for _ in range(bases):
            basis = [_rand_generator(rng) for _ in range(rng.randint(1, 8))]
            gram = gram_matrix(state, basis)
            min_eig = min(min_eig, least_eigenvalue(gram))
            if sharp:
                gap = max(gap, _gram_gap(state, basis, gram.tolist()))
    return CheckResult(
        "gns", f"Gram matrices positive semidefinite, {bases} random bases per state",
        min_eig >= PSD_FLOOR and gap <= EXACT_TOL,
        f"min eigenvalue {min_eig:.2e}, sharp Gram gap to gns_inner {gap:.2e}")


def _gram_gap(state: StateFunctional, basis: list[WeylElement],
              cells: list[list[complex]]) -> float:
    vectors = [gns.GnsVector(x, state) for x in basis]
    return max(abs(cells[i][j] - gns.gns_inner(u, v))
               for i, u in enumerate(vectors) for j, v in enumerate(vectors[i:], i))


def regularity_fingerprints(states: States) -> CheckResult:
    prints = [gns.regularity_fingerprint(s) for s in states]
    expected = [(True, False), (False, True), (True, True)]
    return CheckResult(
        "gns", "regularity fingerprints pairwise distinct",
        prints == expected and len(set(prints)) == 3, f"{prints}")


def continuity_scans(states: States) -> CheckResult:
    grid = [Fraction(0), Fraction(1, 8), Fraction(1, 64)]
    scan_ok = True
    for state, direction in zip(states, ("V", "U")):
        scan = gns.continuity_scan(state, direction, grid)
        scan_ok = scan_ok and scan[0][1] == 1 and all(value == 0 for _, value in scan[1:])
    vac_ok = True
    for t in (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)):
        for direction in ("U", "V"):
            (_, value), = gns.continuity_scan(states[2], direction, [t])
            vac_ok = vac_ok and abs(value - 1) <= 2 * float(t)
    return CheckResult(
        "gns", "scans: sharp states collapse to the indicator, vacuum stays continuous",
        scan_ok and vac_ok, "broken-direction scans exactly {1 at 0, 0 elsewhere}")


def star_algebra(rng: random.Random, pairs: int) -> CheckResult:
    dev = 0.0
    star_ok = True
    for _ in range(pairs):
        f, g = rand_trig(rng, 3), rand_trig(rng, 3)
        dev = max(dev, ((f * g) - (g * f)).max_coeff())
        lhs = (f * g).conjugate()
        rhs = g.conjugate() * f.conjugate()
        star_ok = star_ok and set(lhs.coefficients) == set(rhs.coefficients)
        dev = max(dev, (lhs - rhs).max_coeff())
    return CheckResult(
        "ap", "commutative star algebra of characters",
        star_ok and dev < EXACT_TOL, f"max deviation {dev:.2e}")


def mean_positive(rng: random.Random, polys: int) -> CheckResult:
    ok = True
    for _ in range(polys):
        f = rand_trig(rng, 4)
        mean = (f.conjugate() * f).invariant_mean()
        ok = ok and mean.imag == 0.0 and mean.real >= 0.0
    return CheckResult(
        "ap", "mean of f* f is exactly real and nonnegative",
        ok, "positivity of the invariant mean")


def mean_translation_invariant(rng: random.Random, polys: int) -> CheckResult:
    ok = True
    for _ in range(polys):
        f = rand_trig(rng, 4)
        ok = ok and f.translate(_rand_key(rng)).invariant_mean() == f.invariant_mean()
    return CheckResult(
        "ap", "translation invariance of the mean, exact",
        ok, "frequency-0 coefficient untouched")


def mean_truncation(rng: random.Random, polys: int) -> CheckResult:
    ok = True
    for _ in range(polys):
        f = rand_trig(rng, 5)
        gap = abs(schrodinger.mean_quadrature(f, AVERAGE_N) - f.invariant_mean())
        ok = ok and gap <= schrodinger.truncation_bound(f, AVERAGE_N)
    return CheckResult(
        "ap", "exact mean matches the truncated average within the analytic bound",
        ok, f"{polys} random 5-term polynomials at N={AVERAGE_N:g}")


def evaluation_multiplicative(rng: random.Random, pairs: int) -> CheckResult:
    dev = 0.0
    for _ in range(pairs):
        f, g = rand_trig(rng, 3), rand_trig(rng, 3)
        x = _rand_key(rng)
        dev = max(dev, abs((f * g).evaluate_at(x) - f.evaluate_at(x) * g.evaluate_at(x)))
    return _deviation("ap", "evaluation functionals are multiplicative", dev)


def mean_kills_characters(rng: random.Random, chars: int) -> CheckResult:
    exact = all(
        ap.trig_generator(_rand_key(rng, nonzero=True)).invariant_mean() == 0
        and ap.trig_generator(_rand_key(rng, nonzero=True)).invariant_mean() == 0
        for _ in range(chars)
    ) and ap.trig_generator(0).invariant_mean() == 1
    return CheckResult(
        "ap", "mean kills every nontrivial character, exactly",
        exact, "Fourier data of the invariant measure")


def momentum_fourier(rng: random.Random, points: int, probes: int) -> CheckResult:
    ok = True
    for _ in range(points):
        lam = _rand_key(rng)
        shifts = [_rational(0, 1)] + [_rand_key(rng, nonzero=True) for _ in range(probes - 1)]
        ok = ok and all(reps.v_direction_matrix_element(a, lam)
                        == ap.trig_generator(a).invariant_mean() for a in shifts)
    return CheckResult(
        "ap", "momentum spectral data in a sharp-position vector equals the mean's",
        ok, f"{points} points x {probes} probes, exact equality")


def sup_norm_brackets(rng: random.Random, polys: int) -> CheckResult:
    ok = True
    for _ in range(polys):
        f = rand_trig(rng, 4)
        low, high = f.sup_norm_bounds()
        low2, high2 = (f.conjugate() * f).sup_norm_bounds()
        ok = ok and low <= high + EXACT_TOL and low**2 <= high2 + NORM_TOL \
            and low2 <= high**2 + NORM_TOL
    return CheckResult(
        "ap", "certified sup-norm bounds bracket and square consistently",
        ok, "lower <= sup <= l1; bounds of f*f vs square of bounds")


def ground_state_normalised(psi0) -> CheckResult:
    off = abs(psi0.norm() - 1)
    density_mean = abs(schrodinger.characteristic_function(psi0, 0, 0) - 1)
    return CheckResult(
        "oracle", "ground state normalised on the default grid",
        off < GRID_NORM_TOL and density_mean < GRID_NORM_TOL, f"norm off by {off:.2e}")


def vacuum_oracle(psi0) -> CheckResult:
    worst = 0.0
    vac = vacuum_state()
    for a in range(-2, 3):
        for b in range(-2, 3):
            formula = vac.generator_value(Fraction(a), Fraction(b))
            worst = max(worst, abs(formula - schrodinger.characteristic_function(psi0, a, b)))
    return CheckResult(
        "oracle", "Gaussian state formula agrees with quadrature on the 5x5 grid",
        worst <= ORACLE_TOL, f"max gap {worst:.2e}")


def dispersion_family(psi0) -> CheckResult:
    packet, superpose = schrodinger.gaussian_packet, schrodinger.superpose
    gaussians = [
        psi0,
        packet(width=2.0),
        packet(width=0.5),
        packet(center=1.0),
        packet(center=-2.0),
        packet(momentum=1.0),
        packet(center=1.0, momentum=-1.0),
    ]
    bumps = [
        superpose(packet(center=-1.0), packet(center=1.0)),
        superpose(packet(center=-2.0), packet(center=2.0)),
        superpose(packet(center=-1.5, momentum=1.0), packet(center=1.5)),
    ]
    products = [schrodinger.dispersion_product(psi) for psi in gaussians + bumps]
    lower_ok = all(p >= 0.5 - DISPERSION_TOL for p in products)
    saturated = all(abs(p - 0.5) <= DISPERSION_TOL for p in products[:len(gaussians)])
    return CheckResult(
        "oracle", f"dispersion product >= 1/2 on the {len(products)}-member family",
        lower_ok and saturated,
        f"min {min(products):.6f}, Gaussians saturate within 1e-3")


def point_localisation(psi) -> CheckResult:
    weights = [schrodinger.point_mass_probe(psi, 0.0, 2.0**-k) for k in range(3, 11)]
    return CheckResult(
        "oracle", "point-localisation weight scales linearly down to 1/1024",
        _halves(weights), f"halving eps halves the weight (ratio 0.5 +/- {RATIO_TOL})")


def localisation_monotone(psi) -> CheckResult:
    values = [schrodinger.point_mass_probe(psi, 0.3, e) for e in (0.5, 0.25, 0.125, 0.0625)]
    return CheckResult(
        "oracle", "localisation weight monotone in the window size",
        all(x >= y for x, y in zip(values, values[1:])), f"{[round(v, 6) for v in values]}")


def truncated_averages() -> CheckResult:
    ok = abs(schrodinger.mean_quadrature(ap.constant(1.0), AVERAGE_N) - 1) < EXACT_TOL \
        and abs(schrodinger.mean_quadrature(ap.trig_generator(1), AVERAGE_N)) <= TONE_TOL
    return CheckResult(
        "oracle", "truncated averages: constants exact, pure tones suppressed",
        ok, f"N={AVERAGE_N:g}")


def _algebra_suite(rng: random.Random) -> list[CheckResult]:
    return [
        exchange_relation(rng, pairs=200),
        associativity(rng, triples=50),
        star_laws(rng, pairs=100),
        group_law(rng, pairs=100),
        conjugation_identity(rng, pairs=100),
        l1_submultiplicative(rng, pairs=50),
    ]


def _reps_suite(rng: random.Random) -> list[CheckResult]:
    return [
        unitarity(rng, vectors=50),
        sharp_eigenvectors(rng, pairs=100),
        basis_exchange_relation(rng, triples=100),
        shifted_diagonal(rng, shifts=50),
        finite_differences(rng, points=20, halvings=1),
        typed_refusal(),
    ]


def _gns_suite(rng: random.Random) -> list[CheckResult]:
    built = [position_state(Fraction(1)), momentum_state(Fraction(-2)), vacuum_state()]
    return [
        representation_property(rng, built, pairs=20),
        isometric_generators(rng, built, vectors=20),
        cauchy_schwarz(rng, built, pairs=20),
        eigenvector_witnesses(rng, points=10),
        word_geometry(rng, points=5, words=20),
        states_bounded(rng, built, generators=50),
        gram_positivity(rng, built, bases=100),
        regularity_fingerprints(built),
        continuity_scans(built),
    ]


def _ap_suite(rng: random.Random) -> list[CheckResult]:
    return [
        star_algebra(rng, pairs=50),
        mean_positive(rng, polys=50),
        mean_translation_invariant(rng, polys=50),
        mean_truncation(rng, polys=20),
        evaluation_multiplicative(rng, pairs=50),
        mean_kills_characters(rng, chars=50),
        momentum_fourier(rng, points=5, probes=50),
        sup_norm_brackets(rng, polys=20),
    ]


def _oracle_suite(rng: random.Random) -> list[CheckResult]:
    psi0 = schrodinger.gaussian_ground_state()
    fine = schrodinger.gaussian_ground_state(count=2**16)
    return [
        ground_state_normalised(psi0),
        vacuum_oracle(psi0),
        dispersion_family(psi0),
        point_localisation(fine),
        localisation_monotone(fine),
        truncated_averages(),
    ]


_SUITES: dict[str, Callable[[random.Random], list[CheckResult]]] = {
    "algebra": _algebra_suite,
    "reps": _reps_suite,
    "gns": _gns_suite,
    "ap": _ap_suite,
    "oracle": _oracle_suite,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suites(names: Sequence[str], seed: int) -> list[CheckResult]:
    """Run the named suites with one seeded RNG; deterministic order."""
    picked = list(_SUITES) if "all" in names else list(names)
    results: list[CheckResult] = []
    for name in picked:
        if name not in _SUITES:
            raise ValueError(f"unknown suite: {name!r}")
        results.extend(_SUITES[name](random.Random(seed)))
    return results
