"""Seeded property suites behind the ``verify`` command.

Each suite re-runs the defining invariants of one module with a seeded RNG
and reports one line per property.  The suites are the command line twin of
the pytest acceptance tests; both pin the same tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import almost_periodic as ap
from . import gns, reps, states
from .algebra import WeylElement, WeylIndex, generator, identity, phase


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _rand_fraction(rng: random.Random, max_abs: int = 10, max_den: int = 12,
                   nonzero: bool = False) -> Fraction:
    while True:
        den = rng.randint(1, max_den)
        num = rng.randint(-max_abs * den, max_abs * den)
        value = Fraction(num, den)
        if nonzero and value == 0:
            continue
        return value


def _rand_element(rng: random.Random, max_terms: int = 3) -> WeylElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        index = WeylIndex(_rand_fraction(rng, 5, 6), _rand_fraction(rng, 5, 6))
        terms[index] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return WeylElement(terms)


def _rand_trig(rng: random.Random, n_terms: int = 5,
               with_constant: bool = True) -> ap.TrigPolynomial:
    coeffs: dict[Fraction, complex] = {}
    if with_constant:
        coeffs[Fraction(0)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    while len(coeffs) < n_terms:
        freq = _rand_fraction(rng, 3, 8, nonzero=True)
        coeffs[freq] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return ap.TrigPolynomial(coeffs)


def _algebra_suite(rng: random.Random) -> list[CheckResult]:
    results = []

    dev = 0.0
    for _ in range(200):
        a = _rand_fraction(rng)
        b = _rand_fraction(rng)
        lhs = generator(a, 0) * generator(0, b)
        rhs = phase(-a * b) * (generator(0, b) * generator(a, 0))
        dev = max(dev, (lhs - rhs).max_coeff())
    results.append(CheckResult(
        "algebra", "exchange relation, 200 random rational pairs",
        dev < 1e-12, f"max deviation {dev:.2e}"))

    dev = 0.0
    for _ in range(50):
        x, y, z = (_rand_element(rng) for _ in range(3))
        dev = max(dev, ((x * y) * z - x * (y * z)).max_coeff())
    results.append(CheckResult(
        "algebra", "associativity on random 3-term elements",
        dev < 1e-10, f"max deviation {dev:.2e}"))

    dev = 0.0
    index_ok = True
    for _ in range(100):
        x, y = _rand_element(rng), _rand_element(rng)
        lhs = (x * y).adjoint()
        rhs = y.adjoint() * x.adjoint()
        index_ok = index_ok and set(lhs.terms) == set(rhs.terms)
        dev = max(dev, (lhs - rhs).max_coeff())
        double = x.adjoint().adjoint()
        index_ok = index_ok and set(double.terms) == set(x.terms)
        dev = max(dev, (double - x).max_coeff())
    results.append(CheckResult(
        "algebra", "star laws: (xy)* = y*x* and x** = x",
        index_ok and dev < 1e-12, f"max deviation {dev:.2e}, indices exact: {index_ok}"))

    ok = True
    worst = 0.0
    for _ in range(100):
        a, b = _rand_fraction(rng), _rand_fraction(rng)
        a2, b2 = _rand_fraction(rng), _rand_fraction(rng)
        product = generator(a, b) * generator(a2, b2)
        terms = dict(product.terms)
        ok = ok and list(terms) == [WeylIndex(a + a2, b + b2)]
        worst = max(worst, abs(abs(next(iter(terms.values()))) - 1.0))
    results.append(CheckResult(
        "algebra", "group law: single product term with unit-modulus phase",
        ok and worst < 1e-12, f"modulus off by {worst:.2e}"))

    dev = 0.0
    for _ in range(100):
        a, b = _rand_fraction(rng), _rand_fraction(rng)
        left = generator(0, -b) * generator(a, 0) * generator(0, b)
        dev = max(dev, (left - phase(-a * b) * generator(a, 0)).max_coeff())
    results.append(CheckResult(
        "algebra", "conjugation identity V_-b U_a V_b = exp(-iab) U_a",
        dev < 1e-12, f"max deviation {dev:.2e}"))

    worst = 0.0
    for _ in range(50):
        x, y = _rand_element(rng), _rand_element(rng)
        worst = max(worst, (x * y).l1_bound() - x.l1_bound() * y.l1_bound())
    results.append(CheckResult(
        "algebra", "l1 bound submultiplicative",
        worst <= 1e-9, f"worst excess {worst:.2e}"))

    return results


def _reps_suite(rng: random.Random) -> list[CheckResult]:
    results = []

    dev = 0.0
    for flavor in reps.FLAVORS:
        for _ in range(50):
            a = _rand_fraction(rng)
            u = reps.FiniteSupportVector(
                {_rand_fraction(rng): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(3)}, flavor)
            v = reps.FiniteSupportVector(
                {_rand_fraction(rng): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(3)}, flavor)
            before = reps.inner(u, v)
            dev = max(dev, abs(reps.inner(reps.apply_U(a, u), reps.apply_U(a, v)) - before))
            dev = max(dev, abs(reps.inner(reps.apply_V(a, u), reps.apply_V(a, v)) - before))
    results.append(CheckResult(
        "reps", "unitarity: U and V preserve inner products, both flavors",
        dev < 1e-12, f"max deviation {dev:.2e}"))

    dev = 0.0
    keys_ok = True
    for _ in range(100):
        a = _rand_fraction(rng)
        lam = _rand_fraction(rng)
        moved = reps.apply_U(a, reps.basis_vector(lam))
        keys_ok = keys_ok and set(moved.amplitudes) == {lam}
        dev = max(dev, abs(moved.amplitudes[lam] - phase(a * lam)))
    results.append(CheckResult(
        "reps", "sharp eigenvectors: U_a phi_x = exp(iax) phi_x",
        keys_ok and dev < 1e-12, f"keys exact: {keys_ok}, phase off {dev:.2e}"))

    dev = 0.0
    for flavor in reps.FLAVORS:
        for _ in range(100):
            dev = max(dev, reps.weyl_relation_check(
                _rand_fraction(rng), _rand_fraction(rng), _rand_fraction(rng), flavor))
    results.append(CheckResult(
        "reps", "exchange relation on random basis vectors, both flavors",
        dev < 1e-12, f"max deviation {dev:.2e}"))

    exact = True
    for _ in range(50):
        b = _rand_fraction(rng, nonzero=True)
        lam = _rand_fraction(rng)
        exact = exact and reps.v_direction_matrix_element(b, lam) == 0
        exact = exact and reps.u_direction_matrix_element(b, lam) == 0
    exact = exact and reps.v_direction_matrix_element(Fraction(1, 10**6), Fraction(5)) == 0
    exact = exact and reps.v_direction_matrix_element(0, Fraction(5)) == 1
    results.append(CheckResult(
        "reps", "diagonal elements of the shifted family: exact indicator of 0",
        exact, "includes probe 1/1000000"))

    ok = True
    for _ in range(20):
        lam = _rand_fraction(rng, nonzero=True)
        phi = reps.basis_vector(lam)
        target = reps.apply_Q(phi)
        e_coarse = (reps.finite_difference_generator(Fraction(1, 256), phi) - target).norm()
        e_fine = (reps.finite_difference_generator(Fraction(1, 512), phi) - target).norm()
        ok = ok and abs(e_fine / e_coarse - 0.5) < 0.05
    results.append(CheckResult(
        "reps", "finite differences converge to the generator, first order",
        ok, "halving the step halves the error (ratio 0.5 +/- 0.05)"))

    refused = False
    try:
        reps.apply_Q(reps.basis_vector(0, reps.MOMENTUM))
    except reps.NonexistentObservableError:
        refused = True
    refused2 = False
    try:
        reps.apply_P(reps.basis_vector(0, reps.POSITION))
    except reps.NonexistentObservableError:
        refused2 = True
    results.append(CheckResult(
        "reps", "typed refusal of the nonexistent generator, both flavors",
        refused and refused2, "NonexistentObservableError raised"))

    return results


def _gns_suite(rng: random.Random) -> list[CheckResult]:
    results = []
    built = [states.position_state(Fraction(1)), states.momentum_state(Fraction(-2)),
             states.vacuum_state()]

    dev = 0.0
    for state in built:
        omega = gns.cyclic_vector(state)
        for _ in range(20):
            x, y = _rand_element(rng), _rand_element(rng)
            direct = gns.gns_apply(x * y, omega)
            staged = gns.gns_apply(x, gns.gns_apply(y, omega))
            dev = max(dev, gns.gns_norm(direct - staged))
    results.append(CheckResult(
        "gns", "representation property pi(xy) = pi(x)pi(y) on the cyclic vector",
        dev < 1e-12, f"max norm gap {dev:.2e}"))

    dev = 0.0
    for state in built:
        omega = gns.cyclic_vector(state)
        for _ in range(20):
            v = gns.gns_apply(_rand_element(rng), omega)
            moved = gns.gns_apply(
                generator(_rand_fraction(rng), _rand_fraction(rng)), v)
            dev = max(dev, abs(gns.gns_norm(moved) - gns.gns_norm(v)))
    results.append(CheckResult(
        "gns", "generators act isometrically",
        dev < 1e-12, f"max norm drift {dev:.2e}"))

    worst = 0.0
    for state in built:
        omega = gns.cyclic_vector(state)
        for _ in range(20):
            u = gns.gns_apply(_rand_element(rng), omega)
            v = gns.gns_apply(_rand_element(rng), omega)
            excess = abs(gns.gns_inner(u, v)) - gns.gns_norm(u) * gns.gns_norm(v)
            worst = max(worst, excess)
    results.append(CheckResult(
        "gns", "Cauchy-Schwarz inequality",
        worst <= 1e-10, f"worst excess {worst:.2e}"))

    lam_probes = [_rand_fraction(rng) for _ in range(10)]
    witnesses = [gns.eigenvector_witness(states.position_state(lam)) for lam in lam_probes]
    witnesses += [gns.eigenvector_witness(states.momentum_state(lam)) for lam in lam_probes]
    ok = all(w.passed for w in witnesses)
    results.append(CheckResult(
        "gns", "eigenvector obstruction witness, position and momentum",
        ok, f"{len(witnesses)} witnesses, all diagonal elements exactly 0 away from 0"))

    dev = 0.0
    for _ in range(5):
        lam = _rand_fraction(rng)
        words = [_rand_element(rng) for _ in range(20)]
        dev = max(dev, gns.equivalence_check(lam, words))
    results.append(CheckResult(
        "gns", "word geometry matches the sharp-point model",
        dev < 1e-12, f"max inner-product gap {dev:.2e}"))

    normalised = True
    bounded = 0.0
    for state in built:
        normalised = normalised and abs(state(identity()) - 1) <= 1e-12
        if state.kind != states.VACUUM:
            normalised = normalised and state(identity()) == 1
        for _ in range(50):
            value = state(generator(_rand_fraction(rng), _rand_fraction(rng)))
            bounded = max(bounded, abs(value) - 1.0)
    results.append(CheckResult(
        "gns", "states normalised and bounded by one on generators",
        normalised and bounded <= 1e-12, f"worst modulus excess {bounded:.2e}"))

    min_eig = 0.0
    for state in built:
        for _ in range(100):
            basis = [generator(_rand_fraction(rng), _rand_fraction(rng))
                     for _ in range(rng.randint(1, 8))]
            min_eig = min(min_eig, states.check_positivity(state, basis))
    results.append(CheckResult(
        "gns", "Gram matrices positive semidefinite, 100 random bases per state",
        min_eig >= -1e-10, f"min eigenvalue {min_eig:.2e}"))

    prints = [gns.regularity_fingerprint(s) for s in built]
    expected = [(True, False), (False, True), (True, True)]
    results.append(CheckResult(
        "gns", "regularity fingerprints pairwise distinct",
        prints == expected and len(set(prints)) == 3, f"{prints}"))

    grid = [Fraction(0), Fraction(1, 8), Fraction(1, 64)]
    scan = gns.continuity_scan(built[0], "V", grid)
    scan_ok = scan[0][1] == 1 and all(value == 0 for _, value in scan[1:])
    scan = gns.continuity_scan(built[1], "U", grid)
    scan_ok = scan_ok and scan[0][1] == 1 and all(value == 0 for _, value in scan[1:])
    vac = states.vacuum_state()
    vac_ok = True
    for t in (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)):
        for direction in ("U", "V"):
            (_, value), = gns.continuity_scan(vac, direction, [t])
            vac_ok = vac_ok and abs(value - 1) <= 2 * float(t)
    results.append(CheckResult(
        "gns", "scans: sharp states collapse to the indicator, vacuum stays continuous",
        scan_ok and vac_ok, "broken-direction scans exactly {1 at 0, 0 elsewhere}"))

    return results


def _ap_suite(rng: random.Random) -> list[CheckResult]:
    from . import schrodinger

    results = []

    dev = 0.0
    star_ok = True
    for _ in range(50):
        f, g = _rand_trig(rng, 3), _rand_trig(rng, 3)
        dev = max(dev, ((f * g) - (g * f)).max_coeff())
        lhs = (f * g).conjugate()
        rhs = g.conjugate() * f.conjugate()
        star_ok = star_ok and set(lhs.coefficients) == set(rhs.coefficients)
        dev = max(dev, (lhs - rhs).max_coeff())
    results.append(CheckResult(
        "ap", "commutative star algebra of characters",
        star_ok and dev < 1e-12, f"max deviation {dev:.2e}"))

    ok = True
    for _ in range(50):
        f = _rand_trig(rng, 4)
        mean = (f.conjugate() * f).invariant_mean()
        ok = ok and mean.imag == 0.0 and mean.real >= 0.0
    results.append(CheckResult(
        "ap", "mean of f* f is exactly real and nonnegative",
        ok, "positivity of the invariant mean"))

    ok = True
    for _ in range(50):
        f = _rand_trig(rng, 4)
        ok = ok and f.translate(_rand_fraction(rng)).invariant_mean() == f.invariant_mean()
    results.append(CheckResult(
        "ap", "translation invariance of the mean, exact",
        ok, "frequency-0 coefficient untouched"))

    ok = True
    for _ in range(20):
        f = _rand_trig(rng, 5)
        approx = schrodinger.mean_quadrature(f, 1000.0)
        bound = schrodinger.truncation_bound(f, 1000.0) + 1e-6
        ok = ok and abs(approx - f.invariant_mean()) <= bound
    results.append(CheckResult(
        "ap", "exact mean matches the truncated average within the analytic bound",
        ok, "20 random 5-term polynomials at N=1000"))

    dev = 0.0
    for _ in range(50):
        f, g = _rand_trig(rng, 3), _rand_trig(rng, 3)
        x = _rand_fraction(rng)
        dev = max(dev, abs((f * g).evaluate_at(x) - f.evaluate_at(x) * g.evaluate_at(x)))
    results.append(CheckResult(
        "ap", "evaluation functionals are multiplicative",
        dev < 1e-12, f"max deviation {dev:.2e}"))

    exact = all(
        ap.trig_generator(_rand_fraction(rng, nonzero=True)).invariant_mean() == 0
        and ap.haar_fourier(_rand_fraction(rng, nonzero=True)) == 0
        for _ in range(50)
    ) and ap.haar_fourier(0) == 1
    results.append(CheckResult(
        "ap", "mean kills every nontrivial character, exactly",
        exact, "Fourier data of the invariant measure"))

    ok = True
    for _ in range(5):
        lam = _rand_fraction(rng)
        probes = [Fraction(0)] + [_rand_fraction(rng, nonzero=True) for _ in range(49)]
        ok = ok and ap.momentum_fourier_witness(lam, probes).passed
    results.append(CheckResult(
        "ap", "momentum spectral data in a sharp-position vector equals the mean's",
        ok, "5 points x 50 probes, exact equality"))

    ok = True
    for _ in range(20):
        f = _rand_trig(rng, 4)
        low, high = f.sup_norm_bounds()
        low2, high2 = (f.conjugate() * f).sup_norm_bounds()
        ok = ok and low <= high + 1e-12 and low**2 <= high2 + 1e-9 and low2 <= high**2 + 1e-9
    results.append(CheckResult(
        "ap", "certified sup-norm bounds bracket and square consistently",
        ok, "lower <= sup <= l1; bounds of f*f vs square of bounds"))

    return results


def _oracle_suite(rng: random.Random) -> list[CheckResult]:
    from . import schrodinger

    results = []
    psi0 = schrodinger.gaussian_ground_state()

    density_mean = abs(schrodinger.characteristic_function(psi0, 0, 0) - 1)
    results.append(CheckResult(
        "oracle", "ground state normalised on the default grid",
        abs(psi0.norm() - 1) < 1e-8 and density_mean < 1e-8,
        f"norm off by {abs(psi0.norm() - 1):.2e}"))

    worst = 0.0
    vac = states.vacuum_state()
    for a in range(-2, 3):
        for b in range(-2, 3):
            formula = vac.generator_value(Fraction(a), Fraction(b))
            quad = schrodinger.characteristic_function(psi0, a, b)
            worst = max(worst, abs(formula - quad))
    results.append(CheckResult(
        "oracle", "Gaussian state formula agrees with quadrature on the 5x5 grid",
        worst <= 1e-6, f"max gap {worst:.2e}"))

    family = [
        psi0,
        schrodinger.gaussian_packet(width=2.0),
        schrodinger.gaussian_packet(width=0.5),
        schrodinger.gaussian_packet(center=1.0),
        schrodinger.gaussian_packet(center=-2.0),
        schrodinger.gaussian_packet(momentum=1.0),
        schrodinger.gaussian_packet(center=1.0, momentum=-1.0),
        schrodinger.superpose(schrodinger.gaussian_packet(center=-1.0),
                              schrodinger.gaussian_packet(center=1.0)),
        schrodinger.superpose(schrodinger.gaussian_packet(center=-2.0),
                              schrodinger.gaussian_packet(center=2.0)),
        schrodinger.superpose(schrodinger.gaussian_packet(center=-1.5, momentum=1.0),
                              schrodinger.gaussian_packet(center=1.5)),
    ]
    products = [schrodinger.dispersion_product(psi) for psi in family]
    lower_ok = all(p >= 0.5 - 1e-3 for p in products)
    saturated = all(abs(p - 0.5) <= 1e-3 for p in products[:7])
    results.append(CheckResult(
        "oracle", "dispersion product >= 1/2 on the 10-member family",
        lower_ok and saturated,
        f"min {min(products):.6f}, Gaussians saturate within 1e-3"))

    fine = schrodinger.gaussian_ground_state(count=2**16)
    ratios_ok = True
    eps = 0.125
    while eps > 1.0 / 1024.0:
        ratio = schrodinger.point_mass_probe(fine, 0.0, eps / 2) / \
            schrodinger.point_mass_probe(fine, 0.0, eps)
        ratios_ok = ratios_ok and abs(ratio - 0.5) < 0.05
        eps /= 2
    results.append(CheckResult(
        "oracle", "point-localisation weight scales linearly down to 1/1024",
        ratios_ok, "halving eps halves the weight (ratio 0.5 +/- 0.05)"))

    monotone = True
    values = [schrodinger.point_mass_probe(fine, 0.3, e)
              for e in (0.5, 0.25, 0.125, 0.0625)]
    monotone = all(x >= y for x, y in zip(values, values[1:]))
    results.append(CheckResult(
        "oracle", "localisation weight monotone in the window size",
        monotone, f"{[round(v, 6) for v in values]}"))

    one = ap.constant(1.0)
    tone = ap.trig_generator(1)
    ok = abs(schrodinger.mean_quadrature(one, 1000.0) - 1) < 1e-12 \
        and abs(schrodinger.mean_quadrature(tone, 1000.0)) <= 2e-3
    results.append(CheckResult(
        "oracle", "truncated averages: constants exact, pure tones suppressed",
        ok, "N=1000"))

    return results


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
