import cmath
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import count_element_products, rand_coeff, rand_element, rand_fraction
from weylreps import (
    MOMENTUM,
    POSITION,
    FiniteSupportVector,
    WeylElement,
    WeylIndex,
    OwnerMismatchError,
    apply_element,
    basis_vector,
    continuity_scan,
    cyclic_vector,
    eigenvector_witness,
    equivalence_check,
    generator,
    gns_apply,
    gram_matrix,
    gns_inner,
    gns_norm,
    identity,
    inner,
    is_null,
    is_regular_direction,
    momentum_state,
    phase,
    position_state,
    reduce_momentum,
    reduce_position,
    regularity_fingerprint,
    vacuum_state,
    zero,
)
from weylreps.algebra import EXACT_TOL, as_fraction

ALL_STATES = (position_state(1), momentum_state(Fraction(-2)), vacuum_state())


def test_cyclic_vector_normalised():
    for state in ALL_STATES:
        assert gns_inner(cyclic_vector(state), cyclic_vector(state)) == pytest.approx(
            1, abs=1e-12
        )


def test_inner_kills_different_translates():
    omega = cyclic_vector(position_state(2))
    u = gns_apply(generator(1, 1), omega)
    v = gns_apply(generator(2, 3), omega)
    assert gns_inner(u, v) == 0


def test_inner_two_words_same_translate():
    omega = cyclic_vector(position_state(0))
    u = gns_apply(generator(1, 2), omega)
    v = gns_apply(generator(3, 2), omega)
    assert gns_inner(u, v) == pytest.approx(cmath.exp(-4j), abs=1e-14)


def test_inner_rejects_mixed_owners():
    with pytest.raises(OwnerMismatchError):
        gns_inner(cyclic_vector(position_state(0)), cyclic_vector(position_state(1)))


def test_apply_identity_is_identity():
    omega = cyclic_vector(vacuum_state())
    v = gns_apply(rand_element(random.Random(2)), omega)
    assert gns_apply(identity(), v).word == v.word


def test_translate_of_cyclic_vector_is_orthogonal_unit():
    omega = cyclic_vector(position_state(3))
    moved = gns_apply(generator(0, 2), omega)
    assert gns_inner(omega, moved) == 0
    assert gns_norm(moved) == pytest.approx(1, abs=1e-12)


def test_phase_eigenvector_up_to_null():
    lam = Fraction(5, 3)
    omega = cyclic_vector(position_state(lam))
    for a in (Fraction(1), Fraction(-7, 2)):
        moved = gns_apply(generator(a, 0), omega)
        assert is_null(moved - phase(a * lam) * omega)


def test_representation_property():
    rng = random.Random(17)
    for state in ALL_STATES:
        omega = cyclic_vector(state)
        for _ in range(10):
            x, y = rand_element(rng), rand_element(rng)
            direct = gns_apply(x * y, omega)
            staged = gns_apply(x, gns_apply(y, omega))
            assert gns_norm(direct - staged) < 1e-12


def test_generators_act_isometrically():
    rng = random.Random(23)
    for state in ALL_STATES:
        omega = cyclic_vector(state)
        for _ in range(10):
            v = gns_apply(rand_element(rng), omega)
            moved = gns_apply(generator(rand_fraction(rng), rand_fraction(rng)), v)
            assert gns_norm(moved) == pytest.approx(gns_norm(v), abs=1e-12)


def test_cauchy_schwarz():
    rng = random.Random(29)
    for state in ALL_STATES:
        omega = cyclic_vector(state)
        for _ in range(10):
            u = gns_apply(rand_element(rng), omega)
            v = gns_apply(rand_element(rng), omega)
            assert abs(gns_inner(u, v)) <= gns_norm(u) * gns_norm(v) + 1e-10


def test_reduce_cyclic_vector():
    reduced = reduce_position(cyclic_vector(position_state(4)))
    assert dict(reduced.amplitudes) == {Fraction(0): 1 + 0j}


def test_reduce_single_word():
    omega = cyclic_vector(position_state(1))
    reduced = reduce_position(gns_apply(generator(2, 3), omega))
    assert set(reduced.amplitudes) == {Fraction(3)}
    assert reduced.amplitudes[Fraction(3)] == pytest.approx(cmath.exp(-4j), abs=1e-15)


def test_reduce_is_linear():
    omega = cyclic_vector(position_state(0))
    doubled = gns_apply(generator(0, 1), omega) + gns_apply(generator(0, 1), omega)
    assert dict(reduce_position(doubled).amplitudes) == {Fraction(1): 2 + 0j}


def test_reduce_agrees_with_gram_inner():
    rng = random.Random(31)
    state = position_state(Fraction(7, 3))
    omega = cyclic_vector(state)
    for _ in range(20):
        u = gns_apply(rand_element(rng), omega)
        v = gns_apply(rand_element(rng), omega)
        assert reduce_position(u).inner(reduce_position(v)) == pytest.approx(
            gns_inner(u, v), abs=1e-12
        )


def test_reduce_momentum_agrees_with_gram_inner():
    rng = random.Random(37)
    state = momentum_state(Fraction(-1, 2))
    omega = cyclic_vector(state)
    for _ in range(20):
        u = gns_apply(rand_element(rng), omega)
        v = gns_apply(rand_element(rng), omega)
        assert reduce_momentum(u).inner(reduce_momentum(v)) == pytest.approx(
            gns_inner(u, v), abs=1e-12
        )


def test_reductions_are_vectors_of_the_owner_flavor():
    word = generator(2, 3) + 0.5j * generator(Fraction(-1, 3), 1)
    for state, reduce in (
        (position_state(Fraction(1, 3)), reduce_position),
        (momentum_state(Fraction(-2, 5)), reduce_momentum),
    ):
        reduced = reduce(gns_apply(word, cyclic_vector(state)))
        assert isinstance(reduced, FiniteSupportVector)
        assert reduced.flavor == state.kind
        assert len(reduced) == 2


#: per sharp kind: its state, its reducer, and the point of the model at shift k from kappa
SHARP = {
    POSITION: (position_state, reduce_position, lambda kappa, k: kappa - as_fraction(k)),
    MOMENTUM: (momentum_state, reduce_momentum, lambda kappa, k: kappa + as_fraction(k)),
}


@pytest.mark.parametrize("kind", SHARP)
def test_a_reduction_is_keyed_by_shift_and_relabels_to_the_point_model(kind):
    # W(a, b) moves the sharp point kappa to kappa - b (position) or kappa + a
    # (momentum); the reduction keys that term by its shift, b or a
    state, reduce, point = SHARP[kind]
    rng = random.Random(5)
    for _ in range(300):
        kappa = rand_fraction(rng)
        word = rand_element(rng, max_terms=5)
        reduced = reduce(gns_apply(word, cyclic_vector(state(kappa))))
        relabelled = FiniteSupportVector(
            {point(kappa, k): amp for k, amp in reduced.amplitudes.items()}, kind)
        assert relabelled == apply_element(word, basis_vector(kappa, kind)), (kappa, word)


def test_reduce_requires_matching_state_kind():
    with pytest.raises(ValueError):
        reduce_position(cyclic_vector(vacuum_state()))
    with pytest.raises(ValueError):
        reduce_momentum(cyclic_vector(position_state(0)))


def test_continuity_scan_position_U_direction():
    lam = Fraction(2)
    rows = continuity_scan(position_state(lam), "U", [Fraction(1, 8), Fraction(1, 64)])
    assert rows[0][1] == pytest.approx(phase(lam / 8), abs=1e-15)
    assert rows[1][1] == pytest.approx(phase(lam / 64), abs=1e-15)
    assert all(abs(abs(value) - 1) < 1e-12 for _, value in rows)


def test_continuity_scan_position_V_direction_collapses():
    rows = continuity_scan(position_state(0), "V", [0, Fraction(1, 8), Fraction(1, 64)])
    assert rows[0][1] == 1
    assert rows[1][1] == 0
    assert rows[2][1] == 0


def test_continuity_scan_momentum_U_direction_collapses():
    rows = continuity_scan(momentum_state(3), "U", [0, Fraction(1, 8), Fraction(1, 64)])
    assert rows[0][1] == 1
    assert rows[1][1] == 0
    assert rows[2][1] == 0


def test_continuity_scan_vacuum():
    (_, value), = continuity_scan(vacuum_state(), "V", [Fraction(1, 2)])
    assert value == pytest.approx(cmath.exp(-1 / 16), abs=1e-12)


def test_continuity_scan_vacuum_approaches_one():
    for t in (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)):
        for direction in ("U", "V"):
            (_, value), = continuity_scan(vacuum_state(), direction, [t])
            assert abs(value - 1) <= 2 * float(t)


def test_continuity_scan_validation():
    with pytest.raises(ValueError):
        continuity_scan(vacuum_state(), "W", [1])
    with pytest.raises(ValueError):
        continuity_scan(vacuum_state(), "U", [])


@pytest.mark.parametrize("direction", [3, None])
def test_a_direction_that_is_not_a_string_is_refused(direction):
    state = position_state(1)
    with pytest.raises(ValueError, match="direction must be 'U' or 'V'"):
        continuity_scan(state, direction, [1])
    with pytest.raises(ValueError, match="direction must be 'U' or 'V'"):
        is_regular_direction(state, direction)


def test_regularity_table():
    assert is_regular_direction(position_state(1), "U") is True
    assert is_regular_direction(position_state(1), "V") is False
    assert is_regular_direction(momentum_state(0), "U") is False
    assert is_regular_direction(momentum_state(0), "V") is True
    assert is_regular_direction(vacuum_state(), "U") is True
    assert is_regular_direction(vacuum_state(), "V") is True


def test_fingerprints_pairwise_distinct():
    prints = [regularity_fingerprint(s) for s in ALL_STATES]
    assert prints == [(True, False), (False, True), (True, True)]
    assert len(set(prints)) == 3


def test_eigenvector_witness_position():
    witness = eigenvector_witness(position_state(2), probes=[Fraction(3), Fraction(1)])
    assert witness.eigen_deviation < 1e-12
    assert witness.gram_residual < 1e-12
    assert witness.chain_deviation < 1e-12
    assert witness.vanishing_exact
    assert witness.passed
    assert dict(witness.broken_elements)[Fraction(1)] == 0


def test_eigenvector_witness_momentum():
    witness = eigenvector_witness(momentum_state(0))
    assert witness.passed
    assert all(value == 0 for t, value in witness.broken_elements if t != 0)


@pytest.mark.parametrize("state", [position_state(Fraction(3, 2)), momentum_state(Fraction(-1, 7))],
                         ids=["position", "momentum"])
def test_eigenvector_witness_makes_one_element_product_per_probe(monkeypatch, state):
    from weylreps import DEFAULT_PROBES

    products = count_element_products(monkeypatch)
    witness = eigenvector_witness(state)
    assert witness.passed
    assert len(products) == len(DEFAULT_PROBES)
    assert not hasattr(witness, "conjugation_deviation")


def test_eigenvector_witness_refuses_an_empty_probe_list():
    from weylreps import DEFAULT_PROBES

    with pytest.raises(ValueError, match="probes must be non-empty"):
        eigenvector_witness(position_state(1), probes=[])
    # only a missing list takes the default
    assert eigenvector_witness(position_state(1)) == \
        eigenvector_witness(position_state(1), probes=DEFAULT_PROBES)


def test_eigenvector_witness_rejects_vacuum():
    with pytest.raises(ValueError):
        eigenvector_witness(vacuum_state())


def test_equivalence_check_identity_word():
    assert equivalence_check(0, [identity()]) == 0


def test_equivalence_check_two_words():
    assert equivalence_check(0, [generator(1, 2), generator(3, 2)]) < 1e-12


def test_equivalence_check_random_words():
    rng = random.Random(41)
    lam = rand_fraction(rng)
    words = [rand_element(rng) for _ in range(50)]
    assert equivalence_check(lam, words) < 1e-12


def test_momentum_word_geometry_matches_the_point_model():
    # the mirror of equivalence_check, which builds position states only
    rng = random.Random(43)
    for _ in range(5):
        mu = rand_fraction(rng)
        omega = cyclic_vector(momentum_state(mu))
        phi = basis_vector(mu, MOMENTUM)
        words = [rand_element(rng) for _ in range(20)]
        gns_side = [gns_apply(w, omega) for w in words]
        model_side = [apply_element(w, phi) for w in words]
        for i, j in itertools.product(range(len(words)), repeat=2):
            gap = abs(gns_inner(gns_side[i], gns_side[j]) - inner(model_side[i], model_side[j]))
            assert gap <= EXACT_TOL


def test_equivalence_check_needs_words():
    with pytest.raises(ValueError):
        equivalence_check(0, [])


def scaled_words(rng, n_words, scale):
    """Seeded words of one to four terms over a 4x4 alphabet, |a|, |b| <= scale."""
    a_vals = [rand_fraction(rng, scale) for _ in range(4)]
    b_vals = [rand_fraction(rng, scale) for _ in range(4)]
    alphabet = [(a, b) for a in a_vals for b in b_vals]
    return [
        WeylElement(
            {WeylIndex(a, b): rand_coeff(rng) for a, b in rng.sample(alphabet, rng.randint(1, 4))}
        )
        for _ in range(n_words)
    ]


def scaled_vectors(seed, scale, n_words=10):
    """(state, vectors) for a position, a momentum and the vacuum state."""
    rng = random.Random(seed)
    owners = (
        position_state(rand_fraction(rng, scale)),
        momentum_state(rand_fraction(rng, scale)),
        vacuum_state(),
    )
    for state in owners:
        omega = cyclic_vector(state)
        yield state, [gns_apply(w, omega) for w in scaled_words(rng, n_words, scale)]


SCALES = [10, 10**4, 10**8]


@pytest.mark.parametrize("scale", SCALES)
def test_inner_equals_the_product_route(scale):
    nonzero = 0
    for seed in range(3):
        for state, vectors in scaled_vectors(seed, scale):
            for u, v in itertools.product(vectors, repeat=2):
                reference = state(u.word.adjoint() * v.word)
                nonzero += reference != 0
                assert abs(gns_inner(u, v) - reference) <= 1e-12
    assert nonzero >= 300


@pytest.mark.parametrize("scale", SCALES)
def test_inner_sharp_zeros_are_exact(scale):
    disjoint = 0
    for seed in range(3):
        for state, vectors in scaled_vectors(seed, scale):
            if state.kind == "vacuum":
                continue
            # a sharp state kills W(t - s) unless its broken label agrees
            label = "b" if state.kind == "position" else "a"
            supports = [{getattr(i, label) for i in v.word.terms} for v in vectors]
            for i, j in itertools.product(range(len(vectors)), repeat=2):
                if supports[i].isdisjoint(supports[j]):
                    disjoint += 1
                    value = gns_inner(vectors[i], vectors[j])
                    assert value == 0 and type(value) is complex
    assert disjoint > 0


@pytest.mark.parametrize("scale", SCALES)
def test_gram_matrix_equals_inner_cell_by_cell(scale):
    for seed in range(3):
        for state, vectors in scaled_vectors(seed, scale):
            g = gram_matrix(state, [v.word for v in vectors])
            for i, j in itertools.product(range(len(vectors)), repeat=2):
                assert abs(g[i, j] - gns_inner(vectors[i], vectors[j])) <= 1e-12


@pytest.mark.parametrize("scale", SCALES)
def test_norm_is_read_from_the_inner_product(scale):
    for seed in range(3):
        for state, vectors in scaled_vectors(seed, scale):
            for v in vectors:
                assert abs(gns_norm(v)**2 - gns_inner(v, v)) <= 1e-12
                if state.kind == "vacuum":
                    assert not is_null(v)


@pytest.fixture()
def reducer_calls(monkeypatch):
    """Count calls of ``gns.reduce_position`` / ``gns.reduce_momentum`` through
    wrappers bound to the module globals, the way a tracer binds them."""
    from weylreps import gns

    calls = {"reduce_position": 0, "reduce_momentum": 0}

    def counting(name):
        original = getattr(gns, name)

        def wrapper(v):
            calls[name] += 1
            return original(v)

        return wrapper

    for name in calls:
        monkeypatch.setattr(gns, name, counting(name))
    return calls


def test_is_null_calls_the_module_reducers(reducer_calls):
    eigen_gap = generator(1, 0) - phase(1) * identity()
    assert is_null(gns_apply(eigen_gap, cyclic_vector(position_state(1))))
    assert not is_null(cyclic_vector(momentum_state(-2)))
    assert not is_null(cyclic_vector(vacuum_state()))
    assert reducer_calls == {"reduce_position": 1, "reduce_momentum": 1}


def test_is_null_over_the_vacuum_is_exact():
    # the vacuum's GNS map is injective: a word is null exactly when it is 0,
    # however small its norm (1e-14, or about 7e-13 at epsilon = 1e-12)
    omega = cyclic_vector(vacuum_state())
    for k in range(1, 15):
        assert not is_null(10.0**-k * omega)
    for k in range(3, 13):
        near = gns_apply(identity() - generator(Fraction(1, 10**k), 0), omega)
        assert not is_null(near)
    assert is_null(omega - omega)
    assert is_null(gns_apply(zero(), omega))


def test_is_null_reads_no_tolerance_and_no_inner_product(monkeypatch):
    from weylreps import gns

    def no_inner(u, v):
        raise AssertionError("is_null summed an inner product")

    monkeypatch.setattr(gns, "EXACT_TOL", 1e300)
    monkeypatch.setattr(gns, "gns_inner", no_inner)
    eigen_gap = generator(1, 0) - phase(1) * identity()
    for state in ALL_STATES:
        omega = cyclic_vector(state)
        assert not is_null(omega)
        assert is_null(omega - omega)
    assert is_null(gns_apply(eigen_gap, cyclic_vector(position_state(1))))
    assert not is_null(gns_apply(eigen_gap, cyclic_vector(vacuum_state())))


def test_eigenvector_witness_calls_the_module_reducers(reducer_calls):
    from weylreps import DEFAULT_PROBES

    assert eigenvector_witness(position_state(Fraction(3, 2))).passed
    assert reducer_calls == {"reduce_position": len(DEFAULT_PROBES), "reduce_momentum": 0}
    assert eigenvector_witness(momentum_state(Fraction(-1, 7))).passed
    assert reducer_calls == {"reduce_position": len(DEFAULT_PROBES),
                             "reduce_momentum": len(DEFAULT_PROBES)}


def test_cli_gns_build_calls_the_module_reducers(reducer_calls, tmp_path, capsys):
    import json

    from weylreps import cli

    words = tmp_path / "words.json"
    words.write_text(json.dumps([[{"a": "1", "b": "2", "re": 1.0, "im": 0.0}]] * 3))
    for spec in ("position:3/2", "momentum:-1/7", "vacuum"):
        assert cli.main(["gns-build", "--state", spec, str(words)]) == 0
    capsys.readouterr()
    assert reducer_calls == {"reduce_position": 3, "reduce_momentum": 3}


def test_broken_direction_table_decides_regularity_and_the_witness_scan():
    from weylreps import DEFAULT_PROBES, gns, states

    assert states.BROKEN_DIRECTION == {"position": "V", "momentum": "U"}
    assert (gns.U_DIRECTION, gns.V_DIRECTION) == (states.U_DIRECTION, states.V_DIRECTION)
    for state in (position_state(Fraction(3, 2)), momentum_state(Fraction(-1, 7))):
        broken = states.BROKEN_DIRECTION[state.kind]
        assert not is_regular_direction(state, broken.lower())
        witness = eigenvector_witness(state)
        assert list(witness.broken_elements) == continuity_scan(state, broken, DEFAULT_PROBES)


def _hex(c: complex) -> tuple:
    return c.real.hex(), c.imag.hex()


@pytest.mark.parametrize("state, cancelling", [
    # two unit amplitudes of opposite coefficients at the point 2
    (position_state(2), generator(1, 2) - generator(3, 2) + generator(1, 5)),
    (momentum_state(0), generator(2, 1) - generator(2, 3) + generator(5, 1)),
], ids=["position", "momentum"])
def test_each_reduction_is_its_column_of_the_reduction_matrix(state, cancelling):
    from weylreps.states import _reduction_matrix

    rng = random.Random(31)
    alphabet = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3)]
    basis = [WeylElement({WeylIndex(rng.choice(alphabet), rng.choice(alphabet)): rand_coeff(rng)
                          for _ in range(4)}) for _ in range(12)] + [cancelling]
    # the rows of R are the points in the order the terms first reach them
    points = list(dict.fromkeys(Fraction(*state._point(t._pa, t._pb, t._q)[:2])
                                for x in basis for t in x.terms))
    reduced = _reduction_matrix(state, basis)
    assert reduced.shape == (len(points), len(basis))
    reduce = reduce_position if state.kind == "position" else reduce_momentum
    for j, x in enumerate(basis):
        column = {point: _hex(complex(reduced[k, j])) for k, point in enumerate(points)
                  if reduced[k, j] != 0}
        vector = reduce(gns_apply(x, cyclic_vector(state)))
        assert {point: _hex(c) for point, c in vector.amplitudes.items()} == column
    # the cancelled point is pruned from the vector and exactly 0 in R
    assert Fraction(2) not in vector.amplitudes and Fraction(5) in vector.amplitudes
    assert reduced[points.index(Fraction(2)), -1] == 0


def test_vectors_over_equal_distinct_states_combine():
    u = gns_apply(generator(1, 2), cyclic_vector(position_state(Fraction(3, 2))))
    v = gns_apply(generator(2, 2), cyclic_vector(position_state("3/2")))
    assert u.owner is not v.owner and u.owner == v.owner
    assert (u + v).word == generator(1, 2) + generator(2, 2)
    assert (u - v).owner is u.owner
    assert gns_inner(u, v) == gns_inner(u, gns_apply(generator(2, 2), cyclic_vector(u.owner)))
    for other in (position_state(2), momentum_state(Fraction(3, 2)), vacuum_state()):
        w = cyclic_vector(other)
        for combine in (lambda: u + w, lambda: u - w, lambda: gns_inner(u, w)):
            with pytest.raises(OwnerMismatchError):
                combine()
