"""Record semantics of the package's immutable value classes.

Each is constructed by position or by keyword, equals only an instance of its
own class with equal fields, hashes as the tuple of its fields, refuses
assignment and deletion, and keeps the ``repr`` it has always had.
"""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from weylreps.algebra import generator
from weylreps.almost_periodic import FourierWitness
from weylreps.gns import EigenvectorWitness, GnsVector, eigenvector_witness
from weylreps.schrodinger import GridWavefunction
from weylreps.states import StateFunctional, position_state, vacuum_state
from weylreps.verify import CheckResult

POSITION = StateFunctional("position", Fraction(3, 2))

# (class, field values in order, repr)
RECORDS = [
    (StateFunctional, ("position", Fraction(3, 2)), "StateFunctional(position, 3/2)"),
    (GnsVector, (generator(1, 2) * 0.5, vacuum_state()),
     "GnsVector(word=WeylElement({(1, 2): 0.5+0j}), owner=StateFunctional(vacuum))"),
    (EigenvectorWitness,
     (POSITION, 0.0, 1e-17, 0.0, ((Fraction(0), 1 + 0j), (Fraction(1, 8), 0j))),
     "EigenvectorWitness(state=StateFunctional(position, 3/2), eigen_deviation=0.0, "
     "gram_residual=1e-17, chain_deviation=0.0, "
     "broken_elements=((Fraction(0, 1), (1+0j)), (Fraction(1, 8), 0j)))"),
    (FourierWitness, (Fraction(1, 2), ((Fraction(1), 0j, 0j),)),
     "FourierWitness(point=Fraction(1, 2), rows=((Fraction(1, 1), 0j, 0j),))"),
    (CheckResult, ("algebra", "x", True, "max deviation 0.00e+00"),
     "CheckResult(suite='algebra', name='x', passed=True, detail='max deviation 0.00e+00')"),
]
FIELDS = {
    StateFunctional: ("kind", "parameter"),
    GnsVector: ("word", "owner"),
    EigenvectorWitness: ("state", "eigen_deviation", "gram_residual", "chain_deviation",
                         "broken_elements"),
    FourierWitness: ("point", "rows"),
    CheckResult: ("suite", "name", "passed", "detail"),
}


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, values, text):
    names = FIELDS[cls]
    record = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert tuple(getattr(record, name) for name in names) == values
    assert record == by_keyword and not record != by_keyword
    if cls is GnsVector:  # its word, a WeylElement, is unhashable
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(by_keyword) == hash(values)
    assert record != values and not isinstance(record, tuple)
    with pytest.raises(TypeError):
        len(record)
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == by_keyword


def test_records_equal_only_within_their_class():
    word = generator(1, 2)
    vector = GnsVector(word, POSITION)
    assert vector != GnsVector(word, vacuum_state())
    assert vector != GnsVector(word * 2, POSITION)
    assert FourierWitness(Fraction(1), ()) != GnsVector(Fraction(1), ())
    assert CheckResult("a", "b", True, "d") != ("a", "b", True, "d")


def test_state_functional_keeps_its_default_and_validation():
    assert StateFunctional("vacuum") == StateFunctional(kind="vacuum", parameter=None)
    assert StateFunctional("vacuum").parameter is None
    assert position_state("3/2") == POSITION and hash(position_state("3/2")) == hash(POSITION)
    assert repr(StateFunctional("vacuum")) == "StateFunctional(vacuum)"
    assert len({POSITION, position_state(Fraction(3, 2)), vacuum_state()}) == 2
    with pytest.raises(ValueError, match="unknown state kind"):
        StateFunctional("thermal", Fraction(1))
    with pytest.raises(ValueError, match="takes no parameter"):
        StateFunctional("vacuum", Fraction(1))
    with pytest.raises(ValueError, match="needs a rational parameter"):
        StateFunctional("momentum")
    with pytest.raises(TypeError):
        StateFunctional()
    with pytest.raises(TypeError):
        StateFunctional("vacuum", None, 3)


def test_eigenvector_witness_records_equal_when_rebuilt():
    witness = eigenvector_witness(POSITION)
    assert witness == eigenvector_witness(POSITION)
    assert hash(witness) == hash(eigenvector_witness(POSITION))
    assert witness.passed


def test_grid_wavefunction_compares_and_hashes_its_arrays():
    x, psi = np.array([0.0, 1.0]), np.array([1 + 0j, 0j])
    wave = GridWavefunction(x=x, psi=psi)
    assert (wave.x, wave.psi) == (x, psi)
    assert wave == GridWavefunction(x, psi)  # the same array objects
    with pytest.raises(ValueError):  # the truth of an elementwise comparison
        wave == GridWavefunction(x.copy(), psi.copy())
    with pytest.raises(TypeError, match="unhashable"):
        hash(wave)
    assert repr(wave) == "GridWavefunction(x=array([0., 1.]), psi=array([1.+0.j, 0.+0.j]))"
    with pytest.raises(AttributeError):
        wave.x = x
    with pytest.raises(AttributeError):
        del wave.psi


@pytest.mark.parametrize("cls", [EigenvectorWitness, FourierWitness, GridWavefunction,
                                 CheckResult], ids=lambda cls: cls.__name__)
def test_record_constructor_refuses_a_missing_extra_or_unknown_field(cls):
    names = cls._fields
    values = tuple(range(len(names)))
    assert cls(*values) == cls(**dict(zip(names, values)))
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == cls(*values)
    with pytest.raises(TypeError, match="missing"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="missing"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="takes"):
        cls(*values, 0)
    with pytest.raises(TypeError, match="unknown or repeated"):
        cls(*values, extra=0)
    with pytest.raises(TypeError, match="unknown or repeated"):
        cls(*values, **{names[0]: 0})
