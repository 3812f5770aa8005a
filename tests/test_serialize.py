import io
import json
from fractions import Fraction

import pytest

from weylreps import (
    FiniteSupportVector,
    MOMENTUM,
    TrigPolynomial,
    WeylElement,
    WeylIndex,
    basis_vector,
    generator,
    momentum_state,
    position_state,
    vacuum_state,
)
from weylreps.serialize import (
    RecordError,
    element_from_records,
    element_to_records,
    parse_state_arg,
    scan_to_csv,
    state_from_record,
    state_to_record,
    trig_from_records,
    trig_to_records,
    vector_from_records,
    vector_to_records,
)


def test_element_round_trip_exact():
    element = WeylElement(
        {
            WeylIndex(Fraction(3, 2), Fraction(-7)): 0.1 + 0.2j,
            WeylIndex(Fraction(0), Fraction(1, 3)): -1.5j,
        }
    )
    records = element_to_records(element)
    assert records[0]["a"] == "0" and records[0]["b"] == "1/3"
    restored = element_from_records(json.loads(json.dumps(records)))
    assert restored == element  # exact: rationals as strings, floats via repr


def test_element_records_sorted_deterministically():
    element = generator(1, 0) + generator(0, 1)
    records = element_to_records(element)
    assert [(r["a"], r["b"]) for r in records] == [("0", "1"), ("1", "0")]


def test_element_bad_rational_rejected():
    with pytest.raises(RecordError):
        element_from_records([{"a": "1/0", "b": "0", "re": 1.0, "im": 0.0}])
    with pytest.raises(RecordError):
        element_from_records([{"a": "x", "b": "0", "re": 1.0, "im": 0.0}])
    with pytest.raises(RecordError):
        element_from_records([{"a": "1"}])


def test_state_round_trip():
    for state in (position_state(Fraction(3, 2)), momentum_state(-1), vacuum_state()):
        assert state_from_record(state_to_record(state)) == state
    assert state_to_record(position_state(Fraction(3, 2))) == {
        "kind": "position",
        "lambda": "3/2",
    }


def test_state_record_validation():
    with pytest.raises(RecordError):
        state_from_record({"kind": "thermal"})


def test_parse_state_arg():
    assert parse_state_arg("vacuum") == vacuum_state()
    assert parse_state_arg("position:3/2") == position_state(Fraction(3, 2))
    assert parse_state_arg("momentum:-1") == momentum_state(-1)
    with pytest.raises(RecordError):
        parse_state_arg("vacuum:1")
    with pytest.raises(RecordError):
        parse_state_arg("position:one")


def test_vector_round_trip():
    vector = FiniteSupportVector({Fraction(1, 2): 1 - 1j, Fraction(-3): 0.25}, MOMENTUM)
    records = vector_to_records(vector)
    assert all(r["flavor"] == "momentum" for r in records)
    assert vector_from_records(records) == vector


def test_vector_records_reject_mixed_flavors():
    records = vector_to_records(basis_vector(0)) + vector_to_records(
        basis_vector(0, MOMENTUM)
    )
    with pytest.raises(RecordError):
        vector_from_records(records)
    with pytest.raises(RecordError):
        vector_from_records([])


def test_trig_round_trip():
    poly = TrigPolynomial({Fraction(0): 2, Fraction(1, 2): 5, Fraction(-3): -1j})
    assert trig_from_records(trig_to_records(poly)) == poly


def test_scan_csv_format():
    stream = io.StringIO()
    scan_to_csv([(Fraction(0), 1 + 0j), (Fraction(1, 8), 0j)], stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "parameter,re,im"
    assert lines[1] == "0,1.0,0.0"
    assert lines[2] == "1/8,0.0,0.0"


HUGE = 10**400  # 401 digits: float() raises OverflowError on it


@pytest.mark.parametrize("part", ["re", "im"])
def test_element_record_huge_coefficient_raises_record_error(part):
    record = {"a": "1/2", "b": "0", "re": 1.0, "im": 0.0, part: HUGE}
    with pytest.raises(RecordError, match="bad element record"):
        element_from_records([record])


@pytest.mark.parametrize("part", ["re", "im"])
def test_vector_record_huge_coefficient_raises_record_error(part):
    record = {"point": "1", "re": 1.0, "im": 0.0, "flavor": "position", part: HUGE}
    with pytest.raises(RecordError, match="bad vector record"):
        vector_from_records([record])


@pytest.mark.parametrize("part", ["re", "im"])
def test_trig_record_huge_coefficient_raises_record_error(part):
    record = {"freq": "1", "re": 1.0, "im": 0.0, part: HUGE}
    with pytest.raises(RecordError, match="bad polynomial record"):
        trig_from_records([record])


@pytest.mark.parametrize("record", [[1], "vacuum"])
def test_state_from_record_rejects_non_mapping(record):
    with pytest.raises(RecordError, match="bad state record"):
        state_from_record(record)


@pytest.mark.parametrize("record", [[1], "vacuum"])
def test_vector_from_records_rejects_non_mapping(record):
    with pytest.raises(RecordError, match="bad vector record"):
        vector_from_records([record])
    valid = {"point": "1", "re": 1.0, "im": 0.0, "flavor": "position"}
    with pytest.raises(RecordError, match="bad vector record"):
        vector_from_records([valid, record])


@pytest.mark.parametrize("kind", [[], {}])
def test_state_record_unhashable_kind_is_unknown(kind):
    with pytest.raises(RecordError, match="unknown state kind"):
        state_from_record({"kind": kind})


def test_state_records_name_each_parameter_field():
    assert state_to_record(position_state(Fraction(3, 2))) == {"kind": "position", "lambda": "3/2"}
    assert state_to_record(momentum_state(Fraction(-1, 7))) == {"kind": "momentum", "mu": "-1/7"}
    assert state_to_record(vacuum_state()) == {"kind": "vacuum"}
    assert state_from_record({"kind": "momentum", "mu": "-1/7"}) == momentum_state(Fraction(-1, 7))
    assert state_from_record({"kind": "vacuum", "lambda": "1"}) == vacuum_state()
    with pytest.raises(RecordError, match="not an exact rational"):
        state_from_record({"kind": "position", "mu": "1"})
