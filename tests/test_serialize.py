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
    _SHOWN_CHARS,
    RecordError,
    _shown,
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


def test_vector_records_reject_an_unknown_flavor():
    with pytest.raises(RecordError) as refused:
        vector_from_records([{"point": "1/2", "re": 1.0, "im": 0.0, "flavor": "bogus"}])
    assert type(refused.value) is RecordError
    assert str(refused.value) == "unknown flavor: 'bogus'"


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


INEXACT = [2.7, True]  # a JSON float and bool, which int() would truncate to 2 and 1


@pytest.mark.parametrize("value", INEXACT)
@pytest.mark.parametrize("field", ["a", "b"])
def test_element_record_inexact_label_raises_record_error(field, value):
    record = {"a": "1/2", "b": "0", "re": 1.0, "im": 0.0, field: value}
    with pytest.raises(RecordError, match="bad element record"):
        element_from_records([record])
    record[field] = 3  # a JSON int is exact
    assert element_from_records([record]).terms


@pytest.mark.parametrize("value", INEXACT)
@pytest.mark.parametrize("kind, field", [("position", "lambda"), ("momentum", "mu")])
def test_state_record_inexact_parameter_raises_record_error(kind, field, value):
    with pytest.raises(RecordError, match="not an exact rational"):
        state_from_record({"kind": kind, field: value})
    assert state_from_record({"kind": kind, field: -2}).parameter == -2


@pytest.mark.parametrize("value", INEXACT)
def test_vector_record_inexact_point_raises_record_error(value):
    record = {"point": value, "re": 1.0, "im": 0.0, "flavor": "position"}
    with pytest.raises(RecordError, match="bad vector record"):
        vector_from_records([record])


@pytest.mark.parametrize("value", INEXACT)
def test_trig_record_inexact_frequency_raises_record_error(value):
    with pytest.raises(RecordError, match="bad polynomial record"):
        trig_from_records([{"freq": value, "re": 1.0, "im": 0.0}])


NON_FINITE = {
    "json-overflow": json.loads('{"re": 1e309, "im": 0.0}'),  # reads as inf
    "nan": json.loads('{"re": 0.0, "im": NaN}'),
    "modulus-overflow": {"re": 1.7e308, "im": 1.7e308},  # finite parts, abs() overflows
}


@pytest.mark.parametrize("coefficient", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_record_non_finite_coefficient_raises_record_error(coefficient):
    with pytest.raises(RecordError, match="bad element record"):
        element_from_records([{"a": "1", "b": "0", **coefficient}])
    with pytest.raises(RecordError, match="bad vector record"):
        vector_from_records([{"point": "1", "flavor": "momentum", **coefficient}])
    with pytest.raises(RecordError, match="bad polynomial record"):
        trig_from_records([{"freq": "1", **coefficient}])


MISTYPED = {"bool-re": {"re": True, "im": 0.0}, "bool-im": {"re": 1.0, "im": False},
            "string-re": {"re": "2.5", "im": 0.0}, "string-im": {"re": 0.0, "im": "1"}}


@pytest.mark.parametrize("coefficient", MISTYPED.values(), ids=MISTYPED.keys())
def test_element_record_mistyped_coefficient_raises_record_error(coefficient):
    with pytest.raises(RecordError, match="bad element record"):
        element_from_records([{"a": "1", "b": "0", **coefficient}])
    assert element_from_records([{"a": "1", "b": "0", "re": 2, "im": -1}]).terms == {
        WeylIndex(Fraction(1), Fraction(0)): 2 - 1j}


@pytest.mark.parametrize("coefficient", MISTYPED.values(), ids=MISTYPED.keys())
def test_vector_record_mistyped_coefficient_raises_record_error(coefficient):
    with pytest.raises(RecordError, match="bad vector record"):
        vector_from_records([{"point": "1", "flavor": "position", **coefficient}])


@pytest.mark.parametrize("coefficient", MISTYPED.values(), ids=MISTYPED.keys())
def test_trig_record_mistyped_coefficient_raises_record_error(coefficient):
    with pytest.raises(RecordError, match="bad polynomial record"):
        trig_from_records([{"freq": "1", **coefficient}])


@pytest.mark.parametrize("read, records, kind", [
    (element_from_records, 7, "element"),
    (element_from_records, {"a": "1", "b": "0", "re": 1.0, "im": 0.0}, "element"),
    (vector_from_records, {"x": 1}, "vector"),
    (trig_from_records, 7, "polynomial"),
    (trig_from_records, None, "polynomial"),
], ids=["element-int", "element-record", "vector-dict", "trig-int", "trig-none"])
def test_a_non_list_of_term_records_raises_record_error(read, records, kind):
    # vector_from_records({"x": 1}) raised KeyError and trig_from_records(7) TypeError
    with pytest.raises(RecordError, match=f"^expected a list of {kind} records, got "):
        read(records)


@pytest.mark.parametrize("read, record, message", [
    (element_from_records, {"a": "1e3000000", "b": "0", "re": 1.0, "im": 0.0},
     "bad element record: {'a': '1e3000000', 'b': '0', 're': 1.0, 'im': 0.0} "
     "(not an exact rational: '1e3000000' "
     "(decimal exponent past the size limit |e| <= 100000))"),
    (vector_from_records, {"point": "1/0", "re": 1.0, "im": 0.0, "flavor": "position"},
     "bad vector record: {'point': '1/0', 're': 1.0, 'im': 0.0, 'flavor': 'position'} "
     "(not an exact rational: '1/0' (zero denominator))"),
    (trig_from_records, {"a": "1", "re": 1.0, "im": 0.0},
     "bad polynomial record: {'a': '1', 're': 1.0, 'im': 0.0} (missing field 'freq')"),
    (trig_from_records, [1], "bad polynomial record: [1] (a list is refused here)"),
], ids=["element-exponent", "vector-zero-denominator", "trig-missing-field", "trig-list"])
def test_a_bad_term_record_keeps_its_reason(read, record, message):
    with pytest.raises(RecordError) as info:
        read([record])
    assert str(info.value) == message


def test_a_refused_value_is_shown_capped_however_large_or_deep():
    assert _shown({"a": "1/0"}) == "{'a': '1/0'}"
    wide = [0] * 10**5
    rest = len(repr(wide)) - _SHOWN_CHARS
    assert _shown(wide) == f"{repr(wide)[:_SHOWN_CHARS]}... ({rest} more characters)"
    deep = []
    for _ in range(10**5):  # past the recursion limit of repr
        deep = [deep]
    assert _shown(deep) == "a list nested too deeply to show"
    # a field's text and the reason that repeats it are both capped
    with pytest.raises(RecordError) as info:
        element_from_records([{"a": "x" * 10**6, "b": "0", "re": 1.0, "im": 0.0}])
    assert len(str(info.value)) < 5 * _SHOWN_CHARS
