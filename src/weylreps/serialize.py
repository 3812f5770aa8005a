"""Record-based text formats shared by the command line surface.

Rationals travel as exact strings ("3/2", "-7", "1/1000000"); complex
coefficients as pairs of floats, which JSON renders as shortest round-trip
decimals.  Records are plain dicts/lists, so callers pick the transport
(json module, CSV writer) themselves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import IO, Iterable, Mapping, Optional, Sequence, Tuple

from .algebra import WeylElement, WeylIndex, as_fraction
from .almost_periodic import TrigPolynomial
from .reps import FLAVORS, FiniteSupportVector
from .states import MOMENTUM, POSITION, VACUUM, StateFunctional

#: record field of each kind's parameter; the vacuum takes none
_PARAMETER_FIELD = {POSITION: "lambda", MOMENTUM: "mu", VACUUM: None}

#: what reading a malformed field raises, a number past the float range included
_BAD_FIELD = (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError)


class RecordError(ValueError):
    """Malformed record data (bad rational string, missing field...)."""


def _fraction_from(text) -> Fraction:
    try:
        return as_fraction(text if isinstance(text, str) else int(text))
    except _BAD_FIELD as exc:
        raise RecordError(f"not an exact rational: {text!r}") from exc


def _coefficient(record: Mapping) -> complex:
    return complex(float(record["re"]), float(record["im"]))


def _mapping(record, what: str) -> Mapping:
    if not isinstance(record, Mapping):
        raise RecordError(f"bad {what} record: {record!r}")
    return record


def _parameter_field(kind) -> Optional[str]:
    try:
        return _PARAMETER_FIELD[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise RecordError(f"unknown state kind: {kind!r}") from None


def element_to_records(element: WeylElement) -> list[dict]:
    return [
        {"a": str(a), "b": str(b), "re": c.real, "im": c.imag}
        for (a, b), c in sorted(element.terms.items())
    ]


def element_from_records(records: Iterable[Mapping]) -> WeylElement:
    terms = []
    for rec in records:
        try:
            index = WeylIndex(_fraction_from(rec["a"]), _fraction_from(rec["b"]))
            coeff = _coefficient(rec)
        except _BAD_FIELD as exc:
            raise RecordError(f"bad element record: {rec!r}") from exc
        terms.append((index, coeff))
    return WeylElement(terms)


def state_to_record(state: StateFunctional) -> dict:
    field = _PARAMETER_FIELD[state.kind]
    if field is None:
        return {"kind": state.kind}
    return {"kind": state.kind, field: str(state.parameter)}


def state_from_record(record: Mapping) -> StateFunctional:
    kind = _mapping(record, "state").get("kind")
    field = _parameter_field(kind)
    return StateFunctional(kind, None if field is None else _fraction_from(record.get(field)))


def parse_state_arg(text: str) -> StateFunctional:
    """Compact command line form: 'vacuum', 'position:3/2', 'momentum:-1'."""
    kind, _, param = text.partition(":")
    kind = kind.strip().lower()
    if _parameter_field(kind) is None:
        if param:
            raise RecordError("the vacuum state takes no parameter")
        return StateFunctional(kind)
    return StateFunctional(kind, _fraction_from(param))


def vector_to_records(vector: FiniteSupportVector) -> list[dict]:
    return [
        {"point": str(p), "re": c.real, "im": c.imag, "flavor": vector.flavor}
        for p, c in sorted(vector.amplitudes.items())
    ]


def vector_from_records(records: Sequence[Mapping]) -> FiniteSupportVector:
    if not records:
        raise RecordError("empty vector record list (flavor undeterminable)")
    flavor = _mapping(records[0], "vector").get("flavor")
    if flavor not in FLAVORS:
        raise RecordError(f"unknown flavor: {flavor!r}")
    amplitudes = []
    for rec in records:
        if _mapping(rec, "vector").get("flavor") != flavor:
            raise RecordError("mixed flavors in one vector record list")
        try:
            amplitudes.append((_fraction_from(rec["point"]), _coefficient(rec)))
        except _BAD_FIELD as exc:
            raise RecordError(f"bad vector record: {rec!r}") from exc
    return FiniteSupportVector(amplitudes, flavor)


def trig_to_records(poly: TrigPolynomial) -> list[dict]:
    return [
        {"freq": str(f), "re": c.real, "im": c.imag}
        for f, c in sorted(poly.coefficients.items())
    ]


def trig_from_records(records: Iterable[Mapping]) -> TrigPolynomial:
    coeffs = []
    for rec in records:
        try:
            coeffs.append((_fraction_from(rec["freq"]), _coefficient(rec)))
        except _BAD_FIELD as exc:
            raise RecordError(f"bad polynomial record: {rec!r}") from exc
    return TrigPolynomial(coeffs)


def scan_to_csv(rows: Sequence[Tuple[Fraction, complex]], stream: IO[str]) -> None:
    """Write 'parameter,re,im' rows, parameter as an exact rational string."""
    stream.write("parameter,re,im\n")
    for parameter, value in rows:
        stream.write(f"{parameter},{value.real!r},{value.imag!r}\n")
