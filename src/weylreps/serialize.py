"""Record-based text formats shared by the command line surface.

Rationals travel as exact strings ("3/2", "-7", "1/1000000"), and are read
from JSON integers too, never from floats or booleans; complex coefficients
as pairs of JSON numbers, never booleans or strings, with floats rendered as
shortest round-trip decimals; a non-finite one is refused.  Records are plain
dicts/lists, so callers pick the transport (json module, CSV writer) themselves.
A rational whose numerator or denominator passes the interpreter's limit on
int strings (``sys.get_int_max_str_digits``) is refused when it is written.

Element records need only ``algebra``.  The state, vector and polynomial
readers import ``states``, ``reps`` and ``almost_periodic`` where they run,
so a command line request loads only the modules it computes with.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import itemgetter
from typing import IO, TYPE_CHECKING, Mapping, Optional, Sequence, Tuple

from .algebra import WeylElement, WeylIndex, as_fraction

if TYPE_CHECKING:
    from .almost_periodic import TrigPolynomial
    from .reps import FiniteSupportVector
    from .states import StateFunctional

#: what reading a malformed field raises, a number past the float range included
_BAD_FIELD = (KeyError, TypeError, ValueError, OverflowError)

#: the most characters of a refused value, or of a reason, that a message shows
_SHOWN_CHARS = 100


class RecordError(ValueError):
    """Malformed record data (bad rational string, missing field...)."""


def _capped(text: str) -> str:
    """``text`` cut to ``_SHOWN_CHARS`` characters, and the count of the rest."""
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({len(text) - _SHOWN_CHARS} more characters)"


def _shown(value) -> str:
    """The refused ``value`` as an error message shows it: its ``repr``, capped,
    so that the one error line does not grow with the input.  A value nested
    too deeply for ``repr`` is named by its type."""
    try:
        return _capped(repr(value))
    except RecursionError:
        return f"a {type(value).__name__} nested too deeply to show"


def _typed(value, types: tuple):
    """``value`` if it is one of ``types``; a bool, which JSON keeps apart, never is."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"a {type(value).__name__} is refused here")
    return value


def _fraction_from(text) -> Fraction:
    """A rational field: an exact string or an int; a float or a bool is refused."""
    try:
        return as_fraction(_typed(text, (str, int)))
    except (TypeError, ValueError) as exc:
        raise RecordError(f"not an exact rational: {_shown(text)} ({_capped(str(exc))})") from exc


def _rational_text(value, what: str) -> str:
    """``str`` of a rational, refused with a ``ValueError`` that names ``what``,
    the digit count and the limit where an int of it is too long to write."""
    try:
        return str(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        n = max(abs(value.numerator), value.denominator)
    digits = int(math.log10(n)) + 1  # within one of the count, then made exact
    digits += (n >= 10**digits) - (n < 10 ** (digits - 1))
    raise ValueError(f"cannot write {what}: {digits} digits, past the limit of "
                     f"{sys.get_int_max_str_digits()} digits for an int string")


def _coefficient(record: Mapping) -> complex:
    """``re`` + i ``im``, each an int or a float, refused as a map would refuse it."""
    value = complex(float(_typed(record["re"], (int, float))),
                    float(_typed(record["im"], (int, float))))
    if not abs(value) < math.inf:  # inf or nan; a modulus past the range overflows
        raise ValueError(f"non-finite coefficient: {value!r}")
    return value


def _terms(records: list[Mapping], kind: str, read) -> list:
    """``read`` of each record in a list of ``kind`` records; a bad record is
    refused with the reason, a missing field named."""
    if not isinstance(records, list):
        raise RecordError(f"expected a list of {kind} records, got {_shown(records)}")
    terms = []
    for rec in records:
        try:
            terms.append(read(_typed(rec, (Mapping,))))
        except _BAD_FIELD as exc:
            reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise RecordError(f"bad {kind} record: {_shown(rec)} ({reason})") from exc
    return terms


def _parameter_field(kind) -> Optional[str]:
    from .states import PARAMETER_FIELD

    try:
        return PARAMETER_FIELD[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise RecordError(f"unknown state kind: {_shown(kind)}") from None


def element_to_records(element: WeylElement) -> list[dict]:
    # sorted on the labels alone: they are unique, so no coefficient is compared
    return [
        {"a": _rational_text(a, "a"), "b": _rational_text(b, "b"),
         "re": c.real, "im": c.imag}
        for (a, b), c in sorted(element.terms.items(), key=itemgetter(0))
    ]


def element_from_records(records: list[Mapping]) -> WeylElement:
    return WeylElement(_terms(records, "element", lambda rec: (
        WeylIndex(_fraction_from(rec["a"]), _fraction_from(rec["b"])), _coefficient(rec))))


def state_to_record(state: StateFunctional) -> dict:
    field = _parameter_field(state.kind)
    if field is None:
        return {"kind": state.kind}
    return {"kind": state.kind, field: _rational_text(state.parameter, field)}


def state_from_record(record: Mapping) -> StateFunctional:
    from .states import StateFunctional

    if not isinstance(record, Mapping):
        raise RecordError(f"bad state record: {_shown(record)}")
    kind = record.get("kind")
    field = _parameter_field(kind)
    return StateFunctional(kind, None if field is None else _fraction_from(record.get(field)))


def parse_state_arg(text: str) -> StateFunctional:
    """Compact command line form: 'vacuum', 'position:3/2', 'momentum:-1'."""
    from .states import StateFunctional

    kind, _, param = text.partition(":")
    kind = kind.strip().lower()
    if param and _parameter_field(kind) is not None:
        param = _fraction_from(param)  # a malformed parameter names its own fault
    try:
        # refuses a vacuum parameter and a missing one: an empty text is none
        return StateFunctional(kind, None if param == "" else param)
    except ValueError as exc:
        raise RecordError(str(exc)) from None


def vector_to_records(vector: FiniteSupportVector) -> list[dict]:
    return [
        {"point": _rational_text(p, "point"), "re": c.real, "im": c.imag,
         "flavor": vector.flavor}
        for p, c in sorted(vector.amplitudes.items())
    ]


def vector_from_records(records: list[Mapping]) -> FiniteSupportVector:
    from .reps import FLAVORS, FiniteSupportVector

    terms = _terms(records, "vector", lambda rec: (
        rec.get("flavor"), (_fraction_from(rec["point"]), _coefficient(rec))))
    if not terms:
        raise RecordError("empty vector record list (flavor undeterminable)")
    flavor = terms[0][0]
    if flavor not in FLAVORS:
        raise RecordError(f"unknown flavor: {_shown(flavor)}")
    if any(f != flavor for f, _ in terms):
        raise RecordError("mixed flavors in one vector record list")
    return FiniteSupportVector([amplitude for _, amplitude in terms], flavor)


def trig_to_records(poly: TrigPolynomial) -> list[dict]:
    return [
        {"freq": _rational_text(f, "freq"), "re": c.real, "im": c.imag}
        for f, c in sorted(poly.coefficients.items())
    ]


def trig_from_records(records: list[Mapping]) -> TrigPolynomial:
    from .almost_periodic import TrigPolynomial

    return TrigPolynomial(_terms(records, "polynomial", lambda rec: (
        _fraction_from(rec["freq"]), _coefficient(rec))))


def scan_to_csv(rows: Sequence[Tuple[Fraction, complex]], stream: IO[str]) -> None:
    """Write 'parameter,re,im' rows, parameter as an exact rational string,
    in one write: a refused row leaves the stream untouched."""
    lines = [f"{_rational_text(t, 'parameter')},{value.real!r},{value.imag!r}\n"
             for t, value in rows]
    stream.write("parameter,re,im\n" + "".join(lines))
