"""Shared generators (those of the ``verify`` suites) and hypothesis strategies."""

import hypothesis.strategies as st

from weylreps import WeylElement
from weylreps.verify import rand_coeff, rand_element, rand_fraction, rand_trig  # noqa: F401

# rationals with |value| <= 10 and denominator <= 12
fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=12)

coeff_st = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)

elements_st = st.dictionaries(
    st.tuples(fractions_st, fractions_st), coeff_st, min_size=1, max_size=3
).map(WeylElement)


def count_element_products(monkeypatch) -> list:
    """Wrap ``WeylElement.__mul__`` so each element-by-element product appends
    to the returned list; products with a scalar are not counted."""
    calls = []
    original = WeylElement.__mul__

    def counting(self, other):
        if isinstance(other, WeylElement):
            calls.append(1)
        return original(self, other)

    monkeypatch.setattr(WeylElement, "__mul__", counting)
    return calls
