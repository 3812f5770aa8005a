"""Generated requests for each input command of the CLI, run in-process.

Every request ends in exit 0, 1 or 2; exit 2 prints exactly one ``error:``
line and nothing on stdout; no exception escapes ``cli.main``.  The values
cover the edges the readers must refuse or carry: rationals at 10^+-400,
zero denominators, decimal exponents past the size limit, JSON floats,
bools, nulls and lists in every field, elements that are not lists, and
complex parts at +-1.7e308 or NaN.  No example is filtered out.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from weylreps.cli import main

HUGE = 10**400

# a rational as the text a user types: p/q (q = 0 included), a decimal with an
# exponent at the size limit or past it, or a word
rational_text = st.one_of(
    st.integers(-HUGE, HUGE).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-HUGE, HUGE), st.integers(0, HUGE)),
    st.builds(lambda m, e: f"{m}e{e}", st.integers(-99, 99),
              st.sampled_from([-400, -3, 0, 3, 400, -100001, 100001, 3000000])),
    st.sampled_from(["", "x", "1/", "/2", "1.5", " 7 ", "nan", "inf"]),
)

# what can sit in a field of a JSON record, besides the right thing
junk = st.one_of(st.none(), st.booleans(), st.floats(), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
rational_field = st.one_of(rational_text, st.integers(-HUGE, HUGE), junk)
complex_part = st.one_of(
    st.floats(),  # NaN and the infinities included
    st.sampled_from([1.7e308, -1.7e308, 5e-324, 0.0, 1.0]),
    st.integers(-HUGE, HUGE),
    junk,
    rational_text,
)


def records(fields):
    """Term records with every field present, some missing, or a value that is not a record."""
    parts = dict.fromkeys(fields, rational_field)
    parts.update(re=complex_part, im=complex_part)
    record = st.one_of(st.fixed_dictionaries(parts), st.fixed_dictionaries({}, optional=parts),
                       junk, rational_text)
    return st.one_of(st.lists(record, max_size=4), junk)


elements = records(["a", "b"])
polynomials = records(["freq"])
states = st.one_of(
    st.sampled_from(["vacuum", "thermal", "vacuum:1", "position:", ""]),
    st.builds(lambda kind, value: f"{kind}:{value}",
              st.sampled_from(["position", "momentum", "vacuum"]), rational_text),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv, files, workdir):
    """``main(argv)`` with ``{name}`` in argv standing for a file holding ``files[name]``."""
    for name, payload in files.items():
        (workdir / name).write_text(json.dumps(payload))
    argv = [arg.format(**{name: workdir / name for name in files}) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(left=elements, right=elements)
def test_product_fuzz(workdir, left, right):
    run(["product", "{left}", "{right}"], {"left": left, "right": right}, workdir)


@settings(max_examples=150, deadline=None)
@given(state=states, element=elements)
def test_eval_state_fuzz(workdir, state, element):
    run(["eval-state", f"--state={state}", "{element}"], {"element": element}, workdir)


@settings(max_examples=150, deadline=None)
@given(state=states, words=st.one_of(st.lists(elements, max_size=3), junk))
def test_gns_build_fuzz(workdir, state, words):
    run(["gns-build", f"--state={state}", "{words}"], {"words": words}, workdir)


@settings(max_examples=150, deadline=None)
@given(state=states, direction=st.sampled_from(["U", "V"]),
       grid=st.lists(rational_text, max_size=4).map(",".join))
def test_continuity_scan_fuzz(workdir, state, direction, grid):
    run(["continuity-scan", f"--state={state}", f"--direction={direction}", f"--grid={grid}"],
        {}, workdir)


@settings(max_examples=150, deadline=None)
@given(poly=polynomials, n=st.sampled_from(["10", "1000", "1e13", "0.5", "nan", "inf", "-3"]))
def test_mean_fuzz(workdir, poly, n):
    run(["mean", "{poly}", f"--quadrature-n={n}"], {"poly": poly}, workdir)
