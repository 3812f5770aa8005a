import json
import pickle
from fractions import Fraction

import pytest

import weylreps
import weylreps.schrodinger
from fresh import run_fresh


def test_every_public_name_resolves():
    for name in weylreps.__all__:
        assert getattr(weylreps, name) is not None, name
    assert set(weylreps.__all__) <= set(dir(weylreps))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from weylreps import *", namespace)
    assert set(weylreps.__all__) <= set(namespace)
    assert namespace["mean_quadrature"] is weylreps.schrodinger.mean_quadrature


def test_oracle_names_are_the_oracle_module_objects():
    assert weylreps.mean_quadrature is weylreps.schrodinger.mean_quadrature
    assert weylreps.GridWavefunction is weylreps.schrodinger.GridWavefunction


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylreps.no_such_name
    assert not hasattr(weylreps, "no_such_name")


def fresh_stdout(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this package."""
    proc = run_fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_no_submodule():
    out = fresh_stdout("import sys, weylreps\n"
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'weylreps'))")
    assert out == "['weylreps']\n"


def test_each_public_name_is_its_home_module_object_bound_on_first_access():
    # the home of a class or function is also where it was defined
    out = fresh_stdout("""
import json, sys, weylreps
wrong = []
for name in weylreps.__all__:
    home = "weylreps." + weylreps._HOME[name]
    unbound = name not in vars(weylreps)
    value = getattr(weylreps, name)
    if not (unbound and vars(weylreps).get(name) is value
            and value is getattr(sys.modules[home], name)
            and getattr(value, "__module__", home) == home):
        wrong.append(name)
print(json.dumps([len(weylreps.__all__), wrong]))
""")
    assert json.loads(out) == [61, []]


def test_submodule_resolves_after_a_bare_import():
    out = fresh_stdout("import weylreps, sys\n"
                       "print(weylreps.gns is sys.modules['weylreps.gns'], weylreps.gns.__name__)")
    assert out == "True weylreps.gns\n"


def test_pickled_labels_and_states_load_back():
    values = [weylreps.WeylIndex(Fraction(3, 2), -7), weylreps.RationalIndex(Fraction(-1, 3)),
              weylreps.StateFunctional("position", Fraction(5, 4)), weylreps.vacuum_state()]
    for value in values:
        assert pickle.loads(pickle.dumps(value)) == value
    data = pickle.dumps(values).hex()
    out = fresh_stdout("import pickle, weylreps\n"
                       f"print([repr(v) for v in pickle.loads(bytes.fromhex({data!r}))])")
    assert out == f"{[repr(v) for v in values]}\n"
