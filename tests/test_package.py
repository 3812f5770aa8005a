import pytest

import weylreps
import weylreps.schrodinger


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
