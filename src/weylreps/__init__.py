"""Exact models of the exponentiated canonical commutation relations.

The package keeps all structural data (generator labels, basis points,
frequencies) in exact rational arithmetic, so that support statements like
"this matrix element is zero for every nonzero shift" are decided exactly,
while unit-modulus phases and coefficients live in ordinary floating point.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562) and then bound
here, and ``weylreps.gns`` and the like import the submodule.  A command
line request is a fresh process, so it pays for every module it loads; this
way ``product`` loads only ``algebra`` and ``serialize``.  numpy is
imported only inside the functions that compute with it.
"""

import sys

__version__ = "0.1.0"

#: the public names of each module, imported from there on first access
_PUBLIC = {
    "algebra": (
        "PRUNE_TOL", "RationalIndex", "WeylElement", "WeylIndex", "as_fraction",
        "generator", "identity", "phase", "zero",
    ),
    "almost_periodic": ("TrigPolynomial", "constant", "trig_generator"),
    "gns": (
        "DEFAULT_PROBES", "EigenvectorWitness", "GnsVector", "OwnerMismatchError",
        "continuity_scan", "cyclic_vector", "eigenvector_witness", "equivalence_check",
        "gns_apply", "gns_inner", "gns_norm", "is_null", "is_regular_direction",
        "reduce_momentum", "reduce_position", "regularity_fingerprint",
    ),
    "reps": (
        "MOMENTUM", "POSITION", "FiniteSupportVector", "FlavorMismatchError",
        "NonexistentObservableError", "apply_P", "apply_Q", "apply_U", "apply_V",
        "apply_element", "basis_vector", "finite_difference_generator", "inner",
        "u_direction_matrix_element", "v_direction_matrix_element", "weyl_relation_check",
    ),
    "schrodinger": (
        "GridWavefunction", "characteristic_function", "dispersion_product",
        "gaussian_ground_state", "gaussian_packet", "mean_quadrature", "point_mass_probe",
        "superpose", "truncation_bound",
    ),
    "states": (
        "VACUUM", "EigensolverError", "StateFunctional", "check_positivity", "gram_matrix",
        "momentum_state", "position_state", "vacuum_state",
    ),
}

#: the home module of each public name
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own call: -X importtime does not see
    # importlib.import_module, and a test reads each request's modules there
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
