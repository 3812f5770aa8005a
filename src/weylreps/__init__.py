"""Exact models of the exponentiated canonical commutation relations.

The package keeps all structural data (generator labels, basis points,
frequencies) in exact rational arithmetic, so that support statements like
"this matrix element is zero for every nonzero shift" are decided exactly,
while unit-modulus phases and coefficients live in ordinary floating point.
"""

from .algebra import (
    PRUNE_TOL,
    WeylElement,
    WeylIndex,
    as_fraction,
    generator,
    identity,
    phase,
    zero,
)
from .almost_periodic import (
    FourierWitness,
    TrigPolynomial,
    constant,
    haar_fourier,
    invariant_mean,
    momentum_fourier_witness,
    trig_generator,
)
from .gns import (
    DEFAULT_PROBES,
    EigenvectorWitness,
    GnsVector,
    OwnerMismatchError,
    continuity_scan,
    cyclic_vector,
    eigenvector_witness,
    equivalence_check,
    gns_apply,
    gns_inner,
    gns_norm,
    is_null,
    is_regular_direction,
    reduce_momentum,
    reduce_position,
    regularity_fingerprint,
)
from .reps import (
    MOMENTUM,
    POSITION,
    FiniteSupportVector,
    FlavorMismatchError,
    NonexistentObservableError,
    apply_P,
    apply_Q,
    apply_U,
    apply_V,
    apply_element,
    basis_vector,
    finite_difference_generator,
    inner,
    u_direction_matrix_element,
    v_direction_matrix_element,
    weyl_relation_check,
)
from .states import (
    VACUUM,
    EigensolverError,
    StateFunctional,
    check_positivity,
    gram_matrix,
    momentum_state,
    position_state,
    vacuum_state,
)

__version__ = "0.1.0"

__all__ = [
    "PRUNE_TOL",
    "WeylElement",
    "WeylIndex",
    "as_fraction",
    "generator",
    "identity",
    "phase",
    "zero",
    "FourierWitness",
    "TrigPolynomial",
    "constant",
    "haar_fourier",
    "invariant_mean",
    "momentum_fourier_witness",
    "trig_generator",
    "DEFAULT_PROBES",
    "EigenvectorWitness",
    "GnsVector",
    "OwnerMismatchError",
    "continuity_scan",
    "cyclic_vector",
    "eigenvector_witness",
    "equivalence_check",
    "gns_apply",
    "gns_inner",
    "gns_norm",
    "is_null",
    "is_regular_direction",
    "reduce_momentum",
    "reduce_position",
    "regularity_fingerprint",
    "MOMENTUM",
    "POSITION",
    "FiniteSupportVector",
    "FlavorMismatchError",
    "NonexistentObservableError",
    "apply_P",
    "apply_Q",
    "apply_U",
    "apply_V",
    "apply_element",
    "basis_vector",
    "finite_difference_generator",
    "inner",
    "u_direction_matrix_element",
    "v_direction_matrix_element",
    "weyl_relation_check",
    "GridWavefunction",
    "characteristic_function",
    "dispersion_product",
    "gaussian_ground_state",
    "gaussian_packet",
    "mean_quadrature",
    "point_mass_probe",
    "superpose",
    "truncation_bound",
    "VACUUM",
    "EigensolverError",
    "StateFunctional",
    "check_positivity",
    "gram_matrix",
    "momentum_state",
    "position_state",
    "vacuum_state",
]

# The grid oracle is the only module that imports numpy at load time, so
# its names are resolved on first access (PEP 562): the exact layers, and
# the command line for every subcommand that does not use the oracle,
# start without numpy.
_SCHRODINGER_NAMES = frozenset({
    "GridWavefunction",
    "characteristic_function",
    "dispersion_product",
    "gaussian_ground_state",
    "gaussian_packet",
    "mean_quadrature",
    "point_mass_probe",
    "superpose",
    "truncation_bound",
})


def __getattr__(name: str):
    if name in _SCHRODINGER_NAMES:
        from . import schrodinger

        return getattr(schrodinger, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SCHRODINGER_NAMES)
