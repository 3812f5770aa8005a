"""Grid quadrature model of the standard square-integrable representation.

This is the numeric cross-check oracle for every regular-state value in the
package: characteristic functions, dispersions, point-localisation weights
and truncated symmetric means.  It is deliberately plain - trapezoid rule on
a wide uniform grid, linear interpolation for shifted arguments and for
localisation weights, centered differences for the derivative - so its
correctness is easy to audit.  The window is fixed at [-12, 12], with 2**14
points (the ground state takes a finer count); the tolerances used
downstream (1e-6 for characteristic functions, 1e-3 for dispersions) are
loose against the discretisation bias measured on this window, the only one
they were measured on.  The truncated mean is the trapezoid sum at 128
points per unit in closed form (a Dirichlet kernel per term), so it
allocates no grid.  Every input number goes through :func:`_real`.  numpy
is imported inside the functions that compute with it: the truncated mean
and its bound are plain ``math`` and run without it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .algebra import Record, as_float, as_fraction
from .almost_periodic import TrigPolynomial

if TYPE_CHECKING:
    import numpy as np

X_MAX = 12.0  # the grid spans [-X_MAX, X_MAX]
DEFAULT_COUNT = 2**14
POINTS_PER_UNIT = 128  # grid density of the truncated mean
MAX_QUADRATURE_POINTS = 2**22  # the largest grid, allocated or summed in closed form


def _real(value, what: str) -> float:
    """``value`` as a finite float; NaN, infinities and overflow raise ``ValueError``."""
    x = as_float(value, what)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def _trapz(y: np.ndarray, dx: float = 1.0, x: np.ndarray | None = None):
    import numpy as np

    return (getattr(np, "trapezoid", None) or np.trapz)(y, x=x, dx=dx)  # trapz before 2.0


class GridWavefunction(Record):
    """Complex samples on a uniform grid, unit norm after construction."""

    _fields = ("x", "psi")

    @property
    def step(self) -> float:
        return float(self.x[1] - self.x[0])

    def norm(self) -> float:
        return math.sqrt(float(_trapz(abs(self.psi) ** 2, dx=self.step)))


def _make_grid(count: int) -> np.ndarray:
    import numpy as np

    if not 1024 <= count <= MAX_QUADRATURE_POINTS:
        raise ValueError(f"need 1024 to {MAX_QUADRATURE_POINTS} grid points, got {count}")
    x = np.linspace(-X_MAX, X_MAX, int(count))
    return (x - x[::-1]) / 2.0  # bit-exact mirror symmetry


def _normalized(x: np.ndarray, psi: np.ndarray) -> GridWavefunction:
    nrm = GridWavefunction(x=x, psi=psi).norm()
    if not 0.0 < nrm < math.inf:
        raise ValueError(f"cannot normalise a function of norm {nrm}")
    return GridWavefunction(x=x, psi=psi / nrm)


def gaussian_ground_state(count: int = DEFAULT_COUNT) -> GridWavefunction:
    """Unit Gaussian pi**-1/4 exp(-x**2/2), normalised on the grid."""
    import numpy as np

    x = _make_grid(count)
    return _normalized(x, np.pi**-0.25 * np.exp(-(x**2) / 2.0) + 0j)


def gaussian_packet(
    center: float = 0.0, width: float = 1.0, momentum: float = 0.0
) -> GridWavefunction:
    """Shifted, scaled and boosted Gaussian, normalised on the grid; width 1
    is the ground state.

    Every member of this family saturates the dispersion bound: the position
    dispersion is width/sqrt(2) and the momentum dispersion its reciprocal.
    """
    import numpy as np

    center, width = _real(center, "center"), _real(width, "width")
    momentum = _real(momentum, "momentum")
    _real(momentum * X_MAX, "momentum * X_MAX")  # as a in characteristic_function
    if width <= 0:
        raise ValueError("width must be positive")
    if width * width == 0.0:  # before numpy divides by it
        raise ValueError(f"cannot normalise a packet of width {width!r}: its square underflows")
    x = _make_grid(DEFAULT_COUNT)
    envelope = np.exp(-((x - center) ** 2) / (2.0 * width * width))
    return _normalized(x, envelope * np.exp(1j * momentum * x))


def superpose(a: GridWavefunction, b: GridWavefunction) -> GridWavefunction:
    """Normalised sum of two wavefunctions on the same grid."""
    if a.x.shape != b.x.shape or not (a.x == b.x).all():
        raise ValueError("wavefunctions live on different grids")
    return _normalized(a.x, a.psi + b.psi)


def characteristic_function(psi: GridWavefunction, a: float, b: float) -> complex:
    """<psi, U_a V_b psi> = integral conj(psi(x)) exp(iax) psi(x+b) dx.

    The shifted factor is linearly interpolated (zero outside the window);
    |b| may be at most a quarter of the window, X_MAX / 2.
    """
    import numpy as np

    a, b = _real(a, "a"), _real(b, "b")
    _real(a * X_MAX, "a * X_MAX")  # exp(i a x) is defined on the whole window
    if abs(b) > X_MAX / 2.0:
        raise ValueError(f"shift {b} exceeds a quarter of the window, {X_MAX / 2.0:g}")
    shifted = np.interp(psi.x + b, psi.x, psi.psi, left=0.0, right=0.0)
    integrand = np.conj(psi.psi) * np.exp(1j * a * psi.x) * shifted
    return complex(_trapz(integrand, dx=psi.step))


def dispersion_product(psi: GridWavefunction) -> float:
    """Product of the position and momentum dispersions, >= 1/2 - O(grid).

    Position moments by direct quadrature; momentum moments through centered
    finite differences of the samples (second moment via the squared
    derivative, which assumes the window swallows the tails).
    """
    import numpy as np

    h = psi.step
    density = np.abs(psi.psi) ** 2
    mean_q = float(_trapz(psi.x * density, dx=h))
    q2 = float(_trapz(psi.x**2 * density, dx=h))
    var_q = max(q2 - mean_q**2, 0.0)

    derivative = np.gradient(psi.psi, h)
    mean_p = float(_trapz(np.conj(psi.psi) * (-1j) * derivative, dx=h).real)
    p2 = float(_trapz(np.abs(derivative) ** 2, dx=h))
    var_p = max(p2 - mean_p**2, 0.0)
    return math.sqrt(var_q) * math.sqrt(var_p)


def point_mass_probe(psi: GridWavefunction, lam: float, eps: float) -> float:
    """Probability weight of [lam-eps, lam+eps], in [0, 1].

    Integrates the piecewise-linear interpolant of |psi|**2 exactly: the
    trapezoid rule on the interval's ends, cut to the window, and the grid
    points between them.  So it stays accurate even when the interval covers
    only a few grid cells; the value scales linearly in eps once eps is below
    the density's variation scale.  Requires eps > grid step.
    """
    import numpy as np

    lam, eps = _real(lam, "lam"), _real(eps, "eps")
    if eps <= psi.step:
        raise ValueError(f"eps {eps} must exceed the grid step {psi.step}")
    lo, hi = np.clip([lam - eps, lam + eps], -X_MAX, X_MAX)
    x = psi.x
    inner = x[np.searchsorted(x, lo, side="right"):np.searchsorted(x, hi, side="left")]
    ends = np.concatenate([[lo], inner, [hi]])
    value = float(_trapz(np.interp(ends, x, np.abs(psi.psi) ** 2), x=ends))
    return min(max(value, 0.0), 1.0)


def _averaging_length(n) -> float:
    n = _real(n, "averaging length")
    if n < 1.0:
        raise ValueError("averaging length must be at least 1")
    return n


def mean_quadrature(f: TrigPolynomial, n: float) -> complex:
    """Truncated symmetric average (1/2N) integral_{-N}^{N} f, by trapezoid.

    The value is the trapezoid sum over the uniform grid of m + 1 points on
    [-N, N], m = int(2 N POINTS_PER_UNIT), summed in closed form: no grid is
    allocated and the cost is one sine pair per term.  With step h = 2N/m
    the grid sum of exp(i a x_k) is the Dirichlet kernel
    D = sin((m+1) theta/2) / sin(theta/2) at theta = a h, so each term
    c exp(i a x) contributes c (D - cos(a N)) / m.  theta is first reduced
    to the nearest multiple 2 pi k (D changes sign when k m is odd) and D is
    m + 1 at theta = 0, which keeps aliased frequencies stable.

    For a polynomial with nonzero frequencies a_j the result differs from
    the exact mean by at most sum_j 2|c_j|/(|a_j| N) plus the quadrature
    error, which is O(|a_j| step**2) per unit coefficient.  N must be finite
    and >= 1, and the grid at most ``MAX_QUADRATURE_POINTS`` points, the
    domain on which the closed form is pinned against the summed grid.
    """
    n = _averaging_length(n)
    span = 2.0 * n * POINTS_PER_UNIT
    if span >= MAX_QUADRATURE_POINTS:
        raise ValueError(
            f"averaging length {n:g} at {POINTS_PER_UNIT} points per unit "
            f"needs a grid larger than the limit of {MAX_QUADRATURE_POINTS} points"
        )
    return _trapezoid_mean(f, n, int(span))


def _trapezoid_mean(f: TrigPolynomial, n: float, m: int) -> complex:
    """The trapezoid sum of :func:`mean_quadrature` over m cells, in closed form."""
    h = 2.0 * n / m
    total = 0j
    for freq, coeff in f.coefficients.items():
        a = as_float(freq, "frequency")
        theta = a * h
        half = math.remainder(theta, math.tau) / 2.0
        k = round((theta - 2.0 * half) / math.tau)
        s = math.sin(half)
        kernel = (m + 1) if s == 0.0 else math.sin((m + 1) * half) / s
        if k * m % 2:
            kernel = -kernel
        total += coeff * (kernel - math.cos(a * n)) / m
    return total


#: allowance for the quadrature error, which :func:`truncation_bound` leaves
#: out, in the ``mean`` subcommand's cross-check of :func:`mean_quadrature`
QUADRATURE_SLACK = 1e-6


def truncation_bound(f: TrigPolynomial, n: float) -> float:
    """Analytic bound sum_j 2|c_j|/(|a_j| N) over nonzero frequencies.

    1/|a_j| is taken exactly, so a frequency that a float would round to 0
    is refused, not divided by.
    """
    n = _averaging_length(n)
    return math.fsum(
        2.0 * abs(c) * abs(as_float(1 / as_fraction(freq), "1/frequency")) / n
        for freq, c in f.coefficients.items()
        if freq != 0
    )
