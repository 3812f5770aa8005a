"""Grid quadrature model of the standard square-integrable representation.

This is the numeric cross-check oracle for every regular-state value in the
package: characteristic functions, dispersions, point-localisation weights
and truncated symmetric means.  It is deliberately plain - trapezoid rule on
a wide uniform grid, linear interpolation for shifted arguments, centered
differences for the derivative - so its correctness is easy to audit.
Default window [-12, 12] with 2**14 points; tolerances used downstream
(1e-6 for characteristic functions, 1e-3 for dispersions) are loose against
the discretisation bias measured for this configuration.  The truncated
mean is the same trapezoid sum taken in closed form (a Dirichlet kernel per
term), so it allocates no grid; ``MAX_QUADRATURE_POINTS`` still caps the
grid it stands for, the domain on which that sum is pinned against the
summed grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .almost_periodic import TrigPolynomial

_trapz = getattr(np, "trapezoid", None) or np.trapz

DEFAULT_X_MIN = -12.0
DEFAULT_X_MAX = 12.0
DEFAULT_COUNT = 2**14
MAX_QUADRATURE_POINTS = 2**22


@dataclass(frozen=True)
class GridWavefunction:
    """Complex samples on a uniform grid, unit norm after construction."""

    x: np.ndarray
    psi: np.ndarray

    @property
    def step(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def window(self) -> float:
        return float(self.x[-1] - self.x[0])

    def norm(self) -> float:
        return math.sqrt(float(_trapz(np.abs(self.psi) ** 2, dx=self.step)))


def _make_grid(x_min: float, x_max: float, count: int) -> np.ndarray:
    if count < 1024:
        raise ValueError(f"need at least 1024 grid points, got {count}")
    if x_min > -8.0 or x_max < 8.0:
        raise ValueError(f"window [{x_min}, {x_max}] too small, need [-8, 8]")
    x = np.linspace(float(x_min), float(x_max), int(count))
    if x_min == -x_max:
        x = (x - x[::-1]) / 2.0  # bit-exact mirror symmetry
    return x


def _normalized(x: np.ndarray, psi: np.ndarray) -> GridWavefunction:
    h = float(x[1] - x[0])
    nrm = math.sqrt(float(_trapz(np.abs(psi) ** 2, dx=h)))
    if nrm == 0.0:
        raise ValueError("cannot normalise the zero function")
    return GridWavefunction(x=x, psi=psi / nrm)


def gaussian_ground_state(
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    count: int = DEFAULT_COUNT,
) -> GridWavefunction:
    """Unit Gaussian pi**-1/4 exp(-x**2/2), normalised on the grid."""
    x = _make_grid(x_min, x_max, count)
    return _normalized(x, np.pi**-0.25 * np.exp(-(x**2) / 2.0) + 0j)


def gaussian_packet(
    center: float = 0.0,
    width: float = 1.0,
    momentum: float = 0.0,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    count: int = DEFAULT_COUNT,
) -> GridWavefunction:
    """Shifted, scaled and boosted Gaussian; width 1 is the ground state.

    Every member of this family saturates the dispersion bound: the position
    dispersion is width/sqrt(2) and the momentum dispersion its reciprocal.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    x = _make_grid(x_min, x_max, count)
    envelope = (np.pi * width**2) ** -0.25 * np.exp(
        -((x - center) ** 2) / (2.0 * width**2)
    )
    return _normalized(x, envelope * np.exp(1j * momentum * x))


def superpose(
    a: GridWavefunction, b: GridWavefunction, wa: complex = 1.0, wb: complex = 1.0
) -> GridWavefunction:
    """Normalised weighted sum of two wavefunctions on the same grid."""
    if a.x.shape != b.x.shape or not np.array_equal(a.x, b.x):
        raise ValueError("wavefunctions live on different grids")
    return _normalized(a.x, wa * a.psi + wb * b.psi)


def characteristic_function(
    psi: GridWavefunction, a: Union[float, int, "object"], b: Union[float, int, "object"]
) -> complex:
    """<psi, U_a V_b psi> = integral conj(psi(x)) exp(iax) psi(x+b) dx.

    The shifted factor is linearly interpolated (zero outside the window).
    """
    a = float(a)
    b = float(b)
    if abs(b) > psi.window / 4.0:
        raise ValueError(f"shift {b} exceeds a quarter of the window {psi.window}")
    shifted = np.interp(
        psi.x + b, psi.x, psi.psi.real, left=0.0, right=0.0
    ) + 1j * np.interp(psi.x + b, psi.x, psi.psi.imag, left=0.0, right=0.0)
    integrand = np.conj(psi.psi) * np.exp(1j * a * psi.x) * shifted
    return complex(_trapz(integrand, dx=psi.step))


def dispersion_product(psi: GridWavefunction) -> float:
    """Product of the position and momentum dispersions, >= 1/2 - O(grid).

    Position moments by direct quadrature; momentum moments through centered
    finite differences of the samples (second moment via the squared
    derivative, which assumes the window swallows the tails).
    """
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

    Integrates the piecewise-linear interpolant of |psi|**2 exactly, so it
    stays accurate even when the interval covers only a few grid cells; the
    value scales linearly in eps once eps is below the density's variation
    scale.  Requires eps > grid step.
    """
    eps = float(eps)
    lam = float(lam)
    if eps <= psi.step:
        raise ValueError(f"eps {eps} must exceed the grid step {psi.step}")
    density = np.abs(psi.psi) ** 2
    h = psi.step
    cumulative = np.concatenate(
        [[0.0], np.cumsum((density[1:] + density[:-1]) / 2.0 * h)]
    )
    x = psi.x

    def antiderivative(t: float) -> float:
        t = min(max(t, float(x[0])), float(x[-1]))
        k = int(np.searchsorted(x, t, side="right")) - 1
        k = min(max(k, 0), len(x) - 2)
        u = t - float(x[k])
        y0 = float(density[k])
        y1 = float(density[k + 1])
        yt = y0 + (y1 - y0) * u / h
        return float(cumulative[k]) + u * (y0 + yt) / 2.0

    value = antiderivative(lam + eps) - antiderivative(lam - eps)
    return min(max(value, 0.0), 1.0)


def mean_quadrature(
    f: TrigPolynomial, n: float, points_per_unit: int = 128
) -> complex:
    """Truncated symmetric average (1/2N) integral_{-N}^{N} f, by trapezoid.

    The value is the trapezoid sum over the uniform grid of m + 1 points on
    [-N, N], m = int(2 N points_per_unit), summed in closed form: no grid is
    allocated and the cost is one sine pair per term.  With step h = 2N/m
    the grid sum of exp(i a x_k) is the Dirichlet kernel
    D = sin((m+1) theta/2) / sin(theta/2) at theta = a h, so each term
    c exp(i a x) contributes c (D - cos(a N)) / m.  theta is first reduced
    to the nearest multiple 2 pi k (D changes sign when k m is odd) and D is
    m + 1 at theta = 0, which keeps aliased frequencies stable.

    For a polynomial with nonzero frequencies a_j the result differs from
    the exact mean by at most sum_j 2|c_j|/(|a_j| N) plus the quadrature
    error, which is O(|a_j| step**2) per unit coefficient.  points_per_unit
    must be an int >= 1, N finite and >= 1, and the grid at most
    ``MAX_QUADRATURE_POINTS`` points, the domain on which the closed form
    is pinned against the summed grid.
    """
    if (
        isinstance(points_per_unit, bool)
        or not isinstance(points_per_unit, int)
        or points_per_unit < 1
    ):
        raise ValueError(
            f"points per unit must be an int >= 1, got {points_per_unit!r}"
        )
    n = float(n)
    if not math.isfinite(n):
        raise ValueError(f"averaging length must be finite, got {n}")
    if n < 1.0:
        raise ValueError("averaging length must be at least 1")
    span = 2.0 * n * points_per_unit
    if span >= MAX_QUADRATURE_POINTS:
        raise ValueError(
            f"averaging length {n:g} at {points_per_unit} points per unit "
            f"needs a grid larger than the limit of {MAX_QUADRATURE_POINTS} points"
        )
    m = int(span)
    h = 2.0 * n / m
    total = 0j
    for freq, coeff in f.coefficients.items():
        a = float(freq)
        theta = a * h
        half = math.remainder(theta, math.tau) / 2.0
        k = round((theta - 2.0 * half) / math.tau)
        s = math.sin(half)
        kernel = (m + 1) if s == 0.0 else math.sin((m + 1) * half) / s
        if k * m % 2:
            kernel = -kernel
        total += coeff * (kernel - math.cos(a * n)) / m
    return total


def truncation_bound(f: TrigPolynomial, n: float) -> float:
    """Analytic bound sum_j 2|c_j|/(|a_j| N) over nonzero frequencies."""
    return math.fsum(
        2.0 * abs(c) / (abs(float(freq)) * float(n))
        for freq, c in f.coefficients.items()
        if freq != 0
    )
