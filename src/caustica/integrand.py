"""Integrand models: function pairs, contour geometry, derivative engine,
and the registry of built-in test families.

Without analytic providers, derivatives come from the Taylor jet of one FFT
over points on a circle around the point.  So f, g and F must be analytic
and accept complex arguments.  f and g also take numpy arrays of complex
points and return their values element by element: the jet samples its
circle in one call, and ``quad_contour`` its panel nodes.  ``quad_contour``
integrates along the declared contour translated through the saddle, so f
and g must be analytic between the declared contour and that translate.

All objects are immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BadParameter, RayDivergence, StepUnderflow, UnknownIntegrand

__all__ = [
    "ContourPath",
    "Integrand1D",
    "IntegrandND",
    "derive",
    "derive_nd",
    "registry_get",
    "registry_names",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ContourPath:
    """Polyline contour with two infinite rays attached to its endpoints.

    ``tail_angle`` is the direction in which the incoming ray recedes to
    infinity (travel enters from infinity toward ``nodes[0]``);
    ``head_angle`` the direction of the outgoing ray from ``nodes[-1]``.
    """

    nodes: tuple[complex, ...]
    tail_angle: float
    head_angle: float
    orientation: int = 1

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise BadParameter("contour needs at least one node")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if a == b:
                raise BadParameter("consecutive contour nodes must be distinct")
        for ang in (self.tail_angle, self.head_angle):
            if not (-math.pi < ang <= math.pi):
                raise BadParameter("ray angles must lie in (-pi, pi]")
        if self.orientation not in (1, -1):
            raise BadParameter("orientation must be +1 or -1")
        object.__setattr__(self, "nodes", tuple(complex(z) for z in self.nodes))

    def tangent_near(self, z: complex) -> complex:
        """Unit travel direction of the contour element closest to ``z``.

        For points far from the polyline this is a coarse proxy used only to
        pick a sign for steepest-descent frames.
        """
        best = None
        best_d = math.inf
        # finite segments
        for a, b in zip(self.nodes, self.nodes[1:]):
            t = ((z - a) / (b - a)).real
            t = min(max(t, 0.0), 1.0)
            p = a + t * (b - a)
            d = abs(z - p)
            if d < best_d:
                best_d, best = d, (b - a) / abs(b - a)
        # rays (travel direction: inward along tail, outward along head)
        for anchor, ang, sgn in (
            (self.nodes[0], self.tail_angle, -1.0),
            (self.nodes[-1], self.head_angle, 1.0),
        ):
            u = cmath.exp(1j * ang)
            t = max(((z - anchor) / u).real, 0.0)
            p = anchor + t * u
            d = abs(z - p)
            if d < best_d:
                best_d, best = d, sgn * u
        if len(self.nodes) == 1 and best is None:
            best = cmath.exp(1j * self.head_angle)
        # single-node contour: between the two rays, average the directions
        if len(self.nodes) == 1:
            avg = cmath.exp(1j * self.head_angle) - cmath.exp(1j * self.tail_angle)
            if abs(avg) > 1e-12 and best_d > 0:
                best = avg / abs(avg)
        return best


@dataclass(frozen=True)
class Integrand1D:
    """One-variable integrand g(z) * exp(N f(z, alpha)) on a contour."""

    f: Callable[[complex, float], complex]
    g: Callable[[complex], complex]
    contour: ContourPath
    analytic_derivs: Optional[tuple[Callable[[complex, float], complex], ...]] = None
    real_result_hint: bool = False
    prefactor: complex = 1.0
    alpha_range: tuple[float, float] = (0.0, 1.0)
    saddle_guess: Optional[Callable[[float], complex]] = None
    caustic_guess: Optional[tuple[complex, float]] = None
    name: str = ""

    def __post_init__(self):
        if self.analytic_derivs is not None and len(self.analytic_derivs) != 4:
            raise BadParameter("analytic_derivs must provide orders 1..4")

    def check_ray_convergence(self, alphas: Sequence[float], n_scale: float = 10.0) -> None:
        """Verify Re f eventually decreases without bound along both rays."""
        for anchor, ang in (
            (self.contour.nodes[0], self.contour.tail_angle),
            (self.contour.nodes[-1], self.contour.head_angle),
        ):
            u = cmath.exp(1j * ang)
            for a in alphas:
                rs = np.geomspace(1.0, 64.0, 13)
                vals = [self.f(anchor + r * u, a).real for r in rs]
                # must be decreasing over the outer half and strongly negative
                tail = vals[6:]
                if not all(x > y for x, y in zip(tail, tail[1:])) or tail[-1] > -n_scale:
                    raise RayDivergence(
                        f"Re f does not decay along ray angle {ang:.3f} for alpha={a}"
                    )


@dataclass(frozen=True)
class IntegrandND:
    """n-variable integrand exp(N F(x, alpha)) over a real region, with an
    optional complex contour replacing the first (soft) coordinate.

    F takes a point x of shape (n,) or an array of shape (n, M) whose
    columns are points, and returns one value per point.  It must be
    analytic and accept complex points: the reduction to the soft
    coordinate solves for the transverse coordinates at complex soft
    points, and the oracle evaluates F on its whole node mesh in one call.
    The optional ``grad`` and ``hessian`` serve ``derive_nd`` and
    ``hessian_at`` at real points.
    """

    F: Callable[[np.ndarray, float], complex]
    dim: int
    grad: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    soft_contour: Optional[ContourPath] = None
    alpha_range: tuple[float, float] = (0.0, 1.0)
    saddle_guess: Optional[Callable[[float], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 2:
            raise BadParameter("IntegrandND requires dim >= 2")

    @property
    def soft_path(self) -> ContourPath:
        """The soft coordinate's contour: ``soft_contour``, or the real line."""
        return self.soft_contour or ContourPath((0j,), tail_angle=math.pi, head_angle=0.0)

    def hessian_at(self, x: np.ndarray, alpha: float) -> np.ndarray:
        if self.hessian is not None:
            h = np.asarray(self.hessian(x, alpha), dtype=float)
            if not np.allclose(h, h.T, rtol=1e-10, atol=1e-12):
                raise BadParameter("provided Hessian is not symmetric")
            return h
        n = self.dim
        h = np.empty((n, n))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = 1.0
            h[i, i] = derive_nd(self, x, alpha, ei, 2)
        for i in range(n):
            for j in range(i + 1, n):
                u = np.zeros(n)
                u[i] = u[j] = 1.0 / math.sqrt(2.0)
                mixed = derive_nd(self, x, alpha, u, 2)
                h[i, j] = h[j, i] = mixed - 0.5 * (h[i, i] + h[j, j])
        return h


# ---------------------------------------------------------------------------
# derivative engine


_JET_M = 32
# nodes exp(2 pi i k / M) on the unit circle, with node M/2 exactly -1 and
# node M - k the exact conjugate of node k, so that a function that is real
# on the real axis, sampled around a real point, gives exact conjugate pairs
_HALF = np.exp(2j * np.pi * np.arange(_JET_M // 2 + 1) / _JET_M)
_HALF[-1] = -1.0
_JET_NODES = np.concatenate((_HALF, _HALF[-2:0:-1].conj()))
_JET_CONJ = -np.arange(_JET_M) % _JET_M  # the index of each node's conjugate
_JET_RADIUS = 0.25
_JET_HALVINGS = 8
_JET_TOL = 1e-7  # largest accepted error bound, relative to max(1, |value|)
_FACTORIALS = np.array([1.0, 1.0, 2.0, 6.0, 24.0])


def _jet(func, scale):
    """Taylor jet [u, u', u'', u''', u''''] of ``func(s)`` at s = 0, and an
    error bound for each entry.

    ``func`` takes the array of M points on a circle and returns its values
    there, and one FFT gives its scaled Taylor coefficients (Lyness & Moler
    1967).  ``func`` may return an array of shape (K, M), the values around K
    points at once; the jet then has shape (K, 5) and one radius and one
    error bound serve all K.  For a function analytic on the disc, the
    coefficients from index M/2 up (the top and the negative frequencies)
    are aliases of terms of degree M/2 and higher.  Starting
    from ``_JET_RADIUS * scale``, the radius is halved until they sit at
    rounding level, and their size then bounds the truncation error
    (Bornemann, FoCM 2011).  A kink, or a function that drops the imaginary
    part of its argument, keeps them large on every radius and raises
    StepUnderflow.  When the samples come in exact conjugate pairs the jet
    is real.
    """
    r = _JET_RADIUS * scale
    for _ in range(_JET_HALVINGS + 1):
        samples = np.asarray(func(r * _JET_NODES), dtype=complex)
        c = np.fft.fft(samples) / _JET_M
        floor = 8.0 * _EPS * max(1.0, np.abs(samples).max())
        tail = np.abs(c[..., _JET_M // 2:]).max()
        if tail <= floor:
            # the first sample's test skips the full one where it must fail
            if samples.flat[0].imag == 0.0 and np.array_equal(
                samples[..., _JET_CONJ], samples.conj()
            ):
                c = c.real
            powers = r ** np.arange(5)
            return _FACTORIALS * c[..., :5] / powers, _FACTORIALS * (tail + floor) / powers
        r /= 2.0
    raise StepUnderflow(
        f"Taylor coefficients do not decay down to radius {2.0 * r:.1e}: not analytic there"
    )


def _derivatives(func, scale, order):
    """Derivatives 1..order of ``func`` at 0 from one jet; StepUnderflow when
    the error bound of any of them exceeds ``_JET_TOL`` relative to
    max(1, |value|)."""
    jet, err = _jet(func, scale)
    for k in range(1, order + 1):
        if err[k] > _JET_TOL * max(1.0, abs(jet[k])):
            raise StepUnderflow(f"order-{k} derivative error bound {err[k]:.2e} exceeds tol")
    return jet[1:order + 1]


def derive(intg: Integrand1D, z: complex, alpha: float, order: int) -> tuple[complex, ...]:
    """The complex derivatives (f', ..., f^(order)) of f at z, order 1..4.

    Uses the analytic providers when available, otherwise one Taylor jet of
    f on a circle around z, which gives every order at once.  f must be
    analytic near z and accept complex arguments; where it is not, or where
    the error bound of any returned order is too large, StepUnderflow is
    raised.  At a real z, an f that is real on the real axis gives exactly
    real derivatives.
    """
    if order not in (1, 2, 3, 4):
        raise BadParameter(f"order must be 1..4, got {order}")
    if intg.analytic_derivs is not None:
        return tuple(d(z, alpha) for d in intg.analytic_derivs[:order])
    jet = _derivatives(lambda s: intg.f(z + s, alpha), max(1.0, abs(z)), order)
    return tuple(complex(v) for v in jet)


def derive_nd(
    intg: IntegrandND,
    x: np.ndarray,
    alpha: float,
    direction: np.ndarray,
    order: int,
) -> float:
    """Directional derivative of F of given order (1..2) along a unit vector.

    Uses the analytic providers when available, otherwise the Taylor jet of
    F along the complex line x + s * direction.  F must be analytic, accept
    complex arguments and be real at real points: StepUnderflow is raised
    where F is not analytic, BadParameter where the derivative is complex.
    """
    if order not in (1, 2):
        raise BadParameter(f"order must be 1..2, got {order}")
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
        raise BadParameter("direction must be a unit vector")
    x = np.asarray(x, dtype=float)
    if order == 1 and intg.grad is not None:
        return float(np.dot(intg.grad(x, alpha), direction))
    if order == 2 and intg.hessian is not None:
        h = intg.hessian_at(x, alpha)
        return float(direction @ h @ direction)
    val = _derivatives(
        lambda s: [intg.F(x + si * direction, alpha) for si in s.tolist()],
        max(1.0, float(np.linalg.norm(x))),
        order,
    )[-1]
    if abs(val.imag) > _JET_TOL * max(1.0, abs(val)):
        raise BadParameter(f"F is not real at real points: derivative {val:.3e}")
    return float(val.real)


# ---------------------------------------------------------------------------
# registry


def _logcosh(t: float) -> float:
    # overflow-safe log cosh
    a = abs(t)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def _logcosh_c(t: complex) -> complex:
    if abs(t.real) < 30.0:
        return cmath.log(cmath.cosh(t))
    s = t if t.real > 0 else -t
    return s + cmath.log(0.5 * (1.0 + cmath.exp(-2.0 * s)))


def _mean_field_array(z: np.ndarray, g: float, m: float) -> np.ndarray:
    # the two branches of the scalar mean-field f, per entry of a complex
    # array: real arithmetic at real entries, complex ones elsewhere
    x = z.real
    a = np.abs(x + m)
    with np.errstate(over="ignore", invalid="ignore"):
        real = -x * x / (2.0 * g) + a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
        t = z + m
        s = np.where(t.real > 0, t, -t)
        cplx = -z * z / (2.0 * g) + np.where(
            np.abs(t.real) < 30.0, np.log(np.cosh(t)), s + np.log(0.5 * (1.0 + np.exp(-2.0 * s)))
        )
    return np.where(z.imag == 0.0, real, cplx)


def _cube_third(z):
    # z * z * z / 3.0 as Python evaluates it on a complex, also on arrays:
    # numpy fuses the real part of a complex product into one FMA and
    # divides by a float as a multiplication by its reciprocal, and either
    # changes the last bit
    if not isinstance(z, np.ndarray):
        return z * z * z / 3.0
    x, y = z.real, z.imag
    x2, y2 = x * x - y * y, x * y + y * x
    return (x2 * x - y2 * y) / 3.0 + 1j * ((x2 * y + y2 * x) / 3.0)


def _build_cubic(params):
    def f(z, a):
        return _cube_third(z) - a * z

    derivs = (
        lambda z, a: z * z - a,
        lambda z, a: 2.0 * z,
        lambda z, a: 2.0 + 0.0 * z,
        lambda z, a: 0.0 * z,
    )
    contour = ContourPath((0.0 + 0.0j,), tail_angle=-math.pi / 3.0, head_angle=math.pi / 3.0)
    return Integrand1D(
        f=f,
        g=lambda z: 1.0 + 0.0 * z,
        contour=contour,
        analytic_derivs=derivs,
        alpha_range=(0.0, 1.0),
        saddle_guess=lambda a: complex(math.sqrt(max(a, 0.0)) + 1e-3),
        caustic_guess=(0.1 + 0.0j, 0.05),
        name="cubic",
    )


def _build_perturbed_cubic(params):
    eps = float(params.get("eps", 0.05))
    if eps <= 0:
        raise BadParameter("perturbed-cubic requires eps > 0 (ray convergence)")

    def f(z, a):
        return _cube_third(z) - a * z + eps * z ** 4

    derivs = (
        lambda z, a: z * z - a + 4.0 * eps * z ** 3,
        lambda z, a: 2.0 * z + 12.0 * eps * z * z,
        lambda z, a: 2.0 + 24.0 * eps * z,
        lambda z, a: 24.0 * eps + 0.0 * z,
    )
    contour = ContourPath((0.0 + 0.0j,), tail_angle=-math.pi / 3.0, head_angle=math.pi / 3.0)
    return Integrand1D(
        f=f,
        g=lambda z: 1.0 + 0.0 * z,
        contour=contour,
        analytic_derivs=derivs,
        alpha_range=(0.0, 0.6),
        saddle_guess=lambda a: complex(math.sqrt(max(a, 0.0)) + 1e-3),
        caustic_guess=(0.1 + 0.0j, 0.05),
        name="perturbed-cubic",
    )


def _build_bessel_sinh(params):
    x0 = float(params.get("x0", 0.3))

    def f(z, a):
        return a * np.sinh(z) - z

    derivs = (
        lambda z, a: a * cmath.cosh(z) - 1.0,
        lambda z, a: a * cmath.sinh(z),
        lambda z, a: a * cmath.cosh(z),
        lambda z, a: a * cmath.sinh(z),
    )
    # vertical segment near the saddle, horizontal rays out to +inf -/+ i*pi
    contour = ContourPath(
        (complex(x0, -math.pi), complex(x0, math.pi)),
        tail_angle=0.0,
        head_angle=0.0,
    )

    # the real saddle acosh(1/a) below the fold, the conjugate pair
    # +-i acos(1/a) above it; at a = 1 both coalesce at 0
    def guess(a):
        if a == 1.0:
            return 0.05 + 0.0j
        if a > 1.0:
            return 1j * math.acos(1.0 / a)
        return complex(math.acosh(1.0 / a))

    return Integrand1D(
        f=f,
        g=lambda z: 1.0 + 0.0 * z,
        contour=contour,
        analytic_derivs=derivs,
        real_result_hint=True,
        prefactor=1.0 / (2.0j * math.pi),
        alpha_range=(0.6, 1.05),
        saddle_guess=guess,
        caustic_guess=(0.1 + 0.0j, 0.9),
        name="bessel-sinh",
    )


def _build_mean_field_toy(params):
    m = float(params.get("m", 0.1))

    def f(z, g):
        if isinstance(z, np.ndarray):
            return _mean_field_array(z, g, m)
        if isinstance(z, complex) and z.imag != 0.0:
            return -z * z / (2.0 * g) + _logcosh_c(z + m)
        s = float(z.real) if isinstance(z, complex) else float(z)
        return complex(-s * s / (2.0 * g) + _logcosh(s + m))

    derivs = (
        lambda z, g: -z / g + cmath.tanh(z + m),
        lambda z, g: -1.0 / g + 1.0 / cmath.cosh(z + m) ** 2,
        lambda z, g: -2.0 * cmath.tanh(z + m) / cmath.cosh(z + m) ** 2,
        lambda z, g: (4.0 * cmath.sinh(z + m) ** 2 - 2.0) / cmath.cosh(z + m) ** 4,
    )
    contour = ContourPath((0.0 + 0.0j,), tail_angle=math.pi, head_angle=0.0)
    return Integrand1D(
        f=f,
        g=lambda z: 1.0 + 0.0 * z,
        contour=contour,
        analytic_derivs=derivs,
        real_result_hint=True,
        alpha_range=(0.9, 2.0),
        saddle_guess=lambda g: complex(max(1.2 * math.sqrt(max(g - 1.0, 0.01)), 0.3)),
        caustic_guess=(-0.5 + 0.0j, 1.2),
        name="mean-field-toy",
    )


def _nd_lambdas(params, dim):
    lams = []
    for i in range(2, dim + 1):
        lams.append(float(params.get(f"lambda{i}", -1.0)))
    if any(l >= 0 for l in lams):
        raise BadParameter("transverse eigenvalues lambda_i must be negative")
    return np.array(lams)


def _build_nd_perturbed_cubic(params, separable=False):
    eps = float(params.get("eps", 0.05))
    c = 0.0 if separable else float(params.get("c", 0.1))
    dim = int(params.get("dim", 2))
    if eps <= 0:
        raise BadParameter("nd-perturbed-cubic requires eps > 0")
    lams = _nd_lambdas(params, dim)

    # products rather than powers and no dot with a real vector: both are
    # slow on complex arrays of points
    def F(x, a):
        x1 = x[0]
        x1sq = x1 * x1
        val = x1sq * x1 / 3.0 - a * x1 + eps * x1sq * x1sq
        for lam, xi in zip(lams, x[1:]):
            val = val + 0.5 * lam * xi * xi
        if c != 0.0:
            val = val + c * x1 * x[1] * x[1]
        return val

    def grad(x, a):
        x = np.asarray(x, dtype=complex)
        g = np.empty(dim, dtype=complex)
        g[0] = x[0] ** 2 - a + 4.0 * eps * x[0] ** 3
        g[1:] = lams * x[1:]
        if c != 0.0:
            g[0] += c * x[1] ** 2
            g[1] += 2.0 * c * x[0] * x[1]
        if np.all(np.abs(g.imag) == 0.0):
            return g.real
        return g

    def hessian(x, a):
        x = np.asarray(x, dtype=float)
        h = np.diag(np.concatenate(([2.0 * x[0] + 12.0 * eps * x[0] ** 2], lams)))
        if c != 0.0:
            h[1, 1] += 2.0 * c * x[0]
            h[0, 1] = h[1, 0] = 2.0 * c * x[1]
        return h

    soft = ContourPath((0.0 + 0.0j,), tail_angle=-math.pi / 3.0, head_angle=math.pi / 3.0)

    # the recessive saddle, through which the soft contour passes
    def guess(a):
        x0 = np.zeros(dim)
        x0[0] = math.sqrt(max(a, 0.0)) + 1e-3
        return x0

    return IntegrandND(
        F=F,
        dim=dim,
        grad=grad,
        hessian=hessian,
        soft_contour=soft,
        alpha_range=(0.0, 0.5),
        saddle_guess=guess,
        name="nd-separable" if separable else "nd-perturbed-cubic",
    )


_BUILDERS = {
    "cubic": _build_cubic,
    "perturbed-cubic": _build_perturbed_cubic,
    "bessel-sinh": _build_bessel_sinh,
    "mean-field-toy": _build_mean_field_toy,
    "nd-perturbed-cubic": lambda p: _build_nd_perturbed_cubic(p, separable=False),
    "nd-separable": lambda p: _build_nd_perturbed_cubic(p, separable=True),
}


def registry_names() -> list[str]:
    return sorted(_BUILDERS)


def registry_get(name: str, params: Optional[dict] = None):
    """Build a fully configured registry integrand by name."""
    if name not in _BUILDERS:
        raise UnknownIntegrand(f"unknown integrand {name!r}; known: {registry_names()}")
    return _BUILDERS[name](params or {})
