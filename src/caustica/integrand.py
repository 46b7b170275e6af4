"""Integrand models: function pairs, contour geometry, derivative engine,
and the registry of built-in test families.

``ContourPath`` is the one place that decides where a point lies on a
contour: ``polyline`` cuts its rays, and ``project`` gives the nearest
point, its arc position and the travel direction there, which both the
oracle's contour move and the formulas' descent frame use.

Derivatives of f without analytic providers, and every derivative of F,
come from the Taylor jet of one FFT over points on a circle around the
point.  So f, g and F must be analytic and accept complex arguments.  f
and g also take numpy arrays of complex points and return their values
element by element: the jet samples its circle in one call, and
``quad_contour`` its panel nodes.  ``quad_contour`` integrates along the
declared contour translated through the saddle, so f and g must be
analytic between the declared contour and that translate.

Every field is fixed at construction.  An ``Integrand1D`` also keeps a
private memo of the pure steps that the solvers and formulas repeat within
one alpha: the contour projection of the descent frame, the saddle and
fold-point solves (the partner's solve is a saddle solve), on a reduced n-D
integrand the transverse solve at each point, and ``tilde``'s set-up (its
g' jet and cube-root branch); an ``IntegrandND``, its n-D saddle.  One
rule keys them all (``_per_alpha``): a step is kept under its name and the
exact bits of alpha and of every argument it takes.  So after the first
call at an alpha, a formula called once per N repeats no solve, jet or
projection, only its arithmetic and its Airy call.  The memo holds one
alpha at a time, and a call at another alpha empties it first.  For pure
f, g and F a hit returns the bits a fresh computation would, so callers
cannot tell it is there.  Typed errors are not stored: they are raised
again by a fresh computation.  The objects are safe to share across
parallel workers: a value depends only on its key, so a race at worst
computes an entry twice.  ``dataclasses.replace`` starts an empty memo.
"""

from __future__ import annotations

import cmath
import functools
import inspect
import math
import struct
from dataclasses import dataclass, field
from numbers import Number, Real
from typing import Callable, Optional

import numpy as np

from .errors import BadParameter, StepUnderflow, UnknownIntegrand

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
_BITS, _BITS_Z = struct.Struct("d").pack, struct.Struct("2d").pack
_RAY_MAX = 400.0  # the furthest out a ray is followed, by the oracle and by project


@dataclass(frozen=True)
class ContourPath:
    """Polyline contour with two infinite rays attached to its endpoints.

    ``tail_angle`` is the direction in which the incoming ray recedes to
    infinity (travel enters from infinity toward ``nodes[0]``);
    ``head_angle`` the direction of the outgoing ray from ``nodes[-1]``.
    To travel the other way, reverse ``nodes`` and swap the two angles; a
    sign belongs in the integrand's ``prefactor``.
    """

    nodes: tuple[complex, ...]
    tail_angle: float
    head_angle: float

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise BadParameter("contour needs at least one node")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if a == b:
                raise BadParameter("consecutive contour nodes must be distinct")
        for ang in (self.tail_angle, self.head_angle):
            if not (-math.pi < ang <= math.pi):
                raise BadParameter("ray angles must lie in (-pi, pi]")
        object.__setattr__(self, "nodes", tuple(complex(z) for z in self.nodes))

    def polyline(self, r_in: float, r_out: float) -> tuple[np.ndarray, np.ndarray]:
        """Vertices of the contour with its rays cut at r_in and r_out, in travel
        order, and their arc positions measured from ``nodes[0]``."""
        u_in = cmath.exp(1j * self.tail_angle)
        u_out = cmath.exp(1j * self.head_angle)
        nodes = self.nodes
        v = np.array([nodes[0] + r_in * u_in, *nodes, nodes[-1] + r_out * u_out])
        s = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(v))))) - r_in
        return v, s

    @functools.cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the polyline with both rays cut at _RAY_MAX, as segment starts,
        # segment vectors and vertex arc positions; built once per contour,
        # since the descent frame projects onto it for every alpha
        v, s = self.polyline(_RAY_MAX, _RAY_MAX)
        return v[:-1], np.diff(v), s

    def project(self, z: complex) -> tuple[complex, float, complex]:
        """The point of the contour nearest ``z``, its arc position, and the
        unit travel direction there, with both rays cut at ``_RAY_MAX``.

        Where several elements are equally near, the first in travel order
        wins.
        """
        a, d, s = self._segments
        t = ((z - a) / d).real
        np.clip(t, 0.0, 1.0, out=t)
        p = a + t * d
        i = int(np.argmin(np.abs(z - p)))
        u = complex(d[i])
        return complex(p[i]), float(s[i] + t[i] * (s[i + 1] - s[i])), u / abs(u)


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
    # {alpha bits: {(kind, argument key): value}} for one alpha; see _per_alpha
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.analytic_derivs is not None and len(self.analytic_derivs) != 4:
            raise BadParameter("analytic_derivs must provide orders 1..4")


def _per_alpha(kind: str):
    """Keep ``step(intg, alpha, *args)``, a pure step of an integrand, in
    ``intg``'s memo under ``kind`` and the exact bits of alpha and of every
    argument, a number by its real and imaginary parts and a str as it is,
    so 0.0 and -0.0 never share an entry.  An argument given by keyword
    is keyed as the positional one it binds.  The memo holds one alpha: a
    call at another empties it first.  An exception from ``step`` is not
    stored."""

    def decorate(step):
        @functools.wraps(step)
        def memoized(intg, alpha, *args, **kwargs):
            if kwargs:
                args = inspect.signature(step).bind(intg, alpha, *args, **kwargs).args[2:]
            entries = intg._memo.get(a := _BITS(alpha))
            if entries is None:
                intg._memo.clear()
                entries = intg._memo.setdefault(a, {})
            key = (kind, tuple([v if isinstance(v, str) else _BITS_Z(v.real, v.imag)
                                for v in args]))
            value = entries.get(key)
            if value is None:
                value = entries[key] = step(intg, alpha, *args)
            return value

        return memoized

    return decorate


@dataclass(frozen=True)
class IntegrandND:
    """n-variable integrand exp(N F(x, alpha)) over a real region, with an
    optional complex contour replacing the first (soft) coordinate.

    F takes an array of shape (n, M) whose columns are points, and returns
    one value per column; the package never calls it on one point alone.
    It must be analytic and accept complex points: the reduction to the soft
    coordinate solves for the transverse coordinates at complex soft
    points, and the oracle evaluates F on its whole node mesh in one call.
    """

    F: Callable[[np.ndarray, float], complex]
    dim: int
    soft_contour: Optional[ContourPath] = None
    alpha_range: tuple[float, float] = (0.0, 1.0)
    saddle_guess: Optional[Callable[[float], np.ndarray]] = None
    name: str = ""
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 2:
            raise BadParameter("IntegrandND requires dim >= 2")

    @property
    def soft_path(self) -> ContourPath:
        """The soft coordinate's contour: ``soft_contour``, or the real line."""
        return self.soft_contour or ContourPath((0j,), tail_angle=math.pi, head_angle=0.0)


# the real types of an N, and the types of one N: the concrete ones first,
# since an isinstance check against an ABC alone is slow and runs on every
# formula call
_REAL = (int, float, np.integer, np.floating, Real)
_NUMBER = (int, float, Number)


def _n_grid(N) -> tuple:
    """N as the tuple of its grid points, each as given; one number, or a 0-d
    array, is a one-element grid.  BadParameter unless the grid is non-empty
    and every N is real, finite and > 0."""
    try:
        if isinstance(N, _NUMBER):
            ns = (N,)
        else:
            ns = tuple(np.atleast_1d(N) if isinstance(N, np.ndarray) else N)
        if ns and all(isinstance(n, _REAL) and 0 < n < math.inf for n in ns):
            return ns
    except TypeError:  # N is neither a number nor iterable
        pass
    raise BadParameter(f"N must be a finite number > 0 or a non-empty sequence of them, got {N!r}")


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
_ORDERS = np.arange(5)


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
            if samples.flat[0].imag == 0.0 and (samples[..., _JET_CONJ] == samples.conj()).all():
                c = c.real
            powers = r ** _ORDERS
            return _FACTORIALS * c[..., :5] / powers, _FACTORIALS * (tail + floor) / powers
        r /= 2.0
    raise StepUnderflow(
        f"Taylor coefficients do not decay down to radius {2.0 * r:.1e}: not analytic there"
    )


def _derivatives(jet, err, order):
    """Derivatives 1..order from a jet and its error bounds (``_jet``);
    StepUnderflow when the bound of any of them exceeds ``_JET_TOL``
    relative to max(1, |value|)."""
    for k in range(1, order + 1):
        if err[k] > _JET_TOL * max(1.0, abs(jet[k])):
            raise StepUnderflow(f"order-{k} derivative error bound {err[k]:.2e} exceeds tol")
    return jet[1:order + 1]


def derive(intg: Integrand1D, z: complex, alpha: float, order: int) -> tuple[complex, ...]:
    """The complex derivatives (f', ..., f^(order)) of f at z, order 1..4.

    Uses the analytic providers when available, otherwise one Taylor jet of
    f on a circle around z, which gives every order at once.  It keeps
    nothing: the solvers that ask at one point often keep their results in
    the integrand's memo (module docstring).  f must be analytic near z and
    accept complex arguments; where it is not, or where the error bound of
    any returned order is too large, StepUnderflow is raised.  At a real z,
    an f that is real on the real axis gives exactly real derivatives.
    """
    if order not in (1, 2, 3, 4):
        raise BadParameter(f"order must be 1..4, got {order}")
    if intg.analytic_derivs is not None:
        return tuple(d(z, alpha) for d in intg.analytic_derivs[:order])
    jet = _jet(lambda s: intg.f(z + s, alpha), max(1.0, abs(z)))
    return tuple(complex(v) for v in _derivatives(*jet, order))


def derive_nd(
    intg: IntegrandND,
    x: np.ndarray,
    alpha: float,
    direction: np.ndarray,
    order: int,
) -> float:
    """Directional derivative of F of given order (1..2) along a unit vector.

    Taken from the Taylor jet of F along the complex line x + s * direction.
    F must be analytic, accept complex arguments and be real at real points:
    StepUnderflow is raised where F is not analytic, BadParameter where the
    derivative is complex.
    """
    if order not in (1, 2):
        raise BadParameter(f"order must be 1..2, got {order}")
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
        raise BadParameter("direction must be a unit vector")
    x = np.asarray(x, dtype=float)
    jet = _jet(lambda s: intg.F(x[:, None] + direction[:, None] * s, alpha),
               max(1.0, float(np.linalg.norm(x))))
    val = _derivatives(*jet, order)[-1]
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


def _cube_third(z):
    # z * z * z / 3.0 in real arithmetic, so that scalars and arrays get the
    # same bits: numpy fuses the real part of a complex product into one FMA
    # and divides by a float as a multiplication by its reciprocal, and
    # Python's complex-by-float division rounds differently between versions
    x, y = z.real, z.imag
    x2, y2 = x * x - y * y, x * y + y * x
    return (x2 * x - y2 * y) / 3.0 + 1j * ((x2 * y + y2 * x) / 3.0)


def _finite(params, key, default, kind=float):
    """Pop the registry parameter ``key`` as a ``kind``; BadParameter where
    it does not convert or is not finite."""
    try:
        v = kind(params.pop(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParameter(f"{key}: {exc}") from exc
    if not math.isfinite(v):
        raise BadParameter(f"{key} must be finite, got {v}")
    return v


def _build_perturbed_cubic(params):
    eps = _finite(params, "eps", 0.05)
    if eps <= 0:
        raise BadParameter("perturbed-cubic requires eps > 0 (ray convergence)")
    return _cubic_family(eps, (0.0, 0.6), "perturbed-cubic")


def _cubic_family(eps, alpha_range, name):
    # z^3/3 - a z + eps z^4; the pure cubic is eps = 0
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
        alpha_range=alpha_range,
        saddle_guess=lambda a: complex(math.sqrt(max(a, 0.0)) + 1e-3),
        caustic_guess=(0.1 + 0.0j, 0.05),
        name=name,
    )


def _build_bessel_sinh(params):
    x0 = _finite(params, "x0", 0.3)

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
    # +-i acos(1/a) above it; at a = 1 both coalesce at 0.  For a <= 0
    # there is no real saddle to guess
    def guess(a):
        if not a > 0.0:
            raise BadParameter(f"bessel-sinh's saddle guess needs alpha > 0, got {a}")
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
    m = _finite(params, "m", 0.1)

    def rule(z, g):
        z = complex(z)  # np.vectorize passes numpy scalars; take Python's arithmetic
        if z.imag != 0.0:
            return -z * z / (2.0 * g) + _logcosh_c(z + m)
        s = z.real
        return complex(-s * s / (2.0 * g) + _logcosh(s + m))

    # arrays get the scalar rule entry by entry, and so its bits
    rule_array = np.vectorize(rule, otypes=[complex])

    def f(z, g):
        return rule_array(z, g) if isinstance(z, np.ndarray) else rule(z, g)

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
    lams = [_finite(params, f"lambda{i}", -1.0) for i in range(2, dim + 1)]
    if any(l >= 0 for l in lams):
        raise BadParameter("transverse eigenvalues lambda_i must be negative")
    return np.array(lams)


def _build_nd_perturbed_cubic(params, separable=False):
    eps = _finite(params, "eps", 0.05)
    c = 0.0 if separable else _finite(params, "c", 0.1)
    dim = _finite(params, "dim", 2, int)
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

    soft = ContourPath((0.0 + 0.0j,), tail_angle=-math.pi / 3.0, head_angle=math.pi / 3.0)

    # the recessive saddle, through which the soft contour passes
    def guess(a):
        x0 = np.zeros(dim)
        x0[0] = math.sqrt(max(a, 0.0)) + 1e-3
        return x0

    return IntegrandND(
        F=F,
        dim=dim,
        soft_contour=soft,
        alpha_range=(0.0, 0.5),
        saddle_guess=guess,
        name="nd-separable" if separable else "nd-perturbed-cubic",
    )


_BUILDERS = {
    "cubic": lambda p: _cubic_family(0.0, (0.0, 1.0), "cubic"),
    "perturbed-cubic": _build_perturbed_cubic,
    "bessel-sinh": _build_bessel_sinh,
    "mean-field-toy": _build_mean_field_toy,
    "nd-perturbed-cubic": lambda p: _build_nd_perturbed_cubic(p, separable=False),
    "nd-separable": lambda p: _build_nd_perturbed_cubic(p, separable=True),
}


def registry_names() -> list[str]:
    return sorted(_BUILDERS)


def registry_get(name: str, params: Optional[dict] = None):
    """Build a fully configured registry integrand by name.  Its builder pops
    each parameter it reads from a copy of ``params``; one left over, which
    the family does not read, raises BadParameter."""
    if name not in _BUILDERS:
        raise UnknownIntegrand(f"unknown integrand {name!r}; known: {registry_names()}")
    unread = dict(params or {})
    intg = _BUILDERS[name](unread)
    if unread:
        raise BadParameter(f"{name} does not read parameter(s) {sorted(unread)}")
    return intg
