"""Saddle-point, caustic, and partner-saddle solvers.

One complex variable: damped Newton on f'(z)=0, a joint solve for the
expansion point (z_tilde, alpha_hat) where f' and f'' vanish together, and
the partner saddle seeded from the local cubic model.  Several variables:
the transverse coordinates are integrated out by Laplace's method (the
splitting lemma; Poston & Stewart 1978, Bleistein & Handelsman 1975,
ch. 8-9), which leaves a one-variable integrand in the soft coordinate, and
its saddle is found by the one-variable solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCubic, NoConvergence, PartnerNotFound, StepUnderflow, WrongRegime
from .integrand import _JET_TOL, Integrand1D, IntegrandND, _jet, derive
# not called here: kept bound because the benchmark's span tracer wraps
# saddle.derive_nd by name
from .integrand import derive_nd  # noqa: F401

__all__ = [
    "SaddleInfo",
    "CausticInfo",
    "NdSaddleInfo",
    "find_saddle",
    "find_caustic",
    "find_partner",
    "find_saddle_nd",
]

_MAX_ITERS = 50


@dataclass(frozen=True)
class SaddleInfo:
    """A converged saddle with the derivative data the formulas need."""

    z0: complex
    f0: complex
    f2: complex
    f3: complex
    residual: float
    iterations: int


@dataclass(frozen=True)
class CausticInfo:
    """Expansion point z_tilde(alpha_hat) and the critical parameter."""

    z_tilde: complex
    alpha_hat: float
    f3_tilde: complex
    intg: Integrand1D

    def z_tilde_at(self, alpha: float, tol: float = 1e-12) -> complex:
        """z with f''(z, alpha) = 0, continued from the critical point by
        damped Newton."""
        z = self.z_tilde
        for _ in range(_MAX_ITERS):
            _, r, f3 = derive(self.intg, z, alpha, 3)
            if abs(r) <= tol * max(1.0, abs(self.f3_tilde)):
                return z
            if f3 == 0:
                raise NoConvergence(f"z_tilde continuation: f''' vanishes at alpha={alpha}")
            step = r / f3
            # damping: never move by more than O(1), as in find_saddle
            if abs(step) > 1.0:
                step /= abs(step)
            z = z - step
        raise NoConvergence(f"z_tilde continuation stalled at alpha={alpha}")


@dataclass(frozen=True)
class NdSaddleInfo:
    """An n-D saddle as the saddle of the integrand reduced to the soft
    coordinate.

    ``reduced`` is that one-variable integrand at this alpha, ``saddle`` its
    saddle, ``x0`` the n-D point (z0, x_perp*(z0)) and ``hessian`` the
    transverse Hessian there.
    """

    x0: np.ndarray
    hessian: np.ndarray
    reduced: Integrand1D
    saddle: SaddleInfo

    @property
    def iterations(self) -> int:
        return self.saddle.iterations


def find_saddle(
    intg: Integrand1D,
    alpha: float,
    guess: complex,
    tol: float = 1e-12,
) -> SaddleInfo:
    """Damped Newton iteration on f'(z, alpha) = 0."""
    z = complex(guess)
    for it in range(1, _MAX_ITERS + 1):
        f1, f2, f3 = derive(intg, z, alpha, 3)
        if it == 1:
            scale = max(1.0, abs(f1))
        if abs(f1) <= tol * scale:
            return SaddleInfo(
                z0=z, f0=intg.f(z, alpha), f2=f2, f3=f3, residual=abs(f1), iterations=it
            )
        if f2 == 0:
            # fall back to the cubic model at an exact caustic point
            step = -(2.0 * f1 / f3) ** 0.5 if f3 != 0 else 0.1
        else:
            step = -f1 / f2
        # damping: never move by more than O(1)
        if abs(step) > 1.0:
            step /= abs(step)
        z = z + step
    raise NoConvergence(f"find_saddle: no convergence after {_MAX_ITERS} iterations")


def find_caustic(
    intg: Integrand1D,
    alpha_guess: float = None,
    z_guess: complex = None,
    tol: float = 1e-11,
) -> CausticInfo:
    """Joint solve of f'(z, alpha) = f''(z, alpha) = 0 for (z_tilde, alpha_hat).

    Gauss-Newton on the stacked real system in (Re z, Im z, alpha); the
    Jacobian columns are built from f'' , f''' and finite differences in
    alpha.
    """
    if z_guess is None or alpha_guess is None:
        if intg.caustic_guess is None:
            raise NoConvergence("find_caustic needs a guess for this integrand")
        zg, ag = intg.caustic_guess
        z_guess = z_guess if z_guess is not None else zg
        alpha_guess = alpha_guess if alpha_guess is not None else ag
    z = complex(z_guess)
    a = float(alpha_guess)
    da = 1e-6

    for _ in range(_MAX_ITERS):
        f1, f2, f3, f4 = derive(intg, z, a, 4)
        r = np.array([f1.real, f1.imag, f2.real, f2.imag])
        res = float(np.linalg.norm(r))
        if res <= tol:
            break
        p1, p2 = derive(intg, z, a + da, 2)
        m1, m2 = derive(intg, z, a - da, 2)
        dfa1 = (p1 - m1) / (2 * da)
        dfa2 = (p2 - m2) / (2 * da)
        # Cauchy-Riemann blocks for the complex derivatives wrt z
        jac = np.array(
            [
                [f2.real, -f2.imag, dfa1.real],
                [f2.imag, f2.real, dfa1.imag],
                [f3.real, -f3.imag, dfa2.real],
                [f3.imag, f3.real, dfa2.imag],
            ]
        )
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        nrm = np.linalg.norm(step)
        if nrm > 0.5:
            step *= 0.5 / nrm
        z = z + complex(step[0], step[1])
        a = a + step[2]
    else:
        raise NoConvergence("find_caustic: joint Newton did not converge")

    # near a cusp the solver stalls with f3 ~ f4*dz and residual ~ f4*dz^2/2,
    # so |f3|^2 below that floor means f3 is numerically zero
    floor = math.sqrt(50.0 * max(abs(f4), 1.0) * max(res, 1e-13))
    if abs(f3) < max(1e-8, floor):
        raise DegenerateCubic(
            f"f'''(z_tilde, alpha_hat) = {f3:.3e}: fold assumption violated"
        )
    return CausticInfo(z_tilde=complex(z), alpha_hat=float(a), f3_tilde=f3, intg=intg)


def find_partner(
    intg: Integrand1D,
    alpha: float,
    s: SaddleInfo,
    tol: float = 1e-12,
) -> SaddleInfo:
    """The other member of the coalescing pair, seeded from the cubic model."""
    if s.f3 == 0:
        raise PartnerNotFound("cubic coefficient vanishes; no local pair")
    seed = s.z0 - 2.0 * s.f2 / s.f3
    # the saddle itself is resolved only to ~sqrt(residual/|f3|) near a double
    # root, so a seed separation below that scale means the pair has coalesced
    floor = math.sqrt(50.0 * s.residual / abs(s.f3))
    if abs(seed - s.z0) < max(1e-10 * max(1.0, abs(s.z0)), floor):
        raise PartnerNotFound("saddles have coalesced (seed collapses onto z0)")
    try:
        p = find_saddle(intg, alpha, seed, tol=tol)
    except NoConvergence as exc:
        raise PartnerNotFound(f"partner iteration diverged: {exc}") from exc
    sep = abs(p.z0 - s.z0)
    if sep < 0.25 * abs(seed - s.z0):
        raise PartnerNotFound("partner iteration fell back onto the original saddle")
    return p


def find_saddle_nd(
    intg: IntegrandND,
    alpha: float,
    guess: np.ndarray,
    tol: float = 1e-10,
) -> NdSaddleInfo:
    """The saddle of the integrand reduced to the soft coordinate, by
    ``find_saddle`` from guess[0], the transverse coordinates solved from
    guess[1:].

    WrongRegime where the transverse Hessian at the saddle has an eigenvalue
    with non-negative real part: the transverse integrals are then not
    Gaussian peaks.
    """
    guess = np.asarray(guess)
    if guess.shape != (intg.dim,):
        raise WrongRegime(f"guess has shape {guess.shape}, expected ({intg.dim},)")
    reduced = _reduce(intg, alpha, guess[1:])
    s = find_saddle(reduced, alpha, complex(guess[0]), tol=tol)
    x, h = _transverse_solve(intg, alpha, np.array([s.z0]), guess[1:])
    h = h[:, :, 0]
    if np.any(np.linalg.eigvals(h).real >= 0.0):
        raise WrongRegime(f"transverse Hessian must be negative definite, got {h}")
    return NdSaddleInfo(x0=x[:, 0], hessian=h, reduced=reduced, saddle=s)


def _reduce(intg: IntegrandND, alpha: float, seed: np.ndarray) -> Integrand1D:
    """The one-variable integrand left by Laplace's method in the transverse
    coordinates: f(z) = F(z, x_perp*(z)) where the transverse gradient
    vanishes, and g(z) = det(-H_perp)^(-1/2); times (2 pi / N)^((n-1)/2) its
    integral along the soft contour is the n-D integral to relative order
    1/N, and exactly so where F is quadratic in x_perp.  x_perp* is found
    by Newton from ``seed``.  f and g accept complex points and arrays.
    """

    def f(z, a):
        x, _ = _transverse_solve(intg, a, np.ravel(z), seed)
        v = intg.F(x, a)
        return v.reshape(np.shape(z)) if np.ndim(z) else complex(v[0])

    def g(z):
        _, h = _transverse_solve(intg, alpha, np.ravel(z), seed)
        v = np.linalg.det(np.moveaxis(-h, -1, 0)) ** -0.5
        return v.reshape(np.shape(z)) if np.ndim(z) else complex(v[0])

    return Integrand1D(f=f, g=g, contour=intg.soft_path, name=f"{intg.name} reduced")


def _transverse_solve(intg, alpha, z, seed, tol=1e-12):
    """The columns (z_k, x_perp*(z_k)) of an (n, M) array, with the
    transverse gradient zero by Newton from ``seed``, and the transverse
    Hessians there, of shape (n-1, n-1, M)."""
    x = np.empty((intg.dim, z.size), dtype=complex)
    x[0], x[1:] = z, np.asarray(seed)[:, None]
    for _ in range(_MAX_ITERS):
        grad, h = _transverse_derivatives(intg, x, alpha)
        step = np.linalg.solve(np.moveaxis(h, -1, 0), -grad.T[:, :, None])[:, :, 0].T
        x[1:] += step
        if np.abs(step).max() <= tol * max(1.0, np.abs(x[1:]).max()):
            return x, h
    raise NoConvergence("transverse Newton did not converge")


def _transverse_derivatives(intg, x, alpha):
    """Gradient (n-1, M) and Hessian (n-1, n-1, M) of F in the transverse
    coordinates at the columns of the complex (n, M) array x: each diagonal
    entry from a Taylor jet along a coordinate axis, each off-diagonal one
    from a jet along the diagonal of two axes."""
    n, m = x.shape
    scale = max(1.0, float(np.abs(x).max()))

    def along(u):
        def samples(s):
            points = (x[:, :, None] + u[:, None, None] * s).reshape(n, -1)
            return intg.F(points, alpha).reshape(m, -1)

        jet, err = _jet(samples, scale)
        if np.any(err[1:3] > _JET_TOL * np.maximum(1.0, np.abs(jet[:, 1:3]).max(axis=0))):
            raise StepUnderflow(f"transverse derivative error bounds {err[1:3]} exceed tol")
        return jet[:, 1:3]

    eye = np.eye(n)
    grad = np.empty((n - 1, m), dtype=complex)
    h = np.empty((n - 1, n - 1, m), dtype=complex)
    for i in range(1, n):
        d = along(eye[i])
        grad[i - 1], h[i - 1, i - 1] = d[:, 0], d[:, 1]
    for i in range(1, n):
        for j in range(i + 1, n):
            mixed = along((eye[i] + eye[j]) / math.sqrt(2.0))[:, 1]
            h[i - 1, j - 1] = h[j - 1, i - 1] = mixed - 0.5 * (h[i - 1, i - 1] + h[j - 1, j - 1])
    return grad, h
