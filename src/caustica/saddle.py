"""Saddle-point, caustic, and partner-saddle solvers.

One complex variable: damped Newton on f'(z)=0; one damped Newton on
f''(z, alpha) = 0 at fixed alpha for the fold point z_tilde(alpha), whose
record holds every value taken there (f and its jet); the expansion point
(z_tilde, alpha_hat), where f' and f'' vanish together, as the root in alpha
of f'(z_tilde(alpha), alpha), by secant steps over that Newton; and the
partner saddle seeded from the local cubic model.  Several variables: the
transverse coordinates are integrated out by Laplace's method (the
splitting lemma; Poston & Stewart 1978, Bleistein & Handelsman 1975,
ch. 8-9), which leaves a one-variable integrand in the soft coordinate, and
its saddle is found by the one-variable solver.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadParameter, DegenerateCubic, NoConvergence, PartnerNotFound,
                     StepUnderflow, WrongRegime)
from .integrand import _JET_TOL, Integrand1D, IntegrandND, _jet, _per_alpha, derive
# nothing in the package calls this name here; the only reason the import
# exists is that the span tracer (bench/spans.py, TARGETS) wraps
# saddle.derive_nd by name.  It goes when TARGETS drops that entry.
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
    """A converged saddle with the derivative data the formulas need, and
    the alpha it was solved at: a formula given it at another alpha raises
    BadParameter."""

    z0: complex
    f0: complex
    f2: complex
    f3: complex
    residual: float
    iterations: int
    alpha: float


@dataclass(frozen=True)
class CausticInfo:
    """The fold at the critical parameter: z_tilde, alpha_hat and f''' there."""

    z_tilde: complex
    alpha_hat: float
    f3_tilde: complex

    def z_tilde_at(self, intg: Integrand1D, alpha: float) -> complex:
        """z with f''(z, alpha) = 0 for ``intg``, continued from the critical
        point by damped Newton."""
        return _fold_point(intg, alpha, self.z_tilde, self.f3_tilde)[0]


def _derive(solver: str, intg: Integrand1D, z: complex, alpha: float, order: int):
    """``derive`` at an iterate of ``solver``; NoConvergence where it overflows."""
    try:
        return derive(intg, z, alpha, order)
    except OverflowError as exc:
        raise NoConvergence(f"{solver}: derivatives overflow at z = {z:.6g}") from exc


def _value(solver: str, intg: Integrand1D, z: complex, alpha: float) -> complex:
    """f at a solution of ``solver``; WrongRegime where it overflows a double."""
    try:
        return intg.f(z, alpha)
    except OverflowError as exc:
        raise WrongRegime(f"{solver}: f overflows a double at z = {z:.6g}") from exc


@_per_alpha("fold")
def _fold_point(
    intg: Integrand1D, alpha: float, z: complex, f3_scale: complex, solver="z_tilde continuation"
):
    """The record (z_tilde, f, (f', ..., f'''') there) at alpha, by damped Newton
    from z to |f''| <= 1e-12 max(1, |f3_scale|); errors name ``solver``, and
    an f that overflows at z_tilde is WrongRegime.  Kept in the integrand's memo."""
    for _ in range(_MAX_ITERS):
        jet = _derive(solver, intg, z, alpha, 4)
        _, r, f3, _ = jet
        if abs(r) <= 1e-12 * max(1.0, abs(f3_scale)):
            return z, _value(solver, intg, z, alpha), jet
        if f3 == 0:
            raise NoConvergence(f"{solver}: f''' vanishes at alpha={alpha}")
        step = r / f3
        # damping: never move by more than O(1), as in find_saddle
        if abs(step) > 1.0:
            step /= abs(step)
        z = z - step
    raise NoConvergence(f"{solver} stalled at alpha={alpha}")


def _check_fold(f3: complex, f4: complex, residual: float, order: int) -> None:
    """DegenerateCubic where f''' at a fold point is zero: near a cusp, with
    f''' ~ f''''*dz, a solve for f^(order) = 0 stops with a residual f'' ~ f''''*dz^2
    (order 2) or, along z_tilde(alpha), f' ~ f''''*dz^3 (order 1), hence this floor."""
    scale = max(abs(f4), 1.0)
    floor = 50.0 * scale ** (3 - order) * max(residual, 1e-13)
    if abs(f3) < 1e-8 or abs(f3) ** (4 - order) < floor:
        raise DegenerateCubic(f"f'''(z_tilde, alpha_hat) = {f3:.3e}: fold assumption violated")


@dataclass(frozen=True)
class NdSaddleInfo:
    """An n-D saddle as the saddle of the integrand reduced to the soft
    coordinate: ``reduced`` is that one-variable integrand at this alpha,
    ``saddle`` its saddle, ``x0`` the n-D point (z0, x_perp*(z0)) and
    ``hessian`` the transverse Hessian there, as ``find_saddle_nd`` vetted."""

    x0: np.ndarray
    hessian: np.ndarray
    reduced: Integrand1D
    saddle: SaddleInfo

    @property
    def iterations(self) -> int:
        return self.saddle.iterations


@_per_alpha("find_saddle")
def find_saddle(
    intg: Integrand1D,
    alpha: float,
    guess: complex,
    tol: float = 1e-12,
) -> SaddleInfo:
    """Damped Newton iteration on f'(z, alpha) = 0; NoConvergence also where
    the derivatives overflow at an iterate or f' there is not finite,
    WrongRegime where f overflows at the saddle.  Kept in the integrand's memo."""
    z = complex(guess)
    for it in range(1, _MAX_ITERS + 1):
        f1, f2, f3 = _derive("find_saddle", intg, z, alpha, 3)
        if not cmath.isfinite(f1):
            raise NoConvergence(f"find_saddle: f' = {f1:.6g} is not finite at z = {z:.6g}")
        if it == 1:
            scale = max(1.0, abs(f1))
        if abs(f1) <= tol * scale:
            return SaddleInfo(z, _value("find_saddle", intg, z, alpha), f2, f3, abs(f1), it, alpha)
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


def find_caustic(intg: Integrand1D) -> CausticInfo:
    """The expansion point (z_tilde, alpha_hat), where f' and f'' vanish
    together, from the integrand's ``caustic_guess``.

    A secant iteration in alpha on h(alpha) = f'(z_tilde(alpha), alpha), with
    z_tilde(alpha) and its jet from the fold point's damped Newton,
    continued from one alpha to the next.  alpha moves by the real part of
    the secant step, at most 0.5, until |h| <= 1e-14 max(1, |f'''|).
    NoConvergence also where the derivatives overflow at an iterate, WrongRegime
    where f does at a z_tilde, and DegenerateCubic where the point is a cusp.
    """
    if intg.caustic_guess is None:
        raise NoConvergence("find_caustic needs a guess for this integrand")
    z, a = complex(intg.caustic_guess[0]), float(intg.caustic_guess[1])
    f3, a_prev, h_prev = 1.0, None, None
    for _ in range(_MAX_ITERS):
        z, _, (h, _, f3, f4) = _fold_point(intg, a, z, f3, "find_caustic")
        if abs(h) <= 1e-14 * max(1.0, abs(f3)):
            _check_fold(f3, f4, abs(h), order=1)
            return CausticInfo(z_tilde=z, alpha_hat=a, f3_tilde=f3)
        if h_prev is None:
            step = 1e-6
        elif h == h_prev:
            raise NoConvergence(f"find_caustic: f' = {h:.3g} stalls at alpha = {a!r}")
        else:
            step = -(h / ((h - h_prev) / (a - a_prev))).real
        a_prev, h_prev = a, h
        a += max(-0.5, min(0.5, step))
    raise NoConvergence(f"find_caustic: secant in alpha did not converge in {_MAX_ITERS} steps")


def find_partner(intg: Integrand1D, alpha: float, s: SaddleInfo) -> SaddleInfo:
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
        p = find_saddle(intg, alpha, seed)
    except NoConvergence as exc:
        raise PartnerNotFound(f"partner iteration diverged: {exc}") from exc
    sep = abs(p.z0 - s.z0)
    if sep < 0.25 * abs(seed - s.z0):
        raise PartnerNotFound("partner iteration fell back onto the original saddle")
    return p


def find_saddle_nd(intg: IntegrandND, alpha: float, guess: np.ndarray) -> NdSaddleInfo:
    """The saddle of the integrand reduced to the soft coordinate, by
    ``find_saddle`` from guess[0], the transverse coordinates solved from
    guess[1:], complex entries as given; kept in the integrand's memo.

    BadParameter where the guess is not of shape (n,).  WrongRegime where
    the transverse Hessian there has an eigenvalue with non-negative real
    part (no Gaussian peaks), or a real soft coordinate a minimum (no fold).
    """
    guess = np.asarray(guess)
    if guess.shape != (intg.dim,):
        raise BadParameter(f"guess has shape {guess.shape}, expected ({intg.dim},)")
    return _saddle_nd(intg, alpha, *guess)


@_per_alpha("find_saddle_nd")
def _saddle_nd(intg: IntegrandND, alpha: float, z: complex, *perp) -> NdSaddleInfo:
    reduced, solve = _reduce(intg, alpha, np.array(perp))
    # 1e-10 keeps the n-D sweeps' values: at 1e-12 every n-D golden CSV moves
    # in its last digits, though the solve also converges there (A6 passes)
    s = find_saddle(reduced, alpha, complex(z), 1e-10)
    x, h = solve(s.z0, alpha)
    h = h[:, :, 0]
    if np.any(np.linalg.eigvals(h).real >= 0.0):
        raise WrongRegime(f"transverse Hessian must be negative definite, got {h}")
    if intg.soft_contour is None and s.f2.real > 0.0:
        raise WrongRegime("soft minimum on a real soft coordinate: not a fold")
    return NdSaddleInfo(x0=x[:, 0], hessian=h, reduced=reduced, saddle=s)


def _reduce(intg: IntegrandND, alpha: float, seed: np.ndarray):
    """The one-variable integrand left by Laplace's method in the transverse
    coordinates: f(z) = F(z, x_perp*(z)) where the transverse gradient
    vanishes, and g(z) = det(-H_perp)^(-1/2); times (2 pi / N)^((n-1)/2) its
    integral along the soft contour is the n-D integral to relative order
    1/N, and exactly so where F is quadratic in x_perp.  x_perp* is found
    by Newton from ``seed``.  f and g accept complex points and arrays.
    Also returns their transverse solve, which keeps (x, H) at each single
    point in the reduced integrand's memo: the solvers ask there often.
    """

    @_per_alpha("perp")
    def solve_point(_, a, z):
        return _transverse_solve(intg, a, np.ravel(z), seed)

    def solve(z, a):
        if np.ndim(z):
            return _transverse_solve(intg, a, np.ravel(z), seed)
        return solve_point(reduced, a, z)

    def shaped(z, v):  # values at the columns of z's points, in z's shape
        return v.reshape(np.shape(z)) if np.ndim(z) else complex(v[0])

    def f(z, a):
        return shaped(z, intg.F(solve(z, a)[0], a))

    def g(z):
        return shaped(z, np.linalg.det(np.moveaxis(-solve(z, alpha)[1], -1, 0)) ** -0.5)

    reduced = Integrand1D(f=f, g=g, contour=intg.soft_path, name=f"{intg.name} reduced")
    return reduced, solve


def _transverse_solve(intg, alpha, z, seed):
    """The columns (z_k, x_perp*(z_k)) of an (n, M) array, with the
    transverse gradient zero by Newton from ``seed``, and the transverse
    Hessians there, of shape (n-1, n-1, M)."""
    x = np.empty((intg.dim, z.size), dtype=complex)
    x[0], x[1:] = z, np.asarray(seed)[:, None]
    for _ in range(_MAX_ITERS):
        grad, h = _transverse_derivatives(intg, x, alpha)
        try:
            step = np.linalg.solve(np.moveaxis(h, -1, 0), -grad.T[:, :, None])[:, :, 0].T
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("transverse Newton: singular transverse Hessian") from exc
        # damping: no column moves by more than O(1), as in find_saddle
        step /= np.maximum(np.linalg.norm(step, axis=0), 1.0)
        x[1:] += step
        if np.abs(step).max() <= 1e-12 * max(1.0, np.abs(x[1:]).max()):
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
