"""Saddle-point, caustic, and partner-saddle solvers.

One complex variable: damped Newton on f'(z)=0, a joint solve for the
expansion point (z_tilde, alpha_hat) where f' and f'' vanish together, and
the partner saddle seeded from the local cubic model.  Several variables:
Newton on the gradient followed by a Hessian eigendecomposition with
soft-mode bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCubic,
    EigenFailure,
    NoConvergence,
    PartnerNotFound,
    WrongRegime,
)
from .integrand import Integrand1D, IntegrandND, derive, derive_nd

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
    """n-D saddle with Hessian spectrum and soft-mode cubic data.

    Eigenvalues are sorted by ascending magnitude, so index 0 is the soft
    mode; eigenvectors are the matching columns.
    """

    x0: np.ndarray
    grad_residual: float
    hessian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    a111: float
    a_i11: np.ndarray
    iterations: int


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
    """Newton on the gradient, then Hessian spectrum and soft-mode cubics."""
    x = np.array(guess, dtype=float)
    n = intg.dim
    if x.shape != (n,):
        raise WrongRegime(f"guess has shape {x.shape}, expected ({n},)")

    def gradient(x):
        if intg.grad is not None:
            return np.asarray(intg.grad(x, alpha), dtype=float)
        return np.array(
            [
                derive_nd(intg, x, alpha, _unit(n, i), 1)
                for i in range(n)
            ]
        )

    converged = False
    scale = max(1.0, float(np.linalg.norm(x)))
    for it in range(1, 3 * _MAX_ITERS + 1):
        g = gradient(x)
        if np.linalg.norm(g) <= tol:
            converged = True
        h = intg.hessian_at(x, alpha)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(h, -g, rcond=None)
        nrm = np.linalg.norm(step)
        if converged and nrm <= 1e-15 * scale:
            # near a double root Newton converges only linearly, so keep
            # polishing past the gradient tolerance until the step stalls
            break
        if nrm > 1.0:
            step /= nrm
        x = x + step
    if not converged:
        raise NoConvergence("find_saddle_nd: gradient iteration did not converge")

    h = intg.hessian_at(x, alpha)
    try:
        lam, vec = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"Hessian eigendecomposition failed: {exc}") from exc
    order = np.argsort(np.abs(lam))
    lam = lam[order]
    vec = vec[:, order]
    # fix the soft-eigenvector sign convention (eigh returns either sign):
    # positive projection onto the declared soft coordinate, so the cubic
    # coefficient a111 has a reproducible, rotation-invariant sign
    if vec[0, 0] < 0.0:
        vec = vec.copy()
        vec[:, 0] = -vec[:, 0]
    if n > 1 and abs(abs(lam[0]) - abs(lam[1])) <= 1e-10 * max(1.0, abs(lam[1])):
        raise WrongRegime("two equally soft Hessian modes; fold model does not apply")
    if np.any(lam[1:] >= 0.0):
        raise WrongRegime(
            f"transverse eigenvalues must be negative, got {lam[1:]}"
        )
    v1 = vec[:, 0]
    a111 = derive_nd(intg, x, alpha, v1, 3)
    a_i11 = np.empty(n)
    a_i11[0] = a111
    for i in range(1, n):
        # F'''[v_i, v1, v1] from directional third derivatives
        vi = vec[:, i]
        up = 2.0 * vi + v1
        um = 2.0 * vi - v1
        dp = derive_nd(intg, x, alpha, up / np.linalg.norm(up), 3)
        dm = derive_nd(intg, x, alpha, um / np.linalg.norm(um), 3)
        diii = derive_nd(intg, x, alpha, vi, 3)
        # F3[2a+b] + F3[2a-b] = 16 F3[a,a,a] + 12 F3[a,b,b]  (a=v_i, b=v1)
        a_i11[i] = (
            dp * np.linalg.norm(up) ** 3
            + dm * np.linalg.norm(um) ** 3
            - 16.0 * diii
        ) / 12.0
    return NdSaddleInfo(
        x0=x,
        grad_residual=float(np.linalg.norm(gradient(x))),
        hessian=h,
        eigenvalues=lam,
        eigenvectors=vec,
        a111=float(a111),
        a_i11=a_i11,
        iterations=it,
    )


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e
