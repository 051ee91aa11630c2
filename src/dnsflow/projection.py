"""Helmholtz-Leray decomposition and the implicit Stokes step.

Periodic backend: direct mode-by-mode solves in Fourier space (the
projection and the Laplacian commute on the torus).

Dirichlet backend: the velocity unknowns live on interior nodes (walls
pinned to zero) and the pressure on all nodes. The divergence constraint
is enforced through the weighted adjoint of the interior central
gradient, which coincides with the public divergence operator at every
node for wall-pinned fields. The pressure Schur complement
h G^T W (I - h nu L)^{-1} G is symmetric positive semidefinite, so the
outer Uzawa iteration is a plain conjugate-gradient loop. With the walls
pinned, the interior 5-point Helmholtz operator I - h nu L is diagonal
in the sine basis, so each application of its inverse is an exact
DST-I solve (fast Poisson solver; Buzbee, Golub & Nielson 1970).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import (
    BoundaryCondition,
    GridSpec,
    ScalarField,
    VelocityField,
    _fd_laplacian,
    _parseval_norm_sq,
    _spectral_kit,
    divergence,
    pin_walls,
    quadrature_weights,
)


class ProjectionError(RuntimeError):
    """Conjugate-gradient loop failed to reach its tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} "
                         f"after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class HelmholtzParts:
    solenoidal: VelocityField
    potential: ScalarField


@dataclass(frozen=True)
class StokesInfo:
    """``momentum_residual`` is the residual of the solved system, the
    L2 norm of v - h nu lap(v) + h grad(p) - w for the returned v and p:
    interior rows weighted dx^2 on the box, Parseval on the torus."""

    converged: bool
    outer_iterations: int
    max_divergence: float
    momentum_residual: float


def _cg(apply_a, b, x0, max_iters, rel_tol=0.0, abs_tol=0.0, stop_fn=None):
    """Hand-rolled CG; returns (x, iterations, converged). Stops on
    ``stop_fn(r)`` if given, else on |r| <= max(rel_tol |b|, abs_tol)."""
    x = x0.copy()
    r = b - apply_a(x)
    b_norm = float(np.sqrt(np.sum(b * b)))
    if b_norm == 0.0:
        return np.zeros_like(b), 0, True
    tol = max(rel_tol * b_norm, abs_tol)
    d = r.copy()
    rs = float(np.sum(r * r))
    k = 0
    while k < max_iters:
        if stop_fn is not None:
            if stop_fn(r):
                return x, k, True
        elif np.sqrt(rs) <= tol:
            return x, k, True
        ad = apply_a(d)
        dad = float(np.sum(d * ad))
        if dad <= 0.0:
            break
        alpha = rs / dad
        x += alpha * d
        r -= alpha * ad
        rs_new = float(np.sum(r * r))
        d = r + (rs_new / rs) * d
        rs = rs_new
        k += 1
    done = (stop_fn(r) if stop_fn is not None
            else np.sqrt(rs) <= tol)
    return x, k, bool(done)


# ---------------------------------------------------------------------------
# periodic backend

def _leray_periodic(u: VelocityField) -> HelmholtzParts:
    spec = u.spec
    KX, KY, K2 = _spectral_kit(spec)
    shape = spec.node_shape
    du = 1j * KX * np.fft.rfft2(u.data[0]) + 1j * KY * np.fft.rfft2(u.data[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = np.where(K2 > 0.0, du / (-K2), 0.0)
    gx = np.fft.irfft2(1j * KX * phi_hat, s=shape)
    gy = np.fft.irfft2(1j * KY * phi_hat, s=shape)
    sol = VelocityField(spec, np.stack([u.data[0] - gx, u.data[1] - gy]))
    pot = ScalarField(spec, np.fft.irfft2(phi_hat, s=shape)).demeaned()
    return HelmholtzParts(sol, pot)


def _stokes_periodic(w: VelocityField, h: float, nu: float):
    spec = w.spec
    KX, KY, K2 = _spectral_kit(spec)
    shape = spec.node_shape
    wu_hat = np.fft.rfft2(w.data[0])
    wv_hat = np.fft.rfft2(w.data[1])
    div_hat = 1j * KX * wu_hat + 1j * KY * wv_hat
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = np.where(K2 > 0.0, div_hat / (-K2), 0.0)
        p_hat = np.where(K2 > 0.0, div_hat / (-h * K2), 0.0)
    sym = 1.0 + h * nu * K2
    vu_hat = (wu_hat - 1j * KX * phi_hat) / sym
    vv_hat = (wv_hat - 1j * KY * phi_hat) / sym
    v = VelocityField(spec, np.stack([np.fft.irfft2(vu_hat, s=shape),
                                      np.fft.irfft2(vv_hat, s=shape)]))
    p = ScalarField(spec, np.fft.irfft2(p_hat, s=shape)).demeaned()
    # the operator is formed afresh, not taken from sym, so the residual
    # checks the division as well as the pressure
    op = 1.0 + h * nu * (KX ** 2 + KY ** 2)
    mom_hat = np.stack([vu_hat * op + 1j * h * KX * p_hat - wu_hat,
                        vv_hat * op + 1j * h * KY * p_hat - wv_hat])
    mom_res = math.sqrt(_parseval_norm_sq(spec, mom_hat))
    return v, p, StokesInfo(True, 0, float(np.max(np.abs(divergence(v).data))),
                            mom_res)


# ---------------------------------------------------------------------------
# dirichlet backend

@lru_cache(maxsize=32)
def _dirichlet_ops(spec: GridSpec):
    dx = spec.spacing
    w = quadrature_weights(spec)

    def grad_interior(p):
        gx = np.zeros_like(p)
        gy = np.zeros_like(p)
        gx[1:-1, 1:-1] = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * dx)
        gy[1:-1, 1:-1] = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * dx)
        return gx, gy

    def grad_t_weighted(u, v):
        """G^T W_v over interior momentum rows (uniform weight dx^2)."""
        out = np.zeros_like(u)
        c = dx / 2.0  # dx^2 / (2 dx)
        out[2:, 1:-1] += c * u[1:-1, 1:-1]
        out[:-2, 1:-1] -= c * u[1:-1, 1:-1]
        out[1:-1, 2:] += c * v[1:-1, 1:-1]
        out[1:-1, :-2] -= c * v[1:-1, 1:-1]
        return out

    return grad_interior, grad_t_weighted, w


_POISSON_REL_TOL = 1e-10
_POISSON_ITERS_PER_CELL = 100


def _leray_dirichlet(u: VelocityField) -> HelmholtzParts:
    spec = u.spec
    grad_i, grad_t, w = _dirichlet_ops(spec)
    max_iters = _POISSON_ITERS_PER_CELL * max(spec.cells)
    b = grad_t(u.data[0], u.data[1])

    def apply_l(p):
        gx, gy = grad_i(p)
        return grad_t(gx, gy)

    # roundoff level of assembling b: inputs that are already weakly
    # divergence-free must short-circuit, not feed noise to CG
    umax = float(np.max(np.abs(u.data)))
    floor = (64.0 * np.finfo(float).eps * spec.spacing * umax
             * math.sqrt(spec.node_count))
    phi, k, ok = _cg(apply_l, b, np.zeros_like(b), max_iters,
                     _POISSON_REL_TOL, abs_tol=floor)
    if not ok:
        res = float(np.sqrt(np.sum((b - apply_l(phi)) ** 2)))
        raise ProjectionError("Neumann Poisson CG did not converge", res, k)
    gx, gy = grad_i(phi)
    sol = pin_walls(spec, np.stack([u.data[0] - gx, u.data[1] - gy]))
    return HelmholtzParts(VelocityField(spec, sol),
                          ScalarField(spec, phi).demeaned())


def _dst1(a: np.ndarray) -> np.ndarray:
    """Unnormalised DST-I along the last axis: 2 sum_j a_j sin(pi j k / n).

    Odd extension to length 2n and a real FFT; applying it twice
    multiplies by 2n.
    """
    n = a.shape[-1] + 1
    ext = np.zeros(a.shape[:-1] + (2 * n,))
    ext[..., 1:n] = a
    ext[..., n + 1:] = -a[..., ::-1]
    return -np.fft.rfft(ext)[..., 1:n].imag


class StokesSolver:
    """Reusable solver context for the dirichlet implicit step.

    Owns the warm-started pressure iterate and the sine-basis symbol of
    the Helmholtz inverse; one context must not be shared mutably across
    threads.
    """

    def __init__(self, spec: GridSpec, h: float, nu: float = 1.0,
                 div_tol: float = 1e-9):
        if not spec.bc is BoundaryCondition.DIRICHLET_ZERO:
            raise ValueError("StokesSolver context is for the dirichlet backend")
        self.spec = spec
        self.h = float(h)
        self.nu = float(nu)
        self.div_tol = div_tol
        self.max_outer = 10 * max(spec.cells)
        self._grad_i, self._grad_t, self._w = _dirichlet_ops(spec)
        self._p = np.zeros(spec.node_shape)
        # always 0, the Helmholtz solve being direct; kept for callers
        # that read inner iteration counts (perfbench's trace hook)
        self.total_inner = 0
        n0, n1 = spec.cells
        dx2 = spec.spacing ** 2
        lam0 = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n0) / n0)) / dx2
        lam1 = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n1) / n1)) / dx2
        # indexed (k1, k0): the solve divides between the two axis passes
        self._inv_symbol = 1.0 / (4.0 * n0 * n1 * (
            1.0 + self.h * self.nu * (lam1[:, None] + lam0[None, :])))

    def _ainv(self, f):
        """(I - h nu L)^{-1} on the interior nodes, walls pinned to zero.

        f has shape (..., n0 + 1, n1 + 1); its wall values are ignored.
        """
        coef = _dst1(_dst1(f[..., 1:-1, 1:-1]).swapaxes(-1, -2))
        sol = _dst1(_dst1(coef * self._inv_symbol).swapaxes(-1, -2))
        out = np.zeros(f.shape)
        out[..., 1:-1, 1:-1] = sol
        return out

    def _schur(self, p):
        a = self._ainv(np.stack(self._grad_i(p)))
        return self.h * self._grad_t(a[0], a[1])

    def solve(self, w_field: VelocityField):
        spec = self.spec
        h = self.h
        a = self._ainv(w_field.data)
        b = self._grad_t(a[0], a[1])

        def div_small(r):
            # r = W_s * (adjoint divergence of the current velocity)
            return float(np.max(np.abs(r / self._w))) <= self.div_tol

        p, outer, ok = _cg(self._schur, b, self._p, self.max_outer,
                           stop_fn=div_small)
        self._p = p.copy()
        gx, gy = self._grad_i(p)
        vel = self._ainv(w_field.data - h * np.stack([gx, gy]))
        v = VelocityField(spec, vel)
        vu, vv = vel
        p_field = ScalarField(spec, p).demeaned()
        wu, wv = w_field.data
        mom = (vu - h * self.nu * _fd_laplacian(spec, vu) + h * gx - wu,
               vv - h * self.nu * _fd_laplacian(spec, vv) + h * gy - wv)
        mom_res = float(np.sqrt(np.sum(
            self._w[1:-1, 1:-1] * (mom[0][1:-1, 1:-1] ** 2
                                   + mom[1][1:-1, 1:-1] ** 2))))
        max_div = float(np.max(np.abs(divergence(v).data)))
        return v, p_field, StokesInfo(bool(ok), outer, max_div, mom_res)


# ---------------------------------------------------------------------------
# public entry points

def leray_project(u: VelocityField) -> HelmholtzParts:
    """Split u into a divergence-free part plus a gradient.

    The potential solves the discrete Poisson problem driven by the
    divergence of u (spectral division on the torus, Neumann CG on the
    box); the solenoidal part is u minus its gradient. The box CG stops
    at relative residual 1e-10 and raises ProjectionError after 100
    iterations per cell of the longer axis.
    """
    if u.spec.is_periodic:
        return _leray_periodic(u)
    return _leray_dirichlet(u)


def solve_implicit_stokes(w: VelocityField, h: float, nu: float = 1.0,
                          solver: StokesSolver | None = None,
                          ) -> tuple[VelocityField, ScalarField, StokesInfo]:
    """Solve v - h nu lap(v) + h grad(p) = w with div(v) = 0.

    Periodic: exact in one pass, mode by mode. Dirichlet: CG-accelerated
    Uzawa iteration on the pressure, each velocity solve an exact DST-I
    Helmholtz inverse; on hitting the iteration cap the best iterate is
    returned with ``info.converged`` False.
    """
    if h <= 0.0:
        raise ValueError("time step h must be positive")
    if w.spec.is_periodic:
        return _stokes_periodic(w, h, nu)
    if solver is None:
        solver = StokesSolver(w.spec, h, nu)
    if solver.h != h or solver.nu != nu or solver.spec != w.spec:
        raise ValueError("solver context does not match this solve")
    return solver.solve(w)
