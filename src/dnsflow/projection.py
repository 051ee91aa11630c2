"""Helmholtz-Leray decomposition and the implicit Stokes step.

Periodic backend: direct mode-by-mode solves in Fourier space (the
projection and the Laplacian commute on the torus); the spectral kit's
-K^2, +inf where K^2 = 0, inverts the Laplacian. A spectrum is divided
by a real symbol (-K^2, h (-K^2), 1 + h nu K^2) as the product with the
symbol's real reciprocal: numpy's complex division by a divisor with a
zero imaginary part computes that same product, so the spectra keep
their bits and no complex division runs. The Stokes solve's
diagnostics, max |div v| and int |Dv|^2, come from one forward
transform of the v it returns (``fields._velocity_spectra``).

Dirichlet backend: the velocity unknowns live on interior nodes (walls
pinned to zero) and the pressure on all nodes. The divergence constraint
is enforced through the weighted adjoint of the interior central
gradient, which coincides with the public divergence operator at every
node for wall-pinned fields. Both box solves rest on one fast-solve
idiom: a tensor eigenbasis of path-graph Laplacians kept as small dense
matrices (matrix decomposition; Lynch, Rice & Thomas 1964; Buzbee,
Golub & Nielson 1970). With the walls pinned, the interior 5-point
Helmholtz operator A = I - h nu lap is diagonal in the tensor DST-I
basis, so each application of its inverse is exact: four products with
the cached sine matrices of the two axes, O(N^3) per apply, yet faster
than padded real FFTs through 256^2. Both box solves are preconditioned
conjugate-gradient loops on one fast Poisson pseudo-inverse: the
Neumann operator G^T W G splits into four parity sub-lattices, on each
of which the grid-graph Laplacian is diagonal in the tensor DCT-II
basis (Strang, SIAM Rev. 41, 1999). The Leray projection preconditions
its Neumann Poisson CG with that pseudo-inverse directly. The outer
Uzawa CG on the pressure Schur complement h G^T W A^{-1} G (symmetric
positive semidefinite) uses the least-squares-commutator (BFBt)
preconditioner built on it, with A applied by its stencil (Elman, SIAM
J. Sci. Comput. 20, 1999); the iteration counts of both stop growing
with the grid. No CG residual meets null(G), the four corners (which no
interior central difference touches) and the sub-lattice constants, so
each solve removes it once from its result. A solve keeps no state;
run() starts each from the previous pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import (
    GridSpec,
    ScalarField,
    VelocityField,
    _dirichlet_from_spectra,
    _divergence_from_spectra,
    _fd_laplacian,
    _parseval_norm_sq,
    _spectral_kit,
    _velocity_spectra,
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
    interior rows weighted dx^2 on the box, Parseval on the torus.
    ``dirichlet`` is int |Dv|^2 of the returned v on the torus, from the
    transform of v that also gives ``max_divergence``; None on the box."""

    converged: bool
    outer_iterations: int
    max_divergence: float
    momentum_residual: float
    dirichlet: float | None = None


def _cg(apply_a, b, x0, max_iters, rel_tol=0.0, abs_tol=0.0, stop_fn=None,
        precond=None):
    """Hand-rolled (preconditioned) CG; returns (x, iterations, converged).
    Stops on ``stop_fn(r)`` if given, else on |r| <= max(rel_tol |b|,
    abs_tol). ``precond`` applies a symmetric positive semidefinite M^-1
    (identity if None); the loop gives up, unconverged, once r.M^-1 r or
    d.Ad is no longer positive, and at once if |b| is not finite (every
    residual would meet tol = inf)."""
    x = x0.copy()
    r = b - apply_a(x)
    b_norm = float(np.sqrt(np.sum(b * b)))
    if not math.isfinite(b_norm):
        return x, 0, False
    if b_norm == 0.0:
        return np.zeros_like(b), 0, True
    tol = max(rel_tol * b_norm, abs_tol)

    def small(rz):
        if stop_fn is not None:
            return stop_fn(r)
        rr = rz if precond is None else float(np.sum(r * r))
        return np.sqrt(rr) <= tol

    z = r if precond is None else precond(r)
    d = z.copy()
    rz = float(np.sum(r * z))
    k = 0
    while k < max_iters:
        if small(rz):
            return x, k, True
        if not rz > 0.0:
            break
        ad = apply_a(d)
        dad = float(np.sum(d * ad))
        if dad <= 0.0:
            break
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        if precond is not None:
            z = precond(r)
        rz_new = float(np.sum(r * z))
        d = z + (rz_new / rz) * d
        rz = rz_new
        k += 1
    return x, k, bool(small(rz))


# ---------------------------------------------------------------------------
# periodic backend

def _leray_periodic(u: VelocityField) -> HelmholtzParts:
    spec = u.spec
    ikx, iky, _, neg_k2 = _spectral_kit(spec)
    shape = spec.node_shape
    du = ikx * np.fft.rfft2(u.data[0]) + iky * np.fft.rfft2(u.data[1])
    phi_hat = du * (1.0 / neg_k2)
    sol = np.empty((2,) + shape)
    for c, ik in enumerate((ikx, iky)):
        np.subtract(u.data[c], np.fft.irfft2(ik * phi_hat, s=shape),
                    out=sol[c])
    pot = ScalarField(spec, np.fft.irfft2(phi_hat, s=shape)).demeaned()
    return HelmholtzParts(VelocityField(spec, sol), pot)


def _stokes_spectral(w: VelocityField, h: float, nu: float):
    """v, p and the momentum residual of the torus Stokes solve."""
    spec = w.spec
    ikx, iky, K2, neg_k2 = _spectral_kit(spec)
    shape = spec.node_shape
    wu_hat = np.fft.rfft2(w.data[0])
    wv_hat = np.fft.rfft2(w.data[1])
    div_hat = ikx * wu_hat + iky * wv_hat
    phi_hat = div_hat * (1.0 / neg_k2)
    p_hat = div_hat * (1.0 / (h * neg_k2))
    sym = 1.0 + h * nu * K2
    inv_sym = 1.0 / sym
    vu_hat = (wu_hat - ikx * phi_hat) * inv_sym
    vv_hat = (wv_hat - iky * phi_hat) * inv_sym
    vel = np.empty((2,) + shape)
    vel[0] = np.fft.irfft2(vu_hat, s=shape)
    vel[1] = np.fft.irfft2(vv_hat, s=shape)
    p = ScalarField(spec, np.fft.irfft2(p_hat, s=shape)).demeaned()
    mom_res = math.sqrt(_parseval_norm_sq(
        spec, vu_hat * sym + h * ikx * p_hat - wu_hat,
        vv_hat * sym + h * iky * p_hat - wv_hat))
    return VelocityField(spec, vel), p, mom_res


def _stokes_periodic(w: VelocityField, h: float, nu: float):
    v, p, mom_res = _stokes_spectral(w, h, nu)
    # the diagnostics read the stored v, not the solve's own spectra,
    # whose divergence vanishes by construction; they run once those
    # spectra are freed, so the two sets of temporaries never coexist
    v_hats = _velocity_spectra(v)
    div = _divergence_from_spectra(w.spec, *v_hats)
    return v, p, StokesInfo(True, 0, float(np.max(np.abs(div))), mom_res,
                            _dirichlet_from_spectra(w.spec, *v_hats))


# ---------------------------------------------------------------------------
# dirichlet backend

@lru_cache(maxsize=32)
def _dirichlet_ops(spec: GridSpec):
    dx = spec.spacing
    w = quadrature_weights(spec)

    def grad_interior(p):
        """G p, shape (2, *node_shape), zero on the walls."""
        g = np.zeros((2,) + p.shape)
        g[0, 1:-1, 1:-1] = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * dx)
        g[1, 1:-1, 1:-1] = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * dx)
        return g

    def grad_t_weighted(g):
        """G^T W_v over interior momentum rows (uniform weight dx^2)."""
        out = np.zeros(g.shape[1:])
        c = dx / 2.0  # dx^2 / (2 dx)
        out[2:, 1:-1] += c * g[0, 1:-1, 1:-1]
        out[:-2, 1:-1] -= c * g[0, 1:-1, 1:-1]
        out[1:-1, 2:] += c * g[1, 1:-1, 1:-1]
        out[1:-1, :-2] -= c * g[1, 1:-1, 1:-1]
        return out

    return grad_interior, grad_t_weighted, w


def _path_dct(m: int):
    """Orthonormal DCT-II basis (columns) and eigenvalues of the Laplacian
    of the path graph on m nodes."""
    k = np.arange(m)
    basis = np.cos(np.pi * np.outer(np.arange(m) + 0.5, k) / m)
    basis /= np.sqrt(np.sum(basis * basis, axis=0))
    return basis, 2.0 - 2.0 * np.cos(np.pi * k / m)


def _path_dst(m: int):
    """Orthonormal, symmetric DST-I matrix and eigenvalues of the Laplacian
    of the path graph on m nodes with both ends held at zero."""
    k = np.arange(1, m + 1)
    # j k reduced mod 2 (m + 1) in integers: every sine argument < 2 pi
    basis = np.sin(np.pi * (np.outer(k, k) % (2 * m + 2)) / (m + 1))
    return (basis * math.sqrt(2.0 / (m + 1)),
            2.0 - 2.0 * np.cos(np.pi * k / (m + 1)))


_PARITIES = tuple(np.s_[a::2, b::2] for a in (0, 1) for b in (0, 1))


def _project_range_gt(x):
    """Orthogonal projection onto range(G^T): zero the four corners and
    subtract from each parity sub-lattice its mean over its other nodes."""
    off_corner = np.ones(x.shape, dtype=bool)
    off_corner[[0, 0, -1, -1], [0, -1, 0, -1]] = False
    y = np.where(off_corner, x, 0.0)
    for sub in _PARITIES:
        keep = off_corner[sub]
        y[sub][keep] -= np.mean(y[sub][keep])
    return y


@lru_cache(maxsize=32)
def _neumann_pinv(spec: GridSpec):
    """Lg^+, a fast symmetric positive semidefinite approximation of the
    pseudo-inverse of the box Neumann operator L = G^T W G.

    L couples a node only to nodes two apart, so it splits into the four
    (i mod 2, j mod 2) sub-lattices. On each one it is 1/4 of the
    grid-graph Laplacian Lg minus the edges along the wall lines; Lg is
    diagonal in the tensor DCT-II basis (Strang 1999), so Lg^+ costs two
    small matrix products each way. Its null space is the sub-lattice
    constants. CG residuals lie in range(G^T), so Lg^+ needs no
    projection: null(G) reaches only the final iterate, projected once.
    """
    blocks = []
    for sub in _PARITIES:
        (cx, lx), (cy, ly) = (_path_dct(len(range(n)[s]))
                              for n, s in zip(spec.node_shape, sub))
        lam = 0.25 * (lx[:, None] + ly[None, :])
        lam[0, 0] = np.inf  # the sub-lattice constant: pseudo-inverse 0
        blocks.append((sub, cx, cy, 1.0 / lam))

    def pinv(r):
        q = np.empty_like(r)
        for sub, cx, cy, inv_lam in blocks:
            q[sub] = cx @ ((cx.T @ r[sub] @ cy) * inv_lam) @ cy.T
        return q

    return pinv


_POISSON_REL_TOL = 1e-10
_POISSON_ITERS_PER_CELL = 100


def _leray_dirichlet(u: VelocityField) -> HelmholtzParts:
    spec = u.spec
    grad_i, grad_t, w = _dirichlet_ops(spec)
    max_iters = _POISSON_ITERS_PER_CELL * max(spec.cells)
    b = grad_t(u.data)

    def apply_l(p):
        return grad_t(grad_i(p))

    # roundoff level of assembling b: inputs that are already weakly
    # divergence-free must short-circuit, not feed noise to CG
    umax = float(np.max(np.abs(u.data)))
    floor = (64.0 * np.finfo(float).eps * spec.spacing * umax
             * math.sqrt(spec.node_count))
    phi, k, ok = _cg(apply_l, b, np.zeros_like(b), max_iters,
                     _POISSON_REL_TOL, abs_tol=floor,
                     precond=_neumann_pinv(spec))
    if not ok:
        res = float(np.sqrt(np.sum((b - apply_l(phi)) ** 2)))
        raise ProjectionError("Neumann Poisson CG did not converge", res, k)
    phi = _project_range_gt(phi)
    sol = pin_walls(spec, u.data - grad_i(phi))
    return HelmholtzParts(VelocityField(spec, sol),
                          ScalarField(spec, phi).demeaned())


_UZAWA_ITERS_PER_CELL = 10


@lru_cache(maxsize=32)
def _helmholtz_inverse(spec: GridSpec, h: float, nu: float):
    """(I - h nu L)^{-1} on the interior nodes, exact in the tensor DST-I
    basis (matrix decomposition; Lynch, Rice & Thomas 1964); it takes f of
    shape (..., n0 + 1, n1 + 1), ignores f's wall values and pins the
    result's walls to zero."""
    (s0, lam0), (s1, lam1) = (_path_dst(n - 1) for n in spec.cells)
    inv_symbol = 1.0 / (1.0 + h * nu / spec.spacing ** 2
                        * (lam0[:, None] + lam1[None, :]))

    def ainv(f):
        out = np.zeros(f.shape)
        out[..., 1:-1, 1:-1] = s0 @ ((s0 @ f[..., 1:-1, 1:-1] @ s1)
                                     * inv_symbol) @ s1
        return out

    return ainv


def _stokes_dirichlet(w: VelocityField, h: float, nu: float,
                      div_tol: float, p0: ScalarField | None):
    spec = w.spec
    grad_i, grad_t, weights = _dirichlet_ops(spec)
    ainv = _helmholtz_inverse(spec, h, nu)

    def schur(p):
        return h * grad_t(ainv(grad_i(p)))

    def div_small(r):
        # r = W_s * (adjoint divergence of the current velocity)
        return float(np.max(np.abs(r / weights))) <= div_tol

    pinv = _neumann_pinv(spec)

    def bfbt(r):
        # least-squares commutator: S^-1 ~ L^+ G^T W A G L^+ / h, with
        # A = I - h nu lap applied by its stencil, not inverted
        g = grad_i(pinv(r))
        return pinv(grad_t(g - h * nu * _fd_laplacian(spec, g))) * (1.0 / h)

    x0 = np.zeros(spec.node_shape) if p0 is None else p0.data
    p, outer, ok = _cg(schur, grad_t(ainv(w.data)), x0,
                       _UZAWA_ITERS_PER_CELL * max(spec.cells),
                       stop_fn=div_small, precond=bfbt)
    p = _project_range_gt(p)
    hg = h * grad_i(p)
    vel = ainv(w.data - hg)
    v = VelocityField(spec, vel)
    lap = _fd_laplacian(spec, vel)
    mom = (vel - h * nu * lap + hg - w.data)[:, 1:-1, 1:-1]
    mom_res = float(np.sqrt(np.sum(weights[1:-1, 1:-1]
                                   * np.sum(mom ** 2, axis=0))))
    max_div = float(np.max(np.abs(divergence(v).data)))
    return (v, ScalarField(spec, p).demeaned(),
            StokesInfo(bool(ok), outer, max_div, mom_res))


# ---------------------------------------------------------------------------
# public entry points

def leray_project(u: VelocityField) -> HelmholtzParts:
    """Split u into a divergence-free part plus a gradient.

    The potential solves the discrete Poisson problem driven by the
    divergence of u (spectral division on the torus, Neumann CG on the
    box); the solenoidal part is u minus its gradient. The box CG is
    preconditioned by the parity-split DCT pseudo-inverse, takes about
    20 iterations whatever the grid, stops at relative residual 1e-10
    and raises ProjectionError after 100 iterations per cell of the
    longer axis; its potential is projected once onto range(G^T).
    """
    if u.spec.is_periodic:
        return _leray_periodic(u)
    return _leray_dirichlet(u)


def solve_implicit_stokes(w: VelocityField, h: float, nu: float = 1.0, *,
                          div_tol: float = 1e-9,
                          p0: ScalarField | None = None,
                          ) -> tuple[VelocityField, ScalarField, StokesInfo]:
    """Solve v - h nu lap(v) + h grad(p) = w with div(v) = 0.

    Periodic: exact in one pass, mode by mode. Dirichlet: Uzawa
    iteration on the pressure, accelerated by CG with the least-squares-
    commutator preconditioner, from ``p0`` (zero if None) to
    max |div v| <= ``div_tol``, each velocity solve an exact DST-I
    Helmholtz inverse; after 10 outer iterations per cell of the longer
    axis the last iterate is returned with ``info.converged`` False; the
    pressure is projected once onto range(G^T).
    """
    if h <= 0.0:
        raise ValueError("time step h must be positive")
    if p0 is not None and p0.spec != w.spec:
        raise ValueError("warm-start pressure lives on a different grid")
    if w.spec.is_periodic:
        return _stokes_periodic(w, h, nu)
    return _stokes_dirichlet(w, h, nu, div_tol, p0)
