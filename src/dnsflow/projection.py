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
is the weighted adjoint G^T W v = 0 of the interior central gradient G,
which coincides with the public divergence operator at every node for
wall-pinned fields. The Stokes solve is exact and has no loop: a
free-slip problem, diagonal mode by mode in tensor DST-I / DCT-I bases
kept as small dense matrices (matrix decomposition; Lynch, Rice &
Thomas 1964), plus forces on the tangential wall samples from a wall
influence matrix factored once per (grid, h, nu) (capacitance matrix;
Buzbee, Dorr, George & Golub 1971). The Leray projection is the same
solve at h = 1, nu = 0, with the potential as its pressure. null(G), the
four corners (which no interior central difference touches) and the
parity sub-lattice constants, is removed once from each pressure. A
solve keeps no state.
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
    _partials,
    _spectral_kit,
    _velocity_spectra,
    divergence,
)


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
    transform of v that also gives ``max_divergence``; None on the box.
    ``outer_iterations`` is always 0, since neither backend's solve has
    a loop; it stays while ``perfbench/child.py`` reads it."""

    outer_iterations: int
    max_divergence: float
    momentum_residual: float
    dirichlet: float | None = None


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
    return v, p, StokesInfo(0, float(np.max(np.abs(div))), mom_res,
                            _dirichlet_from_spectra(w.spec, *v_hats))


# ---------------------------------------------------------------------------
# dirichlet backend

def _box_axis(n: int, dx: float):
    """One axis of n cells: the orthonormal, symmetric DST-I matrix ``s``
    of its n - 1 inner nodes; the DCT-I basis ``c`` of its n + 1 nodes
    (columns, orthonormal under trapezoid weights, so ``c[1:-1].T`` is
    its forward transform of samples that vanish at both ends);
    ``g`` = sin(pi k / n) / dx, by which the central difference maps
    DCT-I mode k to DST-I mode k, and ``lam`` = (2 - 2 cos(pi k / n)) /
    dx^2, the symbol of -lap in both bases, for k = 0 .. n."""
    k = np.arange(n + 1)
    # j k reduced mod 2 n in integers: every argument < 2 pi
    arg = np.pi * (np.outer(k, k) % (2 * n)) / n
    s = np.sin(arg[1:-1, 1:-1]) * math.sqrt(2.0 / n)
    c = np.cos(arg) * math.sqrt(2.0 / n)
    c[:, [0, -1]] *= math.sqrt(0.5)
    g = np.sin(np.pi * k / n) / dx
    g[[0, -1]] = 0.0
    return s, c, g, (2.0 - 2.0 * np.cos(np.pi * k / n)) / dx ** 2


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


@lru_cache(maxsize=8)
def _box_solver(spec: GridSpec, h: float, nu: float):
    """The exact solve of v - h nu lap(v) + h G p = w, G^T W v = 0 with
    v = 0 on the walls, as a function of w's samples (its wall samples
    are ignored) that returns v's samples and p projected onto
    range(G^T).

    Free slip: u on x-inner nodes and every y node, v transposed, p on
    all nodes, u reflected evenly across the walls y = 0, L (v across x =
    0, L). In DST-I x DCT-I (u), DCT-I x DST-I (v) and DCT-I x DCT-I (p)
    each mode (k, l) is a 3 x 3 system, solved as on the torus with the
    real symbols g of the central difference; the four modes with
    g_k = g_l = 0 carry only pressure and get p = 0. The velocity keeps
    only the modes with 0 < k < n_x and 0 < l < n_y.

    No slip: free slip plus forces on the tangential wall samples (u on
    y = 0, L, v on x = 0, L), chosen so that those samples vanish. Only
    those samples' momentum rows differ between the two problems
    (capacitance matrix; Buzbee, Dorr, George & Golub 1971; influence
    matrix, Kleiser & Schumann 1980). The wall influence matrix Z takes
    the forces to the wall samples they make. Along a wall both are kept
    in the wall's DST-I modes, and across the two walls of an axis as
    their sum and difference, which see only the even and only the odd
    DCT-I modes. Z is then diagonal in its u-u and v-v parts, built from
    the mode symbols at O(n^2) cost, and splits into four independent
    blocks by the parities of the modes. Each block is symmetric
    positive semidefinite with one null vector, a combination of the
    four corner pressures that only wall rows see, and gets its
    pseudo-inverse from one ``eigh``.
    """
    nx, ny = spec.cells
    sx, cx, gx, lam_x = _box_axis(nx, spec.spacing)
    sy, cy, gy, lam_y = _box_axis(ny, spec.spacing)
    g2 = gx[:, None] ** 2 + gy[None, :] ** 2
    p_symbol = -1.0 / (h * np.where(g2 > 0.0, g2, np.inf))
    # the velocity's symbols on the modes it keeps: the 2 x 2 projection
    # onto (g_l, -g_k) over 1 + h nu (lam_k + lam_l)
    gxi, gyi = gx[1:-1, None], gy[None, 1:-1]
    scale = 1.0 / (g2[1:-1, 1:-1]
                   * (1.0 + h * nu * (lam_x[1:-1, None] + lam_y[None, 1:-1])))
    m_uu, m_uv, m_vv = gyi ** 2 * scale, -gxi * gyi * scale, gxi ** 2 * scale

    def velocity_modes(fu, fv):
        fu, fv = fu[:, 1:-1], fv[1:-1, :]
        return m_uu * fu + m_uv * fv, m_uv * fu + m_vv * fv

    # sum and difference of the two walls' DCT-I rows: row 0 is nonzero
    # on the even modes only, row 1 on the odd ones; a force on a wall
    # sample enters the transform with its trapezoid weight 1/2
    ex, ey = (np.stack([c[0] + c[-1], c[0] - c[-1]]) / math.sqrt(2.0)
              for c in (cx, cy))
    exi, eyi = ex[:, 1:-1], ey[:, 1:-1]
    d_u = 0.5 * m_uu @ (eyi ** 2).T     # [k, t]: u's walls y = 0, L
    d_v = 0.5 * (exi ** 2) @ m_vv       # [s, l]: v's walls x = 0, L
    blocks = []
    for s in (0, 1):
        for t in (0, 1):
            # the inner modes k, l that row s of exi, row t of eyi see
            k, l = slice(1 - s, None, 2), slice(1 - t, None, 2)
            c_uv = 0.5 * exi[s, k][:, None] * m_uv[k, l] * eyi[t, l]
            z = np.block([[np.diag(d_u[k, t]), c_uv],
                          [c_uv.T, np.diag(d_v[s, l])]])
            lam, q = np.linalg.eigh(z)
            lam[0] = np.inf  # the block's null vector
            blocks.append((s, t, k, l, (q / lam) @ q.T))

    def solve(w):
        fu = sx @ w[0, 1:-1, 1:-1] @ cy[1:-1]
        fv = cx[1:-1].T @ w[1, 1:-1, 1:-1] @ sy
        uh, vh = velocity_modes(fu, fv)
        # the tangential wall samples in Z's coordinates: [k, t] of u,
        # [s, l] of v
        wall_u, wall_v = uh @ eyi.T, exi @ vh
        force_u, force_v = np.zeros(wall_u.shape), np.zeros(wall_v.shape)
        for s, t, k, l, z_pinv in blocks:
            force = z_pinv @ np.concatenate([wall_u[k, t], wall_v[s, l]])
            n_k = len(force_u[k, t])
            force_u[k, t], force_v[s, l] = -force[:n_k], -force[n_k:]
        fu += force_u @ (0.5 * ey)
        fv += (0.5 * ex).T @ force_v
        uh, vh = velocity_modes(fu, fv)
        vel = np.zeros(w.shape)
        vel[0, 1:-1, 1:-1] = sx @ uh @ cy[1:-1, 1:-1].T
        vel[1, 1:-1, 1:-1] = cx[1:-1, 1:-1] @ vh @ sy
        div_modes = np.zeros(spec.node_shape)
        div_modes[1:-1, :] = gx[1:-1, None] * fu
        div_modes[:, 1:-1] += gy[None, 1:-1] * fv
        return vel, _project_range_gt(cx @ (div_modes * p_symbol) @ cy.T)

    return solve


def _leray_dirichlet(u: VelocityField) -> HelmholtzParts:
    sol, phi = _box_solver(u.spec, 1.0, 0.0)(u.data)
    return HelmholtzParts(VelocityField(u.spec, sol),
                          ScalarField(u.spec, phi).demeaned())


def _stokes_dirichlet(w: VelocityField, h: float, nu: float):
    spec = w.spec
    vel, p = _box_solver(spec, h, nu)(w.data)
    v = VelocityField(spec, vel)
    mom = (vel - h * nu * _fd_laplacian(spec, vel)
           + h * _partials(spec, p) - w.data)[:, 1:-1, 1:-1]
    mom_res = spec.spacing * float(np.sqrt(np.sum(mom ** 2)))
    max_div = float(np.max(np.abs(divergence(v).data)))
    return (v, ScalarField(spec, p).demeaned(),
            StokesInfo(0, max_div, mom_res))


# ---------------------------------------------------------------------------
# public entry points

def leray_project(u: VelocityField) -> HelmholtzParts:
    """Split u into a divergence-free part plus a gradient.

    The potential solves the discrete Poisson problem driven by the
    divergence of u: spectral division on the torus; on the box the
    Stokes solve at h = 1, nu = 0, exact, whose pressure is the
    potential, projected once onto range(G^T). The box ignores u's wall
    samples and returns a solenoidal part pinned to zero on the walls.
    """
    if u.spec.is_periodic:
        return _leray_periodic(u)
    return _leray_dirichlet(u)


def solve_implicit_stokes(w: VelocityField, h: float, nu: float = 1.0,
                          ) -> tuple[VelocityField, ScalarField, StokesInfo]:
    """Solve v - h nu lap(v) + h grad(p) = w with div(v) = 0.

    Exact on both backends, without iteration: mode by mode in Fourier
    space on the torus; on the box a free-slip spectral solve plus wall
    forces from the cached wall influence matrix, the pressure projected
    once onto range(G^T). ``info.max_divergence`` is max |div v| of the
    returned v, at roundoff.
    """
    if h <= 0.0:
        raise ValueError("time step h must be positive")
    if w.spec.is_periodic:
        return _stokes_periodic(w, h, nu)
    return _stokes_dirichlet(w, h, nu)
