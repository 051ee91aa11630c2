"""The implicit Stokes step and the Helmholtz-Leray decomposition.

One solve serves both, v - h nu lap(v) + h grad(p) = w with div v = 0:
on either backend the Leray projection is that solve at h = 1, nu = 0
(Chorin's projection), with the pressure as the potential.

Periodic backend: direct mode-by-mode solves in Fourier space (the
projection and the Laplacian commute on the torus); the spectral kit's
-K^2, +inf where K^2 = 0, inverts the Laplacian. A spectrum is divided
by a real symbol (-K^2, h (-K^2), 1 + h nu K^2) as the product with the
symbol's real reciprocal: numpy's complex division by a divisor with a
zero imaginary part computes that same product, so the spectra keep
their bits and no complex division runs. The reciprocals and
1 + h nu K^2 are cached per (grid, h, nu); the algebra runs in place.

Dirichlet backend: the velocity unknowns live on interior nodes (walls
pinned to zero) and the pressure on all nodes. The divergence constraint
is the weighted adjoint G^T W v = 0 of the interior central gradient G,
which coincides with the public divergence operator at every node for
wall-pinned fields. The Stokes solve is exact and has no loop: a
free-slip problem, diagonal mode by mode in tensor DST-I / DCT-I bases
kept as small dense matrices (matrix decomposition; Lynch, Rice &
Thomas 1964), plus forces on the tangential wall samples from a wall
influence matrix factored once per (grid, h, nu) (capacitance matrix;
Buzbee, Dorr, George & Golub 1971). null(G), the four corners (which no
interior central difference touches) and the parity sub-lattice
constants, is removed once from each pressure. A solve keeps no state.

A solve reports only what it solved: v, p and its momentum residual.
The step measures the v it keeps (``fields.divergence_and_dirichlet``).
p is deferred: the solve keeps what forms it (the torus pressure's
half-spectrum, the box pressure's range(G^T) samples) and forms the
zero-mean field on the first read, so a step whose p nothing reads
never forms it. ``leray_project`` reads its potential at once.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import (
    GridSpec,
    ScalarField,
    VelocityField,
    _fd_laplacian,
    _parseval_norm_sq,
    _partials,
    _spectral_kit,
)


@dataclass(frozen=True)
class HelmholtzParts:
    solenoidal: VelocityField
    potential: ScalarField


@dataclass(frozen=True)
class StokesInfo:
    """``momentum_residual`` is the residual of the solved system, the
    L2 norm of v - h nu lap(v) + h grad(p) - w for the returned v and p:
    interior rows weighted dx^2 on the box, Parseval on the torus (a
    Leray projection forms it too and discards it).
    ``outer_iterations`` is always 0, since neither backend's solve has
    a loop; it stays while ``perfbench/child.py`` reads it."""

    outer_iterations: int
    momentum_residual: float


class _Deferred:
    """A zero-argument callable that forms its value on the first call
    and returns that same value after; what formed it is dropped then."""

    def __init__(self, form: Callable[[], ScalarField]):
        self._form, self._value = form, None

    def __call__(self) -> ScalarField:
        if self._form is not None:
            self._value = self._form()
            self._form = None
        return self._value


# ---------------------------------------------------------------------------
# periodic backend

@lru_cache(maxsize=8)
def _torus_symbols(spec: GridSpec, h: float, nu: float):
    """Read-only real symbols of the torus Stokes solve at (h, nu):
    1 / (-K^2), 1 / (h (-K^2)) (both 0 where K^2 = 0: -K^2 is taken as
    +inf there, so dividing by it zeroes those four modes), sym = 1 + h
    nu K^2 and 1 / sym."""
    K2 = _spectral_kit(spec)[2]
    neg_k2 = np.where(K2 > 0.0, -K2, np.inf)
    sym = 1.0 + h * nu * K2
    kit = (1.0 / neg_k2, 1.0 / (h * neg_k2), sym, 1.0 / sym)
    for arr in kit:
        arr.flags.writeable = False
    return kit


def _stokes_spectral(w: VelocityField, h: float, nu: float):
    """v, the deferred p and the momentum residual of the torus Stokes
    solve. The algebra runs in place in two work spectra; p keeps only
    its half-spectrum until it is read."""
    spec = w.spec
    ikx, iky = _spectral_kit(spec)[:2]
    inv_neg_k2, inv_h_neg_k2, sym, inv_sym = _torus_symbols(spec, h, nu)
    shape = spec.node_shape
    wu_hat = np.fft.rfft2(w.data[0])
    wv_hat = np.fft.rfft2(w.data[1])
    # a = div_hat = ikx wu_hat + iky wv_hat, then phi_hat = div_hat / -K^2
    a = ikx * wu_hat
    b = iky * wv_hat
    a += b
    p_hat = a * inv_h_neg_k2
    a *= inv_neg_k2
    # b = vu_hat = (wu_hat - ikx phi_hat) / sym, a = vv_hat likewise
    np.multiply(ikx, a, out=b)
    np.subtract(wu_hat, b, out=b)
    b *= inv_sym
    np.multiply(iky, a, out=a)
    np.subtract(wv_hat, a, out=a)
    a *= inv_sym
    vel = np.empty((2,) + shape)
    vel[0] = np.fft.irfft2(b, s=shape)
    vel[1] = np.fft.irfft2(a, s=shape)
    # the momentum residual v_hat sym + h ik p_hat - w_hat, in place
    h_ik_p = np.empty_like(p_hat)
    for v_hat, ik, w_hat in ((b, ikx, wu_hat), (a, iky, wv_hat)):
        v_hat *= sym
        np.multiply(h, ik, out=h_ik_p)
        h_ik_p *= p_hat
        v_hat += h_ik_p
        v_hat -= w_hat
    mom_res = math.sqrt(_parseval_norm_sq(spec, b, a))
    return VelocityField(spec, vel), _Deferred(lambda: ScalarField(
        spec, np.fft.irfft2(p_hat, s=shape)).demeaned()), mom_res


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


# ---------------------------------------------------------------------------
# public entry points

def leray_project(u: VelocityField) -> HelmholtzParts:
    """Split u into a divergence-free part plus a gradient.

    The Stokes solve at h = 1, nu = 0 (Chorin's projection), whose
    pressure is the potential: it solves the discrete Poisson problem
    driven by the divergence of u. The box ignores u's wall samples and
    returns a solenoidal part pinned to zero on the walls.
    """
    v, p, _ = solve_implicit_stokes(u, 1.0, 0.0)
    return HelmholtzParts(v, p())


def solve_implicit_stokes(w: VelocityField, h: float, nu: float = 1.0,
                          ) -> tuple[VelocityField, Callable[[], ScalarField],
                                     StokesInfo]:
    """Solve v - h nu lap(v) + h grad(p) = w with div(v) = 0.

    Exact on both backends, without iteration: mode by mode in Fourier
    space on the torus; on the box a free-slip spectral solve plus wall
    forces from the cached wall influence matrix, the pressure projected
    once onto range(G^T).

    Returns v, p deferred and the :class:`StokesInfo`. The deferred p is
    a zero-argument callable that forms the zero-mean pressure on its
    first call and returns that same field after: from the kept
    half-spectrum on the torus (one inverse transform), from the kept
    range(G^T) samples on the box. A caller that never reads p never
    forms it.
    """
    if h <= 0.0:
        raise ValueError("time step h must be positive")
    spec = w.spec
    if spec.is_periodic:
        v, pressure, mom_res = _stokes_spectral(w, h, nu)
        return v, pressure, StokesInfo(0, mom_res)
    vel, p = _box_solver(spec, h, nu)(w.data)
    v = VelocityField(spec, vel)
    mom = (vel - h * nu * _fd_laplacian(spec, vel)
           + h * _partials(spec, p) - w.data)[:, 1:-1, 1:-1]
    return v, _Deferred(lambda: ScalarField(spec, p).demeaned()), StokesInfo(
        0, spec.spacing * float(np.sqrt(np.sum(mom ** 2))))
