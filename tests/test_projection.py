import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dnsflow import (
    BoundaryCondition,
    DnsConfig,
    GridSpec,
    ScalarField,
    SolvePath,
    VelocityField,
    divergence,
    dns_step,
    grad_norm_sq,
    gradient,
    inner_product_l2,
    leray_project,
    norm_l2,
    random_solenoidal_field,
    run,
    solve_implicit_stokes,
    stream_bump_field,
    taylor_green_field,
)
from dnsflow import projection, scheme
from dnsflow.fields import (
    NonFiniteFieldError,
    _fd_laplacian,
    _parseval_norm_sq,
    _spectral_kit,
    divergence_and_dirichlet,
    pin_walls,
    quadrature_weights,
)
from dnsflow.projection import _project_range_gt
from dnsflow.scheme import _cg

from conftest import plain_parseval, random_pinned_velocity, random_velocity


# ---------------------------------------------------------------------------
# Leray projection, periodic

def test_projection_is_identity_on_divergence_free(periodic64):
    v, _ = taylor_green_field(0.0, periodic64)
    parts = leray_project(v)
    assert norm_l2(parts.solenoidal - v) < 1e-12
    assert np.max(np.abs(parts.potential.data)) < 1e-12


def test_projection_absorbs_pure_gradient(periodic64):
    f = ScalarField.from_function(periodic64,
                                  lambda x, y: np.sin(x) * np.sin(y))
    parts = leray_project(gradient(f))
    assert norm_l2(parts.solenoidal) < 1e-10
    assert np.max(np.abs(parts.potential.data - f.data)) < 1e-10


def test_projection_idempotent(periodic32):
    for seed in range(4):
        u = random_velocity(periodic32, seed)
        once = leray_project(u).solenoidal
        twice = leray_project(once).solenoidal
        assert norm_l2(twice - once) < 1e-12 * max(norm_l2(u), 1.0)


def test_projected_field_is_divergence_free(periodic32):
    u = random_velocity(periodic32, 17)
    sol = leray_project(u).solenoidal
    assert np.max(np.abs(divergence(sol).data)) < 1e-12


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(-2.0, 2.0), seed=st.integers(0, 30))
def test_projection_linear(alpha, seed):
    spec = GridSpec(16)
    a = random_velocity(spec, seed)
    b = random_velocity(spec, seed + 31)
    lhs = leray_project(a * alpha + b).solenoidal
    rhs = leray_project(a).solenoidal * alpha + leray_project(b).solenoidal
    scale = max(norm_l2(a), norm_l2(b), 1.0)
    assert norm_l2(lhs - rhs) < 1e-12 * 10 * scale


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 60))
def test_projection_never_expands(seed):
    spec = GridSpec(16)
    u = random_velocity(spec, seed)
    assert norm_l2(leray_project(u).solenoidal) <= norm_l2(u) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Leray projection, dirichlet

def test_dirichlet_projection_invariants(dirichlet32):
    u = stream_bump_field(dirichlet32)
    parts = leray_project(u)
    sol, pot = parts.solenoidal, parts.potential
    assert sol.is_boundary_compliant()
    assert np.max(np.abs(divergence(sol).data)) < 1e-10
    # orthogonality against the potential gradient
    assert abs(inner_product_l2(sol, gradient(pot))) < 1e-12
    # reconstruction on interior nodes (wall rows carry the one-sided
    # closure of the gradient, the collocated layout leaves them free)
    recon = sol.data + gradient(pot).data
    assert np.max(np.abs(recon[:, 1:-1, 1:-1] - u.data[:, 1:-1, 1:-1])) < 1e-10
    assert abs(pot.mean()) < 1e-12


def test_dirichlet_projection_absorbs_gradient(dirichlet32):
    f = ScalarField.from_function(dirichlet32,
                                  lambda x, y: np.sin(x) * np.sin(y))
    g = gradient(f)
    parts = leray_project(g)
    interior = parts.solenoidal.data[:, 1:-1, 1:-1]
    assert np.max(np.abs(interior)) < 1e-9


def test_dirichlet_projection_overflow_raises(dirichlet32):
    # samples near the float limit overflow the solve's transforms, and
    # the field refuses them
    u = random_pinned_velocity(dirichlet32, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteFieldError):
            leray_project(u * (1e308 / np.max(np.abs(u.data))))


# ---------------------------------------------------------------------------
# implicit Stokes solve, periodic

def test_stokes_zero_input(periodic32):
    v, pressure, info = solve_implicit_stokes(
        VelocityField.zeros(periodic32), 0.1)
    p = pressure()
    assert np.all(v.data == 0.0)
    assert np.all(p.data == 0.0)
    assert info.outer_iterations == 0


def test_stokes_eigenfunction(periodic64):
    # the Taylor-Green mode is an eigenfunction of (I - h lap) with
    # eigenvalue 1 + 2h
    h = 0.01
    tg, _ = taylor_green_field(0.0, periodic64)
    w = tg * (1.0 + 2.0 * h)
    v, pressure, info = solve_implicit_stokes(w, h)
    p = pressure()
    assert norm_l2(v - tg) < 1e-10
    assert np.max(np.abs(p.data)) < 1e-10


def test_stokes_pure_gradient_goes_to_pressure(periodic64):
    h = 0.05
    f = ScalarField.from_function(periodic64,
                                  lambda x, y: np.sin(x) * np.sin(y))
    w = gradient(f)
    v, pressure, _ = solve_implicit_stokes(w, h)
    p = pressure()
    assert norm_l2(v) < 1e-10
    assert norm_l2(gradient(p) * h - w) < 1e-10


def test_stokes_momentum_residual_periodic(periodic32):
    from dnsflow import laplacian
    h = 0.02
    w = random_velocity(periodic32, 9)
    v, pressure, info = solve_implicit_stokes(w, h)
    p = pressure()
    resid = v - laplacian(v) * h + gradient(p) * h - w
    assert norm_l2(resid) < 1e-11 * max(norm_l2(w), 1.0)
    # the solve's own Parseval residual is the same quantity
    assert (abs(info.momentum_residual - norm_l2(resid))
            <= 1e-12 * max(norm_l2(w), 1.0))
    assert np.max(np.abs(divergence(v).data)) < 1e-11


# the torus solves before they read i k and -K^2 (+inf where K^2 = 0)
# from the spectral kit, verbatim

@lru_cache(maxsize=32)
def _old_spectral_kit(spec: GridSpec):
    nx, ny = spec.cells
    dx = spec.spacing
    kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=dx)
    kx[nx // 2] = 0.0
    ky = 2.0 * np.pi * np.fft.rfftfreq(ny, d=dx)
    ky[-1] = 0.0
    KX = np.broadcast_to(kx[:, None], (nx, ny // 2 + 1)).copy()
    KY = np.broadcast_to(ky[None, :], (nx, ny // 2 + 1)).copy()
    K2 = KX**2 + KY**2
    KX.flags.writeable = False
    KY.flags.writeable = False
    K2.flags.writeable = False
    return KX, KY, K2


def _old_leray_periodic(u):
    spec = u.spec
    KX, KY, K2 = _old_spectral_kit(spec)
    shape = spec.node_shape
    du = 1j * KX * np.fft.rfft2(u.data[0]) + 1j * KY * np.fft.rfft2(u.data[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = np.where(K2 > 0.0, du / (-K2), 0.0)
    gx = np.fft.irfft2(1j * KX * phi_hat, s=shape)
    gy = np.fft.irfft2(1j * KY * phi_hat, s=shape)
    sol = VelocityField(spec, np.stack([u.data[0] - gx, u.data[1] - gy]))
    pot = ScalarField(spec, np.fft.irfft2(phi_hat, s=shape)).demeaned()
    return projection.HelmholtzParts(sol, pot)


def _old_stokes_periodic(w, h, nu):
    spec = w.spec
    KX, KY, K2 = _old_spectral_kit(spec)
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
    op = 1.0 + h * nu * (KX ** 2 + KY ** 2)
    mom_hat = np.stack([vu_hat * op + 1j * h * KX * p_hat - wu_hat,
                        vv_hat * op + 1j * h * KY * p_hat - wv_hat])
    return v, p, math.sqrt(_parseval_norm_sq(spec, mom_hat))


def _torus_datum(spec, kind):
    if kind == "taylor_green":
        return taylor_green_field(0.0, spec)[0]
    if kind == "random":
        # white noise fills every mode, the four with K^2 = 0 included
        return VelocityField(spec, np.random.default_rng(3).normal(
            size=(2,) + spec.node_shape))
    return VelocityField.zeros(spec)


@pytest.mark.parametrize("kind", ["taylor_green", "random", "zero"])
@pytest.mark.parametrize("n", [16, 64, 128])
def test_torus_solves_match_old_kit_bitwise(n, kind):
    spec = GridSpec(n)
    w = _torus_datum(spec, kind)
    new, old = leray_project(w), _old_leray_periodic(w)
    # the old projection subtracted the gradient in physical space, the
    # Stokes solve at (1, 0) in Fourier space: the solenoidal parts
    # differ at roundoff (measured <= 7.8e-16 max |u| at 16^2 to 256^2),
    # the potentials not at all
    gap = np.max(np.abs(new.solenoidal.data - old.solenoidal.data))
    assert gap <= 1e-15 * np.max(np.abs(w.data))
    assert new.potential.data.tobytes() == old.potential.data.tobytes()
    for h in (0.0125, 0.1):
        for nu in (1.0, 0.25):
            v, pressure, info = solve_implicit_stokes(w, h, nu)
            p = pressure()
            v0, p0, mom_res0 = _old_stokes_periodic(w, h, nu)
            assert v.data.tobytes() == v0.data.tobytes()
            assert p.data.tobytes() == p0.data.tobytes()
            assert info.momentum_residual == mom_res0
            # the step's one transform of v gives the old diagnostics
            assert divergence_and_dirichlet(v) == (
                float(np.max(np.abs(divergence(v0).data))), grad_norm_sq(v0))


# the solves as they stood when they formed p at once, kept verbatim
# but for the box, which now shares the solve and keeps only the
# forming of its zero-mean p: the deferred pressure must read the same
# bits

def _eager_stokes_spectral(w, h, nu):
    spec = w.spec
    ikx, iky, K2 = _spectral_kit(spec)[:3]
    neg_k2 = np.where(K2 > 0.0, -K2, np.inf)
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
    mom_res = math.sqrt(plain_parseval(
        spec, vu_hat * sym + h * ikx * p_hat - wu_hat,
        vv_hat * sym + h * iky * p_hat - wv_hat))
    return VelocityField(spec, vel), p, mom_res


def _eager_box_pressure(w, h, nu):
    _, p = projection._box_solver(w.spec, h, nu)(w.data)
    return ScalarField(w.spec, p).demeaned()


DEFERRED_GRIDS = [GridSpec(16), GridSpec(64), GridSpec(256),
                  GridSpec(16, bc=BoundaryCondition.DIRICHLET_ZERO),
                  GridSpec(64, bc=BoundaryCondition.DIRICHLET_ZERO)]


@pytest.mark.parametrize("spec", DEFERRED_GRIDS,
                         ids=["torus16", "torus64", "torus256", "box16",
                              "box64"])
def test_deferred_pressure_matches_eager_bitwise(spec):
    # white noise (pinned on the box) fills every mode, so p carries
    # weight; (1, 0) is the Leray projection
    w = random_pinned_velocity(spec, 13)
    for h, nu in ((0.0125, 1.0), (0.1, 0.25), (1.0, 0.0)):
        v, pressure, info = solve_implicit_stokes(w, h, nu)
        if spec.is_periodic:
            v0, p0, mom_res0 = _eager_stokes_spectral(w, h, nu)
            assert v.data.tobytes() == v0.data.tobytes()
            assert info.momentum_residual == mom_res0
        else:
            p0 = _eager_box_pressure(w, h, nu)
        p = pressure()
        assert p.data.tobytes() == p0.data.tobytes()
        # formed once: a second read returns the same field
        assert pressure() is p


@pytest.mark.parametrize("n", [32, 64])
def test_oracle_step_bounded_against_old_torus_leray(n, monkeypatch):
    # the direct-minimize step projects every CG direction; with the old
    # physical-space projection patched in it moves at roundoff
    # (measured: v <= 4.8e-16, p <= 2.8e-14 relative)
    spec = GridSpec(n)
    a = random_solenoidal_field(spec, seed=5)
    cfg = DnsConfig(h=0.0125, T=0.0125, grid=spec,
                    path=SolvePath.DIRECT_MINIMIZE)
    new = dns_step(a, cfg)
    monkeypatch.setattr(scheme, "leray_project", _old_leray_periodic)
    old = dns_step(a, cfg)
    assert _rel(new.v.data, old.v.data) <= 5e-15
    assert _rel(new.p.data, old.p.data) <= 5e-13


LERAY_GRIDS = [GridSpec(16), GridSpec(64),
               GridSpec(16, extent=1.0, bc=BoundaryCondition.DIRICHLET_ZERO),
               GridSpec((9, 13), extent=(9.0, 13.0),
                        bc=BoundaryCondition.DIRICHLET_ZERO),
               GridSpec((8, 11), extent=(8.0, 11.0),
                        bc=BoundaryCondition.DIRICHLET_ZERO)]


@pytest.mark.parametrize("spec", LERAY_GRIDS,
                         ids=["torus16", "torus64", "box16", "box9x13",
                              "box8x11"])
def test_leray_is_the_stokes_solve_at_unit_step_and_zero_viscosity(spec):
    u = random_pinned_velocity(spec, 11)
    parts = leray_project(u)
    v, pressure, _ = solve_implicit_stokes(u, 1.0, 0.0)
    p = pressure()
    assert parts.solenoidal.data.tobytes() == v.data.tobytes()
    assert parts.potential.data.tobytes() == p.data.tobytes()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 40), h=st.floats(1e-3, 0.5))
def test_stokes_dissipates_dirichlet_energy(seed, h):
    spec = GridSpec(16)
    w = random_velocity(spec, seed)
    pw = leray_project(w).solenoidal
    v, _, _ = solve_implicit_stokes(w, h)
    assert grad_norm_sq(v) <= grad_norm_sq(pw) * (1.0 + 1e-12)


def test_stokes_rejects_nonpositive_step(periodic32):
    with pytest.raises(ValueError):
        solve_implicit_stokes(VelocityField.zeros(periodic32), 0.0)


# ---------------------------------------------------------------------------
# implicit Stokes solve, dirichlet

def test_stokes_dirichlet_solves_system(dirichlet32):
    h = 0.0125
    a = stream_bump_field(dirichlet32)
    w = leray_project(a).solenoidal
    v, pressure, info = solve_implicit_stokes(w, h)
    p = pressure()
    assert info.outer_iterations == 0
    assert np.max(np.abs(divergence(v).data)) < 1e-8
    assert v.is_boundary_compliant()
    assert abs(p.mean()) < 1e-12
    # momentum residual on the interior rows
    assert info.momentum_residual < 1e-8 * max(norm_l2(w), 1.0)


def test_stokes_takes_no_tolerance_or_warm_start(dirichlet32):
    # the box solve is exact: it has no divergence tolerance to meet and
    # no starting pressure to iterate from
    w = stream_bump_field(dirichlet32)
    with pytest.raises(TypeError):
        solve_implicit_stokes(w, 0.1, div_tol=1e-9)
    with pytest.raises(TypeError):
        solve_implicit_stokes(w, 0.1, p0=ScalarField.zeros(dirichlet32))
    with pytest.raises(TypeError):
        solve_implicit_stokes(w, 0.1, 1.0, 1e-9)


# ---------------------------------------------------------------------------
# references for the box solves, built here from the box operators: the
# interior central gradient G, its weighted adjoint G^T W (the divergence
# rows) and the interior Helmholtz operator A = I - h nu lap

def _grad_interior(p, dx):
    """G p, shape (2, *p.shape), zero on the walls."""
    g = np.zeros((2,) + p.shape)
    g[0, 1:-1, 1:-1] = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * dx)
    g[1, 1:-1, 1:-1] = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * dx)
    return g


def _grad_t_weighted(g, dx):
    """G^T W over the interior momentum rows (uniform weight dx^2)."""
    out = np.zeros(g.shape[1:])
    c = dx / 2.0  # dx^2 / (2 dx)
    out[2:, 1:-1] += c * g[0, 1:-1, 1:-1]
    out[:-2, 1:-1] -= c * g[0, 1:-1, 1:-1]
    out[1:-1, 2:] += c * g[1, 1:-1, 1:-1]
    out[1:-1, :-2] -= c * g[1, 1:-1, 1:-1]
    return out


@pytest.mark.parametrize("n", [2, 5, 8, 33])
def test_box_axis_bases(n):
    # s: orthonormal and symmetric; c: orthonormal under trapezoid
    # weights; the central difference takes c's mode k to -g_k times s's
    # mode k (and c's modes 0 and n to zero); -lap with zero ends has s's
    # modes, and with even reflection across the ends c's modes, as
    # eigenvectors with eigenvalues lam
    dx = 0.3
    s, c, g, lam = projection._box_axis(n, dx)
    assert s.shape == (n - 1, n - 1) and c.shape == (n + 1, n + 1)
    assert g.shape == lam.shape == (n + 1,)
    assert np.array_equal(s, s.T)
    assert np.allclose(s @ s, np.eye(n - 1), rtol=0.0, atol=1e-14)
    trap = np.ones(n + 1)
    trap[[0, -1]] = 0.5
    assert np.allclose(c.T @ (trap[:, None] * c), np.eye(n + 1),
                       rtol=0.0, atol=1e-14)
    diff = (c[2:] - c[:-2]) / (2.0 * dx)
    assert np.allclose(diff[:, 1:-1], -s * g[1:-1], rtol=0.0, atol=1e-13)
    assert np.all(np.abs(diff[:, [0, -1]]) <= 1e-13)
    assert g[0] == g[-1] == 0.0
    s_ext = np.zeros((n + 1, n - 1))
    s_ext[1:-1] = s
    lap_s = (s_ext[2:] - 2.0 * s_ext[1:-1] + s_ext[:-2]) / dx ** 2
    assert np.allclose(-lap_s, s * lam[1:-1], rtol=0.0, atol=1e-12)
    c_ext = np.concatenate([c[1:2], c, c[-2:-1]])
    lap_c = (c_ext[2:] - 2.0 * c_ext[1:-1] + c_ext[:-2]) / dx ** 2
    assert np.allclose(-lap_c, c * lam, rtol=0.0, atol=1e-12)


def _dst_ainv(spec, h, nu):
    """A^{-1} on the interior nodes, exact in the tensor DST-I basis; it
    ignores f's wall values and pins the result's walls to zero."""
    (s0, *_, lam0), (s1, *_, lam1) = (projection._box_axis(n, spec.spacing)
                                      for n in spec.cells)
    inv_symbol = 1.0 / (1.0 + h * nu * (lam0[1:-1, None] + lam1[None, 1:-1]))

    def ainv(f):
        out = np.zeros(f.shape)
        out[..., 1:-1, 1:-1] = s0 @ ((s0 @ f[..., 1:-1, 1:-1] @ s1)
                                     * inv_symbol) @ s1
        return out

    return ainv


def _cg_ainv(spec, h, nu, f):
    """Reference (I - h nu L)^{-1}: CG on the interior 5-point operator,
    one component at a time, walls of the result pinned to zero."""
    def helmholtz(x):
        return x - h * nu * _fd_laplacian(spec, x)

    out = np.zeros(f.shape)
    for idx in np.ndindex(f.shape[:-2]):
        sol, _, ok = _cg(helmholtz, f[idx], np.zeros(f.shape[-2:]),
                         50 * max(spec.cells), 1e-14)
        assert ok
        out[idx][1:-1, 1:-1] = sol[1:-1, 1:-1]
    return out


BOX_GRIDS = [
    GridSpec(32, bc=BoundaryCondition.DIRICHLET_ZERO),
    # non-square cell counts: the two axes' eigenvalues must not swap
    GridSpec((16, 32), extent=(np.pi, 2.0 * np.pi),
             bc=BoundaryCondition.DIRICHLET_ZERO),
]


@pytest.mark.parametrize("spec", BOX_GRIDS, ids=["32x32", "16x32"])
def test_helmholtz_inverse_matches_cg_reference(spec):
    # the A^{-1} of the Uzawa reference below
    h, nu = 0.0125, 0.7
    ainv = _dst_ainv(spec, h, nu)
    rng = np.random.default_rng(11)
    f = np.zeros((2,) + spec.node_shape)
    f[:, 1:-1, 1:-1] = rng.normal(size=f[:, 1:-1, 1:-1].shape)
    ref = _cg_ainv(spec, h, nu, f)
    batched = ainv(f)
    assert np.all(batched[:, [0, -1], :] == 0.0)
    assert np.all(batched[:, :, [0, -1]] == 0.0)
    assert np.linalg.norm(batched - ref) < 1e-12 * np.linalg.norm(ref)
    for c in range(2):
        single = ainv(f[c])
        assert single.shape == spec.node_shape
        assert (np.linalg.norm(single - ref[c])
                < 1e-12 * np.linalg.norm(ref[c]))


@pytest.mark.parametrize("spec", BOX_GRIDS, ids=["32x32", "16x32"])
def test_stokes_dirichlet_solves_system_any_aspect(spec):
    w = leray_project(random_solenoidal_field(spec, seed=4)).solenoidal
    v, _, info = solve_implicit_stokes(w, 0.0125)
    assert np.max(np.abs(divergence(v).data)) < 1e-8
    assert info.momentum_residual < 1e-10 * max(norm_l2(w), 1.0)


def _uzawa_reference(w, h, nu, div_tol=1e-13):
    """Plain Uzawa: CG on the pressure Schur complement h G^T W A^{-1} G
    from p = 0 until the velocity's max |div| is within ``div_tol``;
    returns v = A^{-1}(w - h G p) and p, projected onto range(G^T) and
    demeaned."""
    spec = w.spec
    dx = spec.spacing
    ainv = _dst_ainv(spec, h, nu)
    weights = quadrature_weights(spec)

    def schur(p):
        return h * _grad_t_weighted(ainv(_grad_interior(p, dx)), dx)

    # the residual r = G^T W v is -(div v) times the node weights
    p = np.zeros(spec.node_shape)
    r = _grad_t_weighted(ainv(w.data), dx)
    d = r.copy()
    rr = np.sum(r * r)
    for _ in range(50 * max(spec.cells)):
        if np.max(np.abs(r / weights)) <= div_tol:
            break
        sd = schur(d)
        alpha = rr / np.sum(d * sd)
        p += alpha * d
        r -= alpha * sd
        rr, rr_old = np.sum(r * r), rr
        d = r + (rr / rr_old) * d
    assert np.max(np.abs(r / weights)) <= div_tol
    p = _project_range_gt(p)
    v = ainv(w.data - h * _grad_interior(p, dx))
    return v, ScalarField(spec, p).demeaned().data


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("extent", [1.0, 2.0 * np.pi], ids=["unit", "2pi"])
@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_box_stokes_matches_uzawa_reference(n, extent):
    # measured over these grids, boxes and steps: v <= 7.5e-14 and
    # p <= 6.5e-12 relative (the reference stops at its tolerance, the
    # exact solve at roundoff), max |div v| <= 1.1e-13
    spec = GridSpec(n, extent=extent, bc=BoundaryCondition.DIRICHLET_ZERO)
    w = leray_project(random_solenoidal_field(spec, seed=41)).solenoidal
    for h in (1e-3, 1.0 / 80.0, 0.2):
        v, pressure, _ = solve_implicit_stokes(w, h)
        p = pressure()
        v_ref, p_ref = _uzawa_reference(w, h, 1.0)
        assert _rel(v.data, v_ref) <= 1e-12
        assert _rel(p.data, p_ref) <= 1e-10
        assert np.max(np.abs(divergence(v).data)) <= 1e-12
        assert v.is_boundary_compliant()


def test_box_run_matches_cg_reference(monkeypatch):
    # every box solve of a run, its Leray projections included (h = 1,
    # nu = 0), swapped for the Uzawa reference
    spec = BOX_GRIDS[0]
    a = random_solenoidal_field(spec, seed=3)
    cfg = DnsConfig(h=0.0125, T=0.05, grid=spec)
    fast = run(a, cfg)

    def reference_solver(spec, h, nu):
        def solve(w):
            return _uzawa_reference(VelocityField(spec, w), h, nu)
        return solve

    monkeypatch.setattr(projection, "_box_solver", reference_solver)
    ref = run(a, cfg)
    assert len(fast.records) == len(ref.records) == 4
    v_fast, v_ref = fast.final, ref.final
    assert norm_l2(v_fast - v_ref) < 1e-10 * norm_l2(v_ref)


def _dense(op, shape):
    eye = np.eye(int(np.prod(shape)))
    return np.stack([op(e.reshape(shape)).ravel() for e in eye], axis=1)


def _dense_kkt_reference(w, h, nu):
    """The box Stokes system as one dense symmetric matrix, solved by LU:
    the momentum rows A v + G q = w on the interior nodes, q = h p, and
    the divergence rows G^T v = 0 at every node (W is dx^2 on every
    interior row), bordered by the eight null vectors of G so that it is
    nonsingular. p is then projected and demeaned."""
    spec = w.spec
    dx = spec.spacing
    inner = (2, spec.node_shape[0] - 2, spec.node_shape[1] - 2)

    def pad(vi):
        full = np.zeros((2,) + spec.node_shape)
        full[:, 1:-1, 1:-1] = vi
        return full

    a = _dense(lambda vi: (vi - h * nu * _fd_laplacian(spec, pad(vi))
                           [:, 1:-1, 1:-1]), inner)
    g = _dense(lambda p: _grad_interior(p, dx)[:, 1:-1, 1:-1],
               spec.node_shape)
    null = _null_basis(spec)
    m, n_p, k = a.shape[0], g.shape[1], null.shape[0]
    kkt = np.block([[a, g, np.zeros((m, k))],
                    [g.T, np.zeros((n_p, n_p)), null.T],
                    [np.zeros((k, m)), null, np.zeros((k, k))]])
    rhs = np.concatenate([w.data[:, 1:-1, 1:-1].ravel(), np.zeros(n_p + k)])
    x = np.linalg.solve(kkt, rhs)
    p = _project_range_gt(x[m:m + n_p].reshape(spec.node_shape) / h)
    return pad(x[:m].reshape(inner)), ScalarField(spec, p).demeaned().data


# odd and mixed-parity cell counts too: each of Z's four parity blocks
# must keep exactly one null vector, its smallest eigenvalue
KKT_GRIDS = [GridSpec(8, extent=1.0, bc=BoundaryCondition.DIRICHLET_ZERO),
             GridSpec(16, bc=BoundaryCondition.DIRICHLET_ZERO),
             GridSpec((12, 20), extent=(0.6, 1.0),
                      bc=BoundaryCondition.DIRICHLET_ZERO),
             GridSpec((9, 13), extent=(9.0, 13.0),
                      bc=BoundaryCondition.DIRICHLET_ZERO),
             GridSpec((8, 11), extent=(8.0, 11.0),
                      bc=BoundaryCondition.DIRICHLET_ZERO)]


@pytest.mark.parametrize("spec", KKT_GRIDS,
                         ids=["8", "16", "12x20", "9x13", "8x11"])
def test_box_stokes_matches_dense_kkt(spec):
    # a right-hand side that is not divergence-free, so p carries weight;
    # measured: v <= 8.2e-15 and p <= 1.0e-14 relative
    w = random_pinned_velocity(spec, 5)
    for h, nu in ((1e-3, 1.0), (1.0 / 80.0, 0.7), (0.2, 1.0)):
        v, pressure, info = solve_implicit_stokes(w, h, nu)
        p = pressure()
        v_ref, p_ref = _dense_kkt_reference(w, h, nu)
        assert _rel(v.data, v_ref) <= 1e-13
        assert _rel(p.data, p_ref) <= 1e-13
        assert info.momentum_residual <= 1e-13 * norm_l2(w)


def _neumann_cg_leray(u, rel_tol=1e-13):
    """Leray on the box by plain CG on the Neumann operator G^T W G:
    phi from G^T W G phi = G^T W u, the solenoidal part u - G phi with
    its walls pinned; phi projected onto range(G^T) and demeaned."""
    spec = u.spec
    dx = spec.spacing

    def apply_l(p):
        return _grad_t_weighted(_grad_interior(p, dx), dx)

    b = _grad_t_weighted(u.data, dx)
    phi, _, ok = _cg(apply_l, b, np.zeros(spec.node_shape),
                     50 * max(spec.cells), rel_tol)
    assert ok
    phi = _project_range_gt(phi)
    sol = pin_walls(spec, u.data - _grad_interior(phi, dx))
    return sol, ScalarField(spec, phi).demeaned().data


@pytest.mark.parametrize("spec", [
    GridSpec(16, extent=1.0, bc=BoundaryCondition.DIRICHLET_ZERO),
    GridSpec(64, bc=BoundaryCondition.DIRICHLET_ZERO),
    GridSpec(128, extent=1.0, bc=BoundaryCondition.DIRICHLET_ZERO),
    BOX_GRIDS[1]], ids=["16-unit", "64-2pi", "128-unit", "16x32"])
def test_box_leray_matches_neumann_cg_reference(spec):
    # measured: solenoidal part <= 1.2e-13 and potential <= 1.6e-13
    # relative, max |div| <= 1.4e-13
    u = random_pinned_velocity(spec, 7)
    parts = leray_project(u)
    sol_ref, phi_ref = _neumann_cg_leray(u)
    assert _rel(parts.solenoidal.data, sol_ref) <= 1e-12
    assert _rel(parts.potential.data, phi_ref) <= 1e-12
    assert parts.solenoidal.is_boundary_compliant()
    assert np.max(np.abs(divergence(parts.solenoidal).data)) <= 1e-12


_BLAS_RUN = """
import sys
import numpy as np
from dnsflow import (BoundaryCondition, DnsConfig, GridSpec,
                     random_solenoidal_field, run)
spec = GridSpec(128, bc=BoundaryCondition.DIRICHLET_ZERO)
res = run(random_solenoidal_field(spec, seed=41),
          DnsConfig(h=0.0125, T=0.05, grid=spec))
np.save(sys.argv[1], res.final.data)
print(len(res.records))
"""


def test_box_run_agrees_across_blas_thread_counts(tmp_path):
    # OpenBLAS dgemm rounds differently with 1 and 2 threads on the
    # 127- and 129-node transform matrices of a 128^2 box, so the run is
    # bitwise reproducible only at a fixed BLAS thread count; across
    # counts it must agree to roundoff (measured 4.0e-16 relative)
    root = Path(__file__).resolve().parents[1]
    finals = []
    for threads in ("1", "2"):
        out = tmp_path / f"v{threads}.npy"
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _BLAS_RUN, str(out)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "4"
        finals.append(np.load(out))
    assert (np.linalg.norm(finals[0] - finals[1])
            <= 1e-12 * np.linalg.norm(finals[0]))


# ---------------------------------------------------------------------------
# the projection onto range(G^T)

# node counts per axis 9 / 12 / 17 / 34 / (9, 12): sub-lattices of odd
# and even sizes, and a grid whose two axes must not swap
RANGE_GT_GRIDS = [GridSpec(c, extent=e, bc=BoundaryCondition.DIRICHLET_ZERO)
                  for c, e in ((8, 8.0), (11, 11.0), (16, 16.0), (33, 33.0),
                               ((8, 11), (8.0, 11.0)))]


def _null_basis(spec):
    """Orthonormal basis of null(G), one row per vector: the four parity
    sub-lattice constants off the corners, and the four corners."""
    corners = (np.array([0, 0, -1, -1]), np.array([0, -1, 0, -1]))
    null = []
    for a in (0, 1):
        for b in (0, 1):
            const = np.zeros(spec.node_shape)
            const[a::2, b::2] = 1.0
            const[corners] = 0.0
            null.append(const / np.linalg.norm(const))
    for i, j in zip(*corners):
        null.append(np.zeros(spec.node_shape))
        null[-1][i, j] = 1.0
    return np.reshape(null, (8, -1))


def _assert_symmetric(op, x, y):
    ox, oy = op(x), op(y)
    assert (abs(np.sum(x * oy) - np.sum(ox * y))
            <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(oy))


@pytest.mark.parametrize("spec", RANGE_GT_GRIDS,
                         ids=["8", "11", "16", "33", "8x11"])
def test_project_range_gt_properties(spec):
    # the closed-form projector: symmetric, idempotent, zero on the eight
    # null vectors of G, and x - N^T (N x) to roundoff (all measured
    # <= 1e-16 on these grids); N spans null(G) exactly
    shape = spec.node_shape
    null = _null_basis(spec)
    g = _dense(lambda p: _grad_interior(p, spec.spacing), shape)
    assert np.linalg.matrix_rank(g) == g.shape[1] - 8
    assert np.max(np.abs(g @ null.T)) == 0.0
    x, y = np.random.default_rng(5).normal(size=(2,) + shape)
    _assert_symmetric(_project_range_gt, x, y)
    px = _project_range_gt(x)
    assert (np.linalg.norm(_project_range_gt(px) - px)
            <= 1e-15 * np.linalg.norm(px))
    for vec in null:
        assert np.max(np.abs(_project_range_gt(vec.reshape(shape)))) <= 1e-15
    dense = x - (null.T @ (null @ x.ravel())).reshape(shape)
    assert np.linalg.norm(px - dense) <= 1e-15 * np.linalg.norm(dense)
