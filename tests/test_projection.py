import json
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
    ProjectionError,
    ScalarField,
    VelocityField,
    divergence,
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
from dnsflow import projection
from dnsflow.fields import _fd_laplacian, _parseval_norm_sq
from dnsflow.projection import _cg

from conftest import (
    failing_poisson_cg,
    random_pinned_velocity,
    random_velocity,
)


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


def test_dirichlet_projection_iteration_cap(dirichlet32, monkeypatch):
    u = random_pinned_velocity(dirichlet32, 3)
    monkeypatch.setattr(projection, "_cg", failing_poisson_cg)
    with pytest.raises(ProjectionError):
        leray_project(u)


# ---------------------------------------------------------------------------
# implicit Stokes solve, periodic

def test_stokes_zero_input(periodic32):
    v, p, info = solve_implicit_stokes(VelocityField.zeros(periodic32), 0.1)
    assert np.all(v.data == 0.0)
    assert np.all(p.data == 0.0)
    assert info.converged


def test_stokes_eigenfunction(periodic64):
    # the Taylor-Green mode is an eigenfunction of (I - h lap) with
    # eigenvalue 1 + 2h
    h = 0.01
    tg, _ = taylor_green_field(0.0, periodic64)
    w = tg * (1.0 + 2.0 * h)
    v, p, info = solve_implicit_stokes(w, h)
    assert norm_l2(v - tg) < 1e-10
    assert np.max(np.abs(p.data)) < 1e-10
    assert info.converged


def test_stokes_pure_gradient_goes_to_pressure(periodic64):
    h = 0.05
    f = ScalarField.from_function(periodic64,
                                  lambda x, y: np.sin(x) * np.sin(y))
    w = gradient(f)
    v, p, _ = solve_implicit_stokes(w, h)
    assert norm_l2(v) < 1e-10
    assert norm_l2(gradient(p) * h - w) < 1e-10


def test_stokes_momentum_residual_periodic(periodic32):
    from dnsflow import laplacian
    h = 0.02
    w = random_velocity(periodic32, 9)
    v, p, info = solve_implicit_stokes(w, h)
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
    mom_res = math.sqrt(_parseval_norm_sq(spec, mom_hat))
    return v, p, projection.StokesInfo(
        True, 0, float(np.max(np.abs(divergence(v).data))), mom_res)


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
    new, old = projection._leray_periodic(w), _old_leray_periodic(w)
    assert new.solenoidal.data.tobytes() == old.solenoidal.data.tobytes()
    assert new.potential.data.tobytes() == old.potential.data.tobytes()
    for h in (0.0125, 0.1):
        for nu in (1.0, 0.25):
            v, p, info = projection._stokes_periodic(w, h, nu)
            v0, p0, info0 = _old_stokes_periodic(w, h, nu)
            assert v.data.tobytes() == v0.data.tobytes()
            assert p.data.tobytes() == p0.data.tobytes()
            assert info.momentum_residual == info0.momentum_residual
            assert info.max_divergence == info0.max_divergence


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
    v, p, info = solve_implicit_stokes(w, h)
    assert info.converged
    assert info.max_divergence < 1e-8
    assert v.is_boundary_compliant()
    assert abs(p.mean()) < 1e-12
    # momentum residual on the interior rows
    assert info.momentum_residual < 1e-8 * max(norm_l2(w), 1.0)


def test_stokes_dirichlet_cap_returns_last_iterate(dirichlet32, monkeypatch):
    # force the cap by letting the Uzawa loop (the CG with a stop rule)
    # run a single outer iteration
    def one_outer(apply_a, b, x0, max_iters, rel_tol=0.0, abs_tol=0.0,
                  stop_fn=None, precond=None):
        if stop_fn is not None:
            max_iters = 1
        return _cg(apply_a, b, x0, max_iters, rel_tol, abs_tol, stop_fn,
                   precond)

    h = 0.0125
    w = leray_project(stream_bump_field(dirichlet32)).solenoidal
    monkeypatch.setattr(projection, "_cg", one_outer)
    v, p, info = solve_implicit_stokes(w, h)
    assert not info.converged
    assert info.outer_iterations == 1
    assert np.all(np.isfinite(v.data))
    assert info.max_divergence == float(np.max(np.abs(divergence(v).data)))
    # v is the velocity of the returned pressure iterate
    ainv = projection._helmholtz_inverse(dirichlet32, h, 1.0)
    assert np.allclose(v.data, ainv(w.data - h * gradient(p).data),
                       rtol=0.0, atol=1e-12)


def test_stokes_warm_start_must_match_grid(dirichlet32):
    w = stream_bump_field(dirichlet32)
    with pytest.raises(ValueError):
        solve_implicit_stokes(w, 0.1, p0=ScalarField.zeros(GridSpec(
            16, bc=BoundaryCondition.DIRICHLET_ZERO)))
    with pytest.raises(TypeError):
        # the tolerance and the starting pressure are keyword-only
        solve_implicit_stokes(w, 0.1, 1.0, 1e-9)


# ---------------------------------------------------------------------------
# exact DST-I Helmholtz inverse against the CG reference

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
    h, nu = 0.0125, 0.7
    ainv = projection._helmholtz_inverse(spec, h, nu)
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
    assert info.converged
    assert info.max_divergence < 1e-8
    assert info.momentum_residual < 1e-10 * max(norm_l2(w), 1.0)


def test_box_run_matches_cg_reference(monkeypatch):
    spec = BOX_GRIDS[0]
    a = random_solenoidal_field(spec, seed=3)
    cfg = DnsConfig(h=0.0125, T=0.05, grid=spec)
    fast = run(a, cfg)
    monkeypatch.setattr(projection, "_helmholtz_inverse",
                        lambda spec, h, nu: lambda f: _cg_ainv(spec, h, nu, f))
    ref = run(a, cfg)
    assert len(fast.results) == len(ref.results) == 4
    v_fast, v_ref = fast.snapshots[-1], ref.snapshots[-1]
    assert norm_l2(v_fast - v_ref) < 1e-10 * norm_l2(v_ref)
    for r_fast, r_ref in zip(fast.results, ref.results):
        assert r_fast.stokes_outer > 0
        assert abs(r_fast.stokes_outer - r_ref.stokes_outer) <= 1


# ---------------------------------------------------------------------------
# sine-matrix Helmholtz inverse against the former padded-FFT form

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


def _fft_helmholtz_inverse(spec: GridSpec, h: float, nu: float):
    """The former projection._helmholtz_inverse, verbatim: four padded
    odd-extension rfft passes per apply."""
    n0, n1 = spec.cells
    lam0, lam1 = ((2.0 - 2.0 * np.cos(np.pi * np.arange(1, n) / n))
                  / spec.spacing ** 2 for n in spec.cells)
    # indexed (k1, k0): the solve divides between the two axis passes
    inv_symbol = 1.0 / (4.0 * n0 * n1 * (
        1.0 + h * nu * (lam1[:, None] + lam0[None, :])))

    def ainv(f):
        coef = _dst1(_dst1(f[..., 1:-1, 1:-1]).swapaxes(-1, -2))
        out = np.zeros(f.shape)
        out[..., 1:-1, 1:-1] = _dst1(_dst1(coef * inv_symbol).swapaxes(-1, -2))
        return out

    return ainv


BOX64 = GridSpec(64, bc=BoundaryCondition.DIRICHLET_ZERO)
FFT_FORM_GRIDS = BOX_GRIDS + [
    BOX64, GridSpec(128, bc=BoundaryCondition.DIRICHLET_ZERO)]


@pytest.mark.parametrize("spec", FFT_FORM_GRIDS,
                         ids=["32x32", "16x32", "64x64", "128x128"])
def test_helmholtz_inverse_matches_fft_form(spec):
    # measured <= 1.0e-15 relative
    h, nu = 0.0125, 0.7
    rng = np.random.default_rng(23)
    f = np.zeros((2,) + spec.node_shape)
    f[:, 1:-1, 1:-1] = rng.normal(size=f[:, 1:-1, 1:-1].shape)
    new = projection._helmholtz_inverse(spec, h, nu)(f)
    old = _fft_helmholtz_inverse(spec, h, nu)(f)
    assert np.all(new[:, [0, -1], :] == 0.0)
    assert np.all(new[:, :, [0, -1]] == 0.0)
    assert np.linalg.norm(new - old) <= 1e-13 * np.linalg.norm(old)


def _box64_run():
    """The box64 benchmark run: 64^2 box of extent 2 pi, h = 0.0125,
    T = 0.05, linear back-trace, random_solenoidal seed 41."""
    a = random_solenoidal_field(BOX64, seed=41)
    return run(a, DnsConfig(h=0.0125, T=0.05, grid=BOX64))


def test_box64_run_matches_fft_form(monkeypatch):
    # measured: outer counts [49, 44, 43, 42] on both, v 2.2e-15 relative
    fast = _box64_run()
    monkeypatch.setattr(projection, "_helmholtz_inverse",
                        _fft_helmholtz_inverse)
    ref = _box64_run()
    assert len(fast.results) == len(ref.results) == 4
    for r_fast, r_ref in zip(fast.results, ref.results):
        assert abs(r_fast.stokes_outer - r_ref.stokes_outer) <= 1
    v_fast, v_ref = fast.snapshots[-1], ref.snapshots[-1]
    assert norm_l2(v_fast - v_ref) <= 1e-10 * norm_l2(v_ref)


_BLAS_RUN = """
import json, sys
import numpy as np
from dnsflow import (BoundaryCondition, DnsConfig, GridSpec,
                     random_solenoidal_field, run)
spec = GridSpec(128, bc=BoundaryCondition.DIRICHLET_ZERO)
res = run(random_solenoidal_field(spec, seed=41),
          DnsConfig(h=0.0125, T=0.05, grid=spec))
np.save(sys.argv[1], res.snapshots[-1].data)
print(json.dumps([r.stokes_outer for r in res.results]))
"""


def test_box_run_agrees_across_blas_thread_counts(tmp_path):
    # OpenBLAS dgemm rounds differently with 1 and 2 threads on the
    # 127-node sine matrices of a 128^2 box, so the run is bitwise
    # reproducible only at a fixed BLAS thread count; across counts it
    # must agree to roundoff (measured 7.7e-16 relative)
    root = Path(__file__).resolve().parents[1]
    counts, finals = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"v{threads}.npy"
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _BLAS_RUN, str(out)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads(proc.stdout.splitlines()[-1]))
        finals.append(np.load(out))
    assert len(counts[0]) == 4
    assert counts[0] == counts[1]
    assert (np.linalg.norm(finals[0] - finals[1])
            <= 1e-12 * np.linalg.norm(finals[0]))


# ---------------------------------------------------------------------------
# preconditioned CG and the parity-split Neumann preconditioner

def test_cg_stops_when_preconditioned_residual_vanishes():
    # r.M^-1 r <= 0 ends the loop unconverged, as d.Ad <= 0 does; a
    # preconditioner orthogonal to r would otherwise divide by zero
    b = np.array([1.0, 2.0])
    for precond in (np.zeros_like, lambda r: np.array([-r[1], r[0]])):
        x, k, ok = _cg(lambda x: 2.0 * x, b, np.zeros(2), 50, 1e-12,
                       precond=precond)
        assert (k, ok) == (0, False)
        assert np.all(x == 0.0)


def test_cg_refuses_overflowing_right_hand_side():
    # |b| = inf made tol = inf, met by the first residual: converged
    # after 0 iterations with x0 returned
    b = np.array([1e300, 1e300])
    with np.errstate(over="ignore"):
        for tols in ((1e-10, 0.0), (1e-10, 1e-300)):
            x, k, ok = _cg(lambda x: 2.0 * x, b, np.zeros(2), 50, *tols)
            assert (k, ok) == (0, False)


def _dense(op, shape):
    eye = np.eye(int(np.prod(shape)))
    return np.stack([op(e.reshape(shape)).ravel() for e in eye], axis=1)


# node counts per axis 9 / 12 / 17 / 34 / (9, 12): sub-lattices of odd
# and even sizes, and a grid whose two axes must not swap
NEUMANN_GRIDS = [GridSpec(c, extent=e, bc=BoundaryCondition.DIRICHLET_ZERO)
                 for c, e in ((8, 8.0), (11, 11.0), (16, 16.0), (33, 33.0),
                              ((8, 11), (8.0, 11.0)))]
CORNERS = (np.array([0, 0, -1, -1]), np.array([0, -1, 0, -1]))
PARITIES = [(slice(a, None, 2), slice(b, None, 2))
            for a in (0, 1) for b in (0, 1)]


def _dense_null_projector(spec):
    """The dense projector onto range(G^T) of the former
    projection._neumann_pinv, verbatim: x - N^T (N x), N the orthonormal
    8 x N null-space basis of G (one row per vector). Returns the
    projector and N."""
    corners = (np.array([0, 0, -1, -1]), np.array([0, -1, 0, -1]))
    null = []
    for a in (0, 1):
        for b in (0, 1):
            sub = (slice(a, None, 2), slice(b, None, 2))
            const = np.zeros(spec.node_shape)
            const[sub] = 1.0
            const[corners] = 0.0
            null.append(const / np.linalg.norm(const))
    for i, j in zip(*corners):
        null.append(np.zeros(spec.node_shape))
        null[-1][i, j] = 1.0
    # orthonormal null-space basis, one row per vector
    null = np.reshape(null, (8, -1))

    def project(x):
        return x - (null.T @ (null @ x.ravel())).reshape(x.shape)

    return project, null


@lru_cache(maxsize=32)
def _old_neumann_pinv(spec):
    """The former projection._neumann_pinv, M = P Lg^+ P, verbatim but for
    its null-space basis and projector, split out above."""
    nx, ny = spec.node_shape
    blocks = []
    for a in (0, 1):
        for b in (0, 1):
            sub = (slice(a, None, 2), slice(b, None, 2))
            cx, lx = projection._path_dct(len(range(a, nx, 2)))
            cy, ly = projection._path_dct(len(range(b, ny, 2)))
            lam = 0.25 * (lx[:, None] + ly[None, :])
            lam[0, 0] = np.inf  # the sub-lattice constant: pseudo-inverse 0
            blocks.append((sub, cx, cy, 1.0 / lam))
    project, _ = _dense_null_projector(spec)

    def pinv(r):
        q = project(r)
        for sub, cx, cy, inv_lam in blocks:
            q[sub] = cx @ ((cx.T @ q[sub] @ cy) * inv_lam) @ cy.T
        return project(q)

    return pinv


def _assert_symmetric(op, x, y):
    ox, oy = op(x), op(y)
    assert (abs(np.sum(x * oy) - np.sum(ox * y))
            <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(oy))


@pytest.mark.parametrize("spec", NEUMANN_GRIDS,
                         ids=["8", "11", "16", "33", "8x11"])
def test_neumann_pinv_properties(spec):
    pinv = projection._neumann_pinv(spec)
    project = projection._project_range_gt
    grad_i, grad_t, _ = projection._dirichlet_ops(spec)

    def apply_l(p):
        return grad_t(grad_i(p))

    def composite(r):
        return project(pinv(project(r)))

    shape = spec.node_shape
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2,) + shape)
    # pinv alone: symmetric positive semidefinite, with the four
    # sub-lattice constants as its null space
    _assert_symmetric(pinv, x, y)
    g = _dense(pinv, shape)
    ev_g = np.linalg.eigvalsh(0.5 * (g + g.T))
    assert ev_g[0] >= -1e-12 * ev_g[-1]
    assert np.sum(ev_g > 1e-10 * ev_g[-1]) == g.shape[0] - 4
    for sub in PARITIES:
        const = np.zeros(shape)
        const[sub] = 1.0
        assert (np.linalg.norm(pinv(const))
                <= 1e-12 * ev_g[-1] * np.linalg.norm(const))
    # the closed-form projector: symmetric, idempotent, zero on the eight
    # null vectors of G, and the dense x - N^T (N x) to roundoff (all
    # measured <= 1e-16 on these grids)
    dense, null = _dense_null_projector(spec)
    _assert_symmetric(project, x, y)
    px = project(x)
    assert np.linalg.norm(project(px) - px) <= 1e-15 * np.linalg.norm(px)
    for vec in null:
        assert np.max(np.abs(project(vec.reshape(shape)))) <= 1e-15
    assert (np.linalg.norm(px - dense(x))
            <= 1e-15 * np.linalg.norm(dense(x)))
    # project o pinv o project is the former M = P Lg^+ P (measured
    # <= 2.1e-16); the former test's checks of M run on it
    m = _dense(composite, shape)
    m_old = _dense(_old_neumann_pinv(spec), shape)
    assert np.max(np.abs(m - m_old)) <= 1e-14 * np.max(np.abs(m_old))
    _assert_symmetric(composite, x, y)
    mx = composite(x)
    # the output lies in range(G^T): zero at the corners, zero sum on
    # each parity sub-lattice
    assert np.all(mx[CORNERS] == 0.0)
    for sub in PARITIES:
        assert abs(np.sum(mx[sub])) <= 1e-12 * np.sum(np.abs(mx))
    # positive semidefinite, with L's 8-dimensional null space: one
    # constant per sub-lattice and the four corners
    lap = _dense(apply_l, shape)
    ev = np.linalg.eigvalsh(0.5 * (m + m.T))
    assert ev[0] >= -1e-12 * ev[-1]
    ev_l, vec_l = np.linalg.eigh(lap)
    in_range = ev_l > 1e-10 * ev_l[-1]
    rank = m.shape[0] - 8
    assert np.sum(ev > 1e-10 * ev[-1]) == rank == np.sum(in_range)
    # M inverts L on range(G^T) fields that vanish on the walls: no wall-
    # line edge (the edges L lacks from the grid-graph Laplacian) sees them
    z = rng.normal(size=shape)
    wall = np.zeros(shape, dtype=bool)
    wall[[0, -1], :] = wall[:, [0, -1]] = True
    z[wall] = 0.0
    for sub in PARITIES:
        zs, inner = z[sub], ~wall[sub]
        zs[inner] -= np.mean(zs[inner])
    assert (np.linalg.norm(composite(apply_l(z)) - z)
            <= 1e-12 * np.linalg.norm(z))
    # elsewhere M L differs from the projector onto range(G^T) only
    # through the wall-line edges: rank at most their count
    range_l = vec_l[:, in_range]
    defect = m @ lap - range_l @ range_l.T
    sv = np.linalg.svd(defect, compute_uv=False)
    wall_edges = 2 * (shape[0] + shape[1] - 4)
    assert np.sum(sv > 1e-10 * sv[0]) <= wall_edges < rank


def test_box_runs_match_projected_pinv(monkeypatch):
    # the former preconditioner projected before and after every pinv
    # apply; now each solve projects its result once. Measured here:
    # box64 outer counts [49, 44, 43, 42] on both, v 7.7e-16 and p 3.1e-14
    # relative; unit box 128^2 [81, 79] on both, v 1.6e-12 and p 3.4e-11.
    # Against the former code as a whole the 128^2 counts read [82, 79]
    # (v 1.0e-12, p 5.2e-11)
    unit128 = GridSpec(128, extent=1.0, bc=BoundaryCondition.DIRICHLET_ZERO)
    cases = [(BOX64, DnsConfig(h=0.0125, T=0.05, grid=BOX64)),
             (unit128, DnsConfig(h=1.0 / 80.0, T=2.0 / 80.0, grid=unit128))]

    def runs():
        return [run(random_solenoidal_field(spec, seed=41), cfg)
                for spec, cfg in cases]

    new = runs()
    monkeypatch.setattr(projection, "_neumann_pinv", _old_neumann_pinv)
    old = runs()
    for fast, ref, steps in zip(new, old, (4, 2)):
        assert len(fast.results) == len(ref.results) == steps
        for r_fast, r_ref in zip(fast.results, ref.results):
            assert abs(r_fast.stokes_outer - r_ref.stokes_outer) <= 1
        v_fast, v_ref = fast.snapshots[-1], ref.snapshots[-1]
        assert norm_l2(v_fast - v_ref) <= 1e-10 * norm_l2(v_ref)
        p_fast, p_ref = fast.results[-1].p.data, ref.results[-1].p.data
        assert (np.linalg.norm(p_fast - p_ref)
                <= 1e-8 * np.linalg.norm(p_ref))


def _cg_without_precond(monkeypatch):
    real = projection._cg

    def plain(*args, precond=None, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(projection, "_cg", plain)


def test_preconditioned_leray_matches_plain_cg(monkeypatch):
    # benchmark box64 initial datum (64^2, seed 41): the two gradient
    # parts agree to ~7e-11 relative
    u = random_solenoidal_field(BOX64, seed=41)
    fast = u - leray_project(u).solenoidal
    _cg_without_precond(monkeypatch)
    ref = u - leray_project(u).solenoidal
    assert norm_l2(fast - ref) <= 1e-9 * norm_l2(ref)


def test_preconditioned_stokes_matches_plain_uzawa(monkeypatch):
    # both stop inside the divergence tolerance, at different iterates:
    # measured ~9e-11 relative in v and ~1e-8 in the demeaned pressure
    w = leray_project(random_solenoidal_field(BOX64, seed=41)).solenoidal
    v, p, info = solve_implicit_stokes(w, 0.0125)
    _cg_without_precond(monkeypatch)
    v_ref, p_ref, info_ref = solve_implicit_stokes(w, 0.0125)
    assert info.converged and info_ref.converged
    assert info.outer_iterations < info_ref.outer_iterations
    assert norm_l2(v - v_ref) <= 1e-8 * norm_l2(v_ref)
    assert (np.linalg.norm(p.data - p_ref.data)
            <= 1e-6 * np.linalg.norm(p_ref.data))


def _counting_cg(monkeypatch):
    """Record (has stop rule, iterations) of every projection._cg call."""
    real, calls = projection._cg, []

    def cg(*args, **kwargs):
        x, k, ok = real(*args, **kwargs)
        calls.append((kwargs.get("stop_fn") is not None, k))
        return x, k, ok

    monkeypatch.setattr(projection, "_cg", cg)
    return calls


def test_box_iteration_counts_do_not_grow_with_grid(monkeypatch):
    # unpreconditioned: Neumann CG 73 / 138 / 270 and Uzawa 102 / 199 /
    # 348 at 32^2 / 64^2 / 128^2; preconditioned, 15 / 20 / 22 and
    # 43 / 58 / 78 (extent 1, h = 1/80)
    calls = _counting_cg(monkeypatch)
    uzawa = []
    for n in (32, 64, 128):
        spec = GridSpec(n, extent=1.0, bc=BoundaryCondition.DIRICHLET_ZERO)
        w = leray_project(random_solenoidal_field(spec, seed=41)).solenoidal
        _, _, info = solve_implicit_stokes(w, 1.0 / 80.0)
        assert info.converged
        uzawa.append(info.outer_iterations)
    neumann = [k for has_stop, k in calls if not has_stop]
    assert len(neumann) == 3
    assert max(neumann) <= 25
    assert uzawa[2] <= 2 * uzawa[0]
