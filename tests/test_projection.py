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
    StokesSolver,
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
from dnsflow.fields import _fd_laplacian
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


def test_stokes_dirichlet_cap_returns_best_iterate(dirichlet32):
    h = 0.0125
    w = leray_project(stream_bump_field(dirichlet32)).solenoidal
    solver = StokesSolver(dirichlet32, h)
    solver.max_outer = 1
    v, p, info = solver.solve(w)
    assert not info.converged
    assert info.outer_iterations == 1
    assert np.all(np.isfinite(v.data))
    assert solver.total_inner == 0


def test_stokes_solver_context_mismatch(dirichlet32):
    solver = StokesSolver(dirichlet32, 0.1)
    with pytest.raises(ValueError):
        solve_implicit_stokes(stream_bump_field(dirichlet32), 0.2,
                              solver=solver)
    with pytest.raises(ValueError):
        StokesSolver(GridSpec(16), 0.1)


# ---------------------------------------------------------------------------
# exact DST-I Helmholtz inverse against the CG reference

def _cg_ainv(solver, f):
    """Reference (I - h nu L)^{-1}: CG on the interior 5-point operator,
    one component at a time, walls of the result pinned to zero."""
    def helmholtz(x):
        return x - solver.h * solver.nu * _fd_laplacian(solver.spec, x)

    out = np.zeros(f.shape)
    for idx in np.ndindex(f.shape[:-2]):
        sol, _, ok = _cg(helmholtz, f[idx], np.zeros(f.shape[-2:]),
                         50 * max(solver.spec.cells), 1e-14)
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
    solver = StokesSolver(spec, 0.0125, nu=0.7)
    rng = np.random.default_rng(11)
    f = np.zeros((2,) + spec.node_shape)
    f[:, 1:-1, 1:-1] = rng.normal(size=f[:, 1:-1, 1:-1].shape)
    ref = _cg_ainv(solver, f)
    batched = solver._ainv(f)
    assert np.all(batched[:, [0, -1], :] == 0.0)
    assert np.all(batched[:, :, [0, -1]] == 0.0)
    assert np.linalg.norm(batched - ref) < 1e-12 * np.linalg.norm(ref)
    for c in range(2):
        single = solver._ainv(f[c])
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
    monkeypatch.setattr(StokesSolver, "_ainv", _cg_ainv)
    ref = run(a, cfg)
    assert len(fast.results) == len(ref.results) == 4
    v_fast, v_ref = fast.snapshots[-1], ref.snapshots[-1]
    assert norm_l2(v_fast - v_ref) < 1e-10 * norm_l2(v_ref)
    for r_fast, r_ref in zip(fast.results, ref.results):
        assert r_fast.stokes_outer > 0
        assert abs(r_fast.stokes_outer - r_ref.stokes_outer) <= 1
