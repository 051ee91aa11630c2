import math

import numpy as np
import pytest

from dnsflow import (
    BoundaryCondition,
    DnsConfig,
    ProjectionError,
    GridSpec,
    InterpOrder,
    SolvePath,
    ScalarField,
    SolverFailure,
    TaylorGreenOracle,
    VelocityField,
    backtrace,
    divergence,
    dns_step,
    functional_value,
    grad_norm_sq,
    inner_product_l2,
    laplacian,
    leray_project,
    norm_l2,
    random_solenoidal_field,
    run,
    sample_offgrid,
    taylor_green_field,
)
from dnsflow import projection, scheme
from dnsflow.fields import pin_walls, velocity_jacobian
from dnsflow.scheme import energy_terms

from conftest import failing_poisson_cg, random_pinned_velocity


# ---------------------------------------------------------------------------
# backtrace

def test_backtrace_zero_field(periodic32):
    w = backtrace(VelocityField.zeros(periodic32), 0.1)
    assert np.all(w.data == 0.0)


def test_backtrace_constant_field_invariant(periodic32):
    c = VelocityField.from_function(
        periodic32, lambda x, y: (np.full_like(x, 0.8), np.full_like(x, -0.4)))
    w = backtrace(c, 0.7)
    assert np.max(np.abs(w.data - c.data)) < 1e-13


@pytest.mark.parametrize("order,min_ratio", [
    (InterpOrder.CUBIC, 3.9),
])
def test_backtrace_second_order_in_h(order, min_ratio):
    # compare against the first-order Taylor field built from analytic
    # derivatives; the h-halving ratio certifies the O(h^2) remainder
    spec = GridSpec(128)
    oracle = TaylorGreenOracle()
    a, _ = taylor_green_field(0.0, spec)
    X, Y = spec.mesh()
    au, av = oracle.advection(X, Y, 0.0)
    errs = []
    for h in (1e-3, 5e-4):
        w = backtrace(a, h, order)
        ref = VelocityField(spec, np.stack([a.data[0] - h * au,
                                            a.data[1] - h * av]))
        errs.append(norm_l2(w - ref))
    assert errs[0] / errs[1] >= min_ratio


def test_backtrace_rejects_nonpositive_h(periodic32):
    with pytest.raises(ValueError):
        backtrace(VelocityField.zeros(periodic32), -0.1)


def test_backtrace_keeps_walls_pinned(dirichlet32):
    from dnsflow import stream_bump_field
    a = stream_bump_field(dirichlet32)
    w = backtrace(a, 0.1)
    assert w.is_boundary_compliant()


@pytest.mark.parametrize("order", list(InterpOrder))
@pytest.mark.parametrize("spec_name", ["periodic32", "dirichlet32"])
def test_backtrace_samples_departure_points_bitwise(spec_name, order,
                                                    request):
    """backtrace builds its points component-major from the axis nodes;
    the result is bitwise the sampler at the (..., 2)-stacked mesh - h v,
    restacked and pinned, as backtrace used to form it."""
    spec = request.getfixturevalue(spec_name)
    v = random_pinned_velocity(spec, 13)
    # ~1.5 cells of displacement: stencils cross the wrap and the walls
    h = 0.3
    X, Y = spec.mesh()
    pts = np.stack([X - h * v.data[0], Y - h * v.data[1]], axis=-1)
    vals = sample_offgrid(v, pts, order)
    expected = pin_walls(spec, np.stack([vals[..., 0], vals[..., 1]]))
    w = backtrace(v, h, order)
    assert np.array_equal(w.data, expected)
    assert w.data.flags.c_contiguous


# ---------------------------------------------------------------------------
# functional

def test_functional_zero(periodic32):
    z = VelocityField.zeros(periodic32)
    assert functional_value(z, z, 0.1) == 0.0


def test_functional_kinetic_term_only(periodic64):
    h = 0.05
    v_prev, _ = taylor_green_field(0.0, periodic64)
    w = backtrace(v_prev, h)
    s = inner_product_l2(w, w)
    z = VelocityField.zeros(periodic64)
    assert functional_value(z, v_prev, h) == pytest.approx(s / (2.0 * h),
                                                           rel=1e-12)


def test_minimizer_beats_random_divergence_free_perturbations(periodic32):
    h = 0.02
    v_prev, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=h, T=h, grid=periodic32)
    res = dns_step(v_prev, cfg)
    base = res.functional_value
    eps = 1e-3
    for seed in range(20):
        phi = random_solenoidal_field(periodic32, seed=seed)
        probe = functional_value(res.v + phi * eps, v_prev, h)
        assert probe >= base - 1e-12


def test_minimality_against_named_candidates(periodic32):
    h = 0.02
    for seed in (0, 1):
        v_prev = random_solenoidal_field(periodic32, seed=seed)
        cfg = DnsConfig(h=h, T=h, grid=periodic32)
        res = dns_step(v_prev, cfg)
        pw = leray_project(res.w).solenoidal
        for candidate in (pw, v_prev, VelocityField.zeros(periodic32)):
            assert res.functional_value <= (functional_value(candidate, v_prev, h)
                                            + 1e-12)


# ---------------------------------------------------------------------------
# dns_step

def test_step_from_zero(periodic32):
    cfg = DnsConfig(h=0.1, T=0.1, grid=periodic32)
    res = dns_step(VelocityField.zeros(periodic32), cfg)
    assert np.all(res.v.data == 0.0)
    assert np.all(res.p.data == 0.0)
    assert res.functional_value == 0.0
    assert res.el_residual == 0.0


def test_paths_agree_on_random_solenoidal_data(periodic32):
    h = 0.01
    for seed in (3, 4):
        a = random_solenoidal_field(periodic32, seed=seed)
        el = dns_step(a, DnsConfig(h=h, T=h, grid=periodic32,
                                   path=SolvePath.EULER_LAGRANGE))
        dm = dns_step(a, DnsConfig(h=h, T=h, grid=periodic32,
                                   path=SolvePath.DIRECT_MINIMIZE))
        assert norm_l2(el.v - dm.v) < 1e-8 * max(norm_l2(el.v), 1.0)


def test_cross_check_mode_reports_gap(periodic32):
    a = random_solenoidal_field(periodic32, seed=8)
    cfg = DnsConfig(h=0.01, T=0.01, grid=periodic32, cross_check=True)
    res = dns_step(a, cfg)
    assert res.path_disagreement is not None
    assert res.path_disagreement < 1e-8 * max(norm_l2(res.v), 1.0)


def test_one_step_local_error_second_order():
    # exact Taylor-Green evolution is available in closed form; one step
    # must be O(h^2) accurate, certified by the h-halving ratio
    spec = GridSpec(128)
    a, _ = taylor_green_field(0.0, spec)
    errs = []
    for h in (1e-3, 5e-4):
        cfg = DnsConfig(h=h, T=h, grid=spec, interp_order=InterpOrder.CUBIC)
        res = dns_step(a, cfg)
        exact, _ = taylor_green_field(h, spec)
        errs.append(norm_l2(res.v - exact))
    assert errs[0] / errs[1] >= 3.5


def test_step_result_invariants(periodic64):
    h = 0.0125
    a, _ = taylor_green_field(0.0, periodic64)
    cfg = DnsConfig(h=h, T=h, grid=periodic64, interp_order=InterpOrder.CUBIC)
    res = dns_step(a, cfg)
    assert np.max(np.abs(divergence(res.v).data)) < 1e-10
    assert res.el_residual < 1e-9
    assert abs(res.p.mean()) < 1e-12


def test_step_result_invariants_dirichlet(dirichlet32):
    from dnsflow import stream_bump_field
    a = leray_project(stream_bump_field(dirichlet32)).solenoidal
    cfg = DnsConfig(h=0.0125, T=0.0125, grid=dirichlet32)
    res = dns_step(a, cfg)
    assert res.v.is_boundary_compliant()
    assert np.max(np.abs(divergence(res.v).data)) < 1e-8
    # stationarity: the residual of the solved Stokes system, over h
    assert res.el_residual < 1e-8
    assert abs(res.p.mean()) < 1e-12


def test_step_records_its_diagnostics(small_run):
    cfg = small_run.cfg
    for v_prev, r in zip(small_run.snapshots, small_run.results):
        assert r.max_divergence == float(np.max(np.abs(divergence(r.v).data)))
        assert (r.kinetic_shifted, r.dirichlet) == energy_terms(r.v, r.w, cfg.h)
        assert r.functional_value == r.kinetic_shifted + 0.5 * cfg.nu * r.dirichlet
        assert r.functional_value == functional_value(
            r.v, v_prev, cfg.h, cfg.nu, cfg.interp_order)


def _two_projection_pressure(v, w, h, nu):
    """Reference: the direct path's pressure from a Leray split of its
    own residual h grad(p) = w - v + h nu lap(v)."""
    resid = (w - v) * (1.0 / h) + nu * laplacian(v)
    return leray_project(resid).potential.demeaned()


def _two_projection_el_residual(v, w, h, nu):
    resid = (v - w) * (1.0 / h) - nu * laplacian(v)
    return norm_l2(leray_project(resid).solenoidal)


def _assert_el_residual_near_split(results, cfg):
    # the el_residual gates of the step invariant tests: 1e-9 on the
    # torus, 1e-8 on the box
    tol = 1e-9 if cfg.grid.is_periodic else 1e-8
    for r in results:
        split = _two_projection_el_residual(r.v, r.w, cfg.h, cfg.nu)
        assert abs(r.el_residual - split) <= tol


def test_el_residual_matches_leray_split(small_run):
    # the Euler-Lagrange path reports its solve's momentum residual / h,
    # which bounds the split of (v - w)/h - nu lap(v) from above; on the
    # direct path the two are the same split
    _assert_el_residual_near_split(small_run.results, small_run.cfg)


def test_el_residual_matches_leray_split_box64():
    spec = GridSpec(64, bc=BoundaryCondition.DIRICHLET_ZERO)
    cfg = DnsConfig(h=0.0125, T=0.0125, grid=spec)
    traj = run(random_solenoidal_field(spec, seed=41), cfg)
    _assert_el_residual_near_split(traj.results, cfg)


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda b: b.value)
def test_el_step_runs_no_leray_split(bc, monkeypatch):
    def no_split(u):
        raise AssertionError("leray_project called on the Euler-Lagrange path")

    monkeypatch.setattr(scheme, "leray_project", no_split)
    monkeypatch.setattr(projection, "_cg", failing_poisson_cg)
    spec = GridSpec(16, bc=bc)
    cfg = DnsConfig(h=0.0125, T=0.0125, grid=spec, nu=0.7)
    res = dns_step(random_solenoidal_field(spec, seed=5), cfg)
    assert res.el_residual < 1e-8


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda b: b.value)
def test_direct_path_shares_one_projection(bc):
    # p and the EL residual come from one split of the step residual; they
    # must equal the two separate projections of it and of its negative
    spec = GridSpec(16, bc=bc)
    cfg = DnsConfig(h=0.0125, T=0.025, grid=spec, nu=0.7,
                    path=SolvePath.DIRECT_MINIMIZE, cross_check=True,
                    minimizer_tol=1e-8)
    traj = run(random_solenoidal_field(spec, seed=23), cfg)
    for r in traj.results:
        assert r.path_disagreement is not None
        assert np.array_equal(
            r.p.data, _two_projection_pressure(r.v, r.w, cfg.h, cfg.nu).data)
        assert r.el_residual == _two_projection_el_residual(r.v, r.w, cfg.h,
                                                            cfg.nu)


def _field_level_projected_cg(w, h, nu, tol, max_iters):
    """The direct path's former minimizer, kept as the reference: CG on
    VelocityFields with trapezoid inner products, the iterate and the
    residual re-projected every iteration."""

    def hess(f):
        return f * (1.0 / h) - nu * laplacian(f)

    def project(f):
        return leray_project(f).solenoidal

    b = project(w * (1.0 / h))
    x = VelocityField.zeros(w.spec)
    r = b
    d = r
    rs = inner_product_l2(r, r)
    b_norm = math.sqrt(max(inner_product_l2(b, b), 0.0))
    if b_norm == 0.0:
        return x, 0, True
    k = 0
    while math.sqrt(rs) > tol * b_norm and k < max_iters:
        hd = project(hess(d))
        dhd = inner_product_l2(d, hd)
        if dhd <= 0.0:
            break
        alpha = rs / dhd
        x = project(x + d * alpha)
        r = project(r - hd * alpha)
        rs_new = inner_product_l2(r, r)
        d = r + d * (rs_new / rs)
        rs = rs_new
        k += 1
    return x, k, math.sqrt(rs) <= tol * b_norm


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda b: b.value)
def test_direct_minimizer_matches_field_level_loop(bc, monkeypatch):
    # one projection per iteration on the shared CG loop is the former
    # loop in exact arithmetic: every iterate vanishes on the walls, so
    # the trapezoid inner product is dx^2 times the plain sum
    spec = GridSpec(32, bc=bc)
    h, nu = 0.0125, 0.7
    w = backtrace(random_solenoidal_field(spec, seed=29), h)
    real_project = scheme.leray_project
    for tol in (1e-8, 1e-10):
        cfg = DnsConfig(h=h, T=h, grid=spec, nu=nu,
                        path=SolvePath.DIRECT_MINIMIZE, minimizer_tol=tol)
        calls = []
        monkeypatch.setattr(scheme, "leray_project",
                            lambda u: calls.append(1) or real_project(u))
        v = scheme._minimize_projected_cg(w, cfg)
        monkeypatch.undo()
        v_ref, k_ref, ok_ref = _field_level_projected_cg(w, h, nu, tol, 2000)
        assert ok_ref
        # the same iteration count: one projection per iteration, plus
        # b, the initial residual and the final iterate
        assert len(calls) == k_ref + 3
        assert norm_l2(v - v_ref) < 1e-10 * norm_l2(v_ref)


def test_direct_minimize_dirichlet_consistent(dirichlet32):
    # the dirichlet Euler-Lagrange operator (five-point stencil) and the
    # functional's exact Hessian differ at truncation level on the
    # collocated grid; agreement is only to that order here
    from dnsflow import stream_bump_field
    a = leray_project(stream_bump_field(dirichlet32)).solenoidal
    h = 0.01
    el = dns_step(a, DnsConfig(h=h, T=h, grid=dirichlet32))
    dm = dns_step(a, DnsConfig(h=h, T=h, grid=dirichlet32,
                               path=SolvePath.DIRECT_MINIMIZE,
                               minimizer_tol=1e-8))
    rel = norm_l2(el.v - dm.v) / max(norm_l2(el.v), 1e-300)
    assert rel < 0.05
    assert dm.functional_value <= el.functional_value * (1.0 + 1e-6)


def test_minimizer_cap_raises_solver_failure(periodic32, monkeypatch):
    # the cap is per cell of the longer axis: 1 x 32 iterations is too few
    monkeypatch.setattr(scheme, "_MINIMIZER_ITERS_PER_CELL", 1)
    cfg = DnsConfig(h=0.1, T=0.1, grid=periodic32,
                    path=SolvePath.DIRECT_MINIMIZE)
    with pytest.raises(SolverFailure, match="did not converge in 32 "):
        dns_step(random_solenoidal_field(periodic32, seed=3), cfg)


# ---------------------------------------------------------------------------
# run

def test_run_zero_datum(periodic32):
    cfg = DnsConfig(h=0.05, T=0.2, grid=periodic32)
    traj = run(VelocityField.zeros(periodic32), cfg)
    assert len(traj.snapshots) == cfg.n_steps + 1
    for snap in traj.snapshots:
        assert np.all(snap.data == 0.0)
    assert not traj.projected_initial


def test_run_projects_dirty_datum(periodic32):
    from conftest import random_velocity
    dirty = random_velocity(periodic32, 21)
    cfg = DnsConfig(h=0.05, T=0.1, grid=periodic32)
    traj = run(dirty, cfg)
    assert traj.projected_initial
    assert np.max(np.abs(divergence(traj.snapshots[0]).data)) < 1e-11


def test_run_streams_to_sinks(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=0.05, T=0.2, grid=periodic32)
    seen = []
    run(a, cfg, sinks=[lambda n, res: seen.append(n)])
    assert seen == [1, 2, 3, 4]


def test_run_matches_floor_step_count(periodic32):
    cfg = DnsConfig(h=0.15, T=0.5, grid=periodic32)   # T/h not integral
    assert cfg.n_steps == 3
    a, _ = taylor_green_field(0.0, periodic32)
    traj = run(a, cfg)
    assert traj.final_time == pytest.approx(0.45)


def test_run_is_deterministic(periodic32):
    a = random_solenoidal_field(periodic32, seed=12)
    cfg = DnsConfig(h=0.025, T=0.1, grid=periodic32,
                    interp_order=InterpOrder.CUBIC)
    t1 = run(a, cfg)
    t2 = run(a, cfg)
    for s1, s2 in zip(t1.snapshots, t2.snapshots):
        assert np.array_equal(s1.data, s2.data)


def test_run_mini_ladder_errors_shrink(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    errs = []
    for h in (0.05, 0.025):
        cfg = DnsConfig(h=h, T=0.2, grid=periodic32,
                        interp_order=InterpOrder.CUBIC)
        traj = run(a, cfg)
        exact, _ = taylor_green_field(traj.final_time, periodic32)
        errs.append(norm_l2(traj.snapshots[-1] - exact))
    assert errs[1] < errs[0]


def test_run_dirichlet_energy_decays_taylor_green(periodic32):
    from dnsflow import grad_norm_sq
    a, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=0.025, T=0.2, grid=periodic32,
                    interp_order=InterpOrder.CUBIC)
    traj = run(a, cfg)
    energies = [grad_norm_sq(v) for v in traj.snapshots]
    assert all(e2 <= e1 for e1, e2 in zip(energies, energies[1:]))


def test_run_aborts_with_step_index(dirichlet32):
    from dnsflow import stream_bump_field
    a = leray_project(stream_bump_field(dirichlet32)).solenoidal
    cfg = DnsConfig(h=0.0125, T=0.05, grid=dirichlet32, div_tol=1e-30)
    with pytest.raises(SolverFailure) as err:
        run(a, cfg)
    assert err.value.step == 1


@pytest.mark.parametrize("path", list(SolvePath))
def test_run_wraps_projection_error_with_step_index(dirichlet32, monkeypatch,
                                                    path):
    a = leray_project(random_solenoidal_field(dirichlet32, seed=2)).solenoidal
    monkeypatch.setattr(projection, "_cg", failing_poisson_cg)
    # an Euler-Lagrange step projects only in its direct-path cross-check
    cfg = DnsConfig(h=0.0125, T=0.05, grid=dirichlet32, path=path,
                    cross_check=True)
    with pytest.raises(SolverFailure) as err:
        run(a, cfg)
    assert err.value.step == 1
    assert isinstance(err.value.__cause__, ProjectionError)


def test_run_wraps_initial_projection_error(dirichlet32, monkeypatch):
    a = random_pinned_velocity(dirichlet32, 5)
    monkeypatch.setattr(projection, "_cg", failing_poisson_cg)
    cfg = DnsConfig(h=0.0125, T=0.05, grid=dirichlet32)
    with pytest.raises(SolverFailure) as err:
        run(a, cfg)
    assert err.value.step == 0
    assert isinstance(err.value.__cause__, ProjectionError)


def test_dns_step_honours_div_tol(dirichlet32):
    # the step hands the config's tolerance to the box Stokes solve: no
    # iterate reaches max |div v| <= 1e-30 before the outer cap
    a = leray_project(random_solenoidal_field(dirichlet32, seed=2)).solenoidal
    with pytest.raises(SolverFailure):
        dns_step(a, DnsConfig(h=0.0125, T=0.0125, grid=dirichlet32,
                              div_tol=1e-30))


def _uzawa_carrying_raw_iterate(real_cg):
    """Stand-in for projection._cg that starts every Uzawa loop (the CG
    with a stop rule) from the previous loop's final, not yet demeaned,
    pressure iterate: the warm start of the former stateful solver."""
    state = {}

    def cg(apply_a, b, x0, max_iters, rel_tol=0.0, abs_tol=0.0,
           stop_fn=None, precond=None):
        if stop_fn is not None and "p" in state:
            x0 = state["p"]
        x, k, ok = real_cg(apply_a, b, x0, max_iters, rel_tol, abs_tol,
                           stop_fn, precond)
        if stop_fn is not None:
            state["p"] = x.copy()
        return x, k, ok

    return cg


def test_box_warm_start_bounded_against_former_solver(monkeypatch):
    # run() starts each box Stokes solve from the previous step's demeaned
    # pressure; the former solver started it from its raw iterate. The
    # Schur operator ignores constants, so only roundoff may separate them
    # (benchmark box64 case: 64^2, seed 41, 4 steps)
    spec = GridSpec(64, bc=BoundaryCondition.DIRICHLET_ZERO)
    cfg = DnsConfig(h=0.0125, T=0.05, grid=spec)
    a = random_solenoidal_field(spec, seed=41)
    warm = run(a, cfg)
    monkeypatch.setattr(projection, "_cg",
                        _uzawa_carrying_raw_iterate(projection._cg))
    former = run(a, cfg)
    monkeypatch.undo()
    v = warm.snapshots[0]
    for r_warm, r_former in zip(warm.results, former.results, strict=True):
        assert r_warm.stokes_outer == r_former.stokes_outer
        assert norm_l2(r_warm.v - r_former.v) <= 1e-13 * norm_l2(r_former.v)
        assert (np.linalg.norm(r_warm.p.data - r_former.p.data)
                <= 1e-11 * np.linalg.norm(r_former.p.data))
        # a cold start (zero pressure on every step) stops elsewhere
        # within the divergence tolerance: ~2e-10 in v and ~6e-8 in p
        cold = dns_step(v, cfg)
        v = cold.v
        assert norm_l2(r_warm.v - cold.v) <= 1e-8 * norm_l2(cold.v)
        assert (np.linalg.norm(r_warm.p.data - cold.p.data)
                <= 1e-6 * np.linalg.norm(cold.p.data))


def test_dns_step_rejects_pressure_on_another_grid(dirichlet32):
    a = random_solenoidal_field(dirichlet32, seed=2)
    other = ScalarField.zeros(GridSpec(16, bc=BoundaryCondition.DIRICHLET_ZERO))
    with pytest.raises(ValueError):
        dns_step(a, DnsConfig(h=0.0125, T=0.0125, grid=dirichlet32),
                 p_prev=other)


def test_step_records_stokes_outer_count(periodic32, dirichlet32):
    h = 0.0125
    box = random_solenoidal_field(dirichlet32, seed=2)
    el = dns_step(box, DnsConfig(h=h, T=h, grid=dirichlet32))
    assert el.stokes_outer > 0
    dm = dns_step(box, DnsConfig(h=h, T=h, grid=dirichlet32,
                                 path=SolvePath.DIRECT_MINIMIZE,
                                 minimizer_tol=1e-8))
    assert dm.stokes_outer == 0
    tg, _ = taylor_green_field(0.0, periodic32)
    assert dns_step(tg, DnsConfig(h=h, T=h, grid=periodic32)).stokes_outer == 0


def test_config_validation(periodic32):
    with pytest.raises(ValueError):
        DnsConfig(h=-0.1, T=1.0, grid=periodic32)
    with pytest.raises(ValueError):
        DnsConfig(h=1.0, T=0.5, grid=periodic32)   # floor(T/h) = 0
    with pytest.raises(ValueError):
        DnsConfig(h=0.1, T=1.0, grid=periodic32, nu=0.0)
    with pytest.raises(ValueError):
        DnsConfig(h=0.1, T=1.0, grid=periodic32,
                  path=SolvePath.DIRECT_MINIMIZE, minimizer_tol=0.0)
    with pytest.raises(ValueError):   # the cross-check runs the minimizer too
        DnsConfig(h=0.1, T=1.0, grid=periodic32, cross_check=True,
                  minimizer_tol=0.0)


class _TransformCounter:
    """Wraps numpy.fft.rfft2 or irfft2; counts calls and the 2-D
    transforms they run (one per slice of the leading axes)."""

    def __init__(self, fn):
        self.fn, self.calls, self.transforms = fn, 0, 0

    def __call__(self, a, *args, **kwargs):
        self.calls += 1
        self.transforms += math.prod(np.shape(a)[:-2])
        return self.fn(a, *args, **kwargs)


def test_torus_step_transform_count(periodic32, monkeypatch):
    """Deterministic guard on the torus step's FFT work: the Dirichlet
    energy comes from two forward transforms by Parseval, and a step runs
    the Stokes solve's 2 + 3 transforms and one transform of v (2
    forward), from which both the divergence (1 inverse) and the energy
    are taken, each a single 2-D transform per call; the Jacobian takes
    one forward and two inverse transforms per component. Restoring the
    physical-space energy, the two-transform divergence, a second
    transform of v or a batched transform changes these counts."""
    fwd = _TransformCounter(np.fft.rfft2)
    inv = _TransformCounter(np.fft.irfft2)
    monkeypatch.setattr(np.fft, "rfft2", fwd)
    monkeypatch.setattr(np.fft, "irfft2", inv)
    v, _ = taylor_green_field(0.0, periodic32)
    grad_norm_sq(v)
    assert (fwd.calls, fwd.transforms, inv.calls) == (2, 2, 0)
    velocity_jacobian(v)
    assert (fwd.calls, fwd.transforms) == (4, 4)
    assert (inv.calls, inv.transforms) == (4, 4)
    fwd.calls = fwd.transforms = inv.calls = inv.transforms = 0
    h = 0.0125
    dns_step(v, DnsConfig(h=h, T=h, grid=periodic32,
                          interp_order=InterpOrder.CUBIC))
    assert (fwd.calls, fwd.transforms) == (4, 4)
    assert (inv.calls, inv.transforms) == (4, 4)


@pytest.mark.parametrize("kind", ["taylor_green", "white_noise"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_torus_step_diagnostics_read_stored_v(n, kind):
    """The step takes max|div v| and the Dirichlet energy from one
    transform of the v it stores; both equal the public operators on
    that v bitwise."""
    spec = GridSpec(n)
    if kind == "taylor_green":
        v0 = taylor_green_field(0.0, spec)[0]
    else:
        # white noise fills every mode, Nyquist and K^2 = 0 included
        v0 = VelocityField(spec, np.random.default_rng(n).normal(
            size=(2,) + spec.node_shape))
    r = dns_step(v0, DnsConfig(h=0.0125, T=0.0125, grid=spec,
                               interp_order=InterpOrder.CUBIC))
    assert r.dirichlet == grad_norm_sq(r.v)
    assert r.max_divergence == float(np.max(np.abs(divergence(r.v).data)))
