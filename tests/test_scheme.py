import numpy as np
import pytest

from dnsflow import (
    DnsConfig,
    ProjectionError,
    GridSpec,
    InterpOrder,
    SolvePath,
    SolverFailure,
    TaylorGreenOracle,
    VelocityField,
    backtrace,
    divergence,
    dns_step,
    functional_value,
    inner_product_l2,
    leray_project,
    norm_l2,
    random_solenoidal_field,
    run,
    taylor_green_field,
)
from dnsflow import projection

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
    # stationarity: the projected residual of the step equation
    assert res.el_residual < 1e-8
    assert abs(res.p.mean()) < 1e-12


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
                               minimizer_tol=1e-8,
                               minimizer_max_iters=2000))
    rel = norm_l2(el.v - dm.v) / max(norm_l2(el.v), 1e-300)
    assert rel < 0.05
    assert dm.functional_value <= el.functional_value * (1.0 + 1e-6)


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
    cfg = DnsConfig(h=0.0125, T=0.05, grid=dirichlet32, path=path)
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


def test_step_records_stokes_outer_count(periodic32, dirichlet32):
    h = 0.0125
    box = random_solenoidal_field(dirichlet32, seed=2)
    el = dns_step(box, DnsConfig(h=h, T=h, grid=dirichlet32))
    assert el.stokes_outer > 0
    dm = dns_step(box, DnsConfig(h=h, T=h, grid=dirichlet32,
                                 path=SolvePath.DIRECT_MINIMIZE,
                                 minimizer_tol=1e-8,
                                 minimizer_max_iters=2000))
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
