import math
import tracemalloc

import numpy as np
import pytest

from dnsflow import (
    BoundaryCondition,
    DnsConfig,
    GridSpec,
    ScalarField,
    InterpOrder,
    SolvePath,
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
    stream_bump_field,
    taylor_green_field,
)
from dnsflow import scheme
from dnsflow.fields import (
    NonFiniteFieldError,
    _max_div,
    pin_walls,
    velocity_jacobian,
)
from dnsflow.projection import HelmholtzParts
from dnsflow.scheme import CollectingSink, _cg, energy_terms

from conftest import (
    collected_run,
    exactly_solenoidal_box_field,
    failing_cg,
    leaky_minimizer,
    leaky_stokes,
    random_pinned_velocity,
)


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
        pw = leray_project(backtrace(v_prev, h)).solenoidal
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


def _collected_steps(traj):
    """(v_prev, v, w, record) of each step of a collected trajectory. The
    sink keeps no w: it is recomputed as dns_step computes it,
    backtrace(v_prev, h, order), so it is the step's own w to the bit."""
    cfg = traj.cfg
    for v_prev, v, r in zip(traj.snapshots, traj.snapshots[1:], traj.records):
        yield v_prev, v, backtrace(v_prev, cfg.h, cfg.interp_order), r


def test_step_records_its_diagnostics(small_run):
    cfg = small_run.cfg
    for v_prev, v, w, r in _collected_steps(small_run):
        assert r.max_divergence == float(np.max(np.abs(divergence(v).data)))
        assert (r.kinetic_shifted, r.dirichlet) == energy_terms(v, w, cfg.h)
        assert r.functional_value == r.kinetic_shifted + 0.5 * cfg.nu * r.dirichlet
        assert r.functional_value == functional_value(
            v, v_prev, cfg.h, cfg.nu, cfg.interp_order)


def _two_projection_pressure(v, w, h, nu):
    """Reference: the direct path's pressure from a Leray split of its
    own residual h grad(p) = w - v + h nu lap(v)."""
    resid = (w - v) * (1.0 / h) + nu * laplacian(v)
    return leray_project(resid).potential.demeaned()


def _two_projection_el_residual(v, w, h, nu):
    resid = (v - w) * (1.0 / h) - nu * laplacian(v)
    return norm_l2(leray_project(resid).solenoidal)


def _assert_el_residual_near_split(traj):
    # the el_residual gates of the step invariant tests: 1e-9 on the
    # torus, 1e-8 on the box
    cfg = traj.cfg
    tol = 1e-9 if cfg.grid.is_periodic else 1e-8
    for _, v, w, r in _collected_steps(traj):
        split = _two_projection_el_residual(v, w, cfg.h, cfg.nu)
        assert abs(r.el_residual - split) <= tol


def test_el_residual_matches_leray_split(small_run):
    # the Euler-Lagrange path reports its solve's momentum residual / h,
    # which bounds the split of (v - w)/h - nu lap(v) from above; on the
    # direct path the two are the same split
    _assert_el_residual_near_split(small_run)


def test_el_residual_matches_leray_split_box64():
    spec = GridSpec(64, bc=BoundaryCondition.DIRICHLET_ZERO)
    cfg = DnsConfig(h=0.0125, T=0.0125, grid=spec)
    traj = collected_run(random_solenoidal_field(spec, seed=41), cfg)
    _assert_el_residual_near_split(traj)


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda b: b.value)
def test_el_step_runs_no_leray_split(bc, monkeypatch):
    def no_split(u):
        raise AssertionError("leray_project called on the Euler-Lagrange path")

    monkeypatch.setattr(scheme, "leray_project", no_split)
    monkeypatch.setattr(scheme, "_cg", failing_cg)
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
    traj = collected_run(random_solenoidal_field(spec, seed=23), cfg)
    for v_prev, v, r in zip(traj.snapshots, traj.snapshots[1:],
                            traj.records):
        # the sink keeps no p: redo the step, which is deterministic; the
        # step's w is the back-trace of v_prev, bitwise
        res = dns_step(v_prev, cfg)
        w = backtrace(v_prev, cfg.h, cfg.interp_order)
        assert np.array_equal(res.v.data, v.data)
        assert res.record() == r
        assert r.path_disagreement is not None
        assert np.array_equal(
            res.p.data, _two_projection_pressure(v, w, cfg.h, cfg.nu).data)
        assert r.el_residual == _two_projection_el_residual(v, w, cfg.h,
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
# the minimizer's conjugate-gradient loop

def test_cg_gives_up_on_non_finite_residual():
    # r.r that is not positive (NaN here) ends the loop unconverged, as
    # d.Ad <= 0 does; NaN iterates would otherwise run to the cap
    b = np.array([1.0, 2.0])
    x, k, ok = _cg(lambda x: x * np.nan, b, np.zeros(2), 50, 1e-12)
    assert (k, ok) == (0, False)
    assert np.all(x == 0.0)


def test_cg_stops_on_nonpositive_curvature():
    # d.Ad <= 0 (an indefinite or singular operator) ends the loop
    # unconverged with x0 returned; alpha = rr / dAd would otherwise
    # divide by zero or step uphill
    b = np.array([1.0, 2.0])
    for apply_a in (lambda x: -2.0 * x, np.zeros_like):
        x, k, ok = _cg(apply_a, b, np.zeros(2), 50, 1e-12)
        assert (k, ok) == (0, False)
        assert np.all(x == 0.0)


def test_cg_refuses_overflowing_right_hand_side():
    # |b| = inf made tol = inf, met by the first residual: converged
    # after 0 iterations with x0 returned
    b = np.array([1e300, 1e300])
    with np.errstate(over="ignore"):
        x, k, ok = _cg(lambda x: 2.0 * x, b, np.zeros(2), 50, 1e-10)
    assert (k, ok) == (0, False)


# ---------------------------------------------------------------------------
# run

def test_run_zero_datum(periodic32):
    cfg = DnsConfig(h=0.05, T=0.2, grid=periodic32)
    sink = CollectingSink()
    summary = run(VelocityField.zeros(periodic32), cfg, sinks=[sink])
    traj = sink.trajectory(summary)
    assert len(traj.snapshots) == cfg.n_steps + 1
    for snap in traj.snapshots:
        assert np.all(snap.data == 0.0)
    assert not summary.projected_initial


def test_run_projects_dirty_datum(periodic32):
    from conftest import random_velocity
    dirty = random_velocity(periodic32, 21)
    cfg = DnsConfig(h=0.05, T=0.1, grid=periodic32)
    summary = run(dirty, cfg)
    assert summary.projected_initial
    assert np.max(np.abs(divergence(summary.initial).data)) < 1e-11


def test_run_streams_to_sinks(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=0.05, T=0.2, grid=periodic32)
    seen = []
    run(a, cfg, sinks=[lambda n, res: seen.append(n)])
    assert seen == [1, 2, 3, 4]


def test_run_memory_does_not_grow_with_steps():
    # with no collecting sink a run keeps its step records, the datum and
    # the final field: 40 steps retain no more than 20 steps and a field
    spec = GridSpec(128)
    a = random_solenoidal_field(spec, seed=5)
    h = 2.0 ** -7

    def retained(n_steps):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            summary = run(a, DnsConfig(h=h, T=n_steps * h, grid=spec))
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(summary.records) == n_steps
        assert summary.initial is a
        return kept

    run(a, DnsConfig(h=h, T=h, grid=spec))   # builds the cached symbols
    assert retained(40) <= retained(20) + a.data.nbytes


def test_run_matches_floor_step_count(periodic32):
    cfg = DnsConfig(h=0.15, T=0.5, grid=periodic32)   # T/h not integral
    assert cfg.n_steps == 3
    a, _ = taylor_green_field(0.0, periodic32)
    summary = run(a, cfg)
    assert summary.final_time == pytest.approx(0.45)
    assert len(summary.records) == 3


def test_run_is_deterministic(periodic32):
    a = random_solenoidal_field(periodic32, seed=12)
    cfg = DnsConfig(h=0.025, T=0.1, grid=periodic32,
                    interp_order=InterpOrder.CUBIC)
    t1 = collected_run(a, cfg)
    t2 = collected_run(a, cfg)
    for s1, s2 in zip(t1.snapshots, t2.snapshots):
        assert np.array_equal(s1.data, s2.data)


def test_run_mini_ladder_errors_shrink(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    errs = []
    for h in (0.05, 0.025):
        cfg = DnsConfig(h=h, T=0.2, grid=periodic32,
                        interp_order=InterpOrder.CUBIC)
        summary = run(a, cfg)
        exact, _ = taylor_green_field(summary.final_time, periodic32)
        errs.append(norm_l2(summary.final - exact))
    assert errs[1] < errs[0]


def test_run_dirichlet_energy_decays_taylor_green(periodic32):
    from dnsflow import grad_norm_sq
    a, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=0.025, T=0.2, grid=periodic32,
                    interp_order=InterpOrder.CUBIC)
    traj = collected_run(a, cfg)
    energies = [grad_norm_sq(v) for v in traj.snapshots]
    assert all(e2 <= e1 for e1, e2 in zip(energies, energies[1:]))


def _large_box_run():
    """A 16^2 unit box datum with exactly zero discrete divergence and
    samples near 1e8, which passes run's gate unprojected, and a step so
    short that the back-trace keeps it."""
    spec = GridSpec(16, extent=1.0, bc=BoundaryCondition.DIRICHLET_ZERO)
    h = 2.0 ** -40
    return (exactly_solenoidal_box_field(spec, 3, 2.0 ** 20),
            DnsConfig(h=h, T=2 * h, grid=spec))


def test_box_step_certifies_divergence_relative_to_field():
    # the step's solve leaves roundoff divergence ~1e-6, above the box's
    # DIV_FREE_BOUND 1e-8, which a fixed bound would fail; measured
    # 5.0e-16 max |v| / dx
    a, cfg = _large_box_run()
    assert np.max(np.abs(divergence(a).data)) == 0.0
    sink = CollectingSink()
    summary = run(a, cfg, sinks=[sink])
    assert not summary.projected_initial
    for v, r in zip(sink.velocities, summary.records):
        assert r.max_divergence > scheme.DIV_FREE_BOUND[cfg.grid.bc]
        assert (r.max_divergence
                <= 1e-15 * np.max(np.abs(v.data)) / cfg.grid.spacing)


def test_torus_run_certifies_large_amplitude_field():
    # amplitude 1e4 at 256^2: the steps leave max |div v| ~5e-10, above
    # the torus's DIV_FREE_BOUND 1e-10 but roundoff for the field's size
    spec = GridSpec(256)
    a = leray_project(random_solenoidal_field(spec, seed=7,
                                              amplitude=1e4)).solenoidal
    summary = run(a, DnsConfig(h=1e-5, T=2e-5, grid=spec))
    assert (max(r.max_divergence for r in summary.records)
            > scheme.DIV_FREE_BOUND[spec.bc])


@pytest.mark.parametrize("path, solve, leaky", [
    (SolvePath.EULER_LAGRANGE, "solve_implicit_stokes", leaky_stokes),
    (SolvePath.DIRECT_MINIMIZE, "_minimize_projected_cg", leaky_minimizer),
], ids=["euler_lagrange", "direct_minimize"])
@pytest.mark.parametrize("bc", list(BoundaryCondition),
                         ids=lambda bc: bc.value)
def test_dns_step_fails_uncertifiable_divergence(bc, path, solve, leaky,
                                                 monkeypatch):
    # an exact solve leaves roundoff divergence within its bound at every
    # amplitude, so a faulty stand-in for each path's solve drives the
    # failure: the step measures the v it keeps, not the solve's report
    spec = GridSpec(32, bc=bc)
    a = leray_project(random_solenoidal_field(spec, seed=2)).solenoidal
    cfg = DnsConfig(h=0.0125, T=0.025, grid=spec, path=path)
    assert dns_step(a, cfg).max_divergence <= scheme.div_free_bound(a)
    monkeypatch.setattr(scheme, solve, leaky)
    with pytest.raises(SolverFailure,
                       match="max divergence .* above its bound"):
        dns_step(a, cfg)


def test_run_aborts_with_step_index(dirichlet32, monkeypatch):
    a = leray_project(random_solenoidal_field(dirichlet32, seed=2)).solenoidal
    monkeypatch.setattr(scheme, "solve_implicit_stokes", leaky_stokes)
    with pytest.raises(SolverFailure) as err:
        run(a, DnsConfig(h=0.0125, T=0.025, grid=dirichlet32))
    assert err.value.step == 1
    assert "the step's solve leaves max divergence" in str(err.value)


@pytest.mark.parametrize("path", list(SolvePath))
def test_run_wraps_minimizer_failure_with_step_index(dirichlet32, monkeypatch,
                                                     path):
    a = leray_project(random_solenoidal_field(dirichlet32, seed=2)).solenoidal
    monkeypatch.setattr(scheme, "_cg", failing_cg)
    # an Euler-Lagrange step minimizes only in its direct-path cross-check
    cfg = DnsConfig(h=0.0125, T=0.05, grid=dirichlet32, path=path,
                    cross_check=True)
    with pytest.raises(SolverFailure) as err:
        run(a, cfg)
    assert err.value.step == 1
    assert isinstance(err.value.__cause__, SolverFailure)
    assert "minimizer did not converge" in str(err.value)


@pytest.mark.parametrize("amplitude, reason", [
    # the projection is exact, but the energy of what it returns overflows
    (1e300, "the datum's energies are non-finite"),
    # max |a| / dx overflows, so the datum's divergence has no bound
    (1e307, "max |v| / dx is non-finite"),
])
def test_run_wraps_initial_overflow_with_step_0(amplitude, reason):
    spec = GridSpec(16, extent=1.0, bc=BoundaryCondition.DIRICHLET_ZERO)
    a = stream_bump_field(spec) * amplitude
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverFailure) as err:
            run(a, DnsConfig(h=0.0125, T=0.05, grid=spec))
    assert err.value.step == 0
    assert isinstance(err.value.__cause__, NonFiniteFieldError)
    assert reason in str(err.value)


@pytest.mark.parametrize("exponent", [990, 503])
def test_run_checks_unprojected_datum_energies_at_step_0(exponent):
    # an exactly solenoidal datum passes the gate unprojected; at 2^990
    # int |a|^2 and int |Da|^2 both overflow, at 2^503 only int |Da|^2
    # (int |a|^2 = 3.06e306). Its back-trace leaves the box, so each step
    # would return v = 0 and the run would end with an infinite bound
    spec = GridSpec(16, extent=1.0, bc=BoundaryCondition.DIRICHLET_ZERO)
    a = exactly_solenoidal_box_field(spec, 3, 2.0 ** exponent)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _max_div(a) <= scheme.div_free_bound(a)
        with pytest.raises(SolverFailure) as err:
            run(a, DnsConfig(h=0.0125, T=0.05, grid=spec))
    assert err.value.step == 0
    assert isinstance(err.value.__cause__, NonFiniteFieldError)
    assert "the datum's energies are non-finite" in str(err.value)


def test_run_fails_uncertifiable_projection_at_step_0(dirichlet32,
                                                      monkeypatch):
    # a stand-in projection that returns its input leaves the datum's
    # divergence; the exact one leaves roundoff within the bound
    a = random_pinned_velocity(dirichlet32, 4)
    monkeypatch.setattr(scheme, "leray_project",
                        lambda u: HelmholtzParts(u, ScalarField.zeros(u.spec)))
    with pytest.raises(SolverFailure) as err:
        run(a, DnsConfig(h=0.0125, T=0.025, grid=dirichlet32))
    assert err.value.step == 0
    assert "initial projection leaves max divergence" in str(err.value)


def test_run_gate_scales_with_the_datum(periodic32):
    # a Taylor-Green datum, max |a| / dx = 5.1, plus eps sin(x) in u:
    # max |div a| ~ eps, projected only above its bound 5.1e-10
    a, _ = taylor_green_field(0.0, periodic32)
    x, _ = periodic32.mesh()
    for eps, projected in ((1e-9, True), (2e-10, False)):
        a_eps = a + VelocityField(periodic32, np.stack([eps * np.sin(x),
                                                        np.zeros_like(x)]))
        max_div = np.max(np.abs(divergence(a_eps).data))
        assert 1e-10 < max_div
        assert (max_div > scheme.div_free_bound(a_eps)) == projected
        summary = run(a_eps, DnsConfig(h=0.0125, T=0.0125, grid=periodic32))
        assert summary.projected_initial == projected
        if projected:
            assert np.max(np.abs(divergence(summary.initial).data)) <= 1e-10
        else:
            assert summary.initial is a_eps


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
    the Stokes solve's 2 + 2 transforms and one transform of v (2
    forward), from which both the divergence (1 inverse) and the energy
    are taken, each a single 2-D transform per call; the pressure's one
    inverse transform runs only when p is read, once however often; the
    Jacobian takes one forward and two inverse transforms per component.
    Restoring the physical-space energy, the two-transform divergence, a
    second transform of v, an eager pressure or a batched transform
    changes these counts."""
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
    res = dns_step(v, DnsConfig(h=h, T=h, grid=periodic32,
                                interp_order=InterpOrder.CUBIC))
    assert (fwd.calls, fwd.transforms) == (4, 4)
    assert (inv.calls, inv.transforms) == (3, 3)
    assert res.p is res.p
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
