import math

import numpy as np
import pytest

from dnsflow import (
    AnalyticVectorField,
    DnsConfig,
    EnergyLedger,
    GridSpec,
    InterpOrder,
    TaylorGreenOracle,
    VelocityField,
    build_energy_ledger,
    check_cumulative_estimate,
    check_step_inequality,
    constant_analytic_field,
    default_test_functions,
    ledger_from_results,
    ledger_to_csv,
    material_derivative_identity,
    max_step_increment,
    monitor_assumption_a,
    norm_l2,
    run,
    stable_within_factor,
    taylor_green_field,
    weak_residual,
)
from dnsflow import analysis
from dnsflow.analysis import LedgerRow
from dnsflow.fields import quadrature_weights, velocity_jacobian
from dnsflow.scheme import Trajectory


@pytest.fixture(scope="module")
def tg_mini_run(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=0.025, T=0.2, grid=periodic32,
                    interp_order=InterpOrder.CUBIC)
    return run(a, cfg)


@pytest.fixture(scope="module")
def zero_run(periodic32):
    cfg = DnsConfig(h=0.05, T=0.2, grid=periodic32)
    return run(VelocityField.zeros(periodic32), cfg)


# ---------------------------------------------------------------------------
# energy ledger

def test_zero_trajectory_ledger(zero_run):
    ledger = build_energy_ledger(zero_run)
    assert len(ledger) == 4
    for row in ledger.rows:
        assert row.kinetic_shifted == 0.0
        assert row.kinetic_plain == 0.0
        assert row.dirichlet == 0.0
        assert row.fitted_c == 0.0
    rep = check_step_inequality(ledger)
    assert rep.all_hold
    assert rep.max_fitted_c == 0.0


def test_ledger_builders_agree(small_run):
    # the step records and the recomputation from snapshots evaluate the
    # same terms with the same operations: every row agrees exactly
    fast = ledger_from_results(small_run)
    slow = build_energy_ledger(small_run)
    assert len(fast) == len(slow) == len(small_run.results)
    assert fast.initial_dirichlet == slow.initial_dirichlet
    assert fast.rows == slow.rows


def test_ledger_terms_finite_nonnegative(tg_mini_run):
    ledger = build_energy_ledger(tg_mini_run)
    assert len(ledger) == len(tg_mini_run.results)
    for row in ledger.rows:
        assert row.kinetic_shifted >= 0.0
        assert row.kinetic_plain >= 0.0
        assert row.dirichlet >= 0.0
        assert math.isfinite(row.fitted_c)


def test_ledger_csv_shape(tg_mini_run):
    text = ledger_to_csv(build_energy_ledger(tg_mini_run))
    lines = text.strip().split("\n")
    assert lines[0] == "n,t,kinetic_shifted,kinetic_plain,dirichlet,fitted_c"
    assert len(lines) == 1 + len(tg_mini_run.results)
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(0.025)


# ---------------------------------------------------------------------------
# per-step inequality

def test_taylor_green_strictly_dissipates(tg_mini_run):
    rep = check_step_inequality(build_energy_ledger(tg_mini_run))
    assert rep.all_hold
    assert rep.max_fitted_c == 0.0


def test_heat_flow_regime_small_constant(periodic32):
    # advection scaled to irrelevance: pure diffusion strictly dissipates
    oracle = TaylorGreenOracle(amplitude=1e-6)
    a, _ = taylor_green_field(0.0, periodic32, oracle)
    cfg = DnsConfig(h=0.0125, T=0.1, grid=periodic32)
    rep = check_step_inequality(build_energy_ledger(run(a, cfg)))
    assert rep.all_hold
    assert rep.max_fitted_c < 0.1


def test_vacuous_failure_detected():
    row = LedgerRow(n=1, t=0.1, kinetic_shifted=1.0, kinetic_plain=1.0,
                    dirichlet=0.5, dirichlet_prev=0.0, fitted_c=math.inf)
    ledger = EnergyLedger((row,), initial_dirichlet=0.0)
    rep = check_step_inequality(ledger)
    assert not rep.all_hold
    assert rep.rows[0].vacuous_failure


def _overflowed_ledger():
    """Rows as an overflowing run leaves them: the energy terms are inf
    and inf - inf made the fitted constant 0."""
    inf = math.inf
    rows = (LedgerRow(n=1, t=0.05, kinetic_shifted=1.0, kinetic_plain=1.0,
                      dirichlet=2.0, dirichlet_prev=4.0, fitted_c=0.0),
            LedgerRow(n=2, t=0.1, kinetic_shifted=inf, kinetic_plain=inf,
                      dirichlet=inf, dirichlet_prev=2.0, fitted_c=0.0))
    return EnergyLedger(rows, initial_dirichlet=4.0)


def test_step_inequality_fails_non_finite_row():
    rep = check_step_inequality(_overflowed_ledger())
    assert [r.holds for r in rep.rows] == [True, False]
    assert not rep.all_hold


def test_cumulative_estimate_fails_non_finite_row_or_bound():
    ledger = _overflowed_ledger()
    assert not check_cumulative_estimate(ledger, 0.1).holds
    first = EnergyLedger(ledger.rows[:1], initial_dirichlet=4.0)
    assert check_cumulative_estimate(first, 0.1).holds
    # an infinite initial energy makes the bound infinite
    huge = EnergyLedger(first.rows, initial_dirichlet=math.inf)
    rep = check_cumulative_estimate(huge, 0.1)
    assert rep.bound == math.inf and not rep.holds
    # so does a growth factor exp(C' T) beyond the double range
    rep = check_cumulative_estimate(first, 1e3)
    assert rep.bound == math.inf and not rep.holds


def test_fitted_c_matches_inequality(tg_mini_run):
    ledger = build_energy_ledger(tg_mini_run)
    h = tg_mini_run.cfg.h
    for row in ledger.rows:
        lhs = row.kinetic_plain + row.dirichlet
        assert lhs <= (1.0 + row.fitted_c * h) * row.dirichlet_prev * (1 + 1e-12)


def test_stability_helper():
    assert stable_within_factor([0.0, 0.0, 0.0])
    assert stable_within_factor([1.0, 1.5, 1.9])
    assert not stable_within_factor([1.0, 2.5])
    assert not stable_within_factor([0.0, 1.0])       # floor vs genuine value
    assert not stable_within_factor([math.inf, 1.0])


def test_fitted_c_stable_under_grid_refinement():
    # a violent large-amplitude flow where the plain kinetic increment
    # genuinely outruns the dissipation (C > 0); the constant must not
    # move under spatial refinement at fixed h
    from dnsflow import random_solenoidal_field
    cs = []
    for cells in (32, 64):
        spec = GridSpec(cells)
        a = random_solenoidal_field(spec, seed=5, k_min=1, k_max=2,
                                    amplitude=32.0)
        cfg = DnsConfig(h=0.005, T=0.025, grid=spec,
                        interp_order=InterpOrder.CUBIC)
        ledger = build_energy_ledger(run(a, cfg))
        cs.append(check_step_inequality(ledger).max_fitted_c)
    assert cs[0] > 0.1          # non-degenerate regime
    assert stable_within_factor(cs, factor=2.0)


# ---------------------------------------------------------------------------
# cumulative estimate

def test_cumulative_zero_trajectory(zero_run):
    rep = check_cumulative_estimate(build_energy_ledger(zero_run), 0.2)
    assert rep.holds
    assert rep.max_lhs == 0.0
    assert rep.tightest_c == 0.0


def test_cumulative_taylor_green(tg_mini_run):
    ledger = build_energy_ledger(tg_mini_run)
    rep = check_cumulative_estimate(ledger, tg_mini_run.final_time)
    assert rep.holds
    assert rep.c_prime == 1.0            # C = 0 for a dissipating flow
    assert rep.max_lhs <= rep.bound
    # the tightest constant reproduces the left side
    T = tg_mini_run.final_time
    assert rep.tightest_c * math.exp(rep.tightest_c * T) * ledger.initial_dirichlet \
        == pytest.approx(rep.max_lhs, rel=1e-9)


def test_cumulative_single_step_reduces_to_first_row(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=0.05, T=0.05, grid=periodic32)
    traj = run(a, cfg)
    ledger = build_energy_ledger(traj)
    assert len(ledger) == 1
    step = check_step_inequality(ledger)
    cum = check_cumulative_estimate(ledger, traj.final_time)
    assert step.all_hold and cum.holds
    row = ledger.rows[0]
    assert cum.max_lhs == pytest.approx(row.kinetic_shifted
                                        + 0.5 * row.dirichlet)


# ---------------------------------------------------------------------------
# gradient scaling monitor

def test_assumption_a_zero_datum(periodic32):
    trajs = []
    for h in (0.05, 0.025):
        cfg = DnsConfig(h=h, T=0.1, grid=periodic32)
        trajs.append(run(VelocityField.zeros(periodic32), cfg))
    rep = monitor_assumption_a(trajs)
    assert rep.alpha == 0.0
    assert rep.max_gradients == (0.0, 0.0)


def test_assumption_a_taylor_green_bounded(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    trajs = [run(a, DnsConfig(h=h, T=0.1, grid=periodic32,
                              interp_order=InterpOrder.CUBIC))
             for h in (0.05, 0.025, 0.0125)]
    rep = monitor_assumption_a(trajs)
    assert abs(rep.alpha) < 0.15
    assert rep.within_assumption


def test_assumption_a_needs_a_ladder(tg_mini_run):
    with pytest.raises(ValueError):
        monitor_assumption_a([tg_mini_run])


# ---------------------------------------------------------------------------
# material-derivative identity

def test_material_derivative_constant_exact(periodic64):
    fld = constant_analytic_field(0.7, -0.3)
    for m, h in ((2, 0.5), (8, 0.1), (64, 1e-3)):
        assert material_derivative_identity(fld, h, m, periodic64) == 0.0


def test_material_derivative_quadrature_order(periodic64):
    fld = TaylorGreenOracle().as_analytic_field(0.0)
    r8 = material_derivative_identity(fld, 1e-2, 8, periodic64)
    r16 = material_derivative_identity(fld, 1e-2, 16, periodic64)
    assert r8 / r16 >= 3.5


def test_material_derivative_analytic_floor(periodic64):
    # single-mode shear field, fully analytic evaluation; the measured
    # float64 floor at M = 64 sits a small factor above 1e-12
    fld = AnalyticVectorField(
        value=lambda x, y: (np.sin(x), np.zeros_like(x)),
        jacobian=lambda x, y: ((np.cos(x), np.zeros_like(x)),
                               (np.zeros_like(x), np.zeros_like(x))))
    assert material_derivative_identity(fld, 3e-4, 64, periodic64) < 5e-12


def test_material_derivative_validates_args(periodic32):
    fld = constant_analytic_field(1.0, 0.0)
    with pytest.raises(ValueError):
        material_derivative_identity(fld, 0.1, 1, periodic32)
    with pytest.raises(ValueError):
        material_derivative_identity(fld, -0.1, 8, periodic32)


# ---------------------------------------------------------------------------
# time increments

def test_max_step_increment(tg_mini_run):
    m = max_step_increment(tg_mini_run)
    direct = max(norm_l2(tg_mini_run.snapshots[n] - tg_mini_run.snapshots[n - 1])
                 for n in range(1, len(tg_mini_run.snapshots)))
    assert m == direct > 0.0


# ---------------------------------------------------------------------------
# test functions and weak residual

def test_test_function_library(periodic32):
    phis = default_test_functions()
    assert len(phis) >= 5
    assert len({phi.modes for phi in phis}) == len(phis)
    for phi in phis:
        assert phi.label.endswith("* bump")
        val, jac = phi.on_grid(periodic32)
        assert val.shape == (2, 32, 32)
        assert jac.shape == (2, 2, 32, 32)
        assert np.max(np.abs(jac[0, 0] + jac[1, 1])) == 0.0
        # the analytic Jacobian is the derivative of the sampled field
        spectral = velocity_jacobian(VelocityField(periodic32, val))
        assert np.max(np.abs(spectral - jac)) < 1e-11


def test_weak_residual_zero_trajectory(zero_run):
    phi = analysis.TestFunction(((1, 1, 1.0),))
    (rep,) = weak_residual(zero_run, [phi])
    assert rep.linear_residual == 0.0
    assert rep.nonlinear_residual == 0.0


def test_weak_residual_steady_trajectory(periodic32):
    # phi vanishes at t = 0 and at the trajectory's own final time
    # floor(T/h) h = 0.2 (not at T = 0.22), so a time-constant v leaves
    # only int eta dt <Dv, D psi>, with int eta = 8 (0.2) / 15
    a, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=0.05, T=0.22, grid=periodic32)
    steady = Trajectory(cfg=cfg, snapshots=[a] * 5, results=[])
    assert steady.final_time == pytest.approx(0.2)
    phi = analysis.TestFunction(((1, 1, 1.0), (3, 1, 0.6)))
    _, dpsi = phi.on_grid(periodic32)
    w = quadrature_weights(periodic32)
    dv_dpsi = float(np.sum(w * velocity_jacobian(a) * dpsi))
    assert abs(dv_dpsi) > 1.0
    (rep,) = weak_residual(steady, [phi])
    assert rep.linear_residual == pytest.approx(8.0 * 0.2 / 15.0 * dv_dpsi,
                                                rel=1e-12)


def test_weak_residual_linear_in_phi(tg_mini_run):
    alpha = 1.7
    phis = [analysis.TestFunction(modes)
            for modes in (((1, 1, 1.0),), ((3, 1, 1.0),),
                          ((1, 1, alpha), (3, 1, 1.0)))]
    ra, rb, rc = (rep.linear_residual
                  for rep in weak_residual(tg_mini_run, phis))
    scale = abs(alpha * ra) + abs(rb)
    assert abs(rc - (alpha * ra + rb)) < 1e-12 * max(scale, 1.0)


def test_weak_residual_shrinks_with_h(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    T = 0.2
    phis = default_test_functions()
    res = []
    for h in (0.025, 0.0125):
        traj = run(a, DnsConfig(h=h, T=T, grid=periodic32,
                                interp_order=InterpOrder.CUBIC))
        res.append([abs(rep.linear_residual)
                    for rep in weak_residual(traj, phis)])
    for r_coarse, r_fine in zip(res[0], res[1]):
        assert r_fine < r_coarse
