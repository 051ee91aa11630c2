import math

import numpy as np
import pytest

from dnsflow import (
    AnalyticVectorField,
    BoundaryCondition,
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
    random_solenoidal_field,
    run,
    stable_within_factor,
    taylor_green_field,
    weak_residual,
)
from dnsflow import analysis, fields, scheme
from dnsflow.analysis import LedgerRow, snapshot_pass
from dnsflow.fields import (
    grad_norm_sq,
    inner_product_l2,
    quadrature_weights,
    velocity_jacobian,
)
from dnsflow.scheme import CollectingSink, Trajectory, energy_terms
from dnsflow.scheme import backtrace as scheme_backtrace

from conftest import collected_run, random_velocity


@pytest.fixture(scope="module")
def tg_mini_run(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=0.025, T=0.2, grid=periodic32,
                    interp_order=InterpOrder.CUBIC)
    return collected_run(a, cfg)


@pytest.fixture(scope="module")
def zero_run(periodic32):
    cfg = DnsConfig(h=0.05, T=0.2, grid=periodic32)
    return collected_run(VelocityField.zeros(periodic32), cfg)


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


# The ledger builder as it stood when every row was recomputed from the
# snapshots, copied verbatim: the reference the record-reusing builder
# must match to the bit.

def _reference_assemble(traj, steps):
    h = traj.cfg.h
    rows = []
    initial = dirichlet_prev = grad_norm_sq(traj.snapshots[0])
    for n, (v, kin_s, dirichlet) in enumerate(steps, start=1):
        dp = v - traj.snapshots[n - 1]
        kin_p = inner_product_l2(dp, dp) / (2.0 * h)
        c = analysis._fitted_c(kin_p, dirichlet, dirichlet_prev)
        if math.isfinite(c):
            c = c / h
        rows.append(LedgerRow(n=n, t=n * h, kinetic_shifted=kin_s,
                              kinetic_plain=kin_p, dirichlet=dirichlet,
                              dirichlet_prev=dirichlet_prev, fitted_c=c))
        dirichlet_prev = dirichlet
    return EnergyLedger(tuple(rows), initial)


def reference_ledger(traj):
    h, order = traj.cfg.h, traj.cfg.interp_order
    snaps = traj.snapshots
    return _reference_assemble(traj, (
        (v, *energy_terms(v, scheme_backtrace(v_prev, h, order), h))
        for v_prev, v in zip(snaps, snaps[1:])))


@pytest.fixture
def count_backtraces(monkeypatch):
    """Counts the ledger's back-traces through its module binding."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return scheme_backtrace(*args, **kwargs)

    monkeypatch.setattr(analysis, "backtrace", counted)
    return calls


def test_ledger_builders_agree(small_run):
    # on every backend, path and order the rows from the step records
    # equal the recomputation from the snapshots exactly
    ref = reference_ledger(small_run)
    ledger = build_energy_ledger(small_run)
    assert len(ledger) == len(ref) == len(small_run.records)
    assert ledger.initial_dirichlet == ref.initial_dirichlet
    assert ledger.rows == ref.rows


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda b: b.value)
def test_ledger_from_records_equals_collected_ledger(bc):
    # the box datum is projected: the records' ledger must start from the
    # datum the run stepped from, as the collected trajectory does, not
    # from the one it was given
    spec = GridSpec(16, bc=bc)
    cfg = DnsConfig(h=0.0125, T=0.05, grid=spec, nu=0.7,
                    interp_order=InterpOrder.CUBIC)
    a = random_solenoidal_field(spec, seed=17)
    sink = CollectingSink()
    summary = run(a, cfg, sinks=[sink])
    traj = sink.trajectory(summary)
    assert summary.projected_initial == (not spec.is_periodic)
    from_records = ledger_from_results(summary)
    collected = build_energy_ledger(traj)
    ref = reference_ledger(traj)
    assert len(from_records) == len(collected) == len(ref) == cfg.n_steps
    assert (from_records.initial_dirichlet == collected.initial_dirichlet
            == ref.initial_dirichlet)
    for row, other, expected in zip(from_records.rows, collected.rows,
                                    ref.rows):
        assert row == other == expected


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_with_snapshot_clears_exactly_the_touched_records(tg_mini_run,
                                                          where):
    traj = tg_mini_run
    snaps, records = traj.snapshots, traj.records
    initial = traj.initial_dirichlet
    last = len(snaps) - 1
    k = {"first": 0, "middle": last // 2, "last": last}[where]
    faulty = -snaps[k]
    edited = traj.with_snapshot(k, faulty)
    # the steps touching snapshot k are k (ending there) and k + 1
    # (starting there); every other record is the run's own
    assert [r is None for r in edited.records] == [
        n in (k, k + 1) for n in range(1, last + 1)]
    assert all(e is r for e, r in zip(edited.records, records)
               if e is not None)
    assert [e is s for e, s in zip(edited.snapshots, snaps)] == [
        n != k for n in range(last + 1)]
    assert edited.snapshots[k] is faulty
    assert edited.initial_dirichlet == (None if k == 0 else initial)
    # the original is unchanged, and neither can be edited in place
    assert traj.snapshots is snaps and traj.records is records
    assert traj.initial_dirichlet == initial is not None
    assert None not in records
    for t in (traj, edited):
        with pytest.raises(TypeError):
            t.snapshots[k] = faulty
        # one record per step
        for wrong in (t.records[:-1], t.records + (None,)):
            with pytest.raises(ValueError):
                Trajectory(cfg=t.cfg, snapshots=t.snapshots, records=wrong)
    with pytest.raises(IndexError):
        traj.with_snapshot(-1, faulty)


def test_ledger_reuses_records_on_untouched_run(tg_mini_run,
                                                count_backtraces):
    ledger = build_energy_ledger(tg_mini_run)
    assert count_backtraces == []
    assert ledger.rows == reference_ledger(tg_mini_run).rows


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_ledger_recomputes_exactly_the_edited_steps(tg_mini_run,
                                                    count_backtraces, where):
    last = len(tg_mini_run.snapshots) - 1
    k = {"first": 0, "middle": last // 2, "last": last}[where]
    traj = tg_mini_run.with_snapshot(k, -tg_mini_run.snapshots[k])
    ledger = build_energy_ledger(traj)
    # the steps touching snapshot k are k (ending there) and k + 1
    # (starting there): each back-traces its own start once
    touched = [n for n in (k, k + 1) if 1 <= n <= last]
    assert len(count_backtraces) == len(touched)
    assert [id(v) for v in count_backtraces] == [id(traj.snapshots[n - 1])
                                                 for n in touched]
    assert ledger.rows == reference_ledger(traj).rows
    clean = build_energy_ledger(tg_mini_run).rows
    for n in range(1, last + 1):
        assert (ledger.rows[n - 1].kinetic_shifted
                == clean[n - 1].kinetic_shifted) == (n not in touched)


def test_ledger_reads_the_runs_datum_energy_until_it_is_replaced(
        tg_mini_run, monkeypatch):
    calls = []

    def counted(v):
        calls.append(v)
        return grad_norm_sq(v)

    monkeypatch.setattr(analysis, "grad_norm_sq", counted)
    traj = tg_mini_run
    assert build_energy_ledger(traj).initial_dirichlet == grad_norm_sq(
        traj.snapshots[0])
    assert calls == []
    # a replaced snapshot 0 (verify --inject-fault 0) is recomputed
    traj = traj.with_snapshot(0, -traj.snapshots[0])
    ledger = build_energy_ledger(traj)
    assert [id(v) for v in calls] == [id(traj.snapshots[0])]
    assert ledger.initial_dirichlet == reference_ledger(traj).initial_dirichlet


def test_ledger_without_records_recomputes_every_step(periodic32,
                                                      count_backtraces):
    a, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=0.05, T=0.2, grid=periodic32)
    steady = Trajectory(cfg=cfg, snapshots=[a] * 5, records=(None,) * 4)
    ledger = build_energy_ledger(steady)
    assert len(count_backtraces) == 4
    assert len(ledger) == 4
    assert ledger.rows == reference_ledger(steady).rows


def test_ledger_terms_finite_nonnegative(tg_mini_run):
    ledger = build_energy_ledger(tg_mini_run)
    assert len(ledger) == len(tg_mini_run.records)
    for row in ledger.rows:
        assert row.kinetic_shifted >= 0.0
        assert row.kinetic_plain >= 0.0
        assert row.dirichlet >= 0.0
        assert math.isfinite(row.fitted_c)


def test_ledger_csv_shape(tg_mini_run):
    text = ledger_to_csv(build_energy_ledger(tg_mini_run))
    lines = text.strip().split("\n")
    assert lines[0] == "n,t,kinetic_shifted,kinetic_plain,dirichlet,fitted_c"
    assert len(lines) == 1 + len(tg_mini_run.records)
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
    rep = check_step_inequality(ledger_from_results(run(a, cfg)))
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
    # a growth factor exp(C' T) beyond the double range makes it infinite
    # too, but with finite terms the estimate is decided in logarithms
    rep = check_cumulative_estimate(first, 1e3)
    assert rep.bound == math.inf and rep.holds


def _cumulative_before_logs(ledger, T):
    """check_cumulative_estimate as it stood before overflowing bounds were
    compared in logarithms, copied verbatim: the reference wherever its
    bound is finite."""
    e0 = ledger.initial_dirichlet
    step_report = check_step_inequality(ledger)
    c_prime = max(step_report.max_fitted_c, 1.0)
    lhs = 0.0
    max_lhs = 0.0
    kin_sum = 0.0
    for r in ledger.rows:
        kin_sum += r.kinetic_shifted
        lhs = kin_sum + 0.5 * r.dirichlet
        max_lhs = max(max_lhs, lhs)
    if not math.isfinite(c_prime):
        return analysis.CumulativeReport(False, c_prime, math.inf, max_lhs)
    bound = analysis._growth(c_prime, T) * e0
    finite = (all(map(analysis._terms_finite, ledger.rows))
              and all(map(math.isfinite, (e0, max_lhs, bound))))
    holds = finite and (max_lhs <= bound or max_lhs == 0.0)
    return analysis.CumulativeReport(holds, c_prime, bound, max_lhs)


def _one_row_ledger(kinetic, dirichlet, fitted_c, e0):
    row = LedgerRow(n=1, t=0.1, kinetic_shifted=kinetic, kinetic_plain=kinetic,
                    dirichlet=dirichlet, dirichlet_prev=e0, fitted_c=fitted_c)
    return EnergyLedger((row,), initial_dirichlet=e0)


def test_cumulative_estimate_unchanged_where_bound_is_finite():
    finite_cases = 0
    for e0 in (0.0, 1e-300, 0.5, 4.0, 1e300, math.inf, math.nan):
        for kinetic in (0.0, 1.0, 1e200, 1e308, math.inf):
            for c in (0.0, 3.0, 700.0, math.inf):
                for T in (0.1, 1.0, 2.0):
                    ledger = _one_row_ledger(kinetic, 1.0, c, e0)
                    old = _cumulative_before_logs(ledger, T)
                    if math.isfinite(old.bound):
                        finite_cases += 1
                        assert check_cumulative_estimate(ledger, T) == old
    assert finite_cases > 100


def test_cumulative_estimate_compares_overflowing_bound_in_logs():
    # a 16^2 Taylor-Green torus at amplitude 1e152: C' e^{C' T} E_0 ~ 1.7e312
    # lies beyond the double range, far above the accumulated energy
    spec = GridSpec(16)
    a, _ = taylor_green_field(0.0, spec, TaylorGreenOracle(amplitude=1e152))
    summary = run(a, DnsConfig(h=0.05, T=0.1, grid=spec))
    rep = check_cumulative_estimate(ledger_from_results(summary),
                                    summary.final_time)
    assert rep.holds
    assert rep.bound == math.inf
    assert f"{rep.max_lhs:.6e}" == "1.370831e+306"
    assert f"{rep.c_prime:.6e}" == "1.059897e+02"


def test_cumulative_estimate_fails_in_range():
    # the bound 1 * e^{0.1} * 4 is finite and the left side 101 exceeds it
    ledger = _one_row_ledger(100.0, 2.0, 0.0, 4.0)
    rep = check_cumulative_estimate(ledger, 0.1)
    assert rep.bound == math.exp(0.1) * 4.0
    assert rep.max_lhs == 101.0 and not rep.holds


def test_cumulative_estimate_zero_datum_with_overflowing_growth():
    # e^{C' T} overflows, but with E_0 = 0 the bound is 0: only a zero
    # left side meets it (the product in floating point is inf * 0 = nan)
    for kinetic, holds in ((0.0, True), (1.0, False)):
        ledger = _one_row_ledger(kinetic, 0.0, 0.0, 0.0)
        rep = check_cumulative_estimate(ledger, 1e3)
        assert rep.bound == 0.0 and rep.holds == holds


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
        ledger = ledger_from_results(run(a, cfg))
        cs.append(check_step_inequality(ledger).max_fitted_c)
    assert cs[0] > 0.1          # non-degenerate regime
    assert stable_within_factor(cs, factor=2.0)


# ---------------------------------------------------------------------------
# cumulative estimate

def test_cumulative_zero_trajectory(zero_run):
    rep = check_cumulative_estimate(build_energy_ledger(zero_run), 0.2)
    assert rep.holds
    assert rep.max_lhs == 0.0


def test_cumulative_taylor_green(tg_mini_run):
    ledger = build_energy_ledger(tg_mini_run)
    rep = check_cumulative_estimate(ledger, tg_mini_run.final_time)
    assert rep.holds
    assert rep.c_prime == 1.0            # C = 0 for a dissipating flow
    assert rep.max_lhs <= rep.bound


def test_cumulative_single_step_reduces_to_first_row(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    cfg = DnsConfig(h=0.05, T=0.05, grid=periodic32)
    summary = run(a, cfg)
    ledger = ledger_from_results(summary)
    assert len(ledger) == 1
    step = check_step_inequality(ledger)
    cum = check_cumulative_estimate(ledger, summary.final_time)
    assert step.all_hold and cum.holds
    row = ledger.rows[0]
    assert cum.max_lhs == pytest.approx(row.kinetic_shifted
                                        + 0.5 * row.dirichlet)


# ---------------------------------------------------------------------------
# gradient scaling monitor

def _monitor(trajs):
    return monitor_assumption_a([t.cfg.h for t in trajs],
                                [snapshot_pass(t).max_gradient for t in trajs])


def test_assumption_a_zero_datum(periodic32):
    trajs = []
    for h in (0.05, 0.025):
        cfg = DnsConfig(h=h, T=0.1, grid=periodic32)
        trajs.append(collected_run(VelocityField.zeros(periodic32), cfg))
    rep = _monitor(trajs)
    assert rep.alpha == 0.0
    assert rep.max_gradients == (0.0, 0.0)


def test_assumption_a_taylor_green_bounded(periodic32):
    a, _ = taylor_green_field(0.0, periodic32)
    trajs = [collected_run(a, DnsConfig(h=h, T=0.1, grid=periodic32,
                                        interp_order=InterpOrder.CUBIC))
             for h in (0.05, 0.025, 0.0125)]
    rep = _monitor(trajs)
    assert abs(rep.alpha) < 0.15
    assert rep.within_assumption


def test_assumption_a_needs_a_ladder(tg_mini_run):
    with pytest.raises(ValueError):
        _monitor([tg_mini_run])


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

def _direct_max_increment(traj):
    return max(norm_l2(traj.snapshots[n] - traj.snapshots[n - 1])
               for n in range(1, len(traj.snapshots)))


def test_max_step_increment(tg_mini_run):
    m = max_step_increment(tg_mini_run)
    assert m == _direct_max_increment(tg_mini_run) > 0.0


@pytest.mark.parametrize("k", [0, 4, 8])
def test_max_step_increment_recomputes_only_edited_steps(tg_mini_run,
                                                         monkeypatch, k):
    calls = []

    def counted(a, b):
        calls.append(a)
        return fields.distance_sq(a, b)

    monkeypatch.setattr(analysis, "distance_sq", counted)
    traj = tg_mini_run
    max_step_increment(traj)
    assert calls == []
    # the largest increment is the edited snapshot's, so the result
    # shows that the recomputed steps were read
    traj = traj.with_snapshot(k, -traj.snapshots[k])
    m = max_step_increment(traj)
    last = len(traj.snapshots) - 1
    touched = [n for n in (k, k + 1) if 1 <= n <= last]
    assert [id(v) for v in calls] == [id(traj.snapshots[n]) for n in touched]
    assert m == _direct_max_increment(traj)


@pytest.mark.parametrize("k", [0, 4, 8])
def test_divergence_by_snapshot_recomputes_only_edited_steps(tg_mini_run,
                                                            monkeypatch, k):
    calls = []

    def counted(v):
        calls.append(v)
        return fields._max_div(v)

    monkeypatch.setattr(analysis, "_max_div", counted)
    clean = analysis.divergence_by_snapshot(tg_mini_run)
    assert calls == []
    assert [div for div, _ in clean] == [r.max_divergence
                                         for r in tg_mini_run.records]
    # a random field is far from solenoidal, so the result shows that
    # the recomputed steps were read
    traj = tg_mini_run.with_snapshot(
        k, random_velocity(tg_mini_run.cfg.grid, seed=5))
    edited = analysis.divergence_by_snapshot(traj)
    last = len(traj.snapshots) - 1
    touched = [n for n in (k, k + 1) if 1 <= n <= last]
    assert [id(v) for v in calls] == [id(traj.snapshots[n]) for n in touched]
    for n in range(1, last + 1):
        div = fields._max_div(traj.snapshots[n])
        assert edited[n - 1] == (div, scheme.div_free_bound(traj.snapshots[n]))
        assert (edited[n - 1] == clean[n - 1]) == (n != k)


# ---------------------------------------------------------------------------
# test functions and weak residual

def test_test_function_library(periodic32):
    phis = default_test_functions()
    assert len(phis) >= 5
    assert len({phi.modes for phi in phis}) == len(phis)
    for phi in phis:
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
    steady = Trajectory(cfg=cfg, snapshots=[a] * 5, records=(None,) * 4)
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
        traj = collected_run(a, DnsConfig(h=h, T=T, grid=periodic32,
                                          interp_order=InterpOrder.CUBIC))
        res.append([abs(rep.linear_residual)
                    for rep in weak_residual(traj, phis)])
    for r_coarse, r_fine in zip(res[0], res[1]):
        assert r_fine < r_coarse
