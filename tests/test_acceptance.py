"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one [acceptance] PASS/FAIL line (visible with -s or on
failure). The Taylor-Green ladder at 64^2 and the dirichlet box run are
shared module fixtures; wall-clock budgets are asserted where stated.
"""

import math
import time

import numpy as np
import pytest

from dnsflow import (
    BoundaryCondition,
    DnsConfig,
    GridSpec,
    InterpOrder,
    SolvePath,
    TaylorGreenOracle,
    backtrace,
    build_energy_ledger,
    check_cumulative_estimate,
    check_step_inequality,
    constant_analytic_field,
    convergence_study,
    default_test_functions,
    divergence,
    dns_step,
    functional_value,
    leray_project,
    material_derivative_identity,
    max_step_increment,
    monitor_assumption_a,
    norm_l2,
    random_solenoidal_field,
    stream_bump_field,
    stable_within_factor,
    taylor_green_field,
    weak_residual,
)
from dnsflow.analysis import snapshot_pass
from dnsflow.cli import main

from conftest import collected_run

LADDER_HS = (1.0 / 40.0, 1.0 / 80.0, 1.0 / 160.0)
T_FINAL = 0.5
GRID64 = GridSpec(64)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tg_ladder():
    a, _ = taylor_green_field(0.0, GRID64)
    trajs = []
    start = time.perf_counter()
    for h in LADDER_HS:
        cfg = DnsConfig(h=h, T=T_FINAL, grid=GRID64,
                        interp_order=InterpOrder.CUBIC)
        trajs.append(collected_run(a, cfg))
    elapsed = time.perf_counter() - start
    ledgers = [build_energy_ledger(t) for t in trajs]
    return trajs, ledgers, elapsed


@pytest.fixture(scope="module")
def dirichlet_run():
    spec = GridSpec(64, bc=BoundaryCondition.DIRICHLET_ZERO)
    a = stream_bump_field(spec)
    cfg = DnsConfig(h=1.0 / 80.0, T=T_FINAL, grid=spec)
    start = time.perf_counter()
    traj = collected_run(a, cfg)
    return traj, time.perf_counter() - start


def test_criterion_1_divergence_constraint(tg_ladder, dirichlet_run):
    trajs, _, _ = tg_ladder
    periodic = trajs[1]           # the h = 1/80 rung
    assert periodic.cfg.h == pytest.approx(1.0 / 80.0)
    worst_p = max(float(np.max(np.abs(divergence(v).data)))
                  for v in periodic.snapshots[1:])
    traj_d, elapsed_d = dirichlet_run
    worst_d = max(float(np.max(np.abs(divergence(v).data)))
                  for v in traj_d.snapshots[1:])
    _report("criterion 1 divergence constraint",
            worst_p < 1e-10 and worst_d < 1e-8 and elapsed_d < 60.0,
            f"periodic={worst_p:.2e} dirichlet={worst_d:.2e} "
            f"dirichlet_runtime={elapsed_d:.1f}s")


def test_criterion_2_per_step_energy_inequality(tg_ladder):
    _, ledgers, elapsed = tg_ladder
    reports = [check_step_inequality(led) for led in ledgers]
    finite_and_hold = all(rep.all_hold and math.isfinite(rep.max_fitted_c)
                          for rep in reports)
    max_cs = [rep.max_fitted_c for rep in reports]
    _report("criterion 2 per-step energy inequality",
            finite_and_hold and stable_within_factor(max_cs, factor=2.0)
            and elapsed < 300.0,
            f"max_C per rung={['%.3e' % c for c in max_cs]} "
            f"ladder_runtime={elapsed:.1f}s")


def test_criterion_3_cumulative_estimate(tg_ladder):
    _, ledgers, _ = tg_ladder
    global_c = max(check_step_inequality(led).max_fitted_c for led in ledgers)
    c_prime = max(global_c, 1.0)
    ok = True
    details = []
    for led in ledgers:
        rep = check_cumulative_estimate(led, T_FINAL)
        bound = c_prime * math.exp(c_prime * T_FINAL) * led.initial_dirichlet
        ok = ok and rep.holds and rep.max_lhs <= bound
        details.append(f"lhs={rep.max_lhs:.3e}<=bound={bound:.3e}")
    _report("criterion 3 cumulative energy estimate", ok, "; ".join(details))


def test_criterion_4_convexity_path_equivalence():
    spec = GridSpec(32)
    h = 0.01
    worst_gap = 0.0
    minimality_ok = True
    for seed in range(10):
        a = random_solenoidal_field(spec, seed=seed)
        el = dns_step(a, DnsConfig(h=h, T=h, grid=spec,
                                   path=SolvePath.EULER_LAGRANGE))
        dm = dns_step(a, DnsConfig(h=h, T=h, grid=spec,
                                   path=SolvePath.DIRECT_MINIMIZE))
        gap = norm_l2(el.v - dm.v) / max(norm_l2(el.v), 1e-300)
        worst_gap = max(worst_gap, gap)
        pw = leray_project(backtrace(a, h)).solenoidal
        comparison = functional_value(pw, a, h)
        minimality_ok = minimality_ok and (el.functional_value
                                           <= comparison + 1e-12)
    _report("criterion 4 convexity / path equivalence",
            worst_gap < 1e-6 and minimality_ok,
            f"worst_rel_gap={worst_gap:.2e} comparison_mapping_never_beats="
            f"{minimality_ok}")


def test_criterion_5_material_derivative_identity():
    tg = TaylorGreenOracle().as_analytic_field(0.0)
    r8 = material_derivative_identity(tg, 1e-2, 8, GRID64)
    r16 = material_derivative_identity(tg, 1e-2, 16, GRID64)
    const = material_derivative_identity(constant_analytic_field(0.7, -0.3),
                                         0.1, 8, GRID64)
    _report("criterion 5 material-derivative identity",
            (r8 / r16) >= 3.5 and const < 1e-12,
            f"M8/M16={r8 / r16:.3f} constant_residual={const:.2e}")


def test_criterion_6_discrete_weak_form(tg_ladder):
    trajs, _, _ = tg_ladder
    phis = default_test_functions()
    assert len(phis) >= 5
    decreasing = True
    reports = [weak_residual(t, phis) for t in trajs]
    for k in range(len(phis)):
        residuals = [abs(rep[k].linear_residual) for rep in reports]
        for a, b in zip(residuals, residuals[1:]):
            decreasing = decreasing and (b < a)
    oracle = TaylorGreenOracle(amplitude=1e-6)
    heat_a, _ = taylor_green_field(0.0, GRID64, oracle)
    heat = collected_run(heat_a, DnsConfig(h=1.0 / 160.0, T=T_FINAL,
                                           grid=GRID64,
                                           interp_order=InterpOrder.CUBIC))
    heat_res = max(abs(rep.linear_residual)
                   for rep in weak_residual(heat, phis))
    _report("criterion 6 discrete weak form",
            decreasing and heat_res < 1e-6,
            f"n_phi={len(phis)} all_decreasing={decreasing} "
            f"heat_flow_residual={heat_res:.2e}")


def test_criterion_7_convergence_to_exact_solution():
    base = DnsConfig(h=LADDER_HS[0], T=T_FINAL, grid=GRID64,
                     interp_order=InterpOrder.CUBIC)
    table = convergence_study(base, hs=LADDER_HS)
    errs = [row.l2_error for row in table.rows]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    orders = [row.order for row in table.rows if row.order is not None]
    _report("criterion 7 convergence to the exact solution",
            monotone and all(o >= 0.9 for o in orders),
            f"errors={['%.3e' % e for e in errs]} "
            f"orders={['%.3f' % o for o in orders]}")


def _monitor(trajs):
    return monitor_assumption_a([t.cfg.h for t in trajs],
                                [snapshot_pass(t).max_gradient for t in trajs])


def test_criterion_8_gradient_scaling_monitor(tg_ladder):
    trajs, _, _ = tg_ladder
    smooth = _monitor(trajs)
    rough_trajs = []
    a = random_solenoidal_field(GRID64, seed=2718, k_min=8, k_max=16)
    for h in (1.0 / 40.0, 1.0 / 80.0, 1.0 / 160.0):
        cfg = DnsConfig(h=h, T=0.1, grid=GRID64)
        rough_trajs.append(collected_run(a, cfg))
    rough = _monitor(rough_trajs)
    rough_finite = (math.isfinite(rough.alpha)
                    and all(math.isfinite(g) for g in rough.max_gradients))
    _report("criterion 8 gradient scaling monitor",
            smooth.alpha <= 0.1 and rough_finite,
            f"smooth_alpha={smooth.alpha:.4f} rough_alpha={rough.alpha:.4f}")


def test_criterion_9_interpolant_consistency(tg_ladder):
    trajs, _, _ = tg_ladder
    increments = [max_step_increment(t) for t in trajs]
    ratios = [increments[i] / increments[i + 1]
              for i in range(len(increments) - 1)]
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    _report("criterion 9 interpolant consistency",
            ok, f"max increments={['%.4e' % m for m in increments]} "
                f"halving ratios={['%.3f' % r for r in ratios]}")


def test_criterion_10_fault_detection(tmp_path):
    cfg_text = (
        "[grid]\ncells = 32\nbc = periodic\n\n"
        "[time]\nh = 0.025\nt = 0.2\n\n"
        "[scheme]\ninterp = cubic\n\n"
        "[initial]\nkind = taylor_green\n\n"
        "[ladder]\nh = 0.05, 0.025, 0.0125\n"
    )
    cfg_path = tmp_path / "ladder.cfg"
    cfg_path.write_text(cfg_text)
    clean = main(["verify", "--config", str(cfg_path),
                  "--out", str(tmp_path / "clean")])
    faulty = main(["verify", "--config", str(cfg_path),
                   "--out", str(tmp_path / "faulty"), "--inject-fault", "2"])
    _report("criterion 10 fault detection",
            clean == 0 and faulty != 0,
            f"clean_exit={clean} corrupted_exit={faulty}")
