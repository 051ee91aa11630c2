"""`verify` reduces each rung before the next one runs, and takes one
velocity Jacobian per snapshot.

`cli._reduce_rung` reduces a rung's collected trajectory to the scalars
the ladder checks compare, and `cli._ladder_checks` checks the reduced
rungs. `analysis.snapshot_pass` walks a rung's snapshots once and
reduces each snapshot's Jacobian both to max |Dv| for the gradient
monitor and to the weak-form inner products. These tests count the
Jacobians `verify` takes, compare the monitor and the weak residual
bitwise against the two-pass code they replace, and the checks against
the all-rungs code the per-rung reduction replaces (both copied below),
compare `verify.txt` with the text the two-pass code gives, bound the
memory of the pass and of `verify`, and check that a ladder of fewer
than two distinct rungs and a fault index outside the first rung are
config errors.
"""

import gc
import math
import textwrap
import tracemalloc
import types

import numpy as np
import pytest

from dnsflow import (
    DnsConfig,
    GridSpec,
    analysis,
    bench,
    cli,
    random_solenoidal_field,
)
from dnsflow.analysis import (
    GradientScalingReport,
    SnapshotPass,
    WeakFormReport,
    default_test_functions,
    monitor_assumption_a,
    snapshot_pass,
    weak_residual,
    weighted_test_grids,
)
from dnsflow.cli import _ladder_configs, main
from dnsflow.fields import (
    BoundaryCondition,
    advection_term,
    grad_max_norm,
    quadrature_weights,
    velocity_jacobian,
)
from dnsflow.manifest import parse_manifest
from dnsflow.scheme import Trajectory

from conftest import collected_run

TORUS_CFG = textwrap.dedent("""\
    [grid]
    cells = 16
    bc = periodic
    [time]
    h = 0.05
    t = 0.2
    [scheme]
    interp = cubic
    [initial]
    kind = taylor_green
    amplitude = 1.0
    [ladder]
    h = 0.05, 0.025
""")

BOX_CFG = textwrap.dedent("""\
    [grid]
    cells = 16
    bc = dirichlet
    [time]
    h = 0.025
    t = 0.1
    [initial]
    kind = random_solenoidal
    [ladder]
    h = 0.05, 0.025
""")


# the monitor and the weak residual as they were before the shared pass:
# each takes its own velocity Jacobian of every snapshot

def _two_pass_max_gradient(traj):
    return max(grad_max_norm(v) for v in traj.snapshots[1:])


def _two_pass_monitor(trajectories):
    hs = []
    grads = []
    for traj in trajectories:
        hs.append(traj.cfg.h)
        grads.append(_two_pass_max_gradient(traj))
    if max(grads) <= 1e-14:
        alpha = 0.0
    else:
        logs = np.log(np.maximum(grads, 1e-300))
        alpha = float(-np.polyfit(np.log(hs), logs, 1)[0])
    return GradientScalingReport(tuple(hs), tuple(grads), alpha,
                                 alpha <= 0.6)


def _two_pass_weak_residual(traj, phis):
    spec = traj.cfg.grid
    w = quadrature_weights(spec)
    vals, jacs = zip(*(phi.on_grid(spec) for phi in phis))
    psi = (w * np.stack(vals)).reshape(len(phis), -1)
    dpsi = (w * np.stack(jacs)).reshape(len(phis), -1)

    v_psi, dv_dpsi, adv_psi = [psi @ traj.snapshots[0].data.ravel()], [], []
    for v in traj.snapshots[1:]:
        jac = velocity_jacobian(v)
        v_psi.append(psi @ v.data.ravel())
        dv_dpsi.append(dpsi @ jac.ravel())
        adv_psi.append(psi @ advection_term(v, jac).data.ravel())
    v_psi = np.array(v_psi)

    T = traj.final_time
    nodes, weights = np.polynomial.legendre.leggauss(3)
    theta = 0.5 * (nodes + 1.0)
    t = traj.times[:-1, None] + traj.cfg.h * theta
    wq = 0.5 * traj.cfg.h * weights
    eta = (16.0 * t**2 * (T - t)**2 / T**4) @ wq
    deta = 32.0 * t * (T - t) * (T - 2.0 * t) / T**4 * wq
    linear = (eta @ np.array(dv_dpsi) - (deta @ theta) @ v_psi[1:]
              - (deta @ (1.0 - theta)) @ v_psi[:-1])
    advect = eta @ np.array(adv_psi)
    return [WeakFormReport(linear_residual=float(lin),
                           nonlinear_residual=float(lin + adv))
            for lin, adv in zip(linear, advect)]


# the all-rungs checks as they stood before each rung was reduced on its
# own, copied verbatim but for the monitor call, which now takes the
# rungs' h and max |Dv| where it took the trajectories

def _all_rungs_checks(man, trajs):
    """Run every mandatory check over the ladder; returns (name, ok, detail)."""
    cfg = man.cfg
    checks: list[tuple[str, bool, str]] = []
    periodic = cfg.grid.bc is BoundaryCondition.PERIODIC

    # the rule each step meets in run: max |div v_n| <= div_free_bound(v_n),
    # which scales with max |v_n| / dx; the detail names the snapshot
    # whose divergence is largest against its bound
    divs = [(div / bound, div, bound, t.cfg.h, n) for t in trajs
            for n, (div, bound) in enumerate(analysis.divergence_by_snapshot(t),
                                             start=1)]
    _, div, bound, h, n = max(divs)
    checks.append(("divergence_free_steps",
                   all(d <= b for _, d, b, _, _ in divs),
                   f"max_divergence={div:.3e} bound={bound:.3e} "
                   f"h={h:g} n={n}"))

    ledgers = [analysis.build_energy_ledger(t) for t in trajs]
    step_reports = [analysis.check_step_inequality(led) for led in ledgers]
    all_hold = all(rep.all_hold for rep in step_reports)
    max_cs = [rep.max_fitted_c for rep in step_reports]
    checks.append(("step_inequality_every_rung", all_hold,
                   "max_fitted_c per rung: "
                   + ", ".join(f"{c:.3e}" for c in max_cs)))

    stable = analysis.stable_within_factor(max_cs, factor=2.0)
    checks.append(("fitted_c_h_stable", stable,
                   "max/min within factor 2 (or all at the dissipative floor)"))

    cums = [analysis.check_cumulative_estimate(led, t.final_time)
            for led, t in zip(ledgers, trajs)]
    checks.append(("cumulative_energy_estimate", all(c.holds for c in cums),
                   "; ".join(f"lhs={c.max_lhs:.3e} bound={c.bound:.3e}"
                             for c in cums)))

    # one walk over each rung's snapshots, one velocity Jacobian per
    # snapshot, feeds both the gradient monitor and the weak residual;
    # every rung shares [grid], so the test grids are built once
    grids = None
    if periodic:
        phis = analysis.default_test_functions()
        grids = analysis.weighted_test_grids(phis, cfg.grid)
    passes = [analysis.snapshot_pass(t, grids) for t in trajs]

    alpha_rep = analysis.monitor_assumption_a(
        [t.cfg.h for t in trajs], [p.max_gradient for p in passes])
    checks.append(("gradient_scaling_monitor",
                   math.isfinite(alpha_rep.alpha),
                   f"alpha={alpha_rep.alpha:.4f} "
                   f"within_sqrt_h={alpha_rep.within_assumption}"))

    increments = [analysis.max_step_increment(t) for t in trajs]
    ratios = [increments[i] / increments[i + 1]
              for i in range(len(increments) - 1)
              if increments[i + 1] > 0.0]
    halving = bool(ratios) and all(1.5 <= r <= 2.5 for r in ratios)
    if all(inc == 0.0 for inc in increments):
        halving = True
    checks.append(("interpolant_increment_halving", halving,
                   "ratios: " + ", ".join(f"{r:.3f}" for r in ratios)))

    if periodic:
        reports = [analysis.weak_residual(t, phis, p.inner_products)
                   for t, p in zip(trajs, passes)]
        decreasing = True
        details = []
        for k in range(len(phis)):
            residuals = [abs(rep[k].linear_residual) for rep in reports]
            zero_floor = 1e-12
            for i in range(len(residuals) - 1):
                if residuals[i + 1] > max(residuals[i], zero_floor):
                    decreasing = False
            details.append(f"phi{k}: " +
                           "->".join(f"{r:.2e}" for r in residuals))
        checks.append(("weak_residual_decreases", decreasing,
                       "; ".join(details)))

    const_res = analysis.material_derivative_identity(
        analysis.constant_analytic_field(0.7, -0.3), h=0.1, quad_nodes=8,
        spec=cfg.grid)
    r8 = analysis.material_derivative_identity(
        bench.TaylorGreenOracle().as_analytic_field(0.0), h=1e-2,
        quad_nodes=8, spec=cfg.grid)
    r16 = analysis.material_derivative_identity(
        bench.TaylorGreenOracle().as_analytic_field(0.0), h=1e-2,
        quad_nodes=16, spec=cfg.grid)
    md_ok = const_res < 1e-12 and r8 / r16 >= 3.5
    checks.append(("material_derivative_identity", md_ok,
                   f"constant={const_res:.1e} M8/M16={r8 / max(r16, 1e-300):.3f}"))
    return checks


def _faulted(trajs, fault):
    """The ladder with snapshot ``fault`` of the first rung negated, as
    ``verify --inject-fault`` does."""
    if fault is None:
        return trajs
    first, *rest = trajs
    return [first.with_snapshot(fault, -first.snapshots[fault]), *rest]


def _per_rung_checks(man, trajs):
    phis, grids = cli._weak_form_tests(man)
    return cli._ladder_checks(
        man, [cli._reduce_rung(t, phis, grids) for t in trajs])


def _bits(values):
    return [float(x).hex() for x in values]


def _monitor_bits(rep):
    return _bits(rep.h_values + rep.max_gradients + (rep.alpha,)), \
        rep.within_assumption


def _weak_bits(reports):
    return _bits(x for r in reports
                 for x in (r.linear_residual, r.nonlinear_residual))


def _ladder(text):
    man = parse_manifest(text)
    a = cli._build_initial(man)
    return man, [collected_run(a, cfg) for cfg in _ladder_configs(man)]


@pytest.fixture(scope="module")
def torus_ladder():
    return _ladder(TORUS_CFG)


@pytest.fixture(scope="module")
def box_ladder():
    return _ladder(BOX_CFG)


@pytest.mark.parametrize("ladder", ["torus_ladder", "box_ladder"])
def test_verify_takes_one_jacobian_per_snapshot(request, monkeypatch,
                                                ladder):
    man, trajs = request.getfixturevalue(ladder)
    seen = []

    def counting(v):
        seen.append(v)
        return velocity_jacobian(v)

    monkeypatch.setattr(analysis, "velocity_jacobian", counting)
    checks = _per_rung_checks(man, trajs)
    assert all(ok for _, ok, _ in checks)
    expected = [v for t in trajs for v in t.snapshots[1:]]
    assert len(seen) == len(expected)
    assert all(a is b for a, b in zip(seen, expected))


@pytest.mark.parametrize("ladder", ["torus_ladder", "box_ladder"])
def test_shared_pass_matches_two_pass_bitwise(request, ladder):
    _, trajs = request.getfixturevalue(ladder)
    phis = default_test_functions()
    grids = weighted_test_grids(phis, trajs[0].cfg.grid)
    passes = [snapshot_pass(t, grids) for t in trajs]

    hs = [t.cfg.h for t in trajs]
    old = _monitor_bits(_two_pass_monitor(trajs))
    assert _monitor_bits(monitor_assumption_a(
        hs, [snapshot_pass(t).max_gradient for t in trajs])) == old
    assert _monitor_bits(monitor_assumption_a(
        hs, [p.max_gradient for p in passes])) == old

    for traj, p in zip(trajs, passes):
        old = _weak_bits(_two_pass_weak_residual(traj, phis))
        assert _weak_bits(weak_residual(traj, phis)) == old
        assert _weak_bits(weak_residual(traj, phis, p.inner_products)) == old


@pytest.mark.parametrize("fault", [None, 0, 1, "last"])
@pytest.mark.parametrize("ladder", ["torus_ladder", "box_ladder"])
def test_per_rung_checks_match_all_rungs_code(request, ladder, fault):
    # verify --inject-fault negates one snapshot of the first rung; either
    # code must read the same checks from the same faulted ladder
    man, trajs = request.getfixturevalue(ladder)
    if fault == "last":
        fault = len(trajs[0].snapshots) - 1
    trajs = _faulted(trajs, fault)
    expected = _all_rungs_checks(man, trajs)
    assert _per_rung_checks(man, trajs) == expected
    assert all(ok for _, ok, _ in expected) == (fault is None)


@pytest.mark.parametrize("fault", [-1, 5])
def test_fault_outside_first_rung_is_refused_before_any_run(
        tmp_path, capsys, monkeypatch, fault):
    # the first rung (h = 0.05, T = 0.2) stores snapshots 0..4
    def no_run(*args, **kwargs):
        raise AssertionError("a rung ran before the fault index was checked")

    monkeypatch.setattr(cli, "run", no_run)
    cfg = tmp_path / "torus.cfg"
    cfg.write_text(TORUS_CFG)
    code = main(["verify", "--config", str(cfg), "--out",
                 str(tmp_path / "out"), "--inject-fault", str(fault)])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: fault index {fault} outside the trajectory (0..4)"]
    assert not (tmp_path / "out").exists()


def test_verify_text_matches_two_pass_code(tmp_path, monkeypatch):
    # the first rung (h = 0.05, T = 0.2) stores snapshots 0..4
    cfg = tmp_path / "torus.cfg"
    cfg.write_text(TORUS_CFG)

    def verify_text(fault, out):
        extra = [] if fault is None else ["--inject-fault", str(fault)]
        code = main(["verify", "--config", str(cfg), "--out", str(out),
                     *extra])
        return code, (out / "verify.txt").read_bytes()

    faults = [None, 0, 2, 4]
    shared = [verify_text(f, tmp_path / f"shared{f}") for f in faults]
    # the monitor fits the rungs' max |Dv|: the two-pass code takes it
    # from a Jacobian of its own, and ignores the pass's inner products
    monkeypatch.setattr(analysis, "snapshot_pass",
                        lambda traj, grids=None: SnapshotPass(
                            _two_pass_max_gradient(traj), None))
    monkeypatch.setattr(analysis, "weak_residual",
                        lambda traj, phis, inner_products=None:
                        _two_pass_weak_residual(traj, phis))
    two_pass = [verify_text(f, tmp_path / f"two_pass{f}") for f in faults]
    assert shared == two_pass
    assert [code for code, _ in shared] == [0, 1, 1, 1]


def test_pass_holds_one_jacobian_at_a_time():
    spec = GridSpec(128)
    cfg = DnsConfig(h=0.01, T=0.08, grid=spec)
    snaps = [random_solenoidal_field(spec, seed=s) for s in range(9)]
    grids = weighted_test_grids(default_test_functions(), spec)
    jac_bytes = velocity_jacobian(snaps[0]).nbytes

    def peak(n_steps):
        traj = Trajectory(cfg, snaps[:n_steps + 1], (None,) * n_steps)
        snapshot_pass(traj, grids)   # builds the cached spectral kit
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            snapshot_pass(traj, grids)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # one Jacobian plus its own scratch (a Jacobian-sized square for the
    # max norm, transform buffers), and nothing that grows with the steps
    one = peak(1)
    assert one < 3 * jac_bytes
    assert peak(8) - one < jac_bytes / 8


def test_verify_memory_does_not_grow_with_rungs(tmp_path):
    # each rung is reduced and dropped before the next one runs, so adding
    # a coarser rung (8 steps before the 16- and 32-step rungs) leaves the
    # peak where the largest rung puts it. Measured at 64^2: the peaks
    # differ by at most 0.21 fields either way over three repeats; with
    # every rung's v, p and w kept until the checks, by 20.3 to 20.4
    field_bytes = 2 * 64 * 64 * 8
    text = (TORUS_CFG.replace("cells = 16", "cells = 64")
            .replace("h = 0.05\n", "h = 0.025\n"))

    def peak(hs, name):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text.replace("h = 0.05, 0.025", f"h = {hs}"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["verify", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    peak("0.0125, 0.00625", "warm")   # builds the cached spectral kits
    three = peak("0.025, 0.0125, 0.00625", "three")
    two = peak("0.0125, 0.00625", "two")
    assert three - two <= field_bytes


def _reachable_arrays(root):
    """Every ndarray reachable from root through object references, not
    through classes, modules or functions."""
    seen, found, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("ladder", ["torus_ladder", "box_ladder"])
def test_collected_trajectory_keeps_only_its_snapshots(request, ladder):
    # a collecting sink keeps each step's v; its p and w, and the run's
    # other arrays, are dropped with the step
    _, trajs = request.getfixturevalue(ladder)
    for traj in trajs:
        assert (set(_reachable_arrays(traj))
                == {id(v.data) for v in traj.snapshots})


@pytest.mark.parametrize("hs", ["0.025", "0.025, 0.025",
                                "0.05, 0.025, 0.025"])
def test_verify_needs_two_distinct_rungs(tmp_path, capsys, hs):
    cfg = tmp_path / "rungs.cfg"
    cfg.write_text(TORUS_CFG.replace("h = 0.05, 0.025", f"h = {hs}"))
    code = main(["verify", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: [ladder] h needs two or more "
                               "distinct values")
    assert hs in lines[0]
    assert not (tmp_path / "out").exists()


def test_converge_accepts_one_rung(tmp_path):
    cfg = tmp_path / "rung.cfg"
    cfg.write_text(TORUS_CFG.replace("h = 0.05, 0.025", "h = 0.05"))
    assert main(["converge", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
