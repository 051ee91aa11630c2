"""`verify` takes one velocity Jacobian per snapshot.

`analysis.snapshot_pass` walks a rung's snapshots once and reduces each
snapshot's Jacobian both to max |Dv| for the gradient monitor and to the
weak-form inner products. These tests count the Jacobians `verify`
takes, compare the monitor and the weak residual bitwise against the
two-pass code they replace (copied below), compare `verify.txt` with the
text that code gives, bound the pass's memory, and check that a ladder
of fewer than two distinct rungs is a config error.
"""

import textwrap
import tracemalloc

import numpy as np
import pytest

from dnsflow import (
    DnsConfig,
    GridSpec,
    analysis,
    cli,
    random_solenoidal_field,
)
from dnsflow.analysis import (
    GradientScalingReport,
    WeakFormReport,
    default_test_functions,
    monitor_assumption_a,
    snapshot_pass,
    weak_residual,
    weighted_test_grids,
)
from dnsflow.cli import _ladder_configs, main
from dnsflow.fields import (
    advection_term,
    grad_max_norm,
    quadrature_weights,
    velocity_jacobian,
)
from dnsflow.manifest import parse_manifest
from dnsflow.scheme import Trajectory, run

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

def _two_pass_monitor(trajectories):
    hs = []
    grads = []
    for traj in trajectories:
        hs.append(traj.cfg.h)
        grads.append(max(grad_max_norm(v) for v in traj.snapshots[1:]))
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
    return man, [run(a, cfg) for cfg in _ladder_configs(man)]


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
    checks = cli._verify_checks(man, trajs)
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

    old = _monitor_bits(_two_pass_monitor(trajs))
    assert _monitor_bits(monitor_assumption_a(trajs)) == old
    assert _monitor_bits(monitor_assumption_a(
        trajs, max_gradients=[p.max_gradient for p in passes])) == old

    for traj, p in zip(trajs, passes):
        old = _weak_bits(_two_pass_weak_residual(traj, phis))
        assert _weak_bits(weak_residual(traj, phis)) == old
        assert _weak_bits(weak_residual(traj, phis, p.inner_products)) == old


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
    monkeypatch.setattr(analysis, "monitor_assumption_a",
                        lambda trajs, max_gradients=None:
                        _two_pass_monitor(trajs))
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
        traj = Trajectory(cfg, snaps[:n_steps + 1], [])
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
