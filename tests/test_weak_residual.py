"""The batched weak residual against a closure-based per-node reference.

The reference evaluates phi = eta(t) curl psi(x) as (x, y, t) closures
at every node of a 5-point Gauss-Legendre rule on every step, once per
test function, and takes the velocity gradients one component at a
time. The batched ``weak_residual`` must reproduce it on the acceptance
ladder, on the ladder of the ``verify64`` benchmark workload and on a
no-slip box. The residual is about 4e-4 of the terms it cancels, so
roundoff of ~1e-14 on the terms reads as ~3e-11 on the residual; 1e-9
relative leaves room for that and nothing else.
"""

import numpy as np
import pytest

from dnsflow import (
    BoundaryCondition,
    DnsConfig,
    GridSpec,
    InterpOrder,
    default_test_functions,
    gradient,
    random_solenoidal_field,
    run,
    taylor_green_field,
    weak_residual,
)
from dnsflow.fields import quadrature_weights


def _closures(T, modes):
    """value, dt and jacobian closures of eta(t) curl psi(x) on [0, T]."""
    def eta(t):
        return 16.0 * t * t * (T - t) * (T - t) / T**4

    def eta_dt(t):
        return 16.0 * (2.0 * t * (T - t) * (T - t)
                       - 2.0 * t * t * (T - t)) / T**4

    def space(x, y):
        u = np.zeros_like(x)
        v = np.zeros_like(x)
        for k1, k2, a in modes:
            u += a * k2 * np.sin(k1 * x) * np.cos(k2 * y)
            v += -a * k1 * np.cos(k1 * x) * np.sin(k2 * y)
        return u, v

    def value(x, y, t):
        u, v = space(x, y)
        return eta(t) * u, eta(t) * v

    def dt(x, y, t):
        u, v = space(x, y)
        return eta_dt(t) * u, eta_dt(t) * v

    def jacobian(x, y, t):
        e = eta(t)
        p1x = np.zeros_like(x)
        p1y = np.zeros_like(x)
        p2x = np.zeros_like(x)
        p2y = np.zeros_like(x)
        for k1, k2, a in modes:
            sx, cx = np.sin(k1 * x), np.cos(k1 * x)
            sy, cy = np.sin(k2 * y), np.cos(k2 * y)
            p1x += e * a * k1 * k2 * cx * cy
            p1y += -e * a * k2 * k2 * sx * sy
            p2x += e * a * k1 * k1 * sx * sy
            p2y += -e * a * k1 * k2 * cx * cy
        return (p1x, p1y), (p2x, p2y)

    return value, dt, jacobian


def reference_weak_residual(traj, modes, time_quad_nodes=5):
    """(linear, nonlinear) residual by per-node quadrature in time."""
    value, dt, jacobian = _closures(traj.final_time, modes)
    spec = traj.cfg.grid
    X, Y = spec.mesh()
    w = quadrature_weights(spec)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(time_quad_nodes)
    times = traj.times
    linear = 0.0
    advect = 0.0
    for n in range(1, len(traj.snapshots)):
        v_prev = traj.snapshots[n - 1]
        v_n = traj.snapshots[n]
        t0, t1 = times[n - 1], times[n]
        half = 0.5 * (t1 - t0)
        mid = 0.5 * (t0 + t1)
        dvx = gradient(v_n.component(0))
        dvy = gradient(v_n.component(1))
        adv_x = v_n.u * dvx.data[0] + v_n.v * dvx.data[1]
        adv_y = v_n.u * dvy.data[0] + v_n.v * dvy.data[1]
        for q in range(time_quad_nodes):
            t = mid + half * gl_nodes[q]
            wq = half * gl_weights[q]
            theta = (t - t0) / (t1 - t0)
            ptx, pty = dt(X, Y, t)
            vh_x = theta * v_n.data[0] + (1.0 - theta) * v_prev.data[0]
            vh_y = theta * v_n.data[1] + (1.0 - theta) * v_prev.data[1]
            linear -= wq * float(np.sum(w * (vh_x * ptx + vh_y * pty)))
            (j1x, j1y), (j2x, j2y) = jacobian(X, Y, t)
            linear += wq * float(np.sum(w * (dvx.data[0] * j1x
                                             + dvx.data[1] * j1y
                                             + dvy.data[0] * j2x
                                             + dvy.data[1] * j2y)))
            pvx, pvy = value(X, Y, t)
            advect += wq * float(np.sum(w * (adv_x * pvx + adv_y * pvy)))
    return linear, linear + advect


def _assert_matches_reference(traj, phis):
    reports = weak_residual(traj, phis)
    assert len(reports) == len(phis)
    for phi, rep in zip(phis, reports):
        lin, nonlin = reference_weak_residual(traj, phi.modes)
        assert rep.linear_residual == pytest.approx(lin, rel=1e-9, abs=0)
        assert rep.nonlinear_residual == pytest.approx(nonlin, rel=1e-9,
                                                       abs=0)


LADDERS = {
    "acceptance": ((1.0 / 40.0, 1.0 / 80.0, 1.0 / 160.0), 0.5),
    "verify64": ((0.025, 0.0125, 0.00625), 0.25),
}


@pytest.mark.parametrize("ladder", sorted(LADDERS))
def test_batched_matches_closure_reference(ladder):
    hs, T = LADDERS[ladder]
    spec = GridSpec(64)
    a, _ = taylor_green_field(0.0, spec)
    phis = default_test_functions()
    assert len(phis) == 5
    for h in hs:
        _assert_matches_reference(
            run(a, DnsConfig(h=h, T=T, grid=spec,
                             interp_order=InterpOrder.CUBIC)), phis)


def test_batched_matches_closure_reference_on_box():
    spec = GridSpec(32, bc=BoundaryCondition.DIRICHLET_ZERO)
    a = random_solenoidal_field(spec, seed=3)
    traj = run(a, DnsConfig(h=0.05, T=0.2, grid=spec))
    _assert_matches_reference(traj, default_test_functions())
