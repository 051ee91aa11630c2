import dataclasses
import math

import numpy as np
import pytest

from dnsflow import (
    BoundaryCondition,
    DnsConfig,
    GridSpec,
    InterpOrder,
    TaylorGreenOracle,
    VelocityField,
    convergence_study,
    divergence,
    inner_product_l2,
    random_solenoidal_field,
    stream_bump_field,
    taylor_green_field,
)
from dnsflow import analysis, bench
from dnsflow.fields import pin_walls

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# oracle

def test_oracle_satisfies_momentum_equation():
    worst = TaylorGreenOracle().self_check()
    assert worst < 1e-12
    worst_nu = TaylorGreenOracle(amplitude=0.5, nu=0.25).self_check()
    assert worst_nu < 1e-12


def test_oracle_jacobian_is_the_closed_form_bitwise():
    # each trig factor is taken once; the entries are the closed forms
    # (-e) cos x cos y and (-e) sin x sin y to the bit, zero signs included
    oracle = TaylorGreenOracle(amplitude=1.3, nu=0.7)
    rng = np.random.default_rng(11)
    x = rng.uniform(-10.0, 10.0, (40, 40))
    y = rng.uniform(-10.0, 10.0, (40, 40))
    x[0, :3] = (0.0, -0.0, math.pi / 2)
    for t in (0.0, 0.37):
        e = 1.3 * math.exp(-2.0 * 0.7 * t)
        closed = ((e * np.cos(x) * np.cos(y), -e * np.sin(x) * np.sin(y)),
                  (e * np.sin(x) * np.sin(y), -e * np.cos(x) * np.cos(y)))
        got = oracle.jacobian(x, y, t)
        for row, ref_row in zip(got, closed):
            for a, b in zip(row, ref_row):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cells", [8, 16, 64, 100, 256])
def test_taylor_green_field_is_the_mesh_evaluation_bitwise(cells):
    # the sampler takes the trig of each axis once and broadcasts; the
    # samples are the oracle's on the full mesh to the bit, signs of zero
    # included
    spec = GridSpec(cells)
    X, Y = spec.mesh()
    for amplitude in (1.0, 3.7, -2.0, 1e152):
        oracle = TaylorGreenOracle(amplitude=amplitude, nu=0.7)
        for t in (0.0, 0.37, 1.9):
            v, p = taylor_green_field(t, spec, oracle)
            u_ref, v_ref = oracle.velocity(X, Y, t)
            p_ref = bench.ScalarField(spec, oracle.pressure(X, Y, t))
            assert v.data.tobytes() == np.stack([u_ref, v_ref]).tobytes()
            assert p.data.tobytes() == p_ref.demeaned().data.tobytes()


def test_oracle_divergence_free_at_random_points():
    oracle = TaylorGreenOracle()
    rng = np.random.default_rng(5)
    x = rng.uniform(0, TWO_PI, 300)
    y = rng.uniform(0, TWO_PI, 300)
    assert np.max(np.abs(oracle.analytic_divergence(x, y, 0.37))) < 1e-14


def test_oracle_time_derivative_consistency():
    # centered finite difference in t against lap v - (v.D)v - grad p
    oracle = TaylorGreenOracle()
    rng = np.random.default_rng(6)
    x = rng.uniform(0, TWO_PI, 100)
    y = rng.uniform(0, TWO_PI, 100)
    t, dt = 0.2, 1e-4
    up, vp = oracle.velocity(x, y, t + dt)
    um, vm = oracle.velocity(x, y, t - dt)
    fd_u = (up - um) / (2 * dt)
    fd_v = (vp - vm) / (2 * dt)
    lap_u, lap_v = oracle.laplacian(x, y, t)
    adv_u, adv_v = oracle.advection(x, y, t)
    gp_u, gp_v = oracle.pressure_gradient(x, y, t)
    rhs_u = oracle.nu * lap_u - adv_u - gp_u
    rhs_v = oracle.nu * lap_v - adv_v - gp_v
    assert np.max(np.abs(fd_u - rhs_u)) < 1e-6
    assert np.max(np.abs(fd_v - rhs_v)) < 1e-6


def test_sampled_field_node_values(periodic64):
    v, p = taylor_green_field(0.0, periodic64)
    assert v.data[0][0, 0] == 0.0
    assert v.data[1][0, 0] == 0.0
    i_quarter = 16      # x = pi/2 on the 64-cell 2 pi grid
    assert v.data[0][i_quarter, 0] == pytest.approx(1.0, abs=1e-15)
    assert v.data[1][i_quarter, 0] == pytest.approx(0.0, abs=1e-15)
    assert abs(p.mean()) < 1e-14


def test_kinetic_energy(periodic64):
    v, _ = taylor_green_field(0.0, periodic64)
    assert abs(0.5 * inner_product_l2(v, v) - math.pi ** 2) < 1e-10


def test_rejects_non_periodic_spec():
    spec = GridSpec(16, bc=BoundaryCondition.DIRICHLET_ZERO)
    with pytest.raises(ValueError):
        taylor_green_field(0.0, spec)
    with pytest.raises(ValueError):
        taylor_green_field(0.0, GridSpec(16, extent=1.0))


# ---------------------------------------------------------------------------
# datum generators

def test_random_solenoidal_periodic(periodic32):
    fld = random_solenoidal_field(periodic32, seed=4)
    assert np.max(np.abs(divergence(fld).data)) < 1e-12
    speed = np.hypot(fld.data[0], fld.data[1])
    assert np.max(speed) == pytest.approx(1.0, rel=1e-12)


def test_random_solenoidal_deterministic(periodic32):
    a = random_solenoidal_field(periodic32, seed=11)
    b = random_solenoidal_field(periodic32, seed=11)
    c = random_solenoidal_field(periodic32, seed=12)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


# Reference: the generator as it stood when it took every factor on the
# full mesh, kept verbatim; the per-axis factors must give the same bits

def _ref_random_solenoidal_field(spec, seed, k_min=1, k_max=4,
                                 amplitude=1.0):
    rng = np.random.default_rng(seed)
    X, Y = spec.mesh()
    psi_x = np.zeros(spec.node_shape)
    psi_y = np.zeros(spec.node_shape)
    if spec.is_periodic:
        for kx in range(0, k_max + 1):
            for ky in range(-k_max, k_max + 1):
                k2 = kx * kx + ky * ky
                if k2 < k_min * k_min or k2 > k_max * k_max:
                    continue
                amp = rng.normal() / max(k2, 1)
                ph = rng.uniform(0.0, TWO_PI)
                arg = kx * X + ky * Y + ph
                psi_x += -amp * kx * np.sin(arg)
                psi_y += -amp * ky * np.sin(arg)
    else:
        lx, ly = spec.extent
        for mx in range(max(k_min, 1), k_max + 1):
            for my in range(max(k_min, 1), k_max + 1):
                amp = rng.normal() / (mx * mx + my * my)
                ax = math.pi * mx / lx
                ay = math.pi * my / ly
                sx2 = np.sin(ax * X) ** 2
                sy2 = np.sin(ay * Y) ** 2
                psi_x += amp * 2.0 * ax * np.sin(ax * X) * np.cos(ax * X) * sy2
                psi_y += amp * 2.0 * ay * sx2 * np.sin(ay * Y) * np.cos(ay * Y)
    u = psi_y
    v = -psi_x
    scale = float(np.max(np.hypot(u, v)))
    if scale > 0.0:
        u = u * (amplitude / scale)
        v = v * (amplitude / scale)
    return VelocityField(spec, pin_walls(spec, np.stack([u, v])))


@pytest.mark.parametrize("bc", [BoundaryCondition.PERIODIC,
                                BoundaryCondition.DIRICHLET_ZERO])
@pytest.mark.parametrize("cells, extent, kwargs", [
    (16, (TWO_PI, TWO_PI), {}),
    ((16, 32), (math.pi, TWO_PI), {}),
    ((32, 16), (3.0, 1.5), dict(k_min=2, k_max=6, amplitude=2.5)),
    (64, (TWO_PI, TWO_PI), dict(k_min=8, k_max=16)),
    (256, (TWO_PI, TWO_PI), {}),
])
def test_random_solenoidal_per_axis_factors_bitwise(bc, cells, extent,
                                                    kwargs):
    spec = GridSpec(cells, extent, bc)
    got = random_solenoidal_field(spec, seed=7, **kwargs)
    want = _ref_random_solenoidal_field(spec, seed=7, **kwargs)
    assert got.data.shape == (2,) + spec.node_shape
    assert got.data.tobytes() == want.data.tobytes()
    assert got.data.flags.c_contiguous


def test_stream_bump_is_no_slip(dirichlet32):
    fld = stream_bump_field(dirichlet32)
    assert fld.is_boundary_compliant()
    assert np.max(np.abs(fld.data)) > 0.1


# ---------------------------------------------------------------------------
# convergence study

@pytest.fixture(scope="module")
def mini_study():
    base = DnsConfig(h=0.05, T=0.2, grid=GridSpec(32),
                     interp_order=InterpOrder.CUBIC)
    return convergence_study(base, hs=(0.05, 0.025, 0.0125))


def test_study_rungs_keep_every_base_field(monkeypatch):
    base = DnsConfig(h=0.1, T=0.2, grid=GridSpec(16),
                     interp_order=InterpOrder.CUBIC, nu=1.0,
                     minimizer_tol=1e-9, cross_check=True)
    configs = []
    run_rung = bench._run_rung
    monkeypatch.setattr(bench, "_run_rung",
                        lambda cfg, oracle: configs.append(cfg)
                        or run_rung(cfg, oracle))
    convergence_study(base, hs=(0.1, 0.05), cells_list=(16, 32))
    assert [(c.grid.cells[0], c.h) for c in configs] == [
        (16, 0.1), (16, 0.05), (32, 0.1), (32, 0.05)]
    for cfg in configs:
        assert cfg.cross_check
        assert cfg == DnsConfig(h=cfg.h, T=0.2, grid=cfg.grid,
                                interp_order=InterpOrder.CUBIC,
                                minimizer_tol=1e-9, cross_check=True)


def test_single_rung_has_no_order(periodic32):
    base = DnsConfig(h=0.05, T=0.2, grid=periodic32,
                     interp_order=InterpOrder.CUBIC)
    table = convergence_study(base, hs=(0.05,))
    assert len(table.rows) == 1
    assert table.rows[0].order is None


def test_rows_sorted_by_decreasing_h(mini_study):
    hs = [r.h for r in mini_study.rows]
    assert hs == sorted(hs, reverse=True)


def test_errors_decrease_and_orders_reported(mini_study):
    errs = [r.l2_error for r in mini_study.rows]
    assert errs[1] < errs[0] and errs[2] < errs[1]
    for row in mini_study.rows[1:]:
        assert row.order is not None and row.order > 0.5


def test_study_deterministic_numeric_columns(periodic32):
    base = DnsConfig(h=0.05, T=0.1, grid=periodic32,
                     interp_order=InterpOrder.CUBIC)
    t1 = convergence_study(base, hs=(0.05, 0.025))
    t2 = convergence_study(base, hs=(0.05, 0.025))
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.l2_error == r2.l2_error
        assert r1.max_fitted_c == r2.max_fitted_c


def test_study_ledger_reuses_step_records(periodic32, monkeypatch):
    """Each rung's max fitted C comes from the run's own step records: no
    back-trace is redone after the run."""
    base = DnsConfig(h=0.05, T=0.1, grid=periodic32,
                     interp_order=InterpOrder.CUBIC)
    ref = convergence_study(base, hs=(0.05, 0.025), cells_list=(16, 32))

    def no_backtrace(*args, **kwargs):
        raise AssertionError("the study recomputed a back-trace")

    monkeypatch.setattr(analysis, "backtrace", no_backtrace)
    table = convergence_study(base, hs=(0.05, 0.025), cells_list=(16, 32))
    assert ([dataclasses.replace(r, runtime_s=0.0) for r in table.rows]
            == [dataclasses.replace(r, runtime_s=0.0) for r in ref.rows])


def test_non_dividing_h_compares_at_floor_time(periodic32):
    base = DnsConfig(h=0.15, T=0.5, grid=periodic32,
                     interp_order=InterpOrder.CUBIC)
    table = convergence_study(base, hs=(0.15,))
    assert table.rows[0].compare_time == pytest.approx(0.45)
    assert "compared at" in table.to_text()


def test_csv_and_text_emission(mini_study):
    csv = mini_study.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "h,cells,l2_error,order,max_fitted_c,runtime_s"
    assert len(lines) == 4
    text = mini_study.to_text()
    assert "l2_error" in text and len(text.strip().split("\n")) >= 4


def test_multi_resolution_rows(periodic32):
    base = DnsConfig(h=0.05, T=0.1, grid=periodic32,
                     interp_order=InterpOrder.CUBIC)
    table = convergence_study(base, hs=(0.05, 0.025), cells_list=(16, 32))
    assert [r.cells for r in table.rows] == [16, 16, 32, 32]
    # order column restarts per resolution
    assert table.rows[0].order is None and table.rows[2].order is None


def test_spatial_refinement_helps_where_spatial_error_dominates(periodic32):
    # with linear interpolation at the smallest rung the interpolation
    # error dominates the time error, so grid refinement must help;
    # nothing is asserted in the time-error-dominated regime, where
    # sign cancellations can go either way
    base = DnsConfig(h=1.0 / 160.0, T=0.5, grid=periodic32,
                     interp_order=InterpOrder.LINEAR)
    table = convergence_study(base, hs=(1.0 / 160.0,), cells_list=(32, 64))
    err32, err64 = table.rows[0].l2_error, table.rows[1].l2_error
    assert err64 <= err32
