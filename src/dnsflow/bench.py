"""Analytic oracles and convergence-study drivers.

The Taylor-Green vortex is the closed-form benchmark: its nonlinear
term is a pure gradient, so the exact solution is a decaying single
Fourier mode and the pressure absorbs the advection entirely. The
oracle verifies its own substitution residual before it is trusted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .analysis import AnalyticVectorField, check_step_inequality, ledger_from_results
from .fields import (
    TWO_PI,
    GridSpec,
    ScalarField,
    VelocityField,
    norm_l2,
    pin_walls,
)
from .scheme import DnsConfig, run


@dataclass(frozen=True)
class TaylorGreenOracle:
    """v = A e^{-2 nu t} (sin x cos y, -cos x sin y) on the 2 pi torus.

    The matching pressure is p = (A^2 / 4) e^{-4 nu t} (cos 2x + cos 2y):
    with this sign grad p cancels (v . D) v pointwise, which is what the
    substitution residual check below certifies.
    """

    amplitude: float = 1.0
    nu: float = 1.0

    def velocity(self, x, y, t: float):
        e = self.amplitude * math.exp(-2.0 * self.nu * t)
        return e * np.sin(x) * np.cos(y), -e * np.cos(x) * np.sin(y)

    def pressure(self, x, y, t: float):
        e = (self.amplitude ** 2 / 4.0) * math.exp(-4.0 * self.nu * t)
        return e * (np.cos(2.0 * x) + np.cos(2.0 * y))

    def jacobian(self, x, y, t: float):
        # each trig factor once; negating a product is exact, so the
        # (1, 1) and (0, 1) entries equal -e * cos x * cos y and
        # -e * sin x * sin y to the bit
        e = self.amplitude * math.exp(-2.0 * self.nu * t)
        cc = e * np.cos(x) * np.cos(y)
        ss = e * np.sin(x) * np.sin(y)
        return (cc, -ss), (ss, -cc)

    def laplacian(self, x, y, t: float):
        u, v = self.velocity(x, y, t)
        return -2.0 * u, -2.0 * v

    def advection(self, x, y, t: float):
        e = (self.amplitude ** 2 / 2.0) * math.exp(-4.0 * self.nu * t)
        return e * np.sin(2.0 * x), e * np.sin(2.0 * y)

    def pressure_gradient(self, x, y, t: float):
        e = (self.amplitude ** 2 / 2.0) * math.exp(-4.0 * self.nu * t)
        return -e * np.sin(2.0 * x), -e * np.sin(2.0 * y)

    def time_derivative(self, x, y, t: float):
        u, v = self.velocity(x, y, t)
        return -2.0 * self.nu * u, -2.0 * self.nu * v

    def momentum_residual(self, x, y, t: float):
        """dv/dt - nu lap v + (v.D)v + grad p, componentwise."""
        dt_u, dt_v = self.time_derivative(x, y, t)
        lap_u, lap_v = self.laplacian(x, y, t)
        adv_u, adv_v = self.advection(x, y, t)
        gp_u, gp_v = self.pressure_gradient(x, y, t)
        return (dt_u - self.nu * lap_u + adv_u + gp_u,
                dt_v - self.nu * lap_v + adv_v + gp_v)

    def analytic_divergence(self, x, y, t: float):
        (jxx, _), (_, jyy) = self.jacobian(x, y, t)
        return jxx + jyy

    def self_check(self, seed: int = 7, samples: int = 200) -> float:
        """Max substitution residual at random space-time points."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, TWO_PI, samples)
        y = rng.uniform(0.0, TWO_PI, samples)
        worst = 0.0
        for t in rng.uniform(0.0, 1.0, 5):
            ru, rv = self.momentum_residual(x, y, float(t))
            d = self.analytic_divergence(x, y, float(t))
            worst = max(worst, float(np.max(np.abs(ru))),
                        float(np.max(np.abs(rv))), float(np.max(np.abs(d))))
        return worst

    def as_analytic_field(self, t: float) -> AnalyticVectorField:
        return AnalyticVectorField(
            value=lambda x, y: self.velocity(x, y, t),
            jacobian=lambda x, y: self.jacobian(x, y, t),
        )


def taylor_green_field(t: float, spec: GridSpec,
                       oracle: TaylorGreenOracle | None = None,
                       ) -> tuple[VelocityField, ScalarField]:
    """Sample the exact fields at time t on a periodic 2 pi grid."""
    if not spec.is_periodic:
        raise ValueError("the Taylor-Green oracle lives on the periodic torus")
    if not all(math.isclose(L, TWO_PI, rel_tol=1e-12) for L in spec.extent):
        raise ValueError("the Taylor-Green oracle needs extent 2 pi per axis")
    if oracle is None:
        oracle = TaylorGreenOracle()
    # every field is a product or sum of one factor per axis: the trig
    # runs on the axes and broadcasts, the same samples as on the mesh
    x = spec.axis_nodes(0)[:, None]
    y = spec.axis_nodes(1)[None, :]
    u, v = oracle.velocity(x, y, t)
    p = oracle.pressure(x, y, t)
    return (VelocityField(spec, np.stack([u, v])),
            ScalarField(spec, p).demeaned())


# ---------------------------------------------------------------------------
# initial-datum generators

def random_solenoidal_field(spec: GridSpec, seed: int, k_min: int = 1,
                            k_max: int = 4, amplitude: float = 1.0,
                            ) -> VelocityField:
    """Curl of a random band-limited stream function.

    Periodic: random Fourier modes with |k| in [k_min, k_max], exactly
    divergence-free under the spectral operators. Dirichlet: random
    combination of squared-sine bumps, so the curl vanishes on the walls.
    """
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


def stream_bump_field(spec: GridSpec, amplitude: float = 1.0) -> VelocityField:
    """Curl of sin^2(pi x / L) sin^2(pi y / L): smooth, no-slip, solenoidal."""
    lx, ly = spec.extent
    ax = math.pi / lx
    ay = math.pi / ly

    def fn(x, y):
        sx = np.sin(ax * x)
        sy = np.sin(ay * y)
        u = amplitude * sx * sx * 2.0 * ay * sy * np.cos(ay * y)
        v = -amplitude * 2.0 * ax * sx * np.cos(ax * x) * sy * sy
        return u, v

    return VelocityField.from_function(spec, fn)


# ---------------------------------------------------------------------------
# convergence study

@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    cells: int
    l2_error: float
    order: float | None
    max_fitted_c: float
    runtime_s: float
    compare_time: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]
    target_time: float

    def to_csv(self) -> str:
        lines = ["h,cells,l2_error,order,max_fitted_c,runtime_s"]
        for r in self.rows:
            order = "" if r.order is None else f"{r.order:.17g}"
            lines.append(f"{r.h:.17g},{r.cells},{r.l2_error:.17g},{order},"
                         f"{r.max_fitted_c:.17g},{r.runtime_s:.17g}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = (f"{'h':>12} {'cells':>6} {'l2_error':>13} {'order':>7} "
                  f"{'max_C':>10} {'runtime_s':>10}")
        lines = [header]
        notes = []
        for r in self.rows:
            order = "  --- " if r.order is None else f"{r.order:6.3f}"
            lines.append(f"{r.h:12.6g} {r.cells:6d} {r.l2_error:13.6e} "
                         f"{order:>7} {r.max_fitted_c:10.3e} {r.runtime_s:10.3f}")
            if not math.isclose(r.compare_time, self.target_time,
                                rel_tol=1e-12, abs_tol=1e-15):
                notes.append(f"  h={r.h:.6g}: T/h not integral, compared at "
                             f"t = floor(T/h) h = {r.compare_time:.12g}")
        if notes:
            lines.append("note: comparison times differ from the horizon")
            lines.extend(notes)
        return "\n".join(lines) + "\n"


def _run_rung(cfg: DnsConfig, oracle: TaylorGreenOracle) -> ConvergenceRow:
    a, _ = taylor_green_field(0.0, cfg.grid, oracle)
    start = time.perf_counter()
    summary = run(a, cfg)
    runtime = time.perf_counter() - start
    t_cmp = summary.final_time
    exact, _ = taylor_green_field(t_cmp, cfg.grid, oracle)
    err = norm_l2(summary.final - exact)
    max_c = check_step_inequality(ledger_from_results(summary)).max_fitted_c
    return ConvergenceRow(h=cfg.h, cells=cfg.grid.cells[0], l2_error=err,
                          order=None, max_fitted_c=max_c, runtime_s=runtime,
                          compare_time=t_cmp)


def convergence_study(base: DnsConfig, hs, cells_list=None,
                      oracle: TaylorGreenOracle | None = None,
                      ) -> ConvergenceTable:
    """Run the scheme against the oracle over an h-ladder.

    The rungs run one after another. Rows are grouped by resolution and
    sorted by decreasing h within a group; empirical orders are log2
    ratios between consecutive rows of the same resolution, so neither
    ``hs`` nor ``cells_list`` may repeat a value.
    """
    if oracle is None:
        oracle = TaylorGreenOracle(nu=base.nu)
    check = oracle.self_check()
    if check > 1e-12:
        raise RuntimeError(f"oracle substitution residual {check:.3e} "
                           "exceeds 1e-12; refusing to benchmark against it")
    hs = sorted(float(h) for h in hs)[::-1]
    if cells_list is None:
        cells_list = [base.grid.cells[0]]
    configs = [
        replace(base, h=h,
                grid=GridSpec(cells, base.grid.extent, base.grid.bc))
        for cells in cells_list for h in hs
    ]
    raw = [_run_rung(cfg, oracle) for cfg in configs]
    rows = []
    for i, row in enumerate(raw):
        order = None
        if i > 0 and raw[i - 1].cells == row.cells and row.l2_error > 0.0:
            prev = raw[i - 1]
            order = (math.log2(prev.l2_error / row.l2_error)
                     / math.log2(prev.h / row.h))
        rows.append(replace(row, order=order))
    return ConvergenceTable(tuple(rows), target_time=base.T)
