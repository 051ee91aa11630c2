"""The variational time step and the run loop.

Each step picks the next velocity as the minimizer of

    I[v] = int |v - v_prev(x - h v_prev(x))|^2 / (2h) + (nu/2) |Dv|^2 dx

over discretely divergence-free fields. Two routes are implemented: the
Euler-Lagrange linear solve (production path, an implicit Stokes system
for the back-traced field) and direct minimization by projected
conjugate gradients (oracle path). The functional is convex, so the two
must agree; a cross-check mode measures their gap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    BoundaryCondition,
    GridSpec,
    NonFiniteFieldError,
    ScalarField,
    VelocityField,
    divergence,
    grad_norm_sq,
    inner_product_l2,
    laplacian,
    norm_l2,
)
from .interpolate import InterpOrder, sample_offgrid
from .projection import (
    ProjectionError,
    StokesSolver,
    leray_project,
    solve_implicit_stokes,
)


class SolvePath(enum.Enum):
    EULER_LAGRANGE = "euler_lagrange"
    DIRECT_MINIMIZE = "direct_minimize"

    @classmethod
    def parse(cls, text: str) -> "SolvePath":
        key = text.strip().lower()
        for p in cls:
            if p.value == key:
                return p
        raise ValueError(f"unknown solve path {text!r}")


class SolverFailure(RuntimeError):
    """A step's linear solve or minimization did not converge."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None
                         else f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class DnsConfig:
    """Run parameters for the time-discrete scheme.

    ``nu`` scales the Dirichlet term of the functional; 1 reproduces the
    plain scheme, other values are an extension. ``n_steps`` is
    floor(T/h): no partial final step is taken.
    """

    h: float
    T: float
    grid: GridSpec
    interp_order: InterpOrder = InterpOrder.LINEAR
    path: SolvePath = SolvePath.EULER_LAGRANGE
    nu: float = 1.0
    minimizer_tol: float = 1e-10
    minimizer_max_iters: int = 500
    cross_check: bool = False
    div_tol: float = 1e-9

    def __post_init__(self):
        if self.h <= 0.0 or self.T <= 0.0:
            raise ValueError("h and T must be positive")
        if self.nu <= 0.0:
            raise ValueError("nu must be positive")
        if self.n_steps < 1:
            raise ValueError("floor(T/h) must be at least 1")
        if self.path is SolvePath.DIRECT_MINIMIZE and self.minimizer_tol <= 0.0:
            raise ValueError("minimizer_tol must be positive")

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.T / self.h))


@dataclass(frozen=True)
class StepResult:
    """One step's fields and diagnostics.

    ``kinetic_shifted`` and ``dirichlet`` are :func:`energy_terms` at v;
    ``max_divergence`` is max |div v|. ``stokes_outer`` counts the outer
    Uzawa iterations of the implicit Stokes solve that produced v: 0 on
    the periodic FFT path and on the direct-minimize path.

    ``el_residual`` is the norm of the solenoidal part of (v - w)/h -
    nu lap(v) on the direct-minimize path (from the split that gives p).
    On the Euler-Lagrange path it is the Stokes ``momentum_residual / h``,
    the norm of (v - w)/h - nu lap(v) + grad(p), an upper bound of the
    former: the Leray projector is orthogonal and removes grad(p).
    """

    v: VelocityField
    p: ScalarField
    w: VelocityField
    kinetic_shifted: float
    dirichlet: float
    functional_value: float
    el_residual: float
    max_divergence: float
    path_disagreement: float | None = None
    stokes_outer: int = 0


@dataclass
class Trajectory:
    """The produced sequence v_0 ... v_{N_T} plus per-step records."""

    cfg: DnsConfig
    snapshots: list[VelocityField]
    results: list[StepResult]
    projected_initial: bool = False

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.snapshots)) * self.cfg.h

    @property
    def final_time(self) -> float:
        return self.cfg.n_steps * self.cfg.h

    def replace_snapshot(self, n: int, v: VelocityField) -> None:
        """Test hook: overwrite a stored snapshot (fault injection)."""
        self.snapshots[n] = v


def backtrace(v_prev: VelocityField, h: float,
              order: InterpOrder = InterpOrder.LINEAR) -> VelocityField:
    """Evaluate w(x) = v_prev(x - h v_prev(x)) at every grid node."""
    if h <= 0.0:
        raise ValueError("time step h must be positive")
    spec = v_prev.spec
    X, Y = spec.mesh()
    pts = np.stack([X - h * v_prev.data[0], Y - h * v_prev.data[1]], axis=-1)
    vals = sample_offgrid(v_prev, pts, order)
    data = np.stack([vals[..., 0], vals[..., 1]])
    if spec.bc is BoundaryCondition.DIRICHLET_ZERO:
        # wall nodes do not move (v_prev vanishes there), so w is pinned
        # exactly; drop the interpolation dust
        data[:, 0, :] = data[:, -1, :] = 0.0
        data[:, :, 0] = data[:, :, -1] = 0.0
    return VelocityField(spec, data)


def functional_value(v: VelocityField, v_prev: VelocityField, h: float,
                     nu: float = 1.0,
                     order: InterpOrder = InterpOrder.LINEAR) -> float:
    """Quadrature value of the step functional I[v]."""
    kinetic, dirichlet = energy_terms(v, backtrace(v_prev, h, order), h)
    return kinetic + 0.5 * nu * dirichlet


def energy_terms(v: VelocityField, w: VelocityField,
                 h: float) -> tuple[float, float]:
    """The two terms of I[v] for the back-traced field w: the shifted
    kinetic term int |v - w|^2 / 2h and the Dirichlet energy int |Dv|^2."""
    d = v - w
    return inner_product_l2(d, d) / (2.0 * h), grad_norm_sq(v)


def _minimize_projected_cg(w: VelocityField, h: float, nu: float,
                           tol: float, max_iters: int):
    """Projected CG for the quadratic functional over solenoidal fields.

    Hessian application: H v = v/h - nu lap(v); every iterate and
    residual is re-projected onto the divergence-free subspace.
    """
    spec = w.spec

    def hess(f: VelocityField) -> VelocityField:
        return f * (1.0 / h) - nu * laplacian(f)

    def project(f: VelocityField) -> VelocityField:
        return leray_project(f).solenoidal

    b = project(w * (1.0 / h))
    x = VelocityField.zeros(spec)
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


def dns_step(v_prev: VelocityField, cfg: DnsConfig,
             solver: StokesSolver | None = None) -> StepResult:
    """Advance one step; v_prev is assumed divergence-free."""
    w = backtrace(v_prev, cfg.h, cfg.interp_order)

    def euler_lagrange():
        v, p, info = solve_implicit_stokes(w, cfg.h, cfg.nu, solver=solver)
        if not info.converged:
            raise SolverFailure(
                f"implicit Stokes solve hit the iteration cap "
                f"(max divergence {info.max_divergence:.3e})")
        if not math.isfinite(info.momentum_residual):
            # finite fields whose residual overflows cannot be certified
            raise NonFiniteFieldError(
                "implicit Stokes momentum residual is non-finite")
        return v, p, info

    def direct():
        v, iters, ok = _minimize_projected_cg(
            w, cfg.h, cfg.nu, cfg.minimizer_tol, cfg.minimizer_max_iters)
        if not ok:
            raise SolverFailure(
                f"projected CG minimizer did not converge in {iters} iterations")
        return v

    if cfg.path is SolvePath.EULER_LAGRANGE:
        v, p, info = euler_lagrange()
        outer, max_div = info.outer_iterations, info.max_divergence
        el_res = info.momentum_residual / cfg.h
    else:
        v = direct()
        outer, max_div = 0, float(np.max(np.abs(divergence(v).data)))
        # Leray split of the step residual (v - w)/h - nu lap(v): its
        # solenoidal part vanishes at the minimizer and its potential is
        # -p, since h grad(p) = w - v + h nu lap(v)
        split = leray_project((v - w) * (1.0 / cfg.h) - cfg.nu * laplacian(v))
        p = (split.potential * -1.0).demeaned()
        el_res = norm_l2(split.solenoidal)

    gap = None
    if cfg.cross_check:
        v_other = (direct() if cfg.path is SolvePath.EULER_LAGRANGE
                   else euler_lagrange()[0])
        gap = norm_l2(v - v_other)

    kinetic, dirichlet = energy_terms(v, w, cfg.h)
    if not (math.isfinite(kinetic) and math.isfinite(dirichlet)):
        # finite fields whose energy overflows cannot enter the ledger
        raise NonFiniteFieldError(
            f"step energy terms are non-finite (kinetic_shifted "
            f"{kinetic:.3e}, dirichlet {dirichlet:.3e})")
    return StepResult(
        v=v, p=p, w=w,
        kinetic_shifted=kinetic,
        dirichlet=dirichlet,
        functional_value=kinetic + 0.5 * cfg.nu * dirichlet,
        el_residual=el_res,
        max_divergence=max_div,
        path_disagreement=gap,
        stokes_outer=outer,
    )


def run(a: VelocityField, cfg: DnsConfig, sinks=()) -> Trajectory:
    """Iterate dns_step from the initial datum a.

    If a is not divergence-free within tolerance it is projected once
    and the fact is recorded on the trajectory. Each StepResult is
    streamed to the sinks as ``sink(step_index, result)``. Solver
    failures, and fields or step energy terms that overflow to
    non-finite values, are raised as SolverFailure carrying the step
    index (0 for the initial datum and its projection).
    """
    if a.spec != cfg.grid:
        raise ValueError("initial datum grid does not match the config")
    projected = False
    div_gate = max(cfg.div_tol, 1e-10 if a.spec.is_periodic else 1e-8)
    try:
        if float(np.max(np.abs(divergence(a).data))) > div_gate:
            a = leray_project(a).solenoidal
            projected = True
    except NonFiniteFieldError as exc:
        raise SolverFailure(f"initial datum: {exc}", step=0) from exc
    except ProjectionError as exc:
        raise SolverFailure(f"initial projection: {exc}", step=0) from exc

    solver = None
    if a.spec.bc is BoundaryCondition.DIRICHLET_ZERO:
        solver = StokesSolver(cfg.grid, cfg.h, cfg.nu, div_tol=cfg.div_tol)

    traj = Trajectory(cfg=cfg, snapshots=[a], results=[],
                      projected_initial=projected)
    v = a
    for n in range(1, cfg.n_steps + 1):
        try:
            result = dns_step(v, cfg, solver=solver)
        except (SolverFailure, ProjectionError, NonFiniteFieldError) as exc:
            raise SolverFailure(str(exc), step=n) from exc
        traj.snapshots.append(result.v)
        traj.results.append(result)
        for sink in sinks:
            sink(n, result)
        v = result.v
    return traj
