"""The variational time step and the run loop.

Each step picks the next velocity as the minimizer of

    I[v] = int |v - v_prev(x - h v_prev(x))|^2 / (2h) + (nu/2) |Dv|^2 dx

over discretely divergence-free fields. Two routes are implemented: the
Euler-Lagrange linear solve (production path, an implicit Stokes system
for the back-traced field) and direct minimization by conjugate
gradients on divergence-free fields (oracle path). The functional is
convex, so the two must agree; a cross-check mode measures their gap.

``run`` streams: each step's :class:`StepResult` (its scalars plus v
and p) goes to the caller's sinks and is dropped, and the run keeps one
:class:`StepRecord` per step, the datum it stepped from and the final
field (:class:`RunSummary`). A caller that reads every step's velocity
after the run passes a :class:`CollectingSink`, which keeps each v and
rebuilds the :class:`Trajectory` from them and the summary's records.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .fields import (
    BoundaryCondition,
    GridSpec,
    NonFiniteFieldError,
    ScalarField,
    VelocityField,
    distance_sq,
    divergence_and_dirichlet,
    grad_norm_sq,
    inner_product_l2,
    laplacian,
    norm_l2,
    pin_walls,
)
from .interpolate import InterpOrder, sample_offgrid
from .projection import leray_project, solve_implicit_stokes


class SolvePath(enum.Enum):
    EULER_LAGRANGE = "euler_lagrange"
    DIRECT_MINIMIZE = "direct_minimize"


# max |div v| up to which a field counts as divergence-free on each
# backend, for fields with max |v| / dx <= 1 (see div_free_bound)
DIV_FREE_BOUND = {BoundaryCondition.PERIODIC: 1e-10,
                  BoundaryCondition.DIRICHLET_ZERO: 1e-8}


def div_free_bound(v: VelocityField) -> float:
    """The max |div v| up to which v counts as divergence-free: its
    backend's DIV_FREE_BOUND, times max |v| / dx where that exceeds 1.
    Both solves are exact, so the divergence they leave is roundoff that
    grows with the field (about 5e-16 max |v| / dx on the box, at every
    amplitude); a fixed bound would fail large fields of either backend.
    Raises NonFiniteFieldError if max |v| / dx overflows.
    """
    amplitude = max(float(np.max(v.data)), -float(np.min(v.data)))
    scale = amplitude / v.spec.spacing
    if not math.isfinite(scale):
        raise NonFiniteFieldError(
            f"max |v| / dx is non-finite (max |v| {amplitude:.3e})")
    return DIV_FREE_BOUND[v.spec.bc] * max(1.0, scale)


class SolverFailure(RuntimeError):
    """A step's minimization did not converge, or a solve left a field
    that cannot be certified divergence-free."""

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
    cross_check: bool = False

    def __post_init__(self):
        if self.h <= 0.0 or self.T <= 0.0:
            raise ValueError("h and T must be positive")
        if self.nu <= 0.0:
            raise ValueError("nu must be positive")
        if not math.isfinite(self.T / self.h):
            raise ValueError(f"T/h = {self.T:g}/{self.h:g} is not finite")
        if self.n_steps < 1:
            raise ValueError("floor(T/h) must be at least 1")
        runs_minimizer = (self.path is SolvePath.DIRECT_MINIMIZE
                          or self.cross_check)
        if runs_minimizer and self.minimizer_tol <= 0.0:
            raise ValueError("minimizer_tol must be positive")

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.T / self.h))


@dataclass(frozen=True)
class StepRecord:
    """One step's scalars: all that its ledger row, the run report and
    the divergence check read.

    ``kinetic_shifted`` and ``dirichlet`` are :func:`energy_terms` at v;
    ``increment_sq`` is int |v - v_prev|^2, whose / 2h is the ledger's
    plain kinetic term; ``max_divergence`` is max |div v|. Both paths
    take it and ``dirichlet`` from ``divergence_and_dirichlet(v)``.

    ``el_residual`` is the norm of the solenoidal part of (v - w)/h -
    nu lap(v) on the direct-minimize path (from the split that gives p).
    On the Euler-Lagrange path it is the Stokes ``momentum_residual / h``,
    the norm of (v - w)/h - nu lap(v) + grad(p), an upper bound of the
    former: the Leray projector is orthogonal and removes grad(p).
    """

    kinetic_shifted: float
    dirichlet: float
    increment_sq: float
    functional_value: float
    el_residual: float
    max_divergence: float
    path_disagreement: float | None = None


@dataclass(frozen=True, kw_only=True)
class StepResult(StepRecord):
    """One step's record and fields: v and its pressure p. :func:`run`
    hands each to its sinks and keeps only :meth:`record`."""

    v: VelocityField
    p: ScalarField

    def record(self) -> StepRecord:
        """The step's scalars, without its fields."""
        return StepRecord(**{f.name: getattr(self, f.name)
                             for f in fields(StepRecord)})


@dataclass(frozen=True)
class RunSummary:
    """What :func:`run` keeps: one :class:`StepRecord` per step, the
    datum it stepped from (after any projection) with its int |Da|^2,
    and the final field. Every step's fields went to the sinks only; a
    :class:`CollectingSink` keeps each step's v."""

    cfg: DnsConfig
    initial: VelocityField
    initial_dirichlet: float
    final: VelocityField
    records: tuple[StepRecord, ...]
    projected_initial: bool = False

    # perfbench's traced child counts the bytes a run keeps from the
    # fields in ``snapshots`` and in ``results``: v_0 and v_N, no
    # StepResult
    results = ()

    @property
    def snapshots(self) -> list[VelocityField]:
        return [self.initial, self.final]

    @property
    def final_time(self) -> float:
        return self.cfg.n_steps * self.cfg.h


@dataclass(frozen=True)
class Trajectory:
    """The produced sequence v_0 ... v_{N_T} and one :class:`StepRecord`
    per step, as a :class:`CollectingSink` rebuilds it.

    ``records[n - 1]`` is step n's record, or None where step n must be
    recomputed from the snapshots; ``initial_dirichlet`` is int |Dv_0|^2,
    or None likewise. :meth:`with_snapshot` is the one edit, and clears
    what it invalidates.
    """

    cfg: DnsConfig
    snapshots: tuple[VelocityField, ...]
    records: tuple[StepRecord | None, ...]
    initial_dirichlet: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        object.__setattr__(self, "records", tuple(self.records))
        if len(self.records) != len(self.snapshots) - 1:
            raise ValueError(f"{len(self.snapshots)} snapshots need "
                             f"{len(self.snapshots) - 1} records, "
                             f"not {len(self.records)}")

    def with_snapshot(self, n: int, v: VelocityField) -> Trajectory:
        """This trajectory with snapshot n replaced by v (``verify
        --inject-fault``): the records of steps n and n + 1, the two that
        touch it, become None, and so at n = 0 does int |Dv_0|^2."""
        if not 0 <= n < len(self.snapshots):
            raise IndexError(f"snapshot {n} outside "
                             f"0..{len(self.snapshots) - 1}")
        snapshots = list(self.snapshots)
        snapshots[n] = v
        records = [None if k in (n - 1, n) else r
                   for k, r in enumerate(self.records)]
        return replace(self, snapshots=snapshots, records=records,
                       initial_dirichlet=(None if n == 0
                                          else self.initial_dirichlet))

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.snapshots)) * self.cfg.h

    @property
    def final_time(self) -> float:
        return self.cfg.n_steps * self.cfg.h


class CollectingSink:
    """A :func:`run` sink that keeps each step's v, for callers that read
    every snapshot after the run: ``verify``'s checks and tests. The
    step's p is dropped with the rest of its StepResult.
    :meth:`trajectory` rebuilds the run's Trajectory from these fields
    and the summary's records."""

    def __init__(self):
        self.velocities: list[VelocityField] = []

    def __call__(self, n: int, result: StepResult) -> None:
        self.velocities.append(result.v)

    def trajectory(self, summary: RunSummary) -> Trajectory:
        """The Trajectory of the run that returned ``summary`` and fed
        this sink."""
        return Trajectory(cfg=summary.cfg,
                          snapshots=(summary.initial, *self.velocities),
                          records=summary.records,
                          initial_dirichlet=summary.initial_dirichlet)


def backtrace(v_prev: VelocityField, h: float,
              order: InterpOrder = InterpOrder.LINEAR) -> VelocityField:
    """Evaluate w(x) = v_prev(x - h v_prev(x)) at every grid node."""
    if h <= 0.0:
        raise ValueError("time step h must be positive")
    spec = v_prev.spec
    # departure points stored component-major, so each coordinate (and
    # each component the sampler returns, which keeps this layout) is
    # contiguous; the sampler sees them through a (..., 2) view
    pts = h * v_prev.data
    np.subtract(spec.axis_nodes(0)[:, None], pts[0], out=pts[0])
    np.subtract(spec.axis_nodes(1)[None, :], pts[1], out=pts[1])
    vals = sample_offgrid(v_prev, np.moveaxis(pts, 0, -1), order)
    # wall nodes do not move (v_prev vanishes there), so w is pinned
    # exactly; drop the interpolation dust
    return VelocityField(spec, pin_walls(spec, np.moveaxis(vals, -1, 0)))


def functional_value(v: VelocityField, v_prev: VelocityField, h: float,
                     nu: float = 1.0,
                     order: InterpOrder = InterpOrder.LINEAR) -> float:
    """Quadrature value of the step functional I[v]."""
    kinetic, dirichlet = energy_terms(v, backtrace(v_prev, h, order), h)
    return kinetic + 0.5 * nu * dirichlet


def energy_terms(v: VelocityField, w: VelocityField, h: float,
                 dirichlet: float | None = None) -> tuple[float, float]:
    """The two terms of I[v] for the back-traced field w: the shifted
    kinetic term int |v - w|^2 / 2h and the Dirichlet energy int |Dv|^2.
    ``dirichlet`` is v's Dirichlet energy where the caller already holds
    it (computed here if None)."""
    if dirichlet is None:
        dirichlet = grad_norm_sq(v)
    return distance_sq(v, w) / (2.0 * h), dirichlet


def _cg(apply_a, b, x0, max_iters, rel_tol):
    """Hand-rolled CG; returns (x, iterations, converged). Stops on
    |r| <= rel_tol |b|; gives up, unconverged, once r.r or d.Ad is no
    longer positive, and at once if |b| is not finite (every residual
    would meet tol = inf)."""
    x = x0.copy()
    r = b - apply_a(x)
    b_norm = float(np.sqrt(np.sum(b * b)))
    if not math.isfinite(b_norm):
        return x, 0, False
    if b_norm == 0.0:
        return np.zeros_like(b), 0, True
    tol = rel_tol * b_norm
    d = r.copy()
    rr = float(np.sum(r * r))
    k = 0
    while k < max_iters:
        if math.sqrt(rr) <= tol:
            return x, k, True
        if not rr > 0.0:
            break
        ad = apply_a(d)
        dad = float(np.sum(d * ad))
        if dad <= 0.0:
            break
        alpha = rr / dad
        x += alpha * d
        r -= alpha * ad
        rr_new = float(np.sum(r * r))
        d = r + (rr_new / rr) * d
        rr = rr_new
        k += 1
    return x, k, math.sqrt(rr) <= tol


# the minimizer's CG cap per cell of the longer axis: the count grows
# with the grid (random solenoidal data: 88 iterations at 64^2,
# h = 0.05; 259 at 128^2 and 513 at 256^2, h = 0.1)
_MINIMIZER_ITERS_PER_CELL = 10


def _minimize_projected_cg(w: VelocityField, cfg: DnsConfig):
    """CG on P H P, H v = v/h - nu lap(v) and P the Leray projector, from
    b = P(w/h): every direction lies in the range of P, so an iteration
    projects once; the final iterate is projected once more."""
    spec, h, nu = w.spec, cfg.h, cfg.nu

    def hess(d: np.ndarray) -> np.ndarray:
        f = VelocityField(spec, d)
        return leray_project(f * (1.0 / h) - nu * laplacian(f)).solenoidal.data

    b = leray_project(w * (1.0 / h)).solenoidal.data
    x, k, ok = _cg(hess, b, np.zeros_like(b),
                   _MINIMIZER_ITERS_PER_CELL * max(spec.cells),
                   cfg.minimizer_tol)
    if not ok:
        raise SolverFailure(
            f"projected CG minimizer did not converge in {k} iterations")
    return leray_project(VelocityField(spec, x)).solenoidal


def dns_step(v_prev: VelocityField, cfg: DnsConfig) -> StepResult:
    """Advance one step; v_prev is assumed divergence-free."""
    w = backtrace(v_prev, cfg.h, cfg.interp_order)

    def euler_lagrange():
        v, p, info = solve_implicit_stokes(w, cfg.h, cfg.nu)
        if not math.isfinite(info.momentum_residual):
            # finite fields whose residual overflows cannot be certified
            raise NonFiniteFieldError(
                "implicit Stokes momentum residual is non-finite")
        return v, p, info.momentum_residual / cfg.h

    if cfg.path is SolvePath.EULER_LAGRANGE:
        v, p, el_res = euler_lagrange()
    else:
        v = _minimize_projected_cg(w, cfg)
        # Leray split of the step residual (v - w)/h - nu lap(v): its
        # solenoidal part vanishes at the minimizer and its potential is
        # -p, since h grad(p) = w - v + h nu lap(v)
        split = leray_project((v - w) * (1.0 / cfg.h) - cfg.nu * laplacian(v))
        p = (split.potential * -1.0).demeaned()
        el_res = norm_l2(split.solenoidal)
    max_div, dirichlet = divergence_and_dirichlet(v)

    gap = None
    if cfg.cross_check:
        v_other = (_minimize_projected_cg(w, cfg)
                   if cfg.path is SolvePath.EULER_LAGRANGE
                   else euler_lagrange()[0])
        gap = norm_l2(v - v_other)

    kinetic, dirichlet = energy_terms(v, w, cfg.h, dirichlet)
    if not (math.isfinite(kinetic) and math.isfinite(dirichlet)):
        # finite fields whose energy overflows cannot enter the ledger
        raise NonFiniteFieldError(
            f"step energy terms are non-finite (kinetic_shifted "
            f"{kinetic:.3e}, dirichlet {dirichlet:.3e})")
    bound = div_free_bound(v)
    if not max_div <= bound:
        raise SolverFailure(f"the step's solve leaves max divergence "
                            f"{max_div:.3e} above its bound {bound:.3e}")
    return StepResult(
        v=v, p=p,
        kinetic_shifted=kinetic,
        dirichlet=dirichlet,
        increment_sq=distance_sq(v, v_prev),
        functional_value=kinetic + 0.5 * cfg.nu * dirichlet,
        el_residual=el_res,
        max_divergence=max_div,
        path_disagreement=gap,
    )


def run(a: VelocityField, cfg: DnsConfig, sinks=()) -> RunSummary:
    """Iterate dns_step from the initial datum a.

    If max |div a| exceeds ``div_free_bound(a)``, a is projected once
    and the fact is recorded on the summary; the projected datum must
    then be within its bound, as a step's v must. The datum, projected
    or not, must have a finite int |a|^2 and int |Da|^2. Each StepResult
    is streamed to the sinks as ``sink(step_index, result)`` and then
    dropped: the run keeps each step's :class:`StepRecord`, the datum it
    stepped from and the final field (:class:`RunSummary`), so its
    memory does not grow with the step count. Solver failures, and
    fields or step energy terms that overflow to non-finite values, are
    raised as SolverFailure carrying the step index (0 for the initial
    datum and its projection).
    """
    if a.spec != cfg.grid:
        raise ValueError("initial datum grid does not match the config")
    projected = False
    try:
        max_div, dirichlet = divergence_and_dirichlet(a)
        if not max_div <= div_free_bound(a):
            a = leray_project(a).solenoidal
            projected = True
            max_div, dirichlet = divergence_and_dirichlet(a)
            bound = div_free_bound(a)
            if not max_div <= bound:
                raise SolverFailure(
                    f"initial projection leaves max divergence "
                    f"{max_div:.3e} above its bound {bound:.3e}", step=0)
        # the two energies of the datum; the ledger reads the second
        energy = inner_product_l2(a, a)
        if not (math.isfinite(energy) and math.isfinite(dirichlet)):
            raise NonFiniteFieldError(
                f"the datum's energies are non-finite (int |a|^2 "
                f"{energy:.3e}, int |Da|^2 {dirichlet:.3e})")
    except NonFiniteFieldError as exc:
        raise SolverFailure(f"initial datum: {exc}", step=0) from exc

    records = []
    v = a
    for n in range(1, cfg.n_steps + 1):
        try:
            result = dns_step(v, cfg)
        except (SolverFailure, NonFiniteFieldError) as exc:
            raise SolverFailure(str(exc), step=n) from exc
        records.append(result.record())
        for sink in sinks:
            sink(n, result)
        v = result.v
        # drop the step's p before the next step builds its own
        del result
    return RunSummary(cfg=cfg, initial=a, initial_dirichlet=dirichlet,
                      final=v, records=tuple(records),
                      projected_initial=projected)
