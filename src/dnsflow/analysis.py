"""Executable checks for the scheme's energy and weak-form statements.

Everything here is read-only over completed runs: the per-step energy
inequality and its cumulative exponential bound, the gradient scaling
monitor, the material-derivative quadrature identity, the largest step
increment (the gap between the piecewise-constant and piecewise-linear
time interpolants) and the discrete weak-form residual.

A ledger row needs only its step's record: the shifted kinetic and
Dirichlet terms and int |v_n - v_{n-1}|^2. ``ledger_from_results``
builds the ledger from a :class:`RunSummary`'s records alone.
``build_energy_ledger``, ``max_step_increment`` and
``divergence_by_snapshot`` take a collected :class:`Trajectory`; they
read each step's record and the run's int |Dv_0|^2 from it, and
recompute from the stored snapshots where it holds None, which is
where :meth:`Trajectory.with_snapshot` edited a snapshot after the run.

Weak-form test functions are separable, phi = eta(t) curl psi(x): a
``TestFunction`` holds only the stream modes of psi, and the time bump
eta is laid on the horizon T of the trajectory it tests, so phi is
divergence-free and vanishes at t = 0 and t = T by construction.

``snapshot_pass`` walks a trajectory's snapshots once and takes one
velocity Jacobian per snapshot. It reduces that Jacobian to max |Dv|
for the gradient monitor and, given the weighted psi and D psi grids,
to every snapshot's weak-form inner products against all phi at once.
``weak_residual`` takes its inner products from a caller that holds
them, and makes its own pass otherwise; ``monitor_assumption_a`` fits
the rungs' max |Dv| against their h and reads no field.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import (
    GridSpec,
    NonFiniteFieldError,
    _max_div,
    advection_term,
    distance_sq,
    grad_max_norm,
    grad_norm_sq,
    quadrature_weights,
    velocity_jacobian,
)
from .scheme import (
    RunSummary,
    StepRecord,
    Trajectory,
    backtrace,
    div_free_bound,
    energy_terms,
)


# ---------------------------------------------------------------------------
# energy ledger

@dataclass(frozen=True)
class LedgerRow:
    n: int
    t: float
    kinetic_shifted: float   # int |v_n - v_{n-1}(x - h v_{n-1})|^2 / 2h
    kinetic_plain: float     # int |v_n - v_{n-1}|^2 / 2h
    dirichlet: float         # int |D v_n|^2
    dirichlet_prev: float
    fitted_c: float


@dataclass(frozen=True)
class EnergyLedger:
    rows: tuple[LedgerRow, ...]
    initial_dirichlet: float

    def __len__(self) -> int:
        return len(self.rows)


def _fitted_c(kinetic_plain: float, dirichlet: float,
              dirichlet_prev: float) -> float:
    """Smallest C >= 0 with kinetic + dirichlet <= (1 + C h) dirichlet_prev,
    in units of 1/h (the caller divides by h)."""
    if dirichlet_prev > 0.0:
        return max(0.0, (kinetic_plain + dirichlet - dirichlet_prev)
                   / dirichlet_prev)
    if kinetic_plain + dirichlet > 0.0:
        return math.inf
    return 0.0


def _ledger(h: float, initial_dirichlet: float, terms) -> EnergyLedger:
    """Rows from each step's (kinetic_shifted, increment_sq, dirichlet),
    in step order: the one row builder of both public ledger names."""
    rows = []
    dirichlet_prev = initial_dirichlet
    for n, (kin_s, increment_sq, dirichlet) in enumerate(terms, start=1):
        kin_p = increment_sq / (2.0 * h)
        c = _fitted_c(kin_p, dirichlet, dirichlet_prev)
        if math.isfinite(c):
            c = c / h
        rows.append(LedgerRow(n=n, t=n * h, kinetic_shifted=kin_s,
                              kinetic_plain=kin_p, dirichlet=dirichlet,
                              dirichlet_prev=dirichlet_prev, fitted_c=c))
        dirichlet_prev = dirichlet
    return EnergyLedger(tuple(rows), initial_dirichlet)


def _record_terms(record: StepRecord) -> tuple[float, float, float]:
    return record.kinetic_shifted, record.increment_sq, record.dirichlet


def ledger_from_results(summary: RunSummary) -> EnergyLedger:
    """The energy ledger of a run from its step records alone: ``cmd_run``
    and ``bench.convergence_study`` build it this way, with no field of
    any step but the two the summary holds."""
    return _ledger(summary.cfg.h, summary.initial_dirichlet,
                   map(_record_terms, summary.records))


def build_energy_ledger(traj: Trajectory) -> EnergyLedger:
    """The energy ledger of a trajectory, one row per step.

    A step's terms come from its record, and int |Dv_0|^2 from the
    trajectory; where either is None (a snapshot edited by
    :meth:`Trajectory.with_snapshot`, such as an injected fault) it is
    recomputed from the stored snapshots, back-trace included. A record
    holds the same function of the same fields, so either way a row is
    the same to the bit, and equals :func:`ledger_from_results` of the
    run's summary.
    """
    h, order = traj.cfg.h, traj.cfg.interp_order
    snaps = traj.snapshots

    def terms(record, v_prev, v) -> tuple[float, float, float]:
        if record is not None:
            return _record_terms(record)
        kin_s, dirichlet = energy_terms(v, backtrace(v_prev, h, order), h)
        return kin_s, distance_sq(v, v_prev), dirichlet

    initial = traj.initial_dirichlet
    if initial is None:
        initial = grad_norm_sq(snaps[0])
    return _ledger(h, initial, map(terms, traj.records, snaps, snaps[1:]))


def ledger_to_csv(ledger: EnergyLedger) -> str:
    out = io.StringIO()
    out.write("n,t,kinetic_shifted,kinetic_plain,dirichlet,fitted_c\n")
    for r in ledger.rows:
        out.write(f"{r.n},{r.t:.17g},{r.kinetic_shifted:.17g},"
                  f"{r.kinetic_plain:.17g},{r.dirichlet:.17g},"
                  f"{r.fitted_c:.17g}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# per-step inequality and cumulative estimate

@dataclass(frozen=True)
class StepInequalityRow:
    n: int
    holds: bool
    fitted_c: float
    vacuous_failure: bool


@dataclass(frozen=True)
class StepInequalityReport:
    rows: tuple[StepInequalityRow, ...]
    max_fitted_c: float
    all_hold: bool


def _terms_finite(r: LedgerRow) -> bool:
    return all(map(math.isfinite, (r.kinetic_shifted, r.kinetic_plain,
                                   r.dirichlet, r.dirichlet_prev, r.fitted_c)))


def check_step_inequality(ledger: EnergyLedger) -> StepInequalityReport:
    """Per-step dissipation bound with the plain velocity increment.

    A step holds when a finite C >= 0 makes
    kinetic_plain + dirichlet <= (1 + C h) dirichlet_prev. A zero
    previous Dirichlet energy with a positive left side is a vacuous
    failure: the flow generated energy from nothing. A row with a
    non-finite term never holds.
    """
    rows = []
    for r in ledger.rows:
        vacuous = (r.dirichlet_prev == 0.0
                   and r.kinetic_plain + r.dirichlet > 0.0)
        holds = _terms_finite(r) and not vacuous
        rows.append(StepInequalityRow(n=r.n, holds=holds, fitted_c=r.fitted_c,
                                      vacuous_failure=vacuous))
    max_c = max((r.fitted_c for r in rows), default=0.0)
    return StepInequalityReport(tuple(rows), max_c,
                                all(r.holds for r in rows))


@dataclass(frozen=True)
class CumulativeReport:
    holds: bool
    c_prime: float
    bound: float
    max_lhs: float


def check_cumulative_estimate(ledger: EnergyLedger, T: float) -> CumulativeReport:
    """Exponential-in-time bound on the accumulated energy.

    For every n the partial sum of shifted kinetic terms plus half the
    current Dirichlet energy must stay below C' e^{C' T} times the
    initial Dirichlet energy, with C' = max(max fitted C, 1). Where that
    product overflows while the initial energy, the left side and every
    ledger term are finite, the comparison is made in logarithms. It
    never holds with a non-finite ledger term or left side, or an
    infinite C'.
    """
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
        return CumulativeReport(False, c_prime, math.inf, max_lhs)
    # with e0 = 0 the bound is 0 even where the growth factor overflows
    bound = 0.0 if e0 == 0.0 else _growth(c_prime, T) * e0
    finite = (all(map(_terms_finite, ledger.rows))
              and all(map(math.isfinite, (e0, max_lhs))))
    if math.isfinite(bound):
        holds = finite and (max_lhs <= bound or max_lhs == 0.0)
    else:
        # the bound leaves the double range, the left side does not:
        # compare logarithms
        holds = finite and (max_lhs == 0.0 or math.log(max_lhs)
                            <= math.log(c_prime) + c_prime * T
                            + math.log(e0))
    return CumulativeReport(holds, c_prime, bound, max_lhs)


def _growth(c: float, T: float) -> float:
    """c e^{c T}, infinite where the exponential leaves the double range."""
    try:
        return c * math.exp(c * T)
    except OverflowError:
        return math.inf


def stable_within_factor(values: Sequence[float], factor: float = 2.0,
                         floor: float = 1e-9) -> bool:
    """h-independence surrogate: the values vary by less than ``factor``.

    All-below-floor collections (trivially dissipative runs fit with
    C = 0 everywhere) count as stable.
    """
    vals = [float(v) for v in values]
    if not vals or not all(math.isfinite(v) for v in vals):
        return False
    hi = max(vals)
    if hi <= floor:
        return True
    lo = max(min(vals), floor)
    return hi / lo < factor


# ---------------------------------------------------------------------------
# gradient scaling monitor

@dataclass(frozen=True)
class GradientScalingReport:
    h_values: tuple[float, ...]
    max_gradients: tuple[float, ...]
    alpha: float
    within_assumption: bool  # alpha <= 0.5 + 0.1


def monitor_assumption_a(hs: Sequence[float],
                         max_gradients: Sequence[float],
                         ) -> GradientScalingReport:
    """Fit max_n |Dv_n|_inf ~ h^(-alpha) across an h-ladder of runs.

    ``hs[k]`` is rung k's time step and ``max_gradients[k]`` its
    :attr:`SnapshotPass.max_gradient`: the fit needs no field, so a
    caller can drop each rung once it is reduced.
    """
    if len(hs) < 2:
        raise ValueError("need at least two runs to fit a scaling exponent")
    hs = tuple(hs)
    grads = list(max_gradients)
    if max(grads) <= 1e-14:
        alpha = 0.0
    else:
        logs = np.log(np.maximum(grads, 1e-300))
        alpha = float(-np.polyfit(np.log(hs), logs, 1)[0])
    return GradientScalingReport(hs, tuple(grads), alpha, alpha <= 0.6)


# ---------------------------------------------------------------------------
# material-derivative identity

@dataclass(frozen=True)
class AnalyticVectorField:
    """A smooth field given by closures for values and the Jacobian."""

    value: Callable  # (x, y) -> (u, v)
    jacobian: Callable  # (x, y) -> ((du/dx, du/dy), (dv/dx, dv/dy))


def constant_analytic_field(c1: float, c2: float) -> AnalyticVectorField:
    def value(x, y):
        return np.full_like(x, c1), np.full_like(x, c2)

    def jac(x, y):
        z = np.zeros_like(x)
        return (z, z), (z, z)

    return AnalyticVectorField(value, jac)


def material_derivative_identity(field: AnalyticVectorField, h: float,
                                 quad_nodes: int, spec: GridSpec) -> float:
    """L2 gap between the back-trace difference quotient and the
    line-integrated directional derivative.

    Left side: [v(x) - v(x - h v(x))] / h. Right side: composite
    midpoint quadrature of v(x) . Dv(x - h tau v(x)) over tau in [0, 1].
    Zero for constant fields regardless of h and the node count.
    """
    if quad_nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    if h <= 0.0:
        raise ValueError("time step h must be positive")
    X, Y = spec.mesh()
    vx, vy = field.value(X, Y)
    bx, by = field.value(X - h * vx, Y - h * vy)
    lhs_x = (vx - bx) / h
    lhs_y = (vy - by) / h
    rhs_x = np.zeros_like(X)
    rhs_y = np.zeros_like(X)
    for m in range(quad_nodes):
        tau = (m + 0.5) / quad_nodes
        (jxx, jxy), (jyx, jyy) = field.jacobian(X - h * tau * vx,
                                                Y - h * tau * vy)
        rhs_x += vx * jxx + vy * jxy
        rhs_y += vx * jyx + vy * jyy
    rhs_x /= quad_nodes
    rhs_y /= quad_nodes
    w = quadrature_weights(spec)
    gap2 = (lhs_x - rhs_x) ** 2 + (lhs_y - rhs_y) ** 2
    return float(np.sqrt(np.sum(w * gap2)))


# ---------------------------------------------------------------------------
# time increments

def max_step_increment(traj: Trajectory) -> float:
    """max_n |v_n - v_{n-1}|_L2, the gap between the two interpolants.

    A step's record holds int |v_n - v_{n-1}|^2; where the record is
    None it is recomputed from the snapshots, as the energy ledger does:
    either way the same sum, to the bit, that ``norm_l2`` takes.
    """
    snaps = traj.snapshots

    def increment_sq(record, v_prev, v) -> float:
        if record is not None:
            return record.increment_sq
        return distance_sq(v, v_prev)

    return max(math.sqrt(max(sq, 0.0))
               for sq in map(increment_sq, traj.records, snaps, snaps[1:]))


def divergence_by_snapshot(traj: Trajectory) -> list[tuple[float, float]]:
    """(max |div v_n|, div_free_bound(v_n)) for each stored snapshot
    after the first.

    A step's record holds max |div v| of its own v; where the record is
    None it is recomputed from the snapshot, as the energy ledger does.
    """
    out = []
    for record, snap in zip(traj.records, traj.snapshots[1:]):
        div = record.max_divergence if record is not None else _max_div(snap)
        out.append((div, div_free_bound(snap)))
    return out


# ---------------------------------------------------------------------------
# test functions and the weak-form residual

@dataclass(frozen=True)
class TestFunction:
    """Separable solenoidal test field phi(x, t) = eta(t) curl psi(x).

    psi = sum_m amp_m sin(k1_m x) sin(k2_m y) over the (k1, k2, amp)
    triples in ``modes``, and eta(t) = 16 t^2 (T - t)^2 / T^4 is the bump
    on the horizon T of the trajectory phi is paired with, so phi is
    divergence-free and vanishes at t = 0 and t = T by construction.
    """

    modes: tuple[tuple[int, int, float], ...]

    def on_grid(self, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        """curl psi = (d psi/dy, -d psi/dx) and its Jacobian at the grid
        nodes, shapes ``(2, *node_shape)`` and ``(2, 2, *node_shape)``."""
        x = spec.axis_nodes(0)[:, None]
        y = spec.axis_nodes(1)[None, :]
        val = np.zeros((2,) + spec.node_shape)
        jac = np.zeros((2, 2) + spec.node_shape)
        for k1, k2, a in self.modes:
            sx, cx = np.sin(k1 * x), np.cos(k1 * x)
            sy, cy = np.sin(k2 * y), np.cos(k2 * y)
            val += a * np.array([k2 * sx * cy, -k1 * cx * sy])
            jac += a * np.array([[k1 * k2 * cx * cy, -k2 * k2 * sx * sy],
                                 [k1 * k1 * sx * sy, -k1 * k2 * cx * cy]])
        return val, jac


def default_test_functions() -> list[TestFunction]:
    """Five distinct solenoidal test fields.

    Every member carries a (1, 1) stream mode so it pairs with the
    low-order content of smooth residuals; the extra odd-odd modes make
    the family genuinely independent.
    """
    mode_sets = [
        ((1, 1, 1.0),),
        ((1, 1, 1.0), (3, 1, 0.6)),
        ((1, 1, 1.0), (1, 3, -0.4)),
        ((1, 1, 1.0), (3, 3, 0.8)),
        ((1, 1, 1.0), (3, 3, 0.3), (3, 1, -0.2)),
    ]
    return [TestFunction(modes) for modes in mode_sets]


def weighted_test_grids(phis: Sequence[TestFunction],
                        spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """curl psi and its Jacobian of every phi at the grid nodes, times the
    quadrature weights: shapes ``(len(phis), 2 * nodes)`` and
    ``(len(phis), 4 * nodes)``, one row per phi."""
    w = quadrature_weights(spec)
    vals, jacs = zip(*(phi.on_grid(spec) for phi in phis))
    return ((w * np.stack(vals)).reshape(len(phis), -1),
            (w * np.stack(jacs)).reshape(len(phis), -1))


# <v_n, psi> for n = 0..N, then <Dv_n, D psi> and <(v_n . D) v_n, psi> for
# n = 1..N: one row per n, one column per phi
InnerProducts = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SnapshotPass:
    """A trajectory's snapshots reduced in one walk, one velocity Jacobian
    per snapshot after the first."""

    max_gradient: float                    # max_{n >= 1} |Dv_n|_inf
    inner_products: InnerProducts | None   # None without test grids


def snapshot_pass(traj: Trajectory,
                  grids: tuple[np.ndarray, np.ndarray] | None = None,
                  ) -> SnapshotPass:
    """Walk the snapshots once: each snapshot's Jacobian gives its
    max |Dv| and, with ``grids`` from :func:`weighted_test_grids`, its
    weak-form inner products, and is dropped before the next one is
    taken. ``verify`` builds the grids once for every rung on its grid.
    """
    snaps = traj.snapshots
    norms = []
    v_psi, dv_dpsi, adv_psi = [], [], []
    if grids is not None:
        psi, dpsi = grids
        v_psi.append(psi @ snaps[0].data.ravel())
    for v in snaps[1:]:
        jac = velocity_jacobian(v)
        norms.append(grad_max_norm(v, jac))
        if grids is not None:
            v_psi.append(psi @ v.data.ravel())
            dv_dpsi.append(dpsi @ jac.ravel())
            adv_psi.append(psi @ advection_term(v, jac).data.ravel())
        # unbind it now, or it stays alive while the next one is built
        del jac
    products = None
    if grids is not None:
        products = (np.array(v_psi), np.array(dv_dpsi), np.array(adv_psi))
    return SnapshotPass(max(norms), products)


@dataclass(frozen=True)
class WeakFormReport:
    linear_residual: float      # -int <v_h, phi_t> + int <Dv_bar, Dphi>
    nonlinear_residual: float   # linear + int <(v_bar . D) v_bar, phi>


def weak_residual(traj: Trajectory, phis: Sequence[TestFunction],
                  inner_products: InnerProducts | None = None,
                  ) -> list[WeakFormReport]:
    """Discrete weak-form residual of the trajectory against each phi.

    v_h and v_bar are the piecewise-linear and piecewise-constant
    interpolants of the snapshots. Each space-time integral splits into
    the inner products <v_n, psi>, <Dv_n, D psi> and <(v_n . D) v_n, psi>,
    taken against all psi in one pass over the snapshots, times step
    integrals of eta, eta' theta and eta' (1 - theta), whose integrands
    have degree <= 4 in t: 3-node Gauss-Legendre is exact.

    ``inner_products`` is the :attr:`SnapshotPass.inner_products` of this
    trajectory against ``phis``' grids, for callers that already hold it.
    """
    if inner_products is None:
        grids = weighted_test_grids(phis, traj.cfg.grid)
        inner_products = snapshot_pass(traj, grids).inner_products
    v_psi, dv_dpsi, adv_psi = inner_products

    # step integrals of eta, eta' theta and eta' (1 - theta)
    T = traj.final_time
    try:
        T4 = T**4
    except OverflowError:
        raise NonFiniteFieldError("weak residual: T**4 overflows, "
                                  f"T = {T:g}") from None
    nodes, weights = np.polynomial.legendre.leggauss(3)
    theta = 0.5 * (nodes + 1.0)
    t = traj.times[:-1, None] + traj.cfg.h * theta
    wq = 0.5 * traj.cfg.h * weights
    eta = (16.0 * t**2 * (T - t)**2 / T4) @ wq
    deta = 32.0 * t * (T - t) * (T - 2.0 * t) / T4 * wq
    linear = (eta @ dv_dpsi - (deta @ theta) @ v_psi[1:]
              - (deta @ (1.0 - theta)) @ v_psi[:-1])
    advect = eta @ adv_psi
    return [WeakFormReport(linear_residual=float(lin),
                           nonlinear_residual=float(lin + adv))
            for lin, adv in zip(linear, advect)]
