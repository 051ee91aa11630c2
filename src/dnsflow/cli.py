"""Command-line entry point: run, verify and converge subcommands.

Exit codes: 0 success, 1 verification failure, 2 usage, config or I/O
error, 3 solver failure.

``run`` writes each snapshot from a sink and builds its ledger and
report from the step records, so it keeps no step's fields; ``verify``
collects every rung's fields, which its checks read.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, bench, snapshot
from .fields import (
    BoundaryCondition,
    NonFiniteFieldError,
    VelocityField,
    norm_l2,
)
from .manifest import ConfigError, RunManifest, load_manifest
from .scheme import CollectingSink, DnsConfig, SolverFailure, Trajectory, run

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _oracle(man: RunManifest) -> bench.TaylorGreenOracle:
    amp = man.initial.amplitude
    if not math.isfinite(amp * amp):
        raise ConfigError(f"taylor_green amplitude {amp:g} is too large: "
                          "the pressure scale A^2/4 overflows")
    return bench.TaylorGreenOracle(amplitude=amp, nu=man.cfg.nu)


def _build_initial(man: RunManifest) -> VelocityField:
    kind = man.initial.kind
    grid = man.cfg.grid
    amp = man.initial.amplitude
    if kind == "zero":
        return VelocityField.zeros(grid)
    if kind == "snapshot":
        try:
            v, _ = snapshot.read_vtk(man.initial.file)
        except OSError as exc:
            raise ConfigError(f"cannot read snapshot {man.initial.file}: "
                              f"{exc.strerror}") from None
        except ValueError as exc:
            raise ConfigError(f"bad snapshot: {exc}") from None
        if v.spec != grid:
            raise ConfigError("snapshot grid does not match the [grid] section")
        if not v.is_boundary_compliant():
            raise ConfigError("snapshot velocity is not zero on the box walls")
        return v
    oracle = _oracle(man) if kind == "taylor_green" else None
    # a grid the generator does not support, or samples that overflow
    try:
        if kind == "taylor_green":
            return bench.taylor_green_field(0.0, grid, oracle)[0]
        if kind == "random_solenoidal":
            return bench.random_solenoidal_field(grid, seed=man.seed,
                                                 amplitude=amp)
        if kind == "stream_bump":
            return bench.stream_bump_field(grid, amplitude=amp)
    except ValueError as exc:
        raise ConfigError(f"{kind} initial datum: {exc}") from None
    raise ConfigError(f"unhandled initial kind {kind}")


def _ladder_configs(man: RunManifest) -> list[DnsConfig]:
    if not man.ladder_hs:
        raise ConfigError("this subcommand needs a [ladder] section with h = ...")
    if man.ladder_cells:
        raise ConfigError("[ladder] cells is read only by converge; this "
                          "subcommand runs every rung on [grid] cells")
    # the checks compare rungs: the monitor fits a line through (log h,
    # log max|Dv|) and the increments and residuals must fall with h;
    # parse_manifest has already refused a repeated rung
    hs = man.ladder_hs
    if len(hs) < 2:
        raise ConfigError("[ladder] h needs two or more distinct values; "
                          "got h = " + ", ".join(f"{h:g}" for h in hs))
    return [dataclasses.replace(man.cfg, h=h) for h in sorted(hs, reverse=True)]


def cmd_run(man: RunManifest) -> int:
    a = _build_initial(man)
    out = Path(man.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = man.cfg

    def snapshot_sink(n: int, result) -> None:
        if n % man.cadence == 0 or n == cfg.n_steps:
            snapshot.write_vtk(out / f"snapshot_{n}.vtk", result.v, result.p)

    snapshot.write_vtk(out / "snapshot_0.vtk", a)
    summary = run(a, cfg, sinks=[snapshot_sink])
    records = summary.records

    ledger = analysis.ledger_from_results(summary)
    (out / "ledger.csv").write_text(analysis.ledger_to_csv(ledger))

    report = [
        f"steps = {cfg.n_steps}",
        f"final_time = {summary.final_time:.17g}",
        f"projected_initial = {summary.projected_initial}",
        f"max_divergence = {max(r.max_divergence for r in records):.6e}",
        f"max_el_residual = {max(r.el_residual for r in records):.6e}",
    ]
    step_rep = analysis.check_step_inequality(ledger)
    cum = analysis.check_cumulative_estimate(ledger, summary.final_time)
    report += [
        f"step_inequality_holds = {step_rep.all_hold}",
        f"max_fitted_c = {step_rep.max_fitted_c:.6e}",
        f"cumulative_estimate_holds = {cum.holds}",
        f"cumulative_bound = {cum.bound:.6e}",
        f"cumulative_lhs = {cum.max_lhs:.6e}",
    ]
    if man.initial.kind == "taylor_green":
        exact, _ = bench.taylor_green_field(summary.final_time, cfg.grid,
                                            _oracle(man))
        report.append(
            f"l2_error_vs_oracle = {norm_l2(summary.final - exact):.6e}")
        if not math.isclose(summary.final_time, cfg.T, rel_tol=1e-12):
            report.append(f"comparison_time = {summary.final_time:.17g} "
                          "(T/h not integral; floor(T/h) steps taken)")
    if cfg.cross_check:
        gap = max(r.path_disagreement for r in records)
        report.append(f"max_path_disagreement = {gap:.6e}")
    (out / "report.txt").write_text("\n".join(report) + "\n")
    print("\n".join(report))
    return EXIT_OK


def _verify_checks(man: RunManifest, trajs: list[Trajectory]) -> list[tuple[str, bool, str]]:
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
        trajs, max_gradients=[p.max_gradient for p in passes])
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


def cmd_verify(man: RunManifest, inject_fault: int | None = None) -> int:
    configs = _ladder_configs(man)
    out = Path(man.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    a = _build_initial(man)
    # the checks below read every step's fields, so each rung keeps them
    trajs = []
    for cfg in configs:
        sink = CollectingSink()
        trajs.append(sink.trajectory(run(a, cfg, sinks=[sink])))
    if inject_fault is not None:
        traj = trajs[0]
        if not 0 <= inject_fault < len(traj.snapshots):
            raise ConfigError(f"fault index {inject_fault} outside the "
                              f"trajectory (0..{len(traj.snapshots) - 1})")
        traj.replace_snapshot(inject_fault, -traj.snapshots[inject_fault])
    checks = _verify_checks(man, trajs)
    lines = []
    for name, ok, detail in checks:
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    all_ok = all(ok for _, ok, _ in checks)
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    (out / "verify.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_converge(man: RunManifest) -> int:
    if not man.ladder_hs:
        raise ConfigError("converge needs a [ladder] section with h = ...")
    if man.initial.kind != "taylor_green":
        raise ConfigError("the convergence study compares against the "
                          "Taylor-Green oracle; set initial kind accordingly")
    out = Path(man.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = man.ladder_cells or (man.cfg.grid.cells[0],)
    oracle = _oracle(man)
    # the study's ValueErrors are about its inputs: the grids, the rungs'
    # h and whether the oracle fits the grid
    try:
        table = bench.convergence_study(man.cfg, man.ladder_hs, cells,
                                        oracle=oracle)
    except ValueError as exc:
        raise ConfigError(f"convergence study: {exc}") from None
    (out / "convergence.csv").write_text(table.to_csv())
    text = table.to_text()
    (out / "convergence.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for main to report in one line, where argparse
    would print its usage block and exit; subparsers inherit the class."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dnsflow",
        description="Variational time-discrete incompressible flow solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "advance the scheme and emit snapshots"),
                            ("verify", "run the h-ladder and check every "
                                       "energy/weak-form statement"),
                            ("converge", "oracle convergence study")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default="out", help="output directory")
        # only perfbench/run.py passes it; goes when ROADMAP item 1 drops it
        p.add_argument("--threads", type=int, choices=(1,),
                       help=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=0,
                       help="seed for random initial data")
        if name == "verify":
            p.add_argument("--inject-fault", type=int, default=None,
                           metavar="STEP",
                           help="self-test hook: negate snapshot STEP of the "
                                "first rung before the checks")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # --help prints and exits 0
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        man = load_manifest(args.config, out_dir=args.out, seed=args.seed)
        # fields reject non-finite samples and that failure is reported in
        # one line below; numpy's overflow warnings would only repeat it
        with np.errstate(all="ignore"):
            if args.command == "run":
                return cmd_run(man)
            if args.command == "verify":
                return cmd_verify(man, inject_fault=args.inject_fault)
            return cmd_converge(man)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NonFiniteFieldError as exc:
        print(f"solver failure: post-run analysis: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        # the output directory or a file in it cannot be made or written
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
