"""The benchmark's workloads: inputs, output checks and what each one is for.

Each workload is one `dnsflow` command on one config. Every later
performance change names one workload whose lead layer it speeds up and
one where that layer is minor, so the layers that dominate here differ
on purpose:

    workload    lead layer
    tg256       scheme.backtrace + interpolate.sample_offgrid (cubic)
    box64       projection.solve_implicit_stokes (Uzawa + inner CG)
    restart128  snapshot.write_vtk in the steps, snapshot.read_vtk in set-up
    verify64    analysis.weak_residual

``flat`` lists the per-layer metrics that a change aimed at another
workload's lead layer must not move here. Each workload's one-line
description is its `why` in BENCHMARK.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

TWO_PI = 6.283185307179586
RESTART_AMPLITUDE = 6.0
# the scheme is deterministic at one thread, so a change that keeps
# results to roundoff keeps l2_error_vs_oracle within this of l2_ref
L2_RTOL = 1e-5

BACKTRACE = ("interpolate.sample_offgrid_s", "interpolate.nodes_per_s",
             "scheme.backtrace_s", "scheme.backtrace_calls")
STOKES = ("projection.stokes_s", "projection.stokes_ms_p50",
          "projection.outer_iters", "projection.inner_iters",
          "projection.inner_per_outer")
STEP_OPERATORS = ("scheme.dns_step_self_s", "projection.leray_s",
                  "projection.leray_calls")
WRITE = ("snapshot.write_s", "snapshot.write_calls", "snapshot.write_bytes")
READ = ("snapshot.read_s", "snapshot.read_bytes")
ANALYSIS = ("analysis.weak_residual_s", "analysis.weak_residual_calls",
            "analysis.ledger_s", "analysis.checks_s")
RETAINED = ("scheme.retained_mb",)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # dnsflow subcommand: "run" or "verify"
    cells: int
    periodic: bool
    config: str             # every section but [grid]; {restart} is the restart file
    # step_ms_tail percentile: at least ten pooled steps lie beyond it, and
    # it stays below the one-per-command outliers (the final snapshot write
    # on tg256, the cold first step of each rung on verify64), which at
    # p95 made the tail jump by half between runs
    tail_pct: float
    lead: str
    flat: tuple[str, ...]
    restart: bool = False   # write a restart snapshot from the seed first
    seeded: bool = False    # inputs depend on --seed
    # l2_error_vs_oracle of the seed commit as report.txt prints it
    l2_ref: float | None = None

    @property
    def min_steps(self) -> int:
        """Pooled step count that leaves >= 10 steps beyond tail_pct."""
        return math.ceil(10.0 / (1.0 - self.tail_pct / 100.0) - 1e-9)

    @property
    def node_shape(self) -> tuple[int, int]:
        n = self.cells if self.periodic else self.cells + 1
        return n, n

    def config_text(self, restart: Path) -> str:
        bc = "periodic" if self.periodic else "dirichlet"
        return (f"[grid]\ncells = {self.cells}\nextent = {TWO_PI!r}\n"
                f"bc = {bc}\n" + self.config.format(restart=restart))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="tg256",
        command="run",
        cells=256,
        periodic=True,
        config="""[time]
h = 0.0125
t = 0.5
[scheme]
interp = cubic
[initial]
kind = taylor_green
amplitude = 1.0
[output]
cadence = 1000000
""",
        tail_pct=90.0,
        lead="scheme.backtrace + interpolate.sample_offgrid",
        flat=STOKES + READ + ANALYSIS,
        l2_ref=1.906573e-02,
    ),
    Workload(
        name="box64",
        command="run",
        cells=64,
        periodic=False,
        config="""[time]
h = 0.0125
t = 0.05
[scheme]
interp = linear
[initial]
kind = random_solenoidal
amplitude = 1.0
[output]
cadence = 1000000
""",
        tail_pct=50.0,
        lead="projection.solve_implicit_stokes",
        flat=BACKTRACE + STEP_OPERATORS + WRITE + READ + ANALYSIS + RETAINED,
        seeded=True,
    ),
    Workload(
        name="restart128",
        command="run",
        cells=128,
        periodic=True,
        config="""[time]
h = 0.01
t = 0.305
[scheme]
interp = linear
[initial]
kind = snapshot
file = {restart}
[output]
cadence = 1
""",
        tail_pct=90.0,
        lead="snapshot.write_vtk (steps) + snapshot.read_vtk (set-up)",
        flat=STOKES + ANALYSIS,
        restart=True,
        seeded=True,
    ),
    Workload(
        name="verify64",
        command="verify",
        cells=64,
        periodic=True,
        config="""[time]
h = 0.025
t = 0.25
[scheme]
interp = cubic
[initial]
kind = taylor_green
amplitude = 1.0
[ladder]
h = 0.025, 0.0125, 0.00625
""",
        tail_pct=90.0,
        lead="analysis.weak_residual",
        flat=WRITE + READ,
    ),
)}


def prepare(w: Workload, workdir: Path, seed: int) -> Path:
    """Write the workload's inputs under workdir; returns the config path.

    Runs before the timed region. The restart snapshot is made here from
    the seed with the program's own generator and writer, so the timed
    command only reads it.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    restart = (workdir / "restart.vtk").resolve()
    if w.restart:
        from dnsflow.bench import random_solenoidal_field
        from dnsflow.fields import BoundaryCondition, GridSpec
        from dnsflow.snapshot import write_vtk

        spec = GridSpec(w.cells, TWO_PI, BoundaryCondition.PERIODIC)
        write_vtk(restart, random_solenoidal_field(
            spec, seed=seed, amplitude=RESTART_AMPLITUDE))
    cfg = workdir / f"{w.name}.cfg"
    cfg.write_text(w.config_text(restart))
    return cfg


def _report(out: Path) -> dict[str, str]:
    values = {}
    for line in (out / "report.txt").read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key] = value
    return values


def check_outputs(w: Workload, out: Path, exit_code: int) -> tuple[list[str], dict]:
    """Check one command's outputs; returns (problems, observed values)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    problems: list[str] = []
    seen: dict = {}
    if w.command == "verify":
        lines = (out / "verify.txt").read_text().splitlines()
        if not lines or lines[-1] != "overall: PASS":
            problems.append("verify.txt does not end 'overall: PASS'")
        return problems, seen

    rep = _report(out)
    for key in ("step_inequality_holds", "cumulative_estimate_holds"):
        if rep.get(key) != "True":
            problems.append(f"{key} = {rep.get(key)}")
    div_bound = 1e-10 if w.periodic else 1e-8
    div = float(rep.get("max_divergence", "nan"))
    seen["max_divergence"] = div
    if not div < div_bound:
        problems.append(f"max_divergence {div:.3e} not below {div_bound:.0e}")
    if w.l2_ref is not None:
        l2 = float(rep.get("l2_error_vs_oracle", "nan"))
        seen["l2_err"] = l2
        if not abs(l2 - w.l2_ref) <= L2_RTOL * w.l2_ref:
            problems.append(f"l2_err {l2:.7e} differs from {w.l2_ref:.7e} "
                            f"by more than {L2_RTOL:g} relative")

    import numpy as np

    from dnsflow.snapshot import read_vtk

    final = out / f"snapshot_{rep.get('steps')}.vtk"
    if not final.is_file():
        problems.append(f"missing final snapshot {final.name}")
        return problems, seen
    v, p = read_vtk(final)
    if v.spec.node_shape != w.node_shape:
        problems.append(f"final snapshot grid {v.spec.node_shape} "
                        f"!= {w.node_shape}")
    if not np.all(np.isfinite(v.data)) or (
            p is not None and not np.all(np.isfinite(p.data))):
        problems.append("final snapshot holds non-finite values")
    return problems, seen
