"""Every experiment config in ``configs/`` runs through the CLI and gives
the numbers it is checked in for.

The import below keeps the public names an experiment is built from: a
name dropped from ``dnsflow`` fails here rather than in a user's hands.
"""

import math
from pathlib import Path

import pytest

from dnsflow import (  # noqa: F401
    BoundaryCondition,
    DnsConfig,
    GridSpec,
    InterpOrder,
    check_cumulative_estimate,
    check_step_inequality,
    convergence_study,
    ledger_from_results,
    ledger_to_csv,
    norm_l2,
    run,
    stream_bump_field,
    taylor_green_field,
)
from dnsflow.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _report(out: Path) -> dict[str, str]:
    return dict(line.split(" = ", 1)
                for line in (out / "report.txt").read_text().splitlines())


def _check_taylor_green(out: Path) -> None:
    report = _report(out)
    assert math.isclose(float(report["l2_error_vs_oracle"]), 1.902987e-02,
                        rel_tol=1e-6)
    assert report["step_inequality_holds"] == "True"
    assert report["cumulative_estimate_holds"] == "True"
    assert (out / "snapshot_40.vtk").exists()


def _check_box(out: Path) -> None:
    report = _report(out)
    assert report["projected_initial"] == "True"
    assert float(report["max_divergence"]) < 1e-8
    assert report["steps"] == "16"
    assert report["step_inequality_holds"] == "True"


def _check_convergence(out: Path) -> None:
    rows = (out / "convergence.csv").read_text().strip().split("\n")[1:]
    orders = [float(r.split(",")[3]) for r in rows[1:]]
    assert len(orders) == 2 and min(orders) >= 0.9


# config file -> (subcommand that runs it, checks on its output directory)
COMMANDS = {
    "taylor_green.cfg": ("run", _check_taylor_green),
    "box.cfg": ("run", _check_box),
    "convergence.cfg": ("converge", _check_convergence),
}


def test_every_config_has_a_command():
    assert sorted(p.name for p in CONFIGS.glob("*.cfg")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_config_runs(name, tmp_path, capsys):
    command, check = COMMANDS[name]
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / name),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip()
    check(out)
