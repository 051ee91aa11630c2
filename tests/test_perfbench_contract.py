"""The benchmark's child process wraps layer functions by name.

`perfbench/child.py --trace 1` replaces module attributes such as
`analysis.ledger_from_results` and `analysis.backtrace` with span
recorders via `getattr`, so renaming or dropping one breaks traced
benchmark runs and nothing else. `--trace 0` stamps each `dns_step`
entry and each return of `run` through `cli`'s binding, from which the
benchmark takes its step times. These tests run the child on tiny
commands and check that the wrapped functions still exist and are
called, that the ledger back-traces only the steps whose snapshots were
edited after the run, and that a run keeps no step's fields.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

BOX_RUN = """[grid]
cells = 16
bc = dirichlet
[time]
h = 0.0125
t = 0.025
[initial]
kind = random_solenoidal
"""

TORUS_VERIFY = """[grid]
cells = 16
bc = periodic
[time]
h = 0.025
t = 0.05
[scheme]
interp = cubic
[initial]
kind = taylor_green
[ladder]
h = 0.025, 0.0125
"""


def _child(tmp_path, command, config_text, *extra, trace="1", code=0):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(config_text)
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the argv of perfbench/run.py, whose --threads 1 the CLI still accepts
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--trace",
         trace, "--record", str(record), "--run-id", "contract", "--",
         command, "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--threads", "1", "--seed", "1", *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    return json.loads(record.read_text())


def _traced(tmp_path, command, config_text, *extra, code=0):
    return _child(tmp_path, command, config_text, *extra, code=code)["spans"]


@pytest.mark.parametrize("command,config,ledger", [
    ("run", BOX_RUN, "analysis.ledger_from_results"),
    ("verify", TORUS_VERIFY, "analysis.build_energy_ledger"),
], ids=["box-run", "torus-verify"])
def test_traced_child_finds_every_layer_hook(tmp_path, command, config,
                                             ledger):
    spans = _traced(tmp_path, command, config)
    assert {ledger, "scheme.backtrace", "projection.solve_implicit_stokes",
            "interpolate.sample_offgrid"} <= {s["name"] for s in spans}
    if command == "run":
        # run projects the box datum once, through the scheme module's
        # binding, which projection.leray_s and leray_calls read
        assert sum(s["name"] == "projection.leray_project"
                   for s in spans) == 1
        # run keeps v_0 and v_N (17^2 nodes, two components), no step's
        # fields: scheme.retained_mb reads these bytes
        (run_span,) = [s for s in spans if s["name"] == "scheme.run"]
        field_bytes = 2 * 17 * 17 * 8
        assert run_span["attrs"]["retained_bytes"] <= 2 * field_bytes
    if command == "verify":
        # the traced child wraps both by name: a verify that stopped
        # calling them would leave their per-layer metrics empty
        assert {"analysis.weak_residual",
                "analysis.monitor_assumption_a"} <= {s["name"] for s in spans}
        # a clean ladder's ledger reads every step's own record: it runs
        # no back-trace of its own
        ledger_spans = {i for i, s in enumerate(spans) if s["name"] == ledger}
        assert ledger_spans
        assert not any(s["name"] == "scheme.backtrace"
                       and s["parent"] in ledger_spans for s in spans)


def test_traced_child_sees_ledger_backtraces_after_fault(tmp_path):
    # a faulted snapshot sends the ledger back to recomputing the steps
    # it touches, through the analysis module binding: snapshot 1 of the
    # first rung starts step 2 and ends step 1. The faulted ladder fails
    # verification (exit 1)
    spans = _traced(tmp_path, "verify", TORUS_VERIFY, "--inject-fault", "1",
                    code=1)
    ledger = "analysis.build_energy_ledger"
    under_ledger = [s for s in spans if s["name"] == "scheme.backtrace"
                    and s["parent"] >= 0
                    and spans[s["parent"]]["name"] == ledger]
    assert len(under_ledger) == 2


@pytest.mark.parametrize("command,config,steps", [
    ("run", BOX_RUN, [2]),
    ("verify", TORUS_VERIFY, [2, 4]),
], ids=["box-run", "torus-verify"])
def test_untraced_child_stamps_every_step_and_rung(tmp_path, command, config,
                                                   steps):
    # one run_returns stamp per rung and one steps stamp per step, each
    # rung's steps before its return: every command must call run through
    # cli's own binding, or the benchmark has no step times to read
    record = _child(tmp_path, command, config, trace="0")
    returns, stamps = record["run_returns"], record["steps"]
    assert len(returns) == len(steps)
    assert len(stamps) == sum(steps)
    assert ([sum(t < end for t in stamps) for end in returns]
            == list(itertools.accumulate(steps)))
