import dataclasses
import math
import struct
import textwrap

import numpy as np
import pytest

from dnsflow import BoundaryCondition, GridSpec, InterpOrder, SolvePath
from dnsflow import bench, cli, fields, projection, scheme, snapshot
from dnsflow.cli import _ladder_configs, main
from dnsflow.fields import VelocityField, divergence
from dnsflow.manifest import (
    ConfigError,
    load_manifest,
    parse_manifest,
)

from conftest import (
    collected_run,
    exactly_solenoidal_box_field,
    failing_cg,
    leaky_stokes,
    random_velocity,
)

BASE_CFG = textwrap.dedent("""\
    [grid]
    cells = 16
    bc = periodic

    [time]
    h = 0.05
    t = 0.2

    [scheme]
    interp = cubic
    path = euler_lagrange

    [initial]
    kind = taylor_green
    amplitude = 1.0

    [output]
    cadence = 2

    [ladder]
    h = 0.1, 0.05, 0.025
""")


# ---------------------------------------------------------------------------
# manifest parsing

def test_parse_basic():
    man = parse_manifest(BASE_CFG)
    assert man.cfg.grid.cells == (16, 16)
    assert man.cfg.grid.bc is BoundaryCondition.PERIODIC
    assert man.cfg.h == 0.05
    assert man.cfg.T == 0.2
    assert man.cfg.interp_order is InterpOrder.CUBIC
    assert man.cfg.path is SolvePath.EULER_LAGRANGE
    assert man.cadence == 2
    assert man.ladder_hs == (0.1, 0.05, 0.025)


def test_parse_strips_comments_and_blank_lines():
    man = parse_manifest("# top comment\n[time]\nh = 0.1  # step\nt = 0.2\n")
    assert man.cfg.h == 0.1


@pytest.mark.parametrize("mangle", [
    lambda s: s.replace("h = 0.05", ""),                   # missing h
    lambda s: s.replace("[grid]", "[grids]"),              # unknown section
    lambda s: s.replace("bc = periodic", "bc = weird"),
    lambda s: s.replace("h = 0.05", "h = soon"),
    lambda s: s.replace("kind = taylor_green", "kind = vortex_soup"),
    lambda s: s.replace("cells = 16", "cells = 3"),
    lambda s: "orphan = 1\n" + s,                          # key outside section
])
def test_parse_rejects_bad_configs(mangle):
    with pytest.raises(ConfigError):
        parse_manifest(mangle(BASE_CFG))


def test_snapshot_kind_needs_file():
    bad = BASE_CFG.replace("kind = taylor_green", "kind = snapshot")
    with pytest.raises(ConfigError):
        parse_manifest(bad)


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_manifest(tmp_path / "nope.cfg")


# ---------------------------------------------------------------------------
# CLI

def _write_cfg(tmp_path, text=BASE_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_run_zero_datum_two_steps(tmp_path):
    cfg = BASE_CFG.replace("kind = taylor_green", "kind = zero")
    cfg = cfg.replace("h = 0.05", "h = 0.1")
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    ledger = (out / "ledger.csv").read_text().strip().split("\n")
    assert len(ledger) == 3     # header + 2 steps
    for line in ledger[1:]:
        cols = line.split(",")
        assert float(cols[2]) == 0.0 and float(cols[4]) == 0.0
    assert (out / "report.txt").exists()
    assert (out / "snapshot_0.vtk").exists()
    assert (out / "snapshot_2.vtk").exists()


def test_cli_run_emits_oracle_error(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "l2_error_vs_oracle" in report


def test_cli_run_snapshot_round_trip_as_datum(tmp_path):
    path = _write_cfg(tmp_path)
    out1 = tmp_path / "first"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    cfg2 = BASE_CFG.replace("kind = taylor_green",
                            "kind = snapshot\nfile = "
                            + str(out1 / "snapshot_0.vtk"))
    path2 = _write_cfg(tmp_path, cfg2, name="resume.cfg")
    out2 = tmp_path / "second"
    assert main(["run", "--config", path2, "--out", str(out2)]) == 0
    led1 = (out1 / "ledger.csv").read_text()
    led2 = (out2 / "ledger.csv").read_text()
    assert led1 == led2


def test_cli_missing_config_exits_2(tmp_path):
    out = tmp_path / "nothing"
    assert main(["run", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_usage_error_exits_2(capsys):
    # one line, not argparse's usage block; subparsers report alike
    assert main(["frobnicate"]) == 2
    line = _assert_one_line_reason(capsys, "usage error: dnsflow: ")
    assert "frobnicate" in line
    assert main(["run", "--config", "configs/box.cfg", "--threads",
                 "abc"]) == 2
    line = _assert_one_line_reason(capsys, "usage error: dnsflow run: ")
    assert "--threads" in line
    assert main(["run", "--help"]) == 0


def test_cli_converge_single_rung(tmp_path):
    cfg = BASE_CFG.replace("h = 0.1, 0.05, 0.025", "h = 0.05")
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "conv"
    assert main(["converge", "--config", path, "--out", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().strip().split("\n")
    assert len(rows) == 2       # header + one rung


def test_cli_converge_ladder_monotone(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "conv"
    assert main(["converge", "--config", path, "--out", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().strip().split("\n")[1:]
    errs = [float(r.split(",")[2]) for r in rows]
    assert errs == sorted(errs, reverse=True)


def test_cli_converge_requires_ladder(tmp_path):
    cfg = BASE_CFG.split("[ladder]")[0]
    path = _write_cfg(tmp_path, cfg)
    assert main(["converge", "--config", path,
                 "--out", str(tmp_path / "x")]) == 2


def test_cli_verify_passes_on_clean_run(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "verify"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    text = (out / "verify.txt").read_text()
    assert "overall: PASS" in text
    assert "FAIL" not in text


def test_cli_verify_flags_corrupted_trajectory(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "verify"
    code = main(["verify", "--config", path, "--out", str(out),
                 "--inject-fault", "2"])
    assert code != 0
    assert "FAIL" in (out / "verify.txt").read_text()


@pytest.mark.parametrize("fault", [0, 1, 2], ids=["first", "middle", "last"])
def test_cli_verify_flags_fault_at_each_end(tmp_path, fault):
    # the first rung (h = 0.1, T = 0.2) stores snapshots 0, 1 and 2; a
    # fault at either end touches one step, in the middle two
    path = _write_cfg(tmp_path)
    out = tmp_path / "verify"
    code = main(["verify", "--config", path, "--out", str(out),
                 "--inject-fault", str(fault)])
    assert code == 1
    assert "FAIL" in (out / "verify.txt").read_text()


@pytest.fixture(scope="module")
def torus_ladder():
    man = parse_manifest(BASE_CFG)
    a = cli._build_initial(man)
    return man, [collected_run(a, cfg) for cfg in _ladder_configs(man)]


def _divergence_check(man, trajs):
    phis, grids = cli._weak_form_tests(man)
    rungs = [cli._reduce_rung(t, phis, grids) for t in trajs]
    return next(check for check in cli._ladder_checks(man, rungs)
                if check[0] == "divergence_free_steps")


def _divergence_detail(div, snap, h, n):
    return (f"max_divergence={div:.3e} bound={scheme.div_free_bound(snap):.3e}"
            f" h={h:g} n={n}")


def test_verify_divergence_check_reads_step_records(torus_ladder,
                                                    monkeypatch):
    man, trajs = torus_ladder
    snaps = [(float(np.max(np.abs(divergence(snap).data))), snap,
              traj.cfg.h, n)
             for traj in trajs
             for n, snap in enumerate(traj.snapshots[1:], start=1)]
    assert [s[0] for s in snaps] == [r.max_divergence
                                     for traj in trajs for r in traj.records]
    calls = []
    monkeypatch.setattr(fields, "divergence",
                        lambda v: calls.append(v) or divergence(v))
    _, ok, detail = _divergence_check(man, trajs)
    assert calls == []
    assert ok
    # the snapshot whose divergence is largest against its bound
    worst = max(snaps, key=lambda s: s[0] / scheme.div_free_bound(s[1]))
    assert detail == _divergence_detail(*worst)


def test_verify_divergence_check_fails_on_edited_snapshot(torus_ladder):
    man, trajs = torus_ladder
    first = trajs[0]
    bad = random_velocity(first.cfg.grid, seed=3)
    edited = first.with_snapshot(1, bad)
    bad_div = float(np.max(np.abs(divergence(bad).data)))
    assert bad_div > 1e-3
    _, ok, detail = _divergence_check(man, [edited, *trajs[1:]])
    assert not ok
    assert detail == _divergence_detail(bad_div, bad, first.cfg.h, 1)


def test_verify_certifies_divergence_relative_to_field(tmp_path):
    # a Taylor-Green datum of amplitude 1e6 on a 64^2 torus: every step
    # passes run's bound, which scales with max |v| / dx, while its
    # roundoff divergence (~3e-9) lies above the fixed DIV_FREE_BOUND
    cfg = (BASE_CFG.replace("cells = 16", "cells = 64")
           .replace("t = 0.2", "t = 0.1")
           .replace("amplitude = 1.0", "amplitude = 1e6")
           .replace("h = 0.1, 0.05, 0.025", "h = 0.025, 0.0125"))
    out = tmp_path / "verify"
    # the flow is far outside the regime of the h-stability and halving
    # checks, which fail (exit 1); no step fails (exit 3)
    assert main(["verify", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 1
    line = next(l for l in (out / "verify.txt").read_text().splitlines()
                if l.startswith("divergence_free_steps"))
    assert line.startswith("divergence_free_steps: PASS")
    div = float(line.split("max_divergence=")[1].split()[0])
    assert div > scheme.DIV_FREE_BOUND[BoundaryCondition.PERIODIC]


def test_cli_run_random_datum_seeded(tmp_path):
    cfg = BASE_CFG.replace("kind = taylor_green", "kind = random_solenoidal")
    path = _write_cfg(tmp_path, cfg)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out_a),
                 "--seed", "5"]) == 0
    # the benchmark's spelling of the hidden --threads flag changes nothing
    assert main(["run", "--config", path, "--out", str(out_b),
                 "--seed", "5", "--threads", "1"]) == 0
    assert ((out_a / "ledger.csv").read_text()
            == (out_b / "ledger.csv").read_text())


def test_cli_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    # an exact solve leaves roundoff divergence within its bound, so a
    # faulty stand-in leaves the divergence that cannot be certified
    monkeypatch.setattr(scheme, "solve_implicit_stokes", leaky_stokes)
    assert main(["run", "--config", _write_cfg(tmp_path, BOX_CFG),
                 "--out", str(tmp_path / "stuck_out")]) == 3
    line = _assert_one_line_reason(capsys, "solver failure: step 1: ")
    assert "max divergence" in line and "above its bound" in line


BOX_CFG = textwrap.dedent("""\
    [grid]
    cells = 16
    bc = dirichlet

    [time]
    h = 0.05
    t = 0.1

    [initial]
    kind = random_solenoidal
""")


def test_cli_run_reports_path_disagreement_only_when_cross_checked(tmp_path):
    plain = tmp_path / "plain"
    assert main(["run", "--config", _write_cfg(tmp_path),
                 "--out", str(plain)]) == 0
    assert "max_path_disagreement" not in (plain / "report.txt").read_text()
    checked = tmp_path / "checked"
    cfg = BASE_CFG.replace("path = euler_lagrange",
                           "path = euler_lagrange\ncross_check = true")
    assert main(["run", "--config", _write_cfg(tmp_path, cfg, name="cc.cfg"),
                 "--out", str(checked)]) == 0
    lines = (checked / "report.txt").read_text().splitlines()
    assert lines[:-1] == (plain / "report.txt").read_text().splitlines()
    assert lines[-1].startswith("max_path_disagreement = ")
    assert 0.0 <= float(lines[-1].split(" = ")[1]) < 1e-8
    assert ((checked / "ledger.csv").read_text()
            == (plain / "ledger.csv").read_text())


def test_cli_box64_divergence_at_roundoff(tmp_path):
    # benchmark box64 case (64^2, extent 2 pi, seed 41, 4 steps): the
    # exact box solve leaves max |div v| at roundoff (measured 6.5e-15),
    # and the report has no outer-iteration lines
    cfg = textwrap.dedent("""\
        [grid]
        cells = 64
        extent = 6.283185307179586
        bc = dirichlet
        [time]
        h = 0.0125
        t = 0.05
        [initial]
        kind = random_solenoidal
        [output]
        cadence = 1000000
        """)
    out = tmp_path / "box64"
    assert main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(out), "--seed", "41"]) == 0
    report = dict(line.split(" = ", 1)
                  for line in (out / "report.txt").read_text().splitlines())
    assert float(report["max_divergence"]) < 1e-13
    assert not any(key.startswith("stokes_outer") for key in report)


def _assert_one_line_reason(capsys, prefix):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    return lines[0]


def test_cli_projection_failure_exits_3_with_step(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(scheme, "_cg", failing_cg)
    # the direct path projects every step; the Euler-Lagrange path does not
    cfg = BOX_CFG.replace("kind = random_solenoidal",
                          "kind = zero\n[scheme]\npath = direct_minimize")
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    _assert_one_line_reason(capsys, "solver failure: step 1: ")


@pytest.mark.parametrize("threads", ["abc", "2", "0"])
def test_cli_bad_threads_exits_2(tmp_path, capsys, threads):
    # the flag is kept for the benchmark harness, which passes 1; the
    # rungs of a ladder run one after another
    code = main(["run", "--config", _write_cfg(tmp_path),
                 "--out", str(tmp_path / "out"), "--threads", threads])
    assert code == 2
    line = _assert_one_line_reason(capsys, "usage error: dnsflow run: ")
    assert "--threads" in line
    assert not (tmp_path / "out").exists()


def test_cli_missing_snapshot_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.vtk"
    cfg = BASE_CFG.replace("kind = taylor_green",
                           f"kind = snapshot\nfile = {missing}")
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    line = _assert_one_line_reason(capsys, "config error: ")
    assert str(missing) in line


def _snapshot_parts(tmp_path):
    """Header lines (through VECTORS) and data bytes of a v + p snapshot."""
    path = tmp_path / "good.vtk"
    v, p = bench.taylor_green_field(0.0, parse_manifest(BASE_CFG).cfg.grid)
    snapshot.write_vtk(path, v, p)
    raw = path.read_bytes()
    end = raw.index(b"\n", raw.index(b"\nVECTORS") + 1) + 1
    return raw[:end].decode().splitlines(), raw[end:]


@pytest.mark.parametrize("damage, named", [
    ("no_dimensions", "DIMENSIONS"),
    ("no_spacing", "SPACING"),
    ("short_vectors", "VECTORS block is shorter than DIMENSIONS"),
    ("short_scalars", "SCALARS block is shorter than DIMENSIONS"),
    ("one_extent", "needs two extents"),
    ("cut_mid_value", "VECTORS block is shorter than DIMENSIONS"),
    ("nan_velocity", "non-finite"),
    ("float_vectors", "BINARY VECTORS block has type float"),
])
def test_cli_malformed_snapshot_exits_2(tmp_path, capsys, damage, named):
    lines, data = _snapshot_parts(tmp_path)
    if damage == "short_vectors":
        data = data[:24 * 100]
    elif damage == "short_scalars":
        data = data[:-3 * 8]
    elif damage == "one_extent":
        lines[1] = "dnsflow bc=periodic extent=6.25"
    elif damage == "cut_mid_value":
        data = data[:24 * 100 + 5]
    elif damage == "nan_velocity":
        data = data[:8] + struct.pack(">d", math.nan) + data[16:]
    elif damage == "float_vectors":
        lines[-1] = "VECTORS velocity float"
    else:
        key = "DIMENSIONS" if damage == "no_dimensions" else "SPACING"
        lines = [line for line in lines if not line.startswith(key)]
    bad = tmp_path / "bad.vtk"
    bad.write_bytes(("\n".join(lines) + "\n").encode() + data)
    with pytest.raises(ValueError, match=named):
        snapshot.read_vtk(bad)
    cfg = BASE_CFG.replace("kind = taylor_green",
                           f"kind = snapshot\nfile = {bad}")
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    line = _assert_one_line_reason(capsys, "config error: bad snapshot: ")
    assert named in line


def test_ladder_rungs_keep_cross_check():
    man = parse_manifest(BASE_CFG.replace(
        "path = euler_lagrange", "path = euler_lagrange\ncross_check = true"))
    assert man.cfg.cross_check
    rungs = _ladder_configs(man)
    assert [c.h for c in rungs] == [0.1, 0.05, 0.025]
    assert all(c.cross_check for c in rungs)
    assert rungs == [dataclasses.replace(man.cfg, h=h)
                     for h in (0.1, 0.05, 0.025)]


def test_cli_verify_pairs_each_rung_with_its_own_horizon(tmp_path):
    # h = 0.1 takes floor(2.5) = 2 steps and ends at 0.2, h = 0.05 ends at
    # 0.25: each rung's test functions must vanish at that rung's end
    cfg = (BASE_CFG.replace("cells = 16", "cells = 32")
           .replace("t = 0.2", "t = 0.25")
           .replace("h = 0.1, 0.05, 0.025", "h = 0.1, 0.05"))
    out = tmp_path / "verify"
    assert main(["verify", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert "weak_residual_decreases: PASS" in (out / "verify.txt").read_text()


def test_cli_verify_weak_residual_check_fails_on_nan(tmp_path):
    # T^4 underflows to 0 at T = 2e-90, so every weak residual is NaN,
    # which no comparison with the previous rung rejects
    cfg = ("[grid]\ncells = 16\n[time]\nh = 1e-90\nt = 2e-90\n"
           "[initial]\nkind = taylor_green\n[ladder]\nh = 1e-90, 5e-91\n")
    out = tmp_path / "verify"
    assert main(["verify", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 1
    assert ("weak_residual_decreases: FAIL (phi0: nan->nan; "
            in (out / "verify.txt").read_text())


def test_cli_verify_prints_both_zero_quadrature_gaps(tmp_path):
    # on a torus of extent 1e-150 both material-derivative gaps underflow
    # to 0: the check passes, and its detail names the gaps, not a ratio
    cfg = ("[grid]\ncells = 16\nextent = 1e-150\n[time]\nh = 0.05\n"
           "t = 0.1\n[initial]\nkind = random_solenoidal\n"
           "amplitude = 1e-150\n[ladder]\nh = 0.05, 0.025\n")
    out = tmp_path / "verify"
    assert main(["verify", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert ("material_derivative_identity: PASS "
            "(constant=0.0e+00 M8=0.0e+00 M16=0.0e+00)\n"
            in (out / "verify.txt").read_text())


@pytest.mark.parametrize("extent, h, amplitude, step, reason", [
    # samples near 1e160 are finite, the datum's energies not
    ("6.283185307179586", "0.05", "1e160", 0, "energies are non-finite"),
    # on a wide torus int |a|^2 (~2e305) and int |Da|^2 are finite, but
    # the back-traced field is scrambled and int |v - w|^2 / 2h overflows
    ("1000.0", "1e-6", "1e150", 1, "energy terms are non-finite"),
], ids=["datum", "step"])
def test_cli_energy_overflow_exits_3_with_step(tmp_path, capsys, extent, h,
                                               amplitude, step, reason):
    # run reads no [ladder]; without it the rung h need not divide t
    cfg = (BASE_CFG.split("[ladder]")[0]
           .replace("bc = periodic", f"bc = periodic\nextent = {extent}")
           .replace("h = 0.05\n", f"h = {h}\n")
           .replace("t = 0.2", f"t = {2 * float(h)!r}")
           .replace("kind = taylor_green", "kind = random_solenoidal")
           .replace("amplitude = 1.0", f"amplitude = {amplitude}"))
    out = tmp_path / "out"
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(out)])
    assert code == 3
    line = _assert_one_line_reason(capsys, f"solver failure: step {step}: ")
    assert reason in line
    assert not (out / "report.txt").exists()


@pytest.mark.parametrize("exponent", [990, 503])
def test_cli_datum_energy_overflow_exits_3_at_step_0(tmp_path, capsys,
                                                     exponent):
    # an exactly solenoidal snapshot needs no projection, but its
    # int |Da|^2 (and at 2^990 its int |a|^2) overflows
    grid = GridSpec(16, extent=1.0, bc=BoundaryCondition.DIRICHLET_ZERO)
    datum = tmp_path / "datum.vtk"
    snapshot.write_vtk(datum, exactly_solenoidal_box_field(grid, 3,
                                                           2.0 ** exponent))
    cfg = (BOX_CFG.replace("bc = dirichlet", "bc = dirichlet\nextent = 1.0")
           .replace("kind = random_solenoidal",
                    f"kind = snapshot\nfile = {datum}"))
    out = tmp_path / "out"
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(out)])
    assert code == 3
    line = _assert_one_line_reason(capsys, "solver failure: step 0: ")
    assert "the datum's energies are non-finite" in line
    assert not (out / "report.txt").exists()


def test_cli_taylor_green_amplitude_overflow_exits_2(tmp_path, capsys):
    cfg = BASE_CFG.replace("amplitude = 1.0", "amplitude = 1e200")
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    line = _assert_one_line_reason(capsys, "config error: ")
    assert "amplitude" in line


# both fail on the datum: at 1e306 a sample of the generated field
# overflows, at 1e305 its energies do
@pytest.mark.parametrize("amplitude, step", [("1e306", 0), ("1e305", 0)])
def test_cli_non_finite_field_exits_3_with_step(tmp_path, capsys, amplitude,
                                                step):
    cfg = (BASE_CFG.replace("cells = 16", "cells = 32")
           .replace("kind = taylor_green", "kind = random_solenoidal")
           .replace("amplitude = 1.0", f"amplitude = {amplitude}"))
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    line = _assert_one_line_reason(capsys, f"solver failure: step {step}: ")
    assert "non-finite" in line


@pytest.mark.parametrize("old, new, named", [
    ("h = 0.1, 0.05, 0.025", "h = 0.1\ncells = 16.9, 8.2", "integers"),
    ("h = 0.1, 0.05, 0.025", "h = 0.1\ncells = 16, 7", "cells = 7"),
    ("path = euler_lagrange",
     "path = euler_lagrange\ncross_check = true\nminimizer_tol = 0",
     "minimizer_tol"),
    # the key is gone (the cap follows the grid): rejected as unknown
    ("path = euler_lagrange",
     "path = direct_minimize\nminimizer_max_iters = 0", "minimizer_max_iters"),
    # a repeated rung: converge's order between the two would divide by 0
    ("h = 0.1, 0.05, 0.025", "h = 0.1, 0.1", "h = 0.1, 0.1"),
    ("h = 0.1, 0.05, 0.025", "h = 0.1\ncells = 16, 16", "cells = 16, 16"),
], ids=["float-cells", "small-cells", "cross-check-zero-minimizer-tol",
        "zero-max-iters", "repeated-h", "repeated-cells"])
@pytest.mark.parametrize("command", ["run", "verify", "converge"])
def test_cli_unusable_settings_exit_2(tmp_path, capsys, old, new, named,
                                     command):
    """Ladder cell counts and solver tolerances are checked as the config
    is read, before any rung runs."""
    out = tmp_path / "out"
    code = main([command, "--config",
                 _write_cfg(tmp_path, BASE_CFG.replace(old, new)),
                 "--out", str(out)])
    assert code == 2
    assert named in _assert_one_line_reason(capsys, "config error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, kind, amplitude", [
    ("verify", "random_solenoidal", "1e200"),
    ("converge", "taylor_green", "1e154"),
])
def test_cli_overflow_reports_in_one_line(tmp_path, capsys, command, kind,
                                          amplitude):
    """An overflowing ladder rung fails in one line, with no numpy
    warning."""
    cfg = textwrap.dedent(f"""\
        [grid]
        cells = 8

        [time]
        h = 0.1
        t = 0.2

        [initial]
        kind = {kind}
        amplitude = {amplitude}

        [ladder]
        h = 0.1, 0.05
    """)
    code = main([command, "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    # the first rung's datum already has energies that overflow
    _assert_one_line_reason(capsys, "solver failure: step 0: ")


@pytest.mark.parametrize("section, line, key", [
    ("[scheme]", "interpp = cubic", "interpp"),
    ("[scheme]", "div_tols = 0", "div_tols"),
    ("[grid]", "cell = 8", "cell"),
    ("[ladder]", "hs = 0.1", "hs"),
    # the minimizer's iteration cap follows the grid; it is not a setting
    ("[scheme]", "minimizer_max_iters = 0", "minimizer_max_iters"),
    # the box solves are exact; no divergence tolerance is left to set
    ("[scheme]", "div_tol = 1e-9", "div_tol"),
])
def test_cli_unknown_key_exits_2(tmp_path, capsys, section, line, key):
    # a misspelled key must not run with the default it meant to change
    cfg = BASE_CFG.replace(section, f"{section}\n{line}")
    code = main(["verify", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    msg = _assert_one_line_reason(capsys, "config error: ")
    assert section in msg and key in msg
    assert not (tmp_path / "out" / "verify.txt").exists()


@pytest.mark.parametrize("section, old, new, key", [
    # in one section: the run would take h = 0.1 from the second line
    ("[time]", "h = 0.05", "h = 0.05\nh = 0.1", "h"),
    # under a repeated header: a linear run would replace the cubic one
    ("[scheme]", "[output]", "[scheme]\ninterp = linear\n\n[output]",
     "interp"),
], ids=["one-section", "repeated-header"])
def test_cli_repeated_key_exits_2(tmp_path, capsys, section, old, new, key):
    cfg = BASE_CFG.replace(old, new)
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    msg = _assert_one_line_reason(capsys, "config error: ")
    assert f"{section} {key} is given twice" in msg
    assert not (tmp_path / "out").exists()


def test_cli_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(BASE_CFG.encode() + b"# caf\xe9 \xff\n")
    code = main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    msg = _assert_one_line_reason(capsys, "config error: ")
    assert msg.endswith(f"config file {path} is not UTF-8 text")
    assert not (tmp_path / "out").exists()


def test_cli_config_with_byte_order_mark_runs_as_without(tmp_path):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    assert main(["run", "--config", _write_cfg(tmp_path),
                 "--out", str(plain)]) == 0
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + BASE_CFG.encode())
    assert main(["run", "--config", str(path), "--out", str(marked)]) == 0
    for name in ("report.txt", "ledger.csv"):
        assert (marked / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize("old, new", [
    ("h = 0.05", "h = 1e-320"),
    ("t = 0.2", "t = 1e308"),
    ("h = 0.1, 0.05, 0.025", "h = 0.1, 1e-320"),
], ids=["tiny-h", "huge-t", "tiny-ladder-h"])
@pytest.mark.parametrize("command", ["run", "verify", "converge"])
def test_cli_step_count_overflow_exits_2(tmp_path, capsys, old, new,
                                         command):
    # floor(T / h) of an infinite T / h raised OverflowError
    out = tmp_path / "out"
    code = main([command, "--config",
                 _write_cfg(tmp_path, BASE_CFG.replace(old, new)),
                 "--out", str(out)])
    assert code == 2
    assert "is not finite" in _assert_one_line_reason(capsys, "config error: ")
    assert not out.exists()


def test_cli_weak_residual_time_overflow_exits_3(tmp_path, capsys):
    # every step is finite, but T**4 of the weak residual's test
    # function overflows
    cfg = (BASE_CFG.replace("h = 0.05", "h = 1e77")
           .replace("t = 0.2", "t = 2e77")
           .replace("h = 0.1, 0.05, 0.025", "h = 1e77, 5e76"))
    code = main(["verify", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    line = _assert_one_line_reason(capsys,
                                   "solver failure: post-run analysis: ")
    assert "T**4" in line


@pytest.mark.parametrize("bc, extent", [
    ("dirichlet", "1e300"), ("dirichlet", "1e-300"), ("periodic", "1e300"),
])
def test_cli_cell_size_without_finite_square_exits_2(tmp_path, capsys, bc,
                                                     extent):
    # the box ended in OverflowError or ZeroDivisionError, the torus in
    # a non-finite quadrature weight dx^2 (exit 3)
    cfg = (BASE_CFG.replace("bc = periodic", f"bc = {bc}\nextent = {extent}")
           .replace("kind = taylor_green", "kind = zero"))
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    line = _assert_one_line_reason(capsys, "config error: ")
    assert "squared is not a positive finite number" in line


@pytest.mark.parametrize("bc, kind", [("dirichlet", "stream_bump"),
                                      ("periodic", "random_solenoidal")])
def test_cli_cell_size_with_subnormal_square_exits_2(tmp_path, capsys, bc,
                                                     kind):
    # dx^2 = 3.9e-313 is positive and finite, but 1/dx^2 overflows: the
    # box failed on its initial datum, the torus on its first step (exit 3)
    cfg = (BASE_CFG.replace("bc = periodic", f"bc = {bc}\nextent = 1e-155")
           .replace("kind = taylor_green", f"kind = {kind}"))
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    line = _assert_one_line_reason(capsys, "config error: ")
    assert "squared is not a positive finite number" in line


@pytest.mark.parametrize("amplitude", ["1e300", "1e307"])
def test_cli_overflowing_projection_datum_exits_3(tmp_path, capsys,
                                                  amplitude):
    # at 1e300 the exact projection returns a field whose energy
    # overflows; at 1e307 max |a| / dx overflows, so the datum's
    # divergence has no bound
    cfg = (BOX_CFG.replace("bc = dirichlet", "bc = dirichlet\nextent = 1.0")
           .replace("kind = random_solenoidal",
                    f"kind = stream_bump\namplitude = {amplitude}"))
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    line = _assert_one_line_reason(capsys, "solver failure: step 0: ")
    assert "non-finite" in line


def test_cli_box_snapshot_must_vanish_on_walls(tmp_path, capsys):
    # a uniform u = 1 passes the divergence gate unprojected, and the run
    # would report step_inequality_holds = False, max_fitted_c = inf
    grid = parse_manifest(BOX_CFG).cfg.grid
    uniform = tmp_path / "uniform.vtk"
    snapshot.write_vtk(uniform, VelocityField(
        grid, np.stack([np.ones(grid.node_shape),
                        np.zeros(grid.node_shape)])))
    cfg = BOX_CFG.replace("kind = random_solenoidal",
                          f"kind = snapshot\nfile = {uniform}")
    code = main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    msg = _assert_one_line_reason(capsys, "config error: ")
    assert "walls" in msg
    # a box run's own snapshots are exactly zero on the walls
    first = tmp_path / "first"
    assert main(["run", "--config", _write_cfg(tmp_path, BOX_CFG),
                 "--out", str(first)]) == 0
    cfg = BOX_CFG.replace("kind = random_solenoidal",
                          f"kind = snapshot\nfile = {first / 'snapshot_2.vtk'}")
    assert main(["run", "--config", _write_cfg(tmp_path, cfg, "resume.cfg"),
                 "--out", str(tmp_path / "second")]) == 0


def test_cli_verify_rejects_ladder_cells(tmp_path, capsys):
    cfg = BASE_CFG.replace("cells = 16", "cells = 8").replace(
        "h = 0.1, 0.05, 0.025", "h = 0.1, 0.05\ncells = 16, 32")
    code = main(["verify", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    msg = _assert_one_line_reason(capsys, "config error: ")
    assert "[ladder] cells" in msg and "converge" in msg
    assert not (tmp_path / "out").exists()
    # converge still reads the list
    assert main(["converge", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "conv")]) == 0


@pytest.mark.parametrize("command", ["run", "verify", "converge"])
@pytest.mark.parametrize("below_file", [False, True],
                         ids=["out-is-file", "out-below-file"])
def test_cli_unusable_out_exits_2(tmp_path, capsys, command, below_file):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if below_file else blocker
    code = main([command, "--config", _write_cfg(tmp_path),
                 "--out", str(out)])
    assert code == 2
    msg = _assert_one_line_reason(capsys, "i/o error: ")
    assert str(out) in msg
    assert blocker.read_text() == "not a directory\n"


# ---------------------------------------------------------------------------
# the pressure on demand: a step forms p only when a sink reads it

class _UnformedPressure:
    """Stand-in for ``projection._Deferred`` that raises when read."""

    def __init__(self, form):
        pass

    def __call__(self):
        raise AssertionError("a pressure was formed")


def _outputs(out, command):
    """The command's result files; convergence.csv without its run time,
    the last column."""
    if command == "verify":
        return (out / "verify.txt").read_text()
    rows = (out / "convergence.csv").read_text().splitlines()
    return [row.rsplit(",", 1)[0] for row in rows]


@pytest.mark.parametrize("command", ["verify", "converge"])
def test_verify_and_converge_form_no_pressure(tmp_path, capsys, monkeypatch,
                                              command):
    path = _write_cfg(tmp_path)
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setattr(projection, "_Deferred", _UnformedPressure)
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "unread")]) == 0
    unread = capsys.readouterr().out
    assert (_outputs(tmp_path / "unread", command)
            == _outputs(tmp_path / "plain", command))
    if command == "verify":
        assert unread == plain


@pytest.mark.parametrize("cadence", [1, 2, 3, 100])
def test_run_forms_exactly_the_pressures_it_writes(tmp_path, monkeypatch,
                                                   cadence):
    # each step's solve makes one deferred p, numbered here by step
    steps = 7
    made, formed = [], []

    class Counted(projection._Deferred):
        def __init__(self, form):
            made.append(len(made) + 1)
            n = made[-1]

            def counted():
                formed.append(n)
                return form()

            super().__init__(counted)

    monkeypatch.setattr(projection, "_Deferred", Counted)
    cfg = (BASE_CFG.replace("t = 0.2", f"t = {0.05 * steps + 0.01}")
           .replace("cadence = 2", f"cadence = {cadence}"))
    out = tmp_path / "out"
    assert main(["run", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    written = sorted(int(f.stem.split("_")[1])
                     for f in out.glob("snapshot_*.vtk"))
    expected = [n for n in range(1, steps + 1)
                if n % cadence == 0 or n == steps]
    assert made == list(range(1, steps + 1))
    assert written == [0] + expected
    assert formed == expected
