import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dnsflow import BoundaryCondition, GridSpec, ScalarField
from dnsflow.cli import main
from dnsflow.fields import NonFiniteFieldError
from dnsflow.snapshot import read_vtk, write_vtk

from conftest import random_pinned_velocity, random_scalar, random_velocity

BACKENDS = [BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET_ZERO]


# Reference: the ASCII writer the binary one replaced, kept verbatim, so
# the snapshots it left on disk stay covered as restart inputs.

def _ref_fmt(x: float) -> str:
    return f"{x:.17g}"


def _ref_write_vtk_ascii(path, velocity, pressure=None, title=None):
    spec = velocity.spec
    nx, ny = spec.node_shape
    dx = spec.spacing
    if title is None:
        title = (f"dnsflow bc={spec.bc.value} "
                 f"extent={_ref_fmt(spec.extent[0])},{_ref_fmt(spec.extent[1])}")
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx} {ny} 1",
        "ORIGIN 0 0 0",
        f"SPACING {_ref_fmt(dx)} {_ref_fmt(dx)} 1",
        f"POINT_DATA {nx * ny}",
        "VECTORS velocity float",
    ]
    u, v = velocity.data[0], velocity.data[1]
    # VTK point order: x fastest
    for j in range(ny):
        for i in range(nx):
            lines.append(f"{_ref_fmt(u[i, j])} {_ref_fmt(v[i, j])} 0")
    if pressure is not None:
        lines.append("SCALARS pressure float 1")
        lines.append("LOOKUP_TABLE default")
        for j in range(ny):
            for i in range(nx):
                lines.append(_ref_fmt(pressure.data[i, j]))
    Path(path).write_text("\n".join(lines) + "\n")


def _fields(bc, seed=3):
    spec = GridSpec(16, bc=bc)
    v = random_pinned_velocity(spec, seed)
    p = random_scalar(spec, seed + 1).data.copy()
    # awkward values: signed zero, subnormal, extremes of the double range
    p[0, :4] = (-0.0, 5e-324, -1.7976931348623157e308, 1.0 / 3.0)
    return v, ScalarField(spec, p)


def _assert_bitwise(a, b):
    assert a.spec == b.spec
    assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("bc", BACKENDS)
def test_vtk_round_trip_bitwise(tmp_path, bc):
    v, p = _fields(bc)
    path = tmp_path / "snap.vtk"
    write_vtk(path, v, p)
    v2, p2 = read_vtk(path)
    _assert_bitwise(v2, v)
    _assert_bitwise(p2, p)
    assert np.signbit(p2.data[0, 0])
    assert v2.data.flags.c_contiguous and p2.data.flags.c_contiguous


def test_vtk_without_pressure(tmp_path, periodic32):
    v = random_velocity(periodic32, 9)
    path = tmp_path / "snap.vtk"
    write_vtk(path, v)
    v2, p2 = read_vtk(path)
    assert p2 is None
    _assert_bitwise(v2, v)


def test_vtk_layout(tmp_path, periodic32):
    v = random_velocity(periodic32, 1)
    path = tmp_path / "snap.vtk"
    write_vtk(path, v, ScalarField.zeros(periodic32))
    raw = path.read_bytes()
    header_end = raw.index(b"VECTORS velocity double\n") + 24
    header = raw[:header_end].decode().splitlines()
    assert header[0] == "# vtk DataFile Version 3.0"
    assert header[1].startswith("dnsflow bc=periodic extent=")
    assert header[2:] == ["BINARY", "DATASET STRUCTURED_POINTS",
                          "DIMENSIONS 32 32 1", "ORIGIN 0 0 0",
                          f"SPACING {periodic32.spacing:.17g} "
                          f"{periodic32.spacing:.17g} 1",
                          "POINT_DATA 1024", "VECTORS velocity double"]
    n = 32 * 32
    scalars = b"\nSCALARS pressure double 1\nLOOKUP_TABLE default\n"
    assert raw[header_end + 24 * n:header_end + 24 * n + len(scalars)] \
        == scalars
    assert len(raw) == header_end + 24 * n + len(scalars) + 8 * n
    # big-endian doubles, x fastest, third component zero
    block = np.frombuffer(raw, ">f8", 3 * n, header_end).reshape(32, 32, 3)
    assert np.array_equal(block[..., 0], v.data[0].T)
    assert np.array_equal(block[..., 1], v.data[1].T)
    assert not block[..., 2].any()


# Reference: the writer as it stood when it joined copies of its blocks
# in memory, kept verbatim; the streaming writer must leave the same bytes

def _ref_write_vtk_joined(path, velocity, pressure=None):
    spec = velocity.spec
    nx, ny = spec.node_shape
    dx = spec.spacing
    header = "\n".join([
        "# vtk DataFile Version 3.0",
        f"dnsflow bc={spec.bc.value} "
        f"extent={_ref_fmt(spec.extent[0])},{_ref_fmt(spec.extent[1])}",
        "BINARY",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx} {ny} 1",
        "ORIGIN 0 0 0",
        f"SPACING {_ref_fmt(dx)} {_ref_fmt(dx)} 1",
        f"POINT_DATA {nx * ny}",
        "VECTORS velocity double",
    ]) + "\n"
    # VTK point order is x fastest: the (ny, nx) transpose of each component
    vectors = np.zeros((ny, nx, 3), dtype=">f8")
    vectors[..., 0] = velocity.data[0].T
    vectors[..., 1] = velocity.data[1].T
    parts = [header.encode(), vectors.tobytes()]
    if pressure is not None:
        parts.append(b"\nSCALARS pressure double 1\nLOOKUP_TABLE default\n")
        parts.append(pressure.data.T.astype(">f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


@pytest.mark.parametrize("bc", BACKENDS)
@pytest.mark.parametrize("with_pressure", [False, True])
def test_vtk_bytes_match_joined_writer_non_square(tmp_path, bc,
                                                  with_pressure):
    spec = GridSpec((16, 32), (1.5, 3.0), bc)
    v = random_pinned_velocity(spec, 5)
    p = random_scalar(spec, 6).data.copy()
    p[0, :3] = (-0.0, 5e-324, 1.7976931348623157e308)
    p = ScalarField(spec, p) if with_pressure else None
    write_vtk(tmp_path / "new.vtk", v, p)
    _ref_write_vtk_joined(tmp_path / "ref.vtk", v, p)
    raw = (tmp_path / "new.vtk").read_bytes()
    assert raw == (tmp_path / "ref.vtk").read_bytes()
    nx, ny = spec.node_shape
    assert f"DIMENSIONS {nx} {ny} 1".encode() in raw
    v2, p2 = read_vtk(tmp_path / "new.vtk")
    _assert_bitwise(v2, v)
    if with_pressure:
        _assert_bitwise(p2, p)
    else:
        assert p2 is None


def test_vtk_write_peak_memory(tmp_path):
    # the blocks stream to the file: the big-endian velocity block (1.5
    # field-bytes) is freed before the pressure block is cast, and no
    # copy is joined (the joined writer peaked at 5.5 field-bytes, and
    # 2.0 with both blocks alive at once)
    spec = GridSpec(256)
    v = random_velocity(spec, 2)
    p = random_scalar(spec, 3)
    write_vtk(tmp_path / "warm.vtk", v, p)
    tracemalloc.start()
    try:
        write_vtk(tmp_path / "snap.vtk", v, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * v.data.nbytes
    _assert_bitwise(read_vtk(tmp_path / "snap.vtk")[0], v)


def test_vtk_rejects_garbage(tmp_path):
    path = tmp_path / "bad.vtk"
    path.write_text("not a vtk file\n")
    with pytest.raises(ValueError):
        read_vtk(path)


# ---------------------------------------------------------------------------
# reader hardening (the CLI exit codes are in test_manifest_cli.py)

def _split(path):
    """(header lines up to VECTORS, data bytes after it) of a snapshot."""
    raw = path.read_bytes()
    end = raw.index(b"\n", raw.index(b"\nVECTORS") + 1) + 1
    return raw[:end].decode().splitlines(), raw[end:]


def _rewrite(path, header, data):
    path.write_bytes(("\n".join(header) + "\n").encode() + data)


def test_binary_scalars_must_be_double(tmp_path):
    # the VECTORS case runs through the CLI in test_manifest_cli.py
    v, p = _fields(BoundaryCondition.PERIODIC)
    path = tmp_path / "snap.vtk"
    write_vtk(path, v, p)
    path.write_bytes(path.read_bytes().replace(b"SCALARS pressure double",
                                               b"SCALARS pressure int"))
    with pytest.raises(ValueError, match="BINARY SCALARS block has type int"):
        read_vtk(path)


def test_header_needs_a_format_line(tmp_path):
    v, _ = _fields(BoundaryCondition.PERIODIC)
    path = tmp_path / "snap.vtk"
    write_vtk(path, v)
    header, data = _split(path)
    _rewrite(path, [line for line in header if line != "BINARY"], data)
    with pytest.raises(ValueError, match="ASCII or BINARY"):
        read_vtk(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_sample_rejected(tmp_path, value):
    v, p = _fields(BoundaryCondition.PERIODIC)
    path = tmp_path / "snap.vtk"
    write_vtk(path, v, p)
    header, data = _split(path)
    bad = np.array([value], ">f8").tobytes()
    _rewrite(path, header, data[:48] + bad + data[56:])
    with pytest.raises(NonFiniteFieldError):
        read_vtk(path)
    _rewrite(path, header, data[:-8] + bad)
    with pytest.raises(NonFiniteFieldError):
        read_vtk(path)


# ---------------------------------------------------------------------------
# ASCII snapshots written before the binary format still read

@pytest.mark.parametrize("with_pressure", [True, False])
@pytest.mark.parametrize("bc", BACKENDS)
def test_reads_reference_ascii_bitwise(tmp_path, bc, with_pressure):
    v, p = _fields(bc)
    path = tmp_path / "old.vtk"
    _ref_write_vtk_ascii(path, v, p if with_pressure else None)
    v2, p2 = read_vtk(path)
    _assert_bitwise(v2, v)
    if with_pressure:
        _assert_bitwise(p2, p)
        assert np.signbit(p2.data[0, 0])
    else:
        assert p2 is None


@pytest.mark.parametrize("damage, named", [
    ("short_vectors", "VECTORS block is shorter than DIMENSIONS"),
    ("short_scalars", "SCALARS block is shorter than DIMENSIONS"),
    ("long_vectors", "VECTORS block is longer than DIMENSIONS"),
    ("bad_number", "VECTORS block: could not convert"),
])
def test_malformed_ascii_block(tmp_path, damage, named):
    v, p = _fields(BoundaryCondition.PERIODIC)
    path = tmp_path / "old.vtk"
    _ref_write_vtk_ascii(path, v, p)
    lines = path.read_text().splitlines()
    if damage == "short_vectors":
        lines = lines[:9 + 100]
    elif damage == "short_scalars":
        lines = lines[:-3]
    elif damage == "long_vectors":
        lines.insert(9, "1 2 0")
    else:
        lines[20] = "1.0 x 0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=named):
        read_vtk(path)


RESTART_CFG = textwrap.dedent("""\
    [grid]
    cells = 16
    bc = periodic

    [time]
    h = 0.05
    t = {t}

    [scheme]
    interp = cubic

    [initial]
    kind = {kind}

    [output]
    cadence = 1
""")


def _run(tmp_path, name, t, kind):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(RESTART_CFG.format(t=t, kind=kind))
    out = tmp_path / name
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_restart_from_ascii_matches_binary(tmp_path):
    # a step's output is divergence-free, so neither restart projects it
    seed = _run(tmp_path, "seed", 0.05, "random_solenoidal\namplitude = 0.5")
    v, _ = read_vtk(seed / "snapshot_1.vtk")
    _ref_write_vtk_ascii(tmp_path / "ascii.vtk", v)
    write_vtk(tmp_path / "binary.vtk", v)
    outs = [_run(tmp_path, name, 0.2, f"snapshot\nfile = {tmp_path / name}.vtk")
            for name in ("ascii", "binary")]
    for name in ("report.txt", "ledger.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert "projected_initial = False" in (outs[0] / "report.txt").read_text()


def test_restart_is_deterministic(tmp_path):
    first = _run(tmp_path, "first", 0.2, "taylor_green")
    again = _run(tmp_path, "again", 0.1,
                 f"snapshot\nfile = {first / 'snapshot_2.vtk'}")
    original = (first / "snapshot_4.vtk").read_bytes()
    assert (again / "snapshot_2.vtk").read_bytes() == original
    (v1, p1), (v2, p2) = (read_vtk(first / "snapshot_4.vtk"),
                          read_vtk(again / "snapshot_2.vtk"))
    _assert_bitwise(v2, v1)
    _assert_bitwise(p2, p1)
