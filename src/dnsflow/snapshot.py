"""Field snapshot IO: legacy structured-points VTK with binary data.

The header lines are text; the data blocks follow in the legacy-VTK
``BINARY`` mode, as big-endian IEEE doubles, so a written snapshot
reads back bitwise. The title line carries the boundary condition and
extent, which the plain VTK header has no slot for. A 256^2 snapshot
with pressure is about 2.1 MB.

``read_vtk`` also reads the ``ASCII`` files earlier versions wrote
(17 significant digits per value), so they stay usable as restart data.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .fields import (
    BoundaryCondition,
    GridSpec,
    ScalarField,
    VelocityField,
    parse_enum,
)

_DOUBLE = np.dtype(">f8")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_vtk(path, velocity: VelocityField,
              pressure: ScalarField | None = None) -> None:
    spec = velocity.spec
    nx, ny = spec.node_shape
    dx = spec.spacing
    header = "\n".join([
        "# vtk DataFile Version 3.0",
        f"dnsflow bc={spec.bc.value} "
        f"extent={_fmt(spec.extent[0])},{_fmt(spec.extent[1])}",
        "BINARY",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx} {ny} 1",
        "ORIGIN 0 0 0",
        f"SPACING {_fmt(dx)} {_fmt(dx)} 1",
        f"POINT_DATA {nx * ny}",
        "VECTORS velocity double",
    ]) + "\n"
    # VTK point order is x fastest: the (ny, nx) transpose of each component
    vectors = np.zeros((ny, nx, 3), dtype=_DOUBLE)
    vectors[..., 0] = velocity.data[0].T
    vectors[..., 1] = velocity.data[1].T
    parts = [header.encode(), vectors.tobytes()]
    if pressure is not None:
        parts.append(b"\nSCALARS pressure double 1\nLOOKUP_TABLE default\n")
        parts.append(pressure.data.T.astype(_DOUBLE).tobytes())
    Path(path).write_bytes(b"".join(parts))


def _spec_from_header(title: str, nx: int, ny: int, dx: float) -> GridSpec:
    bc = BoundaryCondition.PERIODIC
    extent = None
    for token in title.split():
        if token.startswith("bc="):
            bc = parse_enum(BoundaryCondition, token[3:], "boundary condition")
        elif token.startswith("extent="):
            parts = token[7:].split(",")
            if len(parts) != 2:
                raise ValueError(f"title token {token!r} needs two extents")
            extent = (float(parts[0]), float(parts[1]))
    if bc is BoundaryCondition.PERIODIC:
        cells = (nx, ny)
    else:
        cells = (nx - 1, ny - 1)
    if extent is None:
        extent = (cells[0] * dx, cells[1] * dx)
    return GridSpec(cells, extent, bc)


def _header(idx: dict, key: str, path, n_values: int = 0) -> list[str]:
    """Tokens of the header line that starts with ``key``."""
    if key not in idx:
        raise ValueError(f"{path}: no {key} line in the header")
    if len(idx[key]) <= n_values:
        raise ValueError(f"{path}: {key} line needs {n_values} values")
    return idx[key]


def _line(raw: bytes, pos: int) -> tuple[list[str], int]:
    """Tokens of the text line starting at ``pos`` and the offset after it."""
    end = raw.find(b"\n", pos)
    end = len(raw) if end < 0 else end + 1
    return raw[pos:end].decode(errors="replace").split(), end


def _block_type(tokens: list[str], binary: bool, path) -> None:
    """A BINARY block must hold doubles; ASCII text parses as any type."""
    if binary and tokens[2] != "double":
        raise ValueError(f"{path}: BINARY {tokens[0]} block has type "
                         f"{tokens[2]}; only double is supported")


def _size_error(path, what: str, longer: bool, nx: int, ny: int):
    return ValueError(f"{path}: {what} block is "
                      f"{'longer' if longer else 'shorter'} than DIMENSIONS "
                      f"{nx} x {ny}")


def _ascii_values(text: bytes, count: int, what: str, nx: int, ny: int,
                  path) -> np.ndarray:
    try:
        values = np.array(text.decode(errors="replace").split(), dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: {what} block: {exc}") from None
    if values.size != count:
        raise _size_error(path, what, values.size > count, nx, ny)
    return values


def read_vtk(path) -> tuple[VelocityField, ScalarField | None]:
    """Read a snapshot written by ``write_vtk``, binary or ASCII.

    The header is parsed up to the ``VECTORS`` line. A missing header
    line, a data block shorter than ``DIMENSIONS`` (checked by byte
    count in binary files, before anything is decoded) or a binary block
    that is not ``double`` raises ValueError naming it.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(b"# vtk DataFile"):
        raise ValueError(f"{path}: not a legacy VTK file")
    vec_at = raw.find(b"\nVECTORS")
    if vec_at < 0:
        raise ValueError(f"{path}: no VECTORS line in the header")
    lines = raw[:vec_at].decode(errors="replace").splitlines()
    # keyed by first token; the title line (index 1) is free text
    idx = {tokens[0]: tokens for tokens in map(str.split, lines[2:]) if tokens}
    modes = [m for m in ("ASCII", "BINARY") if m in idx]
    if len(lines) < 2 or len(modes) != 1:
        raise ValueError(f"{path}: the header needs one ASCII or BINARY line")
    binary = modes[0] == "BINARY"
    dims = _header(idx, "DIMENSIONS", path, 2)
    spacing = _header(idx, "SPACING", path, 1)
    nx, ny, dx = int(dims[1]), int(dims[2]), float(spacing[1])
    spec = _spec_from_header(lines[1], nx, ny, dx)
    n = nx * ny
    vectors, vec_start = _line(raw, vec_at + 1)
    if len(vectors) < 3:
        raise ValueError(f"{path}: VECTORS line needs 2 values")
    _block_type(vectors, binary, path)

    # block boundaries: by byte count in binary files, by keyword in ASCII
    if binary:
        vec_end = vec_start + 24 * n
        if len(raw) < vec_end:
            raise _size_error(path, "VECTORS", False, nx, ny)
        scalars_at = len(raw) - len(raw[vec_end:].lstrip())
    else:
        scalars_at = raw.find(b"SCALARS", vec_start)
        vec_end = scalars_at = len(raw) if scalars_at < 0 else scalars_at
    p_start = None
    if scalars_at < len(raw):
        scalars, pos = _line(raw, scalars_at)
        if scalars[0] != "SCALARS":
            raise ValueError(f"{path}: unexpected data after the VECTORS "
                             "block")
        if len(scalars) < 3 or scalars[3:] not in ([], ["1"]):
            raise ValueError(f"{path}: SCALARS line needs a name, a type "
                             "and one component")
        _block_type(scalars, binary, path)
        table, p_start = _line(raw, pos)
        if table[:1] != ["LOOKUP_TABLE"]:
            raise ValueError(f"{path}: no LOOKUP_TABLE line after SCALARS")
        if binary and (len(raw) < p_start + 8 * n
                       or raw[p_start + 8 * n:].strip()):
            raise _size_error(path, "SCALARS", len(raw) > p_start + 8 * n,
                              nx, ny)

    if binary:
        vec = np.frombuffer(raw, _DOUBLE, 3 * n, vec_start)
    else:
        vec = _ascii_values(raw[vec_start:vec_end], 3 * n, "VECTORS",
                            nx, ny, path)
    # fields keep the memory order they are given, and reductions round
    # by it: hand them C-ordered arrays, as the solver makes
    velocity = VelocityField(spec, np.ascontiguousarray(
        vec.reshape(ny, nx, 3)[..., :2].T, dtype=float))
    pressure = None
    if p_start is not None:
        if binary:
            p = np.frombuffer(raw, _DOUBLE, n, p_start)
        else:
            p = _ascii_values(raw[p_start:], n, "SCALARS", nx, ny, path)
        pressure = ScalarField(spec, np.ascontiguousarray(
            p.reshape(ny, nx).T, dtype=float))
    return velocity, pressure
