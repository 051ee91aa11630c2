"""Field snapshot IO: legacy structured-points VTK ASCII.

All floating-point emission uses 17 significant digits so a written
snapshot reads back bitwise. The VTK title line carries the boundary
condition and extent, which the plain VTK header has no slot for.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .fields import BoundaryCondition, GridSpec, ScalarField, VelocityField


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_vtk(path, velocity: VelocityField,
              pressure: ScalarField | None = None,
              title: str | None = None) -> None:
    spec = velocity.spec
    nx, ny = spec.node_shape
    dx = spec.spacing
    if title is None:
        title = (f"dnsflow bc={spec.bc.value} "
                 f"extent={_fmt(spec.extent[0])},{_fmt(spec.extent[1])}")
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx} {ny} 1",
        "ORIGIN 0 0 0",
        f"SPACING {_fmt(dx)} {_fmt(dx)} 1",
        f"POINT_DATA {nx * ny}",
        "VECTORS velocity float",
    ]
    u, v = velocity.data[0], velocity.data[1]
    # VTK point order: x fastest
    for j in range(ny):
        for i in range(nx):
            lines.append(f"{_fmt(u[i, j])} {_fmt(v[i, j])} 0")
    if pressure is not None:
        lines.append("SCALARS pressure float 1")
        lines.append("LOOKUP_TABLE default")
        for j in range(ny):
            for i in range(nx):
                lines.append(_fmt(pressure.data[i, j]))
    Path(path).write_text("\n".join(lines) + "\n")


def _spec_from_header(title: str, nx: int, ny: int, dx: float) -> GridSpec:
    bc = BoundaryCondition.PERIODIC
    extent = None
    for token in title.split():
        if token.startswith("bc="):
            bc = BoundaryCondition.parse(token[3:])
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


def _header(lines: list[str], idx: dict, key: str, path, n_values: int = 0):
    """Index and tokens of the header line that starts with ``key``."""
    if key not in idx:
        raise ValueError(f"{path}: no {key} line in the header")
    tokens = lines[idx[key]].split()
    if len(tokens) <= n_values:
        raise ValueError(f"{path}: {key} line needs {n_values} values")
    return idx[key], tokens


def read_vtk(path) -> tuple[VelocityField, ScalarField | None]:
    """Read a snapshot written by ``write_vtk``.

    A missing header line or a data block shorter than ``DIMENSIONS``
    raises ValueError naming it.
    """
    lines = Path(path).read_text().splitlines()
    if len(lines) < 9 or "vtk DataFile" not in lines[0]:
        raise ValueError(f"{path}: not a legacy VTK file")
    title = lines[1]
    idx = {line.split()[0]: k for k, line in enumerate(lines)
           if line and line[0].isalpha()}
    _, dims = _header(lines, idx, "DIMENSIONS", path, 2)
    nx, ny = int(dims[1]), int(dims[2])
    _, spacing = _header(lines, idx, "SPACING", path, 1)
    dx = float(spacing[1])
    spec = _spec_from_header(title, nx, ny, dx)
    k = _header(lines, idx, "VECTORS", path)[0] + 1
    u = np.empty((nx, ny))
    v = np.empty((nx, ny))
    try:
        for j in range(ny):
            for i in range(nx):
                parts = lines[k].split()
                u[i, j] = float(parts[0])
                v[i, j] = float(parts[1])
                k += 1
    except IndexError:
        raise ValueError(f"{path}: VECTORS block is shorter than DIMENSIONS "
                         f"{nx} x {ny}") from None
    velocity = VelocityField(spec, np.stack([u, v]))
    pressure = None
    if "SCALARS" in idx:
        k = _header(lines, idx, "LOOKUP_TABLE", path)[0] + 1
        p = np.empty((nx, ny))
        try:
            for j in range(ny):
                for i in range(nx):
                    p[i, j] = float(lines[k])
                    k += 1
        except IndexError:
            raise ValueError(f"{path}: SCALARS block is shorter than "
                             f"DIMENSIONS {nx} x {ny}") from None
        pressure = ScalarField(spec, p)
    return velocity, pressure
