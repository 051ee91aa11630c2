"""Off-grid sampling of velocity fields.

Multilinear (default) and tensor-cubic (4-point Lagrange) interpolation.
Periodic grids wrap query coordinates modulo the extent; dirichlet grids
return the zero vector for points outside the closed box and use zero
ghost values where a cubic stencil reaches past a wall.

One stencil serves both velocity components: the base indices, weights
and flat gather indices are built once per call, and each stencil node
is read from both components with a flat ``take``.
"""

from __future__ import annotations

import enum

import numpy as np

from .fields import BoundaryCondition, VelocityField


class InterpOrder(enum.Enum):
    LINEAR = "linear"
    CUBIC = "cubic"


def _cubic_weights(t: np.ndarray):
    """Lagrange weights on the stencil {-1, 0, 1, 2} at offset t in [0, 1]."""
    tm1, tm2, tp1 = t - 1.0, t - 2.0, t + 1.0
    tp1t = tp1 * t
    return (
        -t * tm1 * tm2 / 6.0,
        tp1 * tm1 * tm2 / 2.0,
        -tp1t * tm2 / 2.0,
        tp1t * tm1 / 6.0,
    )


def _stencil(v: VelocityField, xq, yq, order):
    """Flat gather source, row offsets, columns, weights and inside mask.

    The source is both components with a ghost layer as wide as the
    stencil reach: periodic copies on the torus, zeros past the walls
    of the box. ``inside`` is None on the torus.
    """
    spec = v.spec
    nx, ny = spec.cells
    dx = spec.spacing
    periodic = spec.bc is BoundaryCondition.PERIODIC
    if periodic:
        inside = None
        sx = np.mod(xq, spec.extent[0]) / dx
        sy = np.mod(yq, spec.extent[1]) / dx
    else:
        inside = ((xq >= 0.0) & (xq <= spec.extent[0])
                  & (yq >= 0.0) & (yq <= spec.extent[1]))
        sx = np.clip(xq / dx, 0.0, nx * (1.0 - 1e-15))
        sy = np.clip(yq / dx, 0.0, ny * (1.0 - 1e-15))
    # mod can round up to the extent itself
    i0 = np.minimum(np.floor(sx).astype(np.int64), nx - 1)
    j0 = np.minimum(np.floor(sy).astype(np.int64), ny - 1)
    tx = sx - i0
    ty = sy - j0
    if order is InterpOrder.LINEAR:
        offs, wx, wy = range(2), (1.0 - tx, tx), (1.0 - ty, ty)
    else:
        offs, wx, wy = range(-1, 3), _cubic_weights(tx), _cubic_weights(ty)
    lo, hi = -offs[0], offs[-1]
    src = np.pad(v.data, ((0, 0), (lo, hi), (lo, hi)),
                 mode="wrap" if periodic else "constant")
    rows = [(i0 + lo + d) * src.shape[2] for d in offs]
    cols = [j0 + lo + d for d in offs]
    return src.reshape(2, -1), rows, cols, wx, wy, inside


def sample_offgrid(v: VelocityField, points: np.ndarray,
                   order: InterpOrder = InterpOrder.LINEAR) -> np.ndarray:
    """Interpolate each velocity component at the query points.

    ``points`` has shape (..., 2); the result has the same shape. Points
    outside a dirichlet box get the zero vector (the field is extended
    by zero outside the domain); periodic coordinates are wrapped.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1] != 2:
        raise ValueError("points must have a trailing axis of length 2")
    if not np.all(np.isfinite(pts)):
        raise ValueError("query points must be finite")
    flat, rows, cols, wx, wy, inside = _stencil(v, pts[..., 0], pts[..., 1],
                                                order)
    vx = np.zeros(pts.shape[:-1])
    vy = np.zeros(pts.shape[:-1])
    for row, wi in zip(rows, wx):
        for col, wj in zip(cols, wy):
            idx = row + col
            wt = wi * wj
            vx += wt * flat[0].take(idx)
            vy += wt * flat[1].take(idx)
    out = np.stack([vx, vy], axis=-1)
    if inside is not None:
        out[~inside] = 0.0
    return out
