"""Off-grid sampling of velocity fields.

Multilinear (default) and tensor-cubic (4-point Lagrange) interpolation.
Periodic grids wrap query coordinates modulo the extent; dirichlet grids
return the zero vector for points outside the closed box and use zero
ghost values where a cubic stencil reaches past a wall.

The periodic wrap is masked: ``np.mod`` runs only on the coordinates
outside [0, L), since inside it returns them bit for bit (no integer
wrap, which would overflow on huge finite coordinates).

One stencil serves both velocity components: the base indices and
weights are built once per call, mostly in place, and each stencil node
is read from both components with a flat ``take`` of the source shifted
by that node's offset. One weight and one gather buffer serve all the
terms. The result has the memory layout of the query points, so points
stored component-major (as :func:`dnsflow.scheme.backtrace` builds
them) are read and written one contiguous component at a time.
"""

from __future__ import annotations

import enum

import numpy as np

from .fields import BoundaryCondition, VelocityField


class InterpOrder(enum.Enum):
    LINEAR = "linear"
    CUBIC = "cubic"


def _cubic_weights(t: np.ndarray):
    """Lagrange weights on the stencil {-1, 0, 1, 2} at offset t in [0, 1].

    The weights are ``-t(t-1)(t-2)/6``, ``(t+1)(t-1)(t-2)/2``,
    ``-(t+1)t(t-2)/2`` and ``(t+1)t(t-1)/6``, each rounded in that order
    of operations. They are formed in place: t's buffer becomes the
    first weight, those of the shared factors the others.
    """
    tm1, tm2, tp1 = t - 1.0, t - 2.0, t + 1.0
    tp1t = tp1 * t
    w0 = np.negative(t, out=t)
    w0 *= tm1
    w0 *= tm2
    w0 /= 6.0
    w1 = np.multiply(tp1, tm1, out=tp1)
    w1 *= tm2
    w1 /= 2.0
    # -(a * b) rounds exactly as (-a) * b
    w2 = np.multiply(tp1t, tm2, out=tm2)
    np.negative(w2, out=w2)
    w2 /= 2.0
    w3 = np.multiply(tp1t, tm1, out=tp1t)
    w3 /= 6.0
    return w0, w1, w2, w3


def _cell_coords(q: np.ndarray, L: float, dx: float) -> np.ndarray:
    """q / dx, with periodic coordinates first wrapped into [0, L).

    ``np.mod`` runs only where q is outside [0, L): inside,
    ``np.mod(q, L)`` is q itself. ``-0.0`` counts as outside (its sign
    bit is set), so it still maps to ``0.0``.
    """
    s = q / dx
    out = np.signbit(q) | (q >= L)
    if out.any():
        s[out] = np.mod(q[out], L) / dx
    return s


def _stencil(v: VelocityField, xq, yq, order):
    """Flat gather source, base indices, node offsets, weights and mask.

    The source is both components with a ghost layer as wide as the
    stencil reach: periodic copies on the torus, zeros past the walls
    of the box. Stencil node (a, b) of a query point sits at flat index
    ``base + offs[a][b]`` of the source. ``inside`` is None on the torus.
    """
    spec = v.spec
    nx, ny = spec.cells
    dx = spec.spacing
    periodic = spec.bc is BoundaryCondition.PERIODIC
    if periodic:
        inside = None
        sx = _cell_coords(xq, spec.extent[0], dx)
        sy = _cell_coords(yq, spec.extent[1], dx)
    else:
        inside = ((xq >= 0.0) & (xq <= spec.extent[0])
                  & (yq >= 0.0) & (yq <= spec.extent[1]))
        sx = np.clip(xq / dx, 0.0, nx * (1.0 - 1e-15))
        sy = np.clip(yq / dx, 0.0, ny * (1.0 - 1e-15))
    # sx, sy >= 0, so truncation is floor; mod can round up to the
    # extent itself
    i0 = np.minimum(sx.astype(np.int64), nx - 1)
    j0 = np.minimum(sy.astype(np.int64), ny - 1)
    tx = np.subtract(sx, i0, out=sx)
    ty = np.subtract(sy, j0, out=sy)
    if order is InterpOrder.LINEAR:
        reach, wx, wy = range(2), (1.0 - tx, tx), (1.0 - ty, ty)
    else:
        reach, wx, wy = range(-1, 3), _cubic_weights(tx), _cubic_weights(ty)
    lo, hi = -reach[0], reach[-1]
    src = np.pad(v.data, ((0, 0), (lo, hi), (lo, hi)),
                 mode="wrap" if periodic else "constant")
    width = src.shape[2]
    base = np.multiply(i0, width, out=i0)
    base += j0
    offs = [[(lo + di) * width + lo + dj for dj in reach] for di in reach]
    return src.reshape(2, -1), base, offs, wx, wy, inside


def sample_offgrid(v: VelocityField, points: np.ndarray,
                   order: InterpOrder = InterpOrder.LINEAR) -> np.ndarray:
    """Interpolate each velocity component at the query points.

    ``points`` has shape (..., 2); the result has the same shape and the
    same memory layout. Points outside a dirichlet box get the zero
    vector (the field is extended by zero outside the domain); periodic
    coordinates are wrapped.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1] != 2:
        raise ValueError("points must have a trailing axis of length 2")
    if not np.all(np.isfinite(pts)):
        raise ValueError("query points must be finite")
    if pts.ndim == 1:
        # one point: the stencil's in-place steps need arrays, not scalars
        return sample_offgrid(v, pts[None], order)[0]
    flat, base, offs, wx, wy, inside = _stencil(v, pts[..., 0], pts[..., 1],
                                                order)
    out = np.zeros_like(pts)
    comps = (out[..., 0], out[..., 1])
    wt = np.empty(base.shape)
    g = np.empty(base.shape)
    for wi, row in zip(wx, offs):
        for wj, off in zip(wy, row):
            np.multiply(wi, wj, out=wt)
            for c, acc in enumerate(comps):
                # every index is in range; a mode other than "raise"
                # lets take write into g without a buffer of its own
                flat[c, off:].take(base, out=g, mode="wrap")
                np.multiply(wt, g, out=g)
                np.add(acc, g, out=acc)
    if inside is not None:
        out[~inside] = 0.0
    return out
