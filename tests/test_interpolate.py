import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from dnsflow import (
    BoundaryCondition,
    GridSpec,
    InterpOrder,
    VelocityField,
    backtrace,
    sample_offgrid,
    taylor_green_field,
)
from dnsflow import interpolate

from conftest import random_pinned_velocity, random_velocity

TWO_PI = 2.0 * math.pi
ORDERS = [InterpOrder.LINEAR, InterpOrder.CUBIC]
BCS = [BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET_ZERO]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("bc", [BoundaryCondition.PERIODIC,
                                BoundaryCondition.DIRICHLET_ZERO])
def test_nodes_reproduce_stored_values(order, bc):
    spec = GridSpec(16, bc=bc)
    fld = random_pinned_velocity(spec, 5)
    X, Y = spec.mesh()
    pts = np.stack([X, Y], axis=-1)
    vals = sample_offgrid(fld, pts, order)
    assert np.max(np.abs(vals[..., 0] - fld.data[0])) < 1e-12
    assert np.max(np.abs(vals[..., 1] - fld.data[1])) < 1e-12


def test_linear_exact_on_affine_at_cell_centers():
    spec = GridSpec(16, bc=BoundaryCondition.DIRICHLET_ZERO)
    X, Y = spec.mesh()
    fld = VelocityField(spec, np.stack([1.5 * X - 0.25 * Y + 2.0,
                                        0.5 * Y - 1.0]))
    dx = spec.spacing
    centers_x = X[:-1, :-1] + 0.5 * dx
    centers_y = Y[:-1, :-1] + 0.5 * dx
    pts = np.stack([centers_x, centers_y], axis=-1)
    vals = sample_offgrid(fld, pts, InterpOrder.LINEAR)
    exact_u = 1.5 * centers_x - 0.25 * centers_y + 2.0
    exact_v = 0.5 * centers_y - 1.0
    assert np.max(np.abs(vals[..., 0] - exact_u)) < 1e-12
    assert np.max(np.abs(vals[..., 1] - exact_v)) < 1e-12


@pytest.mark.parametrize("order", ORDERS)
def test_outside_dirichlet_box_returns_zero(order):
    spec = GridSpec(16, bc=BoundaryCondition.DIRICHLET_ZERO)
    fld = random_pinned_velocity(spec, 1)
    pts = np.array([[-0.5, 1.0], [TWO_PI + 0.1, 1.0], [1.0, -1e-9],
                    [3.0, TWO_PI + 5.0]])
    vals = sample_offgrid(fld, pts, order)
    assert np.all(vals == 0.0)


@pytest.mark.parametrize("order", ORDERS)
def test_periodic_wrap(order):
    spec = GridSpec(16)
    fld = random_velocity(spec, 2)
    rng = np.random.default_rng(0)
    base = rng.uniform(0.0, TWO_PI, size=(50, 2))
    shifted = base + np.array([TWO_PI, -3.0 * TWO_PI])
    v1 = sample_offgrid(fld, base, order)
    v2 = sample_offgrid(fld, shifted, order)
    assert np.max(np.abs(v1 - v2)) < 1e-11


def test_cubic_beats_linear_on_smooth_field():
    spec = GridSpec(64)
    fld = VelocityField.from_function(
        spec, lambda x, y: (np.sin(x) * np.cos(y), np.cos(2 * x)))
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, TWO_PI, size=(400, 2))
    exact = np.stack([np.sin(pts[:, 0]) * np.cos(pts[:, 1]),
                      np.cos(2 * pts[:, 0])], axis=-1)
    err_lin = np.max(np.abs(sample_offgrid(fld, pts, InterpOrder.LINEAR) - exact))
    err_cub = np.max(np.abs(sample_offgrid(fld, pts, InterpOrder.CUBIC) - exact))
    assert err_cub < err_lin / 20.0


def test_rejects_nonfinite_points(periodic32):
    fld = VelocityField.zeros(periodic32)
    with pytest.raises(ValueError):
        sample_offgrid(fld, np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        sample_offgrid(fld, np.array([0.0, 1.0, 2.0]))


# Reference: the per-component samplers the shared-stencil sampler
# replaced, kept verbatim (fancy-indexed gathers, one pass per component).

def _ref_cubic_weights(t):
    return (
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -(t + 1.0) * t * (t - 2.0) / 2.0,
        (t + 1.0) * t * (t - 1.0) / 6.0,
    )


def _ref_sample_periodic(spec, comp, xq, yq, order):
    nx, ny = spec.cells
    dx = spec.spacing
    sx = np.mod(xq, spec.extent[0]) / dx
    sy = np.mod(yq, spec.extent[1]) / dx
    i0 = np.floor(sx).astype(np.int64)
    j0 = np.floor(sy).astype(np.int64)
    i0 = np.minimum(i0, nx - 1)
    j0 = np.minimum(j0, ny - 1)
    tx = sx - i0
    ty = sy - j0
    if order is InterpOrder.LINEAR:
        out = np.zeros_like(tx)
        for di, wi in ((0, 1.0 - tx), (1, tx)):
            for dj, wj in ((0, 1.0 - ty), (1, ty)):
                out += wi * wj * comp[(i0 + di) % nx, (j0 + dj) % ny]
        return out
    wx = _ref_cubic_weights(tx)
    wy = _ref_cubic_weights(ty)
    out = np.zeros_like(tx)
    for di in range(4):
        row = (i0 + di - 1) % nx
        for dj in range(4):
            out += wx[di] * wy[dj] * comp[row, (j0 + dj - 1) % ny]
    return out


def _ref_sample_dirichlet(spec, comp, xq, yq, order):
    nx, ny = spec.cells
    dx = spec.spacing
    inside = ((xq >= 0.0) & (xq <= spec.extent[0])
              & (yq >= 0.0) & (yq <= spec.extent[1]))
    sx = np.clip(xq / dx, 0.0, nx * (1.0 - 1e-15))
    sy = np.clip(yq / dx, 0.0, ny * (1.0 - 1e-15))
    i0 = np.floor(sx).astype(np.int64)
    j0 = np.floor(sy).astype(np.int64)
    i0 = np.minimum(i0, nx - 1)
    j0 = np.minimum(j0, ny - 1)
    tx = sx - i0
    ty = sy - j0
    if order is InterpOrder.LINEAR:
        out = ((1.0 - tx) * (1.0 - ty) * comp[i0, j0]
               + tx * (1.0 - ty) * comp[i0 + 1, j0]
               + (1.0 - tx) * ty * comp[i0, j0 + 1]
               + tx * ty * comp[i0 + 1, j0 + 1])
        return np.where(inside, out, 0.0)
    padded = np.zeros((nx + 3, ny + 3))
    padded[1:nx + 2, 1:ny + 2] = comp
    wx = _ref_cubic_weights(tx)
    wy = _ref_cubic_weights(ty)
    out = np.zeros_like(tx)
    for di in range(4):
        row = i0 + di
        for dj in range(4):
            out += wx[di] * wy[dj] * padded[row, j0 + dj]
    return np.where(inside, out, 0.0)


def _ref_sample(fld, pts, order):
    sample = (_ref_sample_periodic if fld.spec.is_periodic
              else _ref_sample_dirichlet)
    out = np.empty_like(pts)
    for c in range(2):
        out[..., c] = sample(fld.spec, fld.data[c], pts[..., 0],
                             pts[..., 1], order)
    return out


def _assert_matches_reference(fld, pts, order):
    new = sample_offgrid(fld, pts, order)
    ref = _ref_sample(fld, pts, order)
    assert new.shape == ref.shape
    if fld.spec.is_periodic or order is InterpOrder.CUBIC:
        assert np.array_equal(new, ref)
    else:
        # the shared stencil loop adds the four bilinear terms in row
        # order, the reference in x-fastest order: a reordered sum of
        # four convex-weighted terms, a few ulps of max|v| apart at most
        gap = np.max(np.abs(new - ref), initial=0.0)
        assert gap <= 1e-15 * np.max(np.abs(fld.data))


def _edge_points(spec):
    L = spec.extent[0]
    dx = spec.spacing
    if spec.is_periodic:
        # L(1 - 2^-53), the largest double below L, is the last value the
        # masked wrap leaves alone; -0.0 (sign bit set) is wrapped to 0.0;
        # huge values need np.mod, where an integer wrap would overflow
        xs = [-1e-300, 0.0, 1e-300, 0.5 * dx, L - 1e-12, L, 3.0 * L,
              -3.0 * L, 3.0 * L + 0.3, -3.0 * L - 0.3,
              L * (1.0 - 2.0 ** -53), -0.0, 1e20, -1e20, 1e300, -1e300]
    else:
        # walls, just outside them, x = L, and the first cell inside each
        # wall, where the cubic stencil reaches the ghost layer
        xs = [0.0, -1e-12, -1e-300, 1e-300, 0.3 * dx, L - 0.3 * dx,
              L * (1.0 - 1e-16), L, L + 1e-12, -0.5 * dx, L + 0.5 * dx]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([X, Y], axis=-1)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("bc", BCS)
def test_matches_per_component_reference(order, bc):
    spec = GridSpec(16, bc=bc)
    fld = random_velocity(spec, 11)
    L = spec.extent[0]
    rng = np.random.default_rng(4)
    lo, hi = (-3.0 * L, 4.0 * L) if spec.is_periodic else (-0.1 * L, 1.1 * L)
    _assert_matches_reference(fld, rng.uniform(lo, hi, size=(40, 30, 2)),
                              order)
    _assert_matches_reference(fld, _edge_points(spec), order)
    _assert_matches_reference(fld, np.array([1.0, 2.0]), order)


_COORD = st.one_of(st.floats(-4.0 * TWO_PI, 4.0 * TWO_PI),
                   st.floats(-1e300, 1e300),
                   st.sampled_from([0.0, -0.0, -1e-300, TWO_PI, -TWO_PI,
                                    3.0 * TWO_PI, TWO_PI + 1e-12,
                                    TWO_PI * (1.0 - 2.0 ** -53),
                                    1e20, -1e20, 1e300, -1e300]))


@settings(max_examples=100, deadline=None)
@given(bc=st.sampled_from(BCS), order=st.sampled_from(ORDERS),
       seed=st.integers(0, 50),
       pts=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=12))
def test_matches_per_component_reference_hypothesis(bc, order, seed, pts):
    fld = random_velocity(GridSpec(8, bc=bc), seed)
    _assert_matches_reference(fld, np.array(pts, dtype=np.float64), order)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("bc", BCS)
def test_result_keeps_point_layout(order, bc):
    """Points stored component-major (a (..., 2) view of a (2, ...)
    array) give the same samples, laid out component-major too."""
    spec = GridSpec(16, bc=bc)
    fld = random_velocity(spec, 3)
    L = spec.extent[0]
    pts = np.random.default_rng(8).uniform(-0.1 * L, 1.1 * L,
                                           size=(12, 10, 2))
    planar = np.moveaxis(np.ascontiguousarray(np.moveaxis(pts, -1, 0)), 0, -1)
    new = sample_offgrid(fld, planar, order)
    assert np.array_equal(new, sample_offgrid(fld, pts, order))
    assert np.moveaxis(new, -1, 0).flags.c_contiguous


# ---------------------------------------------------------------------------
# blocks of query points

def _block_cases(spec):
    """Point arrays of several shapes and layouts, edge points included."""
    L = spec.extent[0]
    lo, hi = (-3.0 * L, 4.0 * L) if spec.is_periodic else (-0.1 * L, 1.1 * L)
    rng = np.random.default_rng(6)
    four_d = rng.uniform(lo, hi, size=(3, 5, 7, 2))
    return [rng.uniform(lo, hi, size=(40, 30, 2)),
            # an F-order result has no 1-D view of its components
            np.asfortranarray(rng.uniform(lo, hi, size=(40, 30, 2))),
            rng.uniform(lo, hi, size=(150, 2)),
            np.array([1.0, 2.0]),
            four_d,
            np.moveaxis(np.ascontiguousarray(np.moveaxis(four_d, -1, 0)),
                        0, -1),
            _edge_points(spec)]


@pytest.mark.parametrize("block", [1, 37, 100])
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("bc", BCS)
def test_blocks_change_no_sample(monkeypatch, bc, order, block):
    """Block sizes that divide no point count give the samples and the
    layout of one block, and still match the per-component reference."""
    spec = GridSpec(16, bc=bc)
    fld = random_velocity(spec, 11)
    cases = _block_cases(spec)
    whole = [sample_offgrid(fld, pts, order) for pts in cases]
    monkeypatch.setattr(interpolate, "_BLOCK_POINTS", block)
    for pts, one_block in zip(cases, whole):
        blocked = sample_offgrid(fld, pts, order)
        assert np.array_equal(blocked, one_block)
        assert blocked.strides == one_block.strides
        _assert_matches_reference(fld, pts, order)


def test_blocked_backtrace_matches_reference_256():
    """A 256^2 cubic back-trace runs four blocks; it matches the
    reference sampler at the departure points bitwise."""
    spec = GridSpec(256)
    v = random_velocity(spec, 12)
    h = 0.0125
    X, Y = spec.mesh()
    pts = np.stack([X - h * v.u, Y - h * v.v], axis=-1)
    w = backtrace(v, h, InterpOrder.CUBIC)
    assert np.array_equal(np.moveaxis(w.data, 0, -1),
                          _ref_sample(v, pts, InterpOrder.CUBIC))


def test_cubic_backtrace_peak_memory_256():
    """The blocked sampler keeps a 256^2 cubic back-trace's peak below
    5 times the field's bytes (8.5 times with whole-grid temporaries)."""
    v = taylor_green_field(0.0, GridSpec(256))[0]
    tracemalloc.start()
    try:
        backtrace(v, 0.0125, InterpOrder.CUBIC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * v.data.nbytes


# ---------------------------------------------------------------------------
# the cubic weights before halving by * 0.5 replaced / 2.0, kept
# verbatim; the trim must keep every bit

def _old_cubic_weights(t):
    tm1, tm2, tp1 = t - 1.0, t - 2.0, t + 1.0
    tp1t = tp1 * t
    w0 = np.negative(t, out=t)
    w0 *= tm1
    w0 *= tm2
    w0 /= 6.0
    w1 = np.multiply(tp1, tm1, out=tp1)
    w1 *= tm2
    w1 /= 2.0
    w2 = np.multiply(tp1t, tm2, out=tm2)
    np.negative(w2, out=w2)
    w2 /= 2.0
    w3 = np.multiply(tp1t, tm1, out=tp1t)
    w3 /= 6.0
    return w0, w1, w2, w3


def _trim_edges(L):
    """0.0, -0.0, L, the largest double below L and huge finite
    coordinates (whose q / dx stays finite)."""
    big = 1e300 * min(L, 1.0)
    return [0.0, -0.0, L, float(np.nextafter(L, 0.0)),
            float(np.nextafter(L, np.inf)), 5e-324, -5e-324, big, -big,
            3.0 * L, -3.0 * L]


def test_cubic_weights_halving_keeps_bits():
    rng = np.random.default_rng(21)
    t = np.concatenate([[0.0, 1.0, 0.5, 5e-324, np.nextafter(1.0, 0.0),
                         np.nextafter(0.0, 1.0) * 2 ** 52],
                        rng.uniform(0.0, 1.0, 5000),
                        np.linspace(0.0, 1.0, 1025)])
    for new, old in zip(interpolate._cubic_weights(t.copy()),
                        _old_cubic_weights(t.copy())):
        assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("bc", BCS)
def test_trimmed_sampler_keeps_bits(monkeypatch, bc):
    """The cubic sampler with the halving trim against the one without,
    on edge points, huge finite coordinates and random points."""
    spec = GridSpec(16, bc=bc)
    L = spec.extent[0]
    fld = random_velocity(spec, 24)
    edges = _trim_edges(L) + [0.3 * spec.spacing, L - 0.3 * spec.spacing]
    X, Y = np.meshgrid(edges, edges, indexing="ij")
    rng = np.random.default_rng(25)
    cases = [np.stack([X, Y], axis=-1), _edge_points(spec),
             rng.uniform(0.0, L, size=(30, 20, 2)),
             rng.uniform(-0.1 * L, 1.1 * L, size=(30, 20, 2))]
    new = [sample_offgrid(fld, pts, InterpOrder.CUBIC) for pts in cases]
    monkeypatch.setattr(interpolate, "_cubic_weights", _old_cubic_weights)
    for pts, got in zip(cases, new):
        old = sample_offgrid(fld, pts, InterpOrder.CUBIC)
        assert got.tobytes() == old.tobytes()
