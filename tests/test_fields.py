import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dnsflow import (
    BoundaryCondition,
    GridSpec,
    ScalarField,
    VelocityField,
    divergence,
    grad_norm_sq,
    gradient,
    inner_product_l2,
    laplacian,
    norm_l2,
)
from dnsflow.fields import (
    _fd_partial,
    _parseval_norm_sq,
    quadrature_weights,
    velocity_jacobian,
)

from conftest import random_scalar, random_velocity

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# grid and field invariants

def test_grid_spec_defaults(periodic64):
    assert periodic64.cells == (64, 64)
    assert periodic64.extent == (TWO_PI, TWO_PI)
    assert periodic64.spacing == pytest.approx(TWO_PI / 64)
    assert periodic64.node_shape == (64, 64)


def test_dirichlet_grid_has_wall_nodes(dirichlet32):
    assert dirichlet32.node_shape == (33, 33)
    xs = dirichlet32.axis_nodes(0)
    assert xs[0] == 0.0
    assert xs[-1] == pytest.approx(TWO_PI)


@pytest.mark.parametrize("bad", [
    dict(cells=4),                        # below the minimum
    dict(cells=15),                       # odd periodic cells
    dict(cells=(16, 32)),                 # non-square cells
    dict(cells=16, extent=-1.0),
])
def test_grid_spec_rejects(bad):
    with pytest.raises(ValueError):
        GridSpec(**bad)


def test_odd_cells_fine_on_dirichlet():
    spec = GridSpec(15, bc=BoundaryCondition.DIRICHLET_ZERO)
    assert spec.node_shape == (16, 16)


def test_fields_reject_bad_shapes_and_nans(periodic32):
    with pytest.raises(ValueError):
        ScalarField(periodic32, np.zeros((8, 8)))
    with pytest.raises(ValueError):
        VelocityField(periodic32, np.zeros((3, 32, 32)))
    data = np.zeros((2, 32, 32))
    data[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        VelocityField(periodic32, data)


def test_dirichlet_constructor_requires_pinned_walls(dirichlet32):
    data = np.ones(dirichlet32.node_shape)
    with pytest.raises(ValueError):
        VelocityField.from_components(dirichlet32, data, data)
    fld = VelocityField.from_function(dirichlet32, lambda x, y: (x * 0 + 1, x * 0))
    assert fld.is_boundary_compliant()


def test_fields_are_immutable(periodic32):
    f = ScalarField.zeros(periodic32)
    with pytest.raises(ValueError):
        f.data[0, 0] = 1.0


# ---------------------------------------------------------------------------
# gradient

def test_gradient_of_zero_is_zero(periodic32):
    g = gradient(ScalarField.zeros(periodic32))
    assert np.all(g.data == 0.0)


def test_gradient_spectral_accuracy(periodic64):
    f = ScalarField.from_function(periodic64, lambda x, y: np.sin(x))
    g = gradient(f)
    X, _ = periodic64.mesh()
    assert np.max(np.abs(g.data[0] - np.cos(X))) < 1e-12
    assert np.max(np.abs(g.data[1])) < 1e-12


def test_gradient_exact_on_linear_dirichlet(dirichlet32):
    f = ScalarField.from_function(dirichlet32, lambda x, y: x)
    g = gradient(f)
    # one-sided second-order closures are exact on linears too
    assert np.max(np.abs(g.data[0] - 1.0)) < 1e-13
    assert np.max(np.abs(g.data[1])) < 1e-13


@pytest.mark.parametrize("spec_name", ["periodic32", "dirichlet32"])
def test_gradient_is_jacobian_row(spec_name, request):
    """One derivative kernel: the gradient of each velocity component is
    bitwise the matching row of the velocity Jacobian."""
    spec = request.getfixturevalue(spec_name)
    v = random_velocity(spec, 11)
    jac = velocity_jacobian(v)
    for c in range(2):
        assert np.array_equal(gradient(v.component(c)).data, jac[c])


# ---------------------------------------------------------------------------
# divergence

def test_divergence_of_constant_is_zero(periodic32):
    fld = VelocityField.from_function(
        periodic32, lambda x, y: (np.full_like(x, 2.0), np.full_like(x, -3.0)))
    assert np.max(np.abs(divergence(fld).data)) < 1e-14


def test_divergence_of_gradient_is_laplacian_spectral(periodic64):
    f = ScalarField.from_function(periodic64,
                                  lambda x, y: np.sin(x) * np.sin(y))
    lap = divergence(gradient(f))
    X, Y = periodic64.mesh()
    assert np.max(np.abs(lap.data + 2.0 * np.sin(X) * np.sin(Y))) < 1e-11


def test_divergence_taylor_green(periodic64):
    from dnsflow import taylor_green_field
    v, _ = taylor_green_field(0.0, periodic64)
    assert np.max(np.abs(divergence(v).data)) < 1e-12


def test_adjointness_periodic(periodic32):
    # <grad f, v> = -<f, div v> exactly on the torus
    for seed in range(5):
        f = random_scalar(periodic32, seed)
        v = random_velocity(periodic32, seed + 1)
        g = gradient(f)
        lhs = inner_product_l2(g, v)
        w = quadrature_weights(periodic32)
        rhs = -float(np.sum(w * f.data * divergence(v).data))
        scale = norm_l2(v) * math.sqrt(abs(float(np.sum(w * f.data ** 2))))
        assert abs(lhs - rhs) < 1e-12 * max(scale, 1.0)


def test_div_grad_equals_composition_fd(dirichlet32):
    f = random_scalar(dirichlet32, 3)
    g = gradient(f)
    composed = divergence(g)
    dx = dirichlet32.spacing
    direct_x = _fd_partial(g.data[0], 0, dx)
    direct_y = _fd_partial(g.data[1], 1, dx)
    # the public divergence uses first-order wall closures; interior rows
    # must match the raw stencil composition exactly
    assert np.array_equal(composed.data[1:-1, 1:-1],
                          (direct_x + direct_y)[1:-1, 1:-1])


# ---------------------------------------------------------------------------
# laplacian

def test_laplacian_zero(periodic32):
    out = laplacian(VelocityField.zeros(periodic32))
    assert np.all(out.data == 0.0)


def test_laplacian_spectral(periodic64):
    fld = VelocityField.from_function(
        periodic64, lambda x, y: (np.sin(x), np.zeros_like(x)))
    out = laplacian(fld)
    X, _ = periodic64.mesh()
    assert np.max(np.abs(out.data[0] + np.sin(X))) < 1e-12
    assert np.max(np.abs(out.data[1])) < 1e-13


def test_laplacian_matches_div_grad_periodic(periodic32):
    # same masked symbol: equality to machine precision on random fields
    v = random_velocity(periodic32, 11)
    lap = laplacian(v)
    for c in range(2):
        composed = divergence(gradient(v.component(c)))
        assert np.max(np.abs(lap.data[c] - composed.data)) < 1e-11


def test_laplacian_affine_interior_dirichlet(dirichlet32):
    # affine data away from the pinned walls: stencil is exact there
    X, Y = dirichlet32.mesh()
    data = np.stack([2.0 * X + 0.5, np.zeros_like(X)])
    fld = VelocityField(dirichlet32, data)
    out = laplacian(fld)
    assert np.max(np.abs(out.data[:, 2:-2, 2:-2])) < 1e-12


# ---------------------------------------------------------------------------
# inner product and Dirichlet energy

def test_inner_product_positive_definite(periodic32):
    v = random_velocity(periodic32, 7)
    assert inner_product_l2(v, v) > 0.0
    z = VelocityField.zeros(periodic32)
    assert inner_product_l2(z, z) == 0.0


def test_inner_product_constant_unit_box():
    spec = GridSpec(16, extent=1.0)
    one = VelocityField.from_function(
        spec, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    assert inner_product_l2(one, one) == pytest.approx(1.0, abs=1e-14)


def test_inner_product_sin_mode(periodic64):
    fld = VelocityField.from_function(
        periodic64, lambda x, y: (np.sin(x), np.zeros_like(x)))
    assert abs(inner_product_l2(fld, fld) - 2.0 * math.pi ** 2) < 1e-12


@pytest.mark.parametrize("spec", [
    GridSpec(16),
    GridSpec((16, 32), extent=(math.pi, TWO_PI)),
], ids=["16x16", "16x32"])
def test_parseval_norm_matches_quadrature(spec):
    # white noise fills every column, the ky = 0 and Nyquist ones included
    data = np.random.default_rng(5).normal(size=(2,) + spec.node_shape)
    v = VelocityField(spec, data)
    parseval = _parseval_norm_sq(spec, np.fft.rfft2(data))
    assert parseval == pytest.approx(inner_product_l2(v, v), rel=1e-13)
    assert _parseval_norm_sq(spec, np.fft.rfft2(data[0])) == pytest.approx(
        float(np.sum(quadrature_weights(spec) * data[0] ** 2)), rel=1e-13)


def test_inner_product_spec_mismatch(periodic32, periodic64):
    with pytest.raises(ValueError):
        inner_product_l2(VelocityField.zeros(periodic32),
                         VelocityField.zeros(periodic64))


def test_grad_norm_sq_zero(periodic32):
    assert grad_norm_sq(VelocityField.zeros(periodic32)) == 0.0


def test_grad_norm_sq_sin_mode(periodic64):
    fld = VelocityField.from_function(
        periodic64, lambda x, y: (np.sin(x), np.zeros_like(x)))
    assert abs(grad_norm_sq(fld) - 2.0 * math.pi ** 2) < 1e-12


def test_grad_norm_sq_taylor_green(periodic64):
    from dnsflow import taylor_green_field
    v, _ = taylor_green_field(0.0, periodic64)
    assert abs(grad_norm_sq(v) - 4.0 * math.pi ** 2) < 1e-10


# ---------------------------------------------------------------------------
# linearity of every operator

@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0),
       seed=st.integers(0, 50))
def test_operator_linearity(alpha, beta, seed):
    spec = GridSpec(16)
    a = random_velocity(spec, seed)
    b = random_velocity(spec, seed + 1)
    combo = a * alpha + b * beta
    scale = max(norm_l2(a), norm_l2(b), 1.0)
    for op in (divergence, laplacian):
        lhs = op(combo).data
        rhs = alpha * op(a).data + beta * op(b).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale * 40.0


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(-3.0, 3.0), seed=st.integers(0, 50))
def test_gradient_linearity(alpha, seed):
    spec = GridSpec(16, bc=BoundaryCondition.DIRICHLET_ZERO)
    f = random_scalar(spec, seed)
    g = random_scalar(spec, seed + 1)
    combo = ScalarField(spec, alpha * f.data + g.data)
    lhs = gradient(combo).data
    rhs = alpha * gradient(f).data + gradient(g).data
    assert np.max(np.abs(lhs - rhs)) < 1e-10
