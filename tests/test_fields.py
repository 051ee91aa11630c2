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
    NonFiniteFieldError,
    _fd_partial,
    _parseval_norm_sq,
    _partials,
    _spectral_kit,
    distance_sq,
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


@pytest.mark.parametrize("extent", [1e300, 1e-300])
@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_grid_spec_rejects_cell_size_without_finite_square(extent, bc):
    # dx^2 overflows or underflows to 0: the quadrature weights and the
    # box Helmholtz symbol divide or multiply by it
    with pytest.raises(ValueError, match="squared is not a positive finite"):
        GridSpec(16, extent, bc)


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


@pytest.mark.parametrize("cls, noun", [(ScalarField, "scalar"),
                                       (VelocityField, "velocity")])
def test_field_base_keeps_type_and_names_it(periodic32, cls, noun):
    a = cls.zeros(periodic32)
    for out in (a + a, a - a, a * 2.0, 2.0 * a):
        assert type(out) is cls and out.data.shape == a.data.shape
    data = np.zeros(a.data.shape)
    data[..., 0, 0] = np.inf
    with pytest.raises(NonFiniteFieldError,
                       match=f"^{noun} field contains non-finite samples$"):
        cls(periodic32, data)


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


TORUS_SPECS = [GridSpec(16), GridSpec((16, 32), extent=(math.pi, TWO_PI))]
TORUS_IDS = ["16x16", "16x32"]


# Reference: the torus operators before Parseval and the one-transform
# divergence, kept verbatim. All slices went through one batched
# transform, the Dirichlet energy was the rectangle rule on that
# Jacobian, and the divergence summed two inverse transforms.

def _old_partials(spec, data):
    ikx, iky, _, _ = _spectral_kit(spec)
    ik = np.stack([ikx, iky])
    return np.fft.irfft2(ik * np.fft.rfft2(data)[..., None, :, :],
                         s=spec.node_shape)


def _old_grad_norm_sq(v):
    jac = _old_partials(v.spec, v.data)
    return float(np.sum(quadrature_weights(v.spec) * np.sum(jac * jac,
                                                            axis=(0, 1))))


def _old_divergence(v):
    spec = v.spec
    ikx, iky, _, _ = _spectral_kit(spec)
    shape = spec.node_shape
    return (np.fft.irfft2(ikx * np.fft.rfft2(v.u), s=shape)
            + np.fft.irfft2(iky * np.fft.rfft2(v.v), s=shape))


def _white_noise(spec, seed):
    data = np.random.default_rng(seed).normal(size=(2,) + spec.node_shape)
    # every column is filled, the ky = 0 and Nyquist ones included
    power = np.abs(np.fft.rfft2(data))
    assert np.all(np.min(power, axis=-2) > 0.0)
    return VelocityField(spec, data)


@pytest.mark.parametrize("spec", TORUS_SPECS, ids=TORUS_IDS)
def test_parseval_grad_norm_sq_matches_jacobian_quadrature(spec):
    for seed in range(4):
        v = _white_noise(spec, seed)
        old = _old_grad_norm_sq(v)
        assert abs(grad_norm_sq(v) - old) <= 1e-13 * old


@pytest.mark.parametrize("spec", TORUS_SPECS, ids=TORUS_IDS)
def test_one_transform_divergence_matches_two_transform_sum(spec):
    for seed in range(4):
        v = _white_noise(spec, seed)
        jac = _old_partials(spec, v.data)
        scale = max(np.max(np.abs(jac[0, 0])), np.max(np.abs(jac[1, 1])))
        gap = np.max(np.abs(divergence(v).data - _old_divergence(v)))
        assert gap <= 1e-13 * scale


@pytest.mark.parametrize("lead", [(), (2,), (2, 2)])
@pytest.mark.parametrize("spec", TORUS_SPECS, ids=TORUS_IDS)
def test_per_slice_partials_match_batched_transform(spec, lead):
    data = np.random.default_rng(7).normal(size=lead + spec.node_shape)
    assert np.array_equal(_partials(spec, data), _old_partials(spec, data))


@pytest.mark.parametrize("spec_name", ["periodic32", "dirichlet32"])
def test_distance_sq_is_the_inner_product_of_the_difference(spec_name,
                                                            request):
    # the step's kinetic terms and the ledger's increments read this sum
    # where they formed the difference field before: to the bit
    spec = request.getfixturevalue(spec_name)
    rng = np.random.default_rng(11)
    for scale in (1e-6, 1.0, 1e6):
        a, b = (VelocityField(spec, scale * rng.normal(
            size=(2,) + spec.node_shape)) for _ in range(2))
        d = a - b
        assert distance_sq(a, b) == inner_product_l2(d, d)


def test_inner_product_spec_mismatch(periodic32, periodic64):
    with pytest.raises(ValueError):
        inner_product_l2(VelocityField.zeros(periodic32),
                         VelocityField.zeros(periodic64))


def _plain_parseval(spec, *f_hats, symbol=1.0):
    # the Parseval sum as it stood before its overflow guard, verbatim
    nx, ny = spec.cells
    col = np.full(ny // 2 + 1, 2.0)
    col[0] = col[-1] = 1.0
    total = sum(np.sum(col * symbol * (f.real ** 2 + f.imag ** 2))
                for f in f_hats)
    return float(spec.spacing ** 2 / (nx * ny) * total)


def _taylor_green(spec, amplitude):
    from dnsflow import TaylorGreenOracle, taylor_green_field
    return taylor_green_field(0.0, spec, TaylorGreenOracle(amplitude))[0]


def test_grad_norm_sq_survives_squared_spectra_overflow():
    # the rfft2 spectra of a 16^2 Taylor-Green datum are ~N^2 A / 4: at
    # A = 1e150 their squares are finite and the sum is today's to the
    # bit; at 1e152 they overflow, while int |Da|^2 = 3.95e305 does not
    spec = GridSpec(16)
    K2 = _spectral_kit(spec)[2]
    unit = grad_norm_sq(_taylor_green(spec, 1.0))
    v = _taylor_green(spec, 1e150)
    plain = sum(_plain_parseval(spec, np.fft.rfft2(c), symbol=K2)
                for c in v.data)
    assert math.isfinite(plain)
    assert grad_norm_sq(v) == plain
    huge = grad_norm_sq(_taylor_green(spec, 1e152))
    assert huge == pytest.approx(1e304 * unit, rel=1e-14)
    assert huge == pytest.approx(3.95e305, rel=1e-3)


def test_parseval_norm_sq_overflows_only_with_its_integral(periodic32):
    # a constant field c: one spectral sample 32^2 c, int |f|^2 = 4 pi^2 c^2
    f_hat = np.fft.rfft2(np.ones(periodic32.node_shape))
    unit = _parseval_norm_sq(periodic32, f_hat)
    assert unit == pytest.approx(4.0 * math.pi ** 2, rel=1e-14)
    # c = 1e152: the sample's square overflows, the integral does not
    assert _parseval_norm_sq(periodic32, f_hat * 1e152) == pytest.approx(
        1e304 * unit, rel=1e-14)
    # c = 1e300: the integral itself leaves the double range
    assert _parseval_norm_sq(periodic32, f_hat * 1e300) == math.inf
    # spectra that are not finite are not rescaled
    f_hat[0, 0] = np.inf
    assert _parseval_norm_sq(periodic32, f_hat) == math.inf


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
