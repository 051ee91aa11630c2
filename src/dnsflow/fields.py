"""Uniform-grid fields and discrete differential operators.

Two backends share one node-collocated layout:

* periodic: n x n nodes on [0, L) x [0, L), spectral derivatives via the
  real FFT, rectangle-rule quadrature (exact for trig polynomials below
  the Nyquist limit). One cached spectral kit per grid holds the Fourier
  symbols that the operators here and the torus solves read, and the
  weights of the Parseval sums. The Dirichlet energy is summed by
  Parseval over the rfft2 half-spectra and the divergence takes one
  inverse transform, so neither forms the Jacobian in physical space;
  every transform is 2-D, one slice per call.
  Both start from ``_velocity_spectra``, the one forward transform of a
  velocity field: :func:`divergence` and :func:`grad_norm_sq` each take
  their own, while :func:`divergence_and_dirichlet` takes one and reads
  both from it.
* dirichlet: (n+1) x (n+1) nodes on [0, L] x [0, L], central differences
  with one-sided closures at the walls, trapezoidal quadrature. Velocity
  samples on the walls are pinned to zero.

Both field types share one base and are immutable after construction;
every operator is a pure function returning a new field.
:func:`divergence_and_dirichlet` is the one measurement that certifies
a field the scheme keeps, on either backend: max |div v| and int |Dv|^2.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


def parse_enum(enum_cls, text: str, what: str):
    """The member of ``enum_cls`` whose value is ``text``, ignoring case
    and surrounding blanks; ValueError ``unknown <what> <text>`` if none."""
    key = text.strip().lower()
    for member in enum_cls:
        if member.value == key:
            return member
    raise ValueError(f"unknown {what} {text!r}")


class BoundaryCondition(enum.Enum):
    PERIODIC = "periodic"
    DIRICHLET_ZERO = "dirichlet"


class NonFiniteFieldError(ValueError):
    """A field was built from NaN or infinite samples."""


def _as_pair(value, name: str) -> tuple:
    if np.isscalar(value):
        return (value, value)
    pair = tuple(value)
    if len(pair) != 2:
        raise ValueError(f"{name} must be a scalar or a pair, got {value!r}")
    return pair


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the computational grid.

    ``cells`` counts grid cells per axis; the node count per axis is
    ``cells`` (periodic) or ``cells + 1`` (dirichlet). Cells must be
    square: extent/cells has to agree across axes.
    """

    cells: tuple[int, int]
    extent: tuple[float, float] = (TWO_PI, TWO_PI)
    bc: BoundaryCondition = BoundaryCondition.PERIODIC

    def __init__(self, cells, extent=(TWO_PI, TWO_PI),
                 bc=BoundaryCondition.PERIODIC):
        object.__setattr__(self, "cells", tuple(int(c) for c in _as_pair(cells, "cells")))
        object.__setattr__(self, "extent", tuple(float(e) for e in _as_pair(extent, "extent")))
        object.__setattr__(self, "bc", bc)
        self._validate()

    def _validate(self) -> None:
        for n in self.cells:
            if n < 8:
                raise ValueError(f"need >= 8 cells per axis, got {n}")
        for L in self.extent:
            if not (L > 0.0):
                raise ValueError("extent must be positive")
        hx = self.extent[0] / self.cells[0]
        hy = self.extent[1] / self.cells[1]
        if not math.isclose(hx, hy, rel_tol=1e-12):
            raise ValueError(f"cells must be square: spacings {hx} != {hy}")
        # * and not **, which raises on overflow; a subnormal square
        # makes 1/dx^2 overflow
        if not sys.float_info.min <= hx * hx < math.inf:
            raise ValueError(f"cell size {hx:g} squared is not a positive "
                             f"finite number above {sys.float_info.min:g}")
        if self.bc is BoundaryCondition.PERIODIC:
            for n in self.cells:
                if n % 2 != 0:
                    raise ValueError("periodic grids need an even cell count "
                                     "(real-FFT layout)")

    @property
    def is_periodic(self) -> bool:
        return self.bc is BoundaryCondition.PERIODIC

    @property
    def spacing(self) -> float:
        return self.extent[0] / self.cells[0]

    @property
    def node_shape(self) -> tuple[int, int]:
        if self.is_periodic:
            return self.cells
        return (self.cells[0] + 1, self.cells[1] + 1)

    def axis_nodes(self, axis: int) -> np.ndarray:
        return np.arange(self.node_shape[axis]) * self.spacing

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.axis_nodes(0), self.axis_nodes(1), indexing="ij")


@dataclass(frozen=True)
class _GridField:
    """``_lead + node_shape`` finite samples, copied and frozen; sums,
    differences and scalar multiples keep the field's type."""

    spec: GridSpec
    data: np.ndarray = dc_field(repr=False)

    _lead = ()

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64, copy=True)
        data.flags.writeable = False
        noun = type(self).__name__.removesuffix("Field").lower()
        shape = self._lead + self.spec.node_shape
        if data.shape != shape:
            raise ValueError(f"{noun} data shape {data.shape} does not "
                             f"match {shape}")
        if not np.all(np.isfinite(data)):
            raise NonFiniteFieldError(f"{noun} field contains non-finite "
                                      "samples")
        object.__setattr__(self, "data", data)

    @classmethod
    def zeros(cls, spec: GridSpec):
        return cls(spec, np.zeros(cls._lead + spec.node_shape))

    def __add__(self, other):
        _check_same_spec(self, other)
        return type(self)(self.spec, self.data + other.data)

    def __sub__(self, other):
        _check_same_spec(self, other)
        return type(self)(self.spec, self.data - other.data)

    def __mul__(self, a: float):
        return type(self)(self.spec, self.data * float(a))

    __rmul__ = __mul__


class ScalarField(_GridField):
    """Scalar samples on the grid nodes (pressure, potentials, ...).

    Pressure-like outputs of the solvers are normalized to zero mean
    (gauge fixing); general scalar fields carry no mean constraint.
    """

    @classmethod
    def from_function(cls, spec: GridSpec, fn) -> "ScalarField":
        X, Y = spec.mesh()
        return cls(spec, np.asarray(fn(X, Y), dtype=np.float64))

    def mean(self) -> float:
        w = quadrature_weights(self.spec)
        return float(np.sum(w * self.data) / np.sum(w))

    def demeaned(self) -> "ScalarField":
        return ScalarField(self.spec, self.data - self.mean())


class VelocityField(_GridField):
    """Vector samples on the grid nodes, one array slice per component.

    On the dirichlet backend valid velocity fields vanish on the walls;
    derived fields such as gradients may legally violate that (they are
    not constrained on the boundary), so wall pinning is checked by the
    named constructors and by :meth:`is_boundary_compliant`, not by the
    raw dataclass.
    """

    _lead = (2,)

    @property
    def u(self) -> np.ndarray:
        return self.data[0]

    @property
    def v(self) -> np.ndarray:
        return self.data[1]

    @classmethod
    def from_components(cls, spec: GridSpec, u, v) -> "VelocityField":
        fld = cls(spec, np.stack([np.asarray(u, dtype=np.float64),
                                  np.asarray(v, dtype=np.float64)]))
        if not fld.is_boundary_compliant():
            raise ValueError("dirichlet velocity field must vanish on the walls")
        return fld

    @classmethod
    def from_function(cls, spec: GridSpec, fn) -> "VelocityField":
        """Sample an analytic (u, v) closure; wall samples are pinned."""
        X, Y = spec.mesh()
        u, v = fn(X, Y)
        data = np.stack([np.asarray(u, dtype=np.float64),
                         np.asarray(v, dtype=np.float64)])
        return cls(spec, pin_walls(spec, data))

    def is_boundary_compliant(self) -> bool:
        if self.spec.is_periodic:
            return True
        d = self.data
        return bool(np.all(d[:, 0, :] == 0.0) and np.all(d[:, -1, :] == 0.0)
                    and np.all(d[:, :, 0] == 0.0) and np.all(d[:, :, -1] == 0.0))

    def component(self, c: int) -> ScalarField:
        return ScalarField(self.spec, self.data[c])

    def __neg__(self) -> "VelocityField":
        return VelocityField(self.spec, -self.data)


def _check_same_spec(a, b) -> None:
    if a.spec != b.spec:
        raise ValueError("fields live on different grids")


def pin_walls(spec: GridSpec, data: np.ndarray) -> np.ndarray:
    """Zero the wall slices of the trailing two axes in place on the
    dirichlet backend (the torus has no walls); returns ``data``."""
    if spec.bc is BoundaryCondition.DIRICHLET_ZERO:
        data[..., 0, :] = data[..., -1, :] = 0.0
        data[..., :, 0] = data[..., :, -1] = 0.0
    return data


# ---------------------------------------------------------------------------
# spectral kit (periodic backend)

@lru_cache(maxsize=32)
def _spectral_kit(spec: GridSpec):
    """Read-only symbols ``(ikx, iky, K2, col, col_k2)`` of the real-FFT
    layout: i kx, i ky and K2 = kx^2 + ky^2; then the weights of the
    half-spectrum's power in :func:`_parseval_norm_sq`: ``col`` counts
    each column but ky = 0 and Nyquist twice, for its conjugate, and
    ``col_k2`` is col x K2.

    The Nyquist wavenumber is zeroed so first derivatives stay
    skew-adjoint and real; the Laplacian symbol is the composition
    -(kx^2 + ky^2) of the masked symbols, which makes div(grad f)
    identical to the Laplacian to machine precision.
    """
    nx, ny = spec.cells
    dx = spec.spacing
    kx = TWO_PI * np.fft.fftfreq(nx, d=dx)
    kx[nx // 2] = 0.0
    ky = TWO_PI * np.fft.rfftfreq(ny, d=dx)
    ky[-1] = 0.0
    KX = np.broadcast_to(kx[:, None], (nx, ny // 2 + 1))
    KY = np.broadcast_to(ky[None, :], (nx, ny // 2 + 1))
    K2 = KX**2 + KY**2
    col = np.full(ny // 2 + 1, 2.0)
    col[0] = col[-1] = 1.0
    kit = (1j * KX, 1j * KY, K2, col, col * K2)
    for arr in kit:
        arr.flags.writeable = False
    return kit


def _weighted_power_sum(re: np.ndarray, im: np.ndarray,
                        weights: np.ndarray) -> np.float64:
    """sum(weights * (re^2 + im^2)), the power formed in one array."""
    power = np.square(re)
    power += np.square(im)
    power *= weights
    return np.sum(power)


def _parseval_norm_sq(spec: GridSpec, *f_hats: np.ndarray,
                      k2: bool = False) -> float:
    """Rectangle-rule integral of |f|^2 (summed over leading axes and
    over the spectra given, before the scaling) from f's rfft2
    half-spectrum: each column but ky = 0 and Nyquist counts twice, for
    its conjugate. ``k2`` weights the power by K^2, for the integral of
    |grad f|^2. The weights are the spectral kit's, formed once per
    grid."""
    nx, ny = spec.cells
    weights = _spectral_kit(spec)[4 if k2 else 3]
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(_weighted_power_sum(f.real, f.imag, weights)
                    for f in f_hats)
        value = float(spec.spacing ** 2 / (nx * ny) * total)
    if math.isfinite(value) or not all(np.all(np.isfinite(f))
                                       for f in f_hats):
        return value
    # the spectra are unnormalised, ~N^2 max |f|, so their squares
    # overflow long before the integral does: sum again with every
    # spectrum scaled by an exact power of two below 1 / max, which
    # rounds as the plain sum would, and scale the result back
    peak = max(float(np.max(np.abs(part))) for f in f_hats
               for part in (f.real, f.imag))
    e = math.frexp(peak)[1]
    s = math.ldexp(1.0, -e)
    total = sum(_weighted_power_sum(s * f.real, s * f.imag, weights)
                for f in f_hats)
    try:
        return math.ldexp(float(spec.spacing ** 2 / (nx * ny) * total), 2 * e)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# finite-difference kit (dirichlet backend)

def _fd_partial(data: np.ndarray, axis: int, dx: float) -> np.ndarray:
    """Central differences, second-order one-sided rows at the walls."""
    out = np.empty_like(data)
    d = np.moveaxis(data, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (d[2:] - d[:-2]) / (2.0 * dx)
    o[0] = (-3.0 * d[0] + 4.0 * d[1] - d[2]) / (2.0 * dx)
    o[-1] = (3.0 * d[-1] - 4.0 * d[-2] + d[-3]) / (2.0 * dx)
    return out


def _fd_divergence(spec: GridSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central interior; first-order one-sided normal derivative at walls.

    The wall closure matches the weighted-adjoint divergence used by the
    projection solvers, so a projected wall-pinned field has small
    divergence at every node, walls included.
    """
    dx = spec.spacing
    out = np.zeros_like(u)
    out[1:-1, :] += (u[2:, :] - u[:-2, :]) / (2.0 * dx)
    out[0, :] += (u[1, :] - u[0, :]) / dx
    out[-1, :] += (u[-1, :] - u[-2, :]) / dx
    out[:, 1:-1] += (v[:, 2:] - v[:, :-2]) / (2.0 * dx)
    out[:, 0] += (v[:, 1] - v[:, 0]) / dx
    out[:, -1] += (v[:, -1] - v[:, -2]) / dx
    return out


def _fd_laplacian(spec: GridSpec, data: np.ndarray) -> np.ndarray:
    """Five-point stencil on interior nodes of each leading slice of
    ``data``; wall rows return 0."""
    dx2 = spec.spacing ** 2
    out = np.zeros_like(data)
    out[..., 1:-1, 1:-1] = (data[..., 2:, 1:-1] + data[..., :-2, 1:-1]
                            + data[..., 1:-1, 2:] + data[..., 1:-1, :-2]
                            - 4.0 * data[..., 1:-1, 1:-1]) / dx2
    return out


# ---------------------------------------------------------------------------
# public operators

def _partials(spec: GridSpec, data: np.ndarray) -> np.ndarray:
    """x and y derivatives of each leading slice of ``data``, shape
    ``(*lead, 2, *node_shape)``: one forward and two inverse transforms
    per slice (periodic; numpy's batched transforms run at about half
    the speed of a loop over 2-D calls, with equal output) or one
    stencil pass for all slices (dirichlet)."""
    if spec.is_periodic:
        ik = _spectral_kit(spec)[:2]
        lead = data.shape[:-2]
        out = np.empty(lead + (2,) + spec.node_shape)
        for i in np.ndindex(lead):
            f_hat = np.fft.rfft2(data[i])
            for a in range(2):
                # not irfft2's out=: numpy 2.4 returns the result there
                # without writing it into out
                out[i + (a,)] = np.fft.irfft2(ik[a] * f_hat,
                                              s=spec.node_shape)
        return out
    return np.stack([_fd_partial(data, -2, spec.spacing),
                     _fd_partial(data, -1, spec.spacing)], axis=-3)


def gradient(f: ScalarField) -> VelocityField:
    """Discrete gradient; spectral (periodic) or central/one-sided (dirichlet).

    The result is not constrained to vanish on the walls.
    """
    return VelocityField(f.spec, _partials(f.spec, f.data))


def _velocity_spectra(v: VelocityField) -> tuple[np.ndarray, np.ndarray]:
    """rfft2 half-spectra of both components of a torus field, one 2-D
    transform each: the one transform of v that :func:`divergence`,
    :func:`grad_norm_sq` and :func:`divergence_and_dirichlet` read."""
    return np.fft.rfft2(v.u), np.fft.rfft2(v.v)


def _divergence_from_spectra(spec: GridSpec, u_hat: np.ndarray,
                             v_hat: np.ndarray) -> np.ndarray:
    """div v on the torus from its components' half-spectra: the two
    partials summed in Fourier space, one inverse transform."""
    ikx, iky = _spectral_kit(spec)[:2]
    return np.fft.irfft2(ikx * u_hat + iky * v_hat, s=spec.node_shape)


def _dirichlet_from_spectra(spec: GridSpec, u_hat: np.ndarray,
                            v_hat: np.ndarray) -> float:
    """int |Dv|^2 on the torus from its components' half-spectra:
    Parseval's sum of K^2 |v_c_hat|^2, one component at a time."""
    return sum(_parseval_norm_sq(spec, f_hat, k2=True)
               for f_hat in (u_hat, v_hat))


def divergence(v: VelocityField) -> ScalarField:
    spec = v.spec
    if spec.is_periodic:
        return ScalarField(spec, _divergence_from_spectra(
            spec, *_velocity_spectra(v)))
    return ScalarField(spec, _fd_divergence(spec, v.u, v.v))


def _max_div(v: VelocityField) -> float:
    return float(np.max(np.abs(divergence(v).data)))


def divergence_and_dirichlet(v: VelocityField) -> tuple[float, float]:
    """max |div v| and int |Dv|^2, the two numbers that certify a kept
    field: to the bit what :func:`divergence` and :func:`grad_norm_sq`
    give, and NonFiniteFieldError where the divergence is not finite, as
    :func:`divergence` raises. The torus reads both from one transform
    of v."""
    spec = v.spec
    if not spec.is_periodic:
        return _max_div(v), grad_norm_sq(v)
    v_hats = _velocity_spectra(v)
    max_div = float(np.max(np.abs(_divergence_from_spectra(spec, *v_hats))))
    if not math.isfinite(max_div):
        # what building divergence(v)'s field raises, without its copy
        raise NonFiniteFieldError("scalar field contains non-finite samples")
    return max_div, _dirichlet_from_spectra(spec, *v_hats)


def laplacian(v: VelocityField) -> VelocityField:
    spec = v.spec
    if spec.is_periodic:
        K2 = _spectral_kit(spec)[2]
        out = np.empty((2,) + spec.node_shape)
        for c in range(2):
            out[c] = np.fft.irfft2(-K2 * np.fft.rfft2(v.data[c]),
                                   s=spec.node_shape)
        return VelocityField(spec, out)
    return VelocityField(spec, _fd_laplacian(spec, v.data))


@lru_cache(maxsize=32)
def quadrature_weights(spec: GridSpec) -> np.ndarray:
    """Rectangle rule (periodic) or trapezoid rule (dirichlet) node weights.

    The torus weight is the one constant dx^2, broadcast to the node
    shape with zero strides: a read-only view that holds no grid-sized
    buffer. Products with it are the same bits as with a full array.
    """
    dx = spec.spacing
    if spec.is_periodic:
        return np.broadcast_to(np.float64(dx * dx), spec.node_shape)
    w1x = np.full(spec.node_shape[0], dx)
    w1x[0] = w1x[-1] = 0.5 * dx
    w1y = np.full(spec.node_shape[1], dx)
    w1y[0] = w1y[-1] = 0.5 * dx
    w = w1x[:, None] * w1y[None, :]
    w.flags.writeable = False
    return w


def inner_product_l2(a: VelocityField, b: VelocityField) -> float:
    """Quadrature of the pointwise dot product of two vector fields."""
    _check_same_spec(a, b)
    w = quadrature_weights(a.spec)
    return float(np.sum(w * (a.data[0] * b.data[0] + a.data[1] * b.data[1])))


def distance_sq(a: VelocityField, b: VelocityField) -> float:
    """int |a - b|^2: the sum ``inner_product_l2(a - b, a - b)`` takes, to
    the bit, formed in place in the one difference array, with no field
    built (the same products and sums in the same order)."""
    _check_same_spec(a, b)
    d = a.data - b.data
    np.multiply(d, d, out=d)
    d[0] += d[1]
    d[0] *= quadrature_weights(a.spec)
    return float(np.sum(d[0]))


def norm_l2(a: VelocityField) -> float:
    return math.sqrt(max(inner_product_l2(a, a), 0.0))


def velocity_jacobian(v: VelocityField) -> np.ndarray:
    """Samples of the Jacobian, ``J[c, a] = d v_c / d x_a``, shape
    ``(2, 2, *node_shape)``; row c is the :func:`gradient` of v_c, and
    both rows come from one pass of the same kernel."""
    return _partials(v.spec, v.data)


def grad_norm_sq(v: VelocityField) -> float:
    """Integral of |Dv|^2 (the full Jacobian, both components).

    On the torus it is Parseval's sum of K^2 |v_c_hat|^2 over both
    components' half-spectra, one forward transform each and no inverse
    one; it equals the rectangle rule on the spectral Jacobian up to
    roundoff. The box integrates the finite-difference Jacobian.
    """
    spec = v.spec
    if spec.is_periodic:
        return _dirichlet_from_spectra(spec, *_velocity_spectra(v))
    jac = velocity_jacobian(v)
    return float(np.sum(quadrature_weights(spec) * np.sum(jac * jac,
                                                            axis=(0, 1))))


def grad_max_norm(v: VelocityField, jac: np.ndarray | None = None) -> float:
    """Max over nodes of the Frobenius norm of the velocity Jacobian.

    ``jac`` is v's :func:`velocity_jacobian`, for callers that already
    hold it.
    """
    if jac is None:
        jac = velocity_jacobian(v)
    return float(np.sqrt(np.max(np.sum(jac * jac, axis=(0, 1)))))


def advection_term(v: VelocityField,
                   jac: np.ndarray | None = None) -> VelocityField:
    """(v . D) v computed with the backend's derivative operators.

    ``jac`` is v's :func:`velocity_jacobian`, for callers that already
    hold it.
    """
    if jac is None:
        jac = velocity_jacobian(v)
    return VelocityField(v.spec, v.data[0] * jac[:, 0] + v.data[1] * jac[:, 1])
