import math

import numpy as np
import pytest

from dnsflow import (
    BoundaryCondition,
    DnsConfig,
    GridSpec,
    InterpOrder,
    ScalarField,
    SolvePath,
    VelocityField,
    random_solenoidal_field,
    run,
)
from dnsflow import scheme
from dnsflow.scheme import CollectingSink, Trajectory

_real_cg = scheme._cg
_real_stokes = scheme.solve_implicit_stokes
_real_minimizer = scheme._minimize_projected_cg


@pytest.fixture(scope="session")
def periodic32():
    return GridSpec(32)


@pytest.fixture(scope="session")
def periodic64():
    return GridSpec(64)


@pytest.fixture(scope="session")
def dirichlet32():
    return GridSpec(32, bc=BoundaryCondition.DIRICHLET_ZERO)


SMALL_RUN_CASES = [(bc, path, order) for bc in BoundaryCondition
                   for path in SolvePath for order in InterpOrder]


def collected_run(a: VelocityField, cfg: DnsConfig) -> Trajectory:
    """run with a collecting sink: the Trajectory of every step's fields,
    for tests that read them after the run."""
    sink = CollectingSink()
    return sink.trajectory(run(a, cfg, sinks=[sink]))


@pytest.fixture(scope="session", params=SMALL_RUN_CASES,
                ids=lambda case: "-".join(e.value for e in case))
def small_run(request):
    """Four steps from random solenoidal data on a 16-cell grid, for each
    backend, solve path and interpolation order."""
    bc, path, order = request.param
    spec = GridSpec(16, bc=bc)
    cfg = DnsConfig(h=0.0125, T=0.05, grid=spec, interp_order=order,
                    path=path, nu=0.7, minimizer_tol=1e-8)
    return collected_run(random_solenoidal_field(spec, seed=17), cfg)


def random_scalar(spec: GridSpec, seed: int, k_max: int = 5) -> ScalarField:
    """Band-limited random scalar field (works on both backends)."""
    rng = np.random.default_rng(seed)
    X, Y = spec.mesh()
    data = np.zeros(spec.node_shape)
    for _ in range(6):
        kx = rng.integers(0, k_max + 1)
        ky = rng.integers(0, k_max + 1)
        ph_x = rng.uniform(0.0, 2.0 * math.pi)
        ph_y = rng.uniform(0.0, 2.0 * math.pi)
        data += rng.normal() * np.cos(kx * X + ph_x) * np.cos(ky * Y + ph_y)
    return ScalarField(spec, data)


def random_velocity(spec: GridSpec, seed: int, k_max: int = 5) -> VelocityField:
    """Band-limited random vector field; not divergence-free, walls free."""
    u = random_scalar(spec, seed, k_max).data
    v = random_scalar(spec, seed + 104729, k_max).data
    return VelocityField(spec, np.stack([u, v]))


def random_pinned_velocity(spec: GridSpec, seed: int) -> VelocityField:
    """Random vector field vanishing on the walls of a dirichlet box."""
    fld = random_velocity(spec, seed)
    if spec.is_periodic:
        return fld
    data = fld.data.copy()
    X, Y = spec.mesh()
    lx, ly = spec.extent
    mask = np.sin(math.pi * X / lx) * np.sin(math.pi * Y / ly)
    data *= mask
    data[:, 0, :] = data[:, -1, :] = 0.0
    data[:, :, 0] = data[:, :, -1] = 0.0
    return VelocityField(spec, data)


def failing_cg(apply_a, b, x0, max_iters, rel_tol):
    """Stand-in for ``scheme._cg``, the CG loop of the direct-minimize
    path: two iterations, then non-convergence."""
    x, k, _ = _real_cg(apply_a, b, x0, 2, rel_tol)
    return x, k, False


def leak(v: VelocityField) -> VelocityField:
    """v plus 1e-3 sin(pi x / L_x) sin(pi y / L_y) in its first
    component, a divergent part that vanishes on a box's walls."""
    X, Y = v.spec.mesh()
    lx, ly = v.spec.extent
    data = v.data.copy()
    data[0] += 1e-3 * np.sin(math.pi * X / lx) * np.sin(math.pi * Y / ly)
    return VelocityField(v.spec, data)


def leaky_stokes(w, h, nu=1.0):
    """Stand-in for ``scheme.solve_implicit_stokes`` whose v has a
    divergent part (:func:`leak`). An exact solve leaves only roundoff
    divergence, within ``scheme.div_free_bound`` at every amplitude."""
    v, p, info = _real_stokes(w, h, nu)
    return leak(v), p, info


def leaky_minimizer(w, cfg):
    """Stand-in for ``scheme._minimize_projected_cg``, the solve of the
    direct-minimize path, whose v has a divergent part (:func:`leak`)."""
    return leak(_real_minimizer(w, cfg))


def exactly_solenoidal_box_field(spec: GridSpec, seed: int,
                                 amplitude: float) -> VelocityField:
    """Box field whose discrete divergence is exactly 0 at every node.

    u = D_y psi and v = -D_x psi by central differences, with psi random
    integers on the nodes at least two from the walls, so the field and
    its one-sided wall divergence vanish on the walls. With dx and the
    amplitude powers of two every sample and every term of the
    divergence is exact in floating point.
    """
    dx = spec.spacing
    assert math.frexp(dx)[0] == 0.5 and math.frexp(amplitude)[0] == 0.5
    psi = np.zeros(spec.node_shape)
    psi[2:-2, 2:-2] = np.random.default_rng(seed).integers(
        -8, 9, size=psi[2:-2, 2:-2].shape)
    data = np.zeros((2,) + spec.node_shape)
    data[0, 1:-1, 1:-1] = (psi[1:-1, 2:] - psi[1:-1, :-2]) / (2.0 * dx)
    data[1, 1:-1, 1:-1] = -(psi[2:, 1:-1] - psi[:-2, 1:-1]) / (2.0 * dx)
    return VelocityField(spec, data * amplitude)


def plain_parseval(spec, *f_hats, symbol=1.0):
    """The Parseval sum of ``fields._parseval_norm_sq`` as it stood
    before its overflow guard and its cached weights, verbatim."""
    nx, ny = spec.cells
    col = np.full(ny // 2 + 1, 2.0)
    col[0] = col[-1] = 1.0
    total = sum(np.sum(col * symbol * (f.real ** 2 + f.imag ** 2))
                for f in f_hats)
    return float(spec.spacing ** 2 / (nx * ny) * total)
