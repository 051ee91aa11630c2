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
from dnsflow import projection

_real_cg = projection._cg


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


@pytest.fixture(scope="session", params=SMALL_RUN_CASES,
                ids=lambda case: "-".join(e.value for e in case))
def small_run(request):
    """Four steps from random solenoidal data on a 16-cell grid, for each
    backend, solve path and interpolation order."""
    bc, path, order = request.param
    spec = GridSpec(16, bc=bc)
    cfg = DnsConfig(h=0.0125, T=0.05, grid=spec, interp_order=order,
                    path=path, nu=0.7, minimizer_tol=1e-8)
    return run(random_solenoidal_field(spec, seed=17), cfg)


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


def failing_poisson_cg(apply_a, b, x0, max_iters, rel_tol=0.0, abs_tol=0.0,
                       stop_fn=None, precond=None):
    """Stand-in for projection._cg: every Neumann Poisson CG reports
    non-convergence after two iterations; the Uzawa loop (the only caller
    with a stop rule) keeps the real CG."""
    if stop_fn is not None:
        return _real_cg(apply_a, b, x0, max_iters, stop_fn=stop_fn,
                        precond=precond)
    x, k, _ = _real_cg(apply_a, b, x0, 2, rel_tol, abs_tol, precond=precond)
    return x, k, False
