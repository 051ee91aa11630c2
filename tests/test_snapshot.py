import numpy as np
import pytest

from dnsflow import BoundaryCondition, GridSpec, ScalarField
from dnsflow.snapshot import read_vtk, write_vtk

from conftest import random_pinned_velocity, random_scalar, random_velocity


@pytest.mark.parametrize("bc", [BoundaryCondition.PERIODIC,
                                BoundaryCondition.DIRICHLET_ZERO])
def test_vtk_round_trip_bitwise(tmp_path, bc):
    spec = GridSpec(16, bc=bc)
    v = random_pinned_velocity(spec, 3)
    p = random_scalar(spec, 4)
    path = tmp_path / "snap.vtk"
    write_vtk(path, v, p)
    v2, p2 = read_vtk(path)
    assert v2.spec == spec
    assert np.array_equal(v2.data, v.data)
    assert np.array_equal(p2.data, p.data)


def test_vtk_without_pressure(tmp_path, periodic32):
    v = random_velocity(periodic32, 9)
    path = tmp_path / "snap.vtk"
    write_vtk(path, v)
    v2, p2 = read_vtk(path)
    assert p2 is None
    assert np.array_equal(v2.data, v.data)


def test_vtk_layout(tmp_path, periodic32):
    v = random_velocity(periodic32, 1)
    path = tmp_path / "snap.vtk"
    write_vtk(path, v, ScalarField.zeros(periodic32))
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "DATASET STRUCTURED_POINTS" in text
    assert "VECTORS velocity float" in text
    assert "SCALARS pressure float 1" in text
    assert "LOOKUP_TABLE default" in text


def test_vtk_rejects_garbage(tmp_path):
    path = tmp_path / "bad.vtk"
    path.write_text("not a vtk file\n")
    with pytest.raises(ValueError):
        read_vtk(path)
