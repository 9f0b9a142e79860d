"""The four uses of the bvp1d stencil against node-by-node loop references:
equal bits, and one call of the potential per grid node, when the grid is made."""

import numpy as np
import pytest

from grushinlab.bvp1d import (
    Discretization,
    bvp_bordered_system,
    dirichlet_matrix,
    extension_profiles,
    neumann_matrix,
    potential_from_name,
)


def _loop_dirichlet(d, z):
    h, x, m = d.step, d.grid(), d.m
    mat = np.zeros((m, m), dtype=np.complex128)
    for j in range(m):
        mat[j, j] = 2.0 / h**2 + d.v(x[j + 1]) - z
        if j + 1 < m:
            mat[j, j + 1] = mat[j + 1, j] = -1.0 / h**2
    return mat


def _loop_neumann(d, z):
    h, x, n = d.step, d.grid(), d.m + 2
    mat = np.zeros((n, n), dtype=np.complex128)
    for j in range(1, n - 1):
        mat[j, j - 1] = -1.0 / h**2
        mat[j, j] = 2.0 / h**2 + d.v(x[j]) - z
        mat[j, j + 1] = -1.0 / h**2
    mat[0, 0] = 2.0 / h**2 + d.v(x[0]) - z
    mat[0, 1] = -2.0 / h**2
    mat[n - 1, n - 1] = 2.0 / h**2 + d.v(x[-1]) - z
    mat[n - 1, n - 2] = -2.0 / h**2
    return mat


def _loop_p_block(d, z):
    h, x, m = d.step, d.grid(), d.m
    p = np.zeros((m + 2, m + 2), dtype=np.complex128)
    p[0, 0] = p[0, 1] = -1.0 / h**2
    for j in range(1, m + 1):
        if j - 1 >= 1:
            p[j, j - 1] = -1.0 / h**2
        p[j, j] = 2.0 / h**2 + d.v(x[j]) - z
        if j + 1 <= m:
            p[j, j + 1] = -1.0 / h**2
    p[m + 1, m] = p[m + 1, m + 1] = -1.0 / h**2
    return p


def _loop_difference_rows(d, z, extended):
    h, x = d.step, d.grid()
    vvals = np.array([d.v(xj) for xj in x], dtype=np.complex128)
    inner = extended[1:-1]
    return (-extended[:-2] + 2.0 * inner - extended[2:]) / h**2 + (vvals - z) * inner


@pytest.mark.parametrize("name", ["zero", "harmonic", "well"])
@pytest.mark.parametrize("z", [0.0, -1.0, 3.7 + 0.2j, -2.1 - 1.3j])
def test_stencil_matrices_match_loop_references(name, z):
    d = Discretization(0.0, 1.3, 40, potential_from_name(name, 0.0, 1.3))
    for got, want in (
        (dirichlet_matrix(d, z), _loop_dirichlet(d, z)),
        (neumann_matrix(d, z), _loop_neumann(d, z)),
    ):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    system = bvp_bordered_system(d, z)
    assert system.p.tobytes() == _loop_p_block(d, z).tobytes()
    profiles = extension_profiles(d)
    rminus = np.column_stack([_loop_difference_rows(d, z, profiles[:, k]) for k in range(2)])
    assert system.rminus.tobytes() == rminus.tobytes()


def test_potential_called_once_per_node_and_call():
    calls = []

    def potential(x):
        calls.append(x)
        return x * x

    d = Discretization(0.0, 1.0, 20, potential)
    assert calls == list(d.grid())
    calls.clear()
    for build in (dirichlet_matrix, neumann_matrix, bvp_bordered_system):
        build(d, 0.5 + 0.5j)
    assert calls == []
