import numpy as np
import pytest

from grushinlab import bvp1d
from grushinlab.bvp1d import (
    Discretization,
    bvp_bordered_system,
    bvp_grushin,
    dirichlet_matrix,
    dn_trace_identity,
    extension_profiles,
    load_potential_table,
    n2d_map,
    neumann_green_solve,
    neumann_matrix,
    potential_from_name,
    tabulated_potential,
)
from grushinlab.errors import ConsistencyError, IoFailure, NeumannEigenvalue, OnContourSingular
from grushinlab.linops import Contour, eigenvalues, spectral_norm, tolerance_from_sigma


def _zero(x):
    return 0.0


def test_dirichlet_stencil_pattern():
    d = Discretization(0.0, 4.0, 3, _zero)
    assert d.step == pytest.approx(1.0)
    mat = dirichlet_matrix(d, 0.0)
    assert np.allclose(mat, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


def test_dirichlet_spectrum_approximates_squares():
    d = Discretization(0.0, np.pi, 200, _zero)
    vals = np.sort(eigenvalues(dirichlet_matrix(d, 0.0)).real)
    assert abs(vals[0] - 1.0) <= 1e-3


def test_dirichlet_shift_identity():
    d = Discretization(0.0, np.pi, 40, _zero)
    shifted = dirichlet_matrix(d, 5.0)
    base = dirichlet_matrix(d, 0.0)
    assert np.allclose(shifted, base - 5.0 * np.eye(40))


def test_neumann_constant_mode():
    d = Discretization(0.0, np.pi, 120, _zero)
    vals = np.sort(np.abs(eigenvalues(neumann_matrix(d, 0.0))))
    assert vals[0] <= 1e-6


def test_neumann_potential_shift():
    d0 = Discretization(0.0, np.pi, 40, _zero)
    d1 = Discretization(0.0, np.pi, 40, lambda x: 1.0)
    assert np.allclose(neumann_matrix(d1, 0.0), neumann_matrix(d0, 0.0) + np.eye(42))


def test_neumann_second_eigenvalue():
    d = Discretization(0.0, np.pi, 200, _zero)
    vals = np.sort(eigenvalues(neumann_matrix(d, 0.0)).real)
    assert abs(vals[1] - 1.0) <= 1e-3


def test_n2d_closed_form():
    d = Discretization(0.0, 1.0, 400, _zero)
    n_map = n2d_map(d, -1.0)
    coth = np.cosh(1.0) / np.sinh(1.0)
    csch = 1.0 / np.sinh(1.0)
    assert abs(n_map[0, 0] - coth) <= 1e-4
    assert abs(n_map[1, 1] - coth) <= 1e-4
    assert abs(n_map[0, 1] - csch) <= 1e-4
    assert abs(n_map[1, 0] - csch) <= 1e-4


def test_n2d_persymmetric_for_even_potential():
    d = Discretization(0.0, 2.0, 80, lambda x: (x - 1.0) ** 2)
    n_map = n2d_map(d, -0.7)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert spectral_norm(swap @ n_map @ swap - n_map) <= 1e-10


def test_n2d_neumann_eigenvalue_rejected():
    d = Discretization(0.0, np.pi, 40, _zero)
    lam = np.sort(eigenvalues(neumann_matrix(d, 0.0)).real)[1]
    with pytest.raises(NeumannEigenvalue):
        n2d_map(d, lam)


def test_n2d_convergence_rate():
    coth = np.cosh(1.0) / np.sinh(1.0)
    csch = 1.0 / np.sinh(1.0)
    exact = np.array([[coth, csch], [csch, coth]])
    errors = []
    for m in (100, 200, 400):
        d = Discretization(0.0, 1.0, m, _zero)
        errors.append(spectral_norm(n2d_map(d, -1.0) - exact))
    slope1 = np.log2(errors[0] / errors[1])
    slope2 = np.log2(errors[1] / errors[2])
    assert slope1 == pytest.approx(2.0, abs=0.1)
    assert slope2 == pytest.approx(2.0, abs=0.1)


def test_bvp_grushin_matches_boundary_map():
    d = Discretization(0.0, 1.0, 400, _zero)
    inverse = bvp_grushin(d, -1.0)
    reference = n2d_map(d, -1.0)
    assert spectral_norm(inverse.e_minus_plus - reference) <= 1e-9


def test_bvp_grushin_refuses_an_effective_hamiltonian_off_the_boundary_map(monkeypatch):
    # a reference map moved by 1e-6 ||N|| puts the residual past its bound 1e-9 max(1, ||N||)
    d = Discretization(0.0, 1.0, 40, _zero)
    real = bvp1d.n2d_map
    monkeypatch.setattr(bvp1d, "n2d_map", lambda d, z: real(d, z) * (1.0 + 1e-6))
    with pytest.raises(ConsistencyError, match="^effective Hamiltonian disagrees with the boundary map$"):
        bvp_grushin(d, -1.0)


def test_bvp_grushin_support_invariance(monkeypatch):
    d = Discretization(0.0, 1.0, 150, _zero)
    a = bvp_grushin(d, -1.0)
    monkeypatch.setattr(bvp1d, "SUPPORT_FRACTION", 0.25)
    b = bvp_grushin(d, -1.0)
    assert spectral_norm(a.e_minus_plus - b.e_minus_plus) <= 1e-8


def test_bvp_grushin_lower_blocks():
    rng = np.random.default_rng(np.random.SeedSequence(4))
    d = Discretization(0.0, 1.0, 120, _zero)
    z = -1.0
    inverse = bvp_grushin(d, z)
    for _ in range(10):
        v = rng.standard_normal(d.m + 2) + 1j * rng.standard_normal(d.m + 2)
        sol = neumann_green_solve(d, z, v)
        trace = np.array([sol[0], sol[-1]])
        assert np.linalg.norm(inverse.e_minus @ v - trace) <= 1e-9 * max(1.0, np.linalg.norm(trace))


def test_bvp_grushin_interior_block_formula():
    # e v = (Neumann solve of v) - extension of its boundary trace, in the
    # zero-trace coordinates (ghost_left, u_1..u_m, ghost_right)
    d = Discretization(0.0, 1.0, 80, _zero)
    z = -1.0
    inverse = bvp_grushin(d, z)
    profiles = extension_profiles(d)
    rng = np.random.default_rng(np.random.SeedSequence(5))
    v = rng.standard_normal(d.m + 2) + 1j * rng.standard_normal(d.m + 2)
    green = neumann_green_solve(d, z, v)  # values at nodes 0..m+1
    trace = np.array([green[0], green[-1]])
    # rebuild the extended-grid version of the Neumann solution (ghosts from
    # the zero-data reflection) and subtract the extension of its trace
    extended = np.concatenate([[green[1]], green, [green[-2]]])
    target = extended - profiles @ trace
    u = inverse.e @ v
    interior = u[1:-1]
    assert np.linalg.norm(interior - target[2:-2]) <= 1e-8 * max(1.0, np.linalg.norm(target))
    assert abs(u[0] - target[0]) <= 1e-8 * max(1.0, abs(target[0]))
    assert abs(u[-1] - target[-1]) <= 1e-8 * max(1.0, abs(target[-1]))


def test_bvp_grushin_large_imaginary_shift():
    d = Discretization(0.0, 1.0, 60, _zero)
    inverse = bvp_grushin(d, 3.0 + 40.0j)
    assert np.isfinite(inverse.condition)


def test_bordered_full_rank_when_neumann_invertible():
    rng = np.random.default_rng(np.random.SeedSequence(6))
    for trial in range(50):
        coeff = float(rng.uniform(-2.0, 2.0))
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
        d = Discretization(0.0, 1.0, 25, lambda x, c=coeff: c * np.cos(3 * x))
        mat_n = neumann_matrix(d, z)
        sig_n = np.linalg.svd(mat_n, compute_uv=False)
        if sig_n[-1] <= 1e4 * tolerance_from_sigma(sig_n, mat_n.shape):
            continue
        bordered = bvp_bordered_system(d, z).assembled()
        sig_b = np.linalg.svd(bordered, compute_uv=False)
        assert sig_b[-1] > tolerance_from_sigma(sig_b, bordered.shape)


def test_boundary_data_poisson_solve():
    d = Discretization(0.0, 1.0, 200, _zero)
    # outward Neumann data (1, 0) enters through the left ghost point as the load 2/h
    load = np.zeros(d.m + 2)
    load[0] = 2.0 / d.step
    sol = neumann_green_solve(d, -1.0, load)
    # closed form: u = cosh(1-x)/sinh(1)
    xs = d.grid()
    exact = np.cosh(1.0 - xs) / np.sinh(1.0)
    assert np.max(np.abs(sol - exact)) <= 1e-4


def test_dn_trace_identity_around_zero():
    d = Discretization(0.0, np.pi, 100, _zero)
    lhs, rhs = dn_trace_identity(d, Contour.circle(0.0, 0.5))
    assert (lhs, rhs) == (1, 1)


def test_dn_trace_identity_empty():
    d = Discretization(0.0, np.pi, 100, _zero)
    lhs, rhs = dn_trace_identity(d, Contour.circle(-3.0, 0.5))
    assert (lhs, rhs) == (0, 0)


def test_dn_trace_identity_dirichlet_only():
    # the zero-potential discrete spectra coincide except at 0, so use a well
    # potential to separate them and circle an isolated Dirichlet eigenvalue
    d = Discretization(0.0, np.pi, 60, potential_from_name("well", 0.0, np.pi))
    vals_d = np.sort(eigenvalues(dirichlet_matrix(d, 0.0)).real)
    vals_n = np.sort(eigenvalues(neumann_matrix(d, 0.0)).real)
    target = vals_d[0]
    gap = min(np.min(np.abs(vals_n - target)), np.abs(vals_d[1] - target))
    contour = Contour.circle(target, 0.4 * gap)
    lhs, rhs = dn_trace_identity(d, contour)
    assert (lhs, rhs) == (-1, -1)


def test_dn_trace_identity_tallies():
    d = Discretization(0.0, np.pi, 80, _zero)
    vals_d = eigenvalues(dirichlet_matrix(d, 0.0))
    vals_n = eigenvalues(neumann_matrix(d, 0.0))
    contour = Contour.circle(1.0, 0.9)
    tally = sum(1 for v in vals_n if contour.contains(v)) - sum(
        1 for v in vals_d if contour.contains(v)
    )
    lhs, rhs = dn_trace_identity(d, contour)
    assert lhs == rhs == tally


def test_dn_trace_contour_through_spectrum():
    d = Discretization(0.0, np.pi, 60, _zero)
    with pytest.raises(OnContourSingular):
        dn_trace_identity(d, Contour.circle(0.5, 0.5))


def test_potential_builtins():
    v = potential_from_name("zero", 0.0, 1.0)
    assert v(0.3) == 0.0
    v = potential_from_name("harmonic", 0.0, 2.0)
    assert v(1.0) == 0.0 and v(2.0) == 1.0
    v = potential_from_name("well", 0.0, 3.0)
    assert v(1.5) == -5.0 and v(0.1) == 0.0
    with pytest.raises(ValueError):
        potential_from_name("bogus", 0.0, 1.0)


def test_tabulated_potential_roundtrip(tmp_path):
    m = 5
    values = np.linspace(0.0, 1.0, m + 2)
    path = tmp_path / "table.txt"
    path.write_text("".join(f"{v}\n" for v in values))
    loaded = load_potential_table(path)
    assert np.allclose(loaded, values)
    v = tabulated_potential(0.0, 1.0, m, loaded)
    d = Discretization(0.0, 1.0, m, v)
    assert v(d.grid()[3]) == pytest.approx(values[3])
    with pytest.raises(ValueError):
        v(0.123456)


def test_unreadable_potential_table_is_an_io_failure(tmp_path):
    for path, cause in ((tmp_path / "missing.txt", FileNotFoundError), (tmp_path, IsADirectoryError)):
        with pytest.raises(IoFailure) as info:
            load_potential_table(path)
        assert type(info.value.__cause__) is cause
        assert str(info.value) == str(info.value.__cause__)
