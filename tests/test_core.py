import ast
from pathlib import Path

import numpy as np
import pytest

import grushinlab
from grushinlab import core
from grushinlab.core import (
    BorderedSystem,
    GrushinInverse,
    Split,
    assemble,
    circulant_effective,
    dft_matrix,
    effective_index,
    feshbach_effective,
    invert_system,
    iterate,
    recover_resolvent,
    schur_check,
    transfer,
)
from grushinlab.errors import (
    ComplementSingular,
    ConsistencyError,
    CornerSingular,
    DimensionMismatch,
    EffectiveSingular,
    IllPosed,
    InnerSingular,
    RankAmbiguous,
    TransferSingular,
)
from grushinlab.linops import WELL_POSED_LIMIT, certified_inverse, spectral_norm
from grushinlab.perturbation import jordan_block


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_borders(n):
    rminus = np.zeros((n, 1), complex)
    rminus[-1, 0] = 1.0
    rplus = np.zeros((1, n), complex)
    rplus[0, 0] = 1.0
    return rminus, rplus


def test_assemble_jordan_borders_shape():
    rm, rp = _unit_borders(3)
    system = assemble(jordan_block(3), rm, rp)
    assert system.assembled().shape == (4, 4)
    assert system.k_minus == system.k_plus == 1


def test_assemble_smallest_system():
    system = assemble(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    assert np.allclose(system.assembled(), [[0, 1], [1, 0]])


def test_assemble_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        assemble(jordan_block(3), np.ones((2, 1)), np.ones((1, 3)))
    with pytest.raises(DimensionMismatch):
        assemble(jordan_block(3), np.ones((3, 1)), np.ones((1, 2)))
    with pytest.raises(DimensionMismatch):
        assemble(jordan_block(3), np.ones((3, 1)), np.ones((1, 3)), corner=np.ones((2, 2)))


def test_invert_involution():
    system = assemble(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    ginv = invert_system(system)
    assert np.allclose(ginv.assembled(), system.assembled())
    assert ginv.e_minus_plus[0, 0] == pytest.approx(0.0)


def test_invert_jordan_shift():
    rm, rp = _unit_borders(2)
    ginv = invert_system(assemble(jordan_block(2) - 0.5 * np.eye(2), rm, rp))
    assert ginv.e_minus_plus[0, 0] == pytest.approx(0.25)


def test_invert_illposed():
    with pytest.raises(IllPosed) as info:
        invert_system(assemble(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))))
    assert (info.value.condition,) == (np.inf,) == info.value.args[1:]
    # a node stack names the matrix at fault through the callback, which gets its stack index
    stack = np.stack([np.eye(2), np.diag([1.0, 1e-15]), np.zeros((2, 2))]).astype(complex)
    named = []
    with pytest.raises(IllPosed) as info:
        certified_inverse(stack, lambda i, s: named.append(i) or core._ill_posed(i, s), WELL_POSED_LIMIT)
    assert named == [1]
    assert info.value.condition == info.value.args[1] == pytest.approx(1e15)
    bare = IllPosed("no estimate")
    assert (bare.condition, bare.args) == (None, ("no estimate",))


def test_two_sided_inverse_with_corners():
    for seed in range(20):
        rng = _rng(seed)
        n, k = 6, 2
        p = _random_complex(rng, (n, n))
        system = assemble(
            p,
            _random_complex(rng, (n, k)),
            _random_complex(rng, (k, n)),
            corner=_random_complex(rng, (k, k)),
        )
        try:
            ginv = invert_system(system)
        except IllPosed:
            continue
        dim = n + k
        a = system.assembled()
        e = ginv.assembled()
        bound = 1e-10 * ginv.condition
        assert spectral_norm(a @ e - np.eye(dim)) <= bound
        assert spectral_norm(e @ a - np.eye(dim)) <= bound


def test_recover_resolvent_empty_borders():
    p = np.diag([2.0, 3.0])
    system = assemble(p, np.zeros((2, 0)), np.zeros((0, 2)))
    rec = recover_resolvent(system, invert_system(system))
    assert np.allclose(rec.matrix, np.diag([0.5, 1.0 / 3.0]))


def test_recover_resolvent_jordan():
    n = 3
    rm, rp = _unit_borders(n)
    p = jordan_block(n) - 0.5 * np.eye(n)
    system = assemble(p, rm, rp)
    rec = recover_resolvent(system, invert_system(system))
    assert rec.residual <= 1e-12
    assert spectral_norm(rec.matrix - np.linalg.solve(p, np.eye(n))) <= 1e-11


def test_recover_resolvent_effective_singular():
    n = 3
    rm, rp = _unit_borders(n)
    system = assemble(jordan_block(n), rm, rp)
    with pytest.raises(EffectiveSingular):
        recover_resolvent(system, invert_system(system))


def test_schur_identity_cases():
    assert schur_check(np.eye(4), np.eye(4), 2) <= 1e-14
    a = np.diag([2.0, 3.0])
    assert schur_check(a, np.diag([0.5, 1.0 / 3.0]), 1) <= 1e-14
    rng = _rng(5)
    m = _random_complex(rng, (6, 6)) + 4.0 * np.eye(6)
    assert schur_check(m, np.linalg.inv(m), 3) <= 1e-11
    with pytest.raises(CornerSingular):
        schur_check(np.diag([1.0, 0.0]), np.eye(2), 1)


def test_second_schur_identity():
    # E_-+^{-1} = -R+ P^{-1} R- when P invertible and borders square
    rng = _rng(9)
    n, k = 5, 2
    p = _random_complex(rng, (n, n)) + 3.0 * np.eye(n)
    rm = _random_complex(rng, (n, k))
    rp = _random_complex(rng, (k, n))
    ginv = invert_system(assemble(p, rm, rp))
    lhs = np.linalg.inv(ginv.e_minus_plus)
    rhs = -rp @ np.linalg.solve(p, rm)
    scale = max(1.0, spectral_norm(lhs))
    assert spectral_norm(lhs - rhs) <= 1e-9 * scale


def test_effective_index_jordan():
    n = 3
    rm, rp = _unit_borders(n)
    system = assemble(jordan_block(n), rm, rp)
    report = effective_index(system, invert_system(system))
    assert (report.dim_kernel, report.dim_cokernel, report.index) == (1, 1, 0)


def test_effective_index_invertible():
    rng = _rng(2)
    p = _random_complex(rng, (4, 4)) + 3.0 * np.eye(4)
    system = assemble(p, _random_complex(rng, (4, 1)), _random_complex(rng, (1, 4)))
    report = effective_index(system, invert_system(system))
    assert (report.dim_kernel, report.dim_cokernel, report.index) == (0, 0, 0)


def test_effective_index_rectangular():
    from grushinlab.pseudoinverse import canonical_borders

    rng = _rng(4)
    p = _random_complex(rng, (2, 3))
    cb = canonical_borders(p)
    system = assemble(p, cb.rminus, cb.rplus)
    report = effective_index(system, invert_system(system))
    assert report.index == 1 == system.k_plus - system.k_minus


def test_effective_index_rank_ambiguous():
    p = np.diag([1.0, 1e-8]).astype(complex)
    system = assemble(p, np.zeros((2, 0)), np.zeros((0, 2)))
    ginv = invert_system(system)
    with pytest.raises(RankAmbiguous):
        effective_index(system, ginv, tol=1e-8)


def test_invertibility_equivalence():
    checked = 0
    for seed in range(200):
        rng = _rng(10_000 + seed)
        n = int(rng.integers(3, 9))
        if seed % 2 == 0:
            p = _random_complex(rng, (n, n))
            from grushinlab.pseudoinverse import canonical_borders

            k = int(rng.integers(1, 3))
            rm = np.linalg.qr(_random_complex(rng, (n, k)))[0]
            rp = np.linalg.qr(_random_complex(rng, (n, k)))[0].conj().T
        else:
            r = int(rng.integers(1, n))
            p = _random_complex(rng, (n, r)) @ _random_complex(rng, (r, n))
            from grushinlab.pseudoinverse import canonical_borders

            cb = canonical_borders(p)
            rm, rp = cb.rminus, cb.rplus
        system = assemble(p, rm, rp)
        try:
            ginv = invert_system(system)
        except IllPosed:
            continue
        checked += 1
        p_invertible = np.linalg.svd(p, compute_uv=False)[-1] > 1e-8 * spectral_norm(p)
        emp = ginv.e_minus_plus
        if emp.size == 0:
            e_invertible = True
        else:
            se = np.linalg.svd(emp, compute_uv=False)
            e_invertible = se[-1] > 1e-8 * max(1.0, se[0])
        assert p_invertible == e_invertible
    assert checked >= 150


def test_transfer_same_borders_roundtrip():
    rng = _rng(21)
    n, k = 6, 2
    p = _random_complex(rng, (n, n)) + 2.0 * np.eye(n)
    rm = _random_complex(rng, (n, k))
    rp = _random_complex(rng, (k, n))
    ginv = invert_system(assemble(p, rm, rp))
    again = transfer(ginv, rm, rp)
    for blk, ref in (
        (again.e, ginv.e), (again.e_plus, ginv.e_plus),
        (again.e_minus, ginv.e_minus), (again.e_minus_plus, ginv.e_minus_plus),
    ):
        assert spectral_norm(blk - ref) <= 1e-10 * max(1.0, spectral_norm(ref))


def test_transfer_matches_direct_inversion():
    rng = _rng(22)
    n, k = 6, 2
    p = _random_complex(rng, (n, n)) + 2.0 * np.eye(n)
    ginv = invert_system(assemble(p, _random_complex(rng, (n, k)), _random_complex(rng, (k, n))))
    rm_new = _random_complex(rng, (n, k))
    rp_new = _random_complex(rng, (k, n))
    moved = transfer(ginv, rm_new, rp_new)
    direct = invert_system(assemble(p, rm_new, rp_new))
    for blk, ref in (
        (moved.e, direct.e), (moved.e_plus, direct.e_plus),
        (moved.e_minus, direct.e_minus), (moved.e_minus_plus, direct.e_minus_plus),
    ):
        assert spectral_norm(blk - ref) <= 1e-9 * max(1.0, spectral_norm(ref))


def test_transfer_transfer_back():
    rng = _rng(23)
    n, k = 5, 2
    p = _random_complex(rng, (n, n)) + 2.0 * np.eye(n)
    rm = _random_complex(rng, (n, k))
    rp = _random_complex(rng, (k, n))
    ginv = invert_system(assemble(p, rm, rp))
    rm2 = _random_complex(rng, (n, k))
    rp2 = _random_complex(rng, (k, n))
    back = transfer(transfer(ginv, rm2, rp2), rm, rp)
    for blk, ref in (
        (back.e, ginv.e), (back.e_plus, ginv.e_plus),
        (back.e_minus, ginv.e_minus), (back.e_minus_plus, ginv.e_minus_plus),
    ):
        assert spectral_norm(blk - ref) <= 1e-9 * max(1.0, spectral_norm(ref))


def test_transfer_empty_borders_returns_resolvent():
    rng = _rng(24)
    n = 4
    p = _random_complex(rng, (n, n)) + 3.0 * np.eye(n)
    ginv = invert_system(assemble(p, _random_complex(rng, (n, 1)), _random_complex(rng, (1, n))))
    moved = transfer(ginv, np.zeros((n, 0)), np.zeros((0, n)))
    assert spectral_norm(moved.e - np.linalg.inv(p)) <= 1e-9
    assert moved.e_minus_plus.shape == (0, 0)


@pytest.mark.parametrize("n_rows, n_cols, k_minus, k_plus", [(2, 3, 0, 1), (3, 2, 1, 0)])
def test_transfer_rectangular_p_to_one_sided_borders(n_rows, n_cols, k_minus, k_plus):
    # a P with more columns than rows keeps no R-, one with more rows no R+
    rng = _rng(25)
    p = _random_complex(rng, (n_rows, n_cols))
    ginv = invert_system(assemble(p, _random_complex(rng, (n_rows, k_minus + 1)),
                                  _random_complex(rng, (k_plus + 1, n_cols))))
    rm_new = _random_complex(rng, (n_rows, k_minus))
    rp_new = _random_complex(rng, (k_plus, n_cols))
    moved = transfer(ginv, rm_new, rp_new)
    direct = invert_system(assemble(p, rm_new, rp_new))
    assert moved.e_minus_plus.shape == (k_minus, k_plus)
    assert spectral_norm(moved.assembled() - direct.assembled()) <= 1e-9 * spectral_norm(direct.assembled())


def _circle_monodromy_inverse(z: complex, h: float, nodes: int) -> GrushinInverse:
    """Discretized inverse blocks of the circle transport problem.

    On a uniform grid over [0, 2*pi) with left-endpoint weights, the blocks
    are the sampled solution operators of the first-order problem whose
    effective Hamiltonian is 1 - exp(2*pi*i*z/h); the return-map factor
    exp(2*pi*i*z/h) plays the role of the monodromy.
    """
    x = 2.0 * np.pi * np.arange(nodes) / nodes
    wq = 2.0 * np.pi / nodes
    phase = np.exp(1j * z * x / h)
    mono = np.exp(2j * np.pi * z / h)
    # e[i, j] = weight * exp(i (x_i - x_j) z / h) for x_j < x_i; the kernel
    # jumps on the diagonal, so the diagonal carries half weight (this also
    # makes the discrete pairing identity |B|^2 = A + conj(A) exact).
    lower = np.tril(np.ones((nodes, nodes)), k=-1) + 0.5 * np.eye(nodes)
    e = wq * lower * np.outer(phase, 1.0 / phase)
    e_plus = phase.reshape(-1, 1)
    e_minus = (-mono * wq / phase).reshape(1, -1)
    e_minus_plus = np.array([[1.0 - mono]], dtype=np.complex128)
    return GrushinInverse(e, e_plus, e_minus, e_minus_plus, 1.0)


def _symmetric_monodromy_borders(profile, z: complex, h: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Discretized equal borders f(x) exp(i x z / h) for the circle problem.

    Pairing the new row border with a vector uses the same left-endpoint
    weights as :func:`_circle_monodromy_inverse`, so products of the borders
    with those blocks reproduce the continuum integrals exactly at the grid
    level.
    """
    x = 2.0 * np.pi * np.arange(nodes) / nodes
    wq = 2.0 * np.pi / nodes
    fvals = np.array([profile(xk) for xk in x], dtype=np.complex128)
    phase = np.exp(1j * z * x / h)
    rminus = (fvals * phase).reshape(-1, 1)
    rplus = (wq * np.conj(fvals * phase)).reshape(1, -1)
    return rminus, rplus


def test_transfer_monodromy_selfadjoint_border_singular():
    # equal borders f(x) e^{ixz/h} on the circle problem: the transfer matrix
    # determinant is -2 e^{i pi z/h} Re(A e^{-i pi z/h}); pick z at a sign change
    h = 0.5
    nodes = 256
    profile = lambda x: 1.0 + 0.3 * np.cos(x)
    ginv = _circle_monodromy_inverse(0.3, h, nodes)
    rm, rp = _symmetric_monodromy_borders(profile, 0.3, h, nodes)
    a_disc = complex((rp @ ginv.e @ rm)[0, 0])
    z_star = (np.angle(a_disc) + np.pi / 2.0) * h / np.pi
    ginv_star = _circle_monodromy_inverse(z_star, h, nodes)
    rm_s, rp_s = _symmetric_monodromy_borders(profile, z_star, h, nodes)
    with pytest.raises(TransferSingular):
        transfer(ginv_star, rm_s, rp_s)
    # away from the bad set the transfer succeeds
    z_ok = z_star + 0.3 * h
    moved = transfer(
        _circle_monodromy_inverse(z_ok, h, nodes),
        *_symmetric_monodromy_borders(profile, z_ok, h, nodes),
    )
    assert np.all(np.isfinite(moved.e_minus_plus))


def test_transfer_rejects_a_transfer_system_zero_up_to_rounding():
    # G = P e_plus is 1 x 1, so sigma_max/sigma_min = 1, yet it is -1.39e-17i
    p = np.array([[0.3 + 0.6j, -0.1 + 0.1j]])
    ginv = invert_system(assemble(p, [], np.array([[-0.5 + 1.3j, 0.4 + 0.9j]])))
    with pytest.raises(IllPosed):
        invert_system(assemble(p, [], p))
    with pytest.raises(TransferSingular) as info:
        transfer(ginv, [], p)
    estimate = info.value.args[1]
    assert 1e16 < estimate < 1e17
    assert str(info.value) == f"transfer system condition {estimate:.3e}"


def test_apply_solves_the_bordered_system():
    rng = _rng(31)
    p, rminus, rplus = (_random_complex(rng, shape) for shape in ((5, 4), (5, 2), (1, 4)))
    system = assemble(p, rminus, rplus)
    v, v_plus = _random_complex(rng, (5,)), _random_complex(rng, (1,))
    u, u_minus = invert_system(system).apply(v, v_plus)
    assert u.shape == (4,) and u_minus.shape == (2,)
    solution = np.concatenate([u, u_minus])
    residual = system.assembled() @ solution - np.concatenate([v, v_plus])
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(system.assembled()) * np.linalg.norm(solution)


def test_iterate_identity_recovers_blocks():
    rng = _rng(31)
    n, k = 5, 2
    p = _random_complex(rng, (n, n)) + 2.0 * np.eye(n)
    ginv = invert_system(assemble(p, _random_complex(rng, (n, k)), _random_complex(rng, (k, n))))
    same = iterate(ginv, np.eye(k), np.eye(k))
    for blk, ref in (
        (same.e, ginv.e), (same.e_plus, ginv.e_plus),
        (same.e_minus, ginv.e_minus), (same.e_minus_plus, ginv.e_minus_plus),
    ):
        assert spectral_norm(blk - ref) <= 1e-10 * max(1.0, spectral_norm(ref))


def test_iterate_without_borders_keeps_the_inverse():
    p = _random_complex(_rng(33), (4, 4)) + 2.0 * np.eye(4)
    ginv = invert_system(assemble(p, [], []))
    same = iterate(ginv, np.zeros((0, 0)), np.zeros((0, 0)))
    assert np.array_equal(same.e, ginv.e) and same.condition == ginv.condition
    assert same.e_minus_plus.shape == (0, 0)


def test_iterate_matches_direct_inversion():
    rng = _rng(32)
    n, k, v = 6, 3, 2
    p = _random_complex(rng, (n, n)) + 2.0 * np.eye(n)
    rm = _random_complex(rng, (n, k))
    rp = _random_complex(rng, (k, n))
    ginv = invert_system(assemble(p, rm, rp))
    nminus = _random_complex(rng, (k, v))
    nplus = _random_complex(rng, (v, k))
    composed = iterate(ginv, nminus, nplus)
    direct = invert_system(assemble(p, rm @ nminus, nplus @ rp))
    for blk, ref in (
        (composed.e, direct.e), (composed.e_plus, direct.e_plus),
        (composed.e_minus, direct.e_minus), (composed.e_minus_plus, direct.e_minus_plus),
    ):
        assert spectral_norm(blk - ref) <= 1e-9 * max(1.0, spectral_norm(ref))


def test_iterate_scalar_consistency():
    # scalar effective Hamiltonian 2, unit inner borders
    p = np.array([[0.0]], dtype=complex)
    ginv = invert_system(assemble(p, np.ones((1, 1)), np.ones((1, 1))))
    shifted = invert_system(assemble(np.array([[-2.0]], dtype=complex), np.ones((1, 1)), np.ones((1, 1))))
    assert shifted.e_minus_plus[0, 0] == pytest.approx(2.0)
    composed = iterate(shifted, np.eye(1), np.eye(1))
    direct = invert_system(assemble(np.array([[-2.0]], dtype=complex), np.ones((1, 1)), np.ones((1, 1))))
    assert composed.e_minus_plus[0, 0] == pytest.approx(direct.e_minus_plus[0, 0])


def test_iterate_inner_singular():
    p = np.array([[0.0]], dtype=complex)
    ginv = invert_system(assemble(p, np.ones((1, 1)), np.ones((1, 1))))
    assert ginv.e_minus_plus[0, 0] == pytest.approx(0.0)
    with pytest.raises(InnerSingular):
        iterate(ginv, np.zeros((1, 1)), np.zeros((1, 1)))


def test_feshbach_decoupled():
    g = feshbach_effective(np.diag([1.0, 3.0]), Split((0,)), 2.0)
    assert g[0, 0] == pytest.approx(1.0)


def test_feshbach_scalar_formula():
    delta = 0.1
    h = np.array([[1.0, delta], [delta, 3.0]], dtype=complex)
    z = 1.01
    g = feshbach_effective(h, Split((0,)), z)
    assert g[0, 0] == pytest.approx(z - 1.0 - delta**2 / (z - 3.0))


def test_feshbach_winding_counts_multiplicity():
    h = np.array([[1.0, 0.1], [0.1, 3.0]], dtype=complex)
    eig_low = 2.0 - np.sqrt(1.0 + 0.01)
    m = 2048
    ts = 2.0 * np.pi * np.arange(m + 1) / m
    vals = np.array(
        [np.linalg.det(feshbach_effective(h, Split((0,)), eig_low + 0.05 * np.exp(1j * t), cross_check=False))
         for t in ts]
    )
    winding = np.angle(vals[1:] / vals[:-1]).sum() / (2.0 * np.pi)
    assert winding == pytest.approx(1.0, abs=1e-8)


def test_feshbach_cross_check_refuses_a_disagreeing_effective_hamiltonian(monkeypatch):
    # the bordered reference measured against G_v + 1e-6 misses it by 1e-6, past 1e-10 max(1, ||G_v||) cond
    h = np.array([[1.0, 0.1], [0.1, 3.0]], dtype=complex)
    real = core._feshbach_residual
    monkeypatch.setattr(core, "_feshbach_residual", lambda h, split, z, g_v: real(h, split, z, g_v + 1e-6))
    with pytest.raises(ConsistencyError, match="^bordered effective Hamiltonian disagrees with -G_v$"):
        feshbach_effective(h, Split((0,)), 1.01)


def test_feshbach_complement_singular():
    h = np.diag([1.0, 3.0]).astype(complex)
    with pytest.raises(ComplementSingular):
        feshbach_effective(h, Split((0,)), 3.0)


def test_split_validation():
    with pytest.raises(ValueError):
        Split(())
    with pytest.raises(ValueError):
        Split((0, 0))
    with pytest.raises(ValueError):
        Split((0, 1)).complement(2)


def test_circulant_identity_kernel():
    delta0 = np.zeros(4, complex)
    delta0[0] = 1.0
    _, ginv = circulant_effective(delta0)
    assert spectral_norm(ginv.e_minus_plus - np.eye(4)) <= 1e-10


def test_circulant_shift_kernel_matches_fft():
    delta1 = np.zeros(4, complex)
    delta1[1] = 1.0
    _, ginv = circulant_effective(delta1)
    oracle = np.fft.fft(delta1)
    assert spectral_norm(ginv.e_minus_plus - np.diag(oracle)) <= 1e-10


def test_circulant_random_kernel():
    rng = _rng(77)
    k = _random_complex(rng, 8)
    system, ginv = circulant_effective(k)
    oracle = np.fft.fft(k)
    scale = max(1.0, float(np.abs(oracle).max()))
    assert spectral_norm(ginv.e_minus_plus - np.diag(oracle)) <= 1e-10 * scale
    # invertibility of the convolution iff every transform entry is nonzero
    sigma_min = np.linalg.svd(system.p, compute_uv=False)[-1]
    assert (sigma_min > 1e-10) == bool(np.all(np.abs(oracle) > 1e-10))


def test_circulant_singular_kernel_detected():
    k = np.array([1.0, -1.0, 0.0, 0.0], dtype=complex)  # transform vanishes at mode 0
    system, ginv = circulant_effective(k)
    assert abs(np.diag(ginv.e_minus_plus)[0]) <= 1e-12
    assert np.linalg.svd(system.p, compute_uv=False)[-1] <= 1e-12


def test_dft_convention():
    f = dft_matrix(4)
    assert f[1, 1] == pytest.approx(np.exp(-2j * np.pi / 4))


def test_trace_difference_rate():
    # differentiable two-by-two block family: the central-difference residual of
    # tr B11^{-1} dB11 - tr A22^{-1} dA22 + tr dA B decays at second order
    rng = _rng(55)
    a0 = _random_complex(rng, (6, 6)) + 4.0 * np.eye(6)
    a1 = _random_complex(rng, (6, 6))
    a2 = _random_complex(rng, (6, 6))

    def family(s):
        return a0 + s * a1 + s * s * a2

    def residual(step):
        plus, minus, base = family(step), family(-step), family(0.0)
        d_a = (plus - minus) / (2.0 * step)
        b = np.linalg.inv(base)
        b_plus, b_minus = np.linalg.inv(plus), np.linalg.inv(minus)
        d_b11 = (b_plus[:3, :3] - b_minus[:3, :3]) / (2.0 * step)
        term1 = np.trace(np.linalg.inv(b[:3, :3]) @ d_b11)
        term2 = np.trace(np.linalg.solve(base[3:, 3:], d_a[3:, 3:]))
        term3 = np.trace(d_a @ b)
        return abs(term1 - term2 + term3)

    r1, r2 = residual(1e-2), residual(5e-3)
    rate = np.log2(r1 / r2)
    assert rate == pytest.approx(2.0, abs=0.3)


def _references(tree: ast.AST):
    """Every name, attribute and import in ``tree``, attributes of a plain
    name also as ``name.attr``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
            if isinstance(node.value, ast.Name):
                yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
            yield from (alias.name for alias in node.names)


def test_only_core_knows_the_block_layout():
    # the other modules fill and split bordered systems and their inverses through
    # core's BorderedSystem and GrushinInverse, and take traces off a bordered inverse
    # through core.effective_traces, never as raw arrays
    forbidden = {"np.block", "numpy.block"}
    for path in sorted(Path(grushinlab.__file__).parent.glob("*.py")):
        if path.name != "core.py":
            found = forbidden & set(_references(ast.parse(path.read_text())))
            assert not found, f"{path.name} references {sorted(found)}"


def _svd_sites(tree: ast.AST, where: str = "<module>"):
    """The enclosing function of every ``np.linalg.svd`` reference or import in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _svd_sites(node, node.name)
            continue
        if isinstance(node, ast.Attribute) and node.attr == "svd" and isinstance(node.value, ast.Attribute):
            yield where
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            yield from (where for alias in node.names if alias.name == "svd")
        yield from _svd_sites(node, where)


def test_only_linops_calls_lapack_svd():
    # every decomposition goes through linops, which turns LAPACK's failure into
    # ConvergenceFailure; the mp-check oracle stays independent of the library
    sites = {
        (path.name, where)
        for path in sorted(Path(grushinlab.__file__).parent.glob("*.py")) if path.name != "linops.py"
        for where in _svd_sites(ast.parse(path.read_text()))
    }
    assert sites == {("cli.py", "_svd_pseudoinverse")}


def _call_sites(tree: ast.AST, name: str, where: str = "<module>"):
    """The enclosing function of every call of ``name``, bare or as an attribute, in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _call_sites(node, name, node.name)
            continue
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield where
        yield from _call_sites(node, name, where)


def test_refinement_stays_in_single_system_solves():
    # node stacks and pseudospectrum cells take an unrefined certified LU inverse;
    # a refinement step stays where one system is solved and its condition or residual returned
    sites = set()
    for path in sorted(Path(grushinlab.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "lu_inverse" not in text, path.name
        sites |= {(path.name, where) for where in _call_sites(ast.parse(text), "refine")}
    assert sites == {("linops.py", "refined_solve"), ("core.py", "schur_check")}


def test_every_certified_inverse_is_taken_in_one_of_four_places():
    # one LU inverse per node: the bordered node stacks of the count and the loop through
    # core.effective_traces, P's through _log_derivative_trace, the pseudospectrum cell's
    # through _threshold_inverse; traces neither inverts a bordered stack nor catches IllPosed
    sites = set()
    for path in sorted(Path(grushinlab.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "invert_nodes" not in text, path.name
        sites |= {(path.name, where) for where in _call_sites(ast.parse(text), "certified_inverse")}
    assert sites == {("core.py", "schur_check"), ("core.py", "effective_traces"),
                     ("traces.py", "_log_derivative_trace"), ("pseudospectra.py", "_threshold_inverse")}
    assert "IllPosed" not in set(_references(ast.parse((Path(grushinlab.__file__).parent / "traces.py").read_text())))


@pytest.mark.parametrize("rminus, rplus, corner", [
    (np.eye(2), np.eye(2), np.array([[3.0]])),
    (np.ones((2, 2)), np.ones((2, 2)), np.zeros((1, 1))),
], ids=["identity-borders", "zero-corner"])
def test_a_block_that_misses_its_slot_is_not_broadcast(rminus, rplus, corner):
    # built directly, not through assemble, which checks every shape itself
    with pytest.raises(DimensionMismatch) as info:
        invert_system(BorderedSystem(np.eye(2), rminus, rplus, corner))
    assert str(info.value) == "block of shape (1, 1) in a slot of shape (2, 2)"
