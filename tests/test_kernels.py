from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs
from scipy.sparse.linalg import splu

from kppspeed.kernels import (
    CyclicFactor,
    band_storage,
    cn_levels,
    cn_period,
    cyclic_matvec,
    tridiag_solve,
)
from kppspeed.operators import _csr_matvec


def random_cyclic(rng, n):
    """Bands of a random nonsymmetric, diagonally dominant cyclic tridiagonal matrix."""
    dl, du = rng.uniform(-1.0, 1.0, (2, n))
    d = rng.uniform(2.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
    dl[0] = du[-1] = 0.0
    c0, c1 = rng.uniform(-1.0, 1.0, 2)
    return dl, d, du, float(c0), float(c1)


def dense(dl, d, du, c0=0.0, c1=0.0):
    n = d.size
    M = np.diag(d) + np.diag(dl[1:], -1) + np.diag(du[:-1], 1)
    M[0, n - 1] += c0
    M[n - 1, 0] += c1
    return M


@pytest.mark.parametrize("n", [3, 8, 65])
@pytest.mark.parametrize("trans", ["N", "T"])
def test_cyclic_factor_solve_matches_dense(n, trans):
    rng = np.random.default_rng(n)
    for i in range(6):
        bands = random_cyclic(rng, n)
        if i == 5:  # zero corners: tridiagonal, solved without Sherman-Morrison
            bands = bands[:3] + (0.0, 0.0)
        M = dense(*bands)
        b = rng.standard_normal(n)
        b_in = b.copy()
        x = CyclicFactor(*bands).solve(b, trans=trans)
        ref = np.linalg.solve(M if trans == "N" else M.T, b)
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(b, b_in)


def test_cyclic_factor_with_zero_leading_diagonal():
    rng = np.random.default_rng(1)
    dl, d, du, c0, c1 = random_cyclic(rng, 8)
    d[0] = 0.0
    M = dense(dl, d, du, c0, c1)
    b = rng.standard_normal(8)
    np.testing.assert_allclose(CyclicFactor(dl, d, du, c0, c1).solve(b),
                               np.linalg.solve(M, b), rtol=1e-12, atol=1e-12)


def random_symmetric(rng, n, signs=(1.0,)):
    """Bands of a random symmetric, diagonally dominant tridiagonal matrix
    whose diagonal entries have random signs from ``signs``."""
    e = rng.uniform(-1.0, 1.0, n - 1)
    d = rng.uniform(2.5, 4.0, n) * rng.choice(signs, n)
    return np.append(0.0, e), d, np.append(e, 0.0)


def dgttrf_solve(dl, d, du, b, trans):
    *lu, info = dgttrf(dl[1:], d, du[:-1])
    assert info == 0
    return dgttrs(*lu, b, trans=trans)[0]


@pytest.mark.parametrize("n", [3, 8, 65])
@pytest.mark.parametrize("trans", ["N", "T"])
def test_symmetric_positive_definite_bands_solve_by_dpttrs(n, trans):
    rng = np.random.default_rng(20 + n)
    for _ in range(4):
        bands = random_symmetric(rng, n)
        factor = CyclicFactor(*bands, 0.0, 0.0)
        assert factor._ldl  # the L D L^T path ran
        b = rng.standard_normal(n)
        x = factor.solve(b, trans=trans)
        M = dense(*bands)  # symmetric: M^T = M
        np.testing.assert_allclose(x, np.linalg.solve(M, b), rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(x, dgttrf_solve(*bands, b, trans), rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("trans", ["N", "T"])
def test_symmetric_indefinite_bands_fall_back_to_dgttrf(trans):
    rng = np.random.default_rng(31)
    bands = random_symmetric(rng, 40, signs=(-1.0, 1.0))
    assert np.any(bands[1] < 0)
    factor = CyclicFactor(*bands, 0.0, 0.0)
    assert not factor._ldl  # dpttrf found a non-positive pivot
    b = rng.standard_normal(40)
    x = factor.solve(b, trans=trans)
    np.testing.assert_allclose(x, np.linalg.solve(dense(*bands), b), rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(x, dgttrf_solve(*bands, b, trans))


@pytest.mark.parametrize("trans", ["N", "T"])
def test_symmetric_cyclic_bands_keep_dgttrf(trans):
    # the reference is the Sherman-Morrison solve of the class docstring,
    # written out with dgttrf and dgttrs, so the results are equal bit for bit
    rng = np.random.default_rng(32)
    dl, d, du = random_symmetric(rng, 12)
    c = float(rng.uniform(-1.0, 1.0))
    b = rng.standard_normal(12)
    x = CyclicFactor(dl, d, du, c, c).solve(b, trans=trans)
    gamma = -d[0]
    t_diag = d.copy()
    t_diag[0] -= gamma
    t_diag[-1] -= c * c / gamma
    u = np.zeros(12)
    u[0], u[-1] = (gamma, c) if trans == "N" else (1.0, c / gamma)
    v0, v1 = (1.0, c / gamma) if trans == "N" else (gamma, c)
    z = dgttrf_solve(dl, t_diag, du, u, trans)
    z = z / (1.0 + v0 * z[0] + v1 * z[-1])
    y = dgttrf_solve(dl, t_diag, du, b, trans)
    y -= (v0 * y[0] + v1 * y[-1]) * z
    np.testing.assert_array_equal(x, y)
    np.testing.assert_allclose(x, np.linalg.solve(dense(dl, d, du, c, c), b),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("trans", ["N", "T"])
def test_cyclic_matvec_matches_dense(trans):
    rng = np.random.default_rng(2)
    dl, d, du, c0, c1 = random_cyclic(rng, 9)
    M = dense(dl, d, du, c0, c1)
    v = rng.standard_normal(9)
    out = cyclic_matvec(band_storage(dl, d, du), c0, c1, v, trans=trans)
    np.testing.assert_allclose(out, (M if trans == "N" else M.T) @ v, rtol=1e-14, atol=1e-14)


def stacked(bands):
    """Bands (n_levels, n) and corners (n_levels,) of a list of (dl, d, du, c0, c1)."""
    return tuple(np.array([b[i] for b in bands]) for i in range(5))


def check_cn_period_against_dense(solves, products, L, v0):
    # the right-hand matrix of a level is 2I - L_m
    n_t = len(L) - 1
    eye = np.eye(v0.size)
    ref = v0
    for m in range(n_t):
        ref = np.linalg.solve(L[m + 1], (2 * eye - L[m]) @ ref)
    levels = cn_period(solves, products, v0)
    assert levels.shape == (n_t + 1, v0.size)
    np.testing.assert_allclose(levels[n_t], ref, rtol=1e-12, atol=1e-12)
    ref = v0
    for m in range(n_t - 1, -1, -1):
        ref = (2 * eye - L[m]).T @ np.linalg.solve(L[m + 1].T, ref)
    np.testing.assert_allclose(cn_period(solves, products, v0, transpose=True)[0], ref,
                               rtol=1e-12, atol=1e-12)


def dirichlet(bands):
    """The bands without corners and with zero boundary rows and boundary
    couplings, as the simulator makes them, and a unit diagonal at the ends."""
    dl, d, du = (np.array(b) for b in bands[:3])
    dl[1] = dl[-1] = du[0] = du[-2] = 0.0
    d[0] = d[-1] = 1.0
    return dl, d, du, 0.0, 0.0


def test_cn_period_matches_dense_stepping():
    # one stack of levels L_m, cyclic, Dirichlet and symmetric positive
    # definite (solved by dpttrs), solved and multiplied as cn_levels makes
    # them, against dense stepping with L^{-1} (2I - L)
    rng = np.random.default_rng(3)
    n, n_t = 7, 4
    cyclic = [random_cyclic(rng, n) for _ in range(n_t + 1)]
    spd = [random_symmetric(rng, n) + (0.0, 0.0) for _ in range(n_t + 1)]
    for bands in (cyclic, [dirichlet(b) for b in cyclic], spd):
        dl, d, du, c0, c1 = stacked(bands)
        # cn_levels of E = (I - L)/half gives back L, up to roundoff
        half = 0.125
        solves, products = cn_levels(-dl / half, (1.0 - d) / half, -du / half,
                                     -c0 / half, -c1 / half, half)
        L = [dense(*b) for b in bands]
        check_cn_period_against_dense(solves, products, L, rng.standard_normal(n))


@pytest.mark.parametrize("trans", ["N", "T"])
def test_cn_levels_match_dense(trans):
    rng = np.random.default_rng(8)
    stack = [random_cyclic(rng, 9) for _ in range(3)]
    half = 0.05
    solves, products = cn_levels(*stacked(stack), half)
    v = rng.standard_normal(9)
    eye = np.eye(9)
    for bands, solve, product in zip(stack, solves, products):
        E = dense(*bands) if trans == "N" else dense(*bands).T
        np.testing.assert_allclose(product(v, trans), (eye - half * E) @ v,
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(solve(v, trans), np.linalg.solve(eye - half * E, v),
                                   rtol=1e-12, atol=1e-12)


def test_stacked_factors_equal_per_level_calls():
    # one dgttrf (dpttrf) on the block-diagonal stack gives each level the
    # factors, pivots included, and the solves of a call on that level alone
    rng = np.random.default_rng(10)
    n = 12
    levels = [random_cyclic(rng, n)[:3] for _ in range(3)]
    # an indefinite level with small diagonal entries pivots
    dl, d, du = levels[1]
    levels[1] = (dl, 0.01 * d, du)
    b = rng.standard_normal(n)
    factor = CyclicFactor(*stacked([lev + (0.0, 0.0) for lev in levels]))
    assert not factor._ldl
    pivots = 0
    for lev, (dl, d, du) in enumerate(levels):
        *own, info = dgttrf(dl[1:], d, du[:-1])
        assert info == 0
        pivots += np.sum(own[4] != np.arange(1, n + 1))
        for mine, theirs in zip(factor._levels[lev], own):
            assert np.array_equal(mine, theirs)
        for trans in ("N", "T"):
            assert np.array_equal(factor.solve(b, trans, lev), dgttrs(*own, b, trans=trans)[0])
    assert pivots > 0
    spd = [random_symmetric(rng, n) for _ in range(3)]
    factor = CyclicFactor(*stacked([lev + (0.0, 0.0) for lev in spd]))
    assert factor._ldl
    for lev, (_, d, du) in enumerate(spd):
        *own, info = dpttrf(d, du[:-1])
        assert info == 0
        for mine, theirs in zip(factor._levels[lev], own):
            assert np.array_equal(mine, theirs)
        assert np.array_equal(factor.solve(b, "N", lev), dpttrs(*own, b)[0])
    # cyclic levels: the Sherman-Morrison vectors of one stacked dgttrs give
    # the solves of a factor of that level alone
    cyclic = [random_cyclic(rng, n) for _ in range(3)]
    factor = CyclicFactor(*stacked(cyclic))
    for lev, bands in enumerate(cyclic):
        for trans in ("N", "T"):
            assert np.array_equal(factor.solve(b, trans, lev),
                                  CyclicFactor(*bands).solve(b, trans))


def test_cn_period_runs_sparse_lu_and_csr_products():
    rng = np.random.default_rng(7)
    n, n_t = 12, 4

    def random_sparse():
        M = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.3)
        return M + np.diag(rng.uniform(3.0, 4.0, n) * rng.choice([-1.0, 1.0], n))

    L = [random_sparse() for _ in range(n_t + 1)]
    check_cn_period_against_dense(
        [splu(sp.csc_array(M)).solve for M in L],
        [partial(_csr_matvec, sp.csr_array(M)) for M in L], L, rng.standard_normal(n))


def test_tridiag_solve_matches_dense():
    rng = np.random.default_rng(4)
    dl, d, du, _, _ = random_cyclic(rng, 40)
    b = rng.standard_normal(40)
    np.testing.assert_allclose(tridiag_solve(dl, d, du, b),
                               np.linalg.solve(dense(dl, d, du), b), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bad", ["dl", "d", "du", "c0", "c1"])
def test_non_finite_bands_raise(bad):
    rng = np.random.default_rng(5)
    dl, d, du, c0, c1 = random_cyclic(rng, 8)
    if bad == "c0":
        c0 = np.inf
    elif bad == "c1":
        c1 = np.nan
    else:
        {"dl": dl, "d": d, "du": du}[bad][3] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        CyclicFactor(dl, d, du, c0, c1)
    if bad in ("dl", "d", "du"):
        with pytest.raises(ValueError, match="infs or NaNs"):
            tridiag_solve(dl, d, du, np.ones(8))


def test_non_finite_right_hand_side_and_levels_raise():
    rng = np.random.default_rng(6)
    dl, d, du, c0, c1 = random_cyclic(rng, 8)
    b = np.ones(8)
    b[2] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        tridiag_solve(dl, d, du, b)
    solves, products = cn_levels(*stacked([(dl, d, du, c0, c1)] * 3), 0.1)
    with pytest.raises(ValueError, match="infs or NaNs"):
        cn_period(solves, products, b)


def test_singular_matrices_raise():
    # rows 0 and 2 of [[1, 0, 1], [0, 1, 0], [1, 0, 1]] are equal: the
    # tridiagonal part factors, and the corner correction is singular
    zeros = np.zeros(3)
    with pytest.raises(LinAlgError):
        CyclicFactor(zeros, np.ones(3), zeros, 1.0, 1.0).solve(np.ones(3))
    # a zero row in the tridiagonal part
    n = 6
    ones = np.ones(n)
    d = 2.0 * ones
    d[3] = 0.0
    zeros = np.zeros(n)
    with pytest.raises(LinAlgError):
        CyclicFactor(zeros, d, zeros, 0.5, 0.5)
    with pytest.raises(LinAlgError):
        tridiag_solve(zeros, d, zeros, ones)
