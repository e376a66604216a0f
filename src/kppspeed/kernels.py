"""The Crank-Nicolson period sweep and LAPACK kernels for its 1D systems.

The inner loop of the package is the one-period Crank-Nicolson sweep
`cn_period`, run inside power iterations inside ray searches.  The sweep
takes any left-hand factor and right-hand product, so the same loop runs the
cyclic tridiagonal systems of a 1D periodic cell and the sparse systems of a
2D cell.  `cn_levels` makes the 1D levels of the period map and of the
Cauchy simulator: each left-hand matrix is factored once with LAPACK
``dgttrf`` (Anderson et al., LAPACK Users' Guide, 3rd ed., 1999) and nonzero
periodic corners enter through a Sherman-Morrison correction, so that one
solve is one ``dgttrs`` call, one dot product and one axpy.  A symmetric
positive definite matrix without corners (the simulator's Dirichlet systems
without drift) is factored with ``dpttrf`` instead, and its solves take
``dpttrs``, about half the time of ``dgttrs``.  Right-hand sides are applied
with BLAS ``dgbmv``.

Band convention for an n x n cyclic tridiagonal matrix M:
  M[i, i] = d[i],  M[i, i-1] = dl[i] (dl[0] unused),  M[i, i+1] = du[i]
  (du[n-1] unused),  M[0, n-1] = c0,  M[n-1, 0] = c1.

Non-finite bands raise ValueError and singular systems raise LinAlgError.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, dpttrf, dpttrs

__all__ = ["CyclicFactor", "band_storage", "cyclic_matvec", "band_products",
           "cn_levels", "cn_period", "tridiag_solve"]


def _require_finite(what: str, *arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError(f"{what} must not contain infs or NaNs")


def band_storage(dl, d, du) -> np.ndarray:
    """LAPACK band storage (..., 3, n) of bands (..., n), stacked over leading
    axes; each (3, n) matrix is Fortran-ordered, as dgbmv takes it."""
    ab = np.zeros(d.shape + (3,))
    ab[..., 1:, 0] = du[..., :-1]
    ab[..., 1] = d
    ab[..., :-1, 2] = dl[..., 1:]
    return np.swapaxes(ab, -1, -2)


def cyclic_matvec(ab, c0: float, c1: float, v, trans: str = "N") -> np.ndarray:
    """M @ v (trans='T': M.T @ v) for band storage ``ab`` and corners c0, c1."""
    n = v.shape[0]
    out = dgbmv(n, n, 1, 1, 1.0, ab, v, trans=int(trans == "T"))
    if trans == "T":
        c0, c1 = c1, c0
    out[0] += c0 * v[-1]
    out[-1] += c1 * v[0]
    return out


class CyclicFactor:
    """Factors of a cyclic tridiagonal matrix M for solves with M or M^T.

    Sherman-Morrison: M = T + u v^T with u = gamma e_0 + c1 e_{n-1} and
    v = e_0 + (c0/gamma) e_{n-1}, where T is tridiagonal with d[0] - gamma and
    d[n-1] - c0 c1/gamma on its diagonal.  T is factored once by dgttrf; then
    M^{-1} b = y - (v.y) z with y = T^{-1} b and z = T^{-1} u / (1 + v.T^{-1} u),
    and M^{-T} b is the same with T^T and u, v swapped.  The correction vector
    z of each orientation is computed on its first solve.  With zero corners
    M = T is factored as it is and a solve is one dgttrs; when T is moreover
    symmetric (dl[1:] == du[:-1]) and dpttrf finds it positive definite, it
    is factored as L D L^T by dpttrf and a solve in either orientation is one
    dpttrs.  Cyclic matrices keep dgttrf even when symmetric, so that the
    eigen routes, whose periodic matrices all have corners, keep their
    results bit for bit: the other factorization moves their roundoff (by
    7e-12 in the c* of the simulate-validate scenario, through k_0).
    """

    def __init__(self, dl, d, du, c0: float, c1: float):
        d = np.array(d, dtype=float)
        self._cyclic = c0 != 0.0 or c1 != 0.0
        if self._cyclic:
            gamma = -d[0] if d[0] != 0.0 else -1.0
            d[0] -= gamma
            d[-1] -= c0 * c1 / gamma
            # orientation -> (u, v) as their entries at indices 0 and n-1
            self._uv = {"N": ((gamma, c1), (1.0, c0 / gamma)),
                        "T": ((1.0, c0 / gamma), (gamma, c1))}
        # a non-finite d[0], c0 or c1 leaves d[0] or d[-1] non-finite
        _require_finite("cyclic tridiagonal bands", dl[1:], d, du[:-1])
        self._n = d.shape[0]
        self._z: dict[str, np.ndarray] = {}
        self._ldl = None
        if not self._cyclic and np.array_equal(dl[1:], du[:-1]):
            *ldl, info = dpttrf(d, du[:-1])
            if info == 0:  # info > 0: not positive definite, factor by dgttrf
                self._ldl = ldl
        if self._ldl is None:
            *self._lu, info = dgttrf(dl[1:], d, du[:-1])
            if info != 0:
                raise LinAlgError("singular matrix")

    def _tridiag(self, b, trans: str) -> np.ndarray:
        if self._ldl is not None:
            y, info = dpttrs(*self._ldl, b)
        else:
            y, info = dgttrs(*self._lu, b, trans=trans)
        if info != 0:
            raise ValueError(f"illegal argument {-info} to the tridiagonal solve")
        return y

    def _correction(self, trans: str) -> np.ndarray:
        (u0, u1), (v0, v1) = self._uv[trans]
        u = np.zeros(self._n)
        u[0], u[-1] = u0, u1
        z = self._tridiag(u, trans)
        denom = 1.0 + v0 * z[0] + v1 * z[-1]
        if denom == 0.0 or not np.isfinite(denom):
            raise LinAlgError("singular matrix")
        return z / denom

    def solve(self, b, trans: str = "N") -> np.ndarray:
        """M^{-1} b (trans='T': M^{-T} b)."""
        if not self._cyclic:
            return self._tridiag(b, trans)
        z = self._z.get(trans)
        if z is None:
            z = self._z[trans] = self._correction(trans)
        y = self._tridiag(b, trans)
        v0, v1 = self._uv[trans][1]
        y -= (v0 * y[0] + v1 * y[-1]) * z
        return y


def band_products(dl, d, du, c0, c1) -> list:
    """Products ``(v, trans)`` with the cyclic tridiagonal matrices whose
    bands (n_levels, n) and corners (n_levels,) are stacked over levels."""
    return [partial(cyclic_matvec, *args) for args in zip(
        band_storage(dl, d, du), c0.tolist(), c1.tolist())]


def cn_levels(dl, d, du, c0, c1, half: float):
    """Crank-Nicolson levels of the matrices E stacked as in `band_products`:
    the factors of I - half E and the products with I + half E, one per level,
    as `cn_period` takes them."""
    lhs = [CyclicFactor(*bands) for bands in zip(
        -half * dl, 1.0 - half * d, -half * du, (-half * c0).tolist(),
        (-half * c1).tolist())]
    return lhs, band_products(half * dl, 1.0 + half * d, half * du, half * c0, half * c1)


def cn_period(lhs, rhs, v0, transpose: bool = False) -> np.ndarray:
    """Run one Crank-Nicolson period; returns all time levels (n_t+1, n).

    ``lhs[m]`` is any factor of the left-hand matrix L_m of level m with
    ``.solve(b, trans)`` (a CyclicFactor, or a scipy SuperLU), and ``rhs[m]``
    any product ``(v, trans)`` with the right-hand matrix R_m (for example
    ``functools.partial(cyclic_matvec, ab, c0, c1)``), for m = 0..n_t
    (lhs[0] is not used).

      forward:     v_{m+1} = L_{m+1}^{-1} (R_m v_m),        m = 0..n_t-1
      transposed:  w_m     = R_m^T (L_{m+1}^{-T} w_{m+1}),  m = n_t-1..0
    """
    v0 = np.asarray(v0, dtype=float)
    n_t = len(lhs) - 1
    levels = np.empty((n_t + 1, v0.shape[0]))
    if not transpose:
        levels[0] = v0
        for m in range(n_t):
            levels[m + 1] = lhs[m + 1].solve(rhs[m](levels[m]))
    else:
        levels[n_t] = v0
        for m in range(n_t - 1, -1, -1):
            z = lhs[m + 1].solve(levels[m + 1], trans="T")
            levels[m] = rhs[m](z, "T")
    _require_finite("Crank-Nicolson levels", levels)
    return levels


def tridiag_solve(dl, d, du, b) -> np.ndarray:
    """Solve the (non-cyclic) tridiagonal system with bands (dl, d, du)."""
    _require_finite("tridiagonal system", dl[1:], d, du[:-1], b)
    *_, x, info = dgtsv(dl[1:], d, du[:-1], b)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dgtsv")
    return x

