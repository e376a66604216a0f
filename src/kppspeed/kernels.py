"""The Crank-Nicolson period sweep and LAPACK kernels for its 1D systems.

The inner loop of the package is the one-period Crank-Nicolson sweep
`cn_period`, run inside power iterations inside ray searches.  A level is the
one matrix L_m = I - dt/2 E_m, since the right-hand matrix I + dt/2 E_m is
2I - L_m, and the same loop runs the cyclic tridiagonal systems of a 1D
periodic cell and the sparse systems of a 2D cell.  `cn_levels` makes the 1D
levels of the period map and of the Cauchy simulator: one LAPACK ``dgttrf``
call factors the L_m of all levels as one block-diagonal system (Anderson et
al., LAPACK Users' Guide, 3rd ed., 1999), and nonzero periodic corners enter
through a Sherman-Morrison correction, so that one solve is one ``dgttrs``
call, one dot product and one axpy.  A symmetric positive definite stack
without corners (the simulator's Dirichlet systems without drift) is
factored with ``dpttrf`` instead, and its solves take ``dpttrs``, about half
the time of ``dgttrs``.  Products with L_m are applied with BLAS ``dgbmv``.

Band convention for an n x n cyclic tridiagonal matrix M, the wrap-around
form of the stencil terms (`operators.CoefficientSamples.stencil`):
  M[i, i] = d[i],  M[i, i-1 mod n] = dl[i],  M[i, i+1 mod n] = du[i],
so the corners are M[0, n-1] = dl[0] and M[n-1, 0] = du[n-1], 0 if not cyclic.

Non-finite bands raise ValueError and singular systems raise LinAlgError.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, dpttrf, dpttrs

__all__ = ["CyclicFactor", "band_storage", "cyclic_matvec", "cn_levels", "cn_period",
           "tridiag_solve"]


def _require_finite(what: str, *arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError(f"{what} must not contain infs or NaNs")


def band_storage(dl, d, du) -> np.ndarray:
    """LAPACK band storage (..., 3, n) of cyclic bands (..., n), stacked over
    leading axes; each (3, n) matrix is Fortran-ordered, as dgbmv takes it.
    The corners go to the two slots that dgbmv never reads: M[n-1, 0] = du[-1]
    to ab[0, 0] and M[0, n-1] = dl[0] to ab[2, n-1]."""
    ab = np.empty(d.shape + (3,))
    ab[..., 0, 0] = du[..., -1]
    ab[..., 1:, 0] = du[..., :-1]
    ab[..., 1] = d
    ab[..., :-1, 2] = dl[..., 1:]
    ab[..., -1, 2] = dl[..., 0]
    return np.swapaxes(ab, -1, -2)


def cyclic_matvec(ab, v, trans: str = "N") -> np.ndarray:
    """M @ v (trans='T': M.T @ v) for the band storage ``ab`` of M."""
    n = v.shape[0]
    out = dgbmv(n, n, 1, 1, 1.0, ab, v, trans=int(trans == "T"))
    # the corners M[0, n-1] and M[n-1, 0], and those of M.T
    c0, c1 = (ab[0, 0], ab[2, -1]) if trans == "T" else (ab[2, -1], ab[0, 0])
    out[0] += c0 * v[-1]
    out[-1] += c1 * v[0]
    return out


class CyclicFactor:
    """Factors of a stack of cyclic tridiagonal matrices M_l, bands
    (n_levels, n) or one matrix as a stack of one, for solves with M_l or
    M_l^T; the corners are c0 = M[0, n-1] = dl[:, 0] and c1 = M[n-1, 0] = du[:, -1].

    Sherman-Morrison: M = T + u v^T with u = gamma e_0 + c1 e_{n-1} and
    v = e_0 + (c0/gamma) e_{n-1}, where T is tridiagonal with d[0] - gamma and
    d[n-1] - c0 c1/gamma on its diagonal.  Then
    M^{-1} b = y - (v.y) z with y = T^{-1} b and z = T^{-1} u / (1 + v.T^{-1} u),
    and M^{-T} b is the same with T^T and u, v swapped.  One dgttrf factors
    the T of all levels as one block-diagonal system whose zero couplings no
    row interchange crosses, so each level's factors, pivots included, are
    bit for bit those of a dgttrf on it alone; one dgttrs on the system gives
    the z of all levels, on the first solve in each orientation.  Without
    corners M = T; a symmetric stack (dl[:, 1:] == du[:, :-1]) that dpttrf
    finds positive definite is factored as L D L^T and solved by dpttrs in
    either orientation.  Cyclic stacks keep dgttrf even when symmetric, so
    that the eigen routes, whose periodic matrices all have corners, keep
    their results bit for bit: the other factorization moves their roundoff
    (by 7e-12 in the c* of the simulate-validate scenario, through k_0).
    """

    def __init__(self, dl, d, du):
        bands = np.array((dl, d, du), dtype=float).reshape(3, -1, np.shape(d)[-1])
        dl, d, du = bands
        m, n = self._shape = d.shape
        # floats, not arrays: on so few levels numpy calls cost more than the arithmetic
        c0, c1 = dl[:, 0].tolist(), du[:, -1].tolist()
        dl[:, 0] = du[:, -1] = 0.0  # in the stack, the couplings between levels
        self._cyclic = any(c0) or any(c1)
        if self._cyclic:
            gamma = [-x if x != 0.0 else -1.0 for x in d[:, 0].tolist()]
            d[:, 0] -= gamma
            d[:, -1] -= [a * b / g for a, b, g in zip(c0, c1, gamma)]
            # orientation -> (u, v) as their entries at indices 0 and n-1
            one, ratio = [1.0] * m, [a / g for a, g in zip(c0, gamma)]
            self._uv = {"N": ((gamma, c1), (one, ratio)), "T": ((one, ratio), (gamma, c1))}
        # a non-finite d[0] or corner leaves d[0] or d[-1] of its level non-finite
        _require_finite("cyclic tridiagonal bands", bands)
        dl, d, du = dl.ravel()[1:], d.ravel(), du.ravel()[:-1]
        self._ldl, self._z = False, {}
        if not self._cyclic and (dl == du).all():
            *self._stack, info = dpttrf(d, du)
            self._ldl = info == 0  # info > 0: not positive definite, factor by dgttrf
        if not self._ldl:
            *self._stack, info = dgttrf(dl, d, du)
            if info != 0:
                raise LinAlgError("singular matrix")
        self._levels = [self._stack]  # a stack of one is its level
        if m > 1:  # row l of each stack array, padded to (m, n), cut to n, n - 1 or n - 2
            rows = [np.append(a, np.zeros(m * n - a.size, a.dtype)).reshape(m, n)[
                :, :a.size - (m - 1) * n] for a in self._stack]
            if not self._ldl:  # dgttrf's pivots count rows of the stack
                rows[4] = rows[4] - np.arange(0, m * n, n, dtype=rows[4].dtype)[:, None]
            self._levels = list(zip(*rows))

    def _tridiag(self, b, trans: str, factors) -> np.ndarray:
        y, info = dpttrs(*factors, b) if self._ldl else dgttrs(*factors, b, trans)
        if info != 0:
            raise ValueError(f"illegal argument {-info} to the tridiagonal solve")
        return y

    def solve(self, b, trans: str = "N", level: int = 0) -> np.ndarray:
        """M_l^{-1} b (trans='T': M_l^{-T} b) for the level l of the stack."""
        y = self._tridiag(b, trans, self._levels[level])
        if self._cyclic:
            if trans not in self._z:  # (v0, v1, z) of every level in this orientation
                (u0, u1), (v0, v1) = self._uv[trans]
                u = np.zeros(self._shape)
                u[:, 0], u[:, -1] = u0, u1
                z = self._tridiag(u.ravel(), trans, self._stack).reshape(self._shape)
                denom = [1.0 + p * z0 + q * z1 for p, q, z0, z1 in
                         zip(v0, v1, z[:, 0].tolist(), z[:, -1].tolist())]
                if not all(0.0 < abs(x) < np.inf for x in denom):
                    raise LinAlgError("singular matrix")
                self._z[trans] = list(zip(v0, v1, z / np.array(denom)[:, None]))
            v0, v1, z = self._z[trans][level]
            y -= (v0 * y.item(0) + v1 * y.item(-1)) * z
        return y


def cn_levels(dl, d, du, half: float):
    """Crank-Nicolson levels of the cyclic tridiagonal matrices E whose
    bands (n_levels, n) are stacked over levels: the solves with
    L = I - half E and the products with L, one per level, as `cn_period`
    takes them.  All levels are factored in one call."""
    bands = (-half * dl, 1.0 - half * d, -half * du)
    factor = CyclicFactor(*bands)
    products = [partial(cyclic_matvec, ab) for ab in band_storage(*bands)]
    return [partial(factor.solve, level=lev) for lev in range(len(products))], products


def cn_period(solves, products, v0, transpose: bool = False) -> np.ndarray:
    """Run one Crank-Nicolson period; returns all time levels (n_t+1, n).

    ``solves[m](b, trans)`` solves with L_m = I - dt/2 E_m (trans='T': with
    L_m^T), as a bound scipy SuperLU ``.solve`` or a `cn_levels` solve does,
    and ``products[m](v, trans)`` multiplies by it, for m = 0..n_t.  The
    right-hand matrix 2I - L_m is never formed; the forward sweep carries
    y_m = L_m v_m and makes one product per period:

      forward:     y_0 = L_0 v_0,  y_{m+1} = 2 v_m - y_m,
                   v_{m+1} = L_{m+1}^{-1} y_{m+1},            m = 0..n_t-1
      transposed:  z = L_{m+1}^{-T} w_{m+1},  w_m = 2 z - L_m^T z,
                                                              m = n_t-1..0
    """
    v0 = np.asarray(v0, dtype=float)
    n_t = len(solves) - 1
    levels = np.empty((n_t + 1, v0.shape[0]))
    if not transpose:
        levels[0] = v = v0
        y = products[0](v0)
        for m in range(1, n_t + 1):
            np.subtract(v + v, y, out=y)
            levels[m] = v = solves[m](y)
    else:
        levels[n_t] = v0
        for m in range(n_t - 1, -1, -1):
            z = solves[m + 1](levels[m + 1], "T")
            np.subtract(z + z, products[m](z, "T"), out=levels[m])
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

