"""Fourier-Galerkin (Hill) reference for the periodic principal eigenvalue.

For 1D coefficients that are trigonometric polynomials in (t, x), the
operator

    L_lam psi = d_t psi - (a psi_x)_x - (2 lam a - q) psi_x
                - (lam^2 a + lam a_x + mu - lam q) psi

acts on the Fourier modes exp(2 pi i (m t/T + j x/L)), |m| <= M, |j| <= J, as
a dense matrix: d_t and d_x are diagonal and each coefficient acts by
convolution (Deconinck & Kutz, J. Comput. Phys. 219, 2006).  The periodic
principal eigenvalue k_lam is the real eigenvalue of smallest real part; its
copies k_lam + 2 pi i m/T (the eigenfunction times exp(2 pi i m t/T)) are
excluded by keeping only eigenvalues with |Im| < pi/T.

Real coefficients make the matrix commute with conjugation composed with the
mode reversal (m, j) -> (-m, -j), so in the basis of cos/sin mode pairs it is
real.  The eigenvalues are computed in that basis, which makes a dense solve
about twice as fast as on the complex matrix.

Nothing here imports the program under test: the reference shares no code
with it, only the coefficients, which the benchmark writes both as
expressions for the program and as `Trig` polynomials for this module.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

__all__ = ["Trig", "HillError", "principal_k", "ray_speed"]

TIME_MODES = 6
SPACE_MODES = 12


class HillError(RuntimeError):
    pass


class Trig:
    """Real trigonometric polynomial sum c_mj exp(2 pi i (m t/T + j x/L))."""

    def __init__(self, coeffs=None, T: float = 1.0, L: float = 1.0):
        self.c = {k: complex(v) for k, v in (coeffs or {}).items() if v != 0}
        self.T, self.L = float(T), float(L)

    @classmethod
    def const(cls, value: float, T=1.0, L=1.0) -> "Trig":
        return cls({(0, 0): value}, T, L)

    @classmethod
    def cos(cls, m: int, j: int, phase: float = 0.0, T=1.0, L=1.0) -> "Trig":
        """cos(2 pi (m t/T + j x/L) + phase)."""
        if (m, j) == (0, 0):
            return cls.const(math.cos(phase), T, L)
        w = 0.5 * complex(math.cos(phase), math.sin(phase))
        return cls({(m, j): w, (-m, -j): w.conjugate()}, T, L)

    @classmethod
    def sin(cls, m: int, j: int, phase: float = 0.0, T=1.0, L=1.0) -> "Trig":
        return cls.cos(m, j, phase - 0.5 * math.pi, T, L)

    def _lift(self, other) -> "Trig":
        if isinstance(other, Trig):
            if (other.T, other.L) != (self.T, self.L):
                raise HillError("polynomials on different cells")
            return other
        return Trig.const(float(other), self.T, self.L)

    def __add__(self, other):
        other = self._lift(other)
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, 0) + v
        return Trig(out, self.T, self.L)

    __radd__ = __add__

    def __neg__(self):
        return Trig({k: -v for k, v in self.c.items()}, self.T, self.L)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        if not isinstance(other, Trig):
            return Trig({k: float(other) * v for k, v in self.c.items()}, self.T, self.L)
        other = self._lift(other)
        out: dict = {}
        for (m1, j1), v1 in self.c.items():
            for (m2, j2), v2 in other.c.items():
                k = (m1 + m2, j1 + j2)
                out[k] = out.get(k, 0) + v1 * v2
        return Trig(out, self.T, self.L)

    __rmul__ = __mul__

    def d_x(self) -> "Trig":
        kx = 2j * math.pi / self.L
        return Trig({(m, j): kx * j * v for (m, j), v in self.c.items()}, self.T, self.L)

    def time_mean(self) -> "Trig":
        return Trig({k: v for k, v in self.c.items() if k[0] == 0}, self.T, self.L)

    def mean(self) -> float:
        return self.c.get((0, 0), 0j).real

    @property
    def t_free(self) -> bool:
        return all(m == 0 for m, _ in self.c)


def _hill_matrix(a: Trig, q: Trig, mu: Trig, lam: float, M: int, J: int) -> np.ndarray:
    T, L = a.T, a.L
    m = np.repeat(np.arange(-M, M + 1), 2 * J + 1)
    j = np.tile(np.arange(-J, J + 1), 2 * M + 1)
    dm = m[:, None] - m[None, :]
    dj = j[:, None] - j[None, :]

    def conv(f: Trig) -> np.ndarray:
        C = np.zeros(dm.shape, dtype=complex)
        for (fm, fj), v in f.c.items():
            C[(dm == fm) & (dj == fj)] += v
        return C

    kx = 2.0 * math.pi / L
    c = lam * lam * a + lam * a.d_x() + mu - lam * q
    H = kx * kx * (j[:, None] * j[None, :]) * conv(a)
    H -= 1j * kx * j[None, :] * conv(2.0 * lam * a - q)
    H -= conv(c)
    H[np.diag_indices_from(H)] += 2j * math.pi / T * m
    return H


def _real_basis(n: int) -> np.ndarray:
    """Unitary U with U^H H U real whenever H commutes with conjugation
    composed with the index reversal p -> n-1-p."""
    U = np.zeros((n, n), dtype=complex)
    r = 1.0 / math.sqrt(2.0)
    half = n // 2
    for p in range(half):
        U[p, 2 * p] = U[n - 1 - p, 2 * p] = r
        U[p, 2 * p + 1] = 1j * r
        U[n - 1 - p, 2 * p + 1] = -1j * r
    U[half, n - 1] = 1.0
    return U


def principal_k(a: Trig, q: Trig, mu: Trig, lam: float, *,
                time_modes: int = TIME_MODES, space_modes: int = SPACE_MODES) -> float:
    """k_lam of the 1D operator, from the dense Hill matrix."""
    M = 0 if (a.t_free and q.t_free and mu.t_free) else time_modes
    H = _hill_matrix(a, q, mu, float(lam), M, space_modes)
    U = _real_basis(H.shape[0])
    R = U.conj().T @ H @ U
    if np.max(np.abs(R.imag)) > 1e-9 * max(1.0, np.max(np.abs(R.real))):
        raise HillError("Hill matrix is not real in the cos/sin basis")
    ev = np.linalg.eigvals(R.real)
    near_real = ev[np.abs(ev.imag) < math.pi / a.T]
    if near_real.size == 0:
        raise HillError("no eigenvalue near the real axis")
    k = near_real[np.argmin(near_real.real)]
    if abs(k.imag) > 1e-8 * max(1.0, abs(k.real)):
        raise HillError(f"principal eigenvalue is not real: {k}")
    return float(k.real)


def ray_speed(a: Trig, q: Trig, mu: Trig, e: int = 1, *, tol: float = 1e-7, **modes):
    """c*_e = min over s > 0 of -k(-s e)/s for e = +1 or -1.

    Returns (c_star, s_star).  The search starts from the
    homogenized minimizer sqrt(<mu>/<a>), walks to a bracket by factors of 2
    and finishes with Brent's method.
    """
    if e not in (1, -1):
        raise HillError("direction must be +1 or -1 in 1D")
    k0 = principal_k(a, q, mu, 0.0, **modes)
    if k0 >= 0:
        raise HillError(f"k_0 = {k0:.6g} >= 0: no spreading")
    def f(s):
        return -principal_k(a, q, mu, -s * e, **modes) / s

    s = math.sqrt(max(mu.mean(), 1e-3) / max(a.mean(), 1e-3))
    lo, mid, hi = 0.5 * s, s, 2.0 * s
    f_lo, f_mid, f_hi = f(lo), f(mid), f(hi)
    for _ in range(40):
        if f_mid <= f_lo and f_mid <= f_hi:
            break
        if f_lo < f_mid:
            lo, mid, hi, f_mid, f_hi = 0.5 * lo, lo, mid, f_lo, f_mid
            f_lo = f(lo)
        else:
            lo, mid, hi, f_lo, f_mid = mid, hi, 2.0 * hi, f_mid, f_hi
            f_hi = f(hi)
    else:
        raise HillError("no bracket for the ray minimum")
    res = minimize_scalar(f, bracket=(lo, mid, hi), method="brent", tol=tol)
    return float(res.fun), float(res.x)
