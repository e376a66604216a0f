"""Space-time periodic coefficient fields.

A field is (T, L_1..L_N)-periodic by construction: evaluation reduces the
arguments into [0, T) x C before handing them to the underlying entry, so
periodicity holds identically regardless of how the entry is defined.

Entries can be parsed expressions, plain Python callables ``f(t, x[, y])``,
constants or lattice tables.  Whatever the entry, a sample (``__call__`` or
``eval_entry``) is a float64 array with the broadcast shape of
``(t, *coords)``, shape ``()`` for scalar arguments; it may be a read-only
broadcast view, so a caller that writes into it copies it first.  The
discretization takes these samples and the derivatives it needs as centered
differences of them, whatever the representation; only ``gradient_drift``
differentiates an expression exactly.  A ``CoefficientSet`` bundles the
diffusion matrix A, the drift q and the growth rate mu over a shared
periodicity cell and checks uniform ellipticity of A by sampling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from .expressions import Expression, parse_expression

__all__ = [
    "CellGeometry",
    "PeriodicField",
    "CoefficientSet",
    "NonEllipticError",
    "FieldError",
    "spatial_average",
    "temporal_average",
    "gradient_drift",
    "ellipticity_bounds",
    "combine_scalar_fields",
]

FLAG_TOL = 1e-12


class FieldError(ValueError):
    pass


class NonEllipticError(FieldError):
    pass


@dataclass(frozen=True)
class CellGeometry:
    """Periodicity cell: time period and spatial cell lengths |L_1|..|L_N|."""

    period: float
    lengths: tuple[float, ...]

    def __post_init__(self):
        if self.period <= 0:
            raise FieldError("time period must be strictly positive")
        if len(self.lengths) < 1:
            raise FieldError("need at least one spatial dimension")
        if any(L <= 0 for L in self.lengths):
            raise FieldError("cell lengths must be strictly positive")
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))

    @property
    def dimension(self) -> int:
        return len(self.lengths)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.lengths))


# --- entries ----------------------------------------------------------------


class _Entry:
    expression: Expression | None = None

    def eval(self, t, coords):  # pragma: no cover - interface
        raise NotImplementedError


class _ConstantEntry(_Entry):
    def __init__(self, value: float):
        self.value = float(value)

    def eval(self, t, coords):
        # filled rather than broadcast: numpy sums a matrix product over a
        # stride-0 array in another order than over a filled one
        return np.full(np.broadcast(t, *coords).shape, self.value)


class _ExpressionEntry(_Entry):
    def __init__(self, expr: Expression):
        self.expression = expr

    def eval(self, t, coords):
        x = coords[0]
        y = coords[1] if len(coords) > 1 else 0.0
        return self.expression(t=t, x=x, y=y)


class _CallableEntry(_Entry):
    def __init__(self, fn: Callable):
        self.fn = fn

    def eval(self, t, coords):
        return self.fn(t, *coords)


class _TabulatedEntry(_Entry):
    """Values on a uniform periodic lattice, evaluated by separable linear
    interpolation (exact at the lattice points)."""

    def __init__(self, values: np.ndarray, geometry: CellGeometry):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 + geometry.dimension:
            raise FieldError("tabulated values need shape (n_t, n_1[, n_2])")
        self.geometry = geometry

    def eval(self, t, coords):
        spans = (self.geometry.period,) + self.geometry.lengths
        idx0, idx1, wts = [], [], []
        for p, n, span in zip((t,) + tuple(coords), self.values.shape, spans):
            f = np.asarray(p, dtype=float) / span * n
            base = np.floor(f)
            i0 = base.astype(np.int64) % n
            idx0.append(i0)
            idx1.append((i0 + 1) % n)
            wts.append(f - base)
        out = 0.0
        for corner in product((0, 1), repeat=len(wts)):
            sel = tuple(idx1[a] if c else idx0[a] for a, c in enumerate(corner))
            weight = 1.0
            for a, c in enumerate(corner):
                weight = weight * (wts[a] if c else 1.0 - wts[a])
            out = out + weight * self.values[sel]
        return out


def _as_entry(value, params=None, dimension=1) -> _Entry:
    if isinstance(value, _Entry):
        return value
    if isinstance(value, Expression):
        entry = _ExpressionEntry(value)
    elif isinstance(value, str):
        entry = _ExpressionEntry(parse_expression(value, params))
    elif callable(value):
        return _CallableEntry(value)
    else:
        return _ConstantEntry(float(value))
    if dimension < 2 and entry.expression.depends_on("y"):
        raise FieldError("variable 'y' is not available in a 1-dimensional cell")
    return entry


class PeriodicField:
    """A scalar, vector, or symmetric-matrix valued (T, L)-periodic field."""

    def __init__(self, kind: str, entries, geometry: CellGeometry,
                 time_independent: bool | None = None,
                 space_independent: bool | None = None,
                 check_flags: bool = True):
        if kind not in ("scalar", "vector", "matrix"):
            raise FieldError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.geometry = geometry
        self.entries = entries  # scalar: _Entry; vector: tuple; matrix: nested tuple
        derived_t, derived_x = self._derived_flags()
        self.time_independent = derived_t if time_independent is None else time_independent
        self.space_independent = derived_x if space_independent is None else space_independent
        if check_flags and (self.time_independent or self.space_independent):
            self._verify_flags()

    # -- construction helpers

    @classmethod
    def scalar(cls, value, geometry, params=None, **flags) -> "PeriodicField":
        return cls("scalar", _as_entry(value, params, geometry.dimension), geometry, **flags)

    @classmethod
    def tabulated(cls, values: np.ndarray, geometry, **flags) -> "PeriodicField":
        """Scalar field from lattice values of shape (n_1[, n_2]) for a
        time-independent field or (n_t, n_1[, n_2]) for a time-varying one."""
        values = np.asarray(values, dtype=float)
        if values.ndim == geometry.dimension:
            values = values[None, ...]
            flags.setdefault("time_independent", True)
        return cls("scalar", _TabulatedEntry(values, geometry), geometry,
                   check_flags=False, **flags)

    @classmethod
    def vector(cls, values: Sequence, geometry, params=None, **flags) -> "PeriodicField":
        if len(values) != geometry.dimension:
            raise FieldError("vector field needs one entry per spatial dimension")
        entries = tuple(_as_entry(v, params, geometry.dimension) for v in values)
        return cls("vector", entries, geometry, **flags)

    @classmethod
    def matrix(cls, values, geometry, params=None, **flags) -> "PeriodicField":
        """`values`: scalar-like (a -> a*I), sequence of diagonal entries,
        full nested sequence, or mapping of "aij" keys in which an entry whose
        transpose is not given mirrors to it."""
        N = geometry.dimension
        zero = _ConstantEntry(0.0)
        if isinstance(values, (str, Expression, float, int)) or callable(values):
            diag = _as_entry(values, params, N)
            rows = tuple(tuple(diag if i == j else zero for j in range(N)) for i in range(N))
        elif isinstance(values, Mapping):
            given: dict[tuple[int, int], _Entry] = {}
            for key, v in values.items():
                match = re.fullmatch(r"[aA]?([1-9])([1-9])", str(key))  # "11" or "a11"
                if match is None or max(int(d) for d in match.groups()) > N:
                    raise FieldError(f"matrix entry key {key!r} is not aij with "
                                     f"1 <= i, j <= {N}")
                given[(int(match[1]) - 1, int(match[2]) - 1)] = _as_entry(v, params, N)
            rows = tuple(tuple(given.get((i, j), given.get((j, i), zero)) for j in range(N))
                         for i in range(N))
        else:
            vals = list(values)
            if all(np.ndim(v) == 0 and not isinstance(v, (list, tuple)) for v in vals):
                # diagonal entries
                diag = [_as_entry(v, params, N) for v in vals]
                rows = tuple(tuple(diag[i] if i == j else zero for j in range(N)) for i in range(N))
            else:
                rows = tuple(tuple(_as_entry(vals[i][j], params, N) for j in range(N))
                             for i in range(N))
        return cls("matrix", rows, geometry, **flags)

    # -- evaluation

    def _entry(self, *index) -> _Entry:
        if self.kind == "scalar":
            return self.entries
        if self.kind == "vector":
            return self.entries[index[0]]
        return self.entries[index[0]][index[1]]

    def _flat_entries(self):
        if self.kind == "scalar":
            return [self.entries]
        if self.kind == "vector":
            return list(self.entries)
        return [self.entries[i][j] for i in range(len(self.entries)) for j in range(len(self.entries))]

    def _sample(self, entry: _Entry, t, coords) -> np.ndarray:
        if len(coords) != self.geometry.dimension:
            raise FieldError(
                f"expected {self.geometry.dimension} spatial coordinates, got {len(coords)}")
        g = self.geometry
        t = np.mod(t, g.period)
        coords = tuple(np.mod(c, L) for c, L in zip(coords, g.lengths))
        shape = np.broadcast(t, *coords).shape
        return np.broadcast_to(np.asarray(entry.eval(t, coords), dtype=float), shape)

    def __call__(self, t, *coords) -> np.ndarray:
        """Sample of a scalar field, under the contract of `eval_entry`."""
        if self.kind != "scalar":
            raise FieldError("only scalar fields are directly callable")
        return self._sample(self.entries, t, coords)

    def eval_entry(self, index, t, *coords) -> np.ndarray:
        """Sample of one entry (index: None for a scalar, d for a vector,
        (i, j) for a matrix) at (t, coords) reduced into the cell.

        Every kind of entry gives a float64 array with the broadcast shape of
        (t, *coords), shape () for scalar arguments.  It may be a read-only
        broadcast view.
        """
        index = index if isinstance(index, tuple) else (index,)
        return self._sample(self._entry(*index), t, coords)

    def component(self, *index) -> "PeriodicField":
        """Scalar view of one vector/matrix entry (shares flags)."""
        if self.kind == "scalar":
            return self
        return PeriodicField("scalar", self._entry(*index), self.geometry,
                             time_independent=self.time_independent,
                             space_independent=self.space_independent,
                             check_flags=False)

    def entry_expression(self, *index) -> Expression | None:
        return self._entry(*index).expression

    # -- flags

    def _derived_flags(self):
        entries = self._flat_entries()
        if any(isinstance(e, (_CallableEntry, _TabulatedEntry)) for e in entries):
            return False, False  # callables/tables: unknown unless declared
        t_indep = all(isinstance(e, _ConstantEntry) or not e.expression.depends_on("t")
                      for e in entries)
        x_indep = all(isinstance(e, _ConstantEntry)
                      or not (e.expression.depends_on("x") or e.expression.depends_on("y"))
                      for e in entries)
        return t_indep, x_indep

    def _sample_lattice(self, n=7):
        g = self.geometry
        ts = np.linspace(0, g.period, n, endpoint=False)
        axes = [np.linspace(0, L, n, endpoint=False) for L in g.lengths]
        grids = np.meshgrid(ts, *axes, indexing="ij")
        return grids[0], tuple(grids[1:])

    def _verify_flags(self):
        t, coords = self._sample_lattice()
        for entry in self._flat_entries():
            vals = self._sample(entry, t, coords)
            if self.time_independent:
                dev = np.max(np.abs(vals - vals[:1]))
                if dev > FLAG_TOL:
                    raise FieldError(f"field declared time-independent varies by {dev:.2e}")
            if self.space_independent:
                ref = vals[(slice(None),) + (0,) * (vals.ndim - 1)]
                dev = np.max(np.abs(vals - ref.reshape((-1,) + (1,) * (vals.ndim - 1))))
                if dev > FLAG_TOL:
                    raise FieldError(f"field declared space-independent varies by {dev:.2e}")

    def check_symmetric(self, n=5):
        if self.kind != "matrix":
            return
        t, coords = self._sample_lattice(n)
        N = self.geometry.dimension
        for i in range(N):
            for j in range(i + 1, N):
                a = self._sample(self.entries[i][j], t, coords)
                b = self._sample(self.entries[j][i], t, coords)
                if np.max(np.abs(a - b)) > FLAG_TOL:
                    raise FieldError("matrix field is not symmetric")


def combine_scalar_fields(terms: Sequence[tuple[float, PeriodicField]],
                          constant: float = 0.0) -> PeriodicField:
    """Pointwise linear combination  constant + sum_k c_k * f_k  of scalar fields."""
    fields = [f for _, f in terms]
    if not fields:
        raise FieldError("need at least one field")
    geometry = fields[0].geometry
    if any(f.kind != "scalar" for f in fields):
        raise FieldError("combine_scalar_fields takes scalar fields")
    coefs = [float(c) for c, _ in terms]

    def fn(t, *x):
        out = sum(c * f(t, *x) for c, f in zip(coefs, fields))
        return out + constant

    return PeriodicField(
        "scalar", _CallableEntry(fn), geometry,
        time_independent=all(f.time_independent for f in fields),
        space_independent=all(f.space_independent for f in fields),
        check_flags=False)


# --- averages ---------------------------------------------------------------


def spatial_average(f: PeriodicField, samples: int = 256) -> PeriodicField:
    """t -> (1/|C|) * integral_C f(t, x) dx, by composite trapezoid quadrature.

    On a uniform periodic grid the composite trapezoid rule equals the
    rectangle rule, which is spectrally accurate for smooth periodic
    integrands.  The result is flagged space-independent.
    """
    if f.kind != "scalar":
        raise FieldError("spatial_average takes a scalar field")
    g = f.geometry
    axes = [np.linspace(0, L, samples, endpoint=False) for L in g.lengths]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = tuple(m.reshape(-1) for m in mesh)

    def fn(t, *x):
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(t.shape, *(np.shape(c) for c in x))
        tt = np.broadcast_to(t, shape).reshape(-1)
        return f(tt[:, None], *(c[None, :] for c in flat)).mean(axis=1).reshape(shape)

    return PeriodicField("scalar", _CallableEntry(fn), g,
                         time_independent=f.time_independent,
                         space_independent=True, check_flags=False)


def temporal_average(f: PeriodicField, samples: int = 256) -> PeriodicField:
    """x -> (1/T) * integral_0^T f(t, x) dt, mirror of :func:`spatial_average`."""
    if f.kind != "scalar":
        raise FieldError("temporal_average takes a scalar field")
    g = f.geometry
    tq = np.linspace(0, g.period, samples, endpoint=False)

    def fn(t, *x):
        shape = np.broadcast_shapes(np.shape(t), *(np.shape(c) for c in x))
        xs = [np.broadcast_to(np.asarray(c, dtype=float), shape).reshape(-1) for c in x]
        return f(tq[:, None], *(c[None, :] for c in xs)).mean(axis=0).reshape(shape)

    return PeriodicField("scalar", _CallableEntry(fn), g,
                         time_independent=True,
                         space_independent=f.space_independent, check_flags=False)


def space_time_mean(f: PeriodicField, samples: int = 256) -> float:
    g = f.geometry
    tq = np.linspace(0, g.period, samples, endpoint=False)
    axes = [np.linspace(0, L, samples if g.dimension == 1 else 64, endpoint=False)
            for L in g.lengths]
    mesh = np.meshgrid(tq, *axes, indexing="ij")
    return float(np.mean(f(mesh[0], *mesh[1:])))


# --- calculus on potentials ---------------------------------------------------


def gradient_drift(Q: PeriodicField, geometry: CellGeometry | None = None,
                   tol: float = 1e-10):
    """q = grad Q and the transformed potential V_Q = Laplacian(Q)/2 - |grad Q|^2/4.

    Q must be time-independent and expression-backed (so the derivatives are
    exact).  The zero cell mean of q is verified by quadrature.
    """
    geometry = geometry or Q.geometry
    if Q.kind != "scalar":
        raise FieldError("potential Q must be a scalar field")
    expr = Q.entry_expression()
    if expr is None:
        raise FieldError("gradient_drift needs an expression-backed potential")
    if expr.depends_on("t"):
        raise FieldError("potential Q must be time-independent")
    N = geometry.dimension
    xvars = ["x", "y"][:N]
    grads = [expr.differentiate(v) for v in xvars]  # raises on abs(...)
    seconds = [g.differentiate(v) for g, v in zip(grads, xvars)]

    q = PeriodicField.vector(grads, geometry)

    def v_fn(t, *x):
        lap = sum(s(t=t, x=x[0], y=(x[1] if N > 1 else 0.0)) for s in seconds)
        grad_sq = sum(g(t=t, x=x[0], y=(x[1] if N > 1 else 0.0)) ** 2 for g in grads)
        return 0.5 * lap - 0.25 * grad_sq

    V = PeriodicField("scalar", _CallableEntry(v_fn), geometry,
                      time_independent=True, space_independent=Q.space_independent,
                      check_flags=False)

    for i in range(N):
        mean = space_time_mean(q.component(i), samples=256)
        if abs(mean) > tol:
            raise FieldError(f"grad Q component {i} has nonzero cell mean {mean:.2e}")
    return q, V


def ellipticity_bounds(A: PeriodicField, samples: int = 64):
    """Sampled uniform ellipticity constants (gamma, Gamma) of a matrix field.

    gamma is the minimum over sample points of the smallest eigenvalue of
    A(t,x), Gamma the maximum of the largest.  Raises NonEllipticError when
    gamma <= 0.
    """
    if A.kind != "matrix":
        raise FieldError("ellipticity_bounds takes a matrix field")
    if samples < 2:
        raise FieldError("need at least 2 samples per axis")
    g = A.geometry
    N = g.dimension
    nt = 1 if A.time_independent else samples
    ts = np.linspace(0, g.period, nt, endpoint=False)
    axes = [np.linspace(0, L, samples, endpoint=False) for L in g.lengths]
    mesh = np.meshgrid(ts, *axes, indexing="ij")
    t, coords = mesh[0], tuple(mesh[1:])

    if N == 1:
        vals = A.eval_entry((0, 0), t, *coords)
        gamma, Gamma = float(vals.min()), float(vals.max())
    else:
        a11 = A.eval_entry((0, 0), t, *coords)
        a22 = A.eval_entry((1, 1), t, *coords)
        a12 = A.eval_entry((0, 1), t, *coords)
        mid = 0.5 * (a11 + a22)
        rad = np.sqrt(0.25 * (a11 - a22) ** 2 + a12**2)
        gamma, Gamma = float((mid - rad).min()), float((mid + rad).max())
    if gamma <= 0:
        raise NonEllipticError(f"diffusion matrix is not uniformly elliptic (gamma={gamma:.3g})")
    return gamma, Gamma


class CoefficientSet:
    """Coefficients (A, q, mu) of the linearized equation over one cell."""

    def __init__(self, A: PeriodicField, q: PeriodicField, mu: PeriodicField,
                 geometry: CellGeometry | None = None, ellipticity_samples: int = 64):
        geometry = geometry or A.geometry
        for f in (A, q, mu):
            if f.geometry != geometry:
                raise FieldError("A, q, mu must share the periodicity cell")
        if A.kind != "matrix" or q.kind != "vector" or mu.kind != "scalar":
            raise FieldError("expected matrix A, vector q, scalar mu")
        A.check_symmetric()
        self.A = A
        self.q = q
        self.mu = mu
        self.geometry = geometry
        self._ellipticity_samples = ellipticity_samples
        self._ellipticity: tuple[float, float] | None = None

    @classmethod
    def from_expressions(cls, A="1", q=None, mu="1", *, T=1.0, L=1.0,
                         params: Mapping[str, float] | None = None) -> "CoefficientSet":
        lengths = (float(L),) if np.ndim(L) == 0 else tuple(float(v) for v in L)
        geometry = CellGeometry(float(T), lengths)
        N = geometry.dimension
        A_field = PeriodicField.matrix(A, geometry, params)
        if q is None:
            q = (0.0,) * N
        elif isinstance(q, (str, float, int)) or callable(q):
            if N != 1:
                raise FieldError("vector drift needs one entry per dimension")
            q = (q,)
        q_field = PeriodicField.vector(q, geometry, params)
        mu_field = PeriodicField.scalar(mu, geometry, params)
        return cls(A_field, q_field, mu_field, geometry)

    @property
    def dimension(self) -> int:
        return self.geometry.dimension

    @property
    def time_independent(self) -> bool:
        return all(f.time_independent for f in (self.A, self.q, self.mu))

    @property
    def space_independent(self) -> bool:
        return all(f.space_independent for f in (self.A, self.q, self.mu))

    def ellipticity(self) -> tuple[float, float]:
        if self._ellipticity is None:
            self._ellipticity = ellipticity_bounds(self.A, self._ellipticity_samples)
        return self._ellipticity

    def with_mu(self, mu: PeriodicField) -> "CoefficientSet":
        cs = CoefficientSet(self.A, self.q, mu, self.geometry, self._ellipticity_samples)
        cs._ellipticity = self._ellipticity
        return cs

    def with_scaled(self, *, kappa: float = 1.0, drift_B: float = 1.0) -> "CoefficientSet":
        """Coefficients (kappa*A, drift_B*q, mu)."""
        N = self.dimension
        A = self.A

        def scaled_matrix_entry(i, j):
            def fn(t, *x):
                return kappa * A.eval_entry((i, j), t, *x)
            return _CallableEntry(fn)

        rows = tuple(tuple(scaled_matrix_entry(i, j) for j in range(N)) for i in range(N))
        A2 = PeriodicField("matrix", rows, self.geometry,
                           time_independent=A.time_independent,
                           space_independent=A.space_independent, check_flags=False)
        qf = self.q

        def scaled_q_entry(i):
            def fn(t, *x):
                return drift_B * qf.eval_entry(i, t, *x)
            return _CallableEntry(fn)

        q2 = PeriodicField("vector", tuple(scaled_q_entry(i) for i in range(N)), self.geometry,
                           time_independent=qf.time_independent,
                           space_independent=qf.space_independent, check_flags=False)
        return CoefficientSet(A2, q2, self.mu, self.geometry, self._ellipticity_samples)
