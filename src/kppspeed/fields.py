"""Space-time periodic coefficient fields.

A field is (T, L_1..L_N)-periodic by construction: evaluation reduces the
arguments into [0, T) x C before handing them to the underlying entry, so
periodicity holds identically regardless of how the entry is defined.

Entries can be parsed expressions, plain Python callables ``f(t, x[, y])``
or constants.  Each entry says whether it depends on t: a constant does
not, an expression does iff it reads ``t``, and a callable does unless the
package code that makes it says otherwise (a user's callable always does).
A field is time-independent iff none of its entries depends on t, which
sends its eigenproblems to the steady route.  Whatever the entry, a sample
(``__call__`` or ``eval_entry``) is a float64 array with the broadcast
shape of ``(t, *coords)``, shape ``()`` for scalar arguments; it may be a
read-only broadcast view, so a caller that writes into it copies it first.
The discretization takes these samples and the derivatives it needs as
centered differences of them, whatever the representation; only
``gradient_drift`` differentiates an expression exactly.  A
``CoefficientSet`` bundles the diffusion matrix A, the drift q and the
growth rate mu over a shared periodicity cell and checks uniform
ellipticity of A by sampling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

SYMMETRY_TOL = 1e-12
SYMMETRY_SAMPLES = 5    # lattice points per axis (and in time) of the symmetry check
AVERAGE_SAMPLES = 256   # quadrature points per axis of the cell averages
ELLIPTICITY_SAMPLES = 64  # sample points per axis of the ellipticity bounds
DRIFT_MEAN_TOL = 1e-10  # largest cell mean of grad Q taken as zero


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
        # chained comparisons reject nan and inf too, which <= 0 lets through
        if not 0 < self.period < np.inf:
            raise FieldError("time period must be finite and strictly positive")
        if len(self.lengths) < 1:
            raise FieldError("need at least one spatial dimension")
        if not all(0 < L < np.inf for L in self.lengths):
            raise FieldError("cell lengths must be finite and strictly positive")
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))

    @property
    def dimension(self) -> int:
        return len(self.lengths)


# --- entries ----------------------------------------------------------------


class _Entry:
    expression: Expression | None = None
    time_dependent = True

    def eval(self, t, coords):  # pragma: no cover - interface
        raise NotImplementedError


class _ConstantEntry(_Entry):
    time_dependent = False

    def __init__(self, value: float):
        self.value = float(value)

    def eval(self, t, coords):
        # filled rather than broadcast: numpy sums a matrix product over a
        # stride-0 array in another order than over a filled one
        return np.full(np.broadcast(t, *coords).shape, self.value)


class _ExpressionEntry(_Entry):
    def __init__(self, expr: Expression):
        self.expression = expr
        self.time_dependent = expr.depends_on("t")

    def eval(self, t, coords):
        x = coords[0]
        y = coords[1] if len(coords) > 1 else 0.0
        return self.expression(t=t, x=x, y=y)


class _CallableEntry(_Entry):
    def __init__(self, fn: Callable, time_dependent: bool = True):
        self.fn = fn
        self.time_dependent = time_dependent

    def eval(self, t, coords):
        return self.fn(t, *coords)


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
    """A scalar, vector, or symmetric-matrix valued (T, L)-periodic field.

    ``time_independent`` holds iff no entry depends on t, so a field built
    from another field's entries keeps its time independence."""

    def __init__(self, kind: str, entries, geometry: CellGeometry):
        if kind not in ("scalar", "vector", "matrix"):
            raise FieldError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.geometry = geometry
        self.entries = entries  # scalar: _Entry; vector: tuple; matrix: nested tuple
        flat = ([entries] if kind == "scalar" else entries if kind == "vector"
                else [e for row in entries for e in row])
        self.time_independent = not any(e.time_dependent for e in flat)

    # -- construction helpers

    @classmethod
    def scalar(cls, value, geometry, params=None) -> "PeriodicField":
        return cls("scalar", _as_entry(value, params, geometry.dimension), geometry)

    @classmethod
    def vector(cls, values: Sequence, geometry, params=None) -> "PeriodicField":
        if len(values) != geometry.dimension:
            raise FieldError("vector field needs one entry per spatial dimension")
        entries = tuple(_as_entry(v, params, geometry.dimension) for v in values)
        return cls("vector", entries, geometry)

    @classmethod
    def matrix(cls, values, geometry, params=None) -> "PeriodicField":
        """`values`: one value a (a -> a*I), or a mapping of "aij" keys in
        which an entry whose transpose is not given mirrors to it.  A
        sequence is a FieldError."""
        N = geometry.dimension
        zero = _ConstantEntry(0.0)
        if isinstance(values, Mapping):
            given: dict[tuple[int, int], _Entry] = {}
            for key, v in values.items():
                match = re.fullmatch(r"[aA]?([1-9])([1-9])", str(key))  # "11" or "a11"
                if match is None or max(int(d) for d in match.groups()) > N:
                    raise FieldError(f"matrix entry key {key!r} is not aij with "
                                     f"1 <= i, j <= {N}")
                given[(int(match[1]) - 1, int(match[2]) - 1)] = _as_entry(v, params, N)
        elif np.ndim(values) == 0:
            given = dict.fromkeys(((i, i) for i in range(N)), _as_entry(values, params, N))
        else:
            raise FieldError("a matrix field is one value a (a*I) or a mapping of "
                             "'aij' keys, not a sequence")
        rows = tuple(tuple(given.get((i, j), given.get((j, i), zero)) for j in range(N))
                     for i in range(N))
        return cls("matrix", rows, geometry)

    # -- evaluation

    def _entry(self, *index) -> _Entry:
        if self.kind == "scalar":
            return self.entries
        if self.kind == "vector":
            return self.entries[index[0]]
        return self.entries[index[0]][index[1]]

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
        """Scalar view of one vector/matrix entry."""
        if self.kind == "scalar":
            return self
        return PeriodicField("scalar", self._entry(*index), self.geometry)

    def entry_expression(self, *index) -> Expression | None:
        return self._entry(*index).expression

    def check_symmetric(self):
        if self.kind != "matrix":
            return
        g = self.geometry
        axes = [np.linspace(0, P, SYMMETRY_SAMPLES, endpoint=False)
                for P in (g.period, *g.lengths)]
        t, *coords = np.meshgrid(*axes, indexing="ij")
        N = g.dimension
        for i in range(N):
            for j in range(i + 1, N):
                a = self._sample(self.entries[i][j], t, coords)
                b = self._sample(self.entries[j][i], t, coords)
                if np.max(np.abs(a - b)) > SYMMETRY_TOL:
                    raise FieldError("matrix field is not symmetric")


def combine_scalar_fields(terms: Sequence[tuple[float, PeriodicField]]) -> PeriodicField:
    """Pointwise linear combination  sum_k c_k * f_k  of scalar fields."""
    fields = [f for _, f in terms]
    if not fields:
        raise FieldError("need at least one field")
    geometry = fields[0].geometry
    if any(f.kind != "scalar" for f in fields):
        raise FieldError("combine_scalar_fields takes scalar fields")
    coefs = [float(c) for c, _ in terms]

    def fn(t, *x):
        return sum(c * f(t, *x) for c, f in zip(coefs, fields))

    return PeriodicField("scalar", _CallableEntry(
        fn, not all(f.time_independent for f in fields)), geometry)


# --- averages ---------------------------------------------------------------


def spatial_average(f: PeriodicField) -> PeriodicField:
    """t -> (1/|C|) * integral_C f(t, x) dx, by composite trapezoid quadrature.

    On a uniform periodic grid the composite trapezoid rule equals the
    rectangle rule, which is spectrally accurate for smooth periodic
    integrands.  The average depends on t iff f does.
    """
    if f.kind != "scalar":
        raise FieldError("spatial_average takes a scalar field")
    g = f.geometry
    axes = [np.linspace(0, L, AVERAGE_SAMPLES, endpoint=False) for L in g.lengths]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = tuple(m.reshape(-1) for m in mesh)

    def fn(t, *x):
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(t.shape, *(np.shape(c) for c in x))
        tt = np.broadcast_to(t, shape).reshape(-1)
        return f(tt[:, None], *(c[None, :] for c in flat)).mean(axis=1).reshape(shape)

    return PeriodicField("scalar", _CallableEntry(fn, not f.time_independent), g)


def temporal_average(f: PeriodicField) -> PeriodicField:
    """x -> (1/T) * integral_0^T f(t, x) dt, mirror of :func:`spatial_average`."""
    if f.kind != "scalar":
        raise FieldError("temporal_average takes a scalar field")
    g = f.geometry
    tq = np.linspace(0, g.period, AVERAGE_SAMPLES, endpoint=False)

    def fn(t, *x):
        shape = np.broadcast_shapes(np.shape(t), *(np.shape(c) for c in x))
        xs = [np.broadcast_to(np.asarray(c, dtype=float), shape).reshape(-1) for c in x]
        return f(tq[:, None], *(c[None, :] for c in xs)).mean(axis=0).reshape(shape)

    return PeriodicField("scalar", _CallableEntry(fn, False), g)


def space_time_mean(f: PeriodicField) -> float:
    g = f.geometry
    tq = np.linspace(0, g.period, AVERAGE_SAMPLES, endpoint=False)
    axes = [np.linspace(0, L, AVERAGE_SAMPLES if g.dimension == 1 else 64, endpoint=False)
            for L in g.lengths]
    mesh = np.meshgrid(tq, *axes, indexing="ij")
    return float(np.mean(f(mesh[0], *mesh[1:])))


# --- calculus on potentials ---------------------------------------------------


def gradient_drift(Q: PeriodicField):
    """q = grad Q and the transformed potential V_Q = Laplacian(Q)/2 - |grad Q|^2/4.

    Q must be time-independent and expression-backed (so the derivatives are
    exact).  The zero cell mean of q is verified by quadrature.
    """
    geometry = Q.geometry
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

    V = PeriodicField("scalar", _CallableEntry(v_fn, False), geometry)

    for i in range(N):
        mean = space_time_mean(q.component(i))
        if abs(mean) > DRIFT_MEAN_TOL:
            raise FieldError(f"grad Q component {i} has nonzero cell mean {mean:.2e}")
    return q, V


def ellipticity_bounds(A: PeriodicField):
    """Sampled uniform ellipticity constants (gamma, Gamma) of a matrix field.

    gamma is the minimum over ELLIPTICITY_SAMPLES points per axis (and in
    time, unless A is time-independent) of the smallest eigenvalue of
    A(t,x), Gamma the maximum of the largest.  Raises NonEllipticError when
    gamma <= 0.
    """
    if A.kind != "matrix":
        raise FieldError("ellipticity_bounds takes a matrix field")
    g = A.geometry
    N = g.dimension
    nt = 1 if A.time_independent else ELLIPTICITY_SAMPLES
    axes = [np.linspace(0, L, ELLIPTICITY_SAMPLES, endpoint=False) for L in g.lengths]
    coords = np.meshgrid(*axes, indexing="ij")
    gamma, Gamma = np.inf, -np.inf
    for t in np.linspace(0, g.period, nt, endpoint=False):  # one level at a time
        if N == 1:
            low = high = A.eval_entry((0, 0), t, *coords)
        else:
            a11, a22, a12 = (A.eval_entry(ij, t, *coords) for ij in ((0, 0), (1, 1), (0, 1)))
            mid = 0.5 * (a11 + a22)
            rad = np.sqrt(0.25 * (a11 - a22) ** 2 + a12**2)
            low, high = mid - rad, mid + rad
        gamma, Gamma = min(gamma, float(low.min())), max(Gamma, float(high.max()))
    if gamma <= 0:
        raise NonEllipticError(f"diffusion matrix is not uniformly elliptic (gamma={gamma:.3g})")
    return gamma, Gamma


class CoefficientSet:
    """Coefficients (A, q, mu) of the linearized equation over one cell."""

    def __init__(self, A: PeriodicField, q: PeriodicField, mu: PeriodicField,
                 geometry: CellGeometry | None = None):
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

    def ellipticity(self) -> tuple[float, float]:
        if self._ellipticity is None:
            self._ellipticity = ellipticity_bounds(self.A)
        return self._ellipticity

    def with_mu(self, mu: PeriodicField) -> "CoefficientSet":
        cs = CoefficientSet(self.A, self.q, mu, self.geometry)
        cs._ellipticity = self._ellipticity
        return cs

    def with_scaled(self, *, kappa: float = 1.0, drift_B: float = 1.0) -> "CoefficientSet":
        """Coefficients (kappa*A, drift_B*q, mu)."""
        N = self.dimension

        def scaled(c, f, *index):
            return combine_scalar_fields([(c, f.component(*index))]).entries

        A = PeriodicField("matrix", tuple(tuple(scaled(kappa, self.A, i, j) for j in range(N))
                                          for i in range(N)), self.geometry)
        q = PeriodicField("vector", tuple(scaled(drift_B, self.q, i) for i in range(N)),
                          self.geometry)
        return CoefficientSet(A, q, self.mu, self.geometry)
