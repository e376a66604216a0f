import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from kppspeed import operators
from kppspeed.expressions import parse_expression
from kppspeed.fields import CellGeometry, CoefficientSet, NonEllipticError, PeriodicField
from kppspeed.operators import (
    ActionFamily,
    CoefficientSamples,
    GridError,
    SteadyAction,
    _axis_stencil,
    _centred,
    _cn_matrices,
    _faces,
    _sparse_levels,
    _splu,
    assemble_action,
    build_grid,
    sample,
)
from kppspeed.speed import shear_full_coefficients

GEO1 = CellGeometry(1.0, (1.0,))


def make_coeffs(A="1", q=None, mu="1", T=1.0, L=1.0, params=None):
    return CoefficientSet.from_expressions(A=A, q=q, mu=mu, T=T, L=L, params=params)


# a 2D case with a mixed term a12 and a time-dependent mu, for the tests that
# run in both dimensions
COEFFS_2D = dict(A={"11": "1 + 0.5*cos(2*pi*x)", "22": "1 + 0.3*sin(2*pi*y)",
                    "12": "0.2*cos(2*pi*(x - y))"},
                 q=("0.3*sin(2*pi*y)", "0.2*cos(2*pi*x)"),
                 mu="1 + 0.5*cos(2*pi*t)*cos(2*pi*x)*cos(2*pi*y)", L=(1.0, 1.0))


def case(dim, coeffs_1d, n, n_t, lam):
    """(coeffs, grid, lam): the given 1D case, or COEFFS_2D on a 24 x 24 grid."""
    if dim == 1:
        return make_coeffs(**coeffs_1d), build_grid(GEO1, n, n_t), [lam]
    coeffs = make_coeffs(**COEFFS_2D)
    return coeffs, build_grid(coeffs.geometry, (24, 24), n_t), [lam, -0.5 * lam]


def smooth_positive(grid, rng, dim=1):
    mesh = grid.meshgrid()
    u = np.ones(mesh[0].shape)
    for k in (1, 2, 3):
        u = u + (rng.uniform(-1, 1) * np.cos(2 * np.pi * k * mesh[0])
                 + rng.uniform(-1, 1) * np.sin(2 * np.pi * k * mesh[0])) / k**2
        if dim > 1:
            u = u + rng.uniform(-1, 1) * np.cos(2 * np.pi * k * mesh[1]) / k**2
    return np.exp(u).reshape(-1)


def test_build_grid_spec_examples():
    g = build_grid(GEO1, 256, 128)
    assert g.h == (1 / 256,)
    assert g.dt == 1 / 128
    with pytest.raises(GridError):
        build_grid(GEO1, 4)
    geo2 = CellGeometry(1.0, (1.0, 1.0))
    g2 = build_grid(geo2, (64, 64))
    assert g2.npoints == 4096
    with pytest.raises(GridError):
        build_grid(geo2, (2048, 2048))  # above the unknown cap


def test_constant_action_is_mu():
    coeffs = make_coeffs(mu="0.7")
    grid = build_grid(GEO1, 64)
    act = assemble_action(coeffs, [0.0], grid)
    one = np.ones(grid.npoints)
    np.testing.assert_allclose(act @ one, 0.7, atol=1e-12)


def test_laplacian_second_order_convergence():
    # exact Laplacian of sin(2 pi x) as the oracle; dyadic refinement slope
    errs = []
    for n in (64, 128, 256):
        grid = build_grid(GEO1, n)
        act = assemble_action(make_coeffs(mu="0"), [0.0], grid)
        x = grid.axes()[0]
        phi = np.sin(2 * np.pi * x)
        exact = -4 * np.pi**2 * phi
        errs.append(np.max(np.abs(act @ phi - exact)))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes >= 1.9)
    assert errs[-1] <= 4 * np.pi**2 * (2 * np.pi / 256) ** 2


def test_variable_coefficient_action_second_order():
    # div(a grad phi) + first-order terms against symbolic truth
    coeffs = make_coeffs(A="2 + cos(2*pi*x)", q="0.3*sin(2*pi*x)",
                         mu="1 + 0.5*cos(2*pi*x)")
    lam = [0.4]
    errs = []
    for n in (64, 128, 256):
        grid = build_grid(GEO1, n)
        act = assemble_action(coeffs, lam, grid)
        x = grid.axes()[0]
        a = 2 + np.cos(2 * np.pi * x)
        da = -2 * np.pi * np.sin(2 * np.pi * x)
        q = 0.3 * np.sin(2 * np.pi * x)
        mu = 1 + 0.5 * np.cos(2 * np.pi * x)
        phi = np.exp(np.sin(2 * np.pi * x))
        dphi = 2 * np.pi * np.cos(2 * np.pi * x) * phi
        d2phi = (2 * np.pi) ** 2 * (np.cos(2 * np.pi * x) ** 2 - np.sin(2 * np.pi * x)) * phi
        exact = (a * d2phi + da * dphi + 2 * lam[0] * a * dphi - q * dphi
                 + (lam[0] ** 2 * a + lam[0] * da + mu - q * lam[0]) * phi)
        errs.append(np.max(np.abs(act @ phi - exact)))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes >= 1.9)


def test_action_linearity():
    rng = np.random.default_rng(0)
    grid = build_grid(GEO1, 64)
    act = assemble_action(make_coeffs(A="1 + 0.5*cos(2*pi*x)", q="sin(2*pi*x)",
                                      mu="cos(2*pi*x)"), [0.7], grid)
    u, v = rng.standard_normal((2, grid.npoints))
    a, b = 1.3, -0.4
    np.testing.assert_allclose(act @ (a * u + b * v), a * (act @ u) + b * (act @ v),
                               rtol=0, atol=1e-12 * (np.abs(act @ u).max() + np.abs(act @ v).max()))


def test_self_adjoint_negative_semidefinite_no_drift():
    rng = np.random.default_rng(2)
    coeffs = make_coeffs(A="2 + cos(2*pi*x)", mu="0")
    grid = build_grid(GEO1, 64)
    E = assemble_action(coeffs, [0.0], grid)
    asym = (E - E.T).toarray()
    assert np.max(np.abs(asym)) == 0.0
    for _ in range(10):
        u = rng.standard_normal(grid.npoints)
        assert np.dot(E @ u, u) <= 1e-12


def test_gauge_shift_exact():
    grid = build_grid(GEO1, 64)
    base = make_coeffs(A="1", q="sin(2*pi*x)", mu="cos(2*pi*x)")
    shifted = make_coeffs(A="1", q="sin(2*pi*x)", mu="cos(2*pi*x) + 2.5")
    E0 = assemble_action(base, [0.3], grid)
    E1 = assemble_action(shifted, [0.3], grid)
    v = np.cos(2 * np.pi * grid.axes()[0])
    np.testing.assert_allclose(E1 @ v, E0 @ v + 2.5 * v, atol=1e-12)


def test_step_period_scalar_ode_oracle():
    # A = eps*I, mu = 1: phi' = phi up to eps-diffusion, phi(T) = e*phi0
    coeffs = make_coeffs(A="0.00000001", mu="1")
    grid = build_grid(GEO1, 64, 64)
    fam = ActionFamily(CoefficientSamples(coeffs, grid), [0.0])
    phi0 = np.ones(grid.npoints)
    phiT = fam.step_period(phi0)
    np.testing.assert_allclose(phiT, np.e, rtol=1e-3)


def test_step_period_mass_conservation():
    rng = np.random.default_rng(3)
    coeffs = make_coeffs(A="1", mu="0")
    grid = build_grid(GEO1, 64, 32)
    fam = ActionFamily(CoefficientSamples(coeffs, grid), [0.0])
    phi0 = smooth_positive(grid, rng)
    phiT = fam.step_period(phi0)
    # the cell measure is common to all three sums
    assert abs(np.sum(phiT) - np.sum(phi0)) <= 1e-10 * np.sum(np.abs(phi0))


def test_step_period_positivity():
    rng = np.random.default_rng(4)
    coeffs = make_coeffs(A="1 + 0.5*cos(2*pi*x)", q="0.5*sin(2*pi*x)", mu="1 + 0.3*cos(2*pi*x)")
    grid = build_grid(GEO1, 64, 64)
    fam = ActionFamily(CoefficientSamples(coeffs, grid), [0.5])
    for _ in range(5):
        phi0 = smooth_positive(grid, rng)
        assert np.min(fam.step_period(phi0)) > 0


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_step_period_residual_contract(dim):
    # each Crank-Nicolson solve satisfies its linear system to 1e-10 relative
    coeffs, grid, lam = case(dim, dict(A="1 + 0.5*cos(2*pi*x)",
                                       mu="1 + 0.5*cos(2*pi*t)*cos(2*pi*x)"), 64, 16, 0.2)
    fam = ActionFamily(CoefficientSamples(coeffs, grid), lam)
    rng = np.random.default_rng(5)
    levels = fam.step_period(smooth_positive(grid, rng, dim), store_levels=True)
    dt = grid.dt
    for m in range(grid.n_t):
        Em = fam.matrix(m)
        Ep = fam.matrix(m + 1)
        lhs = levels[m + 1] - 0.5 * dt * (Ep @ levels[m + 1])
        rhs = levels[m] + 0.5 * dt * (Em @ levels[m])
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_transpose_period_map_is_adjoint_of_forward(dim):
    coeffs, grid, lam = case(dim, dict(A="1 + 0.5*cos(2*pi*x)", q="0.3*sin(2*pi*x)",
                                       mu="1 + 0.5*cos(2*pi*t)*cos(2*pi*x)"), 32, 16, 0.4)
    fam = ActionFamily(CoefficientSamples(coeffs, grid), lam)
    rng = np.random.default_rng(6)
    u, w = rng.standard_normal((2, grid.npoints))
    Pu = fam.step_period(u)
    PTw = fam.step_period(w, transpose=True)
    assert abs(np.dot(Pu, w) - np.dot(u, PTw)) <= 1e-11 * np.linalg.norm(u) * np.linalg.norm(w)


def test_y_independent_2d_operator_reproduces_1d():
    # the one stencil in every dimension: with coefficients that do not depend
    # on y and lam = (l, 0), the 2D operator and period map act on functions
    # constant in y as the 1D ones do
    kw = dict(A="1 + 0.5*cos(2*pi*x)", q="0.3*sin(2*pi*x)",
              mu="1 + 0.5*cos(2*pi*t)*cos(2*pi*x)")
    coeffs1 = make_coeffs(**kw)
    coeffs2 = make_coeffs(A={"11": kw["A"], "22": "2 + sin(2*pi*x)", "12": "0.3*cos(2*pi*x)"},
                          q=(kw["q"], "0.4*cos(2*pi*x)"), mu=kw["mu"], L=(1.0, 1.0))
    n, n_y, n_t, lam = 32, 8, 16, 0.6
    grid1 = build_grid(GEO1, n, n_t)
    grid2 = build_grid(coeffs2.geometry, (n, n_y), n_t)
    psi = np.random.default_rng(7).standard_normal((n_t, n))
    v = psi[0]

    def check(w1, w2, rtol):
        err = np.max(np.abs(w2.reshape(w1.shape + (n_y,)) - w1[..., None]))
        assert err <= rtol * np.max(np.abs(w1))

    fam1 = ActionFamily(CoefficientSamples(coeffs1, grid1), [lam])
    fam2 = ActionFamily(CoefficientSamples(coeffs2, grid2), [lam, 0.0])
    for adjoint in (False, True):
        check(fam1.actions(psi, adjoint), fam2.actions(np.repeat(psi, n_y, axis=1), adjoint),
              1e-14)
        check(fam1.step_period(v, transpose=adjoint),
              fam2.step_period(np.repeat(v, n_y), transpose=adjoint), 1e-12)


def test_non_elliptic_rejected():
    coeffs = make_coeffs(A="-1")
    grid = build_grid(GEO1, 64)
    with pytest.raises(NonEllipticError):
        assemble_action(coeffs, [0.0], grid)


def test_row_sums_equal_zeroth_order_coefficient():
    # diffusion and centered advection rows sum to zero: row sums = c0 exactly,
    # with div(A lam) the centered difference of the sampled lam*a
    coeffs = make_coeffs(A="2 + cos(2*pi*x)", q="0.5*sin(2*pi*x)", mu="1 + 0.3*cos(2*pi*x)")
    grid = build_grid(GEO1, 64)
    E = assemble_action(coeffs, [0.7], grid)
    x = grid.axes()[0]
    a = 2 + np.cos(2 * np.pi * x)
    q = 0.5 * np.sin(2 * np.pi * x)
    mu = 1 + 0.3 * np.cos(2 * np.pi * x)
    lam = 0.7
    div_alam = (np.roll(lam * a, -1) - np.roll(lam * a, 1)) / (2 * grid.h[0])
    c0 = lam**2 * a + div_alam + mu - q * lam
    np.testing.assert_allclose(np.asarray(E.sum(axis=1)).ravel(), c0, atol=1e-10)


def _as_callable(text):
    """A callable f(t, x[, y]) wrapping the parsed expression of text."""
    expr = parse_expression(text)

    def fn(t, x, y=0.0):
        return expr(t=t, x=x, y=y)
    return fn


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_representation_does_not_change_the_operator(dim):
    # the same A as an expression, as a callable wrapping that expression and
    # through with_scaled(kappa=1) gives the same discrete operator, bit for bit
    if dim == 1:
        A = {"11": "2 + cos(2*pi*(x - t))"}
        q, mu, L, n_space = ("0.5*sin(2*pi*x)",), "1 + 0.3*cos(2*pi*x)", 1.0, 64
        lam = [0.7]
    else:
        A = {"11": "1 + 0.5*cos(2*pi*(x - t))", "22": "1 + 0.3*sin(2*pi*y)",
             "12": "0.2*cos(2*pi*(x - y + t))"}
        q, mu, L, n_space = COEFFS_2D["q"], COEFFS_2D["mu"], (1.0, 1.0), (16, 16)
        lam = [0.7, -0.4]
    expr = make_coeffs(A=A, q=q, mu=mu, L=L)
    geo = expr.geometry
    callable_A = PeriodicField.matrix({k: _as_callable(v) for k, v in A.items()}, geo)
    forms = [expr, CoefficientSet(callable_A, expr.q, expr.mu, geo),
             expr.with_scaled(kappa=1.0)]
    grid = build_grid(geo, n_space, 16)
    lam_arr = np.asarray(lam, dtype=float)
    ref = CoefficientSamples(expr, grid).stencil(lam_arr)
    ref_family = ActionFamily(CoefficientSamples(expr, grid), lam)
    assert not ref_family.time_independent
    assert len(ref) == (3 if dim == 1 else 9)  # 2D: with the four mixed terms of A_12
    for coeffs in forms[1:]:
        got = CoefficientSamples(coeffs, grid).stencil(lam_arr)
        assert len(got) == len(ref)
        assert all(np.array_equal(u, v) for u, v in zip(got, ref))
        family = ActionFamily(CoefficientSamples(coeffs, grid), lam)
        for m in range(grid.n_t):
            assert (family.matrix(m) != ref_family.matrix(m)).nnz == 0
        v = np.linspace(1.0, 2.0, grid.npoints)
        for transpose in (False, True):
            assert np.array_equal(
                family.step_period(v, transpose=transpose, store_levels=True),
                ref_family.step_period(v, transpose=transpose, store_levels=True))


def _mixed_terms(a12, h, axes=(1, 2)):
    """The four terms of d_x(a12 d_y .) + d_y(a12 d_x .) on the neighbours
    (i+1, j+1), (i+1, j-1), (i-1, j+1), (i-1, j-1) along the given axes."""
    s = 1.0 / (4 * h[0] * h[1])
    a_xp, a_xm = np.roll(a12, -1, axis=axes[0]), np.roll(a12, 1, axis=axes[0])
    a_yp, a_ym = np.roll(a12, -1, axis=axes[1]), np.roll(a12, 1, axis=axes[1])
    return [s * (a_xp + a_yp), -s * (a_xp + a_ym), -s * (a_xm + a_yp), s * (a_xm + a_ym)]


def _reference_stencil(coeffs, lam, grid, times):
    """The terms of E_lam sampled afresh for one lam: the one-pass builder
    that `CoefficientSamples` split into sampling and lam algebra."""
    N = grid.dimension
    mesh = grid.meshgrid()
    t = np.asarray(times, dtype=float).reshape((-1,) + (1,) * N)
    a_diag = [coeffs.A.eval_entry((d, d), t, *mesh) for d in range(N)]
    a12 = coeffs.A.eval_entry((0, 1), t, *mesh) if N == 2 else None
    if a12 is not None and not np.any(a12):
        a12 = None
    q = [coeffs.q.eval_entry(d, t, *mesh) for d in range(N)]
    alam = [a_diag[d] * lam[d] + (a12 * lam[1 - d] if a12 is not None else 0.0)
            for d in range(N)]
    b = [2.0 * alam[d] - q[d] for d in range(N)]
    div_alam = sum(_centred(alam[d], grid.h[d], 1 + d) for d in range(N))
    c0 = (sum(alam[d] * lam[d] for d in range(N)) + div_alam + coeffs.mu(t, *mesh)
          - sum(q[d] * lam[d] for d in range(N)))
    terms, diag = [], 0.0
    for d in range(N):
        lower, upper, diag_d = _axis_stencil(_faces(a_diag[d], 1 + d), b[d], grid.h[d],
                                             axis=1 + d)
        terms += [lower, upper]
        diag = diag + diag_d
    terms.append(diag + c0)
    return terms + ([] if a12 is None else _mixed_terms(a12, grid.h))


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("time_dependent", [False, True], ids=["steady", "unsteady"])
def test_samples_give_the_fresh_stencil_at_every_lam(dim, time_dependent):
    # one CoefficientSamples reused over a lam sweep equals a fresh sample at
    # each lam, and every stack it keeps or returns is C-ordered
    if dim == 1:
        coeffs = make_coeffs(A="1 + 0.5*cos(2*pi*x)", q="0.7*sin(2*pi*x)",
                             mu="1 + 0.3*cos(2*pi*(x - t))" if time_dependent
                             else "1 + 0.3*cos(2*pi*x)")
        grid = build_grid(GEO1, 64, 16)
        lams = [[s] for s in np.linspace(-3.0, 2.0, 6)]
    else:
        spec = dict(COEFFS_2D)
        if not time_dependent:
            spec["mu"] = "1 + 0.5*cos(2*pi*x)*cos(2*pi*y)"
        coeffs = make_coeffs(**spec)
        grid = build_grid(coeffs.geometry, (16, 12), 8)
        lams = [[s, -0.4 * s + 0.1] for s in np.linspace(-2.0, 2.0, 5)]
    assert coeffs.time_independent is not time_dependent
    samples = CoefficientSamples(coeffs, grid)
    times = np.arange(grid.n_t if time_dependent else 1) * grid.dt
    assert samples.n_levels == times.size
    kept = samples.a_diag + samples.a_faces + samples.q + [samples.mu]
    if dim == 2:
        kept.append(samples.a12)
    for lam in lams:
        got = samples.stencil(lam)
        ref = _reference_stencil(coeffs, np.asarray(lam), grid, times)
        assert len(got) == len(ref) == (3 if dim == 1 else 9)
        assert all(np.array_equal(u, v) for u, v in zip(got, ref))
        for a in kept + got:
            assert a.flags.c_contiguous and a.shape == (times.size,) + grid.n_space


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_steady_action_is_the_assembled_matrix(dim):
    # products both ways, the Gershgorin bound, the sign pattern and the
    # factors of sigma I - E agree with the CSR matrix of assemble_action
    if dim == 1:
        coeffs = make_coeffs(A="1 + 0.5*cos(2*pi*x)", q="2*sin(2*pi*x)",
                             mu="1 + 0.3*cos(2*pi*x)")
        grid, lam = build_grid(GEO1, 48), [0.8]
    else:
        spec = dict(COEFFS_2D, mu="1 + 0.5*cos(2*pi*x)*cos(2*pi*y)")
        coeffs = make_coeffs(**spec)
        grid, lam = build_grid(coeffs.geometry, (12, 10)), [0.8, -0.3]
    op = SteadyAction(CoefficientSamples(coeffs, grid), lam)
    M = assemble_action(coeffs, lam, grid).toarray()
    v = smooth_positive(grid, np.random.default_rng(5), dim)
    np.testing.assert_allclose(op.matvec(v, "N"), M @ v, rtol=1e-13, atol=1e-9)
    np.testing.assert_allclose(op.matvec(v, "T"), M.T @ v, rtol=1e-13, atol=1e-9)
    off = M - np.diag(np.diag(M))
    assert op.gershgorin == pytest.approx(np.max(np.diag(M) + np.abs(off).sum(axis=1)),
                                          rel=1e-14)
    assert op.metzler is bool(np.all(off >= 0))
    assert op.metzler is (dim == 1)  # the 2D a12 block has negative entries
    sigma = op.gershgorin + 1.0
    factor = op.factor(sigma)
    shifted = sigma * np.eye(grid.npoints) - M
    np.testing.assert_allclose(shifted @ factor.solve(v, "N"), v, rtol=1e-10)
    np.testing.assert_allclose(shifted.T @ factor.solve(v, "T"), v, rtol=1e-10)


def test_sample_passes_samples_of_the_grid_through():
    coeffs = make_coeffs(mu="1 + 0.3*cos(2*pi*(x - t))")
    grid = build_grid(GEO1, 32, 16)
    samples = sample(coeffs, grid)
    assert isinstance(samples, CoefficientSamples) and samples.coeffs is coeffs
    assert sample(samples, grid) is samples
    ActionFamily(samples, [0.5])
    fine = samples.doubled_in_time()
    assert fine is samples.doubled_in_time()
    assert (fine.grid.n_t, fine.n_levels) == (32, 32)
    assert sample(fine, fine.grid) is fine
    mismatched = [(samples, build_grid(GEO1, 32, 8)), (samples, build_grid(GEO1, 16, 16)),
                  (fine, grid)]
    for s, g in mismatched:
        with pytest.raises(ValueError, match="samples of another grid"):
            sample(s, g)


def _per_level_csr(terms, lev, grid):
    """E_lam at one level of the `CoefficientSamples.stencil` terms as the
    per-level builder made it before the one-pass assembly: COO triplets of
    the axis stencils, the diagonal and the a12 block, each on the column of
    its neighbour, converted to CSR without stored zeros."""
    idx = np.arange(grid.npoints).reshape(grid.n_space)
    cols = [np.roll(idx, s, axis=d) for d in range(grid.dimension) for s in (1, -1)] + [idx]
    if len(terms) > len(cols):
        ixp, ixm = np.roll(idx, -1, axis=0), np.roll(idx, 1, axis=0)
        cols += [np.roll(ixp, -1, axis=1), np.roll(ixp, 1, axis=1),
                 np.roll(ixm, -1, axis=1), np.roll(ixm, 1, axis=1)]
    assert len(cols) == len(terms)
    data = [t[lev] for t in terms]
    rows = np.tile(idx.ravel(), len(cols))
    M = sp.csr_array((np.concatenate([v.ravel() for v in data]),
                      (rows, np.concatenate([c.ravel() for c in cols]))),
                     shape=(grid.npoints, grid.npoints))
    M.eliminate_zeros()
    return M


def _same_csr(M, R):
    return (M.format == R.format == "csr" and np.array_equal(M.indptr, R.indptr)
            and np.array_equal(M.indices, R.indices) and np.array_equal(M.data, R.data))


def test_assembled_matrices_are_those_of_the_per_level_builder():
    # A = 1, q = (32, 0), lam = 0 on 16 x 16: the east coefficient
    # 1/h^2 + b/(2h) is exactly 0, and the one-level slice drops those zeros
    coeffs = make_coeffs(A="1", q=("32", "0"), mu="1", L=(1.0, 1.0))
    grid = build_grid(coeffs.geometry, (16, 16), 16)
    M = assemble_action(coeffs, [0.0, 0.0], grid)
    R = _per_level_csr(CoefficientSamples(coeffs, grid).stencil([0.0, 0.0]), 0, grid)
    assert M.nnz == 4 * grid.npoints
    assert _same_csr(M, R) and _same_csr(M.T.tocsr(), R.T.tocsr())
    # a12 and a time-dependent mu: every level of ActionFamily.matrix
    coeffs = make_coeffs(**COEFFS_2D)
    grid = build_grid(coeffs.geometry, (16, 12), 8)
    lam = [0.8, -0.3]
    samples = CoefficientSamples(coeffs, grid)
    family = ActionFamily(samples, lam)
    terms = samples.stencil(lam)
    # the mixed terms, as the per-level builder made them from a12 at one level
    for term, ref in zip(terms[5:], _mixed_terms(samples.a12[2], grid.h, axes=(0, 1))):
        assert np.array_equal(term[2], ref)
    for m in range(grid.n_t + 1):
        assert _same_csr(family.matrix(m), _per_level_csr(terms, m % grid.n_t, grid))
    assert _same_csr(assemble_action(samples, lam, grid), _per_level_csr(terms, 0, grid))


@pytest.mark.parametrize("time_dependent", [False, True], ids=["one-level", "n_t-levels"])
def test_one_pass_levels_are_the_crank_nicolson_matrices(time_dependent):
    # I - dt/2 E of every level shares the one sparsity pattern of the entry
    # array, equals the dense matrix made from ActionFamily.matrix, and its
    # MMD factor solves as a dense solve does, in both orientations; the
    # all-level product equals the product of each level's CSC matrix
    spec = dict(COEFFS_2D)
    if not time_dependent:
        spec["mu"] = "1 + 0.5*cos(2*pi*x)*cos(2*pi*y)"
    coeffs = make_coeffs(**spec)
    grid = build_grid(coeffs.geometry, (16, 12), 8)
    lam = [0.8, -0.3]
    samples = CoefficientSamples(coeffs, grid)
    family = ActionFamily(samples, lam)
    half = 0.5 * grid.dt
    entries, indices, indptr, diag = _sparse_levels(samples.stencil(lam), grid)
    L = _cn_matrices(entries, indices, indptr, diag, half)
    assert len(L) == (grid.n_t if time_dependent else 1)
    n = grid.npoints
    eye = np.eye(n)
    psi = np.random.default_rng(8).standard_normal((grid.n_t, n))
    for adjoint in (False, True):
        Epsi = family.actions(psi, adjoint)
        for m in range(grid.n_t):
            E = sp.csc_array((entries[family._level(m)], indices, indptr), shape=(n, n))
            assert np.array_equal(Epsi[m], (E.T if adjoint else E) @ psi[m])
    for lev, Lm in enumerate(L):
        assert Lm.format == "csc"
        assert np.array_equal(Lm.indptr, indptr) and np.array_equal(Lm.indices, indices)
        dense = family.matrix(lev).toarray()
        assert np.array_equal(Lm.toarray(), eye - half * dense)
        for trans in ("N", "T"):
            lhs = eye - half * dense
            ref = np.linalg.solve(lhs.T if trans == "T" else lhs, psi[lev])
            np.testing.assert_allclose(_splu(Lm).solve(psi[lev], trans), ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("dim", [1, 2], ids=["1d-corners", "2d-a12"])
def test_all_level_products_match_dense_products(dim):
    # one vectorized pass gives E_m psi_m and E_m^T psi_m at every level, as
    # per-level dense products do: 1D with its periodic corners, 2D with
    # its mixed term A_12 != 0
    coeffs, grid, lam = case(dim, dict(A="1 + 0.5*cos(2*pi*x)", q="0.3*sin(2*pi*x)",
                                       mu="1 + 0.5*cos(2*pi*t)*cos(2*pi*x)"), 16, 8, 0.7)
    if dim == 2:
        grid = build_grid(coeffs.geometry, (12, 10), 8)
    family = ActionFamily(CoefficientSamples(coeffs, grid), lam)
    if dim == 1:
        corners = family.matrix(3).toarray()[[0, -1], [-1, 0]]
        assert np.all(corners != 0)
    else:
        assert family.matrix(0).nnz == 9 * grid.npoints
    psi = np.random.default_rng(9).standard_normal((grid.n_t, grid.npoints))
    for adjoint in (False, True):
        Epsi = family.actions(psi, adjoint)
        for m in range(grid.n_t):
            E = family.matrix(m).toarray()
            ref = (E.T if adjoint else E) @ psi[m]
            np.testing.assert_allclose(Epsi[m], ref, rtol=0,
                                       atol=1e-13 * np.max(np.abs(E)) * np.max(np.abs(psi[m])))


@pytest.mark.parametrize("dim", [1, 2])
def test_sparse_level_entries_are_c_contiguous(dim):
    # the entries of every level are one C-contiguous (n_levels, nnz) array
    coeffs, grid, lam = case(dim, dict(mu="1 + 0.5*cos(2*pi*t)*cos(2*pi*x)"), 16, 8, 0.7)
    entries, indices, _, _ = _sparse_levels(
        CoefficientSamples(coeffs, grid).stencil(lam), grid)
    assert entries.shape == (grid.n_t, indices.size)
    assert entries.flags.c_contiguous


def test_non_finite_action_entries_raise():
    coeffs = make_coeffs(**COEFFS_2D)
    grid = build_grid(coeffs.geometry, (16, 12), 8)
    samples = CoefficientSamples(coeffs, grid)
    samples.mu = samples.mu.copy()
    samples.mu[3, 2, 5] = np.nan
    with pytest.raises(ValueError, match="E_lam entries must not contain infs or NaNs"):
        ActionFamily(samples, [0.8, -0.3])
    # the one check in the term pass covers the 1D steady route too, and
    # its typed error names the cause
    grid = build_grid(GEO1, 16)
    with pytest.raises(operators.NonFiniteActionError,
                       match=r"lam = \[1e\+308\] is too large for these coefficients"):
        SteadyAction(CoefficientSamples(make_coeffs(), grid), [1e308])
    samples = CoefficientSamples(make_coeffs(), grid)
    samples.mu = np.full_like(samples.mu, np.inf)
    with pytest.raises(operators.NonFiniteActionError, match="the samples of mu are not finite"):
        SteadyAction(samples, [0.5])


def _factor_case(pattern, time_dependent=True):
    """(coeffs, lam) of a 2D sparsity pattern: the 5-point stencil of a
    shear flow lifted by `shear_full_coefficients`, or the 9-point stencil
    of COEFFS_2D with its mixed term a12."""
    if pattern == "shear-5pt":
        t_part = "*(1 + 0.4*sin(2*pi*t))" if time_dependent else ""
        a, q1, mu = (PeriodicField.scalar(text, GEO1) for text in (
            "1 + 0.2*cos(2*pi*x + 1)", "cos(2*pi*x + 0.5)" + t_part,
            "1 + 0.5*cos(2*pi*x + 2)" + t_part))
        return shear_full_coefficients(a, q1, mu), [-0.6, 0.5]
    spec = dict(COEFFS_2D)
    if not time_dependent:
        spec["mu"] = "1 + 0.5*cos(2*pi*x)*cos(2*pi*y)"
    return make_coeffs(**spec), [0.8, -0.3]


@pytest.mark.parametrize("pattern", ["shear-5pt", "a12-9pt"])
def test_family_level_factors_solve_as_dense(pattern):
    # each level's factor of I - dt/2 E_m, made on the one column ordering of
    # the family, solves as a dense solve does, in both orientations, on a
    # grid that is not square
    coeffs, lam = _factor_case(pattern)
    grid = build_grid(coeffs.geometry, (12, 10), 8)
    family = ActionFamily(CoefficientSamples(coeffs, grid), lam)
    assert (family.matrix(0).nnz == 9 * grid.npoints) is (pattern == "a12-9pt")
    eye = np.eye(grid.npoints)
    rng = np.random.default_rng(11)
    for m in range(1, grid.n_t + 1):
        lhs = eye - 0.5 * grid.dt * family.matrix(m).toarray()
        for trans, M in (("N", lhs), ("T", lhs.T)):
            b = rng.standard_normal(grid.npoints)
            ref = np.linalg.solve(M, b)
            np.testing.assert_allclose(family._solves[m](b, trans), ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))


def test_family_computes_one_column_ordering(monkeypatch):
    # one MMD_AT_PLUS_A ordering per family, every level factored in NATURAL
    # order on it, all with the module's SuperLU settings
    calls = []

    def counting_splu(M, permc_spec, **kw):
        calls.append((permc_spec, kw))
        return splu(M, permc_spec=permc_spec, **kw)

    monkeypatch.setattr(operators, "splu", counting_splu)
    for pattern in ("shear-5pt", "a12-9pt"):
        coeffs, lam = _factor_case(pattern)
        grid = build_grid(coeffs.geometry, (12, 10), 8)
        calls.clear()
        ActionFamily(CoefficientSamples(coeffs, grid), lam)
        orderings = [spec for spec, _ in calls]
        assert orderings == ["MMD_AT_PLUS_A"] + ["NATURAL"] * grid.n_t
        assert all(kw == {"relax": operators.SUPERLU_RELAX,
                          "panel_size": operators.SUPERLU_PANEL_SIZE} for _, kw in calls)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_family_build_makes_one_stencil_pass(monkeypatch, dim):
    # one pass over the axis stencils per family: the 1D factors and the
    # sparse entries read the same terms
    coeffs, grid, lam = case(dim, dict(A="1 + 0.5*cos(2*pi*x)", q="0.3*sin(2*pi*x)",
                                       mu="1 + 0.5*cos(2*pi*t)*cos(2*pi*x)"), 32, 8, 0.7)
    samples = CoefficientSamples(coeffs, grid)
    calls = []

    def counting_stencil(*args, **kw):
        calls.append(kw.get("axis"))
        return _axis_stencil(*args, **kw)

    monkeypatch.setattr(operators, "_axis_stencil", counting_stencil)
    ActionFamily(samples, lam)
    assert len(calls) == dim


@pytest.mark.parametrize("pattern", ["shear-5pt", "a12-9pt"])
def test_steady_factor_2d_solves_as_dense(pattern):
    coeffs, lam = _factor_case(pattern, time_dependent=False)
    grid = build_grid(coeffs.geometry, (12, 10))
    op = SteadyAction(CoefficientSamples(coeffs, grid), lam)
    sigma = op.gershgorin + 0.5
    shifted = sigma * np.eye(grid.npoints) - assemble_action(coeffs, lam, grid).toarray()
    factor = op.factor(sigma)
    rng = np.random.default_rng(12)
    for trans, M in (("N", shifted), ("T", shifted.T)):
        b = rng.standard_normal(grid.npoints)
        ref = np.linalg.solve(M, b)
        np.testing.assert_allclose(factor.solve(b, trans), ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))
