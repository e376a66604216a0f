import math

import numpy as np
import pytest

from kppspeed.fields import (
    CellGeometry,
    CoefficientSet,
    FieldError,
    NonEllipticError,
    PeriodicField,
    combine_scalar_fields,
    ellipticity_bounds,
    gradient_drift,
    spatial_average,
    temporal_average,
)
from kppspeed.speed import shear_full_coefficients

GEO1 = CellGeometry(1.0, (1.0,))
GEO2 = CellGeometry(1.0, (1.0, 1.0))


def test_geometry_validation():
    with pytest.raises(FieldError):
        CellGeometry(0.0, (1.0,))
    with pytest.raises(FieldError):
        CellGeometry(1.0, (1.0, -2.0))
    # nan <= 0 is False, so a sign test alone lets these through
    for bad in (math.nan, math.inf):
        with pytest.raises(FieldError, match="time period must be finite"):
            CellGeometry(bad, (1.0,))
        with pytest.raises(FieldError, match="cell lengths must be finite"):
            CellGeometry(1.0, (1.0, bad))
    assert CellGeometry(2.0, (1.0, 3.0)).dimension == 2


def test_periodic_wrap_exact_on_dyadic_points():
    f = PeriodicField.scalar("1 + 0.5*cos(2*pi*x) + 0.25*sin(2*pi*t)", GEO1)
    # dyadic points plus integer multiples of the periods reduce exactly
    xs = np.arange(16) / 16.0
    ts = np.arange(16) / 16.0
    for k, m in [(1, 1), (-2, 3), (5, -7)]:
        np.testing.assert_array_equal(f(ts + k * 1.0, xs + m * 1.0), f(ts, xs))


def test_periodic_wrap_random_points():
    rng = np.random.default_rng(7)
    f = PeriodicField.scalar("1 + 0.5*cos(2*pi*x)*sin(2*pi*t)", GEO1)
    t, x = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    k = rng.integers(-10, 10, 50)
    m = rng.integers(-10, 10, 50)
    # shifted arguments round, so equality holds to the rounding of t + k*T
    np.testing.assert_allclose(f(t + k, x + m), f(t, x), atol=1e-10)


def test_spatial_average_examples():
    # cosine has zero cell mean
    mu = PeriodicField.scalar("1 + 0.5*cos(2*pi*x)", GEO1)
    mubar = spatial_average(mu)
    np.testing.assert_allclose(mubar(np.linspace(0, 1, 5), 0.3), 1.0, atol=1e-12)
    # averaging a space-constant is the identity
    mu_t = PeriodicField.scalar("1 + sin(2*pi*t)", GEO1)
    avg = spatial_average(mu_t)
    ts = np.linspace(0, 1, 9)
    np.testing.assert_allclose(avg(ts, 0.0), mu_t(ts, 0.0), atol=1e-12)
    # separable product with zero cell mean
    mu_sep = PeriodicField.scalar("cos(2*pi*t)*cos(2*pi*x)", GEO1)
    np.testing.assert_allclose(spatial_average(mu_sep)(ts, 0.0), 0.0, atol=1e-12)


def test_temporal_average_examples():
    mu = PeriodicField.scalar("1 + sin(2*pi*t)", GEO1)
    muhat = temporal_average(mu)
    assert muhat.time_independent
    np.testing.assert_allclose(muhat(0.7, np.linspace(0, 1, 5)), 1.0, atol=1e-12)

    mu_x = PeriodicField.scalar("1 + 0.5*cos(2*pi*x)", GEO1)
    xs = np.linspace(0, 1, 9)
    np.testing.assert_allclose(temporal_average(mu_x)(0.0, xs), mu_x(0.0, xs), atol=1e-12)

    mu_sum = PeriodicField.scalar("1 + 0.5*cos(2*pi*x) + 0.3*sin(2*pi*t)", GEO1)
    np.testing.assert_allclose(temporal_average(mu_sum)(0.0, xs), mu_x(0.0, xs), atol=1e-12)


def test_average_order_commutes():
    mu = PeriodicField.scalar("1 + 0.5*cos(2*pi*x)*sin(2*pi*t) + 0.2*cos(2*pi*t)", GEO1)
    a = temporal_average(spatial_average(mu))(0.0, 0.0)
    b = spatial_average(temporal_average(mu))(0.0, 0.0)
    assert abs(a - b) <= 1e-10
    assert abs(a - 1.0) <= 1e-10


def test_gradient_drift_1d_closed_form():
    Q = PeriodicField.scalar("cos(2*pi*x)", GEO1)
    q, V = gradient_drift(Q)
    xs = np.linspace(0, 1, 65)
    np.testing.assert_allclose(q.component(0)(0.0, xs),
                               -2 * math.pi * np.sin(2 * math.pi * xs), atol=1e-12)
    expected_V = (-2 * math.pi**2 * np.cos(2 * math.pi * xs)
                  - math.pi**2 * np.sin(2 * math.pi * xs) ** 2)
    np.testing.assert_allclose(V(0.0, xs), expected_V, atol=1e-10)


def test_gradient_drift_zero_potential():
    Q = PeriodicField.scalar("0", GEO1)
    q, V = gradient_drift(Q)
    assert q.component(0)(0.0, 0.3) == 0.0
    assert V(0.0, 0.3) == 0.0


def test_gradient_drift_2d_separable():
    Q = PeriodicField.scalar("cos(2*pi*x) + cos(2*pi*y)", GEO2)
    q, V = gradient_drift(Q)
    xs = np.linspace(0, 1, 17)
    np.testing.assert_allclose(q.component(0)(0.0, xs, 0.25),
                               -2 * math.pi * np.sin(2 * math.pi * xs), atol=1e-12)
    np.testing.assert_allclose(q.component(1)(0.0, 0.25, xs),
                               -2 * math.pi * np.sin(2 * math.pi * xs), atol=1e-12)


def test_gradient_drift_curl_free_2d():
    Q = PeriodicField.scalar("cos(2*pi*x)*sin(2*pi*y) + 0.3*cos(2*pi*y)", GEO2)
    q, _ = gradient_drift(Q)
    # cross-derivatives of the symbolic components agree pointwise
    dqx_dy = q.entry_expression(0).differentiate("y")
    dqy_dx = q.entry_expression(1).differentiate("x")
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, (2, 40))
    np.testing.assert_allclose(dqx_dy(x=pts[0], y=pts[1]), dqy_dx(x=pts[0], y=pts[1]),
                               atol=1e-12)


def test_gradient_drift_rejects_bad_potentials():
    with pytest.raises(FieldError):
        gradient_drift(PeriodicField.scalar("cos(2*pi*x)*sin(2*pi*t)", GEO1))
    from kppspeed.expressions import NonDifferentiableError
    with pytest.raises(NonDifferentiableError):
        gradient_drift(PeriodicField.scalar("abs(x - 0.5)", GEO1))


def test_ellipticity_bounds_examples():
    A = PeriodicField.matrix("2 + cos(2*pi*x)", GEO1)
    gamma, Gamma = ellipticity_bounds(A)
    assert gamma == pytest.approx(1.0, abs=1e-6)
    assert Gamma == pytest.approx(3.0, abs=1e-6)

    I2 = PeriodicField.matrix("1", GEO2)
    assert ellipticity_bounds(I2) == (1.0, 1.0)

    bad = PeriodicField.matrix("-1", GEO1)
    with pytest.raises(NonEllipticError):
        ellipticity_bounds(bad)


def test_ellipticity_2d_off_diagonal():
    A = PeriodicField.matrix({"11": "2", "22": "2", "12": "0.5*cos(2*pi*x)"}, GEO2)
    gamma, Gamma = ellipticity_bounds(A)
    assert gamma == pytest.approx(1.5, abs=1e-6)
    assert Gamma == pytest.approx(2.5, abs=1e-6)


def _derived_fields():
    """(field, time_independent) of each derived construction, most of
    them with callable entries whose time dependence their maker gives, and
    of fields rebuilt from such entries, as the CLI and the reduced shear
    problem build theirs; a user's callable is taken to depend on t."""
    x_only = PeriodicField.scalar("1 + 0.5*cos(2*pi*x)", GEO1)
    t_only = PeriodicField.scalar("1 + 0.5*sin(2*pi*t)", GEO1)
    const = PeriodicField.scalar("2", GEO1)
    scaled = CoefficientSet.from_expressions(A="1", q="sin(2*pi*t)", mu="1").with_scaled(
        kappa=2.0, drift_B=3.0)
    lifted = shear_full_coefficients(const, t_only, x_only)
    combined = combine_scalar_fields([(2.0, x_only)])
    user = PeriodicField.scalar(lambda t, x: 1.5 + 0.0 * x, GEO1)
    return {
        "component": (PeriodicField.vector(["cos(2*pi*x)", "1"], GEO2).component(1), True),
        "combine": (combine_scalar_fields([(2.0, x_only), (1.0, const)]), True),
        "spatial-average": (spatial_average(x_only), True),
        "temporal-average": (temporal_average(t_only), True),
        "gradient-drift-V": (gradient_drift(const)[1], True),
        "scaled-A": (scaled.A, True),
        "scaled-q": (scaled.q, False),
        "lifted-A": (lifted.A, True),
        "lifted-q": (lifted.q, False),
        "lifted-mu": (lifted.mu, True),
        "rebuilt-scalar": (PeriodicField("scalar", combined.entries, GEO1), True),
        "rebuilt-matrix": (PeriodicField.matrix(combined.entries, GEO1), True),
        "user-callable": (user, False),
        "rebuilt-user-callable": (PeriodicField.matrix(user.entries, GEO1), False),
    }


@pytest.mark.parametrize("name", list(_derived_fields()))
def test_derived_fields_inherit_independence_flags(name):
    field, expected = _derived_fields()[name]
    assert field.time_independent is expected


def test_with_scaled_samples_the_scaled_coefficients():
    cs = CoefficientSet.from_expressions(
        A={"a11": "1 + 0.3*cos(2*pi*x)", "a22": "2", "a12": "0.2*sin(2*pi*y)"},
        q=("sin(2*pi*t)*cos(2*pi*y)", "cos(2*pi*x)"), L=(1.0, 1.0))
    scaled = cs.with_scaled(kappa=2.5, drift_B=3)
    t, x, y = np.meshgrid(np.linspace(0, 1, 4), np.linspace(0, 1, 9),
                          np.linspace(-0.5, 1.5, 11), indexing="ij")
    for ij in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert np.array_equal(scaled.A.eval_entry(ij, t, x, y), 2.5 * cs.A.eval_entry(ij, t, x, y))
    for i in (0, 1):
        assert np.array_equal(scaled.q.eval_entry(i, t, x, y), 3 * cs.q.eval_entry(i, t, x, y))
    assert scaled.mu is cs.mu


@pytest.mark.parametrize("a", [np.int64(2), np.float32(2.0)], ids=["int64", "float32"])
def test_numpy_scalar_matrix_is_a_times_identity(a):
    A = PeriodicField.matrix(a, GEO2)
    assert A.eval_entry((0, 0), 0.1, 0.3, 0.7) == 2.0
    assert A.eval_entry((1, 1), 0.1, 0.3, 0.7) == 2.0
    assert A.eval_entry((0, 1), 0.1, 0.3, 0.7) == 0.0


def test_matrix_symmetry_enforced():
    asym = PeriodicField("matrix",
                         ((PeriodicField.scalar("1", GEO2).entries,
                           PeriodicField.scalar("x", GEO2).entries),
                          (PeriodicField.scalar("y", GEO2).entries,
                           PeriodicField.scalar("1", GEO2).entries)),
                         GEO2)
    with pytest.raises(FieldError):
        asym.check_symmetric()


@pytest.mark.parametrize("A", [{"a11": "2", "a22": "2", "a12": "0.1", "a21": "0.5"}],
                         ids=["mapping"])
def test_asymmetric_matrix_is_rejected_not_symmetrized(A):
    field = PeriodicField.matrix(A, GEO2)
    assert field.eval_entry((0, 1), 0.0, 0.3, 0.7) == 0.1
    assert field.eval_entry((1, 0), 0.0, 0.3, 0.7) == 0.5
    with pytest.raises(FieldError, match="not symmetric"):
        CoefficientSet.from_expressions(A=A, L=(1.0, 1.0))


@pytest.mark.parametrize("A", [["2", "3"], [["2", "0.1"], ["0.1", "2"]]],
                         ids=["diagonal", "nested"])
def test_matrix_sequence_is_rejected(A):
    with pytest.raises(FieldError, match="one value a .* or a mapping of 'aij' keys"):
        PeriodicField.matrix(A, GEO2)


def test_matrix_mapping_mirrors_an_entry_given_on_one_side():
    cs = CoefficientSet.from_expressions(A={"a11": "2", "a22": "2", "a12": "0.1"},
                                         L=(1.0, 1.0))
    assert cs.A.eval_entry((0, 1), 0.0, 0.3, 0.7) == 0.1
    assert cs.A.eval_entry((1, 0), 0.0, 0.3, 0.7) == 0.1


def test_coefficient_set_construction_and_flags():
    cs = CoefficientSet.from_expressions(A="1", q="0", mu="1 + 0.5*cos(2*pi*x)",
                                         T=1.0, L=1.0)
    assert cs.time_independent
    gamma, Gamma = cs.ellipticity()
    assert gamma == Gamma == 1.0

    cs2 = CoefficientSet.from_expressions(A="1", mu="mu0", T=1.0, L=(1.0, 1.0),
                                          params={"mu0": 2.0})
    assert cs2.dimension == 2
    assert cs2.mu(0.0, 0.1, 0.2) == 2.0


def test_combine_scalar_fields():
    f = PeriodicField.scalar("cos(2*pi*x)", GEO1)
    g = PeriodicField.scalar("sin(2*pi*t)", GEO1)
    h = combine_scalar_fields([(2.0, f), (-1.0, g), (0.5, PeriodicField.scalar(1.0, GEO1))])
    t, x = 0.3, 0.7
    expected = 0.5 + 2 * math.cos(2 * math.pi * x) - math.sin(2 * math.pi * t)
    assert h(t, x) == pytest.approx(expected, rel=1e-14)
    assert not h.time_independent


@pytest.mark.parametrize("field", [
    PeriodicField.scalar(0.7, GEO1),
    PeriodicField.scalar("1 + 0.5*cos(2*pi*x)", GEO1),
    PeriodicField.scalar("1 + 0.5*sin(2*pi*t)", GEO1),
    PeriodicField.scalar(lambda t, x: 1.5, GEO1),
], ids=["constant", "expression-in-x", "expression-in-t", "callable-float"])
def test_every_entry_samples_to_the_broadcast_shape_in_float64(field):
    t = np.linspace(0.0, 1.3, 5)[:, None]
    x = np.linspace(-0.4, 2.2, 7)
    pointwise = np.array([[float(field(ti, xj)) for xj in x] for ti in t[:, 0]])
    for sample in (field(t, x), field.eval_entry(None, t, x)):
        assert isinstance(sample, np.ndarray)
        assert sample.dtype == np.float64 and sample.shape == (5, 7)
        np.testing.assert_allclose(sample, pointwise, rtol=1e-14, atol=0.0)
    for sample in (field(0.3, 0.45), field.eval_entry(None, 0.3, 0.45)):
        assert isinstance(sample, np.ndarray)
        assert sample.dtype == np.float64 and sample.shape == ()
