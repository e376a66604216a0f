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

GEO1 = CellGeometry(1.0, (1.0,))
GEO2 = CellGeometry(1.0, (1.0, 1.0))


def test_geometry_validation():
    with pytest.raises(FieldError):
        CellGeometry(0.0, (1.0,))
    with pytest.raises(FieldError):
        CellGeometry(1.0, (1.0, -2.0))
    assert CellGeometry(2.0, (1.0, 3.0)).cell_volume == 3.0


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
    assert mubar.space_independent
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
    gamma, Gamma = ellipticity_bounds(A, samples=64)
    assert gamma == pytest.approx(1.0, abs=1e-6)
    assert Gamma == pytest.approx(3.0, abs=1e-6)

    I2 = PeriodicField.matrix("1", GEO2)
    assert ellipticity_bounds(I2, samples=8) == (1.0, 1.0)

    bad = PeriodicField.matrix("-1", GEO1)
    with pytest.raises(NonEllipticError):
        ellipticity_bounds(bad, samples=8)


def test_ellipticity_2d_off_diagonal():
    A = PeriodicField.matrix({"11": "2", "22": "2", "12": "0.5*cos(2*pi*x)"}, GEO2)
    gamma, Gamma = ellipticity_bounds(A, samples=32)
    assert gamma == pytest.approx(1.5, abs=1e-6)
    assert Gamma == pytest.approx(2.5, abs=1e-6)


def test_declared_flags_verified():
    with pytest.raises(FieldError):
        PeriodicField.scalar("sin(2*pi*t)", GEO1, time_independent=True)
    with pytest.raises(FieldError):
        PeriodicField.scalar("cos(2*pi*x)", GEO1, space_independent=True)


def test_matrix_symmetry_enforced():
    asym = PeriodicField("matrix",
                         ((PeriodicField.scalar("1", GEO2).entries,
                           PeriodicField.scalar("x", GEO2).entries),
                          (PeriodicField.scalar("y", GEO2).entries,
                           PeriodicField.scalar("1", GEO2).entries)),
                         GEO2, check_flags=False)
    with pytest.raises(FieldError):
        asym.check_symmetric()


@pytest.mark.parametrize("A", [{"a11": "2", "a22": "2", "a12": "0.1", "a21": "0.5"},
                               [["2", "0.1"], ["0.5", "2"]]],
                         ids=["mapping", "nested"])
def test_asymmetric_matrix_is_rejected_not_symmetrized(A):
    field = PeriodicField.matrix(A, GEO2)
    assert field.eval_entry((0, 1), 0.0, 0.3, 0.7) == 0.1
    assert field.eval_entry((1, 0), 0.0, 0.3, 0.7) == 0.5
    with pytest.raises(FieldError, match="not symmetric"):
        CoefficientSet.from_expressions(A=A, L=(1.0, 1.0))


def test_matrix_mapping_mirrors_an_entry_given_on_one_side():
    cs = CoefficientSet.from_expressions(A={"a11": "2", "a22": "2", "a12": "0.1"},
                                         L=(1.0, 1.0))
    assert cs.A.eval_entry((0, 1), 0.0, 0.3, 0.7) == 0.1
    assert cs.A.eval_entry((1, 0), 0.0, 0.3, 0.7) == 0.1


def test_coefficient_set_construction_and_flags():
    cs = CoefficientSet.from_expressions(A="1", q="0", mu="1 + 0.5*cos(2*pi*x)",
                                         T=1.0, L=1.0)
    assert cs.time_independent and not cs.space_independent
    gamma, Gamma = cs.ellipticity()
    assert gamma == Gamma == 1.0

    cs2 = CoefficientSet.from_expressions(A="1", mu="mu0", T=1.0, L=(1.0, 1.0),
                                          params={"mu0": 2.0})
    assert cs2.dimension == 2
    assert cs2.mu(0.0, 0.1, 0.2) == 2.0


def test_combine_scalar_fields():
    f = PeriodicField.scalar("cos(2*pi*x)", GEO1)
    g = PeriodicField.scalar("sin(2*pi*t)", GEO1)
    h = combine_scalar_fields([(2.0, f), (-1.0, g)], constant=0.5)
    t, x = 0.3, 0.7
    expected = 0.5 + 2 * math.cos(2 * math.pi * x) - math.sin(2 * math.pi * t)
    assert h(t, x) == pytest.approx(expected, rel=1e-14)
    assert not h.time_independent and not h.space_independent


@pytest.mark.parametrize("field", [
    PeriodicField.scalar(0.7, GEO1),
    PeriodicField.scalar("1 + 0.5*cos(2*pi*x)", GEO1),
    PeriodicField.scalar("1 + 0.5*sin(2*pi*t)", GEO1),
    PeriodicField.scalar(lambda t, x: 1.5, GEO1),
    PeriodicField.tabulated(np.arange(12.0).reshape(3, 4), GEO1),
], ids=["constant", "expression-in-x", "expression-in-t", "callable-float", "table"])
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
