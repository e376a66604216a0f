"""Closed-form checks of the Hill reference.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import math
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from hill import Trig, principal_k, ray_speed  # noqa: E402

ONE = Trig.const(1.0)
ZERO = Trig.const(0.0)


def space_independent():
    a = 1.2 + 0.3 * Trig.cos(1, 0, 0.4)
    q = 0.25 + 0.4 * Trig.sin(1, 0) + 0.1 * Trig.cos(2, 0)
    mu = 1.5 + 0.5 * Trig.cos(1, 0, 0.3)
    return a, q, mu


@pytest.mark.parametrize("lam", [-1.3, 0.0, 0.7])
def test_space_independent_k_is_minus_time_mean(lam):
    a, q, mu = space_independent()
    expected = -(lam * lam * a.mean() - lam * q.mean() + mu.mean())
    assert principal_k(a, q, mu, lam) == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("e", [1, -1])
def test_space_independent_speed_closed_form(e):
    a, q, mu = space_independent()
    c_star, s_star = ray_speed(a, q, mu, e)
    assert c_star == pytest.approx(2 * math.sqrt(a.mean() * mu.mean()) + q.mean() * e,
                                   abs=1e-10)
    assert s_star == pytest.approx(math.sqrt(mu.mean() / a.mean()), rel=1e-5)


@pytest.mark.parametrize("lam", [0.0, 0.8])
def test_separable_growth_shifts_k_by_the_time_mean(lam):
    a = 1 + 0.3 * Trig.cos(0, 1)
    q = 0.4 * Trig.sin(0, 1, 0.2)
    mu1 = 1 + 0.5 * Trig.cos(0, 1, 1.1)
    mu2 = 0.3 + 0.6 * Trig.sin(1, 0) + 0.2 * Trig.cos(2, 0)
    k1 = principal_k(a, q, mu1, lam)
    assert principal_k(a, q, mu1 + mu2, lam) == pytest.approx(k1 - mu2.mean(), abs=1e-11)


def test_non_separable_second_order_perturbation():
    # mu = 1 + eps cos(kx) sin(wt): the first-order shift vanishes and the
    # second-order one is -eps^2 k^2 / (4 (k^4 + w^2)), odd orders vanish
    eps = 1e-2
    mu = 1 + eps * Trig.cos(0, 1) * Trig.sin(1, 0)
    kx = w = 2 * math.pi
    shift = eps**2 * kx**2 / (4 * (kx**4 + w**2))
    assert principal_k(ONE, ZERO, mu, 0.0) == pytest.approx(-1 - shift, abs=1e-3 * shift)


def test_mode_truncation_is_converged():
    a = 1 + 0.2 * Trig.cos(0, 1, 0.5)
    q = 0.3 * Trig.sin(0, 1)
    mu = 1 + 0.6 * Trig.cos(0, 1, 0.2) * (1 + 0.6 * Trig.sin(1, 0, 0.7))
    for lam in (0.0, -1.0, -2.0):
        coarse = principal_k(a, q, mu, lam)
        fine = principal_k(a, q, mu, lam, time_modes=10, space_modes=20)
        assert coarse == pytest.approx(fine, abs=1e-10)


def test_steep_gradient_drift_is_converged():
    # the largest drift of the steady workload, q = B Q' with B = 10
    q = 10 * (-2 * math.pi * 0.35) * Trig.sin(0, 1, 0.4)
    for lam in (0.0, -1.0):
        coarse = principal_k(ONE, q, Trig.const(1.1), lam, space_modes=32)
        fine = principal_k(ONE, q, Trig.const(1.1), lam, space_modes=48)
        assert coarse == pytest.approx(fine, abs=1e-10)
