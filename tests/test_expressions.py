import math

import numpy as np
import pytest

from kppspeed.expressions import (
    ArityError,
    ExpressionSyntaxError,
    NonDifferentiableError,
    UnknownIdentifierError,
    parse_expression,
)


def test_basic_eval():
    e = parse_expression("1 + 0.5*cos(2*pi*x)")
    assert e(x=0.0) == pytest.approx(1.5, abs=1e-15)


def test_power_precedence():
    e = parse_expression("2^3*x")
    assert e(x=1.0) == pytest.approx(8.0, abs=1e-15)


def test_unbalanced_paren_offset():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("sin(pi")
    assert exc.value.offset == 7


def test_power_right_assoc_and_unary_minus():
    assert parse_expression("2^3^2")() == 512.0
    assert parse_expression("-2^2")() == -4.0
    assert parse_expression("2^-1")() == 0.5
    assert parse_expression("(-2)^2")() == 4.0


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse_expression("1 + beta")
    assert exc.value.name == "beta"
    assert exc.value.offset == 5


def test_parameters_substituted():
    e = parse_expression("amp*sin(2*pi*t)", {"amp": 3.0})
    assert e(t=0.25) == pytest.approx(3.0, rel=1e-14)


def test_bound_negative_parameters_print_as_atoms():
    printed = parse_expression("a^2 + -b", {"a": -1.0, "b": -2.0}).to_string()
    assert parse_expression(printed)() == 3.0


def test_arity_errors():
    with pytest.raises(ArityError):
        parse_expression("sin + 1")
    with pytest.raises(ArityError):
        parse_expression("x(2)")


def test_empty_and_trailing():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("   ")
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("1 + 2 3")
    assert exc.value.offset == 7


def test_vectorized_eval():
    e = parse_expression("x^2 + sin(t)")
    x = np.linspace(0, 1, 7)
    t = 0.3
    np.testing.assert_allclose(e(t=t, x=x), x**2 + math.sin(t), rtol=1e-15)


@pytest.mark.parametrize(
    "text",
    [
        "1 + 0.5*cos(2*pi*x)",
        "2^3*x",
        "-x^2 + 3*x - 1/(2 + t)",
        "-(-x)",
        "sqrt(abs(x - y))",
        "exp(-(x - 0.5)^2/0.1)",
        "2^-x^2",
        "(x + 1)*(x - 1)/(x^2 + 1)",
        "-(x * y)",
    ],
)
def test_pretty_print_round_trip(text):
    e = parse_expression(text)
    printed = e.to_string()
    again = parse_expression(printed)
    assert again.root == e.root
    # idempotent: printing the reparsed tree gives the same text
    assert again.to_string() == printed


def test_differentiate_polynomial_and_trig():
    e = parse_expression("cos(2*pi*x)", {})
    d = e.differentiate("x")
    xs = np.linspace(0, 1, 33)
    np.testing.assert_allclose(d(x=xs), -2 * math.pi * np.sin(2 * math.pi * xs), atol=1e-12)

    p = parse_expression("x^3 - 2*x")
    dp = p.differentiate("x")
    np.testing.assert_allclose(dp(x=xs), 3 * xs**2 - 2, atol=1e-12)


def test_differentiate_quotient_and_exp():
    e = parse_expression("exp(x)/(1 + x^2)")
    d = e.differentiate("x")
    xs = np.linspace(-1, 1, 21)
    expected = np.exp(xs) * (1 + xs**2 - 2 * xs) / (1 + xs**2) ** 2
    np.testing.assert_allclose(d(x=xs), expected, rtol=1e-12)


def test_differentiate_abs_rejected():
    e = parse_expression("abs(x)")
    with pytest.raises(NonDifferentiableError):
        e.differentiate("x")


def test_differentiate_other_variable_is_zero():
    e = parse_expression("cos(2*pi*x)")
    d = e.differentiate("t")
    assert d(x=0.3) == 0.0
