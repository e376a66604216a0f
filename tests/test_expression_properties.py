"""Property test: printing an expression tree and parsing it back gives the
same tree, whatever the nesting of operators, signs and calls."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kppspeed.expressions import (  # noqa: E402
    FUNCTIONS,
    VARIABLES,
    Bin,
    Call,
    Expression,
    Neg,
    Num,
    Var,
    parse_expression,
)

# the parser reads a literal without its sign; a negative value is Neg(Num)
leaves = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Num),
    st.sampled_from(VARIABLES).map(Var),
)


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.builds(Bin, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


trees = st.recursive(leaves, _extend, max_leaves=24)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(trees)
def test_print_parse_round_trip(root):
    printed = Expression(root).to_string()
    again = parse_expression(printed)
    assert again.root == root
    assert again.to_string() == printed
