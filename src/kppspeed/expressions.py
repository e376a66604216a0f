"""Small arithmetic expression language for coefficient definitions.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] power
    power  := atom ['^' factor]
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

``^`` binds tightest and is right-associative, then unary minus, then
``*``/``/``, then ``+``/``-``.  Identifiers are the variables ``t``, ``x``,
``y``, the constant ``pi``, the functions ``sin``, ``cos``, ``exp``, ``log``,
``sqrt``, ``abs``, plus named parameters, bound as numbers when parsed.  Unknown
identifiers are rejected while parsing, with a 1-based character offset.

Expressions evaluate vectorized over numpy arrays and support exact symbolic
differentiation (used for gradients of potentials and divergence terms).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expression",
    "ExpressionError",
    "ExpressionSyntaxError",
    "UnknownIdentifierError",
    "ArityError",
    "NonDifferentiableError",
    "parse_expression",
]

VARIABLES = ("t", "x", "y")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
CONSTANTS = {"pi": math.pi}
BUILTINS = frozenset(VARIABLES) | frozenset(FUNCTIONS) | frozenset(CONSTANTS)

_FUNC_IMPL = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


class ExpressionError(ValueError):
    """Base class for expression language failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed input; `offset` is the 1-based character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class UnknownIdentifierError(ExpressionError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' at offset {offset}")
        self.name = name
        self.offset = offset


class ArityError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"arity mismatch at offset {offset}: {message}")
        self.offset = offset


class NonDifferentiableError(ExpressionError):
    """Raised when asking for the derivative of a non-smooth node (abs)."""


# --- AST -------------------------------------------------------------------

Node = Union["Num", "Var", "Neg", "Bin", "Call"]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # one of VARIABLES


@dataclass(frozen=True)
class Neg:
    arg: Node


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: Node
    right: Node


@dataclass(frozen=True)
class Call:
    func: str
    arg: Node


def _evaluate(node: Node, env: Mapping[str, object]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_evaluate(node.arg, env)
    if isinstance(node, Bin):
        a = _evaluate(node.left, env)
        b = _evaluate(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        if node.op == "^":
            return a ** b
        raise AssertionError(node.op)
    if isinstance(node, Call):
        return _FUNC_IMPL[node.func](_evaluate(node.arg, env))
    raise AssertionError(type(node))


def _variables(node: Node, out: set) -> set:
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _variables(node.arg, out)
    elif isinstance(node, Bin):
        _variables(node.left, out)
        _variables(node.right, out)
    elif isinstance(node, Call):
        _variables(node.arg, out)
    return out


def _is_num(node: Node, value=None) -> bool:
    if not isinstance(node, Num):
        return False
    return value is None or node.value == value


def _mul(a: Node, b: Node) -> Node:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def _add(a: Node, b: Node) -> Node:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Bin("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _is_num(a, 0.0):
        return Neg(b) if not isinstance(b, Num) else Num(-b.value)
    return Bin("-", a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return Bin("/", a, b)


def _differentiate(node: Node, var: str) -> Node:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        d = _differentiate(node.arg, var)
        return Num(0.0) if _is_num(d, 0.0) else _sub(Num(0.0), d)
    if isinstance(node, Bin):
        da = _differentiate(node.left, var)
        db = _differentiate(node.right, var)
        a, b = node.left, node.right
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if node.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), Bin("^", b, Num(2.0)))
        if node.op == "^":
            if isinstance(b, Num):
                # d(a^c) = c * a^(c-1) * a'
                return _mul(_mul(Num(b.value), Bin("^", a, Num(b.value - 1.0))), da)
            # general a^b = exp(b log a)
            term = _add(_mul(db, Call("log", a)), _div(_mul(b, da), a))
            return _mul(node, term)
        raise AssertionError(node.op)
    if isinstance(node, Call):
        da = _differentiate(node.arg, var)
        if _is_num(da, 0.0):
            return Num(0.0)
        if node.func == "sin":
            outer = Call("cos", node.arg)
        elif node.func == "cos":
            outer = _sub(Num(0.0), Call("sin", node.arg))
        elif node.func == "exp":
            outer = node
        elif node.func == "log":
            outer = _div(Num(1.0), node.arg)
        elif node.func == "sqrt":
            outer = _div(Num(0.5), node)
        elif node.func == "abs":
            raise NonDifferentiableError("abs(...) is not differentiable")
        else:
            raise AssertionError(node.func)
        return _mul(outer, da)
    raise AssertionError(type(node))


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _to_string(node: Node, parent_prec: int = 0) -> str:
    if isinstance(node, Num):
        # a negative value (a bound parameter) prints as an atom: -1.0^2 is -1
        return f"({node.value!r})" if math.copysign(1.0, node.value) < 0 else repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_to_string(node.arg)})"
    if isinstance(node, Neg):
        # nested Neg and bare products must re-parenthesize to reparse equal
        inner = _to_string(node.arg, _PRECEDENCE["neg"] + 1)
        text = f"-{inner}"
        # unary minus loses to ^ on its left, and to */ when used as an operand
        return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
    if isinstance(node, Bin):
        prec = _PRECEDENCE[node.op]
        if node.op == "^":
            # right-associative: the right child re-enters at factor level
            left = _to_string(node.left, prec + 1)
            right = _to_string(node.right, _PRECEDENCE["neg"])
            text = f"{left}^{right}"
        else:
            left = _to_string(node.left, prec)
            right = _to_string(node.right, prec + 1)
            text = f"{left} {node.op} {right}"
        return f"({text})" if prec < parent_prec else text
    raise AssertionError(type(node))


class Expression:
    """A parsed formula over (t, x, y); its parameters are bound as numbers."""

    def __init__(self, root: Node):
        self.root = root

    def __call__(self, t=0.0, x=0.0, y=0.0):
        return _evaluate(self.root, {"t": t, "x": x, "y": y})

    def variables(self) -> set:
        return _variables(self.root, set())

    def depends_on(self, var: str) -> bool:
        return var in self.variables()

    def differentiate(self, var: str) -> "Expression":
        if var not in VARIABLES:
            raise ValueError(f"can only differentiate in one of {VARIABLES}")
        return Expression(_differentiate(self.root, var))

    def to_string(self) -> str:
        return _to_string(self.root)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Expression({self.to_string()!r})"


# --- tokenizer / parser ----------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


@dataclass
class _Token:
    kind: str  # num ident op eof
    text: str
    offset: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace before reporting
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped) + 1
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", offset)
        for kind in ("num", "ident", "op"):
            got = m.group(kind)
            if got is not None:
                tokens.append(_Token(kind, got, m.start(kind) + 1))
                break
        pos = m.end()
    tokens.append(_Token("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], params: Mapping[str, float]):
        self.tokens = tokens
        self.pos = 0
        self.params = params

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            what = "end of input" if tok.kind == "eof" else repr(tok.text)
            raise ExpressionSyntaxError(f"expected {op!r}, found {what}", tok.offset)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExpressionSyntaxError(f"unexpected trailing {tok.text!r}", tok.offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.power())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return Bin("^", node, self.factor())
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            is_call = self.peek().kind == "op" and self.peek().text == "("
            if name in FUNCTIONS:
                if not is_call:
                    raise ArityError(f"function '{name}' requires one argument", tok.offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(name, arg)
            if is_call:
                raise ArityError(f"'{name}' is not a function", tok.offset)
            if name in VARIABLES:
                return Var(name)
            if name in CONSTANTS:
                return Num(CONSTANTS[name])
            if name in self.params:
                return Num(self.params[name])
            raise UnknownIdentifierError(name, tok.offset)
        what = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise ExpressionSyntaxError(f"expected a value, found {what}", tok.offset)


def parse_expression(text: str, params: Mapping[str, float] | None = None) -> Expression:
    """Parse `text` into an :class:`Expression`.

    `params` maps parameter names to values; the names become valid
    identifiers and each is bound into the tree as the number it maps to.
    """
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 1)
    params = dict(params or {})
    clashes = set(params) & BUILTINS
    if clashes:
        raise ExpressionError(f"parameter names shadow builtins: {sorted(clashes)}")
    return Expression(_Parser(_tokenize(text), params).parse())
