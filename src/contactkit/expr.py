"""Scalar formulas over named coordinates, with forward-mode derivatives.

Expressions are parsed from text with the usual precedence grammar
(loosest first):

    sum      :=  product (('+' | '-') product)*
    product  :=  unary (('*' | '/') unary)*
    unary    :=  '-' unary | power
    power    :=  atom ('^' int_exponent)*       left associative
    atom     :=  number | name | name '(' sum ')' | '(' sum ')'

Known functions: sin, cos, tan, exp, log, sqrt, abs.  Angles are radians.
Exponents must be integer literals (use sqrt for halves); this keeps the
power rule free of branch cuts.  Domain violations (log of a non-positive
value, division by zero, negative power of zero, sqrt of a negative, trig
of an infinite value, arithmetic whose result is NaN such as ``inf - inf``)
raise :class:`DomainError` carrying the span of the offending subexpression
instead of propagating NaN.

Evaluation works over plain floats or over :class:`Dual` numbers, which is
how ``eval_dual`` returns exact directional derivatives; ``gradient`` seeds
one coordinate at a time and is the one place partial derivatives come
from.  Parsed trees are immutable and evaluation is pure, so expressions can
be shared freely between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ContactKitError

Span = tuple[int, int]


class ParseError(ContactKitError):
    """Syntax error with byte offset and the set of tokens that would have been legal."""

    def __init__(self, offset: int, expected: Iterable[str], found: str):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        want = " or ".join(self.expected)
        super().__init__(f"expected {want} at offset {offset}, found {found}")


class UnknownFunction(ContactKitError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown function {name!r} at offset {offset}")


class UnboundName(ContactKitError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no value bound to coordinate {name!r}")


class DomainError(ContactKitError):
    """Evaluation hit a point outside the domain of some subexpression."""

    def __init__(self, reason: str, span: Span, source: str | None = None):
        self.reason = reason
        self.span = span
        where = f" in {source[span[0]:span[1]]!r}" if source else ""
        super().__init__(f"{reason} at offset {span[0]}{where}")


class Dual:
    """Value plus directional derivative, propagated through arithmetic."""

    __slots__ = ("value", "deriv")

    def __init__(self, value: float, deriv: float = 0.0):
        self.value = value
        self.deriv = deriv

    def __repr__(self):
        return f"Dual({self.value!r}, {self.deriv!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.deriv + other.deriv)
        return Dual(self.value + other, self.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.deriv - other.deriv)
        return Dual(self.value - other, self.deriv)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.deriv)

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        self.deriv * other.value + self.value * other.deriv)
        return Dual(self.value * other, self.deriv * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value / other.value,
                        (self.deriv * other.value - self.value * other.deriv)
                        / (other.value * other.value))
        return Dual(self.value / other, self.deriv / other)

    def __rtruediv__(self, other):
        return Dual(other / self.value,
                    -other * self.deriv / (self.value * self.value))

    def __pow__(self, k: int):
        if k == 0:
            return Dual(1.0, 0.0)
        return Dual(self.value ** k, k * self.value ** (k - 1) * self.deriv)


Scalar = Union[float, Dual]


def _value_of(s: Scalar) -> float:
    return s.value if isinstance(s, Dual) else s


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Node:
    span: Span


@dataclass(frozen=True)
class Literal(Node):
    value: float


@dataclass(frozen=True)
class Coordinate(Node):
    name: str


@dataclass(frozen=True)
class Negate(Node):
    operand: Node


@dataclass(frozen=True)
class BinaryOp(Node):
    op: str  # one of + - * /
    left: Node
    right: Node


@dataclass(frozen=True)
class Power(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Call(Node):
    func: str
    argument: Node


# function name -> (value, derivative factor); domain guards live in the evaluator
_FUNCTIONS: dict[str, tuple[Callable[[float], float], Callable[[float], float]]] = {
    "sin": (math.sin, math.cos),
    "cos": (math.cos, lambda v: -math.sin(v)),
    "tan": (math.tan, lambda v: 1.0 / math.cos(v) ** 2),
    "exp": (math.exp, math.exp),
    "log": (math.log, lambda v: 1.0 / v),
    "sqrt": (math.sqrt, lambda v: 0.5 / math.sqrt(v)),
    "abs": (abs, lambda v: math.copysign(1.0, v) if v != 0.0 else 0.0),
}

FUNCTION_NAMES = frozenset(_FUNCTIONS)


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN = re.compile(
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<ws>[ \t\r\n]+)"
    r"|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(m.start(), ("number", "name", "operator"), repr(m.group()))
        tokens.append((kind, m.group(), m.start(), m.end()))
    tokens.append(("eof", "", len(text), len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, text, start, _ = self.peek()
        raise ParseError(start, expected, "end of input" if kind == "eof" else repr(text))

    def expect_op(self, op: str):
        kind, text, _, _ = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        self.fail((repr(op),))

    def parse(self) -> Node:
        node = self.sum()
        if self.peek()[0] != "eof":
            self.fail(("operator", "end of input"))
        return node

    def sum(self) -> Node:
        node = self.product()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            right = self.product()
            node = BinaryOp((node.span[0], right.span[1]), op, node, right)
        return node

    def product(self) -> Node:
        node = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            right = self.unary()
            node = BinaryOp((node.span[0], right.span[1]), op, node, right)
        return node

    def unary(self) -> Node:
        kind, text, start, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            operand = self.unary()
            return Negate((start, operand.span[1]), operand)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            k, end = self.int_exponent()
            node = Power((node.span[0], end), node, k)
        return node

    def int_exponent(self) -> tuple[int, int]:
        parenthesized = False
        if self.peek()[:2] == ("op", "("):
            self.advance()
            parenthesized = True
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            sign = -1
        kind, text, start, end = self.peek()
        if kind != "number":
            self.fail(("integer exponent",))
        try:
            k = int(text)
        except ValueError:
            raise ParseError(start, ("integer exponent",), repr(text)) from None
        self.advance()
        if parenthesized:
            end = self.expect_op(")")[3]
        return sign * k, end

    def atom(self) -> Node:
        kind, text, start, end = self.peek()
        if kind == "number":
            self.advance()
            return Literal((start, end), float(text))
        if kind == "name":
            self.advance()
            if self.peek()[:2] == ("op", "("):
                if text not in _FUNCTIONS:
                    raise UnknownFunction(text, start)
                self.advance()
                arg = self.sum()
                close = self.expect_op(")")
                return Call((start, close[3]), text, arg)
            return Coordinate((start, end), text)
        if kind == "op" and text == "(":
            self.advance()
            node = self.sum()
            self.expect_op(")")
            return node
        self.fail(("number", "name", "'('"))


# ---------------------------------------------------------------------------
# Evaluation

def _evaluate(node: Node, env: Mapping[str, Scalar], source: str | None) -> Scalar:
    kind = type(node)
    if kind is Literal:
        return node.value
    if kind is Coordinate:
        try:
            return env[node.name]
        except KeyError:
            raise UnboundName(node.name) from None
    if kind is Negate:
        return -_evaluate(node.operand, env, source)
    if kind is BinaryOp:
        a = _evaluate(node.left, env, source)
        b = _evaluate(node.right, env, source)
        op = node.op
        if op == "+":
            out = a + b
        elif op == "-":
            out = a - b
        elif op == "*":
            out = a * b
        else:
            if _value_of(b) == 0.0:
                raise DomainError("division by zero", node.span, source)
            out = a / b
        v = out.value if type(out) is Dual else out
        if v != v:
            raise DomainError("undefined result (NaN)", node.span, source)
        return out
    if kind is Power:
        base = _evaluate(node.base, env, source)
        if node.exponent < 0 and _value_of(base) == 0.0:
            raise DomainError("negative power of zero", node.span, source)
        try:
            return base ** node.exponent
        except OverflowError:
            raise DomainError("overflow", node.span, source) from None
    # Call
    arg = _evaluate(node.argument, env, source)
    v = _value_of(arg)
    name = node.func
    if name == "log" and v <= 0.0:
        raise DomainError("log of a non-positive value", node.span, source)
    if name == "sqrt" and v < 0.0:
        raise DomainError("sqrt of a negative value", node.span, source)
    value_fn, deriv_fn = _FUNCTIONS[name]
    try:
        value = value_fn(v)
    except OverflowError:
        raise DomainError("overflow", node.span, source) from None
    except ValueError:  # math's trig functions refuse an infinite argument
        raise DomainError(f"{name} of an infinite value", node.span, source) from None
    if isinstance(arg, Dual):
        if name == "sqrt" and v == 0.0:
            if arg.deriv == 0.0:
                return Dual(value, 0.0)
            raise DomainError("sqrt derivative at zero", node.span, source)
        return Dual(value, deriv_fn(v) * arg.deriv)
    return value


def _collect_names(node: Node, out: set[str]) -> None:
    kind = type(node)
    if kind is Coordinate:
        out.add(node.name)
    elif kind is Negate:
        _collect_names(node.operand, out)
    elif kind is BinaryOp:
        _collect_names(node.left, out)
        _collect_names(node.right, out)
    elif kind is Power:
        _collect_names(node.base, out)
    elif kind is Call:
        _collect_names(node.argument, out)


@dataclass(frozen=True)
class Expression:
    """Immutable parsed formula.  Build with :func:`parse` or the node helpers."""

    root: Node
    source: str | None = None

    @cached_property
    def names(self) -> frozenset[str]:
        found: set[str] = set()
        _collect_names(self.root, found)
        return frozenset(found)

    def eval(self, bindings: Mapping[str, float]) -> float:
        return float(_evaluate(self.root, bindings, self.source))

    def eval_dual(self, bindings: Mapping[str, float],
                  seed: Mapping[str, float]) -> tuple[float, float]:
        used = self.names
        env = {name: Dual(float(v), float(seed.get(name, 0.0)))
               for name, v in bindings.items() if name in used}
        result = _evaluate(self.root, env, self.source)
        if isinstance(result, Dual):
            return result.value, result.deriv
        return float(result), 0.0

    def gradient(self, bindings: Mapping[str, float],
                 names: Sequence[str]) -> np.ndarray:
        """Partial derivatives along ``names``, in that order; exactly zero
        along names the formula does not use."""
        out = np.zeros(len(names))
        for name in self.names:
            out[names.index(name)] = self.eval_dual(bindings, {name: 1.0})[1]
        return out

    def __str__(self) -> str:
        return to_text(self)


def parse(text: str) -> Expression:
    return Expression(_Parser(text).parse(), text)


# ---------------------------------------------------------------------------
# Printing (semantic round trip: parse(to_text(e)) evaluates like e)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _render(node: Node, context: int) -> str:
    kind = type(node)
    if kind is Literal:
        if math.isinf(node.value):
            return "1e999" if node.value > 0 else "(-1e999)"
        text = repr(node.value)
        return f"({text})" if node.value < 0 and context >= 3 else text
    if kind is Coordinate:
        return node.name
    if kind is Negate:
        text = "-" + _render(node.operand, 3)
        return f"({text})" if context > 3 else text
    if kind is BinaryOp:
        prec = _PREC[node.op]
        left = _render(node.left, prec)
        right = _render(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
        return f"({text})" if context > prec else text
    if kind is Power:
        base = _render(node.base, 4)
        if type(node.base) in (Negate, BinaryOp):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    return f"{node.func}({_render(node.argument, 0)})"


def to_text(e: Expression) -> str:
    return _render(e.root, 0)


# ---------------------------------------------------------------------------
# Programmatic construction

_NO_SPAN: Span = (0, 0)


def literal(value: float) -> Expression:
    value = float(value)
    if math.isnan(value):
        raise ValueError("a literal cannot be NaN")
    return Expression(Literal(_NO_SPAN, value))


def coordinate(name: str) -> Expression:
    return Expression(Coordinate(_NO_SPAN, name))


def negate(e: Expression) -> Expression:
    return Expression(Negate(_NO_SPAN, e.root))


def add(a: Expression, b: Expression) -> Expression:
    return Expression(BinaryOp(_NO_SPAN, "+", a.root, b.root))


def subtract(a: Expression, b: Expression) -> Expression:
    return Expression(BinaryOp(_NO_SPAN, "-", a.root, b.root))


def multiply(a: Expression, b: Expression) -> Expression:
    return Expression(BinaryOp(_NO_SPAN, "*", a.root, b.root))


def divide(a: Expression, b: Expression) -> Expression:
    return Expression(BinaryOp(_NO_SPAN, "/", a.root, b.root))


def power(e: Expression, k: int) -> Expression:
    return Expression(Power(_NO_SPAN, e.root, int(k)))


def call(func: str, e: Expression) -> Expression:
    if func not in _FUNCTIONS:
        raise UnknownFunction(func, 0)
    return Expression(Call(_NO_SPAN, func, e.root))


def linear_combination(terms: Iterable[tuple[float, Expression]]) -> Expression:
    acc: Expression | None = None
    for coeff, e in terms:
        if coeff == 0.0:
            continue
        term = e if coeff == 1.0 else multiply(literal(coeff), e)
        acc = term if acc is None else add(acc, term)
    return acc if acc is not None else literal(0.0)
