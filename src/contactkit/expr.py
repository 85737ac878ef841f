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
and derivative failures (the slope of sqrt at zero, a quotient whose
squared denominator underflows to zero) raise :class:`DomainError`
carrying the span of the offending subexpression instead of propagating
NaN.  A span covers the parentheses around an operand.

Each expression compiles once, on first use, to straight-line Python (a
:class:`Kernel`): one generated function for the value, one for the value
with the full gradient (the jet, forward mode with the component
arithmetic of dual numbers, every direction in one call) and one for a
single directional derivative.  The domain guards above are inline in the
generated code; the source never contains a coordinate name or any text
of the formula.  A :class:`~contactkit.geometry.Chart` compiles its whole
contact form into one such kernel.  Parsed trees are immutable and
evaluation is pure, so expressions can be shared freely between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

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


# function name -> (value, derivative factor) as source templates over the
# argument's value {a} and the call's own value {v}; the domain guards are
# emitted by the kernel compiler
_FUNCTIONS: dict[str, tuple[str, str]] = {
    "sin": ("_sin({a})", "_cos({a})"),
    "cos": ("_cos({a})", "-_sin({a})"),
    "tan": ("_tan({a})", "1.0 / _cos({a}) ** 2"),
    "exp": ("_exp({a})", "{v}"),
    "log": ("_log({a})", "1.0 / {a}"),
    "sqrt": ("_sqrt({a})", "0.5 / {v}"),
    "abs": ("abs({a})", "_copysign(1.0, {a}) if {a} != 0.0 else 0.0"),
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
        # id(node) -> span including the parentheses around it, so that an
        # enclosing node's span covers them
        self.extent: dict[int, Span] = {}

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

    def cover(self, first: Node, last: Node) -> Span:
        return (self.extent.get(id(first), first.span)[0],
                self.extent.get(id(last), last.span)[1])

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
            node = BinaryOp(self.cover(node, right), op, node, right)
        return node

    def product(self) -> Node:
        node = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            right = self.unary()
            node = BinaryOp(self.cover(node, right), op, node, right)
        return node

    def unary(self) -> Node:
        kind, text, start, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            operand = self.unary()
            return Negate((start, self.cover(operand, operand)[1]), operand)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            k, end = self.int_exponent()
            node = Power((self.cover(node, node)[0], end), node, k)
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
            self.extent[id(node)] = (start, self.expect_op(")")[3])
            return node
        self.fail(("number", "name", "'('"))


# ---------------------------------------------------------------------------
# Compilation to straight-line Python

def _children(node: Node) -> tuple[Node, ...]:
    kind = type(node)
    if kind is BinaryOp:
        return (node.left, node.right)
    if kind is Negate:
        return (node.operand,)
    if kind is Power:
        return (node.base,)
    if kind is Call:
        return (node.argument,)
    return ()


# (node, positions of its children in the list, depends on a coordinate)
_Op = tuple[Node, tuple[int, ...], bool]


def _postorder(root: Node) -> list[_Op]:
    """The nodes of ``root``, children first and left to right."""
    ops: list[_Op] = []
    done: list[int] = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        kids = _children(node)
        if kids and not expanded:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(kids))
            continue
        args = tuple(done[len(done) - len(kids):])
        del done[len(done) - len(kids):]
        dual = type(node) is Coordinate or any(ops[k][2] for k in args)
        done.append(len(ops))
        ops.append((node, args, dual))
    return ops


_NAMESPACE = {"_sin": math.sin, "_cos": math.cos, "_tan": math.tan, "_exp": math.exp,
              "_log": math.log, "_sqrt": math.sqrt, "_copysign": math.copysign}


def _tuple(items: Iterable[str]) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


class _Writer:
    """Body of one generated function: lines over generated identifiers, the
    non-finite constants they read from ``_K`` and the error sites ``_E``
    raises."""

    def __init__(self):
        self.lines: list[str] = []
        self.consts: list[float] = []
        self.errors: list[tuple[str, Span, str | None]] = []
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def fail(self, reason: str, node: Node, source: str | None) -> str:
        self.errors.append((reason, node.span, source))
        return f"raise _E({len(self.errors) - 1}) from None"

    def check(self, condition: str, reason: str, node: Node, source: str | None) -> None:
        self.emit(f"if {condition}: {self.fail(reason, node, source)}")

    def guarded(self, statement: str, exc: str, reason: str, node: Node,
                source: str | None) -> None:
        self.lines += ["    try:", "        " + statement, f"    except {exc}:",
                       "        " + self.fail(reason, node, source)]

    def literal(self, value: float) -> str:
        value = float(value)
        if not math.isfinite(value):
            self.consts.append(value)
            return f"_K[{len(self.consts) - 1}]"
        text = repr(value)
        return f"({text})" if text.startswith("-") else text


class _Tree:
    """Emits one expression's nodes: values, and derivatives one direction
    at a time with the component arithmetic of dual numbers (a node that
    reads no coordinate is a plain float with no derivative)."""

    def __init__(self, out: _Writer, ops: list[_Op], index: Mapping[str, int],
                 source: str | None):
        self.out = out
        self.ops = ops
        self.index = index
        self.source = source
        self.value: list[str] = [""] * len(ops)
        self.factor: list[str] = [""] * len(ops)

    def run(self, seeds: Sequence[str] | None = None, values: bool = True) -> str:
        """Emit the values (when ``values``) and, given ``seeds`` (the source
        text of each argument's derivative), the derivatives along them
        node by node; returns the root's derivative."""
        deriv: list[str] = [""] * len(self.ops)
        for k, (node, kids, dual) in enumerate(self.ops):
            if values:
                self._value(k, node, kids)
            if seeds is not None and dual:
                if values:
                    self._factor(k, node, kids)
                deriv[k] = self._derivative(k, node, kids, deriv, seeds)
        return deriv[-1] or "0.0"

    def _value(self, k: int, node: Node, kids: tuple[int, ...]) -> None:
        out, src, kind = self.out, self.source, type(node)
        if kind is Literal:
            self.value[k] = out.literal(node.value)
            return
        if kind is Coordinate:
            self.value[k] = f"x{self.index[node.name]}"
            return
        v = self.value[k] = out.fresh("v")
        a = self.value[kids[0]]
        if kind is Negate:
            out.emit(f"{v} = -{a}")
        elif kind is BinaryOp:
            b = self.value[kids[1]]
            if node.op == "/":
                out.check(f"{b} == 0.0", "division by zero", node, src)
            out.emit(f"{v} = {a} {node.op} {b}")
            out.check(f"{v} != {v}", "undefined result (NaN)", node, src)
        elif kind is Power:
            p = node.exponent
            if p < 0:
                out.check(f"{a} == 0.0", "negative power of zero", node, src)
            if p == 0:
                out.emit(f"{v} = {a} ** 0")
            else:
                out.guarded(f"{v} = {a} ** ({p})", "OverflowError", "overflow", node, src)
        else:
            name = node.func
            if name == "log":
                out.check(f"{a} <= 0.0", "log of a non-positive value", node, src)
            elif name == "sqrt":
                out.check(f"{a} < 0.0", "sqrt of a negative value", node, src)
            statement = f"{v} = " + _FUNCTIONS[name][0].format(a=a)
            if name == "exp":
                out.guarded(statement, "OverflowError", "overflow", node, src)
            elif name in ("sin", "cos", "tan"):  # math refuses an infinite argument
                out.guarded(statement, "ValueError", f"{name} of an infinite value",
                            node, src)
            else:
                out.emit(statement)

    def _factor(self, k: int, node: Node, kids: tuple[int, ...]) -> None:
        """Per-node part of the derivative shared by every direction."""
        out, src, kind = self.out, self.source, type(node)
        if kind is BinaryOp and node.op == "/" and self.ops[kids[1]][2]:
            b = self.value[kids[1]]
            g = self.factor[k] = out.fresh("g")
            out.emit(f"{g} = {b} * {b}")
            out.check(f"{g} == 0.0", "derivative of a division underflows", node, src)
        elif kind is Power and node.exponent != 0:
            p, a = node.exponent, self.value[kids[0]]
            g = self.factor[k] = out.fresh("g")
            out.guarded(f"{g} = ({p}) * {a} ** ({p - 1})", "OverflowError", "overflow",
                        node, src)
        elif kind is Call and node.func != "sqrt":
            g = self.factor[k] = out.fresh("g")
            out.emit(f"{g} = " + _FUNCTIONS[node.func][1].format(a=self.value[kids[0]],
                                                              v=self.value[k]))

    def _derivative(self, k: int, node: Node, kids: tuple[int, ...],
                    deriv: list[str], seeds: Sequence[str]) -> str:
        out, kind = self.out, type(node)
        if kind is Coordinate:
            return seeds[self.index[node.name]]
        g = self.factor[k]
        da = deriv[kids[0]]
        a = self.value[kids[0]]
        if kind is BinaryOp:
            db = deriv[kids[1]]
            b = self.value[kids[1]]
            op = node.op
            if op in "+-":
                if da and db:
                    text = f"{da} {op} {db}"
                elif da:
                    return da
                elif op == "+":
                    return db
                else:
                    text = f"-{db}"
            elif op == "*":
                text = (f"{da} * {b} + {a} * {db}" if da and db
                        else f"{da} * {b}" if da else f"{db} * {a}")
            else:
                text = (f"({da} * {b} - {a} * {db}) / {g}" if da and db
                        else f"{da} / {b}" if da else f"-{a} * {db} / {g}")
        elif kind is Negate:
            text = f"-{da}"
        elif kind is Power:
            if node.exponent == 0:
                return "0.0"
            text = f"{g} * {da}"
        elif node.func != "sqrt":
            text = f"{g} * {da}"
        else:
            d = out.fresh("d")
            out.emit(f"if {a} != 0.0: {d} = 0.5 / {self.value[k]} * {da}")
            out.emit(f"elif {da} == 0.0: {d} = 0.0")
            out.emit(f"else: {out.fail('sqrt derivative at zero', node, self.source)}")
            return d
        d = out.fresh("d")
        out.emit(f"{d} = {text}")
        return d


class Kernel:
    """Expressions compiled to straight-line Python over ordered coordinates.

    ``value(*x)`` takes one float per name and returns the tuple of values.
    ``jet(*x)`` returns it together with, per expression, the tuple of its
    partials along every name (exactly zero along names the expression does
    not read).  ``tangent(*x, *dx)`` returns the values with each
    expression's derivative along ``dx``.  Each entry point is generated on
    first use.  Derivatives follow dual-number arithmetic component by
    component, so they equal one forward pass per seeded direction bit for
    bit.  A jet raises what those passes would raise taken in order:
    expression by expression, one pass per name the expression reads, in
    the order of ``names``, the first pass also checking the values.  The
    generated source holds generated identifiers, float literals, integer
    exponents and ``math`` functions only.
    """

    def __init__(self, exprs: Sequence["Expression"], names: Sequence[str]):
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._trees = [(_postorder(e.root), e.source) for e in exprs]
        for ops, _ in self._trees:
            for node, _, _ in ops:
                if type(node) is Coordinate and node.name not in self._index:
                    raise UnboundName(node.name)

    @cached_property
    def value(self) -> Callable[..., tuple]:
        return self._compile("value")

    @cached_property
    def jet(self) -> Callable[..., tuple]:
        return self._compile("jet")

    @cached_property
    def tangent(self) -> Callable[..., tuple]:
        return self._compile("tangent")

    def _compile(self, mode: str) -> Callable[..., tuple]:
        out = _Writer()
        n = len(self.names)
        params = [f"x{i}" for i in range(n)]
        values, derivs = [], []
        for ops, source in self._trees:
            tree = _Tree(out, ops, self._index, source)
            if mode == "value":
                tree.run()
            elif mode == "tangent":
                seeds = [f"s{i}" for i in range(n)]
                derivs.append(tree.run(seeds))
            else:
                used = sorted({self._index[node.name] for node, _, _ in ops
                               if type(node) is Coordinate})
                row = ["0.0"] * n
                for c, i in enumerate(used):
                    unit = ["1.0" if j == i else "0.0" for j in range(n)]
                    row[i] = tree.run(unit, values=c == 0)
                if not used:
                    tree.run()
                derivs.append(_tuple(row))
            values.append(tree.value[-1])
        if mode == "tangent":
            params += [f"s{i}" for i in range(n)]
        result = _tuple(values) if mode == "value" else f"{_tuple(values)}, {_tuple(derivs)}"
        text = "\n".join([f"def _kernel({', '.join(params)}):", *out.lines,
                          f"    return {result}", ""])
        errors = tuple(out.errors)

        def error(i: int) -> DomainError:
            return DomainError(*errors[i])

        namespace = dict(_NAMESPACE, _K=tuple(out.consts), _E=error)
        exec(compile(text, "<contactkit kernel>", "exec"), namespace)
        return namespace["_kernel"]


@dataclass(frozen=True)
class Expression:
    """Immutable parsed formula.  Build with :func:`parse` or the node helpers."""

    root: Node
    source: str | None = None

    @cached_property
    def arguments(self) -> tuple[str, ...]:
        """Coordinate names in order of first appearance: the arguments of
        :attr:`kernel`."""
        return tuple(dict.fromkeys(node.name for node, _, _ in _postorder(self.root)
                                   if type(node) is Coordinate))

    @cached_property
    def names(self) -> frozenset[str]:
        return frozenset(self.arguments)

    @cached_property
    def kernel(self) -> Kernel:
        """This formula compiled over :attr:`arguments`; ``eval``,
        ``eval_dual`` and ``gradient`` all run it."""
        return Kernel((self,), self.arguments)

    def _args(self, bindings: Mapping[str, float]) -> list[float]:
        try:
            return [float(bindings[name]) for name in self.arguments]
        except KeyError as missing:
            raise UnboundName(missing.args[0]) from None

    def eval(self, bindings: Mapping[str, float]) -> float:
        return self.kernel.value(*self._args(bindings))[0]

    def eval_dual(self, bindings: Mapping[str, float],
                  seed: Mapping[str, float]) -> tuple[float, float]:
        """Value and derivative along ``seed`` (zero for names it omits)."""
        ds = [float(seed.get(name, 0.0)) for name in self.arguments]
        (value,), (deriv,) = self.kernel.tangent(*self._args(bindings), *ds)
        return value, deriv

    def gradient(self, bindings: Mapping[str, float],
                 names: Sequence[str]) -> np.ndarray:
        """Partial derivatives along ``names``, in that order; exactly zero
        along names the formula does not use.  A formula that reads no
        coordinate is not evaluated."""
        out = np.zeros(len(names))
        if not self.arguments:
            return out
        _, (partials,) = self.kernel.jet(*self._args(bindings))
        for name, d in zip(self.arguments, partials):
            out[names.index(name)] = d
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
