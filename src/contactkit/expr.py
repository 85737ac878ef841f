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

Formulas compile to straight-line Python only through :func:`compiled`,
a bounded memo giving equal formulas over equal names one :class:`Kernel`.
Every formula on a chart compiles over the chart's coordinates (its
contact form, an overlap's map from it, a section family or a single
formula on it); only a free formula compiles over its own arguments.  A
kernel generates on first use one function for the value, one for the
value with the full gradient (the jet, forward mode with the component
arithmetic of dual numbers, every direction in one call), one for a
single directional derivative and, for a contact form's coefficients, one
for the rows of its bordered matrix.  The domain guards are inline in the
generated code; the source never contains a coordinate name or any text
of the formula.  The value and the jet also compile to array
functions over a stack of points, one row each, generated from the same
node list: one numpy operation per node (``math`` element by element where
a numpy ufunc may round differently), each guard one vectorized test, and
the results bit-identical to the scalar functions row by row.  A stack
that fails a guard raises what the scalar function raises on the first
failing row.  Parsed trees are immutable and evaluation is pure, so
expressions can be shared freely between threads.  A formula's ``repr``,
which names every node's fields and the source text, is its identity for
equality and hashing; it and the printer walk a tree with an explicit
stack, so a formula of any depth prints as readily as it evaluates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import repeat
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

# a node's repr, built without recursion, is its identity: equality and hashing read it
_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Node:
    span: Span

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts: list = [f"{item.__class__.__name__}("]
            for k, f in enumerate(fields(item)):
                value = getattr(item, f.name)
                parts += [f"{', ' if k else ''}{f.name}=",
                          value if isinstance(value, Node) else repr(value)]
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)


@_node
class Literal(Node):
    value: float


@_node
class Coordinate(Node):
    name: str


@_node
class Negate(Node):
    operand: Node


@_node
class BinaryOp(Node):
    op: str  # one of + - * /
    left: Node
    right: Node


@_node
class Power(Node):
    base: Node
    exponent: int


@_node
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

# the same over a stack, for calls whose argument reads a coordinate: numpy
# where it rounds exactly (sqrt, abs, copysign), ``math`` element by element
# where a numpy ufunc may round differently (sin, cos, tan, exp, log, pow)
_STACK_FUNCTIONS: dict[str, tuple[str, str]] = {
    "sin": ("_each(_sin, {a})", "_each(_cos, {a})"),
    "cos": ("_each(_cos, {a})", "-_each(_sin, {a})"),
    "tan": ("_each(_tan, {a})", "1.0 / _power(_each(_cos, {a}), 2)"),
    "exp": ("_each(_exp, {a})", "{v}"),
    "log": ("_each(_log, {a})", "1.0 / {a}"),
    "sqrt": ("_vsqrt({a})", "0.5 / {v}"),
    "abs": ("abs({a})", "_where({a} != 0.0, _vcopysign(1.0, {a}), 0.0)"),
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


def _each(f: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, a.tolist()), float, len(a))


def _power(a: np.ndarray, p: int) -> np.ndarray:
    """``a ** p`` element by element, as Python floats round it."""
    return np.fromiter(map(pow, a.tolist(), repeat(p)), float, len(a))


_STACK_NAMESPACE = dict(_NAMESPACE, _each=_each, _power=_power, _vsqrt=np.sqrt,
                        _vcopysign=np.copysign, _where=np.where, _empty=np.empty,
                        _zeros=np.zeros, _columns=lambda x: x.T.copy())


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

    def check(self, condition: str, reason: str, node: Node, source: str | None,
              rows: bool = False) -> None:
        """Raise where ``condition`` holds; with ``rows`` it is an array and
        holding on any row is enough."""
        test = f"({condition}).any()" if rows else condition
        self.emit(f"if {test}: {self.fail(reason, node, source)}")

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
    reads no coordinate is a plain float with no derivative).  With
    ``stack`` every node that reads a coordinate holds one array over the
    rows instead of a float, with the same operations in the same order."""

    def __init__(self, out: _Writer, ops: list[_Op], index: Mapping[str, int],
                 source: str | None, stack: bool = False):
        self.out = out
        self.ops = ops
        self.index = index
        self.source = source
        self.stack = stack
        self.value: list[str] = [""] * len(ops)
        self.factor: list[str] = [""] * len(ops)

    def run(self, seeds: Sequence[str] | None = None, values: bool = True) -> str:
        """Emit the values (when ``values``) and, given ``seeds`` (the source
        text of each argument's derivative), the derivatives along them
        node by node; returns the root's derivative."""
        deriv: list[str] = [""] * len(self.ops)
        for k, (node, kids, dual) in enumerate(self.ops):
            if values:
                self._value(k, node, kids, dual)
            if seeds is not None and dual:
                if values:
                    self._factor(k, node, kids)
                deriv[k] = self._derivative(k, node, kids, deriv, seeds)
        return deriv[-1] or "0.0"

    def _value(self, k: int, node: Node, kids: tuple[int, ...], dual: bool) -> None:
        out, src, kind = self.out, self.source, type(node)
        if kind is Literal:
            self.value[k] = out.literal(node.value)
            return
        if kind is Coordinate:
            self.value[k] = f"x{self.index[node.name]}"
            return
        rows = self.stack and dual
        v = self.value[k] = out.fresh("v")
        a = self.value[kids[0]]
        if kind is Negate:
            out.emit(f"{v} = -{a}")
        elif kind is BinaryOp:
            b = self.value[kids[1]]
            if node.op == "/":
                out.check(f"{b} == 0.0", "division by zero", node, src,
                          self.stack and self.ops[kids[1]][2])
            out.emit(f"{v} = {a} {node.op} {b}")
            out.check(f"{v} != {v}", "undefined result (NaN)", node, src, rows)
        elif kind is Power:
            p = node.exponent
            if p < 0:
                out.check(f"{a} == 0.0", "negative power of zero", node, src, rows)
            if p == 0:
                out.emit(f"{v} = {a} ** 0")
            else:
                power = f"_power({a}, {p})" if rows else f"{a} ** ({p})"
                out.guarded(f"{v} = {power}", "OverflowError", "overflow", node, src)
        else:
            name = node.func
            if name == "log":
                out.check(f"{a} <= 0.0", "log of a non-positive value", node, src, rows)
            elif name == "sqrt":
                out.check(f"{a} < 0.0", "sqrt of a negative value", node, src, rows)
            table = _STACK_FUNCTIONS if rows else _FUNCTIONS
            statement = f"{v} = " + table[name][0].format(a=a)
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
            out.check(f"{g} == 0.0", "derivative of a division underflows", node, src,
                      self.stack)
        elif kind is Power and node.exponent != 0:
            p, a = node.exponent, self.value[kids[0]]
            g = self.factor[k] = out.fresh("g")
            power = f"_power({a}, {p - 1})" if self.stack else f"{a} ** ({p - 1})"
            out.guarded(f"{g} = ({p}) * {power}", "OverflowError", "overflow", node, src)
        elif kind is Call and node.func != "sqrt":
            g = self.factor[k] = out.fresh("g")
            table = _STACK_FUNCTIONS if self.stack else _FUNCTIONS
            out.emit(f"{g} = " + table[node.func][1].format(a=self.value[kids[0]],
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
            failure = out.fail("sqrt derivative at zero", node, self.source)
            if self.stack:
                out.emit(f"if (({a} == 0.0) & ({da} != 0.0)).any(): {failure}")
                out.emit(f"{d} = _where({a} != 0.0, 0.5 / {self.value[k]} * {da}, 0.0)")
            else:
                out.emit(f"if {a} != 0.0: {d} = 0.5 / {self.value[k]} * {da}")
                out.emit(f"elif {da} == 0.0: {d} = 0.0")
                out.emit(f"else: {failure}")
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
    expression's derivative along ``dx``.  For as many expressions as names,
    the coefficients ``a_j`` of a contact form, ``bordered(*x)`` returns the
    rows of ``B = [[Omega, a^T], [a, 0]]`` as a tuple of tuples, with
    ``Omega_jk = d_j a_k - d_k a_j`` the subtraction a stacked jet's
    ``J^T - J`` makes; it runs the jet's code, so it raises what the jet
    raises.  Each entry point is generated on first use.  Derivatives
    follow dual-number arithmetic component by component, so they equal
    one forward pass per seeded direction bit for bit.  A jet raises what
    those passes would raise taken in order: expression by expression, one
    pass per name the expression reads, in the order of ``names``, the
    first pass also checking the values.  The generated source holds
    generated identifiers, float literals, integer exponents and ``math``
    functions only.

    ``value_stack(x)`` and ``jet_stack(x)`` take an ``(N, len(names))``
    array, one point per row, and return the values as an ``(N, exprs)``
    array and, for the jet, the partials as an ``(N, exprs, names)`` array.
    They run the same node list with one numpy operation per node (``math``
    element by element for sin, cos, tan, exp, log and integer powers,
    whose numpy ufuncs may round differently), under ``np.errstate`` with
    each guard tested on all rows at once, so every row equals the scalar
    entry point bit for bit.  Only when a guard trips is the scalar entry
    point compiled, to replay the rows in order, so a stack raises exactly
    what the scalar kernel raises on its first failing row.
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

    @cached_property
    def bordered(self) -> Callable[..., tuple]:
        return self._compile("bordered")

    @cached_property
    def _value_rows(self) -> Callable[[np.ndarray], np.ndarray]:
        return self._compile("value", stack=True)

    @cached_property
    def _jet_rows(self) -> Callable[[np.ndarray], tuple]:
        return self._compile("jet", stack=True)

    def value_stack(self, x) -> np.ndarray:
        return self._stacked(self._value_rows, "value", x)

    def jet_stack(self, x) -> tuple[np.ndarray, np.ndarray]:
        return self._stacked(self._jet_rows, "jet", x)

    def _stacked(self, rows: Callable, scalar: str, x):
        x = np.asarray(x, dtype=float)
        try:
            with np.errstate(all="ignore"):
                return rows(x)
        except DomainError:
            for point in x.tolist():
                getattr(self, scalar)(*point)
            raise

    def _compile(self, mode: str, stack: bool = False) -> Callable:
        out = _Writer()
        n = len(self.names)
        params = [f"x{i}" for i in range(n)]
        values, derivs = [], []
        for ops, source in self._trees:
            tree = _Tree(out, ops, self._index, source, stack)
            if mode == "value":
                tree.run()
            elif mode == "tangent":
                seeds = [f"s{i}" for i in range(n)]
                derivs.append(tree.run(seeds))
            else:
                used = sorted({self._index[node.name] for node, _, _ in ops
                               if type(node) is Coordinate})
                row = {}
                for c, i in enumerate(used):
                    unit = ["1.0" if j == i else "0.0" for j in range(n)]
                    row[i] = tree.run(unit, values=c == 0)
                if not used:
                    tree.run()
                derivs.append(row)
            values.append(tree.value[-1])
        if stack:
            head = ["def _kernel(x):", "    _n = len(x)"]
            if n:
                head.append(f"    {', '.join(params)}, = _columns(x)")
            tail = [f"    _V = _empty((_n, {len(values)}))"]
            tail += [f"    _V[:, {e}] = {v}" for e, v in enumerate(values)]
            if mode == "jet":
                tail.append(f"    _J = _zeros((_n, {len(values)}, {n}))")
                tail += [f"    _J[:, {e}, {i}] = {d}"
                         for e, row in enumerate(derivs) for i, d in row.items()]
            tail.append("    return _V, _J" if mode == "jet" else "    return _V")
        else:
            if mode == "tangent":
                params += [f"s{i}" for i in range(n)]
            elif mode == "jet":
                derivs = [_tuple(row.get(i, "0.0") for i in range(n)) for row in derivs]
            elif mode == "bordered":
                # Omega_jk = d_j a_k - d_k a_j, as a stacked J^T - J subtracts;
                # a "- 0.0" is left out, which changes no bit
                d = [[row.get(i, "0.0") for i in range(n)] for row in derivs]
                omega = [[a if b == "0.0" else f"{a} - {b}" for a, b in zip(col, row)]
                         for col, row in zip(zip(*d), d)]
                values = [_tuple([*w, v]) for w, v in zip(omega, values)] + [_tuple([*values, "0.0"])]
            result = (_tuple(values) if mode in ("value", "bordered")
                      else f"{_tuple(values)}, {_tuple(derivs)}")
            head = [f"def _kernel({', '.join(params)}):"]
            tail = [f"    return {result}"]
        text = "\n".join([*head, *out.lines, *tail, ""])
        errors = tuple(out.errors)

        def error(i: int) -> DomainError:
            return DomainError(*errors[i])

        namespace = dict(_STACK_NAMESPACE if stack else _NAMESPACE,
                         _K=tuple(out.consts), _E=error)
        exec(compile(text, "<contactkit kernel>", "exec"), namespace)
        return namespace["_kernel"]


@dataclass(frozen=True)
class Expression:
    """Immutable parsed formula, equal to another exactly when their cached
    reprs are.  Build with :func:`parse` or the node helpers."""

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
        return compiled((self,), self.arguments)

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

    def __repr__(self) -> str:
        return self._repr

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._repr == other._repr

    def __hash__(self) -> int:
        return hash(self._repr)  # a str caches its own hash

    @cached_property
    def _repr(self) -> str:
        return f"Expression(root={self.root!r}, source={self.source!r})"


@lru_cache(maxsize=512)
def compiled(exprs: tuple[Expression, ...], names: tuple[str, ...]) -> Kernel:
    """The :class:`Kernel` of ``exprs`` over ``names``, one per distinct
    pair: equal formulas (equal reprs: the same tree and the same source
    text, which domain errors quote) over equal names share one kernel and
    its compiled functions, however many charts, overlaps or models hold
    them.  A formula on a chart compiles over the chart's names, a free one
    over its arguments."""
    return Kernel(exprs, names)


def parse(text: str) -> Expression:
    return Expression(_Parser(text).parse(), text)


# ---------------------------------------------------------------------------
# Printing (semantic round trip: parse(to_text(e)) evaluates like e)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _pieces(node: Node, context: int) -> list:
    """Text of ``node`` printed in ``context``: strings, and (child,
    context) pairs still to print."""
    kind = type(node)
    if kind is Literal:
        if math.isinf(node.value):
            return ["1e999" if node.value > 0 else "(-1e999)"]
        text = repr(node.value)
        return [f"({text})" if text.startswith("-") and context >= 3 else text]
    if kind is Coordinate:
        return [node.name]
    if kind is Negate:
        parts, wrap = ["-", (node.operand, 3)], context > 3
    elif kind is BinaryOp:
        prec = _PREC[node.op]
        parts = [(node.left, prec), f" {node.op} ", (node.right, prec + 1)]
        wrap = context > prec
    elif kind is Power:
        # the base prints in context 4 (which already parenthesizes a sum or
        # a negation) and is parenthesized once more
        base = [(node.base, 4)]
        if type(node.base) in (Negate, BinaryOp):
            base = ["(", *base, ")"]
        return [*base, f"^{node.exponent}"]
    else:
        return [f"{node.func}(", (node.argument, 0), ")"]
    return ["(", *parts, ")"] if wrap else parts


def to_text(e: Expression) -> str:
    out: list[str] = []
    stack: list = [(e.root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_pieces(*item)))
    return "".join(out)


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
