import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactkit import expr
from contactkit.expr import (DomainError, Literal, ParseError, UnboundName,
                             UnknownFunction, parse, to_text)
from helpers import fd_derivative, random_expression, random_polynomial


def test_parse_literal():
    e = parse("1")
    assert isinstance(e.root, Literal)
    assert e.eval({}) == 1.0


def test_parse_structure():
    e = parse("q0 + p1*q1")
    assert e.names == {"q0", "p1", "q1"}


def test_sin_zero():
    assert parse("2 + 3*sin(0)").eval({}) == 2.0


def test_eval_coordinate():
    assert parse("q0").eval({"q0": 3.5}) == 3.5


def test_pythagorean_identity():
    e = parse("sin(x)^2 + cos(x)^2")
    for x in [-3.0, 0.0, 0.7, 11.3]:
        assert abs(e.eval({"x": x}) - 1.0) < 1e-15


def test_product():
    assert parse("p1*q1").eval({"p1": 2.0, "q1": -3.0}) == -6.0


def test_precedence():
    assert parse("2+3*4^2").eval({}) == 50.0
    assert parse("-2^2").eval({}) == -4.0          # power binds tighter than minus
    assert parse("2-3-4").eval({}) == -5.0
    assert parse("2^2^3").eval({}) == 64.0         # left associative
    assert parse("(2+3)*4").eval({}) == 20.0
    assert parse("12/4/3").eval({}) == 1.0


def test_integer_exponents_only():
    with pytest.raises(ParseError):
        parse("x^2.5")
    assert parse("x^-2").eval({"x": 2.0}) == 0.25
    assert parse("x^(-2)").eval({"x": 2.0}) == 0.25
    assert parse("x^0").eval({"x": 0.0}) == 1.0


def test_dual_square():
    assert parse("x^2").eval_dual({"x": 3.0}, {"x": 1.0}) == (9.0, 6.0)


def test_dual_constant():
    assert parse("7.5").eval_dual({}, {})[1] == 0.0
    assert parse("c").eval_dual({"c": 2.0}, {})[1] == 0.0


def test_dual_against_finite_differences():
    rng = np.random.default_rng(7)
    names = ["x", "y", "z"]
    for _ in range(200):
        e = expr.Expression(random_expression(rng, names, depth=6).root)
        bindings = {n: float(rng.uniform(-1.5, 1.5)) for n in names}
        seed = {n: float(rng.uniform(-1, 1)) for n in names}
        value, deriv = e.eval_dual(bindings, seed)
        oracle = fd_derivative(e, bindings, seed)
        assert abs(deriv - oracle) / (1.0 + abs(deriv)) < 1e-6


def test_sum_and_product_rules_exact():
    rng = np.random.default_rng(3)
    names = ["x", "y"]
    for _ in range(50):
        e1 = random_expression(rng, names, depth=4)
        e2 = random_expression(rng, names, depth=4)
        bindings = {n: float(rng.uniform(-1, 1)) for n in names}
        seed = {n: float(rng.uniform(-1, 1)) for n in names}
        v1, d1 = e1.eval_dual(bindings, seed)
        v2, d2 = e2.eval_dual(bindings, seed)
        assert expr.add(e1, e2).eval_dual(bindings, seed) == (v1 + v2, d1 + d2)
        vm, dm = expr.multiply(e1, e2).eval_dual(bindings, seed)
        assert vm == v1 * v2
        assert dm == d1 * v2 + v1 * d2


def test_print_round_trip():
    rng = np.random.default_rng(11)
    names = ["a", "b"]
    for _ in range(100):
        e = expr.Expression(random_expression(rng, names, depth=5).root)
        back = parse(to_text(e))
        for _ in range(5):
            bindings = {n: float(rng.uniform(-2, 2)) for n in names}
            assert back.eval(bindings) == e.eval(bindings)


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("sin(x")
    assert err.value.expected


def test_unknown_function():
    with pytest.raises(UnknownFunction) as err:
        parse("sine(x)")
    assert err.value.name == "sine"


def test_unbound_name():
    with pytest.raises(UnboundName) as err:
        parse("x + y").eval({"x": 1.0})
    assert err.value.name == "y"


def test_domain_errors_eager():
    with pytest.raises(DomainError):
        parse("log(0 - 1)").eval({})
    with pytest.raises(DomainError):
        parse("1/x").eval({"x": 0.0})
    with pytest.raises(DomainError):
        parse("sqrt(0-x)").eval({"x": 2.0})
    with pytest.raises(DomainError):
        parse("x^-1").eval({"x": 0.0})


def test_domain_error_carries_span():
    source = "1 + log(x)"
    with pytest.raises(DomainError) as err:
        parse(source).eval({"x": -1.0})
    start, end = err.value.span
    assert source[start:end] == "log(x)"


def test_functions_match_math():
    for name, fn in [("sin", math.sin), ("cos", math.cos), ("tan", math.tan),
                     ("exp", math.exp), ("log", math.log), ("sqrt", math.sqrt),
                     ("abs", abs)]:
        e = parse(f"{name}(x)")
        for x in [0.3, 1.7]:
            assert e.eval({"x": x}) == fn(x)


def test_whitespace_and_scientific_notation():
    assert parse(" 1.5e2 +\t2 ").eval({}) == 152.0


def test_print_round_trip_edge_forms():
    from contactkit.expr import parse, to_text
    for text, bindings in [
            ("x^-2", {"x": 1.7}),
            ("(-x)^2 - -x^2", {"x": 1.3}),
            ("-(a + b)*c", {"a": 1.0, "b": 2.0, "c": -0.5}),
            ("a - (b - c)", {"a": 5.0, "b": 2.0, "c": 0.25}),
            ("sin(cos(x^3))/(1 + x^2)", {"x": 0.8}),
            ("2^2^3", {})]:
        e = parse(text)
        again = parse(to_text(e))
        assert again.eval(bindings) == e.eval(bindings)


def test_infinite_literals_print_as_overflowing_numbers():
    assert to_text(expr.literal(math.inf)) == "1e999"
    assert to_text(expr.literal(-math.inf)) == "(-1e999)"
    assert parse(to_text(expr.literal(math.inf))).eval({}) == math.inf
    assert parse(to_text(expr.literal(-math.inf))).eval({}) == -math.inf
    with pytest.raises(ValueError):
        expr.literal(math.nan)


def _outcome(e, bindings):
    """Value of ``e`` (NaN compares equal to NaN) or the type it raises."""
    try:
        value = e.eval(bindings)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return "nan" if math.isnan(value) else value


_LEAVES = st.one_of(
    st.floats(allow_nan=False).map(expr.literal),
    st.sampled_from([math.inf, -math.inf]).map(expr.literal),
    st.sampled_from(["a", "b"]).map(expr.coordinate))


def _branches(children):
    return st.one_of(
        st.tuples(st.sampled_from([expr.add, expr.subtract, expr.multiply, expr.divide]),
                  children, children).map(lambda t: t[0](t[1], t[2])),
        children.map(expr.negate),
        st.tuples(children, st.integers(-3, 3)).map(lambda t: expr.power(*t)),
        st.tuples(st.sampled_from(sorted(expr.FUNCTION_NAMES)),
                  children).map(lambda t: expr.call(*t)))


@settings(max_examples=300, deadline=None)
@given(e=st.recursive(_LEAVES, _branches, max_leaves=12),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_print_round_trip_with_infinite_literals(e, a, b):
    again = parse(to_text(e))
    assert _outcome(again, {"a": a, "b": b}) == _outcome(e, {"a": a, "b": b})


@pytest.mark.parametrize("func", ["sin", "cos", "tan"])
@pytest.mark.parametrize("arg", ["1e999", "-1e999"])
def test_trig_of_infinite_argument_raises_domain_error(func, arg):
    source = f"1 + {func}({arg})"
    with pytest.raises(DomainError) as err:
        parse(source).eval({})
    start, end = err.value.span
    assert source[start:end] == f"{func}({arg})"
    with pytest.raises(DomainError):
        parse(f"{func}(x * 1e999)").eval_dual({"x": 2.0}, {"x": 1.0})


@pytest.mark.parametrize("source", [
    "1e999 - 1e999",
    "0 * 1e999",
    "1e999 / 1e999",
    "exp(700)*exp(700) - exp(700)*exp(700)",
])
def test_nan_arithmetic_raises_domain_error(source):
    with pytest.raises(DomainError) as err:
        parse(source).eval({})
    assert err.value.span == (0, len(source))
    with pytest.raises(DomainError):
        parse(source).eval_dual({}, {})


def test_nan_inside_a_larger_formula_names_its_subexpression():
    source = "2 + x * y + 1"
    with pytest.raises(DomainError) as err:
        parse(source).eval({"x": math.inf, "y": 0.0})
    start, end = err.value.span
    assert source[start:end] == "x * y"


@settings(max_examples=300, deadline=None)
@given(e=st.recursive(_LEAVES, _branches, max_leaves=12),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_eval_is_never_nan(e, a, b):
    try:
        value = e.eval({"a": a, "b": b})
    except DomainError:
        return
    assert isinstance(value, float) and not math.isnan(value)


# trees of this depth keep the central difference within 1e-6; deeper
# random trees reach degrees where its round-off alone exceeds that
_TREE = st.tuples(st.integers(0, 2**32 - 1), st.booleans())
_POINT = st.fixed_dictionaries({n: st.floats(-1.5, 1.5) for n in ("x", "y", "z")})


def _tree(seed, polynomial):
    rng = np.random.default_rng(seed)
    if polynomial:
        return random_polynomial(rng, ["x", "y", "z"])
    return random_expression(rng, ["x", "y", "z"], depth=4)


@settings(max_examples=200, deadline=None)
@given(tree=_TREE, bindings=_POINT, order=st.permutations(["w", "x", "y", "z"]))
def test_gradient_is_the_per_name_dual_loop(tree, bindings, order):
    e = _tree(*tree)
    reference = np.zeros(len(order))
    for i, name in enumerate(order):
        if name in e.names:
            reference[i] = e.eval_dual(bindings, {name: 1.0})[1]
    assert np.array_equal(e.gradient(bindings, order), reference)


@settings(max_examples=200, deadline=None)
@given(tree=_TREE, bindings=_POINT)
def test_gradient_against_finite_differences(tree, bindings):
    e = _tree(*tree)
    names = ("x", "y", "z")
    grad = e.gradient(bindings, names)
    for i, name in enumerate(names):
        oracle = fd_derivative(e, bindings, {name: 1.0})
        assert abs(grad[i] - oracle) / (1.0 + abs(grad[i])) < 1e-6
