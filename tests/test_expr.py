import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contactkit import expr
from contactkit.expr import (DomainError, Literal, ParseError, UnboundName,
                             UnknownFunction, parse, to_text)
from contactkit.geometry import Chart, alpha_components, dalpha_matrix
from helpers import (fd_derivative, random_expression, random_polynomial, reference_eval,
                     reference_eval_dual, reference_gradient, reference_names)


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
    """Value of ``e`` with its sign (NaN compares equal to NaN) or the type
    it raises."""
    try:
        value = e.eval(bindings)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return "nan" if math.isnan(value) else (value, math.copysign(1.0, value))


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
@example(e=expr.power(expr.literal(-0.0), 2), a=0.0, b=0.0)  # prints as (-0.0)^2
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
            reference[i] = reference_eval_dual(e, bindings, {name: 1.0})[1]
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


def _result(fn, *args):
    """What ``fn`` returns, or the type and span of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), getattr(exc, "span", None)


def _raised(result):
    return isinstance(result, tuple) and isinstance(result[0], type)


def _same(new, old):
    if _raised(new) or _raised(old):
        return new == old
    return np.array_equal(np.asarray(new), np.asarray(old), equal_nan=True)


def _check_against_reference(e, bindings, names):
    assert _same(_result(e.eval, bindings), _result(reference_eval, e, bindings))
    seed = {name: 0.5 + i for i, name in enumerate(names)}
    assert _same(_result(e.eval_dual, bindings, seed),
                 _result(reference_eval_dual, e, bindings, seed))
    assert _same(_result(e.gradient, bindings, names),
                 _result(reference_gradient, e, bindings, names))


@settings(max_examples=300, deadline=None)
@given(tree=_TREE, bindings=_POINT)
def test_kernel_matches_reference_on_smooth_trees(tree, bindings):
    _check_against_reference(_tree(*tree), bindings, ("z", "x", "w", "y"))


@settings(max_examples=500, deadline=None)
@given(e=st.recursive(_LEAVES, _branches, max_leaves=12),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_kernel_matches_reference_on_infinite_literal_trees(e, a, b):
    _check_against_reference(e, {"a": a, "b": b}, ("b", "a"))


def test_gradient_raises_in_the_order_of_per_name_passes():
    # the pass along a hits the sqrt slope at zero before the log's value
    e = parse("sqrt(a) + log(b)")
    with pytest.raises(DomainError) as err:
        e.gradient({"a": 0.0, "b": -1.0}, ["a", "b"])
    assert err.value.reason == "sqrt derivative at zero"
    with pytest.raises(DomainError) as err:
        e.eval({"a": 0.0, "b": -1.0})
    assert err.value.reason == "log of a non-positive value"
    assert reference_names(e.root) == list(e.arguments) == ["a", "b"]


@pytest.mark.parametrize("source, where", [("1/x", "1/x"), ("2 + x/x", "x/x"),
                                           ("3 - x^2 + 1/(2*x)", "1/(2*x)")])
def test_division_derivative_underflow_raises_domain_error(source, where):
    e = parse(source)
    assert math.isfinite(e.eval({"x": 1e-100}))
    for call in (lambda: e.gradient({"x": 1e-200}, ["x"]),
                 lambda: e.eval_dual({"x": 1e-200}, {"x": 1.0})):
        with pytest.raises(DomainError) as err:
            call()
        start, end = err.value.span
        assert source[start:end] == where
        assert err.value.reason == "derivative of a division underflows"


@pytest.mark.parametrize("source, bindings, where", [
    ("2 + x * (y - y)", {"x": math.inf, "y": 1.0}, "x * (y - y)"),
    ("(x - x)^-1", {"x": 1.0}, "(x - x)^-1"),
    ("-(x - x)^-1 + 1", {"x": 1.0}, "(x - x)^-1"),
    ("((x)) / (x - x)", {"x": 2.0}, "((x)) / (x - x)"),
    ("(1e999 - x) * 2", {"x": math.inf}, "1e999 - x"),
])
def test_spans_cover_parenthesized_operands(source, bindings, where):
    with pytest.raises(DomainError) as err:
        parse(source).eval(bindings)
    start, end = err.value.span
    assert source[start:end] == where


def test_long_sum_needs_no_recursion():
    text = " + ".join(["x"] * 1200)
    e = parse(text)
    assert e.names == {"x"}
    assert e.eval({"x": 0.5}) == 600.0
    assert np.array_equal(e.gradient({"x": 0.5}, ["y", "x"]), [0.0, 1200.0])
    assert e.eval_dual({"x": 0.5}, {"x": 2.0}) == (600.0, 2400.0)
    # printing, comparing, hashing and repr walk the tree without recursion
    assert to_text(e) == str(e) == text
    twin = parse(text)
    assert e == twin and hash(e) == hash(twin)
    assert e != parse(text + " + y") and e.root != parse(text + " + y").root
    assert repr(e).startswith(f"Expression(root=BinaryOp(span=(0, {len(text)}), op='+', "
                              "left=BinaryOp(")
    assert repr(e).count("Coordinate(span=") == 1200


def _dataclass_repr(node) -> str:
    """The recursive repr the dataclass decorator would generate."""
    parts = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        text = _dataclass_repr(value) if isinstance(value, expr.Node) else repr(value)
        parts.append(f"{f.name}={text}")
    return f"{type(node).__name__}({', '.join(parts)})"


def test_node_dunders_match_the_dataclass_ones():
    e = parse("-(x + 2.5) * sin(y)^2")
    assert repr(e.root) == _dataclass_repr(e.root)
    assert repr(e) == f"Expression(root={_dataclass_repr(e.root)}, source={e.source!r})"
    assert e == parse("-(x + 2.5) * sin(y)^2")
    assert e != parse("-(x + 2.5) * sin(y)^3")
    assert e.root.left != e.root.right and e.root != "text"
    assert len({e, parse("-(x + 2.5) * sin(y)^2"), parse("x")}) == 2
    # a zero literal keeps its sign: 0.0 and -0.0 print apart, so they differ
    zero, minus_zero = expr.literal(0.0), expr.literal(-0.0)
    assert repr(minus_zero.root) == _dataclass_repr(minus_zero.root)
    assert zero != minus_zero and zero.root != minus_zero.root
    assert len({zero, minus_zero}) == 2 and len({zero.root, minus_zero.root}) == 2


_STACK_SOURCES = [
    "sin(x) * exp(y) - cos(x * y) / (1 + x^2)",
    "tan(x) + log(abs(y) + 1) - sqrt(x * x + y * y)^3",
    "x^-2 + abs(y)^0 - 2.5 / (x - y)",
    "log(x) + sqrt(y) * exp(x / y)",
    "1 / x^3 - sqrt(x) + tan(y)^-1",
    "2 * 3 - 1e999 * 0 + x",
]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def _bordered_stack(kernel):
    """``B = [[J^T - J, a^T], [a, 0]]`` per row from the stacked jet of ``a``."""
    def rows(x):
        values, jac = kernel.jet_stack(x)
        n = values.shape[1]
        b = np.zeros((len(x), n + 1, n + 1))
        with np.errstate(all="ignore"):
            b[:, :n, :n] = jac.transpose(0, 2, 1) - jac
        b[:, :n, n] = b[:, n, :n] = values
        return b
    return rows


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                     min_size=1, max_size=12),
       edges=st.lists(st.sampled_from([0.0, -0.0, 1e-200, 800.0]), max_size=3))
def test_stacked_kernel_rows_equal_the_scalar_kernel(rows, edges):
    """Every row of value_stack and jet_stack equals the scalar entry point
    bit for bit, and so does the bordered matrix of the stacked jet equal
    ``bordered``; a failing stack raises the type, span and message of the
    scalar error on its first failing row."""
    x = np.array(rows + [(z, z) for z in edges] + [(z, 1.0) for z in edges])
    for source in _STACK_SOURCES:
        kernel = expr.Kernel([parse(source), parse("x * y")], ["x", "y"])
        for jet, stacked, scalar in ((False, kernel.value_stack, kernel.value),
                                     (True, kernel.jet_stack, kernel.jet),
                                     (False, _bordered_stack(kernel), kernel.bordered)):
            expected, failure = [], None
            for row in x.tolist():
                try:
                    expected.append(scalar(*row))
                except DomainError as err:
                    failure = err
                    break
            if failure is not None:
                with pytest.raises(DomainError) as err:
                    stacked(x)
                assert (type(err.value), err.value.span, str(err.value)) == \
                    (type(failure), failure.span, str(failure))
                continue
            result = stacked(x)
            for k, want in enumerate(expected):
                if jet:
                    assert _same_bits(result[0][k], want[0])
                    assert _same_bits(result[1][k], want[1])
                else:
                    assert _same_bits(result[k], want)


def test_stacked_kernel_of_no_rows_and_constants():
    kernel = expr.Kernel([parse("2.5"), parse("x - 1e999")], ["x"])
    values, partials = kernel.jet_stack(np.zeros((0, 1)))
    assert values.shape == (0, 2) and partials.shape == (0, 2, 1)
    values, partials = kernel.jet_stack(np.array([[1.0], [2.0]]))
    assert np.array_equal(values, [[2.5, -math.inf], [2.5, -math.inf]])
    assert np.array_equal(partials, [[[0.0], [1.0]], [[0.0], [1.0]]])
    with pytest.raises(DomainError) as err:
        expr.Kernel([parse("1/0 + x")], ["x"]).value_stack(np.ones((3, 1)))
    assert err.value.reason == "division by zero"


def test_stacks_compile_the_scalar_entry_points_only_to_replay_a_failure():
    kernel = expr.Kernel([parse("log(x) + 1/y")], ["x", "y"])
    kernel.value_stack(np.ones((3, 2)))
    kernel.jet_stack(np.ones((3, 2)))
    assert "value" not in kernel.__dict__ and "jet" not in kernel.__dict__
    # the stack's first tripped guard (log, row 2) is not its first failing
    # row's error (division, row 1)
    x = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError) as want:
        kernel.value(1.0, 0.0)
    for stacked in (kernel.value_stack, kernel.jet_stack):
        with pytest.raises(DomainError) as err:
            stacked(x)
        assert (err.value.span, str(err.value)) == (want.value.span, str(want.value))


def test_compiled_gives_equal_formulas_one_kernel():
    a, b = parse("log(x) * y"), parse("log(x) * y")
    assert a is not b and a.kernel is b.kernel
    assert expr.compiled((a, b), ("x", "y")) is expr.compiled((b, a), ("x", "y"))
    assert expr.compiled((a,), ("x", "y")) is not expr.compiled((a,), ("y", "x"))
    # the same tree from other text: domain errors quote the text, so it
    # gets a kernel of its own
    other = expr.Expression(a.root, "LOG(x) * y")
    assert other.root == a.root and other.kernel is not a.kernel
    for e, quoted in ((a, "'log(x)'"), (other, "'LOG(x)'")):
        with pytest.raises(DomainError) as err:
            e.eval({"x": 0.0, "y": 1.0})
        assert str(err.value).endswith(quoted)
    # x + 0.0 and x + (-0.0) differ at x = -0.0, whichever compiles first
    for name, first in (("zero_first", 0.0), ("minus_zero_first", -0.0)):
        zeros = (first, -first)
        forms = [expr.add(expr.coordinate(name), expr.literal(z)) for z in zeros]
        assert forms[0] != forms[1] and forms[0].kernel is not forms[1].kernel
        for z, form in zip(zeros, forms):
            value = form.eval({name: -0.0})
            assert value == 0.0 and math.copysign(1.0, value) == math.copysign(1.0, z)


def test_equal_formulas_are_those_with_equal_reprs():
    """Random formulas, each built twice from its seed: two are equal
    exactly when their reprs are, and equal ones share a hash and a kernel."""
    def build(seed):
        return random_expression(np.random.default_rng(seed), ["x", "y"], depth=3)

    formulas = [build(seed) for seed in range(12) for _ in range(2)]
    formulas += [expr.Expression(e.root, to_text(e)) for e in formulas[:6]]
    formulas += [expr.add(formulas[0], expr.literal(z)) for z in (0.0, -0.0, 0.0)]
    for a in formulas:
        for b in formulas:
            assert (a == b) == (repr(a) == repr(b)) == (a.root == b.root and a.source == b.source)
            if a == b:
                assert hash(a) == hash(b) and hash(a.root) == hash(b.root)
                assert expr.compiled((a,), ("x", "y")) is expr.compiled((b,), ("x", "y"))


@pytest.mark.parametrize("name", ["__import__('os')", "a b", "x0", "_E", "v1"])
def test_any_coordinate_name_evaluates(name):
    other = "x1" if name != "x1" else "y"
    e = expr.add(expr.multiply(expr.coordinate(name), expr.coordinate(name)),
                 expr.multiply(expr.literal(3.0), expr.coordinate(other)))
    bindings = {name: 2.0, other: -1.0}
    assert e.names == {name, other}
    assert e.eval(bindings) == 1.0
    assert np.array_equal(e.gradient(bindings, [other, name]), [3.0, 4.0])
    assert e.eval_dual(bindings, {name: 1.0, other: 1.0}) == (1.0, 7.0)
    chart = Chart(id="odd", names=(name, other, "z"), alpha=(expr.literal(1.0), e, e),
                  periodic=(False,) * 3, bounds=((-9.0, 9.0),) * 3)
    assert np.array_equal(alpha_components(chart, [2.0, -1.0, 0.0]), [1.0, 1.0, 1.0])
    assert np.array_equal(dalpha_matrix(chart, [2.0, -1.0, 0.0]),
                          [[0.0, 4.0, 4.0], [-4.0, 0.0, 3.0], [-4.0, -3.0, 0.0]])


_CHART_NAMES = ("x", "y", "z")


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3), bindings=_POINT)
def test_chart_kernel_matches_per_coefficient_reference(seeds, bindings):
    alpha = tuple(random_expression(np.random.default_rng(seed), _CHART_NAMES, depth=3)
                  for seed in seeds)
    chart = Chart(id="random", names=_CHART_NAMES, alpha=alpha,
                  periodic=(False,) * 3, bounds=((-2.0, 2.0),) * 3)
    x = [bindings[name] for name in _CHART_NAMES]
    grads = np.array([reference_gradient(a, bindings, _CHART_NAMES) for a in alpha])
    assert np.array_equal(alpha_components(chart, x),
                          [reference_eval(a, bindings) for a in alpha])
    assert np.array_equal(dalpha_matrix(chart, x), grads.T - grads)
