import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactkit import numkernel
from contactkit.geometry import ChartField
from contactkit.numkernel import (SingularSystem, grad, lie_bracket,
                                  numerical_rank, solve)
from helpers import canonical_chart, random_polynomial


def test_solve_identity():
    b = np.array([1.0, -2.0, 3.0])
    x, residual = solve(np.eye(3), b)
    assert np.allclose(x, b)
    assert residual < 1e-14


def test_solve_scalar():
    x, _ = solve(np.array([[2.0]]), np.array([4.0]))
    assert x[0] == pytest.approx(2.0)


def test_solve_random_residual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(5, 5)) + 3.0 * np.eye(5)
        b = rng.normal(size=5)
        x, residual = solve(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10
        assert residual < 1e-10


def test_solve_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystem) as err:
        solve(a, np.array([1.0, 1.0]))
    assert err.value.effective_rank == 1


def test_rank_zero_matrix():
    assert numerical_rank(np.zeros((4, 4))) == 0


def test_rank_identity():
    for n in (1, 3, 6):
        assert numerical_rank(np.eye(n)) == n


def test_rank_proportional_rows():
    assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def _matrix(kind: str, rank: int, m: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "deficient":  # a product through ``rank`` inner dimensions
        return rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    return rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 4)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(0, 4), n=st.integers(1, 6), count=st.integers(0, 5),
       kinds=st.lists(st.tuples(st.sampled_from(["random", "zero", "deficient"]),
                               st.integers(0, 3), st.integers(0, 2**31)),
                      min_size=5, max_size=5))
def test_stacked_rank_equals_the_per_matrix_rank(m, n, count, kinds):
    """One stacked SVD gives every matrix the rank it has on its own, which
    is also the count numpy's matrix_rank makes with the same cutoff."""
    stack = np.array([_matrix(kind, min(rank, m, n), m, n, seed)
                      for kind, rank, seed in kinds[:count]]).reshape(count, m, n)
    ranks = numerical_rank(stack)
    assert ranks.shape == (count,) and ranks.dtype.kind == "i"
    for a, rank in zip(stack, ranks):
        assert numerical_rank(a) == rank
        if a.size:
            top = np.linalg.svd(a, compute_uv=False)[0]
            assert rank == np.linalg.matrix_rank(a, tol=1e-9 * top)
        else:
            assert rank == 0
    assert numerical_rank(stack.reshape(1, count, m, n)).shape == (1, count)


def test_grad_coordinate():
    chart = canonical_chart(2)
    f = ChartField(chart, "q0")
    g = grad(f, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
    assert np.allclose(g, [1, 0, 0, 0, 0])


def test_grad_product_rule():
    chart = canonical_chart(1)
    f = ChartField(chart, "p1*q1")
    x = np.array([0.3, 2.0, -1.5])
    g = grad(f, x)
    assert np.allclose(g, [0.0, -1.5, 2.0])


def test_grad_fd_agreement():
    rng = np.random.default_rng(9)
    chart = canonical_chart(2)
    for _ in range(20):
        e = random_polynomial(rng, chart.names)
        field = ChartField(chart, e)
        x = rng.uniform(-1.5, 1.5, size=5)
        exact = grad(field, x)
        approx = grad(lambda y: field(y), x)  # plain callable: finite differences
        denom = 1.0 + np.abs(exact)
        assert np.max(np.abs(exact - approx) / denom) < 1e-6


def test_lie_bracket_self():
    def field(x):
        return np.array([x[1] ** 2, np.sin(x[0]), x[2]])

    x = np.array([0.4, -0.9, 1.2])
    assert np.linalg.norm(lie_bracket(field, field, x)) < 1e-9


def test_lie_bracket_constants():
    a = lambda x: np.array([1.0, 2.0, 3.0])
    b = lambda x: np.array([-1.0, 0.5, 0.0])
    assert np.linalg.norm(lie_bracket(a, b, np.zeros(3))) < 1e-12


def test_lie_bracket_hand_computed():
    # [x d/dy, d/dx] = -d/dy
    xdy = lambda v: np.array([0.0, v[0]])
    dx = lambda v: np.array([1.0, 0.0])
    for point in [np.array([0.3, 1.1]), np.array([-2.0, 0.0])]:
        result = lie_bracket(xdy, dx, point)
        assert np.allclose(result, [0.0, -1.0], atol=1e-9)


def test_lie_bracket_antisymmetry():
    rng = np.random.default_rng(13)

    def make(coeffs):
        return lambda v: np.array([coeffs[0] * v[0] * v[1] + coeffs[1],
                                   coeffs[2] * v[1] ** 2,
                                   coeffs[3] * v[0]])

    for _ in range(20):
        a = make(rng.uniform(-1, 1, 4))
        b = make(rng.uniform(-1, 1, 4))
        x = rng.uniform(-1, 1, 3)
        forward = lie_bracket(a, b, x)
        backward = lie_bracket(b, a, x)
        assert np.linalg.norm(forward + backward) < 1e-12


class _PolyField:
    """Quadratic field with its exact Jacobian-vector product."""

    def __init__(self, c):
        self.c = c

    def __call__(self, v):
        c = self.c
        return np.array([c[0] * v[1], c[1] * v[0] * v[2], c[2] * v[0] ** 2])

    def jvp(self, v, w):
        c = self.c
        return np.array([c[0] * w[1],
                         c[1] * (w[0] * v[2] + v[0] * w[2]),
                         2.0 * c[2] * v[0] * w[0]])


def test_lie_bracket_jacobi_identity():
    # inner brackets differentiate exactly through jvp; the outer level is
    # finite differences on the bracket closures
    rng = np.random.default_rng(17)
    for _ in range(10):
        a, b, c = (_PolyField(rng.uniform(-1, 1, 3)) for _ in range(3))
        x = rng.uniform(-0.8, 0.8, 3)
        total = (lie_bracket(a, lambda y: lie_bracket(b, c, y), x, step=1e-5)
                 + lie_bracket(b, lambda y: lie_bracket(c, a, y), x, step=1e-5)
                 + lie_bracket(c, lambda y: lie_bracket(a, b, y), x, step=1e-5))
        assert np.linalg.norm(total) < 1e-8
