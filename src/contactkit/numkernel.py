"""Dense linear algebra and vector-field calculus shared by the geometric layers.

Scalar fields are callables ``x -> float``; vector fields are callables
``x -> ndarray``.  A field that also exposes ``gradient(x)`` (for scalars)
or ``jvp(x, v)`` (for vector fields) is differentiated exactly through
that hook; anything else falls back to central finite differences with
step ``cbrt(eps) * scale``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContactKitError

DEFAULT_RANK_TOL = 1e-9

# optimal central-difference step for a second-order truncation error
FD_STEP = float(np.cbrt(np.finfo(float).eps))


class SingularSystem(ContactKitError):
    def __init__(self, effective_rank: int | None, needed: int, condition: float | None = None):
        self.effective_rank = effective_rank
        self.needed = needed
        super().__init__(
            f"linear system is rank deficient (rank {effective_rank}, need {needed})"
            if condition is None else f"linear system of size {needed} is singular "
            f"to working precision (condition estimate {condition:.3e})")


def solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact or least-squares solution of ``a x = b`` with its residual norm.

    Raises :class:`SingularSystem` when the effective column rank of ``a``
    falls below the number of unknowns.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=DEFAULT_RANK_TOL)
    if rank < a.shape[1]:
        raise SingularSystem(int(rank), a.shape[1])
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual


def numerical_rank(a: np.ndarray, tol: float = DEFAULT_RANK_TOL):
    """Count of singular values above ``tol`` times the largest one: an int
    for one matrix, an int array for a stack ``(..., m, n)`` from one
    stacked SVD (each matrix's singular values are those of its own SVD).
    A matrix with no entries, or only zeros, has rank 0."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        ranks = np.zeros(a.shape[:-2], dtype=int)
    else:
        sigma = np.linalg.svd(a, compute_uv=False)
        ranks = np.sum(sigma > tol * sigma[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over the last axis per leading index, bit for bit the 1-D
    product: a stacked ``(..., 1, d) @ (..., d, 1)`` matmul calls the same dot
    routine with the same strides (``einsum`` or a 2-D gemv may round apart)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def grad(field, x: np.ndarray, step: float | None = None) -> np.ndarray:
    """Gradient covector of a scalar field at ``x``."""
    exact = getattr(field, "gradient", None)
    if exact is not None:
        return np.asarray(exact(x), dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        h = step if step is not None else FD_STEP * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (field(xp) - field(xm)) / (2.0 * h)
    return out


def directional(field, x: np.ndarray, v: np.ndarray,
                step: float | None = None) -> np.ndarray:
    """Derivative of a vector field at ``x`` along the vector ``v``."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    exact = getattr(field, "jvp", None)
    if exact is not None:
        return np.asarray(exact(x, v), dtype=float)
    speed = float(np.linalg.norm(v))
    if speed == 0.0:
        return np.zeros_like(np.asarray(field(x), dtype=float))
    u = v / speed
    h = step if step is not None else FD_STEP * (1.0 + float(np.linalg.norm(x)))
    fp = np.asarray(field(x + h * u), dtype=float)
    fm = np.asarray(field(x - h * u), dtype=float)
    return (fp - fm) / (2.0 * h) * speed


def lie_bracket(field_x, field_y, x: np.ndarray,
                step: float | None = None) -> np.ndarray:
    """Commutator ``[X, Y] = (DY) X - (DX) Y`` evaluated at ``x``."""
    vx = np.asarray(field_x(x), dtype=float)
    vy = np.asarray(field_y(x), dtype=float)
    return directional(field_y, x, vx, step) - directional(field_x, x, vy, step)
