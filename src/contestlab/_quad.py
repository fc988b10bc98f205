"""Numeric primitives: the scalar/array convention, Gauss-Legendre panels
and vectorised bisection.

Every public elementwise function of the package (of t, effort, cost level,
type or quantile level) goes through _elementwise: it takes a scalar or an
array of any shape, rejects NaN, infinities and points outside its interval,
and returns the argument's shape, a scalar as a Python float. Internal
loops, integrands and bisections call the unchecked cores instead.

The integrands fed through here are smooth except possibly at panel
endpoints (segment breakpoints are never interior), so a 64-node rule per
panel converges fast; bisection kicks in only when two refinement levels
disagree. Every monotone inverse in the package (prize curve, tabulated
costs, continuum quantiles and strategies) runs on _monotone_inverse.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ArgumentError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)

QUAD_TOL = 1e-10

# Panels per integrand call in gauss_panels: 8192 nodes keep the integrand's
# temporaries small; larger blocks were slower and raised peak memory.
_PANEL_BLOCK = 128


def _elementwise(core, x, lo: float, hi: float, name: str, error=ArgumentError):
    """core applied to x under the convention above; raises error unless x lies in [lo, hi]."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= lo) & (arr <= hi)):
        raise error(f"{name} must be finite and lie in [{lo:g}, {hi:g}], got {x!r}")
    out = core(arr.ravel())
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def gauss_panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """64-node Gauss-Legendre approximation of the integral of f over [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(_WEIGHTS, f(mid + half * _NODES)))


def gauss_panels(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray):
    """gauss_panel over 1-D arrays of panel ends, with f called on a block of panels at once.

    Each panel is summed on its own row by einsum, not by a BLAS
    matrix-vector product, whose summation order for a row depends on the
    row's place in the block: a panel's value must not depend on which
    other panels share the call.
    """
    out = np.empty_like(a)
    for i in range(0, a.size, _PANEL_BLOCK):
        lo, hi = a[i : i + _PANEL_BLOCK], b[i : i + _PANEL_BLOCK]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * _NODES
        values = f(nodes.ravel()).reshape(nodes.shape)
        out[i : i + _PANEL_BLOCK] = half * np.einsum("ij,j->i", values, _WEIGHTS)
    return out


def adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = QUAD_TOL,
    max_depth: int = 32,
) -> float:
    """Integrate f over [a, b], bisecting panels until refinement stabilizes.

    f must accept a vector of evaluation points. The interval is accepted
    once a panel and its two halves agree within tol (split across halves on
    recursion); max_depth caps the recursion near integrable endpoint
    singularities such as sqrt-type integrands.
    """
    if b <= a:
        return 0.0
    return _refine(f, a, b, gauss_panel(f, a, b), tol, max_depth)


def _refine(f, a, b, coarse, tol, depth):
    mid = 0.5 * (a + b)
    left = gauss_panel(f, a, mid)
    right = gauss_panel(f, mid, b)
    fine = left + right
    if abs(fine - coarse) <= tol or depth <= 0 or mid <= a or mid >= b:
        return fine
    half_tol = 0.5 * tol
    return _refine(f, a, mid, left, half_tol, depth - 1) + _refine(
        f, mid, b, right, half_tol, depth - 1
    )


def _monotone_inverse(f, y, lo, hi, steps: int, tol: float = 0.0) -> np.ndarray:
    """Solve f(x) = y elementwise by bisection, for f nondecreasing on [lo, hi].

    f maps an array of points to an array of values. Each element keeps the
    bracket with f(lo) < y <= f(hi) and stops once its width falls to
    tol * max(1, |hi|), so an element's result does not depend on which
    other elements share the call. Returns the bracket midpoints.
    """
    y = np.asarray(y, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), y.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), y.shape).copy()
    active = np.ones(y.shape, dtype=bool)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = f(mid) < y
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
        if tol > 0.0:
            active &= hi - lo > tol * np.maximum(1.0, np.abs(hi))
            if not active.any():
                break
    return 0.5 * (lo + hi)
