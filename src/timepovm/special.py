"""Airy function machinery and the scalar product-minimization identity.

The decaying Airy solution of y'' = x*y is evaluated from its power
series around 0 (seeded by Gamma-function values) together with Taylor
stepping of the same equation along a ladder of expansion nodes.  On the
negative axis the solution is oscillatory and outward stepping is stable.
On the positive axis outward stepping would blow up the admixture of the
growing solution, so the ladder is filled by a downward pass from a far
anchor point, which amplifies the decaying direction instead, and is then
normalized against the series value at the origin.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["airy_ai", "airy_zero", "min_product_identity", "universal_constant"]

# Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3)
_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)

_STEP = 0.5
_NEG_MIN = -24.0
_POS_MAX = 30.0
_ANCHOR = 36.0
_TERMS = 30


def _taylor_coeffs(x0: float, y: float, yp: float) -> np.ndarray:
    """Taylor coefficients of the solution of y'' = x*y around x0."""
    a = np.empty(_TERMS)
    a[0] = y
    a[1] = yp
    a[2] = 0.5 * x0 * y
    for k in range(1, _TERMS - 2):
        a[k + 2] = (x0 * a[k] + a[k - 1]) / ((k + 2.0) * (k + 1.0))
    return a


def _taylor_step(x0: float, y: float, yp: float, dx: float) -> tuple[float, float]:
    a = _taylor_coeffs(x0, y, yp)
    val = 0.0
    der = 0.0
    for k in range(_TERMS - 1, 0, -1):
        val = val * dx + a[k]
        der = der * dx + k * a[k]
    val = val * dx + a[0]
    return val, der


@functools.lru_cache(maxsize=1)
def _ladder() -> tuple[np.ndarray, np.ndarray]:
    """Expansion nodes and the Taylor coefficients of Ai at each of them.

    Row k of the coefficients holds the degree-k coefficient at every node.
    """
    nodes = np.round(np.arange(_NEG_MIN, _POS_MAX + 0.5 * _STEP, _STEP), 10)
    zero_idx = int(np.round(-_NEG_MIN / _STEP))
    values = np.empty(nodes.size)
    derivs = np.empty(nodes.size)
    values[zero_idx] = _AI0
    derivs[zero_idx] = _AIP0
    y, yp = _AI0, _AIP0
    for i in range(zero_idx - 1, -1, -1):
        y, yp = _taylor_step(nodes[i + 1], y, yp, -_STEP)
        values[i] = y
        derivs[i] = yp
    # downward pass from the anchor; any seed with a decaying component works,
    # contamination by the growing solution dies off by e^{-2(zeta(anchor)-zeta(x))}
    y, yp = 1.0, -math.sqrt(_ANCHOR)
    x = _ANCHOR
    while x > _POS_MAX + 0.25 * _STEP:
        y, yp = _taylor_step(x, y, yp, -_STEP)
        x -= _STEP
    for i in range(nodes.size - 1, zero_idx, -1):
        values[i] = y
        derivs[i] = yp
        y, yp = _taylor_step(nodes[i], y, yp, -_STEP)
    scale = _AI0 / y
    values[zero_idx + 1 :] *= scale
    derivs[zero_idx + 1 :] *= scale
    coeffs = np.empty((nodes.size, _TERMS))
    for i in range(nodes.size):
        coeffs[i] = _taylor_coeffs(nodes[i], values[i], derivs[i])
    coeffs = np.ascontiguousarray(coeffs.T)
    for a in (nodes, coeffs):
        a.flags.writeable = False
    return nodes, coeffs


def airy_ai(x):
    """Decaying Airy function Ai, elementwise on scalars or arrays.

    Supported window is [-24, 30], generous compared to the guaranteed
    relative accuracy range [-15, 10]; arguments outside raise ValueError.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).astype(float).ravel()
    if flat.size:
        if not np.all(np.isfinite(flat)):
            raise ValueError("airy_ai requires finite arguments")
        if flat.min() < _NEG_MIN - 0.26 or flat.max() > _POS_MAX + 0.26:
            raise ValueError(
                f"argument outside supported window [{_NEG_MIN}, {_POS_MAX}]"
            )
    nodes, coeffs = _ladder()
    idx = np.clip(np.round((flat - _NEG_MIN) / _STEP).astype(int), 0, nodes.size - 1)
    dx = flat - nodes[idx]
    # one Horner recurrence for all points, each with the coefficients of its node
    out = coeffs[_TERMS - 1, idx]
    for k in range(_TERMS - 2, -1, -1):
        out = out * dx + coeffs[k, idx]
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


@functools.lru_cache(maxsize=1)
def _airy_zeros_table() -> tuple[float, ...]:
    xs = np.arange(-0.5, _NEG_MIN + 0.005, -0.01)
    vals = airy_ai(xs)
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flips.size < 20:
        raise RuntimeError("failed to bracket the first 20 Airy zeros")
    lo = xs[flips[:20] + 1]
    hi = xs[flips[:20]]
    flo = airy_ai(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = airy_ai(mid)
        same = np.sign(fmid) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fmid, flo)
        hi = np.where(same, hi, mid)
    roots = 0.5 * (lo + hi)
    return tuple(float(-r) for r in roots)


def airy_zero(n: int) -> float:
    """n-th positive zero location of Ai(-x), n from 1 to 20."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"zero index must be an integer, got {n!r}")
    if not 1 <= n <= 20:
        raise ValueError(f"zero index must lie in 1..20, got {n}")
    return _airy_zeros_table()[n - 1]


def min_product_identity(a: float, b: float) -> tuple[float, float]:
    """Infimum over s > 0 of (4/27) s^-2 (a + s b)^3 for positive a, b.

    Returns the infimum a*b^2 together with the minimizing s = 2a/b, both finite.
    """
    a, b = float(a), float(b)
    try:
        value, arg = a * b**2, 2.0 * a / b
    except (OverflowError, ZeroDivisionError):  # b^2 beyond the float range, or b = 0
        value = arg = math.inf
    if not (a > 0 and b > 0 and math.isfinite(value) and math.isfinite(arg)):
        raise ValueError(f"need positive a, b with a*b^2 and 2a/b finite, got a={a!r}, b={b!r}")
    return value, arg


@functools.lru_cache(maxsize=1)
def universal_constant() -> float:
    """Scale-free lower bound for (time spread) * (mean energy) on the half line.

    Equals sqrt(4/27 * z^3) with z the first Airy zero, about 1.376.
    """
    z = airy_zero(1)
    return math.sqrt(4.0 * z**3 / 27.0)
