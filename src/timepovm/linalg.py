"""Dense Hermitian and symmetric tridiagonal eigensolvers.

Everything here is plain numpy.  The dense solver is a cyclic Jacobi
iteration with complex rotations acting directly on the n x n Hermitian
matrix; rotations are applied in parallel batches (round-robin pairing) so
the inner loop stays vectorized.  The tridiagonal solver brackets
eigenvalues with Sturm-sequence counts, narrows the brackets by shared
multisection passes, and finishes each isolated one with the Rayleigh
quotient of an inverse-iteration vector, accepted only when its residual
ball lies inside the bracket; eigenvectors come from inverse iteration
through the cyclic-reduction factorization.  Both paths are deterministic
for identical input.

A Sturm pass (Kahan, "Accurate eigenvalues of a symmetric tri-diagonal
matrix", 1966) runs the pivot recurrence row by row for all its probes at
once, and a probe leaves the pass at the row that settles its count: once
its pivot d_i exceeds |b_i| and it lies below
G_{i+1} = min_{j > i} (a_j - |b_{j-1}| - |b_j|), less a rounding margin,
no later pivot can be negative.  Probes low in the spectrum of a long
diagonal with a rising potential, the Airy and oscillator operators, leave
well before the last row.  The counts are those of the full row loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "SymTridiag",
    "TridiagFactor",
    "hermitian_eigh",
    "sturm_count",
    "tridiag_lowest_eigs",
    "tridiag_eigenvector",
]

_PIVMIN = 1e-290
# probes spread over the open targets of one Sturm pass; a pass over a long
# diagonal costs about the same at 45 probes as at 400
_PROBES_PER_PASS = 384
# relative bracket width at which an isolated eigenvalue is refined
_NARROW = 1e-4
# residual accepted for a Rayleigh quotient, in units of eps * |T|
_RESIDUAL_ULPS = 64
# absolute bracket width and residual floor of tridiag_lowest_eigs
_BRACKET_TOL = 1e-12
# rows between two settle tests of a Sturm pass
_SETTLE_STRIDE = 32


def _clamp_pivots(d: np.ndarray) -> np.ndarray:
    """Replace pivots smaller than _PIVMIN in magnitude by _PIVMIN."""
    return np.where(np.abs(d) < _PIVMIN, _PIVMIN, d)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SymTridiag:
    """Real symmetric tridiagonal matrix stored as two bands.

    diag has length n, offdiag length n - 1.  Entries must be finite.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or d.size == 0 or e.size != d.size - 1:
            raise ValueError(
                f"need diag length n and offdiag length n-1, got {d.size} and {e.size}"
            )
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("tridiagonal bands must be finite")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def n(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        n = self.n
        if n > 1:
            a[np.arange(n - 1), np.arange(1, n)] = self.offdiag
            a[np.arange(1, n), np.arange(n - 1)] = self.offdiag
        return a

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        if self.n > 1:
            out[:-1] += self.offdiag * v[1:]
            out[1:] += self.offdiag * v[:-1]
        return out


def _round_robin_pairs(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Tournament schedule: n-1 rounds of disjoint index pairs covering all (p, q)."""
    m = n if n % 2 == 0 else n + 1
    others = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        lineup = [0] + others
        p = np.array(lineup[: m // 2])
        q = np.array(lineup[m // 2 :][::-1])
        keep = (p < n) & (q < n)
        p, q = p[keep], q[keep]
        lo = np.minimum(p, q)
        hi = np.maximum(p, q)
        rounds.append((lo, hi))
        others = [others[-1]] + others[:-1]
    return rounds


def hermitian_eigh(a: np.ndarray) -> Spectrum:
    """Full spectrum of a Hermitian matrix by cyclic complex Jacobi rotations.

    Each rotation is the 2x2 unitary of Forsythe and Henrici: a phase that
    makes a_pq real and positive, followed by the usual real rotation that
    annihilates it.  Rotations inside one round act on disjoint index
    pairs, so they commute and are applied as a single batched update.
    Real symmetric input takes the same path.  Rejects non-Hermitian input;
    the error message carries the largest asymmetry so callers can see how
    far off they were.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    asym = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if not asym <= 1e-12 * scale:  # a NaN or infinite entry makes asym NaN
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    a = (0.5 * (a + a.conj().T)).astype(complex)
    v = np.eye(n, dtype=complex)
    tol, max_sweeps = 1e-14, 60
    fro = np.linalg.norm(a)
    # entries below skip_level can never push the off-diagonal norm past the
    # convergence target, so their rotations are skipped
    skip_level = tol * fro / (2.0 * max(n, 1))
    rounds = _round_robin_pairs(n)
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(np.diagonal(a)))
        if off <= tol * fro:
            break
        for p, q in rounds:
            apq = a[p, q]
            r = np.abs(apq)
            active = r > skip_level
            if not np.any(active):
                continue
            if not np.all(active):
                p, q, apq, r = p[active], q[active], apq[active], r[active]
            # w removes the phase of a_pq; the real rotation (c, s) then zeroes it
            w = apq.conj() / r
            theta = (a[q, q].real - a[p, p].real) / (2.0 * r)
            t = np.where(theta < 0.0, -1.0, 1.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            rp = a[p, :]
            rq = w.conj()[:, None] * a[q, :]
            a[p, :] = c[:, None] * rp - s[:, None] * rq
            a[q, :] = s[:, None] * rp + c[:, None] * rq
            for m in (a, v):
                cp = m[:, p]
                cq = m[:, q] * w
                m[:, p] = c * cp - s * cq
                m[:, q] = s * cp + c * cq
        a = 0.5 * (a + a.conj().T)
    else:
        raise RuntimeError("jacobi iteration did not converge within the sweep limit")
    w = np.diagonal(a).real.copy()
    order = np.argsort(w, kind="stable")
    return Spectrum(w[order], v[:, order])


def sturm_count(t: SymTridiag, x):
    """Number of eigenvalues of t strictly below x (vectorized over x).

    The pivots d_i = (a_i - x) - b_{i-1}^2 / d_{i-1}, pivots smaller than
    1e-290 in magnitude counted as negative, are run row by row, and each
    probe leaves the pass at the row that settles its count.  Let
    G_i = min_{j >= i} (a_j - |b_{j-1}| - |b_j|).  If d_i > |b_i| and
    x < G_{i+1}, then every later pivot satisfies d_j >= |b_j| + (a_j - x
    - |b_{j-1}| - |b_j|) > 0, so no later row adds to the count.  G_i is
    taken less a margin of 8 eps (|a_j| + |b_{j-1}| + |b_j|) + 2e-290,
    which covers the rounding of G and of the recurrence, so a pivot the
    full row loop would count as negative (or as a tiny zero) is never
    skipped.  A probe that fails the test stays in the pass and is tested
    again 32 rows later.  The counts are the ones the full row loop gives,
    bit for bit, for any probe order, repeats, scalar input and probes on
    an eigenvalue.
    """
    xs = np.asarray(x, dtype=float)
    counts = _sturm_pass(t, xs.ravel())
    if xs.ndim == 0:
        return int(counts[0])
    return counts.reshape(xs.shape)


def _gershgorin_radius(t: SymTridiag) -> np.ndarray:
    """|b_{i-1}| + |b_i| per row, with b_{-1} = b_{n-1} = 0."""
    radius = np.zeros(t.n)
    if t.n > 1:
        radius[:-1] += np.abs(t.offdiag)
        radius[1:] += np.abs(t.offdiag)
    return radius


def _settle_floor(t: SymTridiag) -> np.ndarray:
    """G_i of sturm_count, less its rounding margin; -inf where b^2 overflows."""
    radius = _gershgorin_radius(t)
    margin = 8.0 * np.finfo(float).eps * (np.abs(t.diag) + radius) + 2.0 * _PIVMIN
    floor = t.diag - radius - margin
    # an overflowing b_{i-1}^2 turns pivot i into -inf whatever d_{i-1} is
    floor[1:][np.isinf(t.offdiag * t.offdiag)] = -np.inf
    return np.minimum.accumulate(floor[::-1])[::-1]


def _sturm_pass(t: SymTridiag, xs: np.ndarray, retire_at: int = 0) -> np.ndarray:
    """Sturm counts of the 1-D probes xs, each probe leaving at the row that settles it.

    With retire_at = k > 0 the probes must be ascending, and once the
    running count of some probe reaches k every probe above it is dropped:
    counts only grow along the rows and are monotone in x, so none of them
    can end below k or below that probe's count.  Only the counts of
    xs[:m + 1] are returned, m the lowest probe that reached k (all of xs
    when none did).

    The rows run a settle stride of 32 at a time.  One outer subtraction
    gives a_i - x for the whole stride, and each row then takes two ufunc
    calls, a divide and a subtract, with no clamp.  When no pivot of the
    stride lies below 1e-290 in magnitude the clamp would have changed
    none, and the negative pivots are counted in one call.  Otherwise the
    stride is rerun from its first pivots by the clamped row step, five
    calls a row.  Only the unclamped rows, which may divide by a zero
    pivot, run with floating-point warnings silenced.
    """
    counts = np.zeros(xs.size, dtype=np.int64)
    d = t.diag[0] - xs
    d = np.where(np.abs(d) < _PIVMIN, -_PIVMIN, d)
    count = (d < 0).astype(np.int64)
    live = np.arange(xs.size)  # original index of each probe still in the pass
    x = xs
    keep_to = xs.size
    # the loop runs once per row, so every step works in place on
    # preallocated buffers with plain float coefficients, taken a settle
    # stride of rows at a time
    b2 = t.offdiag * t.offdiag
    absb = np.abs(t.offdiag)
    floor = _settle_floor(t)
    shifted = np.empty_like(xs)
    # row r of pivots holds the probes' pivots at the r-th row of the
    # stride, and row r of block marks those that count as negative
    pivots = np.empty((_SETTLE_STRIDE, xs.size))
    block = np.empty((_SETTLE_STRIDE, xs.size), dtype=bool)
    for start in range(1, t.n, _SETTLE_STRIDE):
        stop = min(start + _SETTLE_STRIDE, t.n)
        rows, negative = pivots[: stop - start], block[: stop - start]
        # d = (a_i - x) - b2_i / d, unclamped, in two calls a row (out
        # passed by position, which numpy parses faster); a zero pivot may
        # divide by zero here, and its stride is then rerun
        np.subtract.outer(t.diag[start:stop], x, out=rows)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            prev = d
            for b2_i, row in zip(b2[start - 1 : stop - 1].tolist(), rows):
                np.divide(b2_i, prev, shifted)
                np.subtract(row, shifted, row)
                prev = row
        if (np.abs(rows) < _PIVMIN).any():
            # a pivot the clamp would change: the stride again, row by row
            # with the clamp, from the pivots it started with
            for a_i, b2_i, neg in zip(t.diag[start:stop].tolist(), b2[start - 1 : stop - 1].tolist(), negative):
                # a pivot below _PIVMIN counts as negative, and one below
                # it in magnitude becomes -_PIVMIN
                np.subtract(a_i, x, out=shifted)
                np.divide(b2_i, d, out=d)
                np.subtract(shifted, d, out=d)
                np.less(d, _PIVMIN, out=neg)
                np.minimum(d, -_PIVMIN, out=d, where=neg)
        else:
            # no pivot lies within _PIVMIN of zero, so the clamp changes
            # none and "below _PIVMIN" is "below zero"
            np.less(rows, 0.0, out=negative)
            d[...] = prev
        # a stride has at most 32 rows, so its counts fit in uint8
        count += negative.sum(axis=0, dtype=np.uint8)
        if stop == t.n:
            break
        counts[live] = count
        stay = (d <= absb.item(stop - 1)) | ~(x < floor.item(stop))
        if retire_at:
            reached = np.flatnonzero(counts >= retire_at)
            if reached.size:
                keep_to = int(reached[0]) + 1
                stay &= live < keep_to
        if not stay.any():
            break
        if not stay.all():
            live, x, d, count = live[stay], x[stay], d[stay], count[stay]
            shifted, pivots, block = shifted[: live.size], pivots[:, : live.size], block[:, : live.size]
    counts[live] = count
    return counts[:keep_to]


def tridiag_lowest_eigs(t: SymTridiag, k: int) -> np.ndarray:
    """Lowest k eigenvalues by Sturm bracketing and residual-certified Rayleigh refinement.

    A geometric ladder of probes brackets every target index (its rungs
    above the first one counting k eigenvalues are dropped from the pass
    as soon as that count is seen), then shared multisection passes (all probes for all open targets in one Sturm
    pass) narrow the brackets.  The Sturm counts at both ends travel with
    each bracket.  Once bracket j is isolated (count j-1 at lo, j at hi)
    and narrow, inverse iteration at its midpoint gives a vector v with
    Rayleigh quotient theta and residual r = |(T - theta) v| / |v|.  Some
    eigenvalue lies within r of theta, and [theta - r, theta + r] inside
    the isolated bracket makes it eigenvalue j; theta is accepted when, in
    addition, r is at most max(1e-12, 64 eps |T|).  Otherwise another pass
    runs.  Clusters and exact repeats never isolate; they end at the
    midpoint of a bracket of width 2e-12, or of the float spacing where
    that is wider.  The residual is evaluated in floating point, so r
    bounds the error up to a rounding term of order eps*|T|.
    """
    n = t.n
    if not 1 <= k <= n:
        raise ValueError(f"requested {k} eigenvalues from a matrix of size {n}")
    radius = _gershgorin_radius(t)
    lo0 = float(np.min(t.diag - radius))
    hi0 = float(np.max(t.diag + radius))
    span = max(hi0 - lo0, 1.0)
    accept = max(_BRACKET_TOL, _RESIDUAL_ULPS * np.finfo(float).eps * max(abs(lo0), abs(hi0)))
    # geometric ladder from lo0 finds a tight upper bound for eigenvalue k;
    # no eigenvalue lies strictly below the Gershgorin bound lo0
    ladder = lo0 + span * 2.0 ** np.arange(-40.0, 1.0)
    targets = np.arange(1, k + 1)
    lo, c_lo = np.full(k, lo0), np.zeros(k, dtype=np.int64)
    hi, c_hi = np.full(k, ladder[-1]), np.full(k, -1, dtype=np.int64)
    # rungs above the first one counting k eigenvalues can be neither lo
    # nor hi of any target, so the pass drops them once that count is seen
    ladder_counts = _sturm_pass(t, ladder, retire_at=k)
    ladder = ladder[: ladder_counts.size]
    ladder_counts = np.broadcast_to(ladder_counts, (k, ladder.size))
    _tighten(np.arange(k), np.broadcast_to(ladder, ladder_counts.shape), ladder_counts, lo, hi, c_lo, c_hi)
    values = np.full(k, np.nan)
    while True:
        open_ = np.isnan(values)
        width = hi - lo
        # below 2*_BRACKET_TOL, or where the float grid cannot split the
        # bracket, the midpoint is as good as it gets
        edge = np.maximum(np.abs(lo), np.abs(hi))
        done = open_ & (width <= np.maximum(2.0 * _BRACKET_TOL, 4.0 * np.spacing(edge)))
        values[done] = 0.5 * (lo[done] + hi[done])
        isolated = (c_lo == targets - 1) & (c_hi == targets)
        for j in np.flatnonzero(open_ & ~done & isolated & (width <= _NARROW * edge)):
            theta, r = _rayleigh_ball(t, 0.5 * (lo[j] + hi[j]))
            if r <= accept and lo[j] <= theta - r and theta + r <= hi[j]:
                values[j] = theta
        rows = np.flatnonzero(np.isnan(values))
        if rows.size == 0:
            return values
        probes = max(15, _PROBES_PER_PASS // rows.size)
        frac = np.arange(1, probes + 1) / (probes + 1.0)
        grid = lo[rows, None] + width[rows, None] * frac[None, :]
        _tighten(rows, grid, sturm_count(t, grid.ravel()).reshape(grid.shape), lo, hi, c_lo, c_hi)


def _tighten(rows, grid, counts, lo, hi, c_lo, c_hi) -> None:
    """Move the brackets of eigenvalues rows + 1 in place onto their probes.

    Row i of grid and counts holds the probes of target rows[i].  The
    rightmost probe still below the target index becomes lo, the first
    probe at or above it becomes hi; each end keeps its Sturm count.
    """
    below = counts < (rows + 1)[:, None]
    i = np.arange(rows.size)
    last_below = below.shape[1] - 1 - np.argmax(below[:, ::-1], axis=1)
    first_at = np.argmax(~below, axis=1)
    has_below = below.any(axis=1)
    has_at = (~below).any(axis=1)
    lo[rows[has_below]] = grid[i, last_below][has_below]
    c_lo[rows[has_below]] = counts[i, last_below][has_below]
    hi[rows[has_at]] = grid[i, first_at][has_at]
    c_hi[rows[has_at]] = counts[i, first_at][has_at]


def _rayleigh_ball(t: SymTridiag, shift: float) -> tuple[float, float]:
    """Rayleigh quotient and residual norm of the inverse-iteration vector at shift.

    A breakdown of inverse iteration gives an infinite residual, which no
    acceptance test passes.
    """
    try:
        v = tridiag_eigenvector(t, shift)
    except RuntimeError:
        return np.nan, np.inf
    tv = t.matvec(v)
    vv = _inner(v, v)
    theta = _inner(v, tv) / vv
    r = tv - theta * v
    return theta, math.sqrt(_inner(r, r)) / math.sqrt(vv)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Correctly rounded sum of the rounded products a_i * b_i.

    A BLAS dot product splits a long vector over its threads, so its
    rounding depends on the thread count; this sum depends on nothing but
    the products.
    """
    return math.fsum((a * b).tolist())


class TridiagFactor:
    """Reusable cyclic-reduction factorization of a symmetric tridiagonal matrix.

    Eliminating the odd-indexed unknowns from a tridiagonal system leaves a
    tridiagonal system of half the size over the even ones, and every stage
    of that elimination is a vectorized slice operation.  Repeated solves
    against many right-hand sides therefore stay in numpy even for very
    long diagonals, where the Thomas recurrence would crawl through a
    Python loop.  A solve runs in the storage of its right-hand side, on
    strided views (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7,
    1970): the reduced systems live in the even entries, every 2^j-th entry
    at level j, and back substitution overwrites the odd ones, so nothing
    is copied or interleaved.  The level coefficients are 1-D vectors and a
    block holds one right-hand side per row, so each step is one ufunc call
    whose inner loop runs along a whole row.  There is no pivoting, so the
    matrix should be positive (semi)definite: a preconditioner, or the
    matrix shifted by its lowest eigenvalue for inverse iteration.  Pivots
    (and the final 2x2 determinant) smaller than 1e-290 in magnitude are
    clamped to 1e-290 instead of failing, which is exactly the
    near-singular behaviour inverse iteration relies on.
    """

    def __init__(self, t: SymTridiag, shift: float = 0.0):
        d = np.asarray(t.diag, dtype=float) - shift
        e = np.asarray(t.offdiag, dtype=float)
        self._levels = []
        while d.size > 2:
            # odd node 2k+1 couples even k via e[2k] and even k+1 via e[2k+1]
            d_odd = _clamp_pivots(d[1::2])
            e_r = e[0::2]
            e_l = e[1::2]
            r_ratio = e_r / d_odd
            l_ratio = e_l / d_odd[: e_l.size]
            nd = d[0::2].copy()
            nd[: e_r.size] -= e_r * r_ratio
            nd[1 : 1 + e_l.size] -= e_l * l_ratio
            ne = -r_ratio[: e_l.size] * e_l
            # 1-D, to broadcast along the last axis of a block of right-hand sides
            self._levels.append((d_odd, e_r, e_l, r_ratio, l_ratio))
            d, e = nd, ne
        self._base_d = d
        self._base_e = e
        self._base_pivot = _clamp_pivots(d[:1] if d.size == 1 else d[:1] * d[1:] - e * e)[0]

    def solve(self, b: np.ndarray, scratch: np.ndarray) -> None:
        """Solve in place against one vector (n,) or a (cols, n) block b.

        b is overwritten by the solution.  scratch, an array of at least
        n // 2 entries along its last axis, shaped like b before it and not
        overlapping it, holds the products of each level.  Each right-hand
        side is a row, so every level runs on strided views of whole rows.
        """
        # the system of level j lives in every 2^j-th entry of each row of
        # b; its odd entries keep their right-hand side until back
        # substitution
        views = []
        for _, _, _, r_ratio, l_ratio in self._levels:
            views.append(b)
            odd = b[..., 1::2]
            b = b[..., 0::2]
            n_r, n_l = r_ratio.size, l_ratio.size
            b[..., :n_r] -= np.multiply(r_ratio, odd, out=scratch[..., :n_r])
            b[..., 1 : 1 + n_l] -= np.multiply(l_ratio, odd[..., :n_l], out=scratch[..., :n_l])
        pivot = self._base_pivot
        if self._base_d.size == 1:
            b /= pivot
        else:
            x0 = (self._base_d[1] * b[..., 0] - self._base_e[0] * b[..., 1]) / pivot
            b[..., 1] = (self._base_d[0] * b[..., 1] - self._base_e[0] * b[..., 0]) / pivot
            b[..., 0] = x0
        for (d_odd, e_r, e_l, _, _), b in zip(reversed(self._levels), reversed(views)):
            x, odd = b[..., 0::2], b[..., 1::2]
            n_r, n_l = e_r.size, e_l.size
            odd -= np.multiply(e_r, x[..., :n_r], out=scratch[..., :n_r])
            odd[..., :n_l] -= np.multiply(e_l, x[..., 1 : 1 + n_l], out=scratch[..., :n_l])
            odd /= d_odd


def tridiag_eigenvector(t: SymTridiag, eigenvalue: float) -> np.ndarray:
    """Unit eigenvector for an already-bracketed eigenvalue, by inverse iteration.

    At an exactly representable eigenvalue a clamped pivot blows the iterate
    up to ~1e290, so each iterate is scaled by its largest entry; the 2-norm
    of the raw iterate would overflow.
    """
    x = np.random.default_rng(0).standard_normal(t.n)
    factor = TridiagFactor(t, shift=eigenvalue)
    scratch = np.empty(t.n // 2)
    for _ in range(3):
        factor.solve(x, scratch)
        peak = float(np.max(np.abs(x)))
        if not 0.0 < peak < np.inf:
            raise RuntimeError("inverse iteration collapsed to the zero vector or overflowed")
        x /= peak
    x /= math.sqrt(_inner(x, x))
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    return x
