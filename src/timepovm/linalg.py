"""Dense Hermitian and symmetric tridiagonal eigensolvers.

Everything here is plain numpy.  The dense solver is a cyclic Jacobi
iteration with complex rotations acting directly on the n x n Hermitian
matrix; rotations are applied in parallel batches (round-robin pairing) so
the inner loop stays vectorized.  The tridiagonal solver brackets
eigenvalues with Sturm-sequence counts and refines them by multisection;
eigenvectors come from inverse iteration through the cyclic-reduction
factorization.  Both paths are deterministic for identical input.
"""

from __future__ import annotations

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


def _clamp_pivots(d: np.ndarray) -> np.ndarray:
    """Replace pivots smaller than _PIVMIN in magnitude by _PIVMIN."""
    return np.where(np.abs(d) < _PIVMIN, _PIVMIN, d)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


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


def hermitian_eigh(a: np.ndarray, want_vectors: bool = True) -> Spectrum:
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
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    a = (0.5 * (a + a.conj().T)).astype(complex)
    v = np.eye(n, dtype=complex) if want_vectors else None
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
            for m in (a, v) if want_vectors else (a,):
                cp = m[:, p]
                cq = m[:, q] * w
                m[:, p] = c * cp - s * cq
                m[:, q] = s * cp + c * cq
        a = 0.5 * (a + a.conj().T)
    else:
        raise RuntimeError("jacobi iteration did not converge within the sweep limit")
    w = np.diagonal(a).real.copy()
    order = np.argsort(w, kind="stable")
    return Spectrum(w[order], v[:, order] if want_vectors else None)


def sturm_count(t: SymTridiag, x):
    """Number of eigenvalues of t strictly below x (vectorized over x)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    d = t.diag[0] - xs
    d = np.where(np.abs(d) < _PIVMIN, -_PIVMIN, d)
    count = (d < 0).astype(np.int64)
    b2 = t.offdiag * t.offdiag
    diag = t.diag
    for i in range(1, t.n):
        d = diag[i] - xs - b2[i - 1] / d
        d = np.where(np.abs(d) < _PIVMIN, -_PIVMIN, d)
        count += d < 0
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return int(count[0])
    return count


def tridiag_lowest_eigs(t: SymTridiag, k: int, tol: float = 1e-12) -> np.ndarray:
    """Lowest k eigenvalues by Sturm bisection, bracketed to absolute width tol.

    A geometric ladder of probes localizes the k-th eigenvalue first, then
    every target index is narrowed by multisection (all probes for all
    targets are evaluated in one Sturm pass per round).
    """
    n = t.n
    if not 1 <= k <= n:
        raise ValueError(f"requested {k} eigenvalues from a matrix of size {n}")
    radius = np.zeros(n)
    if n > 1:
        radius[:-1] += np.abs(t.offdiag)
        radius[1:] += np.abs(t.offdiag)
    lo0 = float(np.min(t.diag - radius))
    hi0 = float(np.max(t.diag + radius))
    span = max(hi0 - lo0, 1.0)
    # geometric ladder from lo0 finds a tight upper bound for eigenvalue k
    ladder = lo0 + span * 2.0 ** np.arange(-40.0, 1.0)
    counts = sturm_count(t, ladder)
    idx = int(np.searchsorted(counts, k))
    hi_k = ladder[min(idx, ladder.size - 1)]
    lo = np.empty(k)
    hi = np.empty(k)
    for j in range(1, k + 1):
        below = ladder[counts < j]
        at_or_above = ladder[counts >= j]
        lo[j - 1] = below[-1] if below.size else lo0
        hi[j - 1] = at_or_above[0] if at_or_above.size else hi_k
    probes_per_target = 15
    while True:
        width = hi - lo
        if np.all(width <= 2.0 * tol):
            break
        frac = np.arange(1, probes_per_target + 1) / (probes_per_target + 1.0)
        grid = lo[:, None] + width[:, None] * frac[None, :]
        counts = sturm_count(t, grid.ravel()).reshape(k, probes_per_target)
        targets = np.arange(1, k + 1)[:, None]
        below = counts < targets
        # rightmost probe still below the target index tightens lo, first
        # probe at or above it tightens hi
        any_below = below.any(axis=1)
        last_below = np.where(any_below, below.shape[1] - 1 - np.argmax(below[:, ::-1], axis=1), -1)
        rows = np.arange(k)
        new_lo = np.where(any_below, grid[rows, np.maximum(last_below, 0)], lo)
        first_at = np.argmax(~below, axis=1)
        any_at = (~below).any(axis=1)
        new_hi = np.where(any_at, grid[rows, first_at], hi)
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


class TridiagFactor:
    """Reusable cyclic-reduction factorization of a symmetric tridiagonal matrix.

    Eliminating the odd-indexed unknowns from a tridiagonal system leaves a
    tridiagonal system of half the size over the even ones, and every stage
    of that elimination is a vectorized slice operation.  Repeated solves
    against many right-hand sides therefore stay in numpy even for very
    long diagonals, where the Thomas recurrence would crawl through a
    Python loop.  There is no pivoting, so the matrix should be positive
    (semi)definite: a preconditioner, or the matrix shifted by its lowest
    eigenvalue for inverse iteration.  Pivots (and the final 2x2
    determinant) smaller than 1e-290 in magnitude are clamped to 1e-290
    instead of failing, which is exactly the near-singular behaviour
    inverse iteration relies on.
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
            self._levels.append((d_odd, e_r, e_l, r_ratio, l_ratio))
            d, e = nd, ne
        self._base_d = d
        self._base_e = e
        self._base_pivot = _clamp_pivots(d[:1] if d.size == 1 else d[:1] * d[1:] - e * e)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against one vector or a (n, cols) block of right-hand sides."""
        b = np.asarray(rhs, dtype=float)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        stack = []
        for d_odd, e_r, e_l, r_ratio, l_ratio in self._levels:
            b_odd = b[1::2]
            stack.append(b_odd)
            nb = b[0::2].copy()
            nb[: r_ratio.size] -= r_ratio[:, None] * b_odd
            nb[1 : 1 + l_ratio.size] -= l_ratio[:, None] * b_odd[: l_ratio.size]
            b = nb
        pivot = self._base_pivot
        if self._base_d.size == 1:
            x = b / pivot
        else:
            x0 = (self._base_d[1] * b[0] - self._base_e[0] * b[1]) / pivot
            x1 = (self._base_d[0] * b[1] - self._base_e[0] * b[0]) / pivot
            x = np.stack([x0, x1])
        for (d_odd, e_r, e_l, _, _), b_odd in zip(reversed(self._levels), reversed(stack)):
            odd = b_odd - e_r[:, None] * x[: e_r.size]
            odd[: e_l.size] -= e_l[:, None] * x[1 : 1 + e_l.size]
            odd /= d_odd[:, None]
            full = np.empty((e_r.size + x.shape[0],) + x.shape[1:])
            full[0::2] = x
            full[1::2] = odd
            x = full
        return x[:, 0] if squeeze else x


def tridiag_eigenvector(t: SymTridiag, eigenvalue: float) -> np.ndarray:
    """Unit eigenvector for an already-bracketed eigenvalue, by inverse iteration.

    At an exactly representable eigenvalue a clamped pivot blows the iterate
    up to ~1e290, so each iterate is scaled by its largest entry; the 2-norm
    of the raw iterate would overflow.
    """
    x = np.random.default_rng(0).standard_normal(t.n)
    factor = TridiagFactor(t, shift=eigenvalue)
    for _ in range(3):
        x = factor.solve(x)
        peak = float(np.max(np.abs(x)))
        if not 0.0 < peak < np.inf:
            raise RuntimeError("inverse iteration collapsed to the zero vector or overflowed")
        x /= peak
    x /= np.linalg.norm(x)
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    return x
