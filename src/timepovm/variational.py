"""Variational side of the positive-spectrum bounds.

Everything here lives on a uniform grid over [0, L] with Dirichlet walls:
states vanish at both ends, the kinetic term is the quadratic form of the
second-difference operator, and the two certified functionals are

    product:   kinetic * mean(x)^2     (squared spread-mean bound)
    combined:  kinetic * mean(x^2)     (combined second-moment bound)

one family kinetic * mean(x^p)^q with p*q = 2, so the private helpers take
the moment weight p alone (q = 2 // p).  Both are invariant under the
unitary scale transformation, which on the grid is a pure relabeling:
values pick up sqrt(mu) and the spacing becomes h/mu, with no interpolation
and hence no invariance error.  The infima can be reached two independent
ways, through the ground state of a tridiagonal operator or by
preconditioned projected gradient descent, and the module exposes both so
they can be played against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import SymTridiag, TridiagFactor, _inner, tridiag_eigenvector, tridiag_lowest_eigs
from .special import airy_zero, min_product_identity

__all__ = [
    "DomainTooSmallError",
    "GridState",
    "MinimizationResult",
    "IdentityChainReport",
    "dirichlet_operator",
    "required_length",
    "airy_operator_spectrum",
    "minimal_state",
    "product_functional",
    "combined_functional",
    "scaling_transform",
    "minimize_product",
    "minimize_combined",
    "verify_min_identity_chain",
]

# random starts advanced together by the descent route of the minimizers
_RESTARTS = 8
# points of the identity scan, log-spaced over six decades
_SCAN_POINTS = 10000


class DomainTooSmallError(ValueError):
    """Domain cannot hold the requested eigenfunctions; carries required_length."""

    def __init__(self, message: str, required: float):
        super().__init__(message)
        self.required_length = required

    def __reduce__(self):
        # pickling keeps only args = (message,) by default, which __init__
        # cannot take back; a worker process sends the error pickled
        return type(self), (str(self), self.required_length)


@dataclass(frozen=True)
class GridState:
    """Real or complex values on the interior nodes of [0, L], unit h-norm.

    Boundary values are implicitly zero; x_j = (j+1)*h for the stored
    entries.  Norm means the h-weighted one, matching the integral it
    discretizes.  The functionals read the values through their moduli
    (|difference|^2 in the kinetic term, |value|^2 in the moments), so a
    global phase changes none of them.
    """

    values: np.ndarray
    h: float

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("grid state needs a one-dimensional vector of at least two nodes")
        if not self.h > 0.0:
            raise ValueError("spacing must be positive")
        nrm = math.sqrt(self.h) * math.sqrt(_squared_norm(v))
        if not abs(nrm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"state is not unit norm: |norm - 1| = {abs(nrm - 1.0):.3e}")
        object.__setattr__(self, "values", v)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.values.size + 1)

    @property
    def L(self) -> float:
        """Position of the far wall, one spacing past the last node."""
        return self.h * (self.values.size + 1)


def _squared_norm(v: np.ndarray) -> float:
    """Sum of |v_j|^2, correctly rounded from the squared real and imaginary parts.

    A BLAS reduction splits a long vector over its threads, so its rounding
    depends on the thread count; this sum does not.  A square that
    overflows gives inf, which the callers refuse.
    """
    w = np.ascontiguousarray(v)
    if np.iscomplexobj(w):
        w = w.view(np.float64)
    with np.errstate(over="ignore"):
        return _inner(w, w)


def _as_state(raw: np.ndarray, h: float) -> GridState:
    nrm = math.sqrt(h) * math.sqrt(_squared_norm(raw))
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ValueError("state vanished or overflowed during normalization")
    return GridState(raw / nrm, h)


def dirichlet_operator(h: float, L: float, slope: float = 1.0) -> SymTridiag:
    """Second-difference operator with a linear potential on (0, L).

    Interior nodes x_j = j*h for j = 1..m with m = round(L/h) - 1; both
    walls are enforced by exclusion.  The matrix is diag(2/h^2 + slope*x_j)
    with off-diagonal -1/h^2.
    """
    if not (h > 0.0 and L > 0.0 and np.isfinite(slope)):
        raise ValueError("need positive h, positive L, finite slope")
    if not np.isfinite(L / h):
        raise ValueError(f"domain length {L} over spacing {h} overflows; no grid of that many nodes")
    m = int(round(L / h)) - 1
    if m < 2:
        raise ValueError(f"grid of {m} interior nodes is too coarse to mean anything")
    x = h * np.arange(1, m + 1)
    return SymTridiag(2.0 / h**2 + slope * x, np.full(m - 1, -1.0 / h**2))


def required_length(k: int) -> float:
    """Smallest domain length accepted for the k lowest eigenvalues, k in 1..20."""
    # the turning point sits at the k-th Airy zero; the eigenfunction decays past it
    return 2.0 * airy_zero(k) + 5.0


@lru_cache(maxsize=64)
def airy_operator_spectrum(h: float, L: float, k: int = 1) -> tuple:
    """k lowest eigenvalues of the unit-slope Dirichlet operator, k in 1..20.

    These converge to the zeros of the decaying Airy function at rate h^2.
    The far wall at L must clear the classical turning region, otherwise
    the request is rejected with the required length.  h above 1e-2 is
    accepted but leaves visible h^2 bias in the third decimal; callers
    wanting certified digits should stay at or below it.
    """
    if not 1 <= k <= 20:
        raise ValueError(f"need k in 1..20, the tabulated Airy zeros, got k={k!r}")
    need = required_length(k)
    if L < need:
        raise DomainTooSmallError(
            f"domain length {L} cannot hold {k} eigenfunctions; need L >= {need:.2f}", need
        )
    if k < 3 and L >= required_length(3):
        # shared multisection passes make three targets cost no more than
        # one, and the cached triple then serves every shorter request
        return airy_operator_spectrum(h, L, 3)[:k]
    op = dirichlet_operator(h, L)
    return tuple(float(w) for w in tridiag_lowest_eigs(op, k))


def minimal_state(h: float, L: float) -> GridState:
    """Normalized ground state of the unit-slope operator, positive sign.

    ``tridiag_eigenvector`` makes the largest entry positive, and the ground
    state of a Jacobi matrix with negative off-diagonals has one sign.
    """
    lam = airy_operator_spectrum(h, L, 1)[0]
    return _as_state(tridiag_eigenvector(dirichlet_operator(h, L), lam), h)


def _kinetic(values: np.ndarray, h: float) -> float:
    # the edge sum includes both wall edges through the implicit zeros
    return _squared_norm(np.diff(values, prepend=0.0, append=0.0)) / h


def _moments(state: GridState, p: int) -> tuple[float, float]:
    """(kinetic, mean of x^p) of a grid state."""
    v = np.asarray(state.values)
    return _kinetic(v, state.h), state.h * _inner(state.nodes**p, np.abs(v) ** 2)


def product_functional(state: GridState) -> tuple[float, float, float]:
    """(kinetic, position mean, their bound product kinetic * position^2).

    Kinetic is the h-weighted Dirichlet second-difference form, which is
    the squared time spread of a mean-zero-time state; the position mean
    plays the mean energy.
    """
    kin, pos = _moments(state, 1)
    return kin, pos, kin * pos * pos


def combined_functional(state: GridState) -> tuple[float, float, float]:
    """(kinetic, second moment of position, their product)."""
    kin, sec = _moments(state, 2)
    return kin, sec, kin * sec


def scaling_transform(state: GridState, mu: float) -> GridState:
    """Unitary scale change x -> mu*x as an exact grid relabeling.

    The transformed state has values sqrt(mu) * old values on the grid with
    spacing h/mu; nothing is interpolated, so norm is preserved to machine
    precision, kinetic scales by exactly mu^2, position means by exactly
    1/mu, and both bound functionals are exactly invariant.
    """
    if not (mu > 0.0 and np.isfinite(mu)):
        raise ValueError(f"scale factor must be positive and finite, got {mu}")
    return GridState(math.sqrt(mu) * np.asarray(state.values), state.h / mu)


def _virial_rescale(state: GridState, p: int) -> GridState:
    """Scale to the stationary point in mu, where p * mean(x^p) = 2 * kinetic."""
    kin, mom = _moments(state, p)
    return scaling_transform(state, ((p * mom) / (2.0 * kin)) ** (1.0 / (p + 2)))


@dataclass(frozen=True)
class MinimizationResult:
    value: float
    minimizer: GridState
    converged: bool
    iterations: int


def _second_difference(phi: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """Action of the Dirichlet second-difference operator on each row, into out."""
    np.multiply(phi, 2.0, out=out)
    out[..., 0] -= phi[..., 1]
    out[..., -1] -= phi[..., -2]
    out[..., 1:-1] -= phi[..., :-2]
    out[..., 1:-1] -= phi[..., 2:]
    out /= h * h
    return out


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each row of x, added in index order; x is overwritten.

    numpy sums a contiguous row pairwise; the last entry of a running sum
    is the index-order sum, whose rounding the printed descent digits
    depend on.
    """
    return np.cumsum(x, axis=1, out=x)[:, -1]


def _row_norms(phi: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """2-norm of each row of phi, as a column; scratch is overwritten."""
    return np.sqrt(_row_sums(np.multiply(phi, phi, out=scratch)))[:, None]


def _moment_batch(phi: np.ndarray, h: float, w: np.ndarray, scratch: np.ndarray):
    """Kinetic and weighted moment per row; scratch (same shape) is overwritten."""
    action = _second_difference(phi, h, scratch)
    kin = h * _row_sums(np.multiply(action, phi, out=action))
    np.square(phi, out=scratch)
    scratch *= w
    mom = h * _row_sums(scratch)
    return kin, mom


def _descent(h: float, L: float, p: int, seed: int, max_iter: int):
    """Batched projected gradient descent over unit-norm Dirichlet states.

    Steps are preconditioned by (T + x^p + 1)^{-1}, the potential matching
    the functional being minimized; without the potential term the
    far-field modes converge at a crawl.  All restarts advance together;
    each owns its step size, halved on any non-decrease and grown gently
    on success.  A restart stops improving when its relative decrease
    falls below 1e-12; the batch stops when every restart has.  Three
    (restarts x m) buffers, one contiguous row per restart, hold the whole
    iteration: the accepted states, the gradient that the in-place solve
    turns into the trial, and a scratch.  Every batch operation then runs
    along whole rows, and the sums over a row add in index order.  The
    accepted states' second-difference action is recomputed at the top of
    each iteration rather than kept; it is the same to the last bit.  The
    rows whose trial improves are copied into the state buffer in one masked
    copy.  Returns (value, a copy of the best row, iterations, converged);
    the caller builds the state once the buffers are released.
    """
    base = dirichlet_operator(h, L, 0.0)
    m = base.n
    rng = np.random.default_rng(seed)
    w = (h * np.arange(1, m + 1)) ** p
    prec = TridiagFactor(SymTridiag(base.diag + w + 1.0, base.offdiag))
    q = 2 // p

    # smoothed noise: random but not adversarially rough, pulled toward the
    # origin where both minimizers concentrate.  Each restart takes one
    # column of an (m x restarts) draw, the stream order the printed
    # descent digits depend on; the draw fills g and phi gets its transpose
    phi = np.empty((_RESTARTS, m))
    g = np.empty_like(phi)
    scratch = np.empty_like(phi)
    np.copyto(phi, rng.standard_normal(out=g.reshape(m, _RESTARTS)).T)
    prec.solve(phi, scratch)
    phi /= math.sqrt(h) * _row_norms(phi, scratch)
    # kinetic and moment are kept from the batch that accepted each row
    kin, mom = _moment_batch(phi, h, w, scratch)
    best = kin * mom**q
    step = np.full(_RESTARTS, 1.0)
    active = np.ones(_RESTARTS, dtype=bool)
    iters = 0
    for iters in range(1, max_iter + 1):
        # d/dphi of kin * mom^q, both factors being quadratic forms
        _second_difference(phi, h, g)
        g *= 2.0
        g *= (mom**q)[:, None]
        np.multiply(w, phi, out=scratch)
        scratch *= ((2.0 * q * kin) * mom ** (q - 1))[:, None]
        g += scratch
        # project out the radial component in the h-weighted metric
        radial = h * _row_sums(np.multiply(phi, g, out=scratch))
        g -= np.multiply(phi, radial[:, None], out=scratch)
        # g becomes the trial state
        prec.solve(g, scratch)
        g *= step[:, None]
        np.subtract(phi, g, out=g)
        g /= math.sqrt(h) * _row_norms(g, scratch)
        kin_t, mom_t = _moment_batch(g, h, w, scratch)
        val = kin_t * mom_t**q
        improved = val < best
        rel = np.where(improved, (best - val) / np.maximum(np.abs(best), 1e-300), 0.0)
        np.copyto(phi, g, where=improved[:, None])
        kin = np.where(improved, kin_t, kin)
        mom = np.where(improved, mom_t, mom)
        best = np.where(improved, val, best)
        step = np.where(improved, np.minimum(step * 1.25, 1e6), step * 0.5)
        active[improved & (rel <= 1e-12)] = False
        active[step < 1e-18] = False
        if not active.any():
            break
    j = int(np.argmin(best))
    return float(best[j]), phi[j].copy(), iters, iters < max_iter


def _minimize(p: int, h, L, method, seed, max_iter, spectral) -> MinimizationResult:
    """Either route for the weight x^p; spectral() gives (infimum, ground state)."""
    if method == "spectral":
        value, ground = spectral()
        return MinimizationResult(value, _virial_rescale(ground, p), True, 0)
    if method != "descent":
        raise ValueError(f"unknown method {method!r}; expected 'spectral' or 'descent'")
    val, row, iters, conv = _descent(h, L, p, seed, max_iter)
    return MinimizationResult(val, _virial_rescale(_as_state(row, h), p), conv, iters)


def minimize_product(
    h: float,
    L: float,
    method: str,
    seed: int = 0,
    max_iter: int = 100000,
) -> MinimizationResult:
    """Minimize kinetic * position^2 over unit Dirichlet states.

    The spectral route takes the ground state of the unit-slope operator
    and rescales it so the virial identity 2*kinetic = position holds
    exactly, giving 4/27 times the cubed ground eigenvalue.  The descent
    route knows nothing about operators: seeded random smooth starts,
    preconditioned projected gradient steps, step halving on non-decrease.
    The two agreeing is a genuine cross-check, not a tautology.
    """

    def spectral():
        lam = airy_operator_spectrum(h, L, 1)[0]
        return 4.0 / 27.0 * lam**3, minimal_state(h, L)

    return _minimize(1, h, L, method, seed, max_iter, spectral)


def minimize_combined(
    h: float,
    L: float,
    method: str,
    seed: int = 0,
    max_iter: int = 100000,
) -> MinimizationResult:
    """Minimize kinetic * mean(x^2) over unit Dirichlet states.

    The infimum is the squared half of the Dirichlet oscillator ground
    energy; the continuum value is (3/2)^2 with minimizer proportional to
    x*exp(-x^2/2) after optimal scaling.
    """

    def spectral():
        op = dirichlet_operator(h, L, 0.0)
        x = h * np.arange(1, op.n + 1)
        osc = SymTridiag(op.diag + x**2, op.offdiag)
        e0 = float(tridiag_lowest_eigs(osc, 1)[0])
        return (e0 / 2.0) ** 2, _as_state(tridiag_eigenvector(osc, e0), h)

    return _minimize(2, h, L, method, seed, max_iter, spectral)


@dataclass(frozen=True)
class IdentityChainReport:
    pairs: int
    worst_floor_violation: float
    worst_argmin_offset: float
    grid_resolution: float
    passed: bool


def verify_min_identity_chain(a_grid, b_grid) -> IdentityChainReport:
    """Scan check of the scaling identity behind the spread-mean bound.

    For each positive pair (a, b) the function (4/(27 L^2)) (a + L b)^3 is
    scanned over a log grid of 10 000 scale parameters L = (2a/b) g
    bracketing 2a/b by three decades each way; the scan floor must stay
    above a*b^2 - 1e-12 and the scan argmin must land on 2a/b within one
    grid step.  Values and argmins are delegated to
    :func:`timepovm.special.min_product_identity`.

    Every pair scans the same shape, a*b^2 * F(g) with F(g) = (1 + 2g)^3 /
    (27 g^2), so only the window from the first to the last grid index with
    F <= min F * (1 + 1e-9) is evaluated.  Every point outside it exceeds
    that threshold, far more than the few ulps by which rounding moves f,
    so the floor and the argmin are those of the full scan.  That argument
    needs normal floats, and a pair whose L, L^2, (a + L b)^3 at either end
    of its scan, a*b^2, or scan floor leaves the normal range is refused
    with a ValueError naming it.
    """
    a_arr = np.atleast_1d(np.asarray(a_grid, dtype=float))
    b_arr = np.atleast_1d(np.asarray(b_grid, dtype=float))
    if a_arr.shape != b_arr.shape:
        raise ValueError("a and b sample grids must be paired (same shape)")
    if np.any(a_arr <= 0.0) or np.any(b_arr <= 0.0):
        raise ValueError("identity holds for positive pairs only")
    log_step = 6.0 / (_SCAN_POINTS - 1)
    grid = np.logspace(-3.0, 3.0, _SCAN_POINTS)
    a_all, b_all = a_arr.ravel(), b_arr.ravel()

    def refused(i: int) -> ValueError:
        a, b = float(a_all[i]), float(b_all[i])
        return ValueError(f"pair a={a!r}, b={b!r} leaves the normal float range in its scan")

    inf_val = np.empty(a_all.size)
    arg = np.empty(a_all.size)
    for i, (a, b) in enumerate(zip(a_all, b_all)):
        inf_val[i], arg[i] = min_product_identity(a, b)
    shape = 1.0 + 2.0 * grid
    shape = shape * shape * shape / (27.0 * grid * grid)
    near = np.flatnonzero(shape <= shape.min() * (1.0 + 1e-9))
    window = grid[near[0] : near[-1] + 1]
    # L and a + L b grow with g, so the two ends bound every intermediate
    with np.errstate(over="ignore"):
        lam = arg[:, None] * grid[[0, -1]]
        t = a_all[:, None] + lam * b_all[:, None]
        ends = np.hstack([lam, lam**2, t * t * t, inf_val[:, None]])
    normal = np.all((ends >= np.finfo(float).tiny) & (ends <= np.finfo(float).max), axis=1)
    if not normal.all():
        raise refused(int(np.argmin(normal)))
    lam = arg[:, None] * window
    t = a_all[:, None] + lam * b_all[:, None]
    with np.errstate(over="ignore"):
        f = (4.0 / 27.0) * (t * t * t) / lam**2
    at = np.argmin(f, axis=1)[:, None]
    f_min = np.take_along_axis(f, at, axis=1)[:, 0]
    finite = np.isfinite(f_min)
    if not finite.all():
        raise refused(int(np.argmin(finite)))
    worst_floor = float(np.max(inf_val - f_min, initial=0.0))
    lam_star = np.take_along_axis(lam, at, axis=1)[:, 0]
    # offset in decades, same unit as the scan grid spacing
    worst_arg = max((abs(math.log10(ratio)) for ratio in (lam_star / arg).tolist()), default=0.0)
    ok = worst_floor <= 1e-12 and worst_arg <= log_step * (1.0 + 1e-9)
    return IdentityChainReport(int(a_arr.size), worst_floor, worst_arg, log_step, ok)
