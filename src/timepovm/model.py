"""Finite energy grids, states, and covariant time observables.

A model lives on n equally spaced energies.  The conjugate time lattice
carries n bins of width tau = 2*pi/(n*de); translating any bin observable
by tau in time moves it to the next bin, cyclically.  Effects are stored
in factored form (effect = K^dagger K) whenever they come out of a
constructor here, which keeps large models cheap and makes positivity a
property of the storage rather than a numerical accident.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import hermitian_eigh
from .special import airy_ai, airy_zero

__all__ = [
    "EnergyGrid",
    "TimeLattice",
    "StateVector",
    "CovariantPOVM",
    "PovmValidation",
    "build_sharp_time_povm",
    "build_halfline_povm",
    "vector_generated_povm",
    "validate_povm",
    "fourier_map",
    "gaussian_state",
    "random_smooth_state",
    "transported_minimal_state",
    "default_fullline_model",
    "default_halfline_model",
]


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform energy grid: energies[j] = offset + j*de for j = 0..n-1.

    ``halfline`` marks grids whose energies represent a positive spectrum
    (offset >= 0); constructors that only make sense on one kind of grid
    check this flag rather than guessing from the offset.
    """

    n: int
    de: float
    offset: float = 0.0
    halfline: bool = False

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"need at least two grid points, got n={self.n}")
        if not (self.de > 0.0 and np.isfinite(self.de)):
            raise ValueError(f"grid spacing must be positive and finite, got de={self.de}")
        if not np.isfinite(self.offset):
            raise ValueError("grid offset must be finite")
        if self.halfline and self.offset < 0.0:
            raise ValueError(f"a half-line grid cannot start at negative energy {self.offset}")

    @property
    def energies(self) -> np.ndarray:
        return self.offset + self.de * np.arange(self.n)

    @property
    def span(self) -> float:
        return self.de * (self.n - 1)


@dataclass(frozen=True)
class TimeLattice:
    """Cyclic time bins conjugate to an energy grid.

    tau is the covariance step; the lattice covers one full period
    n*tau = 2*pi/de with bin centers placed symmetrically around zero.
    """

    n: int
    tau: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("time lattice needs at least two bins")
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError(f"bin width must be positive and finite, got tau={self.tau}")

    @classmethod
    def from_grid(cls, grid: EnergyGrid) -> "TimeLattice":
        return cls(grid.n, 2.0 * np.pi / (grid.n * grid.de))

    @property
    def period(self) -> float:
        return self.n * self.tau

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.tau


@dataclass(frozen=True)
class StateVector:
    """Unit vector of amplitudes over an energy grid.

    ``undersampled`` is advisory metadata set by the state factories when
    the requested profile varies faster than the grid can represent; the
    vector itself is still perfectly valid.
    """

    grid: EnergyGrid
    amplitudes: np.ndarray
    undersampled: bool = False

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} amplitudes, got shape {amps.shape}")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _normalized_state(grid: EnergyGrid, raw: np.ndarray, undersampled: bool = False) -> StateVector:
    nrm = np.linalg.norm(raw)
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ValueError("state profile vanished or overflowed on this grid")
    return StateVector(grid, raw / nrm, undersampled)


def fourier_map(grid: EnergyGrid) -> np.ndarray:
    """Unitary n x n map from energy amplitudes to time-bin amplitudes.

    Row k evaluates at the k-th lattice time: M[k, j] = exp(-i*E_j*t_k)/sqrt(n).
    """
    lattice = TimeLattice.from_grid(grid)
    return np.exp(-1j * np.outer(lattice.centers, grid.energies)) / np.sqrt(grid.n)


@dataclass(frozen=True)
class CovariantPOVM:
    """Normalized bin observable over a cyclic time lattice.

    Exactly one storage form is present.  ``kernels`` holds per-bin factors
    K_k of shape (r, dim) with effect_k = K_k^dagger K_k; every constructor
    in this module produces this form.  ``dense`` holds explicit effect
    matrices and is reserved for observables read back from files, where
    positivity is a claim to be checked rather than a construction.
    """

    grid: EnergyGrid
    lattice: TimeLattice
    kernels: np.ndarray | None = None
    dense: np.ndarray | None = None
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if (self.kernels is None) == (self.dense is None):
            raise ValueError("exactly one of kernels/dense storage must be given")
        store = self.kernels if self.kernels is not None else self.dense
        if store.ndim != 3 or store.shape[0] != self.lattice.n:
            raise ValueError(
                f"storage must be (n_bins, ., dim) with n_bins={self.lattice.n}, got {store.shape}"
            )
        if store.shape[-1] != self.grid.n:
            raise ValueError(f"effect dimension {store.shape[-1]} does not match grid size {self.grid.n}")
        if self.dense is not None and store.shape[1] != store.shape[2]:
            raise ValueError("dense effects must be square matrices")

    @property
    def n_bins(self) -> int:
        return self.lattice.n

    @property
    def dim(self) -> int:
        return self.grid.n

    def transport_phases(self) -> np.ndarray:
        """Row k is the diagonal of P^k, P = diag(exp(i*E*tau)): k covariance steps."""
        return np.exp(1j * np.outer(np.arange(self.n_bins) * self.lattice.tau, self.grid.energies))

    def effect(self, k: int) -> np.ndarray:
        k = int(k) % self.n_bins
        if self.kernels is not None:
            kk = self.kernels[k]
            return kk.conj().T @ kk
        return self.dense[k].copy()

    def sum_effects(self) -> np.ndarray:
        if self.kernels is not None:
            flat = self.kernels.reshape(-1, self.dim)
            return flat.conj().T @ flat
        return self.dense.sum(axis=0)

    def occurrence_probabilities(self, state: StateVector) -> np.ndarray:
        """psi^dagger E_k psi for every bin k, unclipped.

        Factored storage cannot go negative; a dense family that is not
        positive can, and callers that need a distribution decide how much
        negativity is roundoff (see ``uncertainty.occurrence_distribution``).
        """
        if state.grid.n != self.dim:
            raise ValueError("state dimension does not match observable dimension")
        psi = state.amplitudes
        if self.kernels is not None:
            amp = self.kernels @ psi
            return np.sum(np.abs(amp) ** 2, axis=1)
        return np.real(np.einsum("i,kij,j->k", psi.conj(), self.dense, psi))


def build_sharp_time_povm(grid: EnergyGrid) -> CovariantPOVM:
    """Sharp time observable on a full-line grid: one rank-one effect per bin.

    The effects are the projectors onto the rows of the time-side Fourier
    map, so occurrence amplitudes are literally the discrete Fourier data
    of the state.  Rejects half-line grids: compressing to a positive
    spectrum is what :func:`build_halfline_povm` is for, and the compressed
    effects are genuinely different objects (no longer projections).
    """
    if grid.halfline:
        raise ValueError("sharp time observables need a full-line grid; use build_halfline_povm")
    m = fourier_map(grid)
    kernels = m[:, np.newaxis, :]
    return CovariantPOVM(grid, TimeLattice.from_grid(grid), kernels=kernels, label="sharp")


def build_halfline_povm(full_grid: EnergyGrid, cutoff_index: int) -> CovariantPOVM:
    """Compress the sharp observable onto energies at or above a cutoff.

    The retained model keeps all n time bins of the full grid but only the
    grid points j >= cutoff_index; each effect is the compressed rank-one
    kernel, normalized so the family still sums to the identity on the
    retained space.  The returned grid is marked half-line and starts at
    the cutoff energy.
    """
    if full_grid.halfline:
        raise ValueError("pass the underlying full-line grid, not an already compressed one")
    cutoff_index = int(cutoff_index)
    if not 0 <= cutoff_index < full_grid.n:
        raise ValueError(f"cutoff index {cutoff_index} outside 0..{full_grid.n - 1}")
    keep = full_grid.n - cutoff_index
    if keep < 2:
        raise ValueError("fewer than two energies retained above the cutoff")
    energies = full_grid.energies
    sub = EnergyGrid(keep, full_grid.de, offset=float(energies[cutoff_index]), halfline=True)
    m = fourier_map(full_grid)[:, cutoff_index:]
    kernels = m[:, np.newaxis, :]
    return CovariantPOVM(sub, TimeLattice.from_grid(full_grid), kernels=kernels, label="halfline")


def vector_generated_povm(grid: EnergyGrid, generator: np.ndarray) -> CovariantPOVM:
    """Covariant family of projectors onto the time translates of one vector.

    Normalization of the family forces every component of the generator to
    have modulus 1/sqrt(n); only the phases are free.  A flat generator of
    constant phase reproduces the sharp observable exactly.
    """
    g = np.asarray(generator, dtype=complex)
    if g.shape != (grid.n,):
        raise ValueError(f"generator must have shape ({grid.n},), got {g.shape}")
    target = 1.0 / np.sqrt(grid.n)
    dev = np.abs(np.abs(g) - target)
    j = int(np.argmax(dev))
    if dev[j] > 1e-12 * target:
        raise ValueError(
            "generator component moduli must all equal 1/sqrt(n); "
            f"component {j} has modulus {np.abs(g[j]):.12e}, expected {target:.12e}"
        )
    lattice = TimeLattice.from_grid(grid)
    phases = np.exp(1j * np.outer(lattice.centers, grid.energies))
    kernels = (phases * g).conj()[:, np.newaxis, :]
    return CovariantPOVM(grid, lattice, kernels=kernels, label="vector")


@dataclass(frozen=True)
class PovmValidation:
    """Result of checking the defining axioms of a covariant bin observable.

    ``min_effect_eigenvalue`` is a lower bound on the lowest eigenvalue of
    every effect: exactly 0 for factored storage, and for dense storage
    lambda_min(E_0) minus the largest Frobenius gap between an effect and
    the covariant transport of E_0 (see :func:`validate_povm`).
    """

    completeness_residual: float
    covariance_residual: float
    min_effect_eigenvalue: float
    additivity_residual: float
    tolerance: float

    @property
    def complete(self) -> bool:
        return self.completeness_residual <= self.tolerance

    @property
    def covariant(self) -> bool:
        return self.covariance_residual <= self.tolerance

    @property
    def positive(self) -> bool:
        return self.min_effect_eigenvalue >= -self.tolerance

    @property
    def additive(self) -> bool:
        return self.additivity_residual <= self.tolerance

    @property
    def failed_axioms(self) -> tuple[str, ...]:
        """Names of the violated axioms, in the order they are checked."""
        verdicts = (
            ("completeness", self.complete),
            ("covariance", self.covariant),
            ("positivity", self.positive),
            ("additivity", self.additive),
        )
        return tuple(name for name, ok in verdicts if not ok)

    @property
    def passed(self) -> bool:
        return not self.failed_axioms


def validate_povm(povm: CovariantPOVM, tol: float = 1e-10, seed: int = 0) -> PovmValidation:
    """Measure how far a family is from completeness, covariance, positivity
    and additivity.

    Positivity of factored storage is structural (a Gram matrix cannot have
    a negative eigenvalue), so it reports 0.  A dense family pays for one
    spectrum, that of effect 0: every other effect is compared with the
    transport P^k E_0 P^-k of it, P = diag(exp(i*E*tau)), and the largest
    Frobenius gap delta bounds how far the lowest eigenvalue can move
    (Weyl's inequality).  The reported minimum is lambda_min(E_0) - delta,
    a lower bound on the lowest eigenvalue of every effect.  Additivity is
    probed with seeded random disjoint bin sets against a random state.
    """
    n, dim = povm.n_bins, povm.dim
    completeness = float(np.max(np.abs(povm.sum_effects() - np.eye(dim))))

    phases = np.exp(1j * povm.grid.energies * povm.lattice.tau)
    cov = 0.0
    prev = povm.effect(0)
    first = prev
    for k in range(n):
        shifted = (phases[:, None] * prev) * phases.conj()[None, :]
        nxt = first if k == n - 1 else povm.effect(k + 1)
        cov = max(cov, float(np.max(np.abs(shifted - nxt))))
        prev = nxt

    if povm.kernels is not None:
        min_eig = 0.0
    else:
        transport = povm.transport_phases()
        drift = transport[:, :, None] * povm.dense[0] * transport.conj()[:, None, :]
        drift -= povm.dense
        lowest = hermitian_eigh(povm.dense[0], want_vectors=False).eigenvalues[0]
        min_eig = float(lowest) - float(np.max(np.linalg.norm(drift, axis=(1, 2))))

    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state = _normalized_state(povm.grid, psi)
    probs = povm.occurrence_probabilities(state)
    add = 0.0
    for _ in range(8):
        picks = rng.permutation(n)
        cut = int(rng.integers(1, n))
        a, b = picks[:cut], picks[cut:]
        # P(A u B) recomputed from the union effect, not from the per-bin sums
        union_effect = sum(povm.effect(k) for k in np.concatenate([a, b]))
        p_union = float(np.real(state.amplitudes.conj() @ union_effect @ state.amplitudes))
        add = max(add, abs(p_union - float(probs[a].sum()) - float(probs[b].sum())))

    return PovmValidation(completeness, cov, min_eig, add, tol)


def gaussian_state(grid: EnergyGrid, center: float, width: float) -> StateVector:
    """Gaussian probability profile with the given mean and standard deviation.

    ``width`` is the standard deviation of the probability distribution, not
    of the amplitude envelope.  On half-line grids the profile is multiplied
    by a factor vanishing at zero energy so the state respects the boundary.
    States narrower than two grid spacings are flagged as undersampled.
    """
    if not (width > 0.0 and np.isfinite(width)):
        raise ValueError(f"width must be positive and finite, got {width}")
    e = grid.energies
    raw = np.exp(-((e - center) ** 2) / (4.0 * width**2)).astype(complex)
    if grid.halfline:
        raw *= e - e[0]
    return _normalized_state(grid, raw, undersampled=width < 2.0 * grid.de)


def random_smooth_state(grid: EnergyGrid, seed: int) -> StateVector:
    """Seeded draw from a family of smooth, well-concentrated states.

    Full-line grids get a random low-degree polynomial times a Gaussian
    envelope.  Half-line grids additionally force a fourth-order zero at
    the bottom of the spectrum, which keeps the time-side tails of the
    occurrence distribution far below the moment-reliability thresholds.
    """
    rng = np.random.default_rng(seed)
    e = grid.energies
    deg = int(rng.integers(2, 7))
    coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    if grid.halfline:
        # the envelope must beat the polynomial at the top of the grid, so
        # the family is kept narrow enough that the edge sits beyond 10 sigma
        center = rng.uniform(2.5, 3.0)
        sigma = rng.uniform(0.4, 0.55)
        x = (e - center) / sigma
        poly = np.polyval(0.2 * coeffs, x) + 1.0
        raw = (e - e[0]) ** 4 * poly * np.exp(-0.25 * x**2)
    else:
        center = rng.uniform(-4.0, 4.0)
        sigma = rng.uniform(0.8, 1.6)
        x = (e - center) / sigma
        poly = np.polyval(0.2 * coeffs, x) + 1.0
        raw = poly * np.exp(-0.25 * x**2)
    return _normalized_state(grid, raw)


def default_fullline_model() -> CovariantPOVM:
    """Reference full-line model for bound certification.

    512 energies at the self-dual spacing sqrt(2*pi/512), centered on zero:
    energy span and time period are then equal, which balances the two
    truncation errors for states of order-one width.
    """
    n = 512
    de = float(np.sqrt(2.0 * np.pi / n))
    return build_sharp_time_povm(EnergyGrid(n, de, offset=-de * (n // 2)))


def default_halfline_model() -> CovariantPOVM:
    """Reference positive-spectrum model for bound certification.

    Compresses a 2048-point grid at spacing 0.01 onto its upper half, so
    the retained spectrum is [0, 10.23] and the time period is about 628.
    The long period keeps the slow time tails of boundary-kinked states
    from biasing second moments at the tolerance level.
    """
    n, cutoff = 2048, 1024
    de = 0.01
    return build_halfline_povm(EnergyGrid(n, de, offset=-de * cutoff), cutoff)


def transported_minimal_state(grid: EnergyGrid) -> StateVector:
    """State whose energy profile is the shifted decaying Airy function.

    Defined on half-line grids only; the profile vanishes at zero energy and
    realizes, in the continuum limit, the smallest possible product of time
    spread and mean energy.
    """
    if not grid.halfline:
        raise ValueError("the minimal profile lives on a half-line grid")
    raw = airy_ai(grid.energies - airy_zero(1)).astype(complex)
    return _normalized_state(grid, raw)
