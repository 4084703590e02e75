"""Finite energy grids, states, and covariant time observables.

A model lives on n equally spaced energies.  The conjugate time lattice
carries n bins of width tau = 2*pi/(n*de); translating any bin observable
by tau in time moves it to the next bin, cyclically.  Every constructor
here returns a covariant family stored as its generating kernel K_0 alone:
effect k is K_k^dagger K_k with K_k = K_0 conj(P^k), P = diag(exp(i*E*tau)),
so positivity is a property of the storage rather than a numerical
accident.  Because tau*de = 2*pi/n, the occurrence amplitudes (K_k psi)_k
are one length-n discrete Fourier transform of K_0 * psi, up to a phase
per bin; occurrence probabilities therefore cost one of numpy's FFTs
instead of an n x dim matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import hermitian_eigh
from .special import _POS_MAX, airy_ai, airy_zero

__all__ = [
    "EnergyGrid",
    "centered_grid",
    "TimeLattice",
    "StateVector",
    "CovariantPOVM",
    "PovmValidation",
    "build_sharp_time_povm",
    "build_halfline_povm",
    "vector_generated_povm",
    "retained_eigenvalues",
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


def centered_grid(n: int, de: float | None = None) -> EnergyGrid:
    """n energies at spacing de with energy 0 at index n // 2.

    Without ``de`` the spacing is the self-dual sqrt(2*pi/n), at which the
    energy span and the time period of the conjugate lattice are equal.
    """
    if de is None:
        de = float(np.sqrt(2.0 * np.pi / n))
    return EnergyGrid(n, de, offset=-de * (n // 2))


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
        if not abs(nrm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def probabilities(self) -> np.ndarray:
        # not np.abs(a)**2: numpy's complex abs rounds differently at each SIMD level
        a = self.amplitudes
        return a.real * a.real + a.imag * a.imag


def _normalized_state(grid: EnergyGrid, raw: np.ndarray, undersampled: bool = False) -> StateVector:
    nrm = np.linalg.norm(raw)
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ValueError("state profile vanished or overflowed on this grid")
    return StateVector(grid, raw / nrm, undersampled)


def fourier_map(grid: EnergyGrid, rows=None) -> np.ndarray:
    """Rows of the unitary n x n map from energy amplitudes to time-bin amplitudes.

    Row k evaluates at the k-th lattice time: M[k, j] = exp(-i*E_j*t_k)/sqrt(n).
    ``rows`` selects the rows to build (default: all, the dense reference
    for the factored families, whose kernel stack equals them); the
    constructors ask for row 0 only, the sharp generator.
    """
    lattice = TimeLattice.from_grid(grid)
    times = lattice.centers if rows is None else lattice.centers[rows]
    return np.exp(-1j * np.outer(times, grid.energies)) / np.sqrt(grid.n)


@dataclass(frozen=True)
class CovariantPOVM:
    """Normalized bin observable over a cyclic time lattice.

    Exactly one storage form is present.  ``generator`` holds the kernel
    K_0 of bin 0, shape (r, dim), of a covariant family: effect k is
    K_k^dagger K_k with K_k = K_0 conj(P^k), P = diag(exp(i*E*tau)).  Every
    constructor in this module produces this form; it needs dim <= n_bins
    and the lattice conjugate to the grid (n*tau*de = 2*pi), which is what
    makes the occurrence amplitudes one DFT of K_0 * psi.  ``dense`` holds
    explicit effect matrices, shape (n_bins, dim, dim), and is reserved for
    observables read back from files, where positivity is a claim to be
    checked rather than a construction; :func:`validate_povm` reads such a
    table one bin at a time.
    """

    grid: EnergyGrid
    lattice: TimeLattice
    generator: np.ndarray | None = None
    dense: np.ndarray | None = None
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if (self.generator is None) == (self.dense is None):
            raise ValueError("exactly one of generator/dense storage must be given")
        if self.generator is not None:
            if self.generator.ndim != 2 or self.generator.shape[1] != self.grid.n:
                raise ValueError(
                    f"generator must be (r, dim) with dim={self.grid.n}, got {self.generator.shape}"
                )
            if self.grid.n > self.lattice.n:
                raise ValueError(f"generator storage needs dim <= n_bins = {self.lattice.n}; got dim={self.grid.n}")
            turn = self.lattice.n * self.lattice.tau * self.grid.de / (2.0 * np.pi)
            if abs(turn - 1.0) > 1e-12:
                raise ValueError(f"generator storage needs n*tau*de = 2*pi; got {turn!r} * 2*pi")
            return
        want = (self.lattice.n, self.grid.n, self.grid.n)
        if self.dense.shape != want:
            raise ValueError(f"dense effects must be (n_bins, dim, dim) = {want}, got {self.dense.shape}")

    @property
    def n_bins(self) -> int:
        return self.lattice.n

    @property
    def dim(self) -> int:
        return self.grid.n

    def phases(self, steps) -> np.ndarray:
        """Diagonals of P^s, P = diag(exp(i*E*tau)), for each s in steps: shape (len(steps), dim)."""
        return np.exp(1j * np.outer(np.asarray(steps) * self.lattice.tau, self.grid.energies))

    def transport(self, kernel: np.ndarray, bins=None) -> np.ndarray:
        """Kernels K_k = K conj(P^k), (len(bins), r, dim), of a bin-0 kernel K (r, dim), any r; bins default to all."""
        bins = np.arange(self.n_bins) if bins is None else np.asarray(bins)
        return kernel[np.newaxis] * self.phases(-bins)[:, np.newaxis, :]

    def effect(self, k: int) -> np.ndarray:
        """Effect of bin k (mod n_bins): K_k^dagger K_k built from the generator,
        or a copy of the stored matrix for dense storage."""
        k = int(k) % self.n_bins
        if self.dense is not None:
            return self.dense[k].copy()
        kernel = self.transport(self.generator, [k])[0]
        return kernel.conj().T @ kernel

    def _bin_amplitudes(self, state: StateVector) -> np.ndarray:
        """DFT over n_bins of K_0 * psi, shape (r, n_bins), for generator storage.

        With E_j = offset + j*de and tau*de = 2*pi/n, K_k psi is
        exp(-i*offset*k*tau) times column k.  The product is taken by real
        and imaginary parts: numpy's complex multiply has SIMD kernels that
        round differently at each level, real multiplies and subtractions
        do not, and numpy's FFT gives the same bits at every level.
        """
        g, psi = self.generator, state.amplitudes
        prod = np.empty(g.shape, dtype=complex)
        prod.real = g.real * psi.real - g.imag * psi.imag
        prod.imag = g.real * psi.imag + g.imag * psi.real
        return np.fft.fft(prod, self.n_bins)

    def occurrence_probabilities(self, state: StateVector) -> np.ndarray:
        """psi^dagger E_k psi for every bin k, unclipped.

        Generator storage sums |.|^2 of :meth:`_bin_amplitudes`, where the
        phase per bin drops out.  It cannot go negative; a dense family that
        is not positive can, and callers that need a distribution decide how
        much negativity is roundoff (see ``uncertainty.occurrence_distribution``).
        """
        if state.grid.n != self.dim:
            raise ValueError("state dimension does not match observable dimension")
        if self.generator is not None:
            amp = self._bin_amplitudes(state)
            return np.sum(amp.real**2 + amp.imag**2, axis=0)
        psi = state.amplitudes
        return np.real(np.einsum("i,kij,j->k", psi.conj(), self.dense, psi))


def build_sharp_time_povm(grid: EnergyGrid) -> CovariantPOVM:
    """Sharp time observable on a full-line grid: one rank-one effect per bin.

    The effects are the projectors onto the rows of the time-side Fourier
    map (:func:`fourier_map`), so occurrence amplitudes are literally the
    discrete Fourier data of the state; only row 0 is stored.  Rejects
    half-line grids: compressing to a positive spectrum is what
    :func:`build_halfline_povm` is for, and the compressed effects are
    genuinely different objects (no longer projections).
    """
    if grid.halfline:
        raise ValueError("sharp time observables need a full-line grid; use build_halfline_povm")
    return CovariantPOVM(grid, TimeLattice.from_grid(grid), generator=fourier_map(grid, [0]), label="sharp")


def build_halfline_povm(full_grid: EnergyGrid, cutoff_index: int) -> CovariantPOVM:
    """Compress the sharp observable onto energies at or above a cutoff.

    The retained model keeps all n time bins of the full grid but only the
    grid points j >= cutoff_index; each effect is the compressed rank-one
    kernel (row 0 of the full grid's Fourier map, cut to the retained
    energies), normalized so the family still sums to the identity on the
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
    generator = fourier_map(full_grid, [0])[:, cutoff_index:]
    return CovariantPOVM(sub, TimeLattice.from_grid(full_grid), generator=generator, label="halfline")


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
    if not dev[j] <= 1e-12 * target:  # argmax stops at the first NaN, which fails too
        raise ValueError(
            "generator component moduli must all equal 1/sqrt(n); "
            f"component {j} has modulus {np.abs(g[j]):.12e}, expected {target:.12e}"
        )
    lattice = TimeLattice.from_grid(grid)
    kernel = (np.exp(1j * (lattice.centers[0] * grid.energies)) * g).conj()
    return CovariantPOVM(grid, lattice, generator=kernel[np.newaxis], label="vector")


@dataclass(frozen=True)
class PovmValidation:
    """Result of checking the defining axioms of a covariant bin observable.

    ``min_effect_eigenvalue`` is a lower bound on the lowest eigenvalue of
    every effect: exactly 0 for factored storage, and for dense storage
    lambda_min(H_0) minus the largest Frobenius gap between an effect and
    the covariant transport of H_0, the Hermitian part of E_0, both taken
    in the one pass of :func:`validate_povm` over the bins.  A dense E_0
    whose anti-Hermitian part has an entry above the tolerance is not
    positive: the field is then minus that entry, and there is no kernel.
    ``kernel`` is K_0 (r, dim) with H_0 = K_0^dagger K_0 up to the
    tolerance: the generator, or sqrt(L) W^dagger over the eigenpairs (W, L)
    of H_0 that :func:`retained_eigenvalues` keeps: those above rounding
    and above dim times the largest anti-Hermitian entry of E_0, the most
    that noise of that size moves an eigenvalue.  None when H_0 has no such
    eigenvalue or one below -1e-8 times the largest, whatever the tolerance.
    ``additivity_residual`` is the largest gap, over the bins k, between p_k
    of ``occurrence_probabilities`` and psi^dagger E_k psi, on one seeded
    random state psi.  A NaN in any bin makes its field NaN, which fails.
    """

    completeness_residual: float
    covariance_residual: float
    min_effect_eigenvalue: float
    additivity_residual: float
    tolerance: float
    kernel: np.ndarray | None = field(repr=False, compare=False)

    @property
    def failed_axioms(self) -> tuple[str, ...]:
        """Names of the violated axioms, in the order they are checked; a NaN residual fails its axiom."""
        tol = self.tolerance
        verdicts = (
            ("completeness", self.completeness_residual <= tol),
            ("covariance", self.covariance_residual <= tol),
            ("positivity", self.min_effect_eigenvalue >= -tol),
            ("additivity", self.additivity_residual <= tol),
        )
        return tuple(name for name, ok in verdicts if not ok)

    @property
    def passed(self) -> bool:
        return not self.failed_axioms


def retained_eigenvalues(w: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Mask of the ascending eigenvalues w of E_0 that are not zeros.

    Exact zeros are those at most 1e-12 of the largest, where rounding puts
    them; with a ``floor``, the size of the noise the input shows, the
    eigenvalues at or below it are zeros of that noise too.
    """
    return w > max(1e-12 * w[-1], floor)


@np.errstate(over="ignore", invalid="ignore")
def validate_povm(povm: CovariantPOVM, tol: float = 1e-10, seed: int = 0) -> PovmValidation:
    """Measure how far a family is from completeness, covariance, positivity
    and additivity.

    Positivity of factored storage is structural (a Gram matrix cannot have
    a negative eigenvalue), so it reports 0.  A dense family first measures
    the anti-Hermitian part (E_0 - E_0^dagger)/2 of effect 0: with an entry
    above ``tol``, E_0 is not positive, and the reported minimum is minus
    that entry.  Otherwise it pays for one eigendecomposition, that of the
    Hermitian part H_0 = (E_0 + E_0^dagger)/2, which is E_0 itself for
    Hermitian input; its eigenvectors give the report's K_0, and an
    eigenvalue within dim times the largest anti-Hermitian entry, the most
    noise of that size can move one, counts as a zero.  One pass over the
    bins then reads each effect E_k once: into the sum that completeness
    compares with I, against E_(k+1) after one covariance step P E_k P^-1,
    P = diag(exp(i*E*tau)), and, with H_0 factored, against P^k H_0 P^-k,
    whose largest Frobenius gap delta bounds how far the lowest eigenvalue
    can move (Weyl): the reported minimum is lambda_min(H_0) - delta.

    Additivity is checked in the same pass, bin by bin, on one state psi
    drawn from ``seed``: p_k from ``occurrence_probabilities`` (the FFT for
    generator storage, the per-bin contraction for dense storage) against
    psi^dagger E_k psi of the effect read for that bin.  A family indexed by
    bins is additive by definition, and the probability of a bin set is the
    sum of its p_k, so agreement on every bin is the whole check; a wrong
    bin order, phase or normalization in either path shows at some bin.
    Each residual is one ``np.max`` over per-bin gaps: a NaN in any bin makes
    it NaN, an overflow inf (without a warning), and either fails its axiom.
    """
    n, dim = povm.n_bins, povm.dim
    first = effect = povm.effect(0)
    if povm.generator is not None:
        min_eig, kernel, herm = 0.0, povm.generator, None
    else:
        skew = 0.5 * float(np.max(np.abs(first - first.conj().T)))
        if not skew <= tol:  # a NaN entry makes skew NaN
            min_eig, kernel, herm = -skew, None, None
        else:
            herm = 0.5 * (first + first.conj().T)
            sp = hermitian_eigh(herm)
            # noise with entries up to skew moves an eigenvalue by at most
            # dim * skew; Hermitian input (skew 0) keeps all above rounding
            w, keep = sp.eigenvalues, retained_eigenvalues(sp.eigenvalues, dim * skew)
            min_eig = float(w[0])
            positive = keep.any() and w[0] >= -1e-8 * w[-1]
            kernel = np.sqrt(w[keep])[:, None] * sp.eigenvectors[:, keep].conj().T if positive else None

    rng = np.random.default_rng(seed)
    state = _normalized_state(povm.grid, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    probs, psi = povm.occurrence_probabilities(state), state.amplitudes
    direct, cov, drift = np.empty(n), np.empty(n), np.zeros(n)
    phases = povm.phases([1])[0]
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        total += effect
        # einsum, not @: OpenBLAS hands a 64 x 64 complex matrix-vector
        # product to its threads, which took ~8 ms a call on a 2-vCPU host
        # once they slept
        direct[k] = np.real(np.vdot(psi, np.einsum("ij,j->i", effect, psi)))
        if herm is not None:
            step = povm.phases([-k])[0]  # the diagonal of conj(P^k)
            drift[k] = np.linalg.norm(step.conj()[:, None] * herm * step - effect, axis=(0, 1))
        nxt = first if k == n - 1 else povm.effect(k + 1)
        cov[k] = np.max(np.abs((phases[:, None] * effect) * phases.conj()[None, :] - nxt))
        effect = nxt
    completeness = float(np.max(np.abs(total - np.eye(dim))))
    min_eig -= float(np.max(drift))  # 0 unless H_0 was factored
    add = float(np.max(np.abs(direct - probs)))
    return PovmValidation(completeness, float(np.max(cov)), min_eig, add, tol, kernel)


def _host_independent_exp(x: np.ndarray) -> np.ndarray:
    """exp of a real array, with the C library's bits in every entry.

    numpy's real float64 exp has AVX-512 and AVX2 kernels that round
    differently, so a state profile built with it would depend on the
    host's SIMD level, and so would the rounding-floor digits printed from
    it.  numpy does not vectorise complex exp: it calls the C library's
    complex exp entry by entry, whose real part at a zero imaginary part is
    the library's real exp.  That routing is what this helper relies on.
    """
    return np.exp(x + 0j).real


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
    raw = _host_independent_exp(-((e - center) ** 2) / (4.0 * width**2)).astype(complex)
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
        center, sigma = rng.uniform(2.5, 3.0), rng.uniform(0.4, 0.55)
        # two products, not numpy's power, whose kernels round by SIMD level
        square = (e - e[0]) * (e - e[0])
    else:
        center, sigma = rng.uniform(-4.0, 4.0), rng.uniform(0.8, 1.6)
        square = 1.0  # no zero to force; a product with 1.0 is exact
    x = (e - center) / sigma
    raw = square * square * (np.polyval(0.2 * coeffs, x) + 1.0) * _host_independent_exp(-0.25 * x**2)
    return _normalized_state(grid, raw)


def default_fullline_model(n: int | None = None, de: float | None = None) -> CovariantPOVM:
    """Reference full-line model for bound certification.

    By default 512 energies at the self-dual spacing sqrt(2*pi/512),
    centered on zero: energy span and time period are then equal, which
    balances the two truncation errors for states of order-one width.
    """
    return build_sharp_time_povm(centered_grid(512 if n is None else n, de))


def default_halfline_model(n: int | None = None, de: float | None = None) -> CovariantPOVM:
    """Reference positive-spectrum model for bound certification.

    Compresses a centered grid onto its upper half, energies from index
    n // 2 on.  By default 2048 points at spacing 0.01, so the retained
    spectrum is [0, 10.23] and the time period is about 628; the long
    period keeps the slow time tails of boundary-kinked states from
    biasing second moments at the tolerance level.
    """
    n = 2048 if n is None else n
    return build_halfline_povm(centered_grid(n, 0.01 if de is None else de), n // 2)


def transported_minimal_state(grid: EnergyGrid) -> StateVector:
    """State whose energy profile is the shifted decaying Airy function.

    Defined on half-line grids only; the profile vanishes at zero energy and
    realizes, in the continuum limit, the smallest possible product of time
    spread and mean energy.
    """
    if not grid.halfline:
        raise ValueError("the minimal profile lives on a half-line grid")
    shifted = grid.energies - airy_zero(1)
    if shifted[-1] > _POS_MAX + 0.26:  # the largest argument airy_ai takes
        raise ValueError(
            f"the grid's top energy {grid.energies[-1]:.6g} is past {airy_zero(1) + _POS_MAX + 0.26:.6g}, "
            "the largest energy the minimal profile admits"
        )
    return _normalized_state(grid, airy_ai(shifted).astype(complex))
