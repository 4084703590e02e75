"""Sharp dilations of covariant bin observables.

Every normalized family of effects is the compression of a projection-valued
measure on a larger space.  For a covariant family, E_k = K_k^dagger K_k with
K_k = K_0 conj(P^k) and P = diag(exp(i*E*tau)), that space is the direct sum
of n blocks, one per bin, and the blocks are the kernels themselves: stacked,
they are an isometry, since sum_k E_k = I (Naimark; Mackey's imprimitivity
theorem).  The sharp measure of bin k projects onto block k, and the one-step
time shift carries block k to block k+1 by one (r x r) map per bin.

Validation already factors E_0 = K_0^dagger K_0, so the dilation only makes
the rows of K_0 orthogonal, through the r x r Gram matrix K_0 K_0^dagger, and
transports them.  The checks below compare the result against the model's
per-bin effects, so they stay an independent oracle for that transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigh
from .model import CovariantPOVM, PovmValidation, StateVector, retained_eigenvalues, validate_povm

__all__ = [
    "Dilation",
    "build_dilation",
    "check_compression",
    "check_imprimitivity",
    "check_restriction",
    "check_occurrence_consistency",
    "shift_power_deviation",
]


@dataclass(frozen=True)
class Dilation:
    """Block form of a sharp dilation: n blocks of dimension r, one per bin.

    ``blocks[k]`` (r x dim) is the kernel K_k = K_0 conj(P^k) of bin k,
    with K_0 = sqrt(L) W^dagger in orthogonal rows, (W, L) the retained
    eigenpairs of effect 0; stacked, the blocks are the isometric embedding
    of the model space, and the sharp measure of bin k projects onto block
    k.  ``shift[k]`` (r x r) carries block k to block k+1, so the one-step
    shift is block-cyclic.  ``discarded_count`` counts the eigendirections
    dropped as exact zeros.
    """

    povm: CovariantPOVM
    blocks: np.ndarray
    shift: np.ndarray
    discarded_count: int

    @property
    def rank(self) -> int:
        n, r, _ = self.blocks.shape
        return n * r

    def embed(self, state: StateVector) -> np.ndarray:
        """Block components of a state, shape (n, r): row k lies in block k."""
        n, r, dim = self.blocks.shape
        return (self.blocks.reshape(n * r, dim) @ state.amplitudes).reshape(n, r)


def build_dilation(povm: CovariantPOVM, report: PovmValidation | None = None) -> Dilation:
    """Construct the block-form dilation of a validated observable.

    ``report`` is a validation of ``povm`` the caller already holds; without
    one the family is validated here at the default tolerance.  A family
    that is not complete, covariant, positive and additive has no dilation
    of this kind, and the error says which axiom failed; so has one whose
    report holds no kernel or a zero one.  The report's K_0 is the only
    input, whatever the storage: the eigenpairs (U, L) of the Gram matrix
    K_0 K_0^dagger, whose spectrum is the nonzero spectrum of E_0, give the
    orthogonal rows U^dagger K_0 = sqrt(L) W^dagger, and the eigenvalues
    that :func:`~timepovm.model.retained_eigenvalues` calls exact zeros drop
    dependent rows.  Block k is those rows moved by
    :meth:`CovariantPOVM.transport`.  The shift is assembled from the blocks
    with their rows scaled to unit norm, as L^(-1/2) K_(k+1) P K_k^dagger
    L^(-1/2), so its residuals in the checks measure rounding rather than
    reading back an identity, and a small kept eigenvalue does not magnify
    that rounding as dividing by L did.
    """
    if report is None:
        report = validate_povm(povm)
    if not report.passed:
        raise ValueError(f"observable fails validation ({', '.join(report.failed_axioms)}); cannot dilate")
    if report.kernel is None or not report.kernel.any():
        raise ValueError("effect 0 is zero or negative beyond rounding; it has no kernel to dilate")
    sp = hermitian_eigh(report.kernel @ report.kernel.conj().T)
    keep = retained_eigenvalues(sp.eigenvalues)
    blocks = povm.transport(sp.eigenvectors[:, keep].conj().T @ report.kernel)
    # rows of unit norm, so a small kept eigenvalue scales no rounding up
    units = blocks / np.sqrt(sp.eigenvalues[keep])[:, None]
    phases = np.exp(1j * povm.grid.energies * povm.lattice.tau)
    shift = np.roll(units, -1, axis=0) @ (phases[:, None] * units.conj().transpose(0, 2, 1))
    return Dilation(povm, blocks, shift, povm.n_bins * (povm.dim - int(keep.sum())))


def _random_bin_sets(n_bins: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        size = int(rng.integers(1, n_bins + 1))
        sets.append(np.sort(rng.choice(n_bins, size=size, replace=False)))
    return sets


def check_compression(dilation: Dilation, bin_sets=None, count: int = 100, seed: int = 0) -> float:
    """Largest entrywise gap between compressed sharp effects and bin sums.

    For every tested bin set B the sharp measure projects onto the blocks
    of B, so its compression is the sum of blocks[k]^dagger blocks[k] over
    B; that is compared against the sum of the model's effects over B (the
    dense effects added in place, or K_B^dagger K_B of the kernels
    derived from the generator), which never touches the blocks.  With no
    explicit ``bin_sets`` a seeded collection of random subsets is used.
    """
    povm = dilation.povm
    if bin_sets is None:
        bin_sets = _random_bin_sets(povm.n_bins, count, seed)
    worst = 0.0
    for bins in bin_sets:
        bins = np.atleast_1d(np.asarray(bins, dtype=int)) % povm.n_bins
        rows = dilation.blocks[bins].reshape(-1, povm.dim)
        compressed = rows.conj().T @ rows
        direct = povm.sum_effects(bins)
        worst = max(worst, float(np.max(np.abs(compressed - direct))))
    return worst


def check_imprimitivity(dilation: Dilation) -> float:
    """How far the shift fails to advance the sharp measure by one bin.

    The shift carries block k onto block k+1, so S E({k}) S^dagger =
    E({k+1}) and unitarity of S both reduce to unitarity of every map
    shift[k]; returns the largest entry of S_k S_k^dagger - I and
    S_k^dagger S_k - I over all bins.
    """
    s = dilation.shift
    s_dag = s.conj().transpose(0, 2, 1)
    eye = np.eye(s.shape[1])
    return float(max(np.max(np.abs(s @ s_dag - eye)), np.max(np.abs(s_dag @ s - eye))))


def check_restriction(dilation: Dilation) -> float:
    """Largest entry of S V - V U(tau): the shift must extend the evolution."""
    povm = dilation.povm
    phases = np.exp(1j * povm.grid.energies * povm.lattice.tau)
    lhs = dilation.shift @ dilation.blocks
    rhs = np.roll(dilation.blocks, -1, axis=0) * phases
    return float(np.max(np.abs(lhs - rhs)))


def check_occurrence_consistency(dilation: Dilation, states) -> float:
    """Gap between model occurrence probabilities and the sharp block masses."""
    povm = dilation.povm
    worst = 0.0
    for state in states:
        probs = povm.occurrence_probabilities(state)
        masses = np.sum(np.abs(dilation.embed(state)) ** 2, axis=1)
        worst = max(worst, float(np.max(np.abs(masses - probs))))
    return worst


def shift_power_deviation(dilation: Dilation) -> float:
    """Largest entry of S^n - phase * I after one full period.

    S^n is block-diagonal: block k is the cycle product
    shift[k-1] ... shift[k+1] shift[k], built for every k at once.  On grids
    whose offset is an integer multiple of the spacing the phase is exactly
    one and S^n is the identity; otherwise the full period contributes a
    global phase exp(2*pi*i*offset/de), which is quotiented out before
    measuring the deviation.
    """
    povm = dilation.povm
    shift = dilation.shift
    eye = np.eye(shift.shape[1])
    power = np.broadcast_to(eye, shift.shape)
    for m in range(povm.n_bins):
        power = np.roll(shift, -m, axis=0) @ power
    phase = np.exp(2j * np.pi * povm.grid.offset / povm.grid.de)
    return float(np.max(np.abs(power - phase * eye)))
