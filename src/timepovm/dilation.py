"""Sharp dilations of covariant bin observables.

Every normalized family of effects is the compression of a projection-valued
measure on a larger space.  The larger space used here is the direct sum of
n blocks, one per bin: block k carries the retained eigendirections of
effect k, weighted by the square roots of the eigenvalues.  In those
coordinates the sharp measure of bin k is the projector onto block k, the
embedding of the model space stacks the blocks into an isometry, and the
one-step time shift is block-cyclic: it carries block k to block k+1 by one
(r x r) map per bin, a system of imprimitivity.

Covariance, E_k = P^k E_0 P^-k with P = diag(exp(i*E*tau)), means one
eigensolve fixes every block: the eigenpairs (W, L) of effect 0 give
effect k the eigenvectors P^k W with the same eigenvalues.  The checks
below compare the result against the stored per-bin effects, so they stay
an independent oracle for that transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigh
from .model import CovariantPOVM, PovmValidation, StateVector, validate_povm

__all__ = [
    "Dilation",
    "build_dilation",
    "check_compression",
    "check_imprimitivity",
    "check_restriction",
    "check_occurrence_consistency",
    "shift_power_deviation",
]

# eigenvalues of effect 0 below this fraction of the largest are exact zeros
_EPS = 1e-12


@dataclass(frozen=True)
class Dilation:
    """Block form of a sharp dilation: n blocks of dimension r, one per bin.

    ``blocks[k]`` (r x dim) is sqrt(L) (P^k W)^dagger with (W, L) the
    retained eigenpairs of effect 0 and P^k the diagonal covariance phases
    of k steps; stacked, the blocks are the isometric embedding of the model
    space, and the sharp measure of bin k projects onto block k.
    ``shift[k]`` (r x r) carries block k to block k+1, so the one-step shift
    is block-cyclic.  ``discarded_count`` counts the eigendirections dropped
    as exact zeros.
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


def build_dilation(povm: CovariantPOVM, validate_tol: float = 1e-10) -> Dilation:
    """Construct the block-form dilation of a validated observable.

    The family is checked against its axioms first; a family that is not
    complete, covariant, positive and additive at ``validate_tol`` has no
    dilation of this kind, and the error says which axiom failed.  Only
    effect 0 is diagonalized; block k holds its retained eigenvectors W
    transported to P^k W, which are eigenvectors of effect k up to the
    covariance drift that validation measured.  Eigenvalues below ``_EPS``
    times the largest are treated as exact zeros and dropped; an eigenvalue
    below -1e-8 times the largest means the input was not an effect at all.
    The shift is assembled from the blocks as
    sqrt(L) (P^(k+1) W)^dagger P (P^k W) / sqrt(L), so its residuals in the
    checks measure rounding rather than reading back an identity.
    """
    return _dilate_verdict(povm, validate_povm(povm, tol=validate_tol))


def _dilate_verdict(povm: CovariantPOVM, report: PovmValidation) -> Dilation:
    """build_dilation from a validation of povm the caller already holds."""
    if not report.passed:
        raise ValueError(f"observable fails validation ({', '.join(report.failed_axioms)}); cannot dilate")

    sp = hermitian_eigh(povm.effect(0))
    w, v = sp.eigenvalues, sp.eigenvectors
    wmax = float(w[-1])
    if wmax <= 0.0:
        raise ValueError("effect 0 vanishes; the bin carries no probability at all")
    if float(w[0]) < -1e-8 * wmax:
        raise ValueError(f"effect 0 has negative eigenvalue {w[0]:.3e}; not a positive operator")
    keep = w > _EPS * wmax
    root = np.sqrt(w[keep])
    # eigenvectors of E_k = P^k E_0 P^-k are the columns of P^k W
    moved = povm.transport_phases()[:, :, None] * v[:, keep]
    blocks = root[:, None] * moved.conj().transpose(0, 2, 1)
    lifts = moved / root
    phases = np.exp(1j * povm.grid.energies * povm.lattice.tau)
    shift = np.roll(blocks, -1, axis=0) @ (phases[:, None] * lifts)
    return Dilation(povm, blocks, shift, povm.n_bins * (povm.dim - root.size))


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
    B; that is compared against the sum of the model's effects over B (one
    stacked sum of the dense effects, or K_B^dagger K_B of the kernels
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
