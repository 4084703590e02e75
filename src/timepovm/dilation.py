"""Sharp dilations of covariant bin observables.

Every normalized family of effects is the compression of a projection-valued
measure on a larger space.  The larger space used here is the quotient of
the direct sum of one copy of the model space per bin: block k carries the
retained eigendirections of effect k, weighted by the square roots of the
eigenvalues.  In those coordinates the sharp measure is literally a diagonal
0/1 indicator, the embedding of the model space is an isometry, and the
one-step time shift becomes a cyclic block permutation.

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
from .model import CovariantPOVM, StateVector, validate_povm

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
    """Quotient-space data of a sharp dilation.

    ``embedding`` is the (rank x dim) isometry from the model space into the
    quotient; its block of rows for bin k is sqrt(L) (P^k W)^dagger with
    (W, L) the retained eigenpairs of effect 0 and P^k the diagonal
    covariance phases of k steps.  ``bin_slices[k]``
    selects those rows, ``shift`` implements one covariance step, and
    ``discarded_count`` counts the eigendirections dropped as exact zeros.
    """

    povm: CovariantPOVM
    rank: int
    bin_slices: tuple
    embedding: np.ndarray
    shift: np.ndarray
    discarded_count: int

    def sharp_indicator(self, bins) -> np.ndarray:
        """Diagonal of the sharp measure for a set of bins."""
        d = np.zeros(self.rank)
        for k in np.atleast_1d(np.asarray(bins, dtype=int)):
            d[self.bin_slices[int(k) % self.povm.n_bins]] = 1.0
        return d

    def embed(self, state: StateVector) -> np.ndarray:
        return self.embedding @ state.amplitudes


def build_dilation(povm: CovariantPOVM, eps: float = 1e-12, validate_tol: float = 1e-10) -> Dilation:
    """Construct the quotient-space dilation of a validated observable.

    The family is checked against its axioms first; a family that is not
    complete, covariant, positive and additive at ``validate_tol`` has no
    dilation of this kind, and the error says which axiom failed.  Only
    effect 0 is diagonalized; block k holds its retained eigenvectors W
    transported to P^k W, which are eigenvectors of effect k up to the
    covariance drift that validation measured.  Eigenvalues below ``eps``
    times the largest are treated as exact zeros and dropped from the
    quotient; an eigenvalue below -1e-8 times the largest means the input
    was not an effect at all.  The shift is assembled from the blocks as
    sqrt(L) (P^(k+1) W)^dagger P (P^k W) / sqrt(L), so its residuals in the
    checks measure rounding rather than reading back an identity.
    """
    report = validate_povm(povm, tol=validate_tol)
    if not report.passed:
        failed = [
            name
            for name, ok in [
                ("completeness", report.complete),
                ("covariance", report.covariant),
                ("positivity", report.positive),
                ("additivity", report.additive),
            ]
            if not ok
        ]
        raise ValueError(f"observable fails validation ({', '.join(failed)}); cannot dilate")

    n, dim = povm.n_bins, povm.dim
    sp = hermitian_eigh(povm.effect(0))
    w, v = sp.eigenvalues, sp.eigenvectors
    wmax = float(w[-1])
    if wmax <= 0.0:
        raise ValueError("effect 0 vanishes; the bin carries no probability at all")
    if float(w[0]) < -1e-8 * wmax:
        raise ValueError(f"effect 0 has negative eigenvalue {w[0]:.3e}; not a positive operator")
    keep = w > eps * wmax
    root = np.sqrt(w[keep])
    r = int(root.size)
    # eigenvectors of E_k = P^k E_0 P^-k are the columns of P^k W
    moved = povm.transport_phases()[:, :, None] * v[:, keep]
    blocks = root[:, None] * moved.conj().transpose(0, 2, 1)
    lifts = moved / root
    slices = tuple(slice(k * r, (k + 1) * r) for k in range(n))

    rank = n * r
    embedding = blocks.reshape(rank, dim)
    phases = np.exp(1j * povm.grid.energies * povm.lattice.tau)
    shift = np.zeros((rank, rank), dtype=complex)
    for k in range(n):
        nxt = (k + 1) % n
        shift[slices[nxt], slices[k]] = blocks[nxt] @ (phases[:, None] * lifts[k])

    return Dilation(
        povm=povm,
        rank=rank,
        bin_slices=slices,
        embedding=embedding,
        shift=shift,
        discarded_count=n * (dim - r),
    )


def _random_bin_sets(n_bins: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        size = int(rng.integers(1, n_bins + 1))
        sets.append(np.sort(rng.choice(n_bins, size=size, replace=False)))
    return sets


def check_compression(dilation: Dilation, bin_sets=None, count: int = 100, seed: int = 0) -> float:
    """Largest entrywise gap between compressed sharp effects and bin sums.

    For every tested bin set B this compares V^dagger E(B) V against the sum
    of the effects over B, where V is the embedding.  With no explicit
    ``bin_sets`` a seeded collection of random subsets is used.
    """
    povm = dilation.povm
    if bin_sets is None:
        bin_sets = _random_bin_sets(povm.n_bins, count, seed)
    emb = dilation.embedding
    worst = 0.0
    for bins in bin_sets:
        ind = dilation.sharp_indicator(bins)
        compressed = (emb.conj().T * ind[None, :]) @ emb
        direct = np.zeros((povm.dim, povm.dim), dtype=complex)
        for k in np.atleast_1d(np.asarray(bins, dtype=int)):
            direct += povm.effect(int(k))
        worst = max(worst, float(np.max(np.abs(compressed - direct))))
    return worst


def check_imprimitivity(dilation: Dilation) -> float:
    """How far the shift fails to advance the sharp measure by one bin.

    Returns the largest entrywise residual of S E({k}) S^dagger = E({k+1})
    over all bins, together with the unitarity defect of S folded in: a
    shift that is not unitary cannot implement a group step.
    """
    s = dilation.shift
    rank = dilation.rank
    worst = float(np.max(np.abs(s.conj().T @ s - np.eye(rank))))
    n = dilation.povm.n_bins
    for k in range(n):
        ind = dilation.sharp_indicator([k])
        moved = (s * ind[None, :]) @ s.conj().T
        target = np.diag(dilation.sharp_indicator([(k + 1) % n]))
        worst = max(worst, float(np.max(np.abs(moved - target))))
    return worst


def check_restriction(dilation: Dilation) -> float:
    """Largest entry of S V - V U(tau): the shift must extend the evolution."""
    povm = dilation.povm
    phases = np.exp(1j * povm.grid.energies * povm.lattice.tau)
    lhs = dilation.shift @ dilation.embedding
    rhs = dilation.embedding * phases[None, :]
    return float(np.max(np.abs(lhs - rhs)))


def check_occurrence_consistency(dilation: Dilation, states) -> float:
    """Gap between model occurrence probabilities and quotient bin masses."""
    povm = dilation.povm
    worst = 0.0
    for state in states:
        probs = povm.occurrence_probabilities(state)
        q = dilation.embed(state)
        masses = np.array([float(np.sum(np.abs(q[sl]) ** 2)) for sl in dilation.bin_slices])
        worst = max(worst, float(np.max(np.abs(masses - probs))))
    return worst


def shift_power_deviation(dilation: Dilation) -> float:
    """Largest entry of S^n - phase * I after one full period.

    On grids whose offset is an integer multiple of the spacing the phase
    is exactly one and S^n is the identity; otherwise the full period
    contributes a global phase exp(2*pi*i*offset/de), which is quotiented
    out before measuring the deviation.
    """
    povm = dilation.povm
    n = povm.n_bins
    power = np.linalg.matrix_power(dilation.shift, n)
    phase = np.exp(2j * np.pi * povm.grid.offset / povm.grid.de)
    return float(np.max(np.abs(power - phase * np.eye(dilation.rank))))
