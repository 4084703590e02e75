"""Occurrence statistics and time-energy bound certification.

The three certified inequalities, for a normalized state and a covariant
time observable:

* spread-spread:    std(T) * std(H)      >= 1/2
* positive energy:  std(T) * mean(H)     >= sqrt(4/27) * z1^(3/2)
* combined:         var(T) * mean(H^2)   >= 4/27 * z1^3 + 1/4

with z1 the first zero of the decaying Airy function.  Each check takes the
state's occurrence distribution (:func:`occurrence_distribution`), so one
distribution serves every check made on the same state, and holds its own
tolerance, which its ``scale`` argument multiplies.  All three are
continuum statements; on a finite model the moments carry truncation and
wrap error, so every report comes with a reliability flag derived from how
much probability sits near the edges of the grids.  An unreliable report
can still be true, but its moments should not be quoted at face value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import CovariantPOVM, StateVector
from .special import universal_constant

__all__ = [
    "Distribution",
    "BoundReport",
    "occurrence_distribution",
    "energy_distribution",
    "check_time_energy_bound",
    "check_positive_energy_bound",
    "check_combined_bound",
    "ccr_residual",
]

# probability mass beyond these levels in the outer bins makes second
# moments grid-dependent; 1e-12 keeps them at the noise floor
TAIL_LIMIT = 1e-12
TAIL_WINDOW = 0.1
# probability in the two outer time bins at each end that voids the
# commutator stencil
_CCR_EDGE_LIMIT = 1e-8


@dataclass(frozen=True)
class Distribution:
    """Probabilities over points (bin times or grid energies), with moment helpers."""

    points: np.ndarray
    probabilities: np.ndarray
    halfline: bool = False

    def mean(self) -> float:
        return float(self.points @ self.probabilities)

    def variance(self) -> float:
        mu = self.mean()
        return float(((self.points - mu) ** 2) @ self.probabilities)

    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))

    def tail_fraction(self) -> float:
        """Mass in the outer ``TAIL_WINDOW`` fraction of the points.

        Half the window sits at each end.  On a half line the whole window
        sits at the top end: the bottom is the physical edge of the
        spectrum, not a truncation artifact, and states are allowed to live
        right up against it.
        """
        p = self.probabilities
        if self.halfline:
            edge = max(1, int(math.ceil(TAIL_WINDOW * p.size)))
            return float(p[-edge:].sum())
        edge = max(1, int(math.ceil(0.5 * TAIL_WINDOW * p.size)))
        return float(p[:edge].sum() + p[-edge:].sum())


def occurrence_distribution(povm: CovariantPOVM, state: StateVector) -> Distribution:
    """Bin probabilities of ``state`` under ``povm`` as a checked distribution.

    The raw psi^dagger E_k psi are checked first: a NaN or infinite entry
    is rejected, with its bins named, and so is an entry below -1e-12,
    which means an effect is not positive on this state, while smaller
    negative entries (roundoff from the dense storage path) are clipped to
    zero.  Drift of the total mass away from one is then renormalized as
    long as it stays below 1e-10; anything above 1e-8 means the observable
    or the state is broken and is rejected outright.
    """
    p = povm.occurrence_probabilities(state)
    if not np.isfinite(p).all():
        raise ValueError(f"occurrence probabilities of bins {np.flatnonzero(~np.isfinite(p)).tolist()} are not finite")
    if float(np.min(p)) < -1e-12:
        raise ValueError(f"occurrence probability {np.min(p):.3e} is negative beyond roundoff")
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"occurrence probabilities sum to {total!r}; observable is not normalized here")
    if abs(total - 1.0) > 1e-10:
        p = p / total
    return Distribution(povm.lattice.centers, p)


def energy_distribution(state: StateVector) -> Distribution:
    """Probabilities of the grid energies for a state; a half-line grid counts only its top tail."""
    return Distribution(state.grid.energies, state.probabilities, halfline=state.grid.halfline)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound check: the two sides, the verdict, and caveats."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    reliable: bool
    context: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return self.lhs >= self.rhs - self.tolerance


def _report(name: str, lhs: float, rhs: float, tolerance: float, dist, energy, state, quantities: dict) -> BoundReport:
    """One bound's report: both tails, the reliability flag, and the bound's own quantities in the context."""
    if not math.isfinite(lhs):
        raise ValueError(f"{name} left-hand side is not finite; the moments overflow on this grid")
    t_tail, e_tail = dist.tail_fraction(), energy.tail_fraction()
    reliable = t_tail <= TAIL_LIMIT and e_tail <= TAIL_LIMIT and not state.undersampled
    ctx = {"time_tail": t_tail, "energy_tail": e_tail, "undersampled": state.undersampled, **quantities}
    return BoundReport(name, lhs, rhs, tolerance, reliable, ctx)


def _require_nonnegative_spectrum(state: StateVector, bound: str) -> None:
    if float(state.grid.energies[0]) < 0.0:
        raise ValueError(
            "grid has negative energies; shift the spectrum so its infimum is zero "
            f"before certifying the {bound} bound"
        )


def check_time_energy_bound(dist: Distribution, state: StateVector, scale: float = 1.0) -> BoundReport:
    """Certify std(T) * std(H) >= 1/2 for this state."""
    energy = energy_distribution(state)
    ctx = {"time_std": dist.std(), "energy_std": energy.std()}
    return _report("spread-spread", dist.std() * energy.std(), 0.5, 1e-3 * scale, dist, energy, state, ctx)


def check_positive_energy_bound(dist: Distribution, state: StateVector, scale: float = 1.0) -> BoundReport:
    """Certify std(T) * mean(H) >= the universal positive-spectrum constant.

    Only meaningful when the whole spectrum is nonnegative; for a model
    with negative grid energies the caller must first shift the grid so
    the spectrum starts at zero (the bound is covariant under that shift,
    the reported mean is not).
    """
    _require_nonnegative_spectrum(state, "positive-energy")
    energy = energy_distribution(state)
    lhs = dist.std() * energy.mean()
    ctx = {"time_std": dist.std(), "energy_mean": energy.mean()}
    return _report("spread-mean", lhs, universal_constant(), 2e-3 * scale, dist, energy, state, ctx)


def check_combined_bound(dist: Distribution, state: StateVector, scale: float = 1.0) -> BoundReport:
    """Certify var(T) * mean(H^2) against the combined positive-spectrum bound.

    The certified right-hand side is the sum of the squared universal
    constant and 1/4, which follows from the two single bounds; the sharp
    constant for this functional is 9/4 and is recorded in the context as
    ``sharp_rhs`` for callers that want the tight comparison.
    """
    _require_nonnegative_spectrum(state, "combined")
    energy = energy_distribution(state)
    second = energy.variance() + energy.mean() ** 2
    lhs = dist.variance() * second
    d = universal_constant()
    ctx = {"time_var": dist.variance(), "energy_second_moment": second, "sharp_rhs": 2.25, "sharp_margin": lhs - 2.25}
    return _report("combined", lhs, d * d + 0.25, 5e-3 * scale, dist, energy, state, ctx)


def ccr_residual(povm: CovariantPOVM, state: StateVector) -> float:
    """Discrete commutator defect of time and energy on one state.

    In time-bin amplitudes the energy acts as -i times the centered
    difference; the commutator with multiplication by the bin time should
    act as i on any state that stays away from the lattice edges.  Returns
    the norm of ([T, H] - i) applied to the state over the interior bins.
    The defect of the centered stencil is O(tau^2), so halving the bin
    width cuts the residual by about four.
    """
    if povm.generator is None or povm.generator.shape[0] != 1:
        raise ValueError("commutator check needs a rank-one factored observable")
    # the stencil needs the true phase of every bin amplitude, which
    # occurrence_probabilities drops: K_k psi is exp(-i*offset*k*tau) times
    # entry k of the DFT of K_0 * psi
    k = np.arange(povm.n_bins)
    a = povm._bin_amplitudes(state)[0] * np.exp(-1j * ((k * povm.lattice.tau) * povm.grid.offset))
    edge_mass = float(np.sum(np.abs(a[:2]) ** 2) + np.sum(np.abs(a[-2:]) ** 2))
    if edge_mass > _CCR_EDGE_LIMIT:
        raise ValueError(
            f"state has mass {edge_mass:.3e} at the lattice edges; "
            "the difference stencil is not meaningful there"
        )
    # H a = -i D a with D the centered difference; [T, H] a then reduces to
    # i (a_{k+1} + a_{k-1}) / 2 on interior bins
    comm = 0.5j * (a[2:] + a[:-2])
    return float(np.linalg.norm(comm - 1j * a[1:-1]))
