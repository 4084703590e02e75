"""Occurrence statistics, moment reliability, and the three certified bounds."""

import numpy as np
import pytest

from timepovm.model import (
    CovariantPOVM,
    EnergyGrid,
    StateVector,
    build_sharp_time_povm,
    centered_grid,
    fourier_map,
    gaussian_state,
    random_smooth_state,
    transported_minimal_state,
    vector_generated_povm,
)
from timepovm.special import universal_constant
from timepovm.uncertainty import (
    TAIL_LIMIT,
    ccr_residual,
    check_combined_bound,
    check_positive_energy_bound,
    check_time_energy_bound,
    energy_distribution,
    occurrence_distribution,
)


def test_occurrence_distribution_is_normalized(fullline_model):
    s = gaussian_state(fullline_model.grid, 0.0, 1.0)
    dist = occurrence_distribution(fullline_model, s)
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-12
    assert dist.probabilities.min() >= 0.0
    assert dist.points.shape == dist.probabilities.shape


def test_negative_occurrence_probability_is_rejected(sharp16):
    # complete but indefinite: mass moves from bin 5 to bin 6, so a state
    # that bin 5 does not see gets probability -1e-6 there and the total
    # stays one; clipping first would misreport it as not normalized
    dense = np.stack([sharp16.effect(k) for k in range(16)])
    dense[5] -= 1e-6 * np.eye(16)
    dense[6] += 1e-6 * np.eye(16)
    indefinite = CovariantPOVM(sharp16.grid, sharp16.lattice, dense=dense)
    state = StateVector(sharp16.grid, fourier_map(sharp16.grid)[0].conj())
    raw = indefinite.occurrence_probabilities(state)
    assert abs(raw[5] + 1e-6) <= 1e-12
    with pytest.raises(ValueError, match="negative beyond roundoff"):
        occurrence_distribution(indefinite, state)


def test_non_finite_occurrence_probabilities_are_refused_by_bin(sharp16):
    # a NaN passes both the negativity and the mass comparison, so it is
    # named before either
    dense = np.stack([sharp16.effect(k) for k in range(16)])
    dense[5, 1, 2] = np.nan
    dense[9, 0, 0] = np.inf
    broken = CovariantPOVM(sharp16.grid, sharp16.lattice, dense=dense)
    with pytest.raises(ValueError, match=r"occurrence probabilities of bins \[5, 9\] are not finite"):
        occurrence_distribution(broken, random_smooth_state(sharp16.grid, 3))


def test_total_mass_drift_is_renormalized_or_refused(sharp16):
    # a dense table scaled by 1 + eps moves every probability's total by eps:
    # between 1e-10 and 1e-8 it is rounding to renormalize, above 1e-8 a
    # broken observable
    dense = np.stack([sharp16.effect(k) for k in range(16)])
    state = random_smooth_state(sharp16.grid, 3)
    scaled = CovariantPOVM(sharp16.grid, sharp16.lattice, dense=dense * (1.0 + 3e-9))
    raw = scaled.occurrence_probabilities(state)
    assert 2e-9 <= raw.sum() - 1.0 <= 4e-9
    dist = occurrence_distribution(scaled, state)
    assert np.array_equal(dist.probabilities, raw / raw.sum())
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-15
    broken = CovariantPOVM(sharp16.grid, sharp16.lattice, dense=dense * (1.0 + 3e-8))
    with pytest.raises(ValueError, match="not normalized"):
        occurrence_distribution(broken, state)


def test_gaussian_time_spread_is_reciprocal(fullline_model):
    # minimum-uncertainty profile: time std must be 1/(2 * energy std)
    for width in (0.7, 1.0, 1.4):
        s = gaussian_state(fullline_model.grid, 0.0, width)
        dist = occurrence_distribution(fullline_model, s)
        assert abs(dist.std() - 0.5 / width) <= 2e-4 / width


def test_energy_moments_match_direct_sums(fullline_model):
    g = fullline_model.grid
    s = random_smooth_state(g, 9)
    energy = energy_distribution(s)
    mean, var = energy.mean(), energy.variance()
    p = s.probabilities
    assert abs(mean - float(p @ g.energies)) <= 1e-12
    assert abs(var - float(p @ (g.energies - mean) ** 2)) <= 1e-12


def test_energy_tail_counts_only_top_on_halfline(halfline_model):
    g = halfline_model.grid
    # a state pressed against the zero-energy wall has no *top* tail
    s = gaussian_state(g, 0.4, 0.12)
    assert energy_distribution(s).tail_fraction() <= 1e-12
    top = gaussian_state(g, float(g.energies[-1]) - 0.4, 0.12)
    assert energy_distribution(top).tail_fraction() > 1e-6


def test_time_energy_bound_saturated_by_gaussian(fullline_model):
    s = gaussian_state(fullline_model.grid, 0.0, 1.0)
    rep = check_time_energy_bound(occurrence_distribution(fullline_model, s), s)
    assert rep.passed
    assert rep.reliable
    assert rep.rhs == 0.5
    assert abs(rep.lhs - 0.5) <= 1e-4
    assert abs(rep.margin - (rep.lhs - rep.rhs)) <= 1e-15


def test_time_energy_bound_holds_off_center(fullline_model):
    s = gaussian_state(fullline_model.grid, 1.7, 0.9)
    rep = check_time_energy_bound(occurrence_distribution(fullline_model, s), s)
    assert rep.passed and rep.reliable


def test_each_check_scales_its_own_tolerance(halfline_model):
    s = transported_minimal_state(halfline_model.grid)
    dist = occurrence_distribution(halfline_model, s)
    for check, tol in ((check_time_energy_bound, 1e-3), (check_positive_energy_bound, 2e-3), (check_combined_bound, 5e-3)):
        assert check(dist, s).tolerance == tol
        assert check(dist, s, scale=0.5).tolerance == tol * 0.5


def test_positive_energy_bound_rejects_negative_spectrum(fullline_model):
    s = gaussian_state(fullline_model.grid, 0.0, 1.0)
    with pytest.raises(ValueError) as err:
        check_positive_energy_bound(occurrence_distribution(fullline_model, s), s)
    assert "shift the spectrum" in str(err.value)
    with pytest.raises(ValueError):
        check_combined_bound(occurrence_distribution(fullline_model, s), s)


def test_positive_energy_bound_on_minimal_profile(halfline_model):
    s = transported_minimal_state(halfline_model.grid)
    rep = check_positive_energy_bound(occurrence_distribution(halfline_model, s), s)
    assert rep.passed
    assert abs(rep.lhs - universal_constant()) <= 2e-3
    # the boundary kink gives slow time tails: honesty requires the flag
    assert not rep.reliable
    assert rep.context["time_tail"] > 1e-12


def test_positive_energy_bound_on_random_states(halfline_model):
    for seed in range(8):
        s = random_smooth_state(halfline_model.grid, seed)
        rep = check_positive_energy_bound(occurrence_distribution(halfline_model, s), s)
        assert rep.passed and rep.reliable, seed


def test_combined_bound_and_context(halfline_model):
    s = random_smooth_state(halfline_model.grid, 3)
    rep = check_combined_bound(occurrence_distribution(halfline_model, s), s)
    assert rep.passed
    d = universal_constant()
    assert abs(rep.rhs - (d * d + 0.25)) <= 1e-15
    assert rep.context["sharp_rhs"] == 2.25
    assert rep.rhs < rep.context["sharp_rhs"]
    assert abs(rep.context["sharp_margin"] - (rep.lhs - 2.25)) <= 1e-12


def test_wide_state_is_flagged_unreliable():
    g = centered_grid(64)
    p = build_sharp_time_povm(g)
    wide = gaussian_state(g, 0.0, 3.5)
    rep = check_time_energy_bound(occurrence_distribution(p, wide), wide)
    assert not rep.reliable
    assert rep.context["energy_tail"] > 1e-12


def test_undersampled_state_with_clean_tails_is_flagged_unreliable(fullline_model):
    # a width of 1.9 grid spacings leaves both tails far inside the limit, so
    # the undersampled flag alone makes the moments unreliable
    g = fullline_model.grid
    narrow = gaussian_state(g, 0.0, 1.9 * float(g.de))
    rep = check_time_energy_bound(occurrence_distribution(fullline_model, narrow), narrow)
    assert narrow.undersampled
    assert rep.context["time_tail"] <= TAIL_LIMIT and rep.context["energy_tail"] <= TAIL_LIMIT
    assert not rep.reliable


def test_ccr_residual_quadratic_in_bin_width():
    de = float(np.sqrt(2.0 * np.pi / 256))
    res = []
    for n in (256, 512):
        g = centered_grid(n, de)
        p = build_sharp_time_povm(g)
        s = gaussian_state(g, 0.0, 1.0)
        res.append(ccr_residual(p, s))
    ratio = res[0] / res[1]
    assert 3.5 <= ratio <= 4.5


def transported_ccr_residual(povm, state):
    # the commutator defect from the transported kernels K_k psi, whose
    # phases need no identity to hold
    a = povm.transport(povm.generator)[:, 0, :] @ state.amplitudes
    comm = 0.5j * (a[2:] + a[:-2])
    return float(np.linalg.norm(comm - 1j * a[1:-1]))


@pytest.mark.parametrize("n", [64, 250, 256])
def test_ccr_residual_matches_the_transported_kernels_off_centre(n):
    # energy 0 sits 0.37 above a grid point, so the phase per bin
    # exp(-i*offset*k*tau) turns by almost pi from bin to bin; dropping it
    # makes the residual about 2 instead of O(tau^2)
    de = float(np.sqrt(2.0 * np.pi / n))
    g = EnergyGrid(n, de, offset=-(n // 2) * de + 0.37)
    s = gaussian_state(g, 0.0, 1.0)
    smooth_phase = np.exp(0.5j * np.sin(2.0 * np.pi * np.arange(n) / n)) / np.sqrt(n)
    for povm in (build_sharp_time_povm(g), vector_generated_povm(g, smooth_phase)):
        got, want = ccr_residual(povm, s), transported_ccr_residual(povm, s)
        assert want <= 0.1
        assert abs(got - want) <= 1e-13


def test_ccr_residual_rejects_edge_mass_and_dense_storage(fullline_model):
    g = fullline_model.grid
    # concentrate time amplitudes near the lattice edge by a fast phase ramp
    e = g.energies
    tau = fullline_model.lattice.tau
    shift = int(0.49 * g.n) * tau
    raw = np.exp(-((e) ** 2) / 4.0) * np.exp(-1j * e * shift)
    raw /= np.linalg.norm(raw)
    from timepovm.model import StateVector

    edge_state = StateVector(g, raw)
    with pytest.raises(ValueError):
        ccr_residual(fullline_model, edge_state)

    small = build_sharp_time_povm(centered_grid(16))
    dense = np.stack([small.effect(k) for k in range(16)])
    from timepovm.model import CovariantPOVM

    dense_povm = CovariantPOVM(small.grid, small.lattice, dense=dense)
    s = gaussian_state(small.grid, 0.0, 1.0)
    with pytest.raises(ValueError):
        ccr_residual(dense_povm, s)


def test_occurrence_distribution_tail_fraction_window(fullline_model):
    s = gaussian_state(fullline_model.grid, 0.0, 1.0)
    dist = occurrence_distribution(fullline_model, s)
    assert dist.tail_fraction() <= 1e-12
