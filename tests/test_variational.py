"""Dirichlet grid states, the two functionals, spectra, and the minimizers."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from timepovm.linalg import SymTridiag, tridiag_lowest_eigs
from timepovm.special import airy_ai, airy_zero, min_product_identity
from timepovm.variational import (
    DomainTooSmallError,
    GridState,
    IdentityChainReport,
    airy_operator_spectrum,
    combined_functional,
    dirichlet_operator,
    minimal_state,
    minimize_combined,
    minimize_product,
    product_functional,
    required_length,
    scaling_transform,
    verify_min_identity_chain,
)


def unit_state(values, h):
    v = np.asarray(values, dtype=float)
    v = v / (np.sqrt(h) * np.linalg.norm(v))
    return GridState(v, h)


def test_dirichlet_operator_entries():
    op = dirichlet_operator(0.5, 3.0, slope=2.0)
    # interior nodes at 0.5, 1.0, ..., 2.5
    assert op.n == 5
    assert np.allclose(op.diag, 2.0 / 0.25 + 2.0 * 0.5 * np.arange(1, 6))
    assert np.allclose(op.offdiag, -np.full(4, 1.0 / 0.25))


def test_required_length_grows_with_level():
    assert required_length(1) < required_length(5)


def test_spectrum_matches_airy_zeros():
    eigs = airy_operator_spectrum(1e-3, 20.0, 3)
    for k, ev in enumerate(eigs, start=1):
        assert abs(ev - airy_zero(k)) <= 1e-6, k


def test_spectrum_slope_scaling():
    lam = 8.0
    e_scaled = tridiag_lowest_eigs(dirichlet_operator(1e-3, 10.0, lam), 1)[0]
    assert abs(e_scaled - lam ** (2.0 / 3.0) * airy_zero(1)) <= 2e-5


def test_ground_level_is_served_from_the_three_level_spectrum():
    three = airy_operator_spectrum(2e-3, 17.0, 3)
    assert airy_operator_spectrum(2e-3, 17.0, 1) == three[:1]
    assert airy_operator_spectrum(2e-3, 17.0, 2) == three[:2]


def test_ground_level_on_a_domain_too_short_for_three_levels():
    L = 12.0
    assert required_length(1) <= L < required_length(3)
    (lam,) = airy_operator_spectrum(2e-3, L, 1)
    assert abs(lam - airy_zero(1)) <= 2e-6
    with pytest.raises(DomainTooSmallError):
        airy_operator_spectrum(2e-3, L, 3)


def test_overflowing_grid_is_value_error():
    # L/h overflows to inf; int(round(inf)) would raise OverflowError
    with pytest.raises(ValueError, match="overflows"):
        dirichlet_operator(1e-300, 1e300)
    with pytest.raises(ValueError, match="overflows"):
        airy_operator_spectrum(1e-300, 1e300)
    with pytest.raises(ValueError, match="overflows"):
        minimize_product(1e-300, 1e300, method="descent")


def test_spectrum_rejects_short_domain():
    with pytest.raises(DomainTooSmallError) as err:
        airy_operator_spectrum(1e-3, 3.0, 3)
    assert err.value.required_length > 3.0


@pytest.mark.parametrize("k", [0, 21])
def test_spectrum_refuses_levels_past_the_airy_zero_table(k):
    with pytest.raises(ValueError, match=r"1\.\.20"):
        airy_operator_spectrum(1e-3, 50.0, k)


def test_operator_conjugation_is_exact_grid_identity():
    # rescaling the grid turns slope lam into lam^(2/3) times slope one
    lam, h, L = 5.0, 2e-3, 8.0
    mu = lam ** (1.0 / 3.0)
    a = dirichlet_operator(h, L, slope=lam)
    b = dirichlet_operator(h * mu, L * mu, slope=1.0)
    assert np.max(np.abs(a.diag - lam ** (2.0 / 3.0) * b.diag)) <= 1e-9
    assert np.max(np.abs(a.offdiag - lam ** (2.0 / 3.0) * b.offdiag)) <= 1e-9


def test_minimal_state_profile(reference_minimal_state):
    st = reference_minimal_state
    assert st.values.min() >= 0.0
    assert st.values[0] <= 5e-3  # O(h) at the wall
    sampled = airy_ai(st.nodes - airy_zero(1))
    sampled /= np.sqrt(st.h) * np.linalg.norm(sampled)
    overlap = st.h * float(st.values @ sampled)
    assert overlap >= 1.0 - 1e-8
    assert np.max(np.abs(st.values - sampled)) <= 1e-5


def test_sine_mode_functional_values():
    h = 1e-4
    m = int(round(1.0 / h)) - 1
    x = h * np.arange(1, m + 1)
    st = unit_state(np.sin(np.pi * x), h)
    kin, pos, prod = product_functional(st)
    assert abs(kin - np.pi**2) <= 1e-3
    assert abs(pos - 0.5) <= 1e-12
    assert abs(prod - kin * pos**2) <= 1e-12


def test_grid_state_requires_unit_norm():
    with pytest.raises(ValueError):
        GridState(np.ones(9), 0.1)


def test_scaling_transform_inverts_and_preserves_product(reference_minimal_state):
    st = reference_minimal_state
    kin0, pos0, prod0 = product_functional(st)
    for mu in (0.5, 1.3, 2.0):
        scaled = scaling_transform(st, mu)
        kin, pos, prod = product_functional(scaled)
        assert abs(kin - mu**2 * kin0) <= 1e-9 * kin0
        assert abs(pos - pos0 / mu) <= 1e-9 * pos0
        assert abs(prod - prod0) <= 1e-9 * prod0
        back = scaling_transform(scaled, 1.0 / mu)
        assert np.max(np.abs(back.values - st.values)) <= 1e-12
        assert abs(back.h - st.h) <= 1e-15


def test_scaling_transform_identity_and_validation(reference_minimal_state):
    same = scaling_transform(reference_minimal_state, 1.0)
    assert np.array_equal(same.values, reference_minimal_state.values)
    with pytest.raises(ValueError):
        scaling_transform(reference_minimal_state, 0.0)


def test_combined_functional_on_oscillator_ground_state():
    # x*exp(-x^2/2) has kinetic = second moment = 3/2 and product 9/4
    h, L = 5e-4, 12.0
    m = int(round(L / h)) - 1
    x = h * np.arange(1, m + 1)
    st = unit_state(x * np.exp(-0.5 * x**2), h)
    kin, sec, prod = combined_functional(st)
    assert abs(kin - 1.5) <= 1e-5
    assert abs(sec - 1.5) <= 1e-8
    assert abs(prod - 2.25) <= 2e-5


def test_minimize_product_routes_agree():
    spectral = minimize_product(2e-3, 17.0, method="spectral")
    descent = minimize_product(2e-3, 17.0, method="descent")
    assert descent.converged
    assert abs(descent.value - spectral.value) <= 1e-6 * spectral.value
    kin, pos, _ = product_functional(descent.minimizer)
    assert abs(2.0 * kin - pos) <= 1e-10


def test_minimize_product_spectral_value(reference_minimal_state):
    res = minimize_product(1e-3, 20.0, method="spectral")
    lam = airy_operator_spectrum(1e-3, 20.0, 1)[0]
    assert abs(res.value - 4.0 / 27.0 * lam**3) <= 1e-12
    kin, pos, prod = product_functional(res.minimizer)
    assert abs(prod - res.value) <= 1e-9
    assert abs(2.0 * kin - pos) <= 1e-12


def test_minimize_combined_routes_agree_and_shape():
    spectral = minimize_combined(2e-3, 14.0, method="spectral")
    descent = minimize_combined(2e-3, 14.0, method="descent")
    assert descent.converged
    assert abs(descent.value - spectral.value) <= 1e-6 * spectral.value
    assert abs(spectral.value - 2.25) <= 1e-2
    st = descent.minimizer
    ref = st.nodes * np.exp(-0.5 * st.nodes**2)
    ref /= np.sqrt(st.h) * np.linalg.norm(ref)
    assert abs(st.h * float(st.values @ ref)) >= 0.999


def test_minimize_combined_minimizers_satisfy_the_virial_identity():
    # at p = 2 the shared rescale makes kinetic equal the second moment
    for method in ("spectral", "descent"):
        res = minimize_combined(2e-3, 14.0, method=method)
        kin, sec, prod = combined_functional(res.minimizer)
        assert abs(kin - sec) <= 1e-10 * sec
        assert abs(prod - res.value) <= 1e-6 * res.value


def test_minimize_needs_a_method():
    with pytest.raises(TypeError):
        minimize_product(1e-2, 10.0)
    with pytest.raises(TypeError):
        minimize_combined(1e-2, 10.0)


def test_minimize_rejects_unknown_method():
    with pytest.raises(ValueError):
        minimize_product(1e-2, 10.0, method="annealing")
    with pytest.raises(ValueError):
        minimize_combined(1e-2, 10.0, method="annealing")


def test_descent_is_deterministic():
    a = minimize_product(5e-3, 14.0, method="descent", seed=4)
    b = minimize_product(5e-3, 14.0, method="descent", seed=4)
    assert a.value == b.value
    assert np.array_equal(a.minimizer.values, b.minimizer.values)


def test_identity_chain_trivial_and_random():
    rep = verify_min_identity_chain([1.0, 4.0], [1.0, 2.0])
    assert rep.passed
    assert rep.pairs == 2
    rng = np.random.default_rng(0)
    a = 10.0 ** rng.uniform(-1, 1, 50)
    b = 10.0 ** rng.uniform(-1, 1, 50)
    rep = verify_min_identity_chain(a, b, scan_points=4001)
    assert rep.passed
    assert rep.worst_floor_violation <= 1e-12
    assert rep.worst_argmin_offset <= rep.grid_resolution * (1.0 + 1e-9)


def full_scan_identity_chain(a_grid, b_grid, scan_points):
    # every pair scanned over the whole grid, one pair at a time
    log_step = 6.0 / (scan_points - 1)
    grid = np.logspace(-3.0, 3.0, scan_points)
    worst_floor = 0.0
    worst_arg = 0.0
    for a, b in zip(a_grid, b_grid):
        inf_val, arg = min_product_identity(a, b)
        lam = arg * grid
        t = a + lam * b
        f = (4.0 / 27.0) * (t * t * t) / lam**2
        worst_floor = max(worst_floor, float(inf_val - f.min()))
        worst_arg = max(worst_arg, abs(math.log10(float(lam[np.argmin(f)]) / arg)))
    ok = worst_floor <= 1e-12 and worst_arg <= log_step * (1.0 + 1e-9)
    return IdentityChainReport(len(a_grid), worst_floor, worst_arg, log_step, ok)


@pytest.mark.parametrize(
    "seed, scan_points",
    [(0, 10000), (1, 10000), (2, 10000), (3, 10000), (4, 3), (4, 4001), (4, 20001)],
)
def test_identity_window_matches_full_scan(seed, scan_points):
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-2.0, 2.0, 10**4)
    b = 10.0 ** rng.uniform(-2.0, 2.0, 10**4)
    assert verify_min_identity_chain(a, b, scan_points) == full_scan_identity_chain(a, b, scan_points)


def test_identity_scan_over_many_pairs_matches_full_scan():
    # at 10 000 scan points the window holds two, so 33 000 pairs is a
    # (33 000 x 2) pass, past 2**16 evaluated points
    rng = np.random.default_rng(5)
    a = 10.0 ** rng.uniform(-2.0, 2.0, 33000)
    b = 10.0 ** rng.uniform(-2.0, 2.0, 33000)
    assert verify_min_identity_chain(a, b) == full_scan_identity_chain(a, b, 10000)


@pytest.mark.parametrize(
    "a, b",
    [
        (1e103, 1.0),  # (a + L b)^3 overflows at the top of the scan
        (1e-200, 1e-60),  # a b^2 is subnormal
        (1e150, 1e-5),  # L^2 overflows at the top of the scan
        (1.0, 1e200),  # b^2 overflows, refused by min_product_identity itself
        (1000.0, 4.2399211488e152),  # a b^2 is normal, the scan floor is not
    ],
)
def test_identity_chain_refuses_pairs_outside_the_float_range(a, b):
    # a full scan over these gives passed=False with a floor violation that
    # hides the inf and nan behind it; the pair is named instead
    with pytest.raises(ValueError, match=re.escape(f"a={a!r}, b={b!r}")):
        verify_min_identity_chain([1.0, a], [1.0, b])


def test_descent_holds_few_batch_arrays():
    # one product descent's tracemalloc peak, counted in (m x 8) float
    # arrays; the moment batch, gradient and step reuse their buffers
    h, L = 2e-3, 20.0
    m = dirichlet_operator(h, L, 0.0).n
    minimize_product(h, L, method="descent", max_iter=1)  # numpy.random loads on first use
    tracemalloc.start()
    try:
        minimize_product(h, L, method="descent")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (m * 8 * np.dtype(float).itemsize) <= 9.0


def test_identity_chain_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_min_identity_chain([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        verify_min_identity_chain([1.0, -2.0], [1.0, 1.0])
    for points in (1, 0):
        with pytest.raises(ValueError, match="scan_points"):
            verify_min_identity_chain([1.0, 2.0], [1.0, 3.0], scan_points=points)
