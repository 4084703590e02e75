"""Dirichlet grid states, the two functionals, spectra, and the minimizers."""

import math
import multiprocessing
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from timepovm import variational
from timepovm.cli import _forked
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


@pytest.mark.parametrize(
    "h, L, slope, message",
    [
        (0.0, 1.0, 1.0, "positive h"),
        (np.nan, 1.0, 1.0, "positive h"),
        (0.1, -1.0, 1.0, "positive L"),
        (0.1, 1.0, np.inf, "finite slope"),
        (0.4, 1.0, 1.0, "grid of 1 interior nodes is too coarse"),
    ],
)
def test_dirichlet_operator_refuses_bad_or_too_coarse_input(h, L, slope, message):
    with pytest.raises(ValueError, match=message):
        dirichlet_operator(h, L, slope)


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


@pytest.mark.parametrize("h, L", [(1e-3, 20.0), (5e-3, 17.0), (0.1, 20.0)])
def test_spectral_ground_states_are_positive_without_a_sign_flip(h, L):
    # the eigenvector's largest entry is made positive, and these ground
    # states have one sign, so their sum is positive too
    for st in (minimal_state(h, L), minimize_combined(h, L, method="spectral").minimizer):
        v = st.values
        assert v[np.argmax(np.abs(v))] > 0.0
        assert float(v.sum()) > 0.0


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


@pytest.mark.parametrize(
    "values, h, message",
    [
        (np.ones(1), 1.0, "at least two nodes"),
        (np.ones((2, 2)), 0.5, "one-dimensional"),
        (np.ones(4), 0.0, "spacing must be positive"),
        (np.array([np.nan, 1.0, 2.0]), 0.1, r"not unit norm: \|norm - 1\| = nan"),
    ],
)
def test_grid_state_refuses_bad_shape_or_spacing(values, h, message):
    with pytest.raises(ValueError, match=message):
        GridState(values, h)


@pytest.mark.parametrize("phase", [0.7, np.pi / 2, 2.5])
def test_a_global_phase_changes_neither_functional(phase):
    # a complex state enters through moduli: the kinetic term sums |d|^2
    # over the differences, not the real part of d^2
    h = 0.01
    st = unit_state(np.sin(np.pi * h * np.arange(1, 99)), h)
    turned = GridState(np.exp(1j * phase) * st.values, h)
    for functional in (product_functional, combined_functional):
        assert np.allclose(functional(turned), functional(st), rtol=1e-12, atol=0.0), functional.__name__


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


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("minimize", [minimize_product, minimize_combined], ids=["p1", "p2"])
def test_a_descent_in_a_forked_worker_matches_the_in_process_call(minimize, seed):
    # airy-certify runs each descent in a forked worker and reads the result
    # back pickled: the same value, state bytes, iterations and flag
    h, L = 2e-3, 17.0
    with _forked([(minimize, (h, L, "descent", seed))]) as (result,):
        remote = result()
    local = minimize(h, L, "descent", seed)
    assert remote.value == local.value
    assert remote.minimizer.h == local.minimizer.h
    assert remote.minimizer.values.tobytes() == local.minimizer.values.tobytes()
    assert (remote.iterations, remote.converged) == (local.iterations, local.converged)
    assert local.converged
    assert multiprocessing.active_children() == []


def test_domain_error_survives_a_pickle_round_trip():
    err = DomainTooSmallError("domain too short", 16.04)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is DomainTooSmallError
    assert str(back) == str(err) == "domain too short"
    assert back.required_length == 16.04


def raise_domain_error(required):
    raise DomainTooSmallError(f"domain too short; need L >= {required}", required)


def test_a_domain_error_in_a_forked_worker_is_raised_again_here():
    # error=domain prints the message and reads required_length, so both
    # must come back from the worker
    with pytest.raises(DomainTooSmallError) as err:
        with _forked([(raise_domain_error, (16.04,))]) as (result,):
            result()
    assert str(err.value) == "domain too short; need L >= 16.04"
    assert err.value.required_length == 16.04
    assert multiprocessing.active_children() == []


def test_identity_chain_trivial_and_random():
    rep = verify_min_identity_chain([1.0, 4.0], [1.0, 2.0])
    assert rep.passed
    assert rep.pairs == 2
    rng = np.random.default_rng(0)
    a = 10.0 ** rng.uniform(-1, 1, 50)
    b = 10.0 ** rng.uniform(-1, 1, 50)
    rep = verify_min_identity_chain(a, b)
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
    [(0, 10000), (1, 10000), (2, 10000), (3, 10000)],
)
def test_identity_window_matches_full_scan(seed, scan_points):
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-2.0, 2.0, 10**4)
    b = 10.0 ** rng.uniform(-2.0, 2.0, 10**4)
    assert verify_min_identity_chain(a, b) == full_scan_identity_chain(a, b, scan_points)


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
    # one descent's tracemalloc peak, counted in (m x 8) float arrays: the
    # accepted states, the gradient the in-place solve turns into the
    # trial, and one scratch, besides the factorization and the weights
    h, L = 2e-3, 20.0
    m = dirichlet_operator(h, L, 0.0).n
    minimize_product(h, L, method="descent", max_iter=1)  # numpy.random loads on first use
    for minimize in (minimize_product, minimize_combined):
        tracemalloc.start()
        try:
            minimize(h, L, method="descent")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (m * 8 * np.dtype(float).itemsize) <= 4.75


def column_descent(h, L, p, seed, max_iter):
    """The descent as it was with one restart per column of (m x 8)
    buffers, solved through the allocating cyclic reduction: the oracle for
    the row layout.  Also returns how many iterations accepted the trial of
    every column, and how many of only some."""
    from test_linalg import AllocatingFactor

    def second_difference(phi, out):
        np.multiply(phi, 2.0, out=out)
        out[0] -= phi[1]
        out[-1] -= phi[-2]
        out[1:-1] -= phi[:-2]
        out[1:-1] -= phi[2:]
        out /= h * h
        return out

    def column_norms(phi, scratch):
        return np.sqrt(np.add.reduce(np.multiply(phi, phi, out=scratch), axis=0, keepdims=True))

    def moment_batch(phi, scratch):
        action = second_difference(phi, scratch)
        kin = h * np.sum(np.multiply(action, phi, out=action), axis=0)
        np.square(phi, out=scratch)
        scratch *= w[:, None]
        return kin, h * np.sum(scratch, axis=0)

    base = dirichlet_operator(h, L, 0.0)
    m = base.n
    rng = np.random.default_rng(seed)
    w = (h * np.arange(1, m + 1)) ** p
    prec = AllocatingFactor(SymTridiag(base.diag + w + 1.0, base.offdiag))
    q = 2 // p
    phi = rng.standard_normal((m, 8))
    g = np.empty_like(phi)
    scratch = np.empty_like(phi)
    phi[...] = prec.solve(phi)
    phi /= math.sqrt(h) * column_norms(phi, scratch)
    kin, mom = moment_batch(phi, scratch)
    best = kin * mom**q
    step = np.full(8, 1.0)
    active = np.ones(8, dtype=bool)
    every = some = 0
    for iters in range(1, max_iter + 1):
        second_difference(phi, g)
        g *= 2.0
        g *= (mom**q)[None, :]
        np.multiply(w[:, None], phi, out=scratch)
        scratch *= ((2.0 * q * kin) * mom ** (q - 1))[None, :]
        g += scratch
        radial = h * np.sum(np.multiply(phi, g, out=scratch), axis=0, keepdims=True)
        g -= np.multiply(phi, radial, out=scratch)
        g[...] = prec.solve(g)
        g *= step[None, :]
        np.subtract(phi, g, out=g)
        g /= math.sqrt(h) * column_norms(g, scratch)
        kin_t, mom_t = moment_batch(g, scratch)
        val = kin_t * mom_t**q
        improved = val < best
        every += bool(improved.all())
        some += bool(improved.any() and not improved.all())
        rel = np.where(improved, (best - val) / np.maximum(np.abs(best), 1e-300), 0.0)
        np.copyto(phi, g, where=improved[None, :])
        kin = np.where(improved, kin_t, kin)
        mom = np.where(improved, mom_t, mom)
        best = np.where(improved, val, best)
        step = np.where(improved, np.minimum(step * 1.25, 1e6), step * 0.5)
        active[improved & (rel <= 1e-12)] = False
        active[step < 1e-18] = False
        if not active.any():
            break
    j = int(np.argmin(best))
    state = variational._virial_rescale(variational._as_state(phi[:, j], h), p)
    return float(best[j]), state, iters, iters < max_iter, every, some


@pytest.mark.parametrize(
    "p, seed, max_iter",
    [(1, 0, 100000), (1, 5, 100000), (2, 0, 100000), (2, 5, 100000), (1, 4, 6), (2, 4, 6)],
)
def test_row_layout_descent_matches_the_column_layout(p, seed, max_iter):
    # same value, state bytes, iteration count and convergence flag; the
    # runs take both ways of accepting a trial, all rows at once (the
    # buffers swap) and only some (those rows are copied)
    h, L = 5e-3, 14.0
    value, state, iters, converged, every, some = column_descent(h, L, p, seed, max_iter)
    minimize = minimize_product if p == 1 else minimize_combined
    got = minimize(h, L, method="descent", seed=seed, max_iter=max_iter)
    assert got.value == value
    assert got.minimizer.h == state.h and got.minimizer.values.tobytes() == state.values.tobytes()
    assert (got.iterations, got.converged) == (iters, converged)
    assert every > 0 and some > 0
    assert converged == (max_iter == 100000)


def test_identity_scan_shape_factors_exactly():
    # the scan's shape F(g) = (1 + 2g)^3 / (27 g^2) exceeds its minimum 1
    # by (g - 1)^2 (8g + 1) / (27 g^2), so F >= 1 on g > 0 with equality at
    # g = 1 alone; checked in exact rational arithmetic, at simple
    # fractions and at every 100th scan point (each float is a rational)
    simple = [Fraction(p, q) for p in (1, 2, 3, 7, 999, 1000) for q in (1, 2, 3, 8, 1000)]
    scan = [Fraction(g) for g in np.logspace(-3.0, 3.0, 10000)[::100].tolist()]
    for g in simple + scan:
        shape = (1 + 2 * g) ** 3 / (27 * g**2)
        excess = (g - 1) ** 2 * (8 * g + 1) / (27 * g**2)
        assert shape - 1 == excess, g
        assert (shape == 1) == (g == 1)
        assert shape >= 1


def test_identity_chain_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_min_identity_chain([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        verify_min_identity_chain([1.0, -2.0], [1.0, 1.0])
