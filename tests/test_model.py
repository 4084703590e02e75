"""Grids, lattices, observables, state factories, and the axiom validator."""

import math
import tracemalloc

import numpy as np
import pytest

from timepovm import model
from timepovm.model import (
    CovariantPOVM,
    EnergyGrid,
    StateVector,
    TimeLattice,
    build_halfline_povm,
    build_sharp_time_povm,
    centered_grid,
    default_fullline_model,
    default_halfline_model,
    fourier_map,
    gaussian_state,
    random_smooth_state,
    transported_minimal_state,
    validate_povm,
    vector_generated_povm,
)


def test_energy_grid_basics():
    g = EnergyGrid(8, 0.5, offset=-2.0)
    assert np.allclose(g.energies, -2.0 + 0.5 * np.arange(8))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1, "de": 0.5},
        {"n": 8, "de": 0.0},
        {"n": 8, "de": -1.0},
        {"n": 8, "de": np.inf},
        {"n": 8, "de": 0.5, "offset": np.nan},
        {"n": 8, "de": 0.5, "offset": -0.1, "halfline": True},
    ],
)
def test_energy_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        EnergyGrid(**kwargs)


def test_time_lattice_from_grid():
    g = EnergyGrid(16, 0.25)
    lat = TimeLattice.from_grid(g)
    assert lat.n == 16
    assert abs(lat.tau - 2.0 * np.pi / (16 * 0.25)) <= 1e-15
    assert lat.centers[16 // 2] == 0.0


def test_fourier_map_is_unitary():
    g = EnergyGrid(24, 0.4, offset=-4.8)
    m = fourier_map(g)
    assert np.max(np.abs(m @ m.conj().T - np.eye(24))) <= 1e-13


def test_sharp_effects_are_rank_one_projections_summing_to_identity(sharp16):
    total = sum(map(sharp16.effect, range(16)))
    assert np.max(np.abs(total - np.eye(16))) <= 1e-13
    e0 = sharp16.effect(0)
    assert np.max(np.abs(e0 @ e0 - e0)) <= 1e-13
    assert abs(np.trace(e0) - 1.0) <= 1e-13


def test_sharp_povm_rejects_halfline_grid():
    with pytest.raises(ValueError):
        build_sharp_time_povm(EnergyGrid(8, 0.5, offset=0.0, halfline=True))


def test_validate_povm_passes_for_sharp(sharp16):
    v = validate_povm(sharp16)
    assert v.passed
    assert v.failed_axioms == ()
    assert v.completeness_residual <= 1e-13
    assert v.covariance_residual <= 1e-13
    assert v.min_effect_eigenvalue >= -1e-13
    assert v.additivity_residual <= 1e-12


def test_covariance_exact_even_for_non_integer_offset():
    # offsets that are not multiples of the spacing wrap with a global
    # phase, which cancels in the effects; covariance must stay machine-level
    g = EnergyGrid(12, 0.37, offset=0.123)
    p = build_sharp_time_povm(EnergyGrid(12, 0.37, offset=0.123 - 6 * 0.37))
    v = validate_povm(p)
    assert v.covariance_residual <= 1e-13
    assert v.passed
    assert g.n == 12


def test_halfline_povm_structure(halfline64):
    assert halfline64.n_bins == 64
    assert halfline64.dim == 32
    assert halfline64.grid.halfline
    assert halfline64.grid.offset == 0.0
    total = sum(map(halfline64.effect, range(64)))
    assert np.max(np.abs(total - np.eye(32))) <= 1e-13
    v = validate_povm(halfline64)
    assert v.passed


def test_halfline_povm_rejects_degenerate_cutoff():
    g = EnergyGrid(8, 0.5, offset=-2.0)
    with pytest.raises(ValueError):
        build_halfline_povm(g, 7)


_GRID4 = EnergyGrid(4, 0.5, offset=-1.0)
_LATTICE4 = TimeLattice(4, np.pi)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TimeLattice(1, 1.0), "at least two bins"),
        (lambda: TimeLattice(4, 0.0), "got tau=0.0"),
        (lambda: TimeLattice(4, np.inf), "got tau=inf"),
        (lambda: StateVector(_GRID4, np.full(3, 3**-0.5)), r"expected 4 amplitudes, got shape \(3,\)"),
        (lambda: CovariantPOVM(_GRID4, _LATTICE4, generator=np.full(4, 0.5)), r"generator must be \(r, dim\)"),
        (lambda: CovariantPOVM(_GRID4, _LATTICE4, generator=np.ones((1, 3))), r"dim=4, got \(1, 3\)"),
        (lambda: CovariantPOVM(_GRID4, _LATTICE4, dense=np.zeros((4, 3, 3))), r"= \(4, 4, 4\), got \(4, 3, 3\)"),
        (
            lambda: CovariantPOVM(_GRID4, TimeLattice(4, np.pi * (1 + 1e-9)), generator=np.full((1, 4), 0.5)),
            r"n\*tau\*de = 2\*pi",
        ),
        (lambda: build_halfline_povm(EnergyGrid(8, 0.5, halfline=True), 4), "already compressed"),
        (lambda: build_halfline_povm(EnergyGrid(8, 0.5, offset=-2.0), -1), r"cutoff index -1 outside 0\.\.7"),
        (lambda: build_halfline_povm(EnergyGrid(8, 0.5, offset=-2.0), 8), r"cutoff index 8 outside 0\.\.7"),
        (lambda: vector_generated_povm(_GRID4, np.full(3, 0.5)), r"generator must have shape \(4,\), got \(3,\)"),
        (lambda: StateVector(_GRID4, [np.nan, 0.0, 0.0, 0.0]), r"not normalized: \|norm - 1\| = nan"),
        (lambda: vector_generated_povm(_GRID4, [0.5, np.nan, 0.5, 0.5]), "component 1 has modulus nan"),
        (lambda: vector_generated_povm(_GRID4, [0.5, 0.5 * (1 + 1e-9), 0.5, 0.5]), "component 1 has modulus"),
        (lambda: gaussian_state(_GRID4, 1e3, 1.0), "state profile vanished or overflowed on this grid"),
    ],
    ids=[
        "one-bin",
        "zero-tau",
        "infinite-tau",
        "state-shape",
        "flat-generator",
        "narrow-generator",
        "dense-shape",
        "lattice-off-by-1e-9",
        "halfline-grid",
        "cutoff-below",
        "cutoff-past",
        "vector-generator-shape",
        "state-nan",
        "vector-generator-nan",
        "vector-modulus-off-by-1e-9",
        "gaussian-underflow",
    ],
)
def test_constructors_refuse_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_vector_generated_povm_accepts_flat_and_rejects_skewed():
    g = centered_grid(16)
    rng = np.random.default_rng(1)
    flat = np.exp(2j * np.pi * rng.random(16)) / 4.0
    p = vector_generated_povm(g, flat)
    assert validate_povm(p).passed
    skew = flat.copy()
    skew[5] *= 1.01
    with pytest.raises(ValueError) as err:
        vector_generated_povm(g, skew)
    assert "5" in str(err.value)


def test_vector_generated_with_fourier_row_reproduces_sharp(sharp16):
    g = sharp16.grid
    generator = np.full(16, 1.0 / 4.0, dtype=complex)
    p = vector_generated_povm(g, generator)
    worst = max(
        float(np.max(np.abs(p.effect(k) - sharp16.effect(k)))) for k in range(16)
    )
    assert worst <= 1e-13


def test_validate_povm_flags_broken_completeness(sharp16):
    dense = np.stack([sharp16.effect(k) for k in range(16)])
    dense[3] *= 0.9
    broken = CovariantPOVM(sharp16.grid, sharp16.lattice, dense=dense)
    v = validate_povm(broken)
    assert v.completeness_residual > v.tolerance
    assert not v.passed
    assert v.failed_axioms[0] == "completeness"


def test_validate_povm_flags_broken_covariance(sharp16):
    dense = np.stack([sharp16.effect(k) for k in range(16)])
    dense[[2, 9]] = dense[[9, 2]]
    broken = CovariantPOVM(sharp16.grid, sharp16.lattice, dense=dense)
    v = validate_povm(broken)
    assert "covariance" in v.failed_axioms


def test_additivity_probe_catches_a_misordered_occurrence_path(sharp16, monkeypatch):
    # each bin must get the mass of its own effect; a sum over the whole
    # lattice would pass any permutation of the bins
    probs = CovariantPOVM.occurrence_probabilities
    monkeypatch.setattr(CovariantPOVM, "occurrence_probabilities", lambda self, s: np.roll(probs(self, s), 1))
    v = validate_povm(sharp16)
    assert v.completeness_residual <= v.tolerance and v.covariance_residual <= v.tolerance
    assert v.additivity_residual > v.tolerance
    assert v.failed_axioms == ("additivity",)


def test_additivity_catches_a_misordered_occurrence_path_on_two_bins(monkeypatch):
    # on two bins every union of disjoint nonempty bin sets is the whole
    # lattice, whose mass a swap of the bins keeps; bin by bin it shows
    two = build_sharp_time_povm(centered_grid(2))
    probs = CovariantPOVM.occurrence_probabilities
    monkeypatch.setattr(CovariantPOVM, "occurrence_probabilities", lambda self, s: np.roll(probs(self, s), 1))
    v = validate_povm(two)
    assert v.additivity_residual > v.tolerance
    assert v.failed_axioms == ("additivity",)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_additivity_sees_an_error_in_any_one_bin(sharp16, where, monkeypatch):
    k = {"first": 0, "middle": 8, "last": 15}[where]
    probs = CovariantPOVM.occurrence_probabilities

    def off_in_one_bin(self, state):
        p = probs(self, state)
        p[k] += 1e-9
        return p

    monkeypatch.setattr(CovariantPOVM, "occurrence_probabilities", off_in_one_bin)
    v = validate_povm(sharp16)
    assert v.additivity_residual > 1e-10
    assert v.failed_axioms == ("additivity",)


@pytest.mark.parametrize("storage", ["generator", "dense"])
def test_validate_povm_builds_each_effect_once(sharp64, storage, monkeypatch):
    # one pass walks the n effects once, and additivity compares each bin
    # as it is read
    povm = sharp64
    if storage == "dense":
        dense = np.stack([sharp64.effect(k) for k in range(64)])
        povm = CovariantPOVM(sharp64.grid, sharp64.lattice, dense=dense)
    calls = []
    effect = CovariantPOVM.effect

    def counted(self, k):
        calls.append(k)
        return effect(self, k)

    monkeypatch.setattr(CovariantPOVM, "effect", counted)
    assert validate_povm(povm).passed
    assert len(calls) <= povm.n_bins + 1


def test_validate_povm_holds_no_stack_of_the_table(vector64):
    # the table is 4.2 MB; a transport drift built for all bins at once
    # took the traced peak to 8.8 MB, and copying each union's bins out of
    # the table before summing to 3.8 MB; adding them in place peaks at 0.7 MB
    dense = np.stack([vector64.effect(k) for k in range(64)])
    povm = CovariantPOVM(vector64.grid, vector64.lattice, dense=dense)
    tracemalloc.start()
    try:
        assert validate_povm(povm).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


def test_validate_povm_flags_negative_effect(sharp16):
    dense = np.stack([sharp16.effect(k) for k in range(16)])
    dense[0] -= 2e-9 * np.eye(16)
    broken = CovariantPOVM(sharp16.grid, sharp16.lattice, dense=dense)
    v = validate_povm(broken)
    assert v.min_effect_eigenvalue < -v.tolerance
    assert v.min_effect_eigenvalue < -1e-10
    assert "positivity" in v.failed_axioms


def test_validate_povm_fails_an_effect_0_holding_a_nan():
    # a NaN makes the anti-Hermitian measure NaN; the family gets a verdict
    # with failed axioms, not the Hermitian refusal of the eigensolver
    sharp = default_fullline_model(8)
    dense = np.stack([sharp.effect(k) for k in range(8)])
    dense[0, 1, 1] = np.nan
    v = validate_povm(CovariantPOVM(sharp.grid, sharp.lattice, dense=dense))
    assert not v.passed
    assert "positivity" in v.failed_axioms
    assert v.kernel is None


def test_validation_carries_the_generating_kernel(sharp16, monkeypatch):
    # generator storage hands its generator on without an eigensolve; a
    # dense family gets sqrt(L) W^dagger from the one spectrum of effect 0
    monkeypatch.setattr(model, "hermitian_eigh", None)
    assert validate_povm(sharp16).kernel is sharp16.generator
    monkeypatch.undo()
    dense = np.stack([sharp16.effect(k) for k in range(16)])
    kernel = validate_povm(CovariantPOVM(sharp16.grid, sharp16.lattice, dense=dense)).kernel
    assert kernel.shape == (1, 16)
    assert np.max(np.abs(kernel.conj().T @ kernel - dense[0])) <= 1e-12
    # negative beyond rounding: no factor, even where the tolerance forgives it
    dense[0] -= 1e-7 * np.eye(16)
    v = validate_povm(CovariantPOVM(sharp16.grid, sharp16.lattice, dense=dense), tol=1e-6)
    assert "positivity" not in v.failed_axioms and v.kernel is None


def stacked_validation(povm, tol=1e-10, seed=0):
    # every field of validate_povm on a dense table, each from one stacked
    # expression over all bins: the reference that the one pass over the
    # bins must match bit for bit
    dense, n, dim = povm.dense, povm.n_bins, povm.dim
    energies, tau = povm.grid.energies, povm.lattice.tau
    completeness = float(np.max(np.abs(dense.sum(axis=0) - np.eye(dim))))
    phases = np.exp(1j * energies * tau)
    moved = (phases[:, None] * dense) * phases.conj()
    covariance = float(np.max(np.abs(moved - np.roll(dense, -1, axis=0))))
    e0 = dense[0]
    skew = 0.5 * float(np.max(np.abs(e0 - e0.conj().T)))
    min_eig, kernel = -skew, None
    if skew <= tol:
        herm = 0.5 * (e0 + e0.conj().T)
        steps = np.exp(-1j * np.outer(np.arange(n) * tau, energies))
        drift = steps.conj()[:, :, None] * herm * steps[:, None, :] - dense
        sp = model.hermitian_eigh(herm)
        w, keep = sp.eigenvalues, model.retained_eigenvalues(sp.eigenvalues, dim * skew)
        min_eig = float(w[0]) - float(np.max(np.linalg.norm(drift, axis=(1, 2))))
        if keep.any() and w[0] >= -1e-8 * w[-1]:
            kernel = np.sqrt(w[keep])[:, None] * sp.eigenvectors[:, keep].conj().T
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    probs = np.real(np.einsum("i,kij,j->k", psi.conj(), dense, psi))
    additivity = float(np.max(np.abs(np.real(np.vecdot(psi, np.einsum("kij,j->ki", dense, psi))) - probs)))
    return (completeness, covariance, min_eig, additivity, tol), kernel


def _tampered_tables():
    rng = np.random.default_rng(16)
    families = {
        "sharp": default_fullline_model(16),
        "halfline": default_halfline_model(16, 0.3),
        "vector": vector_generated_povm(centered_grid(16), np.exp(2j * np.pi * rng.random(16)) / 4.0),
    }
    for name, family in families.items():
        exact = np.stack([family.effect(k) for k in range(family.n_bins)])
        for eps in (1e-14, 1e-12, 1e-10, 1e-8):
            noise = eps * (rng.standard_normal(exact.shape) + 1j * rng.standard_normal(exact.shape))
            yield pytest.param(family, exact + 0.5 * (noise + noise.conj().transpose(0, 2, 1)), id=f"{name}-{eps:g}")
    # an anti-Hermitian entry in E_0 of the last (vector) table, below the
    # tolerance: the kept spectrum is floored at dim times its size
    skewed = exact.copy()
    skewed[0, 1, 2] += 1e-12
    skewed[0, 2, 1] -= 1e-12
    yield pytest.param(family, skewed, id="vector-skew-1e-12")


@pytest.mark.parametrize("family, table", _tampered_tables())
def test_validation_reads_the_table_bin_by_bin_to_the_last_bit(family, table):
    povm = CovariantPOVM(family.grid, family.lattice, dense=table)
    got = validate_povm(povm)
    fields, kernel = stacked_validation(povm)
    assert (
        got.completeness_residual,
        got.covariance_residual,
        got.min_effect_eigenvalue,
        got.additivity_residual,
        got.tolerance,
    ) == fields
    assert (got.kernel is None) == (kernel is None)
    if kernel is not None:
        assert got.kernel.shape == kernel.shape and got.kernel.tobytes() == kernel.tobytes()


def test_min_effect_eigenvalue_bounds_every_effect(sharp16):
    # an indefinite bump on bin 5 alone: effect 0 stays a projector, so only
    # the transport drift can carry the negative eigenvalue into the bound
    dense = np.stack([sharp16.effect(k) for k in range(16)])
    bump = np.zeros((16, 16), dtype=complex)
    bump[2, 7] = bump[7, 2] = 0.05
    bump[4, 4] = -0.01
    dense[5] += bump
    v = validate_povm(CovariantPOVM(sharp16.grid, sharp16.lattice, dense=dense))
    lowest = min(float(np.linalg.eigvalsh(e)[0]) for e in dense)
    assert lowest < -1e-3
    assert v.min_effect_eigenvalue <= lowest
    assert "positivity" in v.failed_axioms
    assert not v.passed


def test_covariant_povm_requires_exactly_one_storage(sharp16):
    with pytest.raises(ValueError):
        CovariantPOVM(sharp16.grid, sharp16.lattice)
    dense = np.stack([sharp16.effect(k) for k in range(16)])
    with pytest.raises(ValueError):
        CovariantPOVM(sharp16.grid, sharp16.lattice, generator=sharp16.generator, dense=dense)


def test_generator_storage_needs_the_conjugate_lattice(sharp16):
    # the FFT occurrence path is exact only when n*tau*de = 2*pi and dim <= n
    lattice = TimeLattice(16, 1.01 * sharp16.lattice.tau)
    with pytest.raises(ValueError, match="2\\*pi"):
        CovariantPOVM(sharp16.grid, lattice, generator=sharp16.generator)
    wide = EnergyGrid(32, sharp16.grid.de)
    with pytest.raises(ValueError, match="dim <= n_bins"):
        CovariantPOVM(wide, sharp16.lattice, generator=np.ones((1, 32), dtype=complex))


def test_state_vector_normalization_contract():
    g = EnergyGrid(6, 1.0)
    amp = np.zeros(6, dtype=complex)
    amp[2] = 1.0
    s = StateVector(g, amp)
    assert abs(s.probabilities.sum() - 1.0) <= 1e-14
    with pytest.raises(ValueError):
        StateVector(g, 2.0 * amp)


def test_host_independent_exp_has_the_c_library_bits():
    # numpy's real exp rounds by the host's SIMD level; the helper must give
    # math.exp's bits, down to underflow, or the fuzz goldens move by host
    x = np.concatenate([-np.logspace(-12.0, 3.0, 20000), np.linspace(-50.0, 50.0, 20001)])
    want = np.array([math.exp(v) for v in x.tolist()])
    assert model._host_independent_exp(x).tobytes() == want.tobytes()


def test_gaussian_state_moments_and_flags():
    g = centered_grid(256)
    s = gaussian_state(g, 0.7, 1.3)
    p = s.probabilities
    mean = float(p @ g.energies)
    var = float(p @ (g.energies - mean) ** 2)
    assert abs(mean - 0.7) <= 1e-9
    assert abs(np.sqrt(var) - 1.3) <= 1e-6
    assert not s.undersampled
    assert gaussian_state(g, 0.0, 0.05).undersampled
    with pytest.raises(ValueError):
        gaussian_state(g, 0.0, -1.0)


def test_gaussian_state_respects_halfline_wall(halfline_model):
    g = halfline_model.grid
    s = gaussian_state(g, 2.0, 0.5)
    assert abs(s.amplitudes[0]) == 0.0


def test_random_smooth_state_is_deterministic_and_normalized():
    g = centered_grid(128)
    a = random_smooth_state(g, 42)
    b = random_smooth_state(g, 42)
    c = random_smooth_state(g, 43)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) <= 1e-12


def test_centered_grid_puts_zero_at_the_middle_index():
    g = centered_grid(9)
    assert g.energies[9 // 2] == 0.0
    assert g.de == np.sqrt(2.0 * np.pi / 9)
    assert abs(g.n * g.de - 2.0 * np.pi / g.de) <= 1e-12  # energy span = time period
    assert centered_grid(8, 0.3).offset == -0.3 * 4


def test_default_models_shapes(fullline_model, halfline_model):
    assert fullline_model.n_bins == 512
    assert fullline_model.dim == 512
    assert abs(fullline_model.grid.de - np.sqrt(2.0 * np.pi / 512)) <= 1e-15
    assert halfline_model.n_bins == 2048
    assert halfline_model.dim == 1024
    assert halfline_model.grid.halfline


def test_transported_minimal_state_requires_halfline(fullline_model, halfline_model):
    with pytest.raises(ValueError):
        transported_minimal_state(fullline_model.grid)
    # the grid's top energy 1023 * de passes the window of airy_ai between
    # de = 0.031 and 0.033; the refusal names both energies
    transported_minimal_state(EnergyGrid(1024, 0.031, halfline=True))
    with pytest.raises(ValueError, match=r"^the grid's top energy 33\.759 is past 32\.5981, the largest energy"):
        transported_minimal_state(EnergyGrid(1024, 0.033, halfline=True))
    s = transported_minimal_state(halfline_model.grid)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12
    # profile decays super-exponentially before the top of the grid
    assert float(np.abs(s.amplitudes[-1])) <= 1e-7
    assert float(np.abs(s.amplitudes[-1])) < float(np.abs(s.amplitudes[s.grid.n // 4]))


def test_occurrence_probabilities_normalized(sharp16):
    s = gaussian_state(sharp16.grid, 0.0, 1.0)
    p = sharp16.occurrence_probabilities(s)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        other = gaussian_state(centered_grid(32), 0.0, 1.0)
        sharp16.occurrence_probabilities(other)

