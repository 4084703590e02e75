"""Dilation construction and its defining residuals on small observables."""

import tracemalloc

import numpy as np
import pytest

from timepovm import dilation, model
from timepovm.dilation import (
    build_dilation,
    check_compression,
    check_imprimitivity,
    check_occurrence_consistency,
    check_restriction,
    shift_power_deviation,
)
from timepovm.model import (
    CovariantPOVM,
    EnergyGrid,
    TimeLattice,
    build_halfline_povm,
    build_sharp_time_povm,
    centered_grid,
    random_smooth_state,
    vector_generated_povm,
)


@pytest.fixture(scope="module")
def small_dilations():
    rng = np.random.default_rng(7)
    sharp = build_sharp_time_povm(centered_grid(12))
    de = 0.4
    half = build_halfline_povm(EnergyGrid(24, de, offset=-de * 12), 12)
    gen = np.exp(2j * np.pi * rng.random(12)) / np.sqrt(12.0)
    vector = vector_generated_povm(centered_grid(12), gen)
    return {p.label: build_dilation(p) for p in (sharp, half, vector)}


@pytest.fixture(scope="module")
def multirow_families():
    # kernels with more than one row, each with its expected rank: the Gram
    # solve orthonormalizes a mixture's rows, drops the dependent one of
    # [g; g]/sqrt(2), and factors a dense family with more energies than bins
    rng = np.random.default_rng(11)
    grid = centered_grid(12)
    g1, g2 = (vector_generated_povm(grid, np.exp(2j * np.pi * rng.random(12)) / np.sqrt(12.0)) for _ in range(2))
    mixture = np.concatenate([g1.generator, g2.generator]) / np.sqrt(2.0)
    repeated = np.concatenate([g1.generator, g1.generator]) / np.sqrt(2.0)
    wide_grid = centered_grid(8)
    wide_lattice = TimeLattice(4, 2.0 * np.pi / (4 * wide_grid.de))
    return {
        "mixture": (CovariantPOVM(grid, g1.lattice, generator=mixture), 24),
        "repeated-row": (CovariantPOVM(grid, g1.lattice, generator=repeated), 12),
        "wide-dense": (CovariantPOVM(wide_grid, wide_lattice, dense=np.stack([np.eye(8) / 4] * 4)), 32),
    }


def dense_shift(d):
    """The (rank x rank) shift the block-cyclic maps stand for: block k -> k+1."""
    n, r, _ = d.shift.shape
    s = np.zeros((d.rank, d.rank), dtype=complex)
    for k in range(n):
        nxt = (k + 1) % n
        s[nxt * r : (nxt + 1) * r, k * r : (k + 1) * r] = d.shift[k]
    return s


def test_embedding_is_isometry(small_dilations):
    for name, d in small_dilations.items():
        v = d.blocks.reshape(d.rank, d.povm.dim)
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(d.povm.dim))) <= 1e-12, name


def test_compression_reproduces_effects(small_dilations):
    for name, d in small_dilations.items():
        assert check_compression(d, count=60, seed=3) <= 1e-12, name
        explicit = [np.array([0]), np.arange(d.povm.n_bins)]
        assert check_compression(d, bin_sets=explicit) <= 1e-12, name


def test_shift_is_unitary_and_imprimitive(small_dilations):
    # the assembled rank x rank shift is the oracle for the per-block check
    for name, d in small_dilations.items():
        s = dense_shift(d)
        n, r = d.povm.n_bins, d.shift.shape[1]
        assert np.max(np.abs(s.conj().T @ s - np.eye(d.rank))) <= 1e-12, name
        for k in range(n):
            sharp = np.zeros(d.rank)
            sharp[k * r : (k + 1) * r] = 1.0
            moved = (s * sharp) @ s.conj().T
            assert np.max(np.abs(moved - np.diag(np.roll(sharp, r)))) <= 1e-12, name
        assert check_imprimitivity(d) <= 1e-12, name


def test_shift_restricts_to_model_evolution(small_dilations):
    for name, d in small_dilations.items():
        assert check_restriction(d) <= 1e-12, name


def test_occurrence_statistics_survive_dilation(small_dilations):
    for name, d in small_dilations.items():
        states = [random_smooth_state(d.povm.grid, s) for s in range(4)]
        assert check_occurrence_consistency(d, states) <= 1e-12, name


def test_full_period_shift_is_global_phase(small_dilations):
    for name, d in small_dilations.items():
        deviation = shift_power_deviation(d)
        assert deviation <= 1e-12, name
        g = d.povm.grid
        phase = np.exp(2j * np.pi * g.offset / g.de)
        dense = np.linalg.matrix_power(dense_shift(d), d.povm.n_bins)
        assert abs(np.max(np.abs(dense - phase * np.eye(d.rank))) - deviation) <= 1e-13, name


def test_shift_power_handles_offset_phase():
    # non-integer offset in units of the spacing: the period power of the
    # shift is a non-trivial global phase and must still be recognized
    g = EnergyGrid(10, 0.31, offset=0.1 - 5 * 0.31)
    d = build_dilation(build_sharp_time_povm(g))
    assert shift_power_deviation(d) <= 1e-12


def test_rank_bookkeeping(small_dilations):
    for name, d in small_dilations.items():
        n, dim = d.povm.n_bins, d.povm.dim
        assert d.rank + d.discarded_count == n * dim, name
        # rank-one effect families dilate into one dimension per bin
        assert d.blocks.shape == (n, 1, dim), name
        assert d.shift.shape == (n, 1, 1), name
        assert d.rank == n, name


def test_build_dilation_rejects_invalid_family():
    sharp = build_sharp_time_povm(centered_grid(8))
    dense = np.stack([sharp.effect(k) for k in range(8)])
    dense[1] *= 0.8
    broken = CovariantPOVM(sharp.grid, sharp.lattice, dense=dense)
    with pytest.raises(ValueError) as err:
        build_dilation(broken)
    assert "completeness" in str(err.value)


def test_dense_storage_dilates_identically():
    sharp = build_sharp_time_povm(centered_grid(8))
    dense = np.stack([sharp.effect(k) for k in range(8)])
    via_dense = build_dilation(CovariantPOVM(sharp.grid, sharp.lattice, dense=dense))
    assert check_compression(via_dense, count=30, seed=1) <= 1e-11
    assert check_imprimitivity(via_dense) <= 1e-11
    assert check_restriction(via_dense) <= 1e-11


def test_compression_check_holds_no_stack_of_the_table(vector64):
    # the table is 4.2 MB; copying each bin set out of it before summing
    # took the traced peak of 100 bin sets to 4.4 MB, adding in place to 0.4 MB
    dense = np.stack([vector64.effect(k) for k in range(64)])
    d = build_dilation(CovariantPOVM(vector64.grid, vector64.lattice, dense=dense))
    tracemalloc.start()
    try:
        assert check_compression(d, count=100) <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_embed_maps_states_isometrically(small_dilations):
    for name, d in small_dilations.items():
        state = random_smooth_state(d.povm.grid, 11)
        lifted = d.embed(state)
        assert lifted.shape == d.blocks.shape[:2], name
        assert abs(np.linalg.norm(lifted) - 1.0) <= 1e-12, name
        back = np.einsum("krd,kr->d", d.blocks.conj(), lifted)
        assert np.max(np.abs(back - state.amplitudes)) <= 1e-12, name


@pytest.mark.parametrize("name", ["mixture", "repeated-row", "wide-dense"])
def test_multirow_kernels_dilate(multirow_families, name):
    povm, rank = multirow_families[name]
    d = build_dilation(povm)
    n, dim = povm.n_bins, povm.dim
    assert d.rank == rank
    assert d.rank + d.discarded_count == n * dim
    v = d.blocks.reshape(d.rank, dim)
    assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-12
    states = [random_smooth_state(povm.grid, s) for s in range(4)]
    residuals = (
        check_compression(d, count=60, seed=3),
        check_imprimitivity(d),
        check_restriction(d),
        check_occurrence_consistency(d, states),
        shift_power_deviation(d),
    )
    assert max(residuals) <= 1e-12, residuals


def test_generator_storage_dilates_without_a_solve_of_size_dim(multirow_families, monkeypatch):
    # validation hands the generator on, and the only solve is the r x r
    # Gram matrix of its rows
    shapes = []
    eigh = dilation.hermitian_eigh

    def counted(a):
        shapes.append(a.shape)
        return eigh(a)

    for module in (model, dilation):
        monkeypatch.setattr(module, "hermitian_eigh", counted)
    de = 0.4
    families = (
        build_sharp_time_povm(centered_grid(12)),
        build_halfline_povm(EnergyGrid(24, de, offset=-de * 12), 12),
        multirow_families["mixture"][0],
    )
    for povm in families:
        shapes.clear()
        build_dilation(povm)
        assert shapes == [(povm.generator.shape[0],) * 2], povm.label
