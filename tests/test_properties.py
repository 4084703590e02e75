"""Property tests of the in-repo eigensolvers against numpy's dense oracle,
of the FFT occurrence path against the dense kernels and numpy's FFT, of
the dilation identities on random vector-generated observables, and of the
file round trips.

Examples are derandomized, so every run checks the same inputs; each
example is drawn from a seed, a size and a decimal scale or grid shape.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timepovm import dilation, formats
from timepovm.formats import load_povm, load_state_table, save_povm, save_state_table
from timepovm.linalg import SymTridiag, hermitian_eigh, sturm_count, tridiag_lowest_eigs
from timepovm.model import (
    CovariantPOVM,
    EnergyGrid,
    build_halfline_povm,
    build_sharp_time_povm,
    random_smooth_state,
    vector_generated_povm,
)
from timepovm.variational import GridState

properties = settings(derandomize=True, deadline=None, max_examples=40, database=None)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 24)
scales = st.integers(-6, 6).map(lambda e: 10.0**e)


def check_eigh(a: np.ndarray) -> None:
    n = a.shape[0]
    norm = float(np.max(np.abs(a)))
    sp = hermitian_eigh(a)
    assert np.max(np.abs(sp.eigenvalues - np.linalg.eigvalsh(a))) <= 1e-12 * n * norm
    resid = a @ sp.eigenvectors - sp.eigenvectors * sp.eigenvalues
    assert np.max(np.abs(resid)) <= 1e-12 * n * norm
    gram = sp.eigenvectors.conj().T @ sp.eigenvectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


@properties
@given(seeds, sizes, scales)
def test_hermitian_eigh_complex_hermitian(seed, n, scale):
    rng = np.random.default_rng(seed)
    a = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    check_eigh((a + a.conj().T) / 2.0)


@properties
@given(seeds, sizes, scales)
def test_hermitian_eigh_real_symmetric(seed, n, scale):
    rng = np.random.default_rng(seed)
    a = scale * rng.standard_normal((n, n))
    check_eigh((a + a.T) / 2.0)


@properties
@given(seeds, sizes, scales)
def test_hermitian_eigh_rank_one_gram(seed, n, scale):
    # the shape of every constructor-built effect: K^dagger K with K 1 x n
    rng = np.random.default_rng(seed)
    k = scale * (rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n)))
    a = k.conj().T @ k
    check_eigh(a)
    top = hermitian_eigh(a).eigenvalues[-1]
    assert abs(top - float(np.sum(np.abs(k) ** 2))) <= 1e-12 * n * float(np.max(np.abs(a)))


@properties
@given(seeds, st.integers(1, 60))
def test_sturm_count_matches_dense_spectrum(seed, n):
    rng = np.random.default_rng(seed)
    t = SymTridiag(rng.standard_normal(n), rng.standard_normal(n - 1))
    ref = np.linalg.eigvalsh(t.dense())
    probes = rng.uniform(ref[0] - 1.0, ref[-1] + 1.0, 32)
    # a probe within rounding distance of an eigenvalue has no defined count
    gap = np.min(np.abs(probes[:, None] - ref[None, :]), axis=1)
    probes = probes[gap > 1e-9 * (1.0 + np.max(np.abs(ref)))]
    expected = np.sum(ref[None, :] < probes[:, None], axis=1)
    assert np.array_equal(sturm_count(t, probes), expected)


def row_loop_counts(t: SymTridiag, xs: np.ndarray) -> np.ndarray:
    """Sturm counts from the plain recurrence, every probe through every row."""
    tiny = 1e-290
    d = t.diag[0] - xs
    d = np.where(np.abs(d) < tiny, -tiny, d)
    count = (d < 0).astype(np.int64)
    for i in range(1, t.n):
        d = (t.diag[i] - xs) - (t.offdiag[i - 1] * t.offdiag[i - 1]) / d
        d = np.where(np.abs(d) < tiny, -tiny, d)
        count += d < 0
    return count


def settling_bands(rng, kind, n):
    """Bands on which Sturm probes settle before the last row, and a generic control."""
    if kind == "generic":
        return rng.standard_normal(n), rng.standard_normal(n - 1)
    if kind == "ramp":
        # the Airy operator's shape: second differences plus a rising potential
        slope = rng.uniform(1.0, 60.0)
        return 2.0 + slope * np.arange(n) / n, -np.ones(n - 1)
    if kind == "split":
        # diagonally dominant with exact zero couplings: split into blocks
        e = rng.standard_normal(n - 1) * (rng.random(n - 1) < 0.6)
        return rng.integers(-3, 4, n) + 4.0 * np.arange(n) / n, e
    # dominant: every row clears its couplings except near the top
    return np.sort(rng.uniform(-2.0, 40.0, n)), rng.uniform(-1.0, 1.0, n - 1)


@properties
@given(seeds, st.integers(1, 160), st.integers(-3, 6).map(lambda e: 10.0**e),
       st.sampled_from(["generic", "ramp", "split", "dominant"]))
def test_sturm_count_early_exit_matches_row_loop(seed, n, scale, kind):
    # the early exit must reproduce the full row loop bit for bit, also on
    # probes placed exactly on eigenvalues and on the settle floors G_i
    rng = np.random.default_rng(seed)
    d, e = settling_bands(rng, kind, n)
    t = SymTridiag(scale * d, scale * e)
    radius = np.zeros(n)
    radius[:-1] += np.abs(t.offdiag)
    radius[1:] += np.abs(t.offdiag)
    floors = np.minimum.accumulate((t.diag - radius)[::-1])[::-1]
    ref = np.linalg.eigvalsh(t.dense())
    on_points = np.concatenate([ref, floors, t.diag])
    probes = np.concatenate([
        on_points,
        np.nextafter(on_points, np.inf),
        np.nextafter(on_points, -np.inf),
        rng.uniform(ref[0] - scale, ref[-1] + scale, 40),
    ])
    probes = rng.permutation(np.concatenate([probes, probes[: probes.size // 3]]))
    expected = row_loop_counts(t, probes)
    assert np.array_equal(sturm_count(t, probes), expected)
    i = int(rng.integers(probes.size))
    assert sturm_count(t, float(probes[i])) == expected[i]
    assert np.array_equal(sturm_count(t, probes[: 2 * (probes.size // 2)].reshape(2, -1)),
                          expected[: 2 * (probes.size // 2)].reshape(2, -1))


def tridiagonal_bands(rng, kind, n):
    """Bands of a tridiagonal: generic, exact repeats, repeated or clustered blocks."""
    if kind == "generic":
        return rng.standard_normal(n), rng.standard_normal(n - 1)
    if kind == "repeats":
        return rng.integers(-3, 4, n).astype(float), np.zeros(n - 1)
    # copies of one block, decoupled (exact repeats) or coupled by 1e-9 (clusters)
    m = max(1, n // 3)
    copies = -(-n // m)
    d_b, e_b = rng.standard_normal(m), rng.standard_normal(m - 1)
    link = 0.0 if kind == "blocks" else 1e-9
    d = np.tile(d_b, copies)[:n]
    e = np.concatenate([np.append(e_b, link)] * copies)[: n - 1]
    return d, e


@properties
@given(seeds, st.integers(1, 30), st.integers(-3, 3).map(lambda e: 10.0**e),
       st.sampled_from(["generic", "repeats", "blocks", "clusters"]), st.data())
def test_tridiag_lowest_eigs_matches_dense_spectrum(seed, n, scale, kind, data):
    rng = np.random.default_rng(seed)
    d, e = tridiagonal_bands(rng, kind, n)
    t = SymTridiag(scale * d, scale * e)
    k = data.draw(st.integers(1, n))
    ref = np.linalg.eigvalsh(t.dense())
    got = tridiag_lowest_eigs(t, k)
    norm = float(np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref[:k])) <= 1e-10 * max(1.0, norm)


def mixture(grid: EnergyGrid, rank: int, rng) -> CovariantPOVM:
    """Equal-weight mixture of ``rank`` random vector-generated families.

    The generators are stacked, so every effect has rank ``rank``; rank 1
    is a single vector-generated family.
    """
    families = [
        vector_generated_povm(grid, np.exp(2j * np.pi * rng.random(grid.n)) / np.sqrt(grid.n))
        for _ in range(rank)
    ]
    generator = np.concatenate([f.generator for f in families]) / np.sqrt(rank)
    return CovariantPOVM(grid, families[0].lattice, generator=generator, label="mixture")


def covariant_family(kind: str, n: int, de: float, offset_steps: float, rng) -> CovariantPOVM:
    """A generator-stored family of one kind on n energies at offset offset_steps * de.

    The half-line family keeps the energies from a random cutoff up, with
    the cutoff energy at the fractional part of ``offset_steps`` times de.
    """
    if kind == "halfline":
        cutoff = int(rng.integers(0, n - 1))
        fraction = offset_steps - np.floor(offset_steps)
        return build_halfline_povm(EnergyGrid(n, de, offset=(fraction - cutoff) * de), cutoff)
    grid = EnergyGrid(n, de, offset=offset_steps * de)
    if kind == "sharp":
        return build_sharp_time_povm(grid)
    return mixture(grid, 1 if kind == "vector" else 2, rng)


# powers of two, primes, 12 and 3 * 2^k: lengths with and without odd factors
fft_sizes = st.sampled_from([2, 4, 8, 64, 256, 3, 5, 13, 61, 251, 12, 6, 24, 96, 384])
offsets = st.tuples(st.integers(-16, 4), st.sampled_from([0.0, 0.25, 0.5, 0.37])).map(sum)
kinds = st.sampled_from(["sharp", "halfline", "vector", "mixture"])


@properties
@given(seeds, fft_sizes, st.floats(0.2, 1.5), offsets, kinds)
def test_occurrence_fft_matches_dense_kernels_and_numpy_fft(seed, n, de, offset_steps, kind):
    rng = np.random.default_rng(seed)
    povm = covariant_family(kind, n, de, offset_steps, rng)
    state = random_smooth_state(povm.grid, seed % 1000)
    got = povm.occurrence_probabilities(state)
    # oracles: the transported kernel stack times the state, and numpy's FFT
    # of the zero-padded K_0 * psi
    kernels = povm.transport(povm.generator) @ state.amplitudes
    dense = np.sum(np.abs(kernels) ** 2, axis=1)
    padded = np.zeros((povm.generator.shape[0], n), dtype=complex)
    padded[:, : povm.dim] = povm.generator * state.amplitudes
    spectrum = np.fft.fft(padded, axis=-1)
    reference = np.sum(np.abs(spectrum) ** 2, axis=0)
    # |.|^2 hides a phase per bin, so the amplitudes times that phase are
    # also checked against the transported kernels
    phase = np.exp(-1j * ((np.arange(n) * povm.lattice.tau) * povm.grid.offset))
    assert np.max(np.abs(povm._bin_amplitudes(state) * phase - kernels.T)) <= 1e-13
    assert got.shape == (n,)
    assert np.max(np.abs(got - dense)) <= 1e-13
    assert np.max(np.abs(got - reference)) <= 1e-13


@properties
@given(seeds, st.integers(2, 12), st.floats(0.2, 1.5), offsets, kinds)
def test_save_povm_round_trip_is_bit_identical(seed, n, de, offset_steps, kind):
    # the file holds explicit effects, so the derived effect(k) of the
    # generator storage is what gets written
    povm = covariant_family(kind, n, de, offset_steps, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "povm.json"
        save_povm(povm, path)
        loaded = load_povm(path)
    assert loaded.dense is not None and loaded.label == povm.label
    assert (loaded.n_bins, loaded.dim, loaded.lattice.tau) == (povm.n_bins, povm.dim, povm.lattice.tau)
    for k in range(n):
        assert np.array_equal(loaded.effect(k), povm.effect(k)), k


@pytest.mark.parametrize("window", [1, 7, 64, formats._WINDOW])
@properties
@given(seeds, st.integers(2, 12), st.floats(0.2, 1.5), offsets, kinds)
def test_load_povm_reads_a_whole_document_through_any_window(
    whole_document_parts, window, seed, n, de, offset_steps, kind
):
    # the families of the round trip, read a few characters at a time and,
    # at the loader's own window, each in one read
    povm = covariant_family(kind, n, de, offset_steps, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "povm.json"
        save_povm(povm, path)
        patch.setattr(formats, "_WINDOW", window)
        loaded = load_povm(path)
        want, label = whole_document_parts(path)
    assert np.array_equal(loaded.dense.view(np.uint64), want.view(np.uint64))
    assert loaded.label == label == povm.label


@properties
@given(seeds, st.integers(2, 12), st.floats(0.2, 1.5), offsets, kinds)
def test_save_povm_streams_the_whole_document_bytes(whole_document_text, seed, n, de, offset_steps, kind):
    povm = covariant_family(kind, n, de, offset_steps, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "povm.json"
        save_povm(povm, path)
        assert path.read_bytes() == whole_document_text(povm).encode()


@properties
@given(seeds, st.integers(2, 200), st.floats(1e-4, 1.0), st.integers(0, 200))
def test_state_table_round_trip_is_bit_identical(seed, size, h, spread):
    # magnitudes spanning up to 10^-spread exercise the exponent range
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(size) * 10.0 ** -rng.integers(0, spread + 1, size)
    state = GridState(raw / (np.sqrt(h) * np.linalg.norm(raw)), h)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.txt"
        save_state_table(state, path)
        loaded = load_state_table(path)
    assert np.array_equal(loaded.values, state.values)
    # the spacing is re-derived from the written nodes, so it agrees to rounding
    assert abs(loaded.h - h) <= 1e-12 * h and abs(loaded.L - state.L) <= 1e-12 * state.L


@properties
@given(seeds, st.integers(4, 16), st.floats(0.2, 1.5), st.integers(-16, 4),
       st.sampled_from([0.0, 0.25, 0.5, 0.37]), st.sampled_from([1, 2]))
def test_dilation_identities_on_vector_generated_families(seed, n, de, start, fraction, rank):
    # the offset is an integer (fraction 0) or fractional multiple of de;
    # a fractional one makes the period power of the shift a global phase.
    # rank 2 mixes two vector-generated families, so every effect has rank
    # two and the shift maps (2 x 2) blocks
    rng = np.random.default_rng(seed)
    kernel = mixture(EnergyGrid(n, de, offset=(start + fraction) * de), rank, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vector.json"
        save_povm(kernel, path)
        loaded = load_povm(path)
    assert loaded.dense is not None
    for povm in (kernel, loaded):
        d = dilation.build_dilation(povm)
        assert d.blocks.shape == (n, rank, n) and d.shift.shape == (n, rank, rank)
        states = [random_smooth_state(povm.grid, seed % 1000 + i) for i in range(3)]
        assert dilation.check_compression(d) <= 1e-11
        assert dilation.check_imprimitivity(d) <= 1e-11
        assert dilation.check_restriction(d) <= 1e-11
        assert dilation.check_occurrence_consistency(d, states) <= 1e-11
        assert dilation.shift_power_deviation(d) <= 1e-11
