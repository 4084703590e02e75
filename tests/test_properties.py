"""Property tests of the in-repo eigensolvers against numpy's dense oracle,
and of the dilation identities on random vector-generated observables.

Examples are derandomized, so every run checks the same inputs; each
example is drawn from a seed, a size and a decimal scale or grid shape.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from timepovm import dilation
from timepovm.formats import load_povm, save_povm
from timepovm.linalg import SymTridiag, hermitian_eigh, sturm_count, tridiag_lowest_eigs
from timepovm.model import CovariantPOVM, EnergyGrid, random_smooth_state, vector_generated_povm

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
    top = hermitian_eigh(a, want_vectors=False).eigenvalues[-1]
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


@properties
@given(seeds, st.integers(4, 16), st.floats(0.2, 1.5), st.integers(-16, 4),
       st.sampled_from([0.0, 0.25, 0.5, 0.37]), st.sampled_from([1, 2]))
def test_dilation_identities_on_vector_generated_families(seed, n, de, start, fraction, rank):
    # the offset is an integer (fraction 0) or fractional multiple of de;
    # a fractional one makes the period power of the shift a global phase.
    # rank 2 mixes two vector-generated families, so every effect has rank
    # two and the shift maps (2 x 2) blocks
    rng = np.random.default_rng(seed)
    grid = EnergyGrid(n, de, offset=(start + fraction) * de)
    families = [
        vector_generated_povm(grid, np.exp(2j * np.pi * rng.random(n)) / np.sqrt(n)) for _ in range(rank)
    ]
    kernels = np.concatenate([f.kernels for f in families], axis=1) / np.sqrt(rank)
    kernel = CovariantPOVM(grid, families[0].lattice, kernels=kernels, label="mixture")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vector.json"
        save_povm(kernel, path)
        loaded = load_povm(path)
    assert loaded.dense is not None
    for povm in (kernel, loaded):
        d = dilation.build_dilation(povm)
        assert d.blocks.shape == (n, rank, n) and d.shift.shape == (n, rank, rank)
        states = [random_smooth_state(povm.grid, seed % 1000 + i) for i in range(3)]
        assert dilation.check_compression(d, count=20, seed=seed % 1000) <= 1e-11
        assert dilation.check_imprimitivity(d) <= 1e-11
        assert dilation.check_restriction(d) <= 1e-11
        assert dilation.check_occurrence_consistency(d, states) <= 1e-11
        assert dilation.shift_power_deviation(d) <= 1e-11
