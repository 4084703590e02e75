"""Eigensolver and tridiagonal kernels against independent dense oracles."""

import numpy as np
import pytest

from timepovm.variational import dirichlet_operator

from timepovm import linalg
from timepovm.linalg import (
    SymTridiag,
    TridiagFactor,
    hermitian_eigh,
    sturm_count,
    tridiag_eigenvector,
    tridiag_lowest_eigs,
)


def random_hermitian(rng, n, complex_entries=True):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 40])
def test_hermitian_eigh_matches_dense_oracle(n):
    rng = np.random.default_rng(n)
    a = random_hermitian(rng, n)
    sp = hermitian_eigh(a)
    ref = np.linalg.eigvalsh(a)
    scale = max(np.max(np.abs(a)), 1.0)
    assert np.max(np.abs(sp.eigenvalues - ref)) <= 1e-12 * scale * n
    # residual and orthonormality at the advertised quality
    resid = a @ sp.eigenvectors - sp.eigenvectors * sp.eigenvalues
    assert np.max(np.abs(resid)) <= 1e-9 * scale
    gram = sp.eigenvectors.conj().T @ sp.eigenvectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_hermitian_eigh_real_symmetric_path():
    rng = np.random.default_rng(99)
    a = random_hermitian(rng, 12, complex_entries=False)
    sp = hermitian_eigh(a)
    assert np.max(np.abs(sp.eigenvalues - np.linalg.eigvalsh(a))) <= 1e-12
    assert np.all(np.diff(sp.eigenvalues) >= 0.0)


def test_hermitian_eigh_values_only_agrees_with_full():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 10)
    full = hermitian_eigh(a)
    vals = hermitian_eigh(a, want_vectors=False)
    assert vals.eigenvectors is None
    assert np.allclose(full.eigenvalues, vals.eigenvalues, atol=1e-13)


def test_hermitian_eigh_handles_tight_clusters():
    # rank-one perturbation of the identity: n-1 exactly equal eigenvalues
    rng = np.random.default_rng(3)
    v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    v /= np.linalg.norm(v)
    a = np.eye(30) + 0.5 * np.outer(v, v.conj())
    sp = hermitian_eigh(a)
    resid = a @ sp.eigenvectors - sp.eigenvectors * sp.eigenvalues
    assert np.max(np.abs(resid)) <= 1e-10
    gram = sp.eigenvectors.conj().T @ sp.eigenvectors
    assert np.max(np.abs(gram - np.eye(30))) <= 1e-12
    assert abs(sp.eigenvalues[-1] - 1.5) <= 1e-12


def test_hermitian_eigh_fuzz_residuals():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        a = random_hermitian(rng, n, complex_entries=bool(rng.integers(0, 2)))
        sp = hermitian_eigh(a)
        scale = max(np.max(np.abs(a)), 1e-30)
        resid = a @ sp.eigenvectors - sp.eigenvectors * sp.eigenvalues
        assert np.max(np.abs(resid)) <= 1e-9 * scale


def test_hermitian_eigh_rejects_non_square_and_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigh(np.zeros((3, 4)))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        hermitian_eigh(bad)


def random_tridiag(rng, n, definite=False):
    d = rng.standard_normal(n)
    if definite:
        d = 2.5 + rng.random(n)
    e = rng.standard_normal(max(n - 1, 0)) * 0.7
    return SymTridiag(d, e)


def test_sturm_count_matches_sorted_spectrum():
    rng = np.random.default_rng(11)
    t = random_tridiag(rng, 25)
    ref = np.sort(np.linalg.eigvalsh(t.dense()))
    for x in (-3.0, -0.5, 0.0, 0.4, 2.0):
        assert sturm_count(t, x) == int(np.sum(ref < x))


def test_sturm_count_counts_clamped_pivots_past_the_settle_row():
    # rows 33.. have pivots below the 1e-290 clamp, which count as negative;
    # without the clamp in the settle margin, x = 0 would leave the pass at
    # row 32 (pivot 3e-290 > |b| = 0, x below every later a_j) with count 0
    t = SymTridiag(np.r_[np.full(33, 3e-290), np.full(7, 5e-291)], np.zeros(39))
    assert sturm_count(t, 0.0) == 7
    assert sturm_count(t, np.array([-1.0, 0.0, 1e-291])).tolist() == [0, 7, 7]


def test_ladder_rung_retirement_leaves_eigenvalues_bit_identical(monkeypatch):
    # rungs above the first one counting k eigenvalues leave the ladder pass;
    # the Airy (k=3) and oscillator (k=1) operators of airy-certify
    op = dirichlet_operator(2e-3, 17.0)
    x = 2e-3 * np.arange(1, op.n + 1)
    osc = SymTridiag(dirichlet_operator(2e-3, 17.0, 0.0).diag + x**2, op.offdiag)
    cases = ((op, 3), (osc, 1))
    got = [tridiag_lowest_eigs(t, k) for t, k in cases]
    kept = []
    full_pass = linalg._sturm_pass

    def no_retirement(t, xs, retire_at=0):
        counts = full_pass(t, xs, retire_at)
        if retire_at:
            kept.append(counts.size)
        return full_pass(t, xs)

    monkeypatch.setattr(linalg, "_sturm_pass", no_retirement)
    for (t, k), values in zip(cases, got):
        assert np.array_equal(tridiag_lowest_eigs(t, k), values)
    # of the 41 rungs, the Airy ladder keeps those up to about 7.6 and the
    # oscillator ladder those up to about 3.8
    assert kept == [24, 23]


def test_tridiag_lowest_eigs_matches_dense_oracle():
    rng = np.random.default_rng(12)
    t = random_tridiag(rng, 60)
    ref = np.sort(np.linalg.eigvalsh(t.dense()))
    got = tridiag_lowest_eigs(t, 5)
    assert np.max(np.abs(got - ref[:5])) <= 1e-10


def test_airy_eigenvalues_carry_residual_balls_inside_isolated_brackets():
    op = dirichlet_operator(2e-3, 17.0)
    norm = 4.0 / 2e-3**2 + 17.0
    for j, theta in enumerate(tridiag_lowest_eigs(op, 3), start=1):
        # some eigenvalue lies within r of theta, for any unit vector v
        v = tridiag_eigenvector(op, theta)
        r = np.linalg.norm(op.matvec(v) - theta * v)
        assert r <= 64 * np.finfo(float).eps * norm
        # exactly j - 1 eigenvalues below the ball and j below its top:
        # the eigenvalue the residual promises is eigenvalue j
        assert sturm_count(op, theta - r) == j - 1
        assert sturm_count(op, theta + r) == j


def test_repeated_eigenvalues_at_large_scale_terminate(monkeypatch):
    # the float spacing near 1e5 is wider than 2*tol, so a cluster bracket
    # can never shrink to 2*tol; the refinement must stop at the spacing
    passes = []
    count = linalg.sturm_count

    def capped(t, x):
        passes.append(1)
        assert len(passes) <= 100, "multisection does not terminate"
        return count(t, x)

    monkeypatch.setattr(linalg, "sturm_count", capped)
    rng = np.random.default_rng(1)
    d, e = 1e5 * rng.standard_normal(3), 1e5 * rng.standard_normal(2)
    t = SymTridiag(np.r_[d, d], np.r_[e, 0.0, e])
    ref = np.linalg.eigvalsh(t.dense())
    assert np.max(np.abs(tridiag_lowest_eigs(t, 4) - ref[:4])) <= 1e-10 * np.max(np.abs(ref))


def test_tridiag_eigenvector_residual():
    rng = np.random.default_rng(13)
    t = random_tridiag(rng, 80)
    lam = float(tridiag_lowest_eigs(t, 1)[0])
    v = tridiag_eigenvector(t, lam)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    resid = t.matvec(v) - lam * v
    scale = max(np.max(np.abs(t.diag)), np.max(np.abs(t.offdiag)))
    assert np.linalg.norm(resid) <= 1e-9 * scale


def test_tridiag_eigenvector_at_exactly_representable_eigenvalue():
    # the shifted matrix is exactly singular, the clamped pivot blows the
    # iterate up to ~1e290, and the 2-norm must not overflow
    t = SymTridiag([1.0, 2.0, 3.0, 4.0], np.zeros(3))
    v = tridiag_eigenvector(t, 1.0)
    assert np.allclose(v, [1.0, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-15)


def test_cyclic_reduction_factor_clamps_singular_pivots():
    # zero pivots at the eliminated odd nodes are clamped to 1e-290
    t = SymTridiag([1.0, 0.0, 1.0, 0.0, 1.0], np.zeros(4))
    x = TridiagFactor(t).solve(np.ones(5))
    assert np.array_equal(x[0::2], np.ones(3))
    assert np.array_equal(x[1::2], np.full(2, 1.0 / 1e-290))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 31, 32, 33, 100, 257, 1000])
def test_cyclic_reduction_factor_matches_dense_oracle(n):
    rng = np.random.default_rng(n + 100)
    t = random_tridiag(rng, n, definite=True)
    fac = TridiagFactor(t)
    b = rng.standard_normal(n)
    ref = np.linalg.solve(t.dense(), b)
    assert np.max(np.abs(fac.solve(b) - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_cyclic_reduction_factor_block_and_shift():
    rng = np.random.default_rng(55)
    t = random_tridiag(rng, 123, definite=True)
    block = rng.standard_normal((123, 6))
    got = TridiagFactor(t).solve(block)
    ref = np.linalg.solve(t.dense(), block)
    assert np.max(np.abs(got - ref)) <= 1e-10
    shifted = TridiagFactor(t, shift=0.7).solve(block[:, 0])
    ref_s = np.linalg.solve(t.dense() - 0.7 * np.eye(123), block[:, 0])
    assert np.max(np.abs(shifted - ref_s)) <= 1e-10


def test_symtridiag_dense_and_matvec_agree():
    rng = np.random.default_rng(21)
    t = random_tridiag(rng, 17)
    v = rng.standard_normal(17)
    assert np.allclose(t.matvec(v), t.dense() @ v, atol=1e-13)
    assert t.n == 17
