"""Eigensolver and tridiagonal kernels against independent dense oracles."""

import warnings

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


def test_hermitian_eigh_of_the_hermitian_part_is_bit_identical():
    # validate_povm diagonalizes (E_0 + E_0^dagger)/2; for Hermitian input
    # that is E_0 bit for bit, so neither the spectrum nor the kernel moves
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 10)
    part = 0.5 * (a + a.conj().T)
    assert part.tobytes() == a.tobytes()
    full, again = hermitian_eigh(a), hermitian_eigh(part)
    assert full.eigenvalues.tobytes() == again.eigenvalues.tobytes()
    assert full.eigenvectors.tobytes() == again.eigenvectors.tobytes()


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
    # an O(1) matrix with one entry off by 1e-9, far past the rounding allowance
    near = np.array([[2.0, 1.0], [1.0 + 1e-9, 3.0]])
    with pytest.raises(ValueError, match="max asymmetry 1.000e-09"):
        hermitian_eigh(near)


@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_hermitian_eigh_refuses_a_nan_entry(where):
    # refused as not Hermitian, not left to end in a Jacobi sweep that
    # cannot converge
    a = np.eye(3, dtype=complex)
    a[where] = a[where[::-1]] = np.nan
    with pytest.raises(ValueError, match="max asymmetry nan"):
        hermitian_eigh(a)


@pytest.mark.parametrize(
    "diag, offdiag, message",
    [
        ([1.0, 2.0], [1.0, 1.0], "got 2 and 2"),
        ([], [], "got 0 and 0"),
        ([[1.0, 2.0]], [1.0], "got 2 and 1"),
        ([1.0, np.inf], [0.5], "must be finite"),
        ([1.0, 2.0], [np.nan], "must be finite"),
    ],
    ids=["long-offdiag", "empty", "two-dimensional", "infinite-diag", "nan-offdiag"],
)
def test_sym_tridiag_refuses_mismatched_or_non_finite_bands(diag, offdiag, message):
    with pytest.raises(ValueError, match=message):
        SymTridiag(np.array(diag), np.array(offdiag))


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


def full_row_counts(t, xs):
    """Sturm counts by the plain recurrence over every row, no early exit."""
    d = t.diag[0] - xs
    d = np.where(np.abs(d) < 1e-290, -1e-290, d)
    count = (d < 0).astype(np.int64)
    for i in range(1, t.n):
        d = (t.diag[i] - xs) - (t.offdiag[i - 1] * t.offdiag[i - 1]) / d
        d = np.where(np.abs(d) < 1e-290, -1e-290, d)
        count += d < 0
    return count


def sturm_fixtures(rng):
    # random, integer (exact eigenvalues and zero pivots), zero-diagonal and
    # Airy-like bands; the probes take in every diagonal entry and zero
    for trial in range(300):
        n = int(rng.integers(1, 160))
        kind = trial % 4
        if kind == 0:
            d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        elif kind == 1:
            d, e = rng.integers(-3, 4, n).astype(float), rng.integers(-2, 3, n - 1).astype(float)
        elif kind == 2:
            d, e = np.zeros(n), rng.standard_normal(n - 1) * (rng.random(n - 1) < 0.7)
        else:
            h = 10.0 / (n + 1)
            d, e = 2.0 / h**2 + h * np.arange(1, n + 1), np.full(n - 1, -1.0 / h**2)
        radius = 2.0 * np.max(np.abs(e), initial=0.0)
        grid = np.linspace(d.min() - radius - 1.0, d.max() + radius + 1.0, 41)
        yield SymTridiag(d, e), np.sort(np.r_[grid, np.round(grid), d, 0.0])


@pytest.mark.parametrize("retire_at", [0, 1, 3])
def test_sturm_pass_matches_the_full_row_loop(retire_at):
    for t, xs in sturm_fixtures(np.random.default_rng(19)):
        want = full_row_counts(t, xs)
        got = linalg._sturm_pass(t, xs, retire_at)
        # a retiring pass keeps a prefix that ends at a probe counting at
        # least retire_at, and at least up to the first such probe
        assert np.array_equal(got, want[: got.size])
        if retire_at and got.size < xs.size:
            assert want[got.size - 1] >= retire_at
        if not retire_at:
            assert got.size == xs.size
        else:
            reach = np.flatnonzero(want >= retire_at)
            assert got.size >= (reach[0] + 1 if reach.size else xs.size)


def test_sturm_pass_reruns_a_stride_that_meets_a_zero_pivot():
    # at x = 0 the pivots run 2, 1/2, 0 from row 40, inside the second
    # stride: the two-call rows divide by that zero, and the stride is
    # rerun with the clamp, which counts the zero as negative
    d = np.full(100, 3.0)
    d[40:43] = [2.0, 1.0, 2.0]
    e = np.zeros(99)
    e[40:42] = 1.0
    t = SymTridiag(d, e)
    xs = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg._sturm_pass(t, xs)
    assert np.array_equal(got, full_row_counts(t, xs))
    assert got[1] == 1


def test_tridiag_lowest_eigs_matches_dense_oracle():
    rng = np.random.default_rng(12)
    t = random_tridiag(rng, 60)
    ref = np.sort(np.linalg.eigvalsh(t.dense()))
    got = tridiag_lowest_eigs(t, 5)
    assert np.max(np.abs(got - ref[:5])) <= 1e-10


@pytest.mark.parametrize("k", [0, 7])
def test_tridiag_lowest_eigs_refuses_a_count_outside_one_to_n(k):
    t = random_tridiag(np.random.default_rng(13), 6)
    with pytest.raises(ValueError, match=f"requested {k} eigenvalues from a matrix of size 6"):
        tridiag_lowest_eigs(t, k)


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
    x = solve_copy(TridiagFactor(t), np.ones(5))
    assert np.array_equal(x[0::2], np.ones(3))
    assert np.array_equal(x[1::2], np.full(2, 1.0 / 1e-290))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 31, 32, 33, 100, 257, 1000])
def test_cyclic_reduction_factor_matches_dense_oracle(n):
    rng = np.random.default_rng(n + 100)
    t = random_tridiag(rng, n, definite=True)
    fac = TridiagFactor(t)
    b = rng.standard_normal(n)
    ref = np.linalg.solve(t.dense(), b)
    assert np.max(np.abs(solve_copy(fac, b) - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_cyclic_reduction_factor_block_and_shift():
    rng = np.random.default_rng(55)
    t = random_tridiag(rng, 123, definite=True)
    block = rng.standard_normal((6, 123))
    got = solve_copy(TridiagFactor(t), block)
    ref = np.linalg.solve(t.dense(), block.T).T
    assert np.max(np.abs(got - ref)) <= 1e-10
    shifted = solve_copy(TridiagFactor(t, shift=0.7), block[0])
    ref_s = np.linalg.solve(t.dense() - 0.7 * np.eye(123), block[0])
    assert np.max(np.abs(shifted - ref_s)) <= 1e-10


class AllocatingFactor:
    """Cyclic reduction that copies the even rows at every level and
    interleaves a fresh array at every back-substitution level: the
    oracle for the in-place solve."""

    def __init__(self, t, shift=0.0):
        d = np.asarray(t.diag, dtype=float) - shift
        e = np.asarray(t.offdiag, dtype=float)
        clamp = lambda v: np.where(np.abs(v) < 1e-290, 1e-290, v)  # noqa: E731
        self.levels = []
        while d.size > 2:
            d_odd = clamp(d[1::2])
            e_r, e_l = e[0::2], e[1::2]
            r_ratio, l_ratio = e_r / d_odd, e_l / d_odd[: e_l.size]
            nd = d[0::2].copy()
            nd[: e_r.size] -= e_r * r_ratio
            nd[1 : 1 + e_l.size] -= e_l * l_ratio
            self.levels.append((d_odd, e_r, e_l, r_ratio, l_ratio))
            d, e = nd, -r_ratio[: e_l.size] * e_l
        self.d, self.e = d, e
        self.pivot = clamp(d[:1] if d.size == 1 else d[:1] * d[1:] - e * e)[0]

    def solve(self, rhs):
        b = np.asarray(rhs, dtype=float)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        stack = []
        for _, _, _, r_ratio, l_ratio in self.levels:
            b_odd = b[1::2]
            stack.append(b_odd)
            nb = b[0::2].copy()
            nb[: r_ratio.size] -= r_ratio[:, None] * b_odd
            nb[1 : 1 + l_ratio.size] -= l_ratio[:, None] * b_odd[: l_ratio.size]
            b = nb
        if self.d.size == 1:
            x = b / self.pivot
        else:
            x0 = (self.d[1] * b[0] - self.e[0] * b[1]) / self.pivot
            x1 = (self.d[0] * b[1] - self.e[0] * b[0]) / self.pivot
            x = np.stack([x0, x1])
        for (d_odd, e_r, e_l, _, _), b_odd in zip(reversed(self.levels), reversed(stack)):
            odd = b_odd - e_r[:, None] * x[: e_r.size]
            odd[: e_l.size] -= e_l[:, None] * x[1 : 1 + e_l.size]
            odd /= d_odd[:, None]
            full = np.empty((e_r.size + x.shape[0],) + x.shape[1:])
            full[0::2] = x
            full[1::2] = odd
            x = full
        return x[:, 0] if squeeze else x


def solve_copy(fac, b):
    """The solution of fac for rhs b, solved in place on a copy of b with a
    NaN-filled scratch 3 longer than n // 2 along its last axis."""
    x = np.array(b, dtype=float)
    fac.solve(x, np.full(x.shape[:-1] + (x.shape[-1] // 2 + 3,), np.nan))
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 1000, 1001])
@pytest.mark.parametrize("cols", [None, 1, 3, 8])
def test_in_place_solve_is_bit_identical_to_the_allocating_solve(n, cols):
    rng = np.random.default_rng(7 * n + (cols or 0))
    t = random_tridiag(rng, n, definite=True)
    b = rng.standard_normal(n if cols is None else (cols, n))
    for shift in (0.0, 0.3):
        # the oracle solves (n, cols) blocks
        want = AllocatingFactor(t, shift).solve(b.T).T
        got = solve_copy(TridiagFactor(t, shift), b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, k", [(5, 1), (9, 2), (33, 4)])
def test_in_place_solve_at_an_exact_eigenvalue_is_bit_identical(n, k):
    # row k is decoupled, so d_k is an eigenvalue; at that shift its zero
    # pivot is clamped at level 0, 1 or 2 of the reduction
    d = np.arange(1.0, n + 1.0)
    e = np.full(n - 1, 0.5)
    e[k - 1 : k + 1] = 0.0
    t = SymTridiag(d, e)
    b = np.random.default_rng(n).standard_normal((3, n))
    want = AllocatingFactor(t, d[k]).solve(b.T).T
    assert np.max(np.abs(want)) > 1e200
    assert solve_copy(TridiagFactor(t, shift=d[k]), b).tobytes() == want.tobytes()


def test_in_place_block_solve_allocates_nothing_that_grows_with_the_block():
    # numpy's buffered ufunc loops take up to getbufsize() elements per
    # operand, three operands at most, on strided views; past those the
    # solve allocates under 1% of the block
    import tracemalloc

    t = dirichlet_operator(1e-3, 20.0)
    fac = TridiagFactor(t, shift=-1.0)
    block = np.random.default_rng(3).standard_normal((8, t.n))
    scratch = np.empty((8, t.n // 2))
    fac.solve(block, scratch)
    tracemalloc.start()
    try:
        fac.solve(block, scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ufunc_buffers = 3 * np.getbufsize() * block.itemsize
    assert peak - ufunc_buffers < 0.01 * block.nbytes


def test_symtridiag_dense_and_matvec_agree():
    rng = np.random.default_rng(21)
    t = random_tridiag(rng, 17)
    v = rng.standard_normal(17)
    assert np.allclose(t.matvec(v), t.dense() @ v, atol=1e-13)
    assert t.n == 17
