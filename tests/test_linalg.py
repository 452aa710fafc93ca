import numpy as np
import pytest
import scipy.linalg as la

from stdar._linalg import eigpairs, fro_norm, psd_within, sym, top_eig


def test_top_eig_is_eigvalsh_bit_for_bit(rng):
    # random symmetric matrices of every size a stage meets and beyond,
    # over 16 decades, and spectra with repeated eigenvalues
    for trial in range(600):
        n = int(rng.integers(2, 25))
        scale = 10.0 ** rng.uniform(-8.0, 8.0)
        if trial % 3:
            M = scale * rng.standard_normal((n, n))
        else:
            V = la.qr(rng.standard_normal((n, n)))[0]
            mu = scale * rng.integers(0, 3, n).astype(float)
            M = V @ np.diag(mu) @ V.T
        top = top_eig(M)
        assert top == np.linalg.eigvalsh(sym(M))[-1]
        ref = la.eigvalsh(sym(M))
        assert abs(top - ref[-1]) <= 1e-13 * np.abs(ref).max()
        # the pair: the same value up to rounding and a unit eigenvector
        value, _, U = eigpairs(sym(M))
        v = U[-1]
        assert abs(value - ref[-1]) <= 1e-13 * np.abs(ref).max()
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.linalg.norm(sym(M) @ v - value * v) <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_top_eig_rejects_non_finite(bad):
    M = np.eye(3)
    M[1, 2] = bad
    with pytest.raises(ValueError):
        top_eig(M)
    with pytest.raises(ValueError):
        eigpairs(M)
    # eigpairs' closed-form blocks: any entry, the upper triangle's too
    for q, r, c in ((1, 0, 0), (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1)):
        M = np.eye(q)
        M[r, c] = bad
        with pytest.raises(ValueError):
            eigpairs(M)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_psd_within_rejects_non_finite(bad):
    # a Cholesky factor of a NaN matrix is NaN, not an error: the PSD test
    # raises on a non-finite entry anywhere, the unread upper triangle too
    for k in (1, 2, 5):
        for r in range(k):
            for c in range(k):
                M = np.eye(k)
                M[r, c] = bad
                with pytest.raises(ValueError):
                    psd_within(M, 1e-9)


def test_psd_within_decides_as_the_eigenvalue_test(rng):
    # exactly symmetric k x k matrices, k = 1..120, over 12 decades, whose
    # smallest eigenvalue is -tol (1 +- 1e-6): the shifted Cholesky test
    # decides each as eigvalsh(M)[0] >= -tol does, on the side it was built
    # for, where the margin 1e-6 tol is far above the rounding k eps ||M||
    for k in range(1, 121):
        c = 10.0 ** rng.uniform(-6.0, 6.0)
        tol = 1e-4 * c
        V = np.linalg.qr(rng.standard_normal((k, k)))[0]
        for side in (-1.0, 1.0):
            w = c * rng.uniform(-0.5e-4, 1.0, k)
            w[int(rng.integers(k))] = -tol * (1.0 + side * 1e-6)
            M = sym(V @ np.diag(w) @ V.T)
            assert psd_within(M, tol) == (np.linalg.eigvalsh(M)[0] >= -tol)
            assert psd_within(M, tol) == (side < 0.0)


def small_blocks(rng):
    """Inputs of eigpairs' closed form: random symmetric 2 x 2 blocks and
    their 1 x 1 corners, indefinite, negative definite, PSD, rank-one
    (g g'), near ties (equal diagonal to 1e-12 and an off-diagonal entry
    1e-10 of it) and blocks with a < c and b < 0 (the top eigenvector's
    h < 0 form), some scaled by 1e-150 and 1e150; asymmetric blocks, of
    which eigh reads the lower triangle; an exact and a near tie, diagonal
    blocks with a < c and a > c, a subnormal block and the zero blocks."""
    eye = np.eye(2)
    for _ in range(300):
        X, g = rng.standard_normal((2, 2)), rng.standard_normal(2)
        a, b, c = rng.uniform(-1.0, 1.0), -rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        tie = a * np.array([[1.0, 1e-10], [1e-10, 1.0 + 1e-12 * rng.uniform(-1.0, 1.0)]])
        for M in (X + X.T, -(X @ X.T) - 0.01 * eye, 1e-150 * (X + X.T),
                  1e150 * (X + X.T), X @ X.T, np.outer(g, g), tie,
                  np.array([[a, b], [b, a + c]])):
            yield M
            yield M[:1, :1]
        yield X
    near = 2.0 * eye
    near[0, 1] = near[1, 0] = 1e-300 * np.linalg.norm(near)
    yield from (3.0 * eye, near, np.diag([1.0, 3.0]), np.diag([3.0, -1.0]),
                np.array([[3e-320, 1e-320], [1e-320, 0.0]]),
                np.zeros((1, 1)), np.zeros((2, 2)))


def test_small_eigpairs_match_eigh(rng):
    # up to 2 x 2 eigpairs is a closed form; against eigh, of the lower
    # triangle: each eigenvalue within 4 eps ||M||_F, ascending, unit
    # orthogonal rows with residuals within 4 eps ||M||_F, and the top
    # value the last eigenvalue, as a float
    eps = np.finfo(float).eps
    for M in small_blocks(rng):
        S = np.tril(M) + np.tril(M, -1).T  # what eigh reads
        tol = 4.0 * eps * np.linalg.norm(S)
        top, w, U = eigpairs(M)
        assert type(top) is float and top == w[-1]
        assert np.all(np.diff(w) >= 0.0)
        assert np.abs(w - np.linalg.eigh(M)[0]).max() <= tol
        assert np.abs(U @ U.T - np.eye(len(w))).max() <= 1e-15
        for value, u in zip(w, U):
            assert np.linalg.norm(S @ u - value * u) <= tol


def test_closed_form_stays_finite_where_a_minus_c_overflows():
    # every entry finite but a - c past the float range: the closed form
    # halves a and c before it subtracts them, so it gives eigh's answer.
    # Not one of small_blocks: the tolerance there forms ||M||_F, which
    # overflows
    M = np.diag([1e308, -1e308])
    top, w, U = eigpairs(M)
    assert top == 1e308 and np.array_equal(w, np.linalg.eigh(M)[0])
    assert np.array_equal(np.abs(U), [[0.0, 1.0], [1.0, 0.0]])


def test_fro_norm_is_linalg_norm_bit_for_bit(rng):
    # C- and F-ordered stage solutions KJ and a strided view
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(1, 9, 2))
        KJ = 10.0 ** rng.uniform(-8.0, 8.0) * rng.standard_normal((rows, cols))
        for v in (KJ, np.asfortranarray(KJ), KJ[::-1, ::2]):
            assert fro_norm(v) == np.linalg.norm(v)
