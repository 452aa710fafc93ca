import numpy as np
import pytest
import scipy.linalg as la

from stdar._linalg import eigpairs, fro_norm, sym, top_eig


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


def test_fro_norm_is_linalg_norm_bit_for_bit(rng):
    # C- and F-ordered stage solutions KJ and a strided view
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(1, 9, 2))
        KJ = 10.0 ** rng.uniform(-8.0, 8.0) * rng.standard_normal((rows, cols))
        for v in (KJ, np.asfortranarray(KJ), KJ[::-1, ::2]):
            assert fro_norm(v) == np.linalg.norm(v)
