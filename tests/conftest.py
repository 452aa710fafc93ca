import numpy as np
import pytest

from stdar.problem import ProblemData, Tolerances
from stdar.riccati import MultiplierVector


def make_problem(rng: np.random.Generator, n=None, m=None, q=None, N=None,
                 degenerate_pf=False, stable=True) -> ProblemData:
    """Random instance satisfying the standing assumptions.

    G = B Theta keeps range(G) inside range(B); weights are strictly PD
    unless degenerate_pf asks for Pf = 0.
    """
    n = int(n if n is not None else rng.integers(1, 4))
    m = int(m if m is not None else rng.integers(1, 4))
    q = int(q if q is not None else rng.integers(1, 4))
    N = int(N if N is not None else rng.integers(2, 6))
    A = rng.standard_normal((n, n))
    if stable:
        rho = float(np.abs(np.linalg.eigvals(A)).max())
        if rho > 0:
            A *= 0.9 / rho
    B = rng.standard_normal((n, m))
    G = B @ rng.standard_normal((m, q))
    C = rng.standard_normal((n, n))
    Q = C.T @ C + 0.1 * np.eye(n)
    D = rng.standard_normal((m, m))
    R = D.T @ D + 0.5 * np.eye(m)
    if degenerate_pf:
        Pf = np.zeros((n, n))
    else:
        E = rng.standard_normal((n, n))
        Pf = E.T @ E + 0.1 * np.eye(n)
    alpha = rng.uniform(0.2, 2.0, N)
    x0 = rng.standard_normal(n)
    return ProblemData(A=A, B=B, G=G, Q=Q, R=R, Pf=Pf, N=N, alpha=alpha, x0=x0)


def scalar_problem(A=1.0, B=1.0, G=1.0, Q=0.2, R=1.0, Pf=0.0, N=8,
                   alpha=1.0, x0=2.0) -> ProblemData:
    arr = lambda v: np.array([[float(v)]])
    return ProblemData(A=arr(A), B=arr(B), G=arr(G), Q=arr(Q), R=arr(R),
                       Pf=arr(Pf), N=N, alpha=alpha, x0=np.array([float(x0)]))


def fresh(lam):
    """An equal multiplier vector with no link to the pass that built lam,
    so that sweep() runs the recursion again."""
    return MultiplierVector(lam.lambdas, lam.stage_offset)


def assert_same_sweep(a, b):
    """Two RiccatiSweeps agree bit for bit, the eigenpairs the adjoint
    pass and the sphere completion read included."""
    assert a.stage_offset == b.stage_offset
    assert np.array_equal(a.lam.lambdas, b.lam.lambdas)
    assert np.array_equal(a.bounds, b.bounds)
    for field in ("Pi", "M", "K", "J", "_eigvals", "_eigvecs"):
        assert len(getattr(a, field)) == len(getattr(b, field))
        for x, y in zip(getattr(a, field), getattr(b, field)):
            assert np.array_equal(x, y)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def tol():
    return Tolerances()
