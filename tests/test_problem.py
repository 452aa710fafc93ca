import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
import scipy.linalg as la

from stdar import (AssumptionViolated, DimensionMismatch, ProblemData,
                   validate_problem)
from conftest import make_problem, scalar_problem


def test_scalar_reference_system_passes_all_checks():
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=1, alpha=1.0, x0=1.0)
    rep = validate_problem(p)
    assert rep.stabilizable
    assert rep.detectable
    assert not rep.degenerate_terminal
    assert rep.warnings == ()


def test_range_inclusion_hard_error():
    p = scalar_problem(B=0.0, G=1.0, Pf=1.0)
    with pytest.raises(AssumptionViolated) as exc:
        validate_problem(p)
    assert "range inclusion" in str(exc.value)


def test_degenerate_terminal_is_hard_error_without_flag():
    p = scalar_problem(Pf=0.0)
    with pytest.raises(AssumptionViolated) as exc:
        validate_problem(p)
    assert "G'Pf G" in str(exc.value)


def test_degenerate_terminal_flag_downgrades_to_warning():
    p = scalar_problem(Pf=0.0)
    rep = validate_problem(p, allow_degenerate_terminal=True)
    assert rep.degenerate_terminal
    assert any("degenerate terminal" in w for w in rep.warnings)


def test_weight_definiteness_checks():
    with pytest.raises(AssumptionViolated, match="R positive definite"):
        validate_problem(scalar_problem(R=0.0))
    p = ProblemData(A=np.eye(2), B=np.eye(2), G=np.eye(2),
                    Q=np.diag([1.0, -0.1]), R=np.eye(2), Pf=np.eye(2),
                    N=2, alpha=1.0)
    with pytest.raises(AssumptionViolated, match="Q positive semidefinite"):
        validate_problem(p)


def test_nonsymmetric_weight_rejected():
    with pytest.raises(ValueError, match="not symmetric"):
        ProblemData(A=np.eye(2), B=np.eye(2), G=np.eye(2),
                    Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(2),
                    Pf=np.eye(2), N=2, alpha=1.0)


def _square(**kw):
    # a valid 2x2 problem with the given data replaced
    return ProblemData(**{"A": np.eye(2), "B": np.eye(2), "G": np.eye(2),
                          "Q": np.eye(2), "R": np.eye(2), "Pf": np.eye(2),
                          "N": 2, "alpha": 1.0, **kw})


@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_symmetry_test_is_scale_free(scale):
    # the test decides alike at every scale: the skewed matrix fails and the
    # symmetric one passes, at 1e300 too, where ||M|| overflows, with no
    # RuntimeWarning
    with pytest.raises(ValueError, match="Pf is not symmetric"):
        _square(Pf=scale * np.array([[1.0, 0.5], [0.0, 1.0]]))
    sym = scale * np.array([[1.0, 0.5], [0.5, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_square(Pf=sym).Pf, sym)


@pytest.mark.parametrize("key, value, error, match", [
    ("A", np.ones((2, 2, 1)), DimensionMismatch, "A must be a matrix, got ndim=3"),
    ("A", [[1.0, np.nan], [0.0, 1.0]], ValueError, "A contains non-finite"),
    ("A", np.ones((2, 3)), DimensionMismatch, "A must be square"),
    ("G", np.ones((3, 1)), DimensionMismatch, "G has 3 rows, expected 2"),
    ("Q", np.eye(3), DimensionMismatch, r"Q must be 2x2, got \(3, 3\)"),
    ("R", np.eye(3), DimensionMismatch, r"R must be 2x2, got \(3, 3\)"),
    ("Pf", 1.0, DimensionMismatch, r"Pf must be 2x2, got \(1, 1\)"),
    ("alpha", np.ones((2, 2)), DimensionMismatch, "alpha must be a vector, got ndim=2"),
    ("alpha", np.inf, ValueError, "alpha contains non-finite"),
    ("x0", np.zeros((1, 1, 2)), DimensionMismatch, "x0 must be a vector, got ndim=3"),
    ("x0", [0.0, np.inf], ValueError, "x0 contains non-finite")])
def test_malformed_data_rejected(key, value, error, match):
    # each shape and finiteness check of the constructor, with its own message
    with pytest.raises(error, match=match):
        _square(**{key: value})


@pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
def test_row_and_column_vectors_ravel(shape):
    p = _square(alpha=np.array([0.5, 2.0]).reshape(shape),
                x0=np.array([1.0, -1.0]).reshape(shape))
    assert np.array_equal(p.alpha, [0.5, 2.0])
    assert np.array_equal(p.x0, [1.0, -1.0])


def test_scalar_x0_is_a_vector():
    # at n = 1 a bare number is the state [x0]
    one = np.eye(1)
    p = ProblemData(A=one, B=one, G=one, Q=one, R=one, Pf=one, N=1, alpha=1.0,
                    x0=2.0)
    assert p.x0.shape == (1,) and p.x0[0] == 2.0


def test_dimension_mismatches_rejected():
    with pytest.raises(DimensionMismatch):
        ProblemData(A=np.eye(2), B=np.ones((3, 1)), G=np.eye(2),
                    Q=np.eye(2), R=np.eye(1), Pf=np.eye(2), N=1, alpha=1.0)
    with pytest.raises(DimensionMismatch):
        ProblemData(A=np.eye(2), B=np.eye(2), G=np.eye(2), Q=np.eye(2),
                    R=np.eye(2), Pf=np.eye(2), N=3, alpha=[1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        ProblemData(A=np.eye(2), B=np.eye(2), G=np.eye(2), Q=np.eye(2),
                    R=np.eye(2), Pf=np.eye(2), N=1, alpha=1.0,
                    x0=np.zeros(3))


def test_alpha_broadcast_and_positivity():
    p = scalar_problem(N=5, alpha=0.3)
    assert p.alpha.shape == (5,)
    assert np.all(p.alpha == 0.3)
    with pytest.raises(ValueError, match="strictly positive"):
        scalar_problem(N=2, alpha=[1.0, 0.0])
    with pytest.raises(ValueError, match="N must be"):
        scalar_problem(N=0)


@pytest.mark.parametrize("N", [2.9, True, "3", np.float64(2.5)])
def test_horizon_must_be_an_integer(N):
    # int() would truncate 2.9 to 2, read True as 1 and parse "3"
    with pytest.raises(ValueError, match="N = "):
        scalar_problem(N=N)


def test_integral_horizon_is_an_int():
    for N in (3, 3.0, np.int64(3), np.float64(3.0)):
        assert type(scalar_problem(N=N, alpha=[1.0, 2.0, 3.0]).N) is int


def test_symmetrization_of_accepted_weights(rng):
    # noise below the symmetry tolerance is absorbed, result is exactly sym
    C = rng.standard_normal((3, 3))
    Q = C.T @ C
    Q_noisy = Q + 1e-12 * rng.standard_normal((3, 3))
    p = ProblemData(A=np.eye(3), B=np.eye(3), G=np.eye(3), Q=Q_noisy,
                    R=np.eye(3), Pf=np.eye(3), N=1, alpha=1.0)
    assert np.array_equal(p.Q, p.Q.T)


def test_default_x0_is_origin():
    p = ProblemData(A=np.eye(2), B=np.eye(2), G=np.eye(2), Q=np.eye(2),
                    R=np.eye(2), Pf=np.eye(2), N=1, alpha=1.0)
    assert np.array_equal(p.x0, np.zeros(2))


def test_problem_data_immutable():
    p = scalar_problem()
    for q in (p, pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        for name in ("A", "B", "G", "Q", "R", "Pf", "alpha", "x0",
                     "F", "C", "Z"):
            assert np.array_equal(getattr(q, name), getattr(p, name))
            with pytest.raises(ValueError):
                getattr(q, name).ravel()[0] = 5.0
    # the problem copies the caller's arrays, which stay writeable and apart
    A = np.array([[0.5]])
    p = ProblemData(A=A, B=1.0, G=1.0, Q=1.0, R=1.0, Pf=1.0, N=1, alpha=1.0)
    A[0, 0] = 2.0
    assert p.A[0, 0] == 0.5 and p.F[0, -1] == 0.5


def test_stage_constants(rng):
    # the constants every backward stage reads, built once per problem;
    # Z is the gain template [0; I]
    p = make_problem(rng, n=3, m=2, q=2)
    assert (p.n, p.m, p.q) == (3, 2, 2)
    expected = {"F": np.hstack([p.B, p.G, p.A]),
                "C": la.block_diag(p.R, np.zeros((p.q, p.q)), p.Q),
                "Z": np.vstack([np.zeros((p.m + p.q, p.n)), np.eye(p.n)])}
    for name, ref in expected.items():
        got = getattr(p, name)
        assert np.array_equal(got, ref), name
        with pytest.raises(ValueError):
            got[0, 0] = 1.0
    # a problem derived with replace rebuilds them from its own weights
    ps = dataclasses.replace(p, Q=2.0 * p.Q)
    assert np.array_equal(ps.C, la.block_diag(p.R, np.zeros((2, 2)), 2.0 * p.Q))
    assert np.array_equal(p.C, expected["C"])


def test_schedule_aggregates():
    p = scalar_problem(N=4, alpha=[0.5, 1.0, 2.0, 0.25])
    assert p.alpha.shape == (4,)
    assert p.alpha_bar == pytest.approx(3.75, rel=1e-14)
    assert isinstance(p.alpha_bar, float)
    assert scalar_problem(N=3, alpha=0.5).alpha_bar == pytest.approx(1.5, rel=1e-14)


def test_schedule_from_alpha_matches_cumsum(rng):
    # The budget of every tail schedule alpha[k:] is its suffix sum.
    alpha = rng.uniform(0.1, 3.0, 7)
    for k in range(7):
        p = scalar_problem(N=7 - k, alpha=alpha[k:])
        assert p.alpha_bar == pytest.approx(alpha[k:].sum(), rel=1e-14)


def test_stage_and_terminal_cost():
    p = scalar_problem(Q=0.2, R=1.0, Pf=0.5)
    assert p.stage_cost(np.array([2.0]), np.array([3.0])) == pytest.approx(
        0.5 * (0.2 * 4 + 9))
    assert p.terminal_cost(np.array([2.0])) == pytest.approx(0.5 * 0.5 * 4)


def test_stabilizability_warning_only():
    # unstable first mode unreachable from B; range(G) stays inside range(B)
    A = np.diag([2.0, 0.5])
    B = np.array([[0.0], [1.0]])
    G = 0.5 * B
    p = ProblemData(A=A, B=B, G=G, Q=np.eye(2), R=np.eye(1), Pf=np.eye(2),
                    N=2, alpha=1.0)
    rep = validate_problem(p)
    assert not rep.stabilizable
    assert any("stabilizability" in w for w in rep.warnings)


def test_detectability_warning_only():
    A = np.diag([2.0, 0.5])
    p = ProblemData(A=A, B=np.eye(2), G=np.eye(2), Q=np.diag([0.0, 1.0]),
                    R=np.eye(2), Pf=np.eye(2), N=2, alpha=1.0)
    rep = validate_problem(p)
    assert not rep.detectable
    assert any("detectability" in w for w in rep.warnings)
    assert not rep.strict_weights


@pytest.mark.parametrize("data, message", [
    (dict(Q=-0.5), "Q positive semidefinite: min eigenvalue -5.000e-01"),
    (dict(Pf=-0.5), "Pf positive semidefinite: min eigenvalue -5.000e-01"),
    (dict(R=0.0), "R positive definite: min eigenvalue 0.000e+00"),
    (dict(B=0.0), "range inclusion: ||(I - B B+) G|| = 1.000e+00"),
    (dict(), "G'Pf G nonzero: ||G'Pf G|| = 0.000e+00")])
def test_hard_checks_name_the_assumption_and_the_detail(data, message):
    # each hard check raises with the text "assumption: detail"
    with pytest.raises(AssumptionViolated) as exc:
        validate_problem(scalar_problem(**data))
    assert str(exc.value) == message


def test_pbh_tests_take_the_eigenvalues_once(monkeypatch):
    # A's eigenvalues are taken once for both PBH tests, which decide as
    # each does alone: A has a mode outside and one on the unit circle
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(1) or eigvals(M))
    A = np.diag([2.0, 1.0, 0.5])
    e1, e23, e3 = np.eye(3)[:, :1], np.array([[0.0], [1.0], [1.0]]), np.eye(3)[:, 2:]
    for B, Q, verdict in ((np.eye(3), np.eye(3), (True, True)),
                          (e23, np.eye(3), (False, True)),
                          (np.eye(3), np.diag([1.0, 0.0, 1.0]), (True, False)),
                          (e3, np.diag([0.0, 0.0, 1.0]), (False, False))):
        G = e1 if B.shape[1] == 3 else 0.5 * B
        p = ProblemData(A=A, B=B, G=G, Q=Q, R=np.eye(B.shape[1]), Pf=np.eye(3),
                        N=2, alpha=1.0)
        del calls[:]
        rep = validate_problem(p)
        assert len(calls) == 1
        assert (rep.stabilizable, rep.detectable) == verdict
        assert type(rep.stabilizable) is bool and type(rep.detectable) is bool


def test_validate_deterministic(rng):
    p = make_problem(rng)
    assert validate_problem(p) == validate_problem(p)


def test_random_instances_validate_clean(rng):
    for _ in range(20):
        rep = validate_problem(make_problem(rng))
        assert not rep.degenerate_terminal
