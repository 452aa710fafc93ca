import copy
import dataclasses
import pickle

import numpy as np
import pytest
import scipy.linalg as la

from stdar import (InfeasibleMultiplier, MultiplierVector, ProblemData,
                   RiccatiSweep, SingularM, control_at, objective,
                   solve_multipliers, sweep, worst_disturbance_at)
from stdar._linalg import top_eig
from stdar.multiplier import _reconstruct
from stdar.riccati import (EPS_BOUNDARY, _nested_pass, _stage_step,
                           project_feasible)
from conftest import assert_same_sweep, fresh, make_problem, scalar_problem
from oracles import (bordered_pass_reference, lqr_recursion, receq_crosscheck,
                     stage_step_reference)


def feasible_lam(p, rng, spread=2.0):
    raw = rng.uniform(0.0, spread, p.N)
    return project_feasible(p, raw, margin=0.05)


def stage_matrix(p, sw, j):
    """M_j in block form, from the sweep's Pi_{j+1} and lam_j."""
    return stage_step_reference(p.A, p.B, p.G, p.Q, p.R, sw.Pi[j + 1],
                                sw.lambdas[j])[1]


def test_hand_evaluated_single_stage():
    # A=B=G=1, Q=0.2, R=1, Pf=1, lam=2:
    #   M = [[2, 1], [1, -1]],  [K; J] = M^{-1} [1; 1] = [2/3; -1/3]
    #   Pi0 = 1.2 - [1 1] [K; J] = 13/15
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=1, alpha=1.0)
    sw = sweep(p, MultiplierVector([2.0]))
    assert stage_matrix(p, sw, 0) == pytest.approx(
        np.array([[2.0, 1.0], [1.0, -1.0]]), abs=1e-14)
    assert sw.K[0][0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert sw.J[0][0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert sw.Pi[0][0, 0] == pytest.approx(13.0 / 15.0, abs=1e-12)
    assert sw.Pi[1][0, 0] == 1.0
    assert sw.bounds[0] == pytest.approx(1.0, abs=1e-14)


def test_zero_dynamics_gives_q(rng):
    p = make_problem(rng, n=3, m=2, q=2, N=4)
    p = type(p)(A=np.zeros((3, 3)), B=p.B, G=p.G, Q=p.Q, R=p.R, Pf=p.Pf,
                N=4, alpha=p.alpha, x0=p.x0)
    lam = feasible_lam(p, rng)
    sw = sweep(p, lam)
    for j in range(4):
        assert sw.Pi[j] == pytest.approx(p.Q, abs=1e-12)


def test_lqr_limit(rng):
    # with a huge multiplier the disturbance channel is priced out
    p = make_problem(rng, n=3, m=2, q=2, N=6)
    sw = sweep(p, MultiplierVector(np.full(6, 1e8)))
    P = p.Pf.copy()
    for _ in range(6):
        K = np.linalg.solve(p.B.T @ P @ p.B + p.R, p.B.T @ P @ p.A)
        P = p.Q + p.A.T @ P @ (p.A - p.B @ K)
        P = 0.5 * (P + P.T)
    assert np.linalg.norm(sw.Pi[0] - P) <= 1e-5 * (1.0 + np.linalg.norm(P))


def test_receq_identity_on_random_sweeps(rng):
    for _ in range(40):
        p = make_problem(rng)
        sw = sweep(p, feasible_lam(p, rng))
        rel = receq_crosscheck(sw, p)
        assert rel <= 1e-8


def test_pi_stays_psd(rng):
    for _ in range(40):
        p = make_problem(rng)
        sw = sweep(p, feasible_lam(p, rng))
        for Pi in sw.Pi:
            assert np.linalg.eigvalsh(Pi)[0] >= -1e-9


def test_m_invertible_on_feasible_interior(rng):
    for _ in range(40):
        p = make_problem(rng)
        sw = sweep(p, feasible_lam(p, rng))
        for j in range(p.N):
            s = np.linalg.svd(stage_matrix(p, sw, j), compute_uv=False)
            assert s[-1] > 1e-12 * s[0]


def test_gain_equations_hold(rng):
    p = make_problem(rng, n=3, m=2, q=2, N=3)
    sw = sweep(p, feasible_lam(p, rng))
    for j in range(3):
        S = sw.Pi[j + 1]
        rhs = np.vstack([p.B.T @ S @ p.A, p.G.T @ S @ p.A])
        KJ = np.vstack([sw.K[j], sw.J[j]])
        M = stage_matrix(p, sw, j)
        assert np.linalg.norm(M @ KJ - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))


def test_monotone_domain(rng):
    # moving the multipliers outward keeps the sweep feasible
    for _ in range(10):
        p = make_problem(rng)
        lam = feasible_lam(p, rng)
        sweep(p, lam)
        bigger = MultiplierVector(lam.lambdas + rng.uniform(0.0, 3.0, p.N))
        sweep(p, bigger)


def test_infeasible_multiplier_raises():
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=1, alpha=1.0)
    with pytest.raises(InfeasibleMultiplier):
        sweep(p, MultiplierVector([0.5]))  # bound is 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.filterwarnings("error")
def test_non_finite_multipliers_raise_typed_errors(rng, bad):
    # numpy's LAPACK routines do not reject non-finite input, so each entry
    # point rejects it up front, naming the entry, before any stage step
    # and with no numpy warning
    p = make_problem(rng, n=2, m=2, q=1, N=3)
    for stage in (0, 1):
        lam = feasible_lam(p, rng).lambdas.copy()
        lam[stage] = bad
        name = f"lam_{stage} = {bad} is not finite"
        with pytest.raises(InfeasibleMultiplier, match=name):
            sweep(p, MultiplierVector(lam))
        with pytest.raises(InfeasibleMultiplier, match=name):
            project_feasible(p, lam)
        with pytest.raises(InfeasibleMultiplier, match=name):
            solve_multipliers(p, p.x0, init=lam)


def test_sweep_length_checked():
    p = scalar_problem(N=3)
    with pytest.raises(ValueError, match="stages"):
        sweep(p, MultiplierVector([2.0, 2.0]))
    with pytest.raises(ValueError):
        sweep(p, MultiplierVector([2.0, 2.0], stage_offset=2))
    with pytest.raises(ValueError, match="stages"):
        solve_multipliers(p, p.x0, init=[2.0, 2.0])


def test_stage_offset_outside_horizon_raises():
    # a vector must start at a stage 0 <= k < N: one that starts before
    # stage 0, or one with no entries at stage N, is rejected by sweep and
    # so by every caller of it, and by the projection and the solve, before
    # any stage step
    p = scalar_problem(N=3)
    x, u = p.x0, np.zeros(p.m)
    for lam in (MultiplierVector(np.full(p.N + 1, 5.0), stage_offset=-1),
                MultiplierVector(np.zeros(0), stage_offset=p.N)):
        k = lam.stage_offset
        with pytest.raises(ValueError, match="outside horizon"):
            project_feasible(p, lam.lambdas, stage_offset=k)
        with pytest.raises(ValueError, match="outside horizon"):
            sweep(p, lam)
        with pytest.raises(ValueError, match="outside horizon"):
            control_at(p, x, k, lam)
        with pytest.raises(ValueError, match="outside horizon"):
            worst_disturbance_at(p, x, k, lam, u)
        with pytest.raises(ValueError, match="outside horizon"):
            objective(p, lam, x, k)
        with pytest.raises(ValueError, match="outside horizon"):
            solve_multipliers(p, x, k)


def test_project_feasible_single_stage():
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=1, alpha=1.0)
    lam = project_feasible(p, [0.0], margin=1e-3)
    assert lam.lambdas[0] == pytest.approx(1.0 + 1e-3, abs=1e-14)


def test_project_feasible_idempotent_on_feasible(rng):
    p = make_problem(rng)
    lam = feasible_lam(p, rng)
    again = project_feasible(p, lam.lambdas, margin=1e-9)
    assert np.array_equal(again.lambdas, lam.lambdas)


def test_project_feasible_two_stage_chain():
    # lam1 raised to ||G'Pf G|| + margin, then lam0 to ||G'Pi1 G|| + margin
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=2, alpha=1.0)
    margin = 1e-3
    lam = project_feasible(p, [0.0, 0.0], margin=margin)
    assert lam.lambdas[1] == pytest.approx(1.0 + margin, abs=1e-14)
    sw = sweep(p, lam)
    assert lam.lambdas[0] == pytest.approx(sw.Pi[1][0, 0] + margin, abs=1e-12)


def test_project_output_always_sweepable(rng):
    # the one-pass projected sweep is the sweep of the projection, and the
    # slack pass the sweep of its multipliers, bit for bit
    for _ in range(20):
        p = make_problem(rng)
        k = int(rng.integers(1, p.N))
        passes = []
        for offset, raw in ((0, rng.uniform(-1.0, 1.0, p.N)),
                            (0, np.full(p.N, -1.0)),  # all below their bounds
                            (k, rng.uniform(-1.0, 1.0, p.N - k)),
                            (k, np.zeros(p.N - k))):
            lam = project_feasible(p, raw, stage_offset=offset)
            one, _ = _nested_pass(p, raw, offset, EPS_BOUNDARY)
            assert np.array_equal(one.lambdas, lam.lambdas)
            passes.append((offset, one))
        for offset in (0, k):
            # slacks at zero (bound active) and above it
            size = p.N - offset
            s = np.where(rng.random(size) < 0.5, 0.0, rng.uniform(0.0, 1.0, size))
            passes.append((offset, _reconstruct(p, s, offset)[0]))
        for offset, one in passes:
            assert one.stage_offset == offset
            assert_same_sweep(one, sweep(p, fresh(one)))  # must not raise


def test_resumed_pass_matches_full_pass(rng):
    # a slack pass resumed from an earlier pass steps only the stages from
    # the last one where bounds + eps_boundary + slack differs from the
    # earlier multiplier down, and equals the full pass of its slacks bit
    # for bit, its link to itself included. The earlier pass may be a
    # slack pass, where that is the last changed slack, or a warm start's
    # pass from raw multipliers
    warm_resumed = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.choice([v for v in (1, 2, 3) if v != n]))
        p = make_problem(rng, n=n, m=m, q=int(rng.integers(1, 4)))
        k = int(rng.integers(0, p.N))
        size = p.N - k
        s = np.where(rng.random(size) < 0.5, 0.0, rng.uniform(0.0, 1.0, size))
        base, steps = _reconstruct(p, s, k)
        assert steps == size
        warm, _ = _nested_pass(p, rng.uniform(0.0, 3.0, size), k, EPS_BOUNDARY)
        s_warm = np.maximum(warm.lambdas - warm.bounds - EPS_BOUNDARY,
                            0.0)
        for changed in ([0], [size - 1], [], list(range(size)),
                        list(np.flatnonzero(rng.random(size) < 0.5))):
            for start, s0 in ((base, s), (warm, s_warm)):
                cand = s0.copy()
                cand[changed] += rng.uniform(0.01, 1.0, len(changed))
                full, full_steps = _reconstruct(p, cand, k)
                one, steps = _reconstruct(p, cand, k, start)
                differ = np.flatnonzero(start.bounds + EPS_BOUNDARY + cand
                                        != start.lambdas)
                assert full_steps == size
                assert steps == (differ[-1] + 1 if differ.size else 0)
                if start is base:
                    assert steps == (max(changed) + 1 if changed else 0)
                else:
                    warm_resumed += steps < size
                assert_same_sweep(one, full)
                assert np.array_equal(one._eigvecs, full._eigvecs)
                assert np.array_equal(one.K, full.K)
                assert np.array_equal(one.J, full.J)
                assert sweep(p, one) is one
    assert warm_resumed > 0


def test_pass_decides_which_stages_it_repeats(rng):
    # given a base, a pass evaluates its own stage rule over the base's
    # bounds and copies the stages above the last one that differs. The
    # full pass is the oracle: stage j of it repeats the base exactly
    # where no multiplier from j up differs, so the resumed pass steps the
    # stages from the last differing multiplier down, equals the full pass
    # bit for bit, and hands back the base itself where none differs.
    # Bases and resumed passes are slack, margin and sweep passes, each
    # resumed from its own base with one stage's input changed, and from
    # every other base.
    eps = EPS_BOUNDARY
    partial = 0
    for _ in range(150):
        p = make_problem(rng, N=int(rng.integers(1, 9)))
        k = int(rng.integers(0, p.N))
        size = p.N - k
        s = np.where(rng.random(size) < 0.5, 0.0, rng.uniform(0.0, 1.0, size))
        feasible = _nested_pass(p, rng.uniform(0.0, 3.0, size), k, eps)[0]
        programs = [  # (raw, margin, slack)
            (np.full(size, -np.inf), eps, s),
            (rng.uniform(0.0, 3.0, size), eps, None),
            (feasible.lambdas + rng.uniform(0.0, 1.0, size), -np.inf, None)]
        bases = []
        for raw, margin, slack in programs:
            base, steps = _nested_pass(p, raw, k, margin, slack)
            assert steps == size
            again, steps = _nested_pass(p, raw, k, margin, slack, base)
            assert again is base and steps == 0
            i = int(rng.integers(0, size))
            raw, slack = raw.copy(), None if slack is None else slack.copy()
            if slack is None:  # above the rule's floor, so lam_i moves
                raw[i] = base.lambdas[i] + rng.uniform(0.01, 1.0)
            else:
                slack[i] += rng.uniform(0.01, 1.0)
            one, steps = _nested_pass(p, raw, k, margin, slack, base)
            assert steps == i + 1
            assert_same_sweep(one, _nested_pass(p, raw, k, margin, slack)[0])
            assert sweep(p, one) is one
            bases.append(base)
        # the slack pass at the slacks each base's multipliers read as
        programs += [(np.full(size, -np.inf), eps,
                      np.maximum(b.lambdas - b.bounds - eps, 0.0))
                     for b in bases]
        for raw, margin, slack in programs:
            full, _ = _nested_pass(p, raw, k, margin, slack)
            for base in bases:
                one, steps = _nested_pass(p, raw, k, margin, slack, base)
                differ = np.flatnonzero(full.lambdas != base.lambdas)
                assert steps == (differ[-1] + 1 if differ.size else 0)
                assert (one is base) == (steps == 0)
                assert_same_sweep(one, full)
                partial += 0 < steps < size
    assert partial > 0


def test_sweep_reuses_linked_pass(rng):
    # a pass of p is a multiplier vector that sweep(p, .) hands back as
    # itself; a twin of p, a copy or a pickle runs the pass again and
    # agrees bit for bit
    for _ in range(5):
        p = make_problem(rng)
        k = int(rng.integers(0, p.N))
        lam = solve_multipliers(p, rng.standard_normal(p.n), k=k).lam_star
        assert isinstance(lam, RiccatiSweep) and isinstance(lam, MultiplierVector)
        assert sweep(p, lam) is lam
        ref = sweep(p, fresh(lam))
        assert ref is not lam
        again = sweep(dataclasses.replace(p), lam)
        assert again is not lam
        for other in (ref, again):
            assert_same_sweep(other, lam)
        # a pickled or copied pass is a plain vector, and still sweeps
        for twin_lam in (pickle.loads(pickle.dumps(lam)), copy.deepcopy(lam)):
            assert type(twin_lam) is MultiplierVector
            assert np.array_equal(twin_lam.lambdas, lam.lambdas)
            assert twin_lam.stage_offset == k
            assert_same_sweep(sweep(p, twin_lam), lam)

        # a multiplier 5e-4 below its bound is infeasible, whether a pass
        # sets it there (margin -5e-4) or a vector brings it
        lams = ref.lambdas.copy()
        lams[-1] = ref.bounds[-1] - 5e-4
        errors = []
        for call in (lambda: _nested_pass(p, np.full(p.N - k, -np.inf), k, -5e-4),
                     lambda: sweep(p, MultiplierVector(lams, k))):
            with pytest.raises(InfeasibleMultiplier) as err:
                call()
            errors.append(str(err.value))
        assert errors[0] == errors[1]


def test_only_the_recursion_makes_a_pass(rng):
    # sweep hands a pass of p back unchecked, so a pass is made by the
    # recursion alone: building or replacing one by hand (with a NaN
    # multiplier, say) raises TypeError, and setting or deleting an
    # attribute of a pass raises FrozenInstanceError. A copy or pickle is
    # a plain vector that sweeps again bit for bit. Equality is identity,
    # so vectors and passes compare and hash without comparing arrays, and
    # a pass's repr shows its multipliers, not its stacked arrays
    p = make_problem(rng, N=3)
    lam = solve_multipliers(p, p.x0).lam_star
    with pytest.raises(TypeError, match="made by a pass"):
        RiccatiSweep(lambdas=[np.nan, 1.0, 1.0], stage_offset=0)
    with pytest.raises(TypeError, match="made by a pass"):
        dataclasses.replace(lam, lambdas=[np.nan, 1.0, 1.0])
    for twin in (copy.copy(lam), pickle.loads(pickle.dumps(lam))):
        assert type(twin) is MultiplierVector
        assert_same_sweep(sweep(p, twin), lam)
    other = solve_multipliers(p, p.x0).lam_star
    for a, b in ((fresh(lam), fresh(lam)), (lam, other)):
        assert a == a and a != b
        assert len({a, b, a}) == 2
    assert "Pi=" not in repr(lam)
    for name in ("Pi", "_problem", "lambdas"):  # nor changed after it is made
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lam, name, getattr(lam, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(lam, name)


def test_project_feasible_singular_stage_zero_raises():
    # the projection steps stage 0 too: with G'Pf G = 0 and margin 0 the
    # multiplier lands on lam_0 = 0 and M = [[B'Pf B + R, 0], [0, 0]]
    p = scalar_problem(Pf=0.0, N=1)
    with pytest.raises(SingularM, match="singular"):
        project_feasible(p, [0.0], margin=0.0)


def test_sweep_is_stacked(rng):
    # one array per quantity, stacked over the stages; K and J are the
    # first m and last q rows of one gain buffer, _gains, in full, resumed and
    # reused passes alike. Every array is read-only, so a sweep handed
    # back or shared as a base cannot change under a later decision
    for _ in range(20):
        p = make_problem(rng)
        k = int(rng.integers(0, p.N))
        size, d = p.N - k, p.m + p.q
        s = rng.uniform(0.0, 1.0, size)
        full, _ = _reconstruct(p, s, k)
        cand = s.copy()
        cand[0] += 0.5
        resumed, steps = _reconstruct(p, cand, k, full)
        assert steps == 1
        for sw in (full, resumed, sweep(p, full),
                   sweep(p, fresh(full))):
            assert sw.Pi.shape == (size + 1, p.n, p.n)
            assert sw.K.shape == (size, p.m, p.n)
            assert sw.J.shape == (size, p.q, p.n)
            gains = sw.K.base
            assert gains is not None and gains is sw.J.base is sw._gains
            assert gains.shape == (size, d, p.n)
            assert np.shares_memory(gains, sw.K) and np.shares_memory(gains, sw.J)
            assert np.array_equal(gains[:, :p.m], sw.K)
            assert np.array_equal(gains[:, p.m:], sw.J)
            assert np.array_equal(sw.Pi[-1], p.Pf)
            for name in ("Pi", "K", "J", "bounds", "_eigvals", "_eigvecs"):
                assert not getattr(sw, name).flags.writeable, name
            assert not gains.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                sw.Pi[-1] += 1.0
        # a resumed pass copies its base's stages, it does not share them
        assert not np.shares_memory(resumed.Pi, full.Pi)
        assert not np.shares_memory(resumed.K.base, full.K.base)


def test_stage_offset_bookkeeping():
    p = scalar_problem(N=4, Pf=1.0)
    lam = project_feasible(p, np.zeros(2), margin=0.1, stage_offset=2)
    sw = sweep(p, lam)
    assert sw.stage_offset == 2
    assert len(sw) == 2
    assert len(sw.Pi) == 3
    assert sw.Pi[-1][0, 0] == 1.0


def test_degenerate_terminal_sweep(rng):
    # Pf = 0 keeps the recursion valid; last-stage bound is zero
    p = make_problem(rng, n=2, m=2, q=1, N=3, degenerate_pf=True)
    lam = project_feasible(p, np.ones(3), margin=0.05)
    sw = sweep(p, lam)
    assert sw.bounds[-1] == 0.0
    for Pi in sw.Pi:
        assert np.linalg.eigvalsh(Pi)[0] >= -1e-9


def test_nested_pass_matches_block_stage_oracle(rng):
    # every stage of the pass, from its own Pi_{j+1}, against the block
    # form of M and the right-hand side, on m != n and q = 1, 2, 3: Pi_j,
    # the gains and the bound (the pass keeps no M_j)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.choice([v for v in range(1, 5) if v != n]))
        p = make_problem(rng, n=n, m=m, q=int(rng.integers(1, 4)))
        s = rng.uniform(0.05, 2.0, p.N)
        sw, _ = _nested_pass(p, np.full(p.N, -np.inf), 0, EPS_BOUNDARY, s)
        assert np.array_equal(sw.Pi[-1], p.Pf)
        for j in range(p.N):
            Pi, _, K, J, top = stage_step_reference(p.A, p.B, p.G, p.Q, p.R,
                                                    sw.Pi[j + 1], sw.lambdas[j])
            got = (sw.Pi[j], sw.K[j], sw.J[j], sw.bounds[j])
            for a, b in zip(got, (Pi, K, J, top)):
                err = np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)
                worst = max(worst, err)
    assert worst <= 1e-12, worst


def test_pass_stores_each_stage_eigendecomposition(rng):
    # every stage keeps all eigenpairs of sym(G'Pi_{j+1}G) once: values
    # ascending, unit eigenvectors as rows, [[1]] at q = 1, and the bounds
    # are the view of the top values, not a copy
    for _ in range(60):
        p = make_problem(rng, q=int(rng.integers(1, 4)))
        s = rng.uniform(0.05, 2.0, p.N)
        sw, _ = _nested_pass(p, np.full(p.N, -np.inf), 0, EPS_BOUNDARY, s)
        assert sw._eigvals.shape == (p.N, p.q)
        assert sw._eigvecs.shape == (p.N, p.q, p.q)
        assert sw.bounds.base is sw._eigvals
        assert np.array_equal(sw.bounds, sw._eigvals[:, -1])
        for j in range(p.N):
            GPG = p.G.T @ sw.Pi[j + 1] @ p.G
            w, U = sw._eigvals[j], sw._eigvecs[j]
            scale = 1.0 + np.abs(GPG).max()
            assert np.all(np.diff(w) >= 0.0)
            assert np.abs(U @ U.T - np.eye(p.q)).max() <= 1e-14
            assert np.abs(U @ (0.5 * (GPG + GPG.T)) - w[:, None] * U).max() <= 1e-12 * scale
            # eigpairs takes the G block of the bordered H unsymmetrized:
            # it is exactly symmetric. H rebuilt with the pass's arithmetic
            X = p.F.T @ (sw.Pi[j + 1] @ p.F)
            H = 0.5 * (X + X.T) + p.C
            Hg = H[p.m:p.m + p.q, p.m:p.m + p.q]
            assert np.array_equal(Hg, Hg.T)
            if p.q == 1:
                assert U[0, 0] == 1.0 and w[0] == H[p.m, p.m]


def bordered(p, S, lam):
    """A stage step's input as the pass hands it over: H = sym(F'SF) +
    blockdiag(R, 0, Q) with F = [B G A], shifted by -lam on the G block's
    diagonal, and the gain template [0; I]."""
    F = np.hstack([p.B, p.G, p.A])
    H = F.T @ S @ F
    H = 0.5 * (H + H.T) + la.block_diag(p.R, np.zeros((p.q, p.q)), p.Q)
    for r in range(p.m, p.m + p.q):
        H[r, r] -= lam
    return H, np.vstack([np.zeros((p.m + p.q, p.n)), np.eye(p.n)])


def step(p, H, Z, lam):
    """_stage_step as the pass calls it: with the views M and rhs of H, the
    template Z and its top block, and an (m+q+n) x n slot for H Z.
    Returns (Pi_j, [K; J], the slot)."""
    d = p.m + p.q
    out = np.empty((d + p.n, p.n))
    KJ = _stage_step(H, H[:d, :d], H[:d, d:], Z, Z[:d], out, lam)
    return out[d:], KJ, out


def full_check_accepts(p, H, lam):
    """The stage step's check evaluated whole, from a copy of its shifted
    H: ||M KJ - rhs||_F <= 1e-8 (1 + ||rhs||_F + max|M| ||KJ||_F) with the
    residual from H [KJ; -I], and False where the solve fails. Returns
    (accepted, resid)."""
    H, d = H.copy(), p.m + p.q
    M, rhs = H[:d, :d], H[:d, d:]
    try:
        KJ = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return False, np.nan
    resid = np.linalg.norm((H @ np.vstack([KJ, -np.eye(p.n)]))[:d])
    scale = 1.0 + np.linalg.norm(rhs) + np.abs(M).max() * np.linalg.norm(KJ)
    return bool(resid <= 1e-8 * scale), resid


def step_accepts(p, H, Z, lam):
    try:
        step(p, H.copy(), Z.copy(), lam)
    except SingularM:
        return False
    return True


def test_stage_check_decides_as_the_full_formula(rng):
    # the step tests its residual against 1e-8 before it forms the scale;
    # it accepts and rejects what the whole formula does: random stages,
    # stages with lam just above the bound b, stages with entries of
    # 1e6-1e8, whose residuals exceed 1e-8 while the scale accepts them,
    # and a NaN or inf in Pi_{j+1}
    full_path = 0
    for trial in range(600):
        p = make_problem(rng)
        E = rng.standard_normal((p.n, p.n))
        S = E.T @ E
        if trial % 3 == 2:
            S *= 10.0 ** rng.uniform(6.0, 8.0)
        b = top_eig(p.G.T @ S @ p.G)
        lam = (b + rng.uniform(0.01, 2.0) * (1.0 + b) if trial % 3 != 1
               else b * (1.0 + 10.0 ** -rng.uniform(1.0, 16.0)))
        H, Z = bordered(p, S, lam)
        accepted, resid = full_check_accepts(p, H, lam)
        assert step_accepts(p, H, Z, lam) == accepted
        full_path += accepted and resid > 1e-8
    assert full_path >= 20
    for bad in (np.nan, np.inf, -np.inf):
        for _ in range(20):
            p = make_problem(rng, n=int(rng.integers(2, 4)))
            S = np.eye(p.n)
            i, j = rng.integers(0, p.n, 2)
            S[i, j] = S[j, i] = bad
            with np.errstate(invalid="ignore"):  # inf * 0 in the products
                H, Z = bordered(p, S, 10.0)
                assert not full_check_accepts(p, H, 10.0)[0]
                assert not step_accepts(p, H, Z, 10.0)


def test_stage_solve_matches_scipy(rng):
    # the stage step solves M [K; J] = rhs with numpy.linalg: its gains
    # agree with scipy.linalg.solve's to within the conditioning of M, and
    # its residual is at rounding level. The product that gives the
    # residual also gives Pi_j = Q + A'SA - rhs'[K; J]: the template's top
    # block holds -[K; J], its identity block stays, and H is not changed
    for _ in range(200):
        p = make_problem(rng)
        E = rng.standard_normal((p.n, p.n))
        S = E.T @ E
        lam = top_eig(p.G.T @ S @ p.G) + rng.uniform(0.01, 2.0)
        H, Z = bordered(p, S, lam)
        H0, d = H.copy(), p.m + p.q
        Pi, KJ, out = step(p, H, Z, lam)
        assert np.array_equal(H, H0)
        assert np.array_equal(Z[:d], -KJ) and np.array_equal(Z[d:], np.eye(p.n))
        M = H[:d, :d]  # the stage matrix
        rhs = np.vstack([p.B.T @ S @ p.A, p.G.T @ S @ p.A])
        assert np.array_equal(out, H @ Z)  # [rhs - M [K; J]; Pi_j]
        ref = la.solve(M, rhs, assume_a="sym")
        scale = np.linalg.norm(M) * np.linalg.norm(ref) + np.linalg.norm(rhs)
        assert np.linalg.norm(KJ - ref) <= (
            1e-13 * np.linalg.cond(M) * np.linalg.norm(ref))
        assert np.linalg.norm(M @ KJ - rhs) <= 1e-14 * scale
        Pi_ref = p.Q + p.A.T @ S @ p.A - rhs.T @ KJ
        assert np.linalg.norm(Pi - Pi_ref) <= 1e-12 * (
            1.0 + np.linalg.norm(p.Q) + np.linalg.norm(p.A.T @ S @ p.A)
            + np.linalg.norm(rhs.T @ KJ))
    # an exactly singular stage matrix is a typed failure, not LinAlgError:
    # A = B = G = R = 1, S = 1 and lam = 0.5 give M = [[2, 1], [1, 0.5]]
    p = scalar_problem(A=1, B=1, G=1, R=1)
    with pytest.raises(SingularM, match="singular"):
        step(p, *bordered(p, np.ones((1, 1)), 0.5), 0.5)
    # so is a non-finite Pi_{j+1}, which numpy's solve does not detect
    p = make_problem(rng, n=2)
    S = np.eye(2)
    S[0, 1] = S[1, 0] = np.nan
    with pytest.raises(SingularM):
        step(p, *bordered(p, S, 10.0), 10.0)


def test_pass_is_the_bordered_formula_bit_for_bit(rng):
    # the halved product F'(Pi (F/2)), the [0; I] template and the bound
    # read off H at q = 1 change no bit: every array full and resumed slack
    # passes and warm passes store equals, exactly, the pass written in
    # the bordered form's first arithmetic, at q = 1, 2 and 3 and n = 1-4
    for trial in range(150):
        p = make_problem(rng, n=int(rng.integers(1, 5)), q=trial % 3 + 1)
        k = int(rng.integers(0, p.N))
        size = p.N - k
        s = rng.uniform(0.0, 1.0, size)
        cand = s.copy()
        cand[int(rng.integers(0, size))] += 0.5
        full, _ = _reconstruct(p, s, k)
        resumed, _ = _reconstruct(p, cand, k, full)
        raw = rng.uniform(0.0, 3.0, size)
        warm, _ = _nested_pass(p, raw, k, EPS_BOUNDARY)
        lower = np.full(size, -np.inf)
        for sw, args in ((full, (lower, EPS_BOUNDARY, s)),
                         (resumed, (lower, EPS_BOUNDARY, cand)),
                         (warm, (raw, EPS_BOUNDARY))):
            Pi, KJ, vals, vecs, lam = bordered_pass_reference(p, *args)
            assert np.array_equal(sw.Pi, Pi)
            assert np.array_equal(sw._gains, KJ)
            assert np.array_equal(sw.K, KJ[:, :p.m])
            assert np.array_equal(sw.J, KJ[:, p.m:])
            assert np.array_equal(sw.bounds, vals[:, -1])
            assert np.array_equal(sw._eigvals, vals)
            assert np.array_equal(sw._eigvecs, vecs)
            assert np.array_equal(sw.lambdas, lam)


def test_overflowing_pass_raises_singular_m():
    # a recursion that overflows is a typed failure, which Online.run and
    # rollout catch: at Pf = 1e307 the last stage's A'Pi A overflows, so
    # its Pi is not finite and the next stage's G'Pi G fails the finiteness
    # test; with one stage no later stage reads that Pi, and the pass tests
    # Pi_k itself. (At Pf = 1e306 the halved product F'(Pi (F/2)) stays
    # finite.)
    with np.errstate(over="ignore", invalid="ignore"):
        for q in (1, 2):
            eye = np.eye(q)
            for N, match in ((3, "G'Pi G not finite at stage 1"),
                             (1, "Pi not finite at stage 0")):
                p = ProblemData(A=10.0 * eye, B=eye, G=eye, Q=eye, R=eye,
                                Pf=1e307 * eye, N=N, alpha=1.0)
                with pytest.raises(SingularM, match=match):
                    solve_multipliers(p, np.ones(q))
                with pytest.raises(SingularM, match="not finite"):
                    sweep(p, MultiplierVector(np.full(N, 1e308)))
