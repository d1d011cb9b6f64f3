"""Involution-linear algebra: fix spaces, kernel/range solves, versality,
and the interleaved nilpotent frame."""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from conftest import MU0, OMEGA0, make_golden_family
from kamrev.errors import NotAntiInvariant, NotInvolutive, Obstruction
from kamrev.revmat import (RANK_RTOL, InvolutionStructure, MiniversalNilpotent,
                           RevMatrix, Unfolding, is_versal, kernel_condition,
                           orbit_tangent, solve_fix_range)


def in_fix_plus(inv, v, tol=1e-10):
    """R v = v, to tol relative to 1 + |v|."""
    return np.linalg.norm(inv.R @ v - v) <= tol * (1.0 + np.linalg.norm(v))


def block_inv(p):
    return InvolutionStructure(np.diag([1.0] * p + [-1.0] * p))


def random_gl_minus(rng, inv):
    return sum(float(c) * E for c, E in
               zip(rng.standard_normal(inv.gl_minus_dim()), inv.gl_minus_basis()))


def test_involution_structure_dims_and_parity():
    rng = np.random.default_rng(0)
    for p in (1, 2, 3):
        inv = block_inv(p)
        assert inv.dim_plus == p and inv.dim_minus == p
        assert inv.gl_minus_dim() == 2 * p * p
        for E in inv.gl_minus_basis():
            assert np.allclose(inv.R @ E + E @ inv.R, 0, atol=1e-12)
        for E in inv.gl_plus_basis():
            assert np.allclose(inv.R @ E - E @ inv.R, 0, atol=1e-12)
    # a non-orthogonal involution still splits correctly
    V = np.array([[1.0, 0.3], [0.0, 1.0]])
    R = V @ np.diag([1.0, -1.0]) @ np.linalg.inv(V)
    inv = InvolutionStructure(R)
    assert inv.dim_plus == 1 and inv.dim_minus == 1
    assert in_fix_plus(inv, V[:, 0]) and inv.in_fix_minus(V[:, 1])
    with pytest.raises(NotInvolutive):
        InvolutionStructure(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_rev_matrix_enforces_anticommutation():
    inv = block_inv(1)
    RevMatrix(np.array([[0.0, 2.0], [3.0, 0.0]]), inv)
    with pytest.raises(NotAntiInvariant):
        RevMatrix(np.eye(2), inv)


def _projector(B):
    return B @ B.T


@st.composite
def frames(draw):
    """P D P^-1 with D = diag(+-1) and cond(P) <= 19: (N, dim Fix R, P)."""
    N = draw(st.integers(1, 6))
    dp = draw(st.integers(0, N))
    bound = 0.9 / N                   # keeps |P - I|_2 <= 0.9
    M = draw(st.lists(st.floats(-bound, bound), min_size=N * N, max_size=N * N))
    return N, dp, np.eye(N) + np.reshape(M, (N, N))


@settings(max_examples=60, deadline=None)
@given(frames())
def test_eigenspace_bases_of_drawn_involutions(frame):
    N, dp, P = frame
    R = P @ np.diag([1.0] * dp + [-1.0] * (N - dp)) @ np.linalg.inv(P)
    inv = InvolutionStructure(R)
    assert (inv.dim_plus, inv.dim_minus) == (dp, N - dp)
    for B, sign, A in ((inv.fix_plus, 1.0, np.eye(N) + R), (inv.fix_minus, -1.0, np.eye(N) - R)):
        assert np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-12)
        assert np.allclose(R @ B, sign * B, atol=1e-10)
        # the same subspace as scipy's orth, which LAPACK builds may order
        # differently; scipy reads the rounding noise of a zero projector as rank
        if B.shape[1]:
            assert np.allclose(_projector(B), _projector(scipy.linalg.orth(0.5 * A, rcond=1e-10)),
                               atol=1e-12)


def drawn_reversible(frame, data):
    """An involution R = P D P^-1 and a Q anti-commuting with it, which maps
    Fix R to Fix(-R) by B and back by A; its first `dead` Fix R directions lie
    in ker Q.  Returns (inv, Q, B)."""
    N, dp, P = frame
    dm = N - dp
    inv = InvolutionStructure(P @ np.diag([1.0] * dp + [-1.0] * dm) @ np.linalg.inv(P))
    dead = data.draw(st.integers(0, dp))
    A, B = (np.reshape(data.draw(st.lists(st.floats(-1, 1), min_size=r * c, max_size=r * c)),
                       (r, c)) for r, c in ((dp, dm), (dm, dp)))
    B[:, :dead] = 0.0
    Q = P @ np.block([[np.zeros((dp, dp)), A], [B, np.zeros((dm, dm))]]) @ np.linalg.inv(P)
    return inv, Q, B


def clear_of_threshold(*pairs):
    """Each matrix's singular values, over its scale, are far from the rank
    threshold: a decision near it could go either way on another LAPACK build."""
    return all(np.all((s < 1e-12) | (s > 1e-6)) for s in
               (np.linalg.svd(M, compute_uv=False) / np.linalg.norm(S, 2) for M, S in pairs))


@settings(max_examples=60, deadline=None)
@given(frames(), st.data())
def test_kernel_condition_agrees_with_scipy_null_spaces(frame, data):
    N, dp, P = frame
    assume(dp and N - dp)
    inv, Q, B = drawn_reversible(frame, data)
    assume(np.linalg.norm(Q, 2) > 0)  # the rank decisions below are made on Q's scale
    ker = scipy.linalg.null_space(Q, rcond=RANK_RTOL)
    C = np.hstack([ker, -inv.fix_plus])
    assume(clear_of_threshold((Q, Q), (Q @ inv.fix_plus, Q), (B, Q), (C, C)))
    report = kernel_condition(RevMatrix(Q, inv))
    # ker Q meets Fix R nontrivially exactly when [ker Q | -fix_plus] has a null space
    assert report.ok == (scipy.linalg.null_space(C, rcond=RANK_RTOL).shape[1] == 0)
    assert report.kernel_dim == ker.shape[1]
    # in the frame P, Q restricted to Fix R is B: one-to-one or onto as B is
    rank_B = np.count_nonzero(np.linalg.svd(B, compute_uv=False) > 1e-6 * np.linalg.norm(Q, 2))
    assert report.ok == (rank_B == dp) and report.epimorphism == (rank_B == N - dp)
    if not report.ok:
        v = report.violation
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12 and in_fix_plus(inv, v)
        assert np.linalg.norm(Q @ v) <= RANK_RTOL * np.linalg.norm(Q, 2)


@settings(max_examples=60, deadline=None)
@given(frames(), st.data())
def test_rank_decisions_do_not_depend_on_the_scale_of_q(frame, data):
    """kernel_condition and orbit_tangent judge rank on Q's own scale, so a
    power-of-two multiple of Q gets the same answers, however small or large."""
    N, dp, P = frame
    assume(dp and N - dp)
    inv, Q, _ = drawn_reversible(frame, data)
    # c Q then keeps its largest entries normal for every c below
    assume(np.linalg.norm(Q, 2) > 2.0 ** -20)
    orbit = np.stack([(E @ Q - Q @ E).ravel() for E in inv.gl_plus_basis()], axis=1)
    assume(clear_of_threshold((Q, Q), (Q @ inv.fix_plus, Q), (orbit, orbit)))

    def decisions(c):
        Qc = RevMatrix(c * Q, inv)
        report = kernel_condition(Qc)
        return report.ok, report.epimorphism, report.kernel_dim, orbit_tangent(Qc)[1]

    reference = decisions(1.0)
    for c in (2.0 ** -1000, 2.0 ** -500, 2.0 ** 500):
        assert decisions(c) == reference, c


def test_kernel_condition_counts_a_subnormal_kernel_on_the_matrix_scale():
    """The draw A = [[0]], B = [[2.225073858507e-311]] on the frame (2, 1,
    P = I), dead 0: B has full rank on Q's own scale, so ker Q is one
    direction and misses Fix R, however small Q is."""
    inv = InvolutionStructure(np.diag([1.0, -1.0]))
    Q = np.array([[0.0, 0.0], [2.225073858507e-311, 0.0]])
    report = kernel_condition(RevMatrix(Q, inv))
    assert report.ok and report.kernel_dim == 1


def test_kernel_condition_reads_a_small_q_on_its_own_scale():
    """Q = 1e-12 [[0, 1], [1, 0]] maps Fix R one-to-one onto Fix(-R), each of
    dimension 1, however small it is."""
    report = kernel_condition(RevMatrix(1e-12 * np.array([[0.0, 1.0], [1.0, 0.0]]), block_inv(1)))
    assert report.ok and report.epimorphism and report.kernel_dim == 0


def test_orbit_codim_of_a_subnormal_q_is_read_on_its_own_scale():
    """The orbit of Q = 2.225073858507e-311 [[0, 1], [2, 0]] under R = diag(1, -1)
    has codimension 1 in gl_minus, as it has for [[0, 1], [2, 0]] itself."""
    Q = 2.225073858507e-311 * np.array([[0.0, 1.0], [2.0, 0.0]])
    assert orbit_tangent(RevMatrix(Q, block_inv(1)))[1] == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_matrices_are_refused(bad):
    inv = block_inv(1)
    for R in (np.array([[1.0, 0.0], [0.0, bad]]), np.full((2, 2), bad), np.array([[bad]])):
        with pytest.raises(NotInvolutive):
            InvolutionStructure(R)
    for Q in (np.array([[0.0, bad], [1.0, 0.0]]), np.full((2, 2), bad)):
        with pytest.raises(NotAntiInvariant):
            RevMatrix(Q, inv)
    with pytest.raises(NotAntiInvariant):
        RevMatrix(np.array([[bad]]), InvolutionStructure(np.eye(1)))
    base = RevMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]), inv)
    with pytest.raises(NotAntiInvariant):
        Unfolding(base, [np.array([[0.0, bad], [0.0, 0.0]])])


def test_kernel_condition_cases():
    inv = block_inv(1)
    ok = kernel_condition(RevMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]), inv))
    assert ok.ok and ok.epimorphism and ok.kernel_dim == 0

    # kernel equal to Fix(-R): still fine, restriction stays bijective
    benign = kernel_condition(RevMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]), inv))
    assert benign.ok and benign.epimorphism and benign.kernel_dim == 1

    # kernel meets Fix(R): violated, and a witness vector is produced
    bad = kernel_condition(RevMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), inv))
    assert not bad.ok and bad.violation is not None
    assert in_fix_plus(inv, bad.violation, tol=1e-8)
    assert not bad.epimorphism

    zero = kernel_condition(RevMatrix(np.zeros((2, 2)), inv))
    assert not zero.ok and zero.kernel_dim == 2


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_solve_fix_range_random_instances(p, seed):
    """Oracle: manufacture psi = -Q delta0 from a known delta0 in Fix R."""
    rng = np.random.default_rng(1000 * p + seed)
    inv = block_inv(p)
    Q = RevMatrix(random_gl_minus(rng, inv), inv)
    delta0 = inv.fix_plus @ rng.standard_normal(p)
    psi = -Q.Q @ delta0
    delta = solve_fix_range(Q, psi)
    assert in_fix_plus(inv, delta, tol=1e-9)
    assert np.linalg.norm(Q.Q @ delta + psi) <= 1e-10 * (1 + np.linalg.norm(psi))


def test_solve_fix_range_obstruction_and_parity_guard():
    inv = block_inv(2)
    # rank-one restriction: only one Fix(-R) direction is reachable
    Qm = np.zeros((4, 4))
    Qm[2, 0] = 1.0  # e1 -> e3; e2 -> 0
    Q = RevMatrix(Qm, inv)
    psi_bad = np.array([0.0, 0.0, 0.0, 1.0])  # in Fix(-R), not in the range
    with pytest.raises(Obstruction):
        solve_fix_range(Q, psi_bad)
    with pytest.raises(NotAntiInvariant):
        solve_fix_range(Q, np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_orbit_codim_is_p_for_distinct_spectrum(p, seed):
    """Conjugation-orbit codimension inside gl(-R) for a generic Q: the
    centralizer of Q splits evenly across the parity classes, leaving
    exactly p directions (odd polynomials in Q) transverse to the orbit."""
    rng = np.random.default_rng(50 * p + seed)
    inv = block_inv(p)
    while True:
        Q = random_gl_minus(rng, inv)
        lam = np.linalg.eigvals(Q)
        if np.min(np.abs(lam[:, None] - lam[None, :]) + np.eye(2 * p)) > 1e-3:
            break
    _, codim = orbit_tangent(RevMatrix(Q, inv))
    assert codim == p


def test_versality_of_textbook_unfolding():
    # mu -> [[0, 1], [mu, 0]] over R = diag(1, -1): one direction, codim one
    inv = block_inv(1)
    base = RevMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), inv)
    rep = is_versal(Unfolding(base, [np.array([[0.0, 0.0], [1.0, 0.0]])]))
    assert rep.versal and rep.miniversal
    assert rep.codim == 1 and rep.rank_deficit == 0

    starved = is_versal(Unfolding(base, []))
    assert not starved.versal and not starved.miniversal
    assert starved.codim == 1 and starved.rank_deficit == 1


@pytest.mark.parametrize("c", [1e300, 1e10, 1.0, 1e-10, 1e-200, 5e-324, 0.0])
def test_versality_does_not_depend_on_the_scale_of_mu(c):
    # the textbook unfolding with its direction scaled by c; a zero one spans nothing
    base = RevMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), block_inv(1))
    rep = is_versal(Unfolding(base, [c * np.array([[0.0, 0.0], [1.0, 0.0]])]))
    assert (rep.versal, rep.miniversal, rep.codim, rep.rank_deficit) == (
        (True, True, 1, 0) if c else (False, False, 1, 1))


@pytest.mark.parametrize("c", [1.0, 1e-11, 1e-200])
def test_an_unfolding_direction_is_judged_anti_invariant_on_its_own_scale(c):
    # diag(1, 0) commutes with R = diag(1, -1); scaled to unit size by
    # is_versal, it would fill the missing direction of gl_minus
    base = RevMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), block_inv(1))
    with pytest.raises(NotAntiInvariant):
        Unfolding(base, [c * np.diag([1.0, 0.0])])


def test_direct_sum_with_nonsingular_block_is_versal():
    rng = np.random.default_rng(8)
    nil = MiniversalNilpotent(1)
    for _ in range(5):
        p = int(rng.integers(1, 4))
        invq = block_inv(p)
        while True:
            Qns = random_gl_minus(rng, invq)
            if abs(np.linalg.det(Qns)) > 1e-3:
                break
        R = np.block([[nil.J_tilde, np.zeros((2, 2 * p))],
                      [np.zeros((2 * p, 2)), invq.R]])
        inv = InvolutionStructure(R)
        Qsum = np.block([[nil.L_tilde(np.zeros((1, 1))), np.zeros((2, 2 * p))],
                         [np.zeros((2 * p, 2)), Qns]])
        dirs = []
        for D in nil.base_unfolding().directions:
            dirs.append(np.block([[D, np.zeros((2, 2 * p))],
                                  [np.zeros((2 * p, 2)), np.zeros((2 * p, 2 * p))]]))
        for E in invq.gl_minus_basis():
            dirs.append(np.block([[np.zeros((2, 2)), np.zeros((2, 2 * p))],
                                  [np.zeros((2 * p, 2)), E]]))
        rep = is_versal(Unfolding(RevMatrix(Qsum, inv), dirs))
        assert rep.versal, (p, rep)


# the closed form, not numpy's det, which det_S itself is read from
DET_EXPECTED = {m: (-1) ** ((m - 1) * m // 2) for m in range(1, 41)}


@pytest.mark.parametrize("m", list(range(1, 41)))
def test_interleaving_frame_identities(m):
    nil = MiniversalNilpotent(m)
    assert type(nil.det_S) is int and nil.det_S == DET_EXPECTED[m]
    assert np.array_equal(nil.J_tilde @ nil.S, nil.S @ nil.J)  # exact integers
    rng = np.random.default_rng(m)
    for _ in range(20):
        Lam = rng.standard_normal((m, m))
        e1, e2 = nil.conjugation_errors(Lam)
        assert e1 == 0.0
        assert e2 <= 1e-14 * max(1.0, float(np.max(np.abs(Lam))))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_base_unfolding_is_miniversal(m):
    rep = is_versal(MiniversalNilpotent(m).base_unfolding())
    assert rep.versal and rep.miniversal
    assert rep.codim == m * m


def test_build_augmented_structure():
    """The sigma-promoted family's Q stacks the nilpotent block [[0, I],
    [Lam, 0]] over the original Q, and anti-commutes with its involution."""
    fam = make_golden_family(delta=0.0, order=8)
    aug = fam.augment()
    hat = aug.family.Q_at(OMEGA0, aug.mu_hat(MU0, [[0.3]]))
    R = aug.family.R
    assert hat.shape == R.shape == (4, 4)
    assert np.allclose(hat[0, 1], 1.0)
    assert np.allclose(hat[1, 0], 0.3)
    assert np.allclose(hat[2:, 2:], [[0.0, 1.04], [-1.0, 0.0]])  # Q(mu = 0.04)
    assert np.allclose(R @ hat + hat @ R, 0, atol=1e-12)
