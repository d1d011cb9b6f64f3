"""Involution-linear algebra: fix spaces, kernel/range solves, versality,
and the interleaved nilpotent frame."""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from conftest import MU0, OMEGA0, make_golden_family
from kamrev.errors import NotAntiInvariant, NotInvolutive, Obstruction
from kamrev.revmat import (RANK_RTOL, InvolutionStructure, MiniversalNilpotent,
                           RevMatrix, Unfolding, _null_space, is_versal,
                           kernel_condition, orbit_tangent, solve_fix_range)


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
    assert inv.in_fix_plus(V[:, 0]) and inv.in_fix_minus(V[:, 1])
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


@settings(max_examples=60, deadline=None)
@given(frames(), st.data())
def test_kernel_condition_null_space_spans_what_scipy_finds(frame, data):
    N, dp, P = frame
    dm = N - dp
    assume(dp and dm)
    inv = InvolutionStructure(P @ np.diag([1.0] * dp + [-1.0] * dm) @ np.linalg.inv(P))
    # Q maps Fix R to Fix(-R) and back; its first `dead` Fix R directions lie in ker Q
    dead = data.draw(st.integers(0, dp))
    A, B = (np.reshape(data.draw(st.lists(st.floats(-1, 1), min_size=r * c, max_size=r * c)),
                       (r, c)) for r, c in ((dp, dm), (dm, dp)))
    B[:, :dead] = 0.0
    Q = P @ np.block([[np.zeros((dp, dp)), A], [B, np.zeros((dm, dm))]]) @ np.linalg.inv(P)
    ker = scipy.linalg.null_space(Q, rcond=RANK_RTOL)
    C = np.hstack([ker, -inv.fix_plus])
    # a rank decision near its tolerance could go either way on another LAPACK
    # build; B's is made on Q's scale, as kernel_condition makes it
    sv = [np.linalg.svd(M, compute_uv=False) / np.linalg.norm(S, 2)
          for M, S in ((Q, Q), (B, Q), (C, C))]
    assume(ker.shape[1] and all(np.all((s < 1e-12) | (s > 1e-6)) for s in sv))
    ours, theirs = _null_space(C, RANK_RTOL), scipy.linalg.null_space(C, rcond=RANK_RTOL)
    assert ours.shape == theirs.shape
    assert np.allclose(_projector(ours), _projector(theirs), atol=1e-10)
    # ker Q meets Fix R = P (R^dp x 0) exactly where B has a kernel
    assert kernel_condition(RevMatrix(Q, inv)).ok == (np.count_nonzero(sv[1] > 1e-6) == dp)


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
    assert inv.in_fix_plus(bad.violation, tol=1e-8)
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
    assert inv.in_fix_plus(delta, tol=1e-9)
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
    assert not starved.versal
    assert starved.missing is not None
    R = inv.R
    assert np.allclose(R @ starved.missing + starved.missing @ R, 0, atol=1e-10)


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


DET_EXPECTED = {m: (-1) ** ((m - 1) * m // 2) for m in range(1, 7)}


@pytest.mark.parametrize("m", list(range(1, 7)))
def test_interleaving_frame_identities(m):
    nil = MiniversalNilpotent(m)
    assert nil.det_S == DET_EXPECTED[m]
    assert nil.det_S == round(np.linalg.det(nil.S))
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
