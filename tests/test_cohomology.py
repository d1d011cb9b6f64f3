"""Small-divisor solvers against a dense linear-solve oracle.

Oracle: stack every stored mode coefficient into one vector, assemble the
full (block-diagonal) operator on that space with numpy.kron, and solve the
whole system at once with numpy.linalg.lstsq.  The production solvers work
mode-by-mode, so agreement is a real cross-check.

A second oracle is the per-mode loop the coupled solvers used before they
were batched (one condition number and one solve per mode); the batched
solvers must reproduce it bit for bit.
"""
import numpy as np
import pytest

from kamrev.cohomology import (COND_LIMIT, commutator_operator, solve_commutator,
                               solve_normal, solve_right, solve_scalar, verify_estimate)
from kamrev.diophantine import DiophantineParams
from kamrev.errors import (NonzeroAverage, SingularMode, SmallDivisor,
                           ZeroModeObstruction)
from kamrev.fourier import FourierSeries, canonical_half, order1
from kamrev.revmat import InvolutionStructure, RevMatrix

GOLDEN = (1 + np.sqrt(5)) / 2
OMEGA = np.array([1.0, GOLDEN])
PARAMS = DiophantineParams(1.5, 1e-3, 24)
INV2 = InvolutionStructure(np.diag([1.0, -1.0]))
Q_ELLIPTIC = RevMatrix(np.array([[0.0, 1.04], [-1.0, 0.0]]), INV2)


def random_rhs(rng, n, shape, order, zero_average=True, kmax=None):
    kmax = kmax or order
    coeffs = {}
    for _ in range(8):
        k = tuple(int(c) for c in rng.integers(-kmax, kmax + 1, size=n))
        if order1(k) > order or (zero_average and order1(k) == 0):
            continue
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if order1(k) == 0:
            v = v.real.astype(complex)
        coeffs[k] = v
        coeffs[tuple(-c for c in k)] = np.conj(v)
    if not coeffs:
        k = (1,) + (0,) * (n - 1)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[k] = v
        coeffs[tuple(-c for c in k)] = np.conj(v)
    return FourierSeries(n, shape, order, coeffs)


def dense_solve(F, omega, block_of_mode):
    """Assemble sum-over-modes block operator and lstsq the stacked system."""
    modes = sorted(F.coeffs)
    sz = int(np.prod(F.shape))
    A = np.zeros((len(modes) * sz, len(modes) * sz), dtype=complex)
    b = np.zeros(len(modes) * sz, dtype=complex)
    for i, k in enumerate(modes):
        A[i * sz:(i + 1) * sz, i * sz:(i + 1) * sz] = block_of_mode(k)
        b[i * sz:(i + 1) * sz] = F.coeffs[k].ravel()
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return {k: sol[i * sz:(i + 1) * sz].reshape(F.shape)
            for i, k in enumerate(modes)}


def coeff_gap(series, dense):
    scale = max(max(np.max(np.abs(v)) for v in dense.values()), 1e-300)
    gap = 0.0
    for k in set(series.coeffs) | set(dense):
        a = series.coeffs.get(k, np.zeros(series.shape))
        b = dense.get(k, np.zeros(series.shape))
        gap = max(gap, float(np.max(np.abs(a - b))))
    return gap / scale


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_solve_scalar_matches_dense_oracle(n, seed):
    rng = np.random.default_rng(100 * n + seed)
    omega = OMEGA[:n]
    F = random_rhs(rng, n, (2,), 12)
    phi = solve_scalar(F, omega, PARAMS)
    dense = dense_solve(F, omega,
                        lambda k: 1j * np.dot(k, omega) * np.eye(2))
    assert coeff_gap(phi, dense) < 1e-12
    resid = phi.directional_derivative(omega) - F
    assert resid.majorant() < 1e-12 * max(F.majorant(), 1.0)


def test_solve_scalar_error_paths():
    with pytest.raises(NonzeroAverage):
        solve_scalar(FourierSeries.constant(2, np.array([1.0]), 8), OMEGA, PARAMS)
    F = FourierSeries.cosine(2, (3, -2), np.array([1.0]), 8)
    with pytest.raises(SmallDivisor):
        solve_scalar(F, np.array([1.0, 1.5]), PARAMS)  # <k, omega> = 0 exactly


@pytest.mark.parametrize("seed", range(5))
def test_solve_normal_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    F = random_rhs(rng, 2, (2,), 12, zero_average=False)
    Q = Q_ELLIPTIC
    phi = solve_normal(F, OMEGA, Q)
    dense = dense_solve(F, OMEGA,
                        lambda k: 1j * np.dot(k, OMEGA) * np.eye(2) - Q.Q)
    assert coeff_gap(phi, dense) < 1e-12
    resid = phi.directional_derivative(OMEGA) \
        - phi.map_values(lambda v: Q.Q @ v, shape=(2,)) - F
    assert resid.majorant() < 1e-11 * max(F.majorant(), 1.0)


def test_solve_normal_matrix_valued_rhs():
    rng = np.random.default_rng(77)
    F = random_rhs(rng, 2, (2, 3), 10, zero_average=False)
    phi = solve_normal(F, OMEGA, Q_ELLIPTIC)
    resid = phi.directional_derivative(OMEGA) \
        - phi.map_values(lambda v: Q_ELLIPTIC.Q @ v, shape=(2, 3)) - F
    assert resid.majorant() < 1e-11 * max(F.majorant(), 1.0)


def test_solve_normal_resonant_mode_is_singular():
    # <k, omega> tuned to the elliptic frequency: (i div I - Q) is singular
    beta = np.sqrt(1.04)
    F = FourierSeries.cosine(1, (1,), np.ones(2), 4)
    with pytest.raises(SingularMode):
        solve_normal(F, np.array([beta]), Q_ELLIPTIC)


def test_solve_normal_singular_zero_mode_falls_back_to_fix_range():
    # ker Q = Fix(-R): the k = 0 block is solved in the Fix(R) coordinates
    Q = RevMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]), INV2)
    F = FourierSeries.constant(2, np.array([0.0, 0.5]), 8)
    phi = solve_normal(F, OMEGA, Q)
    f0 = phi.coeffs[(0, 0)]
    assert np.allclose(Q.Q @ f0.real, -np.array([0.0, 0.5]), atol=1e-12)
    # and an unreachable right-hand side obstructs
    bad = FourierSeries.constant(2, np.array([0.5, 0.0]), 8)
    with pytest.raises(ZeroModeObstruction):
        solve_normal(bad, OMEGA, Q)


@pytest.mark.parametrize("seed", range(4))
def test_solve_right_matches_dense_oracle(seed):
    rng = np.random.default_rng(10 + seed)
    F = random_rhs(rng, 2, (3, 2), 10, zero_average=False)
    phi = solve_right(F, OMEGA, Q_ELLIPTIC)
    dense = dense_solve(F, OMEGA,
                        lambda k: 1j * np.dot(k, OMEGA) * np.eye(6)
                        + np.kron(np.eye(3), Q_ELLIPTIC.Q.T))
    assert coeff_gap(phi, dense) < 1e-12
    resid = phi.directional_derivative(OMEGA) \
        + phi.map_values(lambda v: v @ Q_ELLIPTIC.Q, shape=(3, 2)) - F
    assert resid.majorant() < 1e-11 * max(F.majorant(), 1.0)


def test_solve_right_needs_invertible_q_at_zero_mode():
    Q = RevMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]), INV2)
    F = FourierSeries.constant(2, np.ones((1, 2)), 8)
    with pytest.raises(ZeroModeObstruction):
        solve_right(F, OMEGA, Q)


@pytest.mark.parametrize("seed", range(4))
def test_solve_commutator_matches_dense_oracle(seed):
    rng = np.random.default_rng(20 + seed)
    F = random_rhs(rng, 2, (2, 2), 10)  # zero average: adjoint kernel at k=0
    phi = solve_commutator(F, OMEGA, Q_ELLIPTIC)
    dense = dense_solve(F, OMEGA,
                        lambda k: _comm_block(float(np.dot(k, OMEGA))))
    assert coeff_gap(phi, dense) < 1e-12


def _comm_block(div):
    # C-order vec: Phi Q -> kron(I, Q^T), Q Phi -> kron(Q, I)
    Qm = Q_ELLIPTIC.Q
    return (1j * div * np.eye(4) + np.kron(np.eye(2), Qm.T)
            - np.kron(Qm, np.eye(2)))


def test_commutator_operator_matches_by_construction():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, 2))
    div = 0.37
    # the module uses column-major vec; verify against the action itself
    L = commutator_operator(div, Q_ELLIPTIC.Q)
    want = 1j * div * X + X @ Q_ELLIPTIC.Q - Q_ELLIPTIC.Q @ X
    got = (L @ X.ravel(order="F")).reshape(2, 2, order="F")
    assert np.allclose(got, want, atol=1e-14)


def test_solve_commutator_rejects_constant_mode():
    F = FourierSeries.constant(2, np.eye(2), 8)
    with pytest.raises(ZeroModeObstruction):
        solve_commutator(F, OMEGA, Q_ELLIPTIC)


def test_verify_estimate_reports_finite_constant():
    rng = np.random.default_rng(2)
    F = random_rhs(rng, 2, (1,), 12)
    phi = solve_scalar(F, OMEGA, PARAMS)
    rep = verify_estimate(F, phi, OMEGA, PARAMS, rho=0.4, rho_prime=0.2)
    assert rep.lhs > 0 and rep.rhs_factor > 0
    assert 0 < rep.implied_c < np.inf
    # the bound it certifies: |Phi|_{rho'} <= C |F|_rho / (gamma gap^(n+tau))
    gap = (0.4 - 0.2) ** (2 + PARAMS.tau)
    assert np.isclose(rep.lhs,
                      rep.implied_c * rep.rhs_factor / (PARAMS.gamma * gap))
    with pytest.raises(ValueError):
        verify_estimate(F, phi, OMEGA, PARAMS, rho=0.2, rho_prime=0.4)


# -- the batched coupled solves against the former per-mode loop ----------------


def per_mode_oracle(F, omega, build, vec=lambda a: a, back=lambda a: a):
    """One np.linalg.cond and one np.linalg.solve per nonzero +-k
    representative, in lexicographic order; returns k -> solution."""
    half = canonical_half(F.K) & F.K.any(axis=1)
    out = {}
    for k, rhs in zip(F.K[half], F.V[half]):
        A = build(float(np.dot(k, omega)))
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SingularMode(k, cond)
        out[tuple(int(c) for c in k)] = back(np.linalg.solve(A, vec(rhs)))
    return out


def assert_bitwise(phi, oracle):
    assert oracle
    for k, want in oracle.items():
        got = phi.coeffs[k]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), k


INV4 = InvolutionStructure(np.diag([1.0, 1.0, -1.0, -1.0]))


def _q4(rng):
    """A random 4x4 matrix anti-commuting with diag(1, 1, -1, -1)."""
    Q = np.zeros((4, 4))
    Q[:2, 2:] = rng.standard_normal((2, 2))
    Q[2:, :2] = rng.standard_normal((2, 2))
    return RevMatrix(Q, INV4)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [2, 4])
def test_batched_coupled_solves_match_per_mode_loop_bitwise(seed, d):
    rng = np.random.default_rng(300 + 10 * d + seed)
    Q = Q_ELLIPTIC if d == 2 else _q4(rng)
    Qm = Q.Q
    Id = np.eye(d)
    omega = OMEGA + rng.uniform(-0.1, 0.1, 2)

    def normal(div):
        return 1j * div * Id - Qm

    for shape in [(d,), (d, 3)]:
        F = random_rhs(rng, 2, shape, 10)
        assert_bitwise(solve_normal(F, omega, Q), per_mode_oracle(F, omega, normal))

    F = random_rhs(rng, 2, (3, d), 10)
    assert_bitwise(solve_right(F, omega, Q),
                   per_mode_oracle(F, omega, lambda div: 1j * div * Id + Qm.T,
                                   vec=lambda a: a.T, back=lambda a: a.T))

    F = random_rhs(rng, 2, (d, d), 10)
    assert_bitwise(solve_commutator(F, omega, Q),
                   per_mode_oracle(F, omega, lambda div: commutator_operator(div, Qm),
                                   vec=lambda a: a.ravel(order="F"),
                                   back=lambda a: a.reshape(d, d, order="F")))


def test_singular_mode_names_the_lexicographically_first_bad_mode():
    # with omega = (beta, beta) both (0, 1) and (1, 0) meet the elliptic
    # frequency beta; (0, 1) comes first
    beta = np.sqrt(1.04)
    omega = np.array([beta, beta])
    F = (FourierSeries.cosine(2, (1, 0), np.ones(2), 6)
         + FourierSeries.cosine(2, (0, 1), np.ones(2), 6)
         + FourierSeries.cosine(2, (1, 1), np.ones(2), 6))
    with pytest.raises(SingularMode) as got:
        solve_normal(F, omega, Q_ELLIPTIC)
    with pytest.raises(SingularMode) as want:
        per_mode_oracle(F, omega, lambda div: 1j * div * np.eye(2) - Q_ELLIPTIC.Q)
    assert got.value.k == want.value.k == (0, 1)
    assert got.value.cond == want.value.cond
