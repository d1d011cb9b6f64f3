"""Algebra laws on Hypothesis-drawn data.

The involution pullback (x, w) -> (-x, S w) applied twice is the identity
for any S with S @ S = I, and ``solve_scalar`` is a right inverse of the
derivative along a Diophantine flow on zero-average series.  Both hold to
rounding; the random real series are those of ``test_fourier_oracle``.
A product's ``trunc_loss`` bounds the mass it drops, as measured against
the same product taken at twice the order, where nothing is dropped.

``solve_normal``, ``solve_right`` and ``solve_commutator`` are right inverses
of their operators Phi -> dPhi/dx.omega + L(Phi) for a reversible Q whose
spectrum has no resonance with i<k, omega> up to the drawn order.  Each mode
is one backward-stable linear solve, so the residual E = dPhi/dx.omega +
L(Phi) - F is bounded by rounding times the operator's size
s = N |omega|_inf + 2 d max|Q_ij| (N the order, d the size of Q), plus the
modes of Phi dropped below PRUNE_TOL, each of which leaves at most
s PRUNE_TOL of F unmatched:
|E| <= 1e-13 (|F| + s |Phi|) + (modes of F) s PRUNE_TOL, with |.| the majorant.
"""
import math

import numpy as np
from hypothesis import assume, given, strategies as st

from kamrev.cohomology import solve_commutator, solve_normal, solve_right, solve_scalar
from kamrev.diophantine import DiophantineParams, is_diophantine_pair
from kamrev.fourier import (DROP_TOL, PRUNE_TOL, FourierSeries, _l1_ball, fs_matmul,
                            fs_mul)
from kamrev.ftaylor import FourierTaylor, involution_pullback
from kamrev.revmat import InvolutionStructure, RevMatrix
from test_fourier_oracle import DIMS, ENTRY, ORDERS, PAIR_SHAPES, SETTINGS, real_series

# frequencies with no resonance up to the drawn series' orders (|k|_1 <= 4)
OMEGAS = {1: np.array([1.0]),
          2: np.array([1.0, (1 + np.sqrt(5)) / 2]),
          3: np.array([1.0, 2.0 ** (1 / 3), 4.0 ** (1 / 3)])}


@st.composite
def involutions(draw, q):
    """S = P diag(+-1) P^-1 with P = I + E, |E_ij| <= 1/4, so S @ S = I to
    rounding and S is generic (not diagonal, not symmetric)."""
    E = np.array(draw(st.lists(ENTRY, min_size=q * q, max_size=q * q))).reshape(q, q)
    P = np.eye(q) + 0.25 * E
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=q, max_size=q)))
    return P @ np.diag(signs) @ np.linalg.inv(P)


@st.composite
def fourier_taylor(draw, n, q, shape, order, degree):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        alpha = tuple(draw(st.lists(st.integers(0, degree), min_size=q, max_size=q)))
        if sum(alpha) <= degree:
            terms[alpha] = draw(real_series(n, shape, order))
    return FourierTaylor(n, q, shape, order, degree, terms)


@SETTINGS
@given(data=st.data(), n=DIMS, q=st.integers(1, 3), degree=st.integers(1, 3),
       shape=st.sampled_from([(2,), (3,), (2, 2)]), order=ORDERS)
def test_involution_pullback_is_an_involution(data, n, q, degree, shape, order):
    F = data.draw(fourier_taylor(n, q, shape, order, degree))
    S = data.draw(involutions(q))
    twice = involution_pullback(involution_pullback(F, S), S)
    # each degree-d term meets d entries of S twice over
    scale = max(F.majorant(), 1.0) * max(np.abs(S).sum(axis=1).max(), 1.0) ** (2 * degree)
    assert (twice - F).majorant() <= 1e-14 * scale


@SETTINGS
@given(data=st.data(), n=DIMS, shape=st.sampled_from([(), (2,), (2, 3)]), order=ORDERS)
def test_solve_scalar_is_a_right_inverse_of_the_flow_derivative(data, n, shape, order):
    omega = OMEGAS[n]
    params = DiophantineParams(n - 0.5, 1e-3, 8)
    assert is_diophantine_pair(omega, None, params).holds
    drawn = data.draw(real_series(n, shape, order))
    F = drawn - FourierSeries.constant(n, drawn.average(), order)
    sol = solve_scalar(F, omega, params)
    assert sol.K.any(axis=1).all()  # no k = 0 mode
    back = sol.directional_derivative(omega)
    assert (back - F).majorant() <= 1e-14 * max(F.majorant(), 1.0)


# products as (function, left shape, right shape): elementwise, broadcast, matrix
PRODUCTS = ([(fs_mul, shape, shape) for shape in [(2,), (3,), (2, 2), (2, 3)]]
            + [(fs_mul, (), (2, 3))]
            + [(fs_matmul, *shapes) for shapes in PAIR_SHAPES])


def _lifted(s, order):
    """s as a series of a higher truncation order."""
    return FourierSeries(s.n, s.shape, order, trunc_loss=s.trunc_loss, K=s.K, V=s.V)


@SETTINGS
@given(data=st.data(), n=DIMS, order=ORDERS, product=st.sampled_from(PRODUCTS))
def test_trunc_loss_bounds_the_dropped_mass(data, n, order, product):
    fn, left, right = product
    a, b = data.draw(real_series(n, left, order)), data.draw(real_series(n, right, order))
    assume(a.majorant() * b.majorant() >= DROP_TOL)  # else skipped whole, by its bound
    cut, full = fn(a, b), fn(_lifted(a, 2 * order), _lifted(b, 2 * order))
    assert full.trunc_loss == a.trunc_loss + b.trunc_loss  # nothing beyond 2N to drop
    beyond = np.abs(full.K).sum(axis=1) > order
    dropped = float(full.norms[beyond].sum())  # l1 mass of the modes beyond N
    slack = 1e-14 * a.majorant() * b.majorant()
    assert dropped <= cut.trunc_loss + slack
    # and the loss is that mass on top of the operands' losses, summed as
    # the product sums it (the product prunes dust with the same floor)
    assert cut.trunc_loss == a.trunc_loss + b.trunc_loss + dropped
    # the modes up to N are kept as they are
    assert np.array_equal(cut.K, full.K[~beyond])
    assert np.abs(cut.V - full.V[~beyond]).max(initial=0.0) <= slack


@st.composite
def reversible_q(draw, h):
    """Q = [[0, A], [B, 0]] over R = diag(I_h, -I_h), which anti-commutes with
    R for any A and B.  With A = I + E/4 and B = -c (I + E'/4), Q^2 is near
    -c I, so the spectrum lies near +-i sqrt(c), where it can resonate."""
    def near_identity():
        E = draw(st.lists(ENTRY, min_size=h * h, max_size=h * h))
        return np.eye(h) + 0.25 * np.array(E).reshape(h, h)

    c = draw(st.floats(0.05, 4.0))
    Z = np.zeros((h, h))
    Q = np.block([[Z, near_identity()], [-c * near_identity(), Z]])
    return RevMatrix(Q, InvolutionStructure(np.diag([1.0] * h + [-1.0] * h)))


# kind -> (solver, value shape for Q of size d, L(Phi) on one mode's value)
SOLVES = {
    "normal": (solve_normal, lambda d: (d,), lambda Q, v: -Q @ v),
    "normal-matrix": (solve_normal, lambda d: (d, 2), lambda Q, v: -Q @ v),
    "right": (solve_right, lambda d: (3, d), lambda Q, v: v @ Q),
    "commutator": (solve_commutator, lambda d: (d, d), lambda Q, v: v @ Q - Q @ v),
}


@SETTINGS
@given(data=st.data(), n=DIMS, order=ORDERS, h=st.integers(1, 2),
       kind=st.sampled_from(sorted(SOLVES)))
def test_coupled_solves_are_right_inverses_of_their_operators(data, n, order, h, kind):
    solve, shape_of, L = SOLVES[kind]
    omega, Q = OMEGAS[n], data.draw(reversible_q(h))
    lam = np.linalg.eigvals(Q.Q)
    # the operator at mode k is singular where i<k,omega> meets these (right's
    # -i<k,omega> meets them too, as a reversible Q's spectrum is symmetric)
    spectrum = (lam[:, None] - lam[None, :]).ravel() if kind == "commutator" else lam
    modes = _l1_ball(n, order)
    if kind == "commutator":  # its k = 0 mode is the caller's
        modes = modes[modes.any(axis=1)]
    assume(np.abs(1j * (modes @ omega)[:, None] - spectrum).min() >= 0.05)
    shape = shape_of(2 * h)
    F = data.draw(real_series(n, shape, order))
    # a commutator F has no k = 0 mode; the others always get one, solved apart
    mean = np.zeros(shape) if kind == "commutator" else np.array(data.draw(
        st.lists(ENTRY, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    F = F + FourierSeries.constant(n, mean - F.average(), order)
    phi = solve(F, omega, Q)
    E = phi.directional_derivative(omega) + phi.map_values(lambda v: L(Q.Q, v)) - F
    size = order * np.abs(omega).max() + 4 * h * np.abs(Q.Q).max()
    bound = 1e-13 * (F.majorant() + size * phi.majorant()) + len(F.K) * size * PRUNE_TOL
    assert E.majorant() <= bound
