"""Algebra laws on Hypothesis-drawn data.

The involution pullback (x, w) -> (-x, S w) applied twice is the identity
for any S with S @ S = I, and ``solve_scalar`` is a right inverse of the
derivative along a Diophantine flow on zero-average series.  Both hold to
rounding; the random real series are those of ``test_fourier_oracle``.
"""
import numpy as np
from hypothesis import given, strategies as st

from kamrev.cohomology import solve_scalar
from kamrev.diophantine import DiophantineParams, is_diophantine_pair
from kamrev.fourier import FourierSeries
from kamrev.ftaylor import FourierTaylor, involution_pullback
from test_fourier_oracle import DIMS, ENTRY, ORDERS, SETTINGS, real_series

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
