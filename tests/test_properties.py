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

``AngleShift.apply`` is checked against the loop it replaced, kept here as
``reference_shift``, and against the composition law
S_b(S_a g) = S_{b + S_b a} g of the shifts S_a g(x) = g(x + a(x)).
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import sine
from kamrev import fourier
from kamrev.cohomology import solve_commutator, solve_normal, solve_right, solve_scalar
from kamrev.diophantine import DiophantineParams, _l1_ball, is_diophantine_pair
from kamrev.fourier import (DROP_TOL, DUST_TOL, PRUNE_TOL, SHIFT_MAX_DEGREE, SHIFT_TOL, AngleShift,
                            FourierSeries, _chain, fs_matmul, fs_mul)
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


# -- the angle shift -------------------------------------------------------------


def reference_shift(a, g):
    """g(x + a(x)) as it was computed before each Taylor layer became one
    product: each coefficient series of a field on its own, each beta term
    its own product carrying g's loss, and each series stopping at its first
    layer whose bound sum_beta maj(a^beta) maj(d^beta g) / beta! is at most
    SHIFT_TOL times its own majorant.  A power with no modes but a loss
    (skipped under DROP_TOL, or a zero component of a lossy a) still adds
    its term's loss.  A field's loss is its own plus that of each shifted
    coefficient.

    The loop stopped on the summed majorants of its terms, after each term's
    cut to the order.  A layer whose terms cancel, or fall past the order,
    then stopped it before the next layers brought mass back (see
    ``test_angle_shift_keeps_the_layers_after_one_that_sums_to_zero``)."""
    if isinstance(g, FourierTaylor):
        terms = {alpha: reference_shift(a, s) for alpha, s in g.coeffs.items()}
        return FourierTaylor(g.n, g.q, g.shape, g.order, g.degree, terms,
                             trunc_loss=g.trunc_loss + sum(s.trunc_loss for s in terms.values()))
    if a.majorant() == 0.0 or not len(g.K):
        return g
    comps = [a.map_stack(lambda V, j=j: V[:, j]) for j in range(a.n)]
    powers = {(0,) * a.n: FourierSeries.constant(a.n, np.array(1.0 + 0j), a.order)}
    derivs, acc = {(0,) * a.n: g}, g
    for degree in range(1, SHIFT_MAX_DEGREE + 1):
        bound = 0.0
        ball = _l1_ball(a.n, degree)
        for beta in map(tuple, ball[(ball >= 0).all(axis=1) & (ball.sum(axis=1) == degree)].tolist()):
            p = _chain(powers, beta, lambda p, j: fs_mul(p, comps[j]))
            if p.majorant() == 0.0 and p.trunc_loss == 0.0:
                continue
            ds = _chain(derivs, beta, lambda d, j: d.directional_derivative(np.eye(d.n)[j]))
            inv = 1.0 / math.prod(map(math.factorial, beta))
            bound += p.majorant() * inv * ds.majorant()
            acc = acc + fs_mul(p, ds) * inv
        if bound <= SHIFT_TOL * g.majorant():
            break
    return acc.truncate(g.order)


@st.composite
def small_shift(draw, n, order=None, kmax=3):
    """An (n,)-valued series of majorant between 1e-3 and 0.05 (or zero), of
    the given order or of one drawn."""
    a = draw(real_series(n, (n,), draw(ORDERS) if order is None else order, kmax))
    return a * (draw(st.floats(1e-3, 0.05)) / a.majorant()) if a.majorant() else a


def _unit_blocks(g):
    """g with each coefficient series scaled to majorant 1."""
    if isinstance(g, FourierSeries):
        return g * (1.0 / g.majorant()) if g.majorant() else g
    return FourierTaylor(g.n, g.q, g.shape, g.order, g.degree,
                         {alpha: _unit_blocks(s) for alpha, s in g.coeffs.items()})


SHAPES = [(), (2,), (2, 2)]


def _blocks(F):
    """The coefficient series of a field by alpha; a series is one block."""
    return dict(F.coeffs) if isinstance(F, FourierTaylor) else {(): F}


def check_shift(a, g):
    """AngleShift(a).apply(g) against the reference, both with no product
    skipped whole (DROP_TOL = 0): each coefficient series agrees to 1e-14 of
    its own majorant.  With DROP_TOL in force, the products skipped whole
    move each coefficient series by at most the extra loss they record; a
    difference of losses resolves that only where the other losses do not
    bury it in their rounding, so it is read off copies of a and g without
    their own losses (on one draw, a loss of 0.16 on a buried a skipped mass
    of 1e-21).  When nothing is skipped, the loss is at most the reference's
    (to rounding of the sums).  A loss the operand carries is counted once."""
    bare_a, bare_g = a * 1.0, g * 1.0
    bare_a.trunc_loss = bare_g.trunc_loss = 0.0
    with mock.patch.object(fourier, "DROP_TOL", 0.0):
        exact = AngleShift(a).apply(g)
        exact_bare = AngleShift(bare_a).apply(bare_g)
        # the reference keeps its dust: pruned, it is mass the reference drops
        # without recording, which the comparison of losses below cannot allow
        with mock.patch.object(fourier, "DUST_TOL", 0.0):
            want = reference_shift(a, g)
    got = AngleShift(a).apply(g)
    assert (got.n, got.q, got.shape, got.order, got.degree) == (g.n, g.q, g.shape, g.order, g.degree)
    skipped = AngleShift(bare_a).apply(bare_g).trunc_loss - exact_bare.trunc_loss
    assert skipped >= 0.0
    size = {alpha: s.majorant() for alpha, s in _blocks(g).items()}
    for alpha, d in _blocks(exact - want).items():
        assert d.majorant() <= 1e-14 * size[alpha], alpha
    for alpha, d in _blocks(got - exact).items():
        assert d.majorant() <= 1e-14 * size[alpha] + skipped, alpha
    if skipped == 0.0:
        assert got.trunc_loss <= want.trunc_loss * (1 + 1e-12)
    lossy = bare_g * 1.0
    lossy.trunc_loss = 1e-3
    assert AngleShift(a).apply(lossy).trunc_loss == pytest.approx(
        AngleShift(a).apply(bare_g).trunc_loss + 1e-3, rel=1e-12, abs=0.0)


@SETTINGS
@given(data=st.data(), n=DIMS, q=st.integers(0, 2), degree=st.integers(1, 3),
       shape=st.sampled_from(SHAPES), order=ORDERS, spread=st.sampled_from([1.0, 1e9]),
       scale=st.sampled_from([1.0, 1e-9]))
def test_angle_shift_matches_the_per_coefficient_loop(data, n, q, degree, shape, order, spread,
                                                      scale):
    """``check_shift`` on a series (q = 0) or a field whose coefficient
    series have majorant ``scale``.  At scale 1e-9 the deeper layers fall
    under DROP_TOL and are skipped whole; a then has order 20 and modes
    |k_j| <= 1, so that no power of a or layer is cut to the order, as each
    layer would carry such a power's cut mass (some 1e-4, whatever g's size)
    and bury the skipped layers' 1e-20 in its rounding.  With spread 1e9 a
    constant term 1e9 times the others is added at alpha = 0: a stop taken
    against the whole field would then cut every other term at about 1e-8
    of its size."""
    a = data.draw(small_shift(n) if scale == 1.0 else small_shift(n, 20, kmax=1))
    if q == 0:
        g = _unit_blocks(data.draw(real_series(n, shape, order))) * scale
    else:
        g = _unit_blocks(data.draw(fourier_taylor(n, q, shape, order, degree))) * scale
        if spread > 1.0:
            big = FourierSeries.constant(n, np.full(shape, spread * scale), order)
            g = g + FourierTaylor.from_series(big, q, degree)
    check_shift(a, g)


EPS = 0.01


@pytest.mark.parametrize("case", ["cancel", "cut"])
def test_angle_shift_keeps_the_layers_after_one_that_sums_to_zero(case):
    """"cancel": a = eps (sin x2, -sin x1) is orthogonal to grad g for
    g = cos x1 + cos x2, so the first layer's two beta terms,
    -+eps sin x1 sin x2, sum to zero; the second layer, (eps^2 / 2)
    (-sin^2 x2 cos x1 - sin^2 x1 cos x2), about 5e-5, must still be added.
    "cut": at order 1, a = eps sin x and g = sin x give a first layer
    (eps / 2) sin 2x, all past the order; the second, with a^2 cut to
    eps^2 / 2, adds -(eps^2 / 4) sin x.  Both on a series and on a field."""
    if case == "cancel":
        order = 12
        a = (sine(2, (0, 1), np.array([EPS, 0.0]), order)
             + sine(2, (1, 0), np.array([0.0, -EPS]), order))
        g = (FourierSeries.cosine(2, (1, 0), np.array(1.0), order)
             + FourierSeries.cosine(2, (0, 1), np.array(1.0), order))
        shifted = AngleShift(a).apply(g)
        for x in np.random.default_rng(5).uniform(-np.pi, np.pi, (8, 2)):
            assert abs(shifted.eval(x) - np.cos(x + a.eval(x)).sum()) <= 1e-14
    else:
        order = 1
        a = sine(1, (1,), np.array([EPS]), order)
        g = sine(1, (1,), np.array(1.0), order)
        moved = AngleShift(a).apply(g) - g  # sin x = (e^ix - e^-ix) / 2i
        assert abs(moved.coeffs[(1,)] * 2j + EPS ** 2 / 4) <= EPS ** 4
    check_shift(a, g)
    check_shift(a, FourierTaylor(g.n, 1, (), order, 1, {(0,): g, (1,): g * 0.5}))


def test_angle_shift_keeps_the_loss_of_a_power_skipped_under_drop_tol():
    """a = (eps1 sin x3, 0, eps2 cos x3) at order 1, eps1 = 2^-5, eps2 = 2^-7:
    a^beta for beta = (1, 0, 9) is eps1 eps2^9, about 3e-21, and is skipped
    under DROP_TOL with no modes.  It must still bring its recorded loss to
    its layer, as with DROP_TOL = 0 it is formed and its cut to the order
    recorded (``check_shift``: the skipped products record no less)."""
    a = (sine(3, (0, 0, 1), np.array([2.0 ** -5, 0.0, 0.0]), 1)
         + FourierSeries.cosine(3, (0, 0, 1), np.array([0.0, 0.0, 2.0 ** -7]), 1))
    check_shift(a, sine(3, (2, 0, 0), np.array(1.0), 2))


@SETTINGS
@given(data=st.data(), n=st.integers(1, 2), shape=st.sampled_from(SHAPES), order=st.integers(6, 10))
def test_angle_shifts_compose(data, n, shape, order):
    """S_b(S_a g) = S_c g with c = b + S_b a, for g, a and b with modes
    |k_j| <= 1, so that little falls past the order.  Bound: 1e-13 maj(g)
    of rounding, plus the mass either side records as dropped (a dropped
    mode comes back below the order at most once, through a shift of size
    below 0.1), plus (order + 1) maj(g) times c's loss, as c's dropped tail
    moves g by at most its derivative times that tail."""
    g = data.draw(real_series(n, shape, order, kmax=1))
    a, b = (data.draw(small_shift(n, order, kmax=1)) for _ in range(2))
    Sb = AngleShift(b)
    left = Sb.apply(AngleShift(a).apply(g))
    c = b + Sb.apply(a)
    right = AngleShift(c).apply(g)
    bound = (1e-13 * g.majorant() + left.trunc_loss + right.trunc_loss
             + (order + 1) * g.majorant() * c.trunc_loss)
    assert (left - right).majorant() <= bound


def chained_powers(a, degree):
    """The powers a^beta of |beta| = degree with modes or a loss, each built as
    one product a^(beta - e_j) a_j for the last j with beta_j > 0, memoized
    in ``a.memo`` across degrees, as the angle shift built them before each
    layer became one product."""
    comps = [a.map_stack(lambda V, j=j: V[:, j]) for j in range(a.n)]
    ball = _l1_ball(a.n, degree)
    betas = map(tuple, ball[(ball >= 0).all(axis=1) & (ball.sum(axis=1) == degree)].tolist())
    powers = {beta: _chain(a.memo, beta, lambda p, j: fs_mul(p, comps[j])) for beta in betas}
    return {beta: p for beta, p in powers.items() if p.majorant() > 0.0 or p.trunc_loss > 0.0}


@SETTINGS
@given(data=st.data(), n=DIMS, scale=st.sampled_from([1.0, 1e-3]))
def test_each_stacked_layer_holds_the_chained_powers(data, n, scale):
    """``AngleShift.layers`` through degree 8 against ``chained_powers``.
    Each layer holds the betas whose chained power has modes or a loss.  A
    column times beta! agrees with its power to 1e-15 of the power's
    majorant, and its loss with the power's to 1e-12 relative: the parent's
    loss, a's, a DROP_TOL skip's bound and the mass cut past the order.  Like
    a power of its own, a column keeps no entry under DUST_TOL times its
    largest (to the rounding of the scaling by 1/beta!).  Beyond that, each
    series drops its dust unrecorded, as the stack of the powers did before:
    the product of a layer drops rows under DUST_TOL
    times its largest row norm u, which moves an entry by at most u DUST_TOL
    and a loss by u DUST_TOL per mode; the layer, scaled by 1/beta!, drops
    rows under its own floor f, PRUNE_TOL or DUST_TOL times its largest
    entry, which moves an entry of a^beta by at most beta! f.  At scale 1e-3
    the powers of degree 7 and up fall under DROP_TOL and are skipped."""
    a = data.draw(small_shift(n)) * scale
    a.memo = {(0,) * n: FourierSeries.constant(n, np.array(1.0 + 0j), a.order)}
    layers = AngleShift(a).layers()
    for degree in range(1, 9):
        want, got = chained_powers(a, degree), next(layers, None)
        if not want:
            assert got is None
            break
        betas, P, _, losses = got
        betas = [tuple(int(e) for e in beta) for beta in betas.tolist()]
        assert sorted(betas) == sorted(want)
        facts = [math.prod(map(math.factorial, beta)) for beta in betas]
        u = max(f * np.abs(P.V[:, c]).max(initial=0.0) for c, f in enumerate(facts))
        floor = max(PRUNE_TOL, DUST_TOL * np.abs(P.V).max(initial=0.0))
        for c, (beta, fact) in enumerate(zip(betas, facts)):
            p, column = want[beta], np.abs(P.V[:, c])
            kept = column[column > 0]
            assert kept.min(initial=np.inf) >= DUST_TOL * kept.max(initial=0.0) * (1 - 1e-15)
            diff = P.map_stack(lambda V: V[:, c] * fact) - p
            assert np.abs(diff.V).max(initial=0.0) <= (1e-15 * p.majorant() + u * DUST_TOL
                                                       + fact * floor)
            assert abs(losses[c] - p.trunc_loss) <= 1e-12 * p.trunc_loss + len(p.K) * u * DUST_TOL
