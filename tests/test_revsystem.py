"""Family assembly, structural checks, toy models, and torus verification.

The instantiation oracle writes the unperturbed benchmark field out by hand
in plain numpy from its coefficient tables.
"""
import warnings

import numpy as np
import pytest
import scipy.integrate

from conftest import GOLDEN, MU0, OMEGA0, make_curve_family, make_golden_family, sine
from kamrev.errors import ImaginaryResidue, RootFindFailure, StepFailure
from kamrev.fourier import FourierSeries
from kamrev.ftaylor import FourierTaylor, ft_sum, involution_pullback
from kamrev.revsystem import (InstantiatedField, ReversibleFamily, ToyEx1Result,
                              ToyNoSolution, ToySolution, _parity_defect,
                              check_transform_commutes, classify_context, ft_embed,
                              ft_fix_tail, ft_permute_vars, integrate, invert_angle_shift,
                              symmetrize_w_rows, symmetrize_x_row, toy_ex1, toy_ex2,
                              toy_linear, verify_torus)
from kamrev.revmat import InvolutionStructure, RevMatrix

XS = [np.array([0.3, -1.2]), np.array([2.0, 0.7])]
WS = [np.array([0.1, -0.05, 0.2]), np.array([-0.3, 0.02, 0.0])]


def test_ft_embed_permute_fix_tail_pointwise():
    rng = np.random.default_rng(1)
    s = FourierSeries.cosine(2, (1, 0), np.array([1.0, -2.0]), 8)
    F = FourierTaylor(2, 2, (2,), 8, 3, {(1, 0): s, (0, 2): s * 0.5})
    em = ft_embed(F, 4, 1)
    pe = ft_permute_vars(F, [1, 0], 2)
    fx = ft_fix_tail(F, 1, [0.7])
    for x in XS:
        w = np.array([0.2, -0.4])
        want = F.eval(x, w)
        assert np.allclose(em.eval(x, w)[1:3], want)
        assert np.allclose(em.eval(x, w)[[0, 3]], 0.0)
        assert np.allclose(pe.eval(x, w[::-1]), want)
        assert np.allclose(fx.eval(x, w[:1]), F.eval(x, [w[0], 0.7]))


def test_symmetrize_projects_onto_parity_classes():
    rng = np.random.default_rng(2)
    fam = make_golden_family(delta=0.0, order=8)
    S = fam.S_w
    terms = {}
    for _ in range(4):
        k = tuple(int(c) for c in rng.integers(-2, 3, size=2))
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if all(c == 0 for c in k):
            v = v.real.astype(complex)
        coeffs = {k: v}
        mk = tuple(-c for c in k)
        if mk != k:
            coeffs[mk] = np.conj(v)
        alpha = tuple(int(e) for e in rng.multinomial(int(rng.integers(0, 3)),
                                                      np.ones(3) / 3))
        sr = FourierSeries(2, (3,), 8, coeffs)
        terms[alpha] = terms[alpha] + sr if alpha in terms else sr
    raw = FourierTaylor(2, 3, (3,), 8, 3, terms)
    even = symmetrize_x_row(raw.map_values(lambda v: v[:2], (2,)), S)
    odd = symmetrize_w_rows(raw, S)
    for x in XS:
        for w in WS:
            assert np.allclose(even.eval(-x, S @ w), even.eval(x, w), atol=1e-12)
            assert np.allclose(odd.eval(-x, S @ w), -S @ odd.eval(x, w), atol=1e-12)
    # idempotency
    assert (symmetrize_x_row(even, S) - even).majorant() < 1e-13
    assert (symmetrize_w_rows(odd, S) - odd).majorant() < 1e-13


def test_check_reversibility_flags_bad_pieces():
    fam = make_golden_family(delta=0.0, order=8)
    assert fam.check_reversibility() == []

    # y-linear drift coupling in the x-row flips sign under (y, z) -> (-y, Rz)
    bad_xi = FourierTaylor(2, 4, (2,), 8, 3,
                           {(1, 0, 0, 0): FourierSeries.constant(2, np.array([0.5, 0.0]), 8)})
    bad = ReversibleFamily(2, 1, 1, 1, OMEGA0, fam.R, fam.Q_terms, bad_xi,
                           fam.eta, fam.zeta, None, None, None, order=8, degree=3)
    names = [v.identity for v in bad.check_reversibility()]
    assert any("xi" in nm for nm in names)

    # sine h in a Fix(R) direction has the wrong parity
    h_bad = FourierTaylor.from_series(
        sine(2, (1, 0), np.array([0.0, 1e-3]), 8), 3, 3)
    pert = ReversibleFamily(2, 1, 1, 1, OMEGA0, fam.R, fam.Q_terms, fam.xi,
                            fam.eta, fam.zeta, None, None, h_bad, order=8, degree=3)
    assert any("h(" in v.identity for v in pert.check_reversibility())

    # Q term commuting with R instead of anti-commuting
    bad_q = dict(fam.Q_terms)
    bad_q[(0, 0, 0)] = np.eye(2)
    fam_q = ReversibleFamily(2, 1, 1, 1, OMEGA0, fam.R, bad_q, fam.xi, fam.eta,
                             fam.zeta, None, None, None, order=8, degree=3)
    assert any("anti-commutation" in v.identity for v in fam_q.check_reversibility())


@pytest.mark.parametrize("piece,alpha,series,identity", [
    ("xi", (0, 0, 0, 1), FourierSeries.constant(2, np.array([0.5, 0.0]), 8),
     "xi term (0, 0, 0, 1) has no (y,z) factor"),
    ("eta", (0, 1, 0, 0), FourierSeries.constant(2, np.array([0.5]), 8),
     "eta term (0, 1, 0, 0) below order 2 in (y,z)"),
    ("zeta", (0, 0, 0, 1), FourierSeries.constant(2, np.array([0.0, 0.5]), 8),
     "zeta term (0, 0, 0, 1) below total order 2"),
    ("xi", (0, 1, 0, 0), FourierSeries.cosine(2, (1, 0), np.array([0.5, 0.0]), 8),
     "xi term (0, 1, 0, 0) depends on x"),
], ids=["xi-without-y-z", "eta-below-2", "zeta-below-2", "xi-depends-on-x"])
def test_check_reversibility_flags_order_conditions(piece, alpha, series, identity):
    """Each added term keeps every parity identity and breaks one order
    condition, so it is the one violation reported."""
    fam = make_golden_family(delta=0.0, order=8)
    pieces = {"xi": fam.xi, "eta": fam.eta, "zeta": fam.zeta}
    F = pieces[piece]
    pieces[piece] = F + FourierTaylor(2, 4, F.shape, 8, 3, {alpha: series})
    bad = ReversibleFamily(2, 1, 1, 1, OMEGA0, fam.R, fam.Q_terms, pieces["xi"],
                           pieces["eta"], pieces["zeta"], None, None, None, order=8, degree=3)
    assert [v.identity for v in bad.check_reversibility()] == [identity]


def hand_rhs(omega, sigma, mu, x, w):
    """The unperturbed benchmark field written out longhand."""
    y, z1, z2 = w
    dx = omega + np.array([0.3, 0.1]) * z1 + np.array([0.2, 0.0]) * y * y
    dy = sigma + 0.25 * y * y + 0.15 * z1 * z1 - 0.1 * y * z2
    Q = np.array([[0.0, 1.0 + mu], [-1.0, 0.0]])
    dz = Q @ np.array([z1, z2]) + np.array([0.2 * z1 * z2 + 0.2 * z2 * sigma,
                                            0.1 * y * y + 0.15 * y * z2 + 0.3 * z1 * sigma])
    return np.concatenate([dx, [dy], dz])


@pytest.mark.parametrize("seed", range(3))
def test_instantiate_matches_hand_written_field(seed):
    rng = np.random.default_rng(seed)
    fam = make_golden_family(delta=0.0)
    omega = OMEGA0 + rng.uniform(-0.05, 0.05, 2)
    sigma, mu = float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.05, 0.08))
    inst = fam.instantiate(omega, [sigma], [mu])
    for x in XS:
        for w in WS:
            got = np.concatenate([inst.Xx.eval(x, w), inst.Xw.eval(x, w)])
            assert np.allclose(got, hand_rhs(omega, sigma, mu, x, w), atol=1e-12)


def deriv_w(F, j):
    """The partial derivative of F in its w-variable j, row by row."""
    rows = F.A[:, j] > 0
    A = F.A[rows] - np.eye(F.q, dtype=np.int64)[j]
    factor = (A[:, j] + 1.0).reshape((-1,) + (1,) * len(F.shape))
    return F._on_rows(A, F.K[rows], F.V[rows] * factor)


def rebuilt_w_rows(fam, omega, sigma, mu):
    """Xw and its jacobians as instantiate built them before it kept its
    parameter-free pieces: every piece made again, in the same sum order."""
    q, m, d = fam.q, fam.m, fam.d

    def const(value):
        return FourierTaylor.from_series(FourierSeries.constant(fam.n, value, fam.order),
                                         q, fam.degree)

    eta_s, zeta_s = (ft_fix_tail(F, q, sigma) for F in (fam.eta, fam.zeta))
    Xw = ft_sum([const(np.concatenate([sigma, np.zeros(d)])), fam._z_linear_ft(fam.Q_at(omega, mu))]
                + [ft_embed(F, q, 0) for F in (eta_s, fam.g)]
                + [ft_embed(F, q, m) for F in (zeta_s, fam.h)])
    jac = [fam._z_linear_ft(fam.Q_at(omega, mu, j)) for j in range(fam.n)]
    for j in range(m):
        jac.append(ft_sum([const(np.eye(q)[j]),
                           ft_embed(ft_fix_tail(deriv_w(fam.eta, q + j), q, sigma), q, 0),
                           ft_embed(ft_fix_tail(deriv_w(fam.zeta, q + j), q, sigma), q, m)]))
    return [Xw] + jac


@pytest.mark.parametrize("make", [lambda: make_golden_family(delta=1e-2, order=8, seed=5),
                                  lambda: make_curve_family(order=8)], ids=["golden", "curve"])
def test_instantiate_keeps_its_fields_bit_for_bit(make):
    """instantiate builds g, h and the sigma derivatives of eta and zeta once
    per family; every later call gives the fields it gave when it rebuilt
    them, to the bit."""
    fam = make()
    omega = fam.omega_star + np.array([0.01, -0.02])
    for sigma, mu in (([0.03] * fam.m, [0.01] * fam.s), ([-0.02] * fam.m, [0.0] * fam.s)):
        sigma, mu = np.array(sigma), np.array(mu)
        inst = fam.instantiate(omega, sigma, mu)
        for got, want in zip([inst.Xw] + inst.jacobians, rebuilt_w_rows(fam, omega, sigma, mu)):
            for name in ("A", "K", "V"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert got.trunc_loss == want.trunc_loss
    assert "_fixed_pieces" in vars(fam)


def test_fused_field_equals_its_blocks():
    fam = make_golden_family(delta=1e-2, order=8, seed=3)
    inst = fam.instantiate(OMEGA0 + 0.01, [0.02], MU0)
    assert inst.field.shape == (fam.n + fam.q,)
    for x in XS:
        for w in WS:
            want = np.concatenate([inst.Xx.eval(x, w), inst.Xw.eval(x, w)])
            scale = inst.Xx.majorant() + inst.Xw.majorant()
            assert np.max(np.abs(inst.eval(x, w) - want)) <= 1e-14 * scale


def test_fused_field_checks_each_block_for_imaginary_residue():
    """A non-real term of size 1e-11 in the w rows at alpha = 0 raises, though
    the fused alpha = 0 term also carries omega in the x rows, whose
    majorant would hide it."""
    fam = make_golden_family(delta=0.0, order=8)
    inst = fam.instantiate(OMEGA0, [0.0], MU0)
    bad = FourierSeries(2, (3,), 8, K=np.array([[1, 0]]), V=np.array([[0.0, 1e-11, 0.0]],
                                                                      dtype=complex))
    Xw = inst.Xw + FourierTaylor.from_series(bad, fam.q, fam.degree)
    broken = InstantiatedField(fam, inst.omega, inst.sigma, inst.mu, inst.Xx, Xw,
                               inst.jacobians)
    x, w = np.array([0.7, 0.2]), WS[0]
    assert 1e-11 * np.sin(0.7) < 1e-10 * broken.field.coeffs[(0, 0, 0)].majorant()
    for call in (lambda: Xw.eval(x, w), lambda: broken.eval(x, w)):
        with pytest.raises(ImaginaryResidue):
            call()


def test_with_perturbation_adds_exactly_fgh():
    fam0 = make_golden_family(delta=0.0, order=8)
    fam = make_golden_family(delta=1e-2, order=8, seed=5)
    omega, sigma, mu = OMEGA0, np.array([0.03]), MU0
    a = fam0.instantiate(omega, sigma, mu)
    b = fam.instantiate(omega, sigma, mu)
    for x in XS:
        for w in WS:
            dxx = b.Xx.eval(x, w) - a.Xx.eval(x, w)
            dxw = b.Xw.eval(x, w) - a.Xw.eval(x, w)
            assert np.allclose(dxx, fam.f.eval(x, w), atol=1e-12)
            assert np.allclose(dxw[:1], fam.g.eval(x, w), atol=1e-12)
            assert np.allclose(dxw[1:], fam.h.eval(x, w), atol=1e-12)


def test_parameter_jacobians_match_finite_differences():
    fam = make_golden_family(delta=1e-3, order=8)
    omega, sigma, mu = OMEGA0, np.array([0.02]), MU0
    inst = fam.instantiate(omega, sigma, mu)
    h = 1e-6
    x, w = XS[0], WS[0]
    assert len(inst.jacobians) == 3  # the w rows along omega_1, omega_2, sigma
    for slot, dXw in enumerate(inst.jacobians):
        do = np.zeros(2)
        ds = np.zeros(1)
        if slot < 2:
            do[slot] = h
        else:
            ds[0] = h
        up = fam.instantiate(omega + do, sigma + ds, mu)
        dn = fam.instantiate(omega - do, sigma - ds, mu)
        fd_w = (up.Xw.eval(x, w) - dn.Xw.eval(x, w)) / (2 * h)
        assert np.allclose(dXw.eval(x, w), fd_w, atol=1e-6), slot


def test_reversibility_errors_vanish_for_conforming_family():
    fam = make_golden_family(delta=1e-3, order=8)
    inst = fam.instantiate(OMEGA0, np.array([0.01]), MU0)
    S = fam.S_w
    # Xx must be even and Xw S-twisted odd under (x, w) -> (-x, S w)
    ex = _parity_defect(involution_pullback(inst.Xx, S), inst.Xx).majorant()
    ew = _parity_defect(involution_pullback(inst.Xw, S), inst.Xw, S).majorant()
    assert max(ex, ew) / max(inst.Xx.majorant(), inst.Xw.majorant(), 1.0) < 1e-12


def test_context_classification():
    assert classify_context(1, 3) == "Context2"
    assert classify_context(2, 3) == "Context1"
    assert classify_context(4, 3) == "Invalid"
    fam = make_golden_family(delta=0.0, order=8)
    assert classify_context(fam.inv.dim_plus, fam.q) == "Context2"


def test_json_roundtrip_preserves_field():
    fam = make_golden_family(delta=1e-3, order=8)
    back = ReversibleFamily.from_json(fam.to_json())
    assert back.check_reversibility() == []
    a = fam.instantiate(OMEGA0, np.array([0.01]), MU0)
    b = back.instantiate(OMEGA0, np.array([0.01]), MU0)
    for x in XS:
        for w in WS:
            assert np.allclose(a.Xx.eval(x, w), b.Xx.eval(x, w), atol=1e-15)
            assert np.allclose(a.Xw.eval(x, w), b.Xw.eval(x, w), atol=1e-15)


def test_augment_promotes_drift_to_normal_block():
    fam = make_golden_family(delta=1e-3, order=8)
    aug = fam.augment()
    assert aug.family.m == 0
    assert aug.family.d == 2 * fam.m + fam.d
    assert aug.family.s == fam.s + fam.m * fam.m
    assert aug.family.check_reversibility() == []
    Rh = aug.family.R
    assert np.allclose(Rh[:1, :1], -1.0)
    assert np.allclose(Rh[1:2, 1:2], 1.0)
    assert np.allclose(Rh[2:, 2:], fam.R)
    # the promoted field evaluates like the original with sigma as a variable
    mu_hat = aug.mu_hat(MU0, np.zeros((1, 1)))
    ia = aug.family.instantiate(OMEGA0, np.zeros(0), mu_hat)
    io = fam.instantiate(OMEGA0, np.array([0.33]), MU0)
    for x in XS:
        w = np.array([0.1, -0.05, 0.2])
        what = np.array([w[0], 0.33, w[1], w[2]])  # (y, sigma, z)
        got = ia.Xw.eval(x, what)
        want = io.Xw.eval(x, w)
        assert np.allclose(ia.Xx.eval(x, what), io.Xx.eval(x, w), atol=1e-12)
        assert np.allclose(got[[0, 2, 3]], want, atol=1e-12)
        assert abs(got[1]) < 1e-14  # d(sigma)/dt = Lambda y with Lambda = 0


def test_integrate_and_angle_shift_inversion():
    Y = integrate(lambda Y: np.broadcast_to([1.0, GOLDEN], Y.shape), np.zeros(2), 2.0,
                  np.array([0.0, 2.0]))
    assert np.allclose(Y[-1], [2.0, 2.0 * GOLDEN], atol=1e-9)
    a = sine(2, (1, 0), np.array([0.01, -0.02]), 8)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-3, 3, 2)
        xbar = invert_angle_shift(a, x)
        assert np.allclose(xbar + a.eval(xbar), x, atol=1e-12)


def field_orbits(inst, y0, T, samples=201):
    """The orbit of an instantiated field from y0 at the samples of [0, T], by
    ``integrate`` and by DOP853 at rtol 2.3e-14, atol 1e-15, as a reference."""
    n = inst.family.n
    ts = np.linspace(0.0, T, samples)
    got = integrate(lambda Y: inst.eval(Y[:, :n], Y[:, n:]), y0, T, ts)
    ref = scipy.integrate.solve_ivp(lambda t, y: inst.eval(y[:n], y[n:]), (0.0, T), y0,
                                    method="DOP853", rtol=2.3e-14, atol=1e-15, t_eval=ts)
    return got, ref.y.T


def test_integrate_matches_a_tight_reference_on_a_golden_orbit():
    inst = make_golden_family(delta=1e-3, order=8, seed=2).instantiate(OMEGA0, np.zeros(1), MU0)
    got, ref = field_orbits(inst, np.array([0.4, 1.3, 1e-3, 2e-3, -1e-3]), 100.0)
    assert np.max(np.abs(got - ref)) <= 2e-12


def test_integrate_matches_a_tight_reference_on_a_drift_curve_orbit():
    fam = make_curve_family(order=8)
    inst = fam.instantiate(fam.omega_star + 0.01, np.array([0.03]), np.zeros(0))
    got, ref = field_orbits(inst, np.array([0.4, 1.3, 0.0]), 20.0)
    assert np.max(np.abs(got - ref)) <= 5e-13


def test_integrate_exact_rotation_and_decay():
    """Each rhs call is one stack of the 25 collocation nodes; spans halve
    until a fast rotation or a stiff decay is resolved."""
    shapes = []

    def rotation(Y):
        shapes.append(Y.shape)
        return 50.0 * np.stack([Y[:, 1], -Y[:, 0]], axis=1)

    ts = np.linspace(0.0, 10.0, 101)
    Y = integrate(rotation, np.array([1.0, 0.0]), 10.0, ts)
    assert np.max(np.abs(Y - np.stack([np.cos(50 * ts), -np.sin(50 * ts)], axis=1))) <= 2e-11
    assert set(shapes) == {(25, 2)}
    Y = integrate(lambda Y: -30.0 * Y, np.array([1.0, -2.0]), 10.0, ts)
    assert np.max(np.abs(Y - np.exp(-30.0 * ts)[:, None] * [1.0, -2.0])) <= 1e-12


def test_integrate_blow_up_raises_step_failure_without_warnings():
    # y = 1 / (1 - t) leaves every span that reaches t = 1 unsettled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure):
            integrate(lambda Y: Y * Y, np.array([1.0]), 2.0, np.linspace(0.0, 2.0, 5))


def test_integrate_stops_a_diverging_span_and_does_not_retry_a_failed_length():
    """Right-hand side calls, each one stack of nodes.  A blow-up y' = y^2 from
    1 over [0, 2] took 2,893 when each failed span ran its 40 steps after its
    iterates overflowed; it must take at most 1,500 and still raise
    StepFailure with no warning.  A fast rotation over T = 10 took 6,080 when
    each kept span doubled into the length that had just failed; it must
    take at most 4,700 and still meet the rotation's 2e-11."""
    calls = []

    def counted(fn):
        return lambda Y: calls.append(1) or fn(Y)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure):
            integrate(counted(lambda Y: Y * Y), np.array([1.0]), 2.0, np.linspace(0.0, 2.0, 5))
    assert len(calls) <= 1500
    calls.clear()
    ts = np.linspace(0.0, 10.0, 101)
    Y = integrate(counted(lambda Y: 50.0 * np.stack([Y[:, 1], -Y[:, 0]], axis=1)),
                  np.array([1.0, 0.0]), 10.0, ts)
    assert len(calls) <= 4700
    assert np.max(np.abs(Y - np.stack([np.cos(50 * ts), -np.sin(50 * ts)], axis=1))) <= 2e-11


@pytest.mark.parametrize("T", [3.3, 5.0, 0.7])
def test_integrate_fills_every_sample(T):
    """T need not be a multiple of the span; t = T is read off the last one.
    A sample left unfilled would hold whatever np.empty gave it; a filled one
    is within the tolerance, 1e-12 absolute and relative, of a unit circle."""
    ts = np.linspace(0.0, T, 12)
    Y = integrate(lambda Y: np.stack([Y[:, 1], -Y[:, 0]], axis=1), np.array([0.0, 1.0]), T, ts)
    assert np.max(np.abs(Y - np.stack([np.sin(ts), np.cos(ts)], axis=1))) <= 2e-12


def per_point_inverse(a, x, tol=1e-14, max_iter=100):
    """The per-point fixed point the batched inversion replaced; also says
    whether it converged before ``max_iter``."""
    xbar = np.asarray(x, dtype=float).copy()
    for _ in range(max_iter):
        nxt = x - a.eval(xbar)
        if np.max(np.abs(nxt - xbar)) < tol:
            return nxt, True
        xbar = nxt
    return xbar, False


def test_batched_inversion_equals_per_point_loop():
    # contraction rate 0.3 |cos x_1|: fast near x_1 = pi/2, slow near 0
    a = (sine(2, (1, 0), np.array([0.3, -0.1]), 8)
         + sine(2, (1, 1), np.array([0.002, 0.004]), 8))
    rng = np.random.default_rng(7)
    X = np.vstack([rng.uniform(-3, 3, (30, 2)), [[np.pi / 2, 0.3], [0.0, 0.3]]])
    for max_iter in (100, 12):
        got = invert_angle_shift(a, X, max_iter=max_iter)
        done = []
        for x, row in zip(X, got):
            want, converged = per_point_inverse(a, x, max_iter=max_iter)
            np.testing.assert_array_equal(row, want)
            done.append(converged)
        assert all(done) if max_iter == 100 else (any(done) and not all(done))
    np.testing.assert_array_equal(invert_angle_shift(a, X[0]), per_point_inverse(a, X[0])[0])


def per_sample_verify(field, a, W0, W1, omega0, T, samples):
    """verify_torus as a loop over the samples, one pullback at a time."""
    n = field.family.n
    x_bar0 = np.linspace(0.4, 0.4 + 0.9 * (n - 1), n)
    y0 = np.concatenate([x_bar0 + a.eval(x_bar0), W0.eval(x_bar0)])
    Y = integrate(lambda Y: field.eval(Y[:, :n], Y[:, n:]), y0, T, np.linspace(0.0, T, samples))
    dev, xbars = 0.0, []
    for y in Y:
        xbar = per_point_inverse(a, y[:n])[0]
        wbar = np.linalg.solve(W1.eval(xbar), y[n:] - W0.eval(xbar))
        dev = max(dev, float(np.max(np.abs(wbar))))
        xbars.append(xbar)
    return dev, float(np.max(np.abs((xbars[-1] - xbars[0]) / T - omega0)))


def test_verify_torus_equals_per_sample_loop():
    fam = make_golden_family(delta=1e-3, order=8, seed=2)
    inst = fam.instantiate(OMEGA0, np.zeros(1), MU0)
    a = sine(2, (1, 0), np.array([0.01, -0.02]), 8)
    W0 = FourierSeries.cosine(2, (0, 1), np.array([1e-3, 0.0, 2e-3]), 8)
    W1 = (FourierSeries.constant(2, np.eye(3), 8)
          + FourierSeries.cosine(2, (1, 1), 0.01 * np.arange(9.0).reshape(3, 3), 8))
    got = verify_torus(inst, a, W0, W1, OMEGA0, T=20.0, samples=41)
    want = per_sample_verify(inst, a, W0, W1, OMEGA0, T=20.0, samples=41)
    assert got[0] > 1e-4  # the made-up transform is far from invariant
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)


def test_check_transform_commutes_flags_even_shift():
    fam = make_golden_family(delta=0.0, order=8)
    S = fam.S_w
    N = 8
    a_odd = sine(2, (1, 0), np.array([0.01, 0.0]), N)
    a_even = FourierSeries.cosine(2, (1, 0), np.array([0.01, 0.0]), N)
    W0 = FourierSeries(2, (3,), N)
    W1 = FourierSeries.constant(2, np.eye(3), N)
    assert check_transform_commutes(a_odd, W0, W1, S) == []
    viol = check_transform_commutes(a_even, W0, W1, S)
    assert viol and "a(" in viol[0].identity


def test_verify_torus_on_unperturbed_family():
    fam = make_golden_family(delta=0.0, order=8)
    inst = fam.instantiate(OMEGA0, np.zeros(1), MU0)
    N = 8
    a = FourierSeries(2, (2,), N)
    W0 = FourierSeries(2, (3,), N)
    W1 = FourierSeries.constant(2, np.eye(3), N)
    dev, rot_err = verify_torus(inst, a, W0, W1, OMEGA0, T=20.0, samples=41)
    assert dev < 1e-9
    assert rot_err < 1e-9


# -- toy models ---------------------------------------------------------------------


@pytest.mark.parametrize("eps", [1e-2, -1e-3])
@pytest.mark.parametrize("c", [1e-2, -1e-3])
def test_toy_ex1_constant_terms_closed_form(eps, c):
    res = toy_ex1(lambda a, b: eps, lambda a, b: c)
    assert isinstance(res, ToyEx1Result)
    assert abs(res.z - (-eps)) < 1e-12
    assert abs(res.w - (-c)) < 1e-12
    assert res.normal_form_error < 1e-10


def test_toy_ex1_nonconstant_terms():
    eps, c = 1e-2, -2e-3
    res = toy_ex1(lambda a, b: eps + 0.2 * b, lambda a, b: c + 0.1 * b)
    want_z = -eps / 1.2
    assert abs(res.z - want_z) < 1e-12
    assert abs(res.w - (-(c + 0.1 * want_z))) < 1e-10
    with pytest.raises(RootFindFailure):
        toy_ex1(lambda a, b: 1.0, lambda a, b: 0.0)


@pytest.mark.parametrize("c", [1e-2, -1e-2, 1e-3, -1e-3])
def test_toy_ex2_constant_obstruction(c):
    res = toy_ex2(lambda a, b: 0.0, lambda a, b: c)
    assert isinstance(res, ToyNoSolution)
    assert res.min_residual >= 0.99 * abs(c)


def test_toy_ex2_solvable_case():
    res = toy_ex2(lambda a, b: 0.0, lambda a, b: 0.3 * np.sin(a))
    assert isinstance(res, ToySolution)
    assert abs(res.z) < 1e-8
    assert abs(res.w + 0.3) < 1e-6
    assert res.residual < 1e-10


def test_toy_linear_removes_inhomogeneity():
    inv = InvolutionStructure(np.diag([1.0, -1.0]))
    out = toy_linear(lambda mu: np.array([[0.0, 1.0 + mu], [-1.0, 0.0]]),
                     lambda mu: np.array([0.0, 0.5 * mu]),
                     [0.0, 0.25, 0.5], inv=inv)
    for mu, delta, resid in out:
        assert resid < 1e-12
        assert abs(delta[1]) < 1e-12          # shift lives on the fixed axis
        assert abs(delta[0] - 0.5 * mu) < 1e-12
