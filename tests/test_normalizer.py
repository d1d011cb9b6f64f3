"""Newton normalization: conjugation, single sweeps, full runs, shifts.

Oracles: pointwise pushforward identities for the conjugation; a hand-rolled
zero-mode least-squares system for the parameter shift (closed form
w = (1.04 * 0.4 - 0.6) * delta for the constructed z-linear perturbation).
"""
import numpy as np
import pytest

from conftest import MU0, OMEGA0, make_config, make_golden_family
from kamrev.errors import NoConvergence, SmallDivisor, TruncationOverflow
from kamrev.fourier import FourierSeries
from kamrev.ftaylor import FourierTaylor
from kamrev.normalizer import (NormalizerConfig, conjugate_field, newton_step,
                               normalize, normalize_augmented)
from kamrev.revsystem import ReversibleFamily

CFG8 = make_config(tol=1e-11)


def small_family(delta, seed=0, order=8):
    return make_golden_family(delta=delta, seed=seed, order=order)


def deriv_matrix(s):
    cols = [s.deriv_x(j) for j in range(s.n)]
    return lambda x: np.stack([c.eval(x) for c in cols], axis=-1)


def test_conjugate_field_pushforward_identities():
    """New field must satisfy X(x, w) = D(transform) . Xbar pointwise."""
    fam = small_family(1e-3)
    inst = fam.instantiate(OMEGA0, np.array([0.02]), MU0)
    N, q = fam.order, fam.q
    a = FourierSeries.sine(2, (1, 0), np.array([0.008, -0.004]), N)
    W0 = FourierSeries.sine(2, (0, 1), np.array([0.005, 0.0, 0.0]), N) \
        + FourierSeries.cosine(2, (1, 0), np.array([0.0, 0.006, 0.0]), N)
    W1 = FourierSeries.constant(2, np.eye(q), N) \
        + FourierSeries.cosine(2, (1, 1), 0.01 * np.eye(q), N)
    Xx_b, Xw_b = conjugate_field(inst.Xx, inst.Xw, a, W0, W1)

    Da = deriv_matrix(a)
    DW0 = deriv_matrix(W0)
    W1cols = [W1.map_values(lambda v, i=i: v[:, i], shape=(q,)) for i in range(q)]
    DW1 = [deriv_matrix(c) for c in W1cols]

    rng = np.random.default_rng(0)
    for _ in range(6):
        xb = rng.uniform(-3, 3, 2)
        wb = rng.uniform(-0.05, 0.05, q)
        x = xb + a.eval(xb)
        w = W0.eval(xb) + W1.eval(xb) @ wb
        vx = Xx_b.eval(xb, wb)
        vw = Xw_b.eval(xb, wb)
        lhs_x = inst.Xx.eval(x, w)
        assert np.allclose(lhs_x, (np.eye(2) + Da(xb)) @ vx, atol=1e-7)
        lhs_w = inst.Xw.eval(x, w)
        rhs_w = DW0(xb) @ vx + W1.eval(xb) @ vw
        for i in range(q):
            rhs_w += wb[i] * (DW1[i](xb) @ vx)
        assert np.allclose(lhs_w, rhs_w, atol=1e-7)


def test_conjugate_field_identity_shortcut():
    fam = small_family(1e-3)
    inst = fam.instantiate(OMEGA0, np.zeros(1), MU0)
    N, q = fam.order, fam.q
    a = FourierSeries.zero(2, (2,), N)
    W0 = FourierSeries.zero(2, (q,), N)
    W1 = FourierSeries.constant(2, np.eye(q), N)
    Xx, Xw = conjugate_field(inst.Xx, inst.Xw, a, W0, W1)
    assert Xx is inst.Xx and Xw is inst.Xw


def test_newton_step_contracts_quadratically():
    fam = small_family(1e-3, seed=2)
    inc, before, after = newton_step(fam, OMEGA0, MU0, CFG8)
    assert before > 1e-5
    assert after <= 1e6 * before ** 2
    assert after < 0.1 * before


def test_normalize_zero_perturbation_is_identity():
    fam = small_family(0.0)
    res = normalize(fam, OMEGA0, MU0, CFG8)
    assert res.residual_history == [0.0]
    assert np.all(res.u == 0) and np.all(res.v == 0) and np.all(res.w == 0)
    assert res.a.majorant() == 0.0
    assert res.W0.majorant() == 0.0
    assert (res.W1 - FourierSeries.constant(2, np.eye(3), fam.order)).majorant() == 0.0


def test_normalize_converges_with_quadratic_history():
    fam = small_family(1e-4, seed=1)
    res = normalize(fam, OMEGA0, MU0, CFG8)
    hist = res.residual_history
    assert hist[-1] <= CFG8.tol
    for r0, r1 in zip(hist, hist[1:]):
        assert r1 <= max(1e6 * r0 * r0, CFG8.tol)
    # the normalized field: x-row constant = omega0, w-rows vanish at wbar = 0
    assert (res.Xx.taylor0()
            - FourierSeries.constant(2, OMEGA0, fam.order)).majorant() < 1e-10
    assert res.Xw.taylor0().majorant() < 1e-10
    lin = res.Xw.linear_w().average()
    assert np.allclose(lin[1:, 1:], res.Q_target, atol=1e-9)
    assert res.diagnostics["b1_average_dust"] < 1e-12
    sm = res.smallness()
    assert sm["ok"]


def test_shift_solves_zero_mode_least_squares():
    """Only perturbation: h = M z with M anti-commuting with R.  The
    zero-mode system couples a gl(+R) conjugation with the unfolding
    direction; eliminating it by hand gives w = (1.04 * 0.4 - 0.6) * delta."""
    delta = 1e-4
    base = small_family(0.0)
    M = delta * np.array([[0.0, 0.6], [0.4, 0.0]])
    hz = {}
    for j in range(2):
        alpha = [0, 0, 0]
        alpha[1 + j] = 1
        hz[tuple(alpha)] = FourierSeries.constant(2, M[:, j], base.order)
    h = FourierTaylor(2, 3, (2,), base.order, base.degree, hz)
    fam = base.with_perturbation(None, None, h)
    assert fam.check_reversibility() == []
    res = normalize(fam, OMEGA0, MU0, CFG8)

    Q = np.array([[0.0, 1.04], [-1.0, 0.0]])
    D = np.array([[0.0, 1.0], [0.0, 0.0]])
    plus = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    A = np.stack([(P @ Q - Q @ P).ravel() for P in plus] + [-D.ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(A, M.ravel(), rcond=None)
    w_hand = coef[-1]
    assert np.isclose(w_hand, -0.184 * delta, rtol=1e-12)
    assert abs(res.w[0] - w_hand) < 1e-3 * abs(w_hand)
    # u and v have no first-order source here
    assert np.max(np.abs(res.u)) < 1e-7
    assert np.max(np.abs(res.v)) < 1e-7


def test_normalize_linear_response_of_shifts():
    runs = {d: normalize(small_family(d, seed=3), OMEGA0, MU0, CFG8)
            for d in (1e-5, 1e-4)}
    for pick in (lambda r: r.u, lambda r: r.v, lambda r: r.w):
        slopes = [np.max(np.abs(np.asarray(pick(runs[d])))) / d
                  for d in (1e-5, 1e-4)]
        assert min(slopes) > 0
        assert max(slopes) / min(slopes) < 10.0


def test_normalize_rejects_resonant_frequency():
    fam = small_family(1e-4)
    with pytest.raises(SmallDivisor):
        normalize(fam, np.array([1.0, 1.5]), MU0, CFG8)


def test_normalize_reports_failures():
    # iteration budget exhausted before the tolerance is reached
    fam = small_family(1e-3, seed=4)
    cfg = make_config(tol=1e-13, max_iter=1)
    with pytest.raises(NoConvergence):
        normalize(fam, OMEGA0, MU0, cfg)
    # forcing far outside the perturbative regime trips the mass accounting
    big = small_family(0.3, seed=4)
    with pytest.raises(TruncationOverflow):
        normalize(big, OMEGA0, MU0, make_config(tol=1e-11, max_iter=3))


def test_normalized_transform_blocks_have_stated_shapes():
    fam = small_family(1e-4, seed=6)
    res = normalize(fam, OMEGA0, MU0, CFG8)
    assert res.b0().shape == (1,)
    assert res.c0().shape == (2,)
    assert res.b1().shape == (1, 1)
    assert res.b2().shape == (1, 2)
    assert res.c1().shape == (2, 1)
    assert res.c2().shape == (2, 2)
    assert res.a.shape == (2,)
    assert res.W0.shape == (3,)


def test_augmented_route_cancellations_and_agreement():
    fam = small_family(1e-4, seed=1)
    direct = normalize(fam, OMEGA0, MU0, CFG8)
    aug = normalize_augmented(fam, OMEGA0, MU0, CFG8)
    cz = aug.cancellations
    assert cz["unfolding_shift"] <= 1e-9
    assert cz["sigma_y_block"] <= 1e-9
    assert cz["sigma_z_block"] <= 1e-9
    assert cz["sigma_const_variation"] <= 1e-9
    assert cz["sigma_sigma_variation"] <= 1e-9
    for key in ("q1_residual", "q2_residual", "q3_residual", "shift_formula_gap"):
        assert cz[key] <= 1e-9, key
    # role agreement between the two routes
    assert np.max(np.abs(aug.u - direct.u)) < 1e-8
    assert np.max(np.abs(aug.v - direct.w)) < 1e-8
    assert np.max(np.abs(aug.sigma_value() - direct.v)) < 1e-8
