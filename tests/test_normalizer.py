"""Newton normalization: conjugation, single sweeps, full runs, shifts.

Oracles: pointwise pushforward identities for the conjugation; a hand-rolled
zero-mode least-squares system for the parameter shift (closed form
w = (1.04 * 0.4 - 0.6) * delta for the constructed z-linear perturbation).
"""
import numpy as np
import pytest

from conftest import MU0, OMEGA0, make_config, make_curve_family, make_golden_family, sine
from kamrev.errors import NoConvergence, SmallDivisor, TruncationOverflow
from kamrev import fourier, ftaylor
from kamrev.fourier import DUST_TOL, AngleShift, FourierSeries, fs_matmul
from kamrev.ftaylor import FourierTaylor, WSubstitution, ft_matmul, ft_neumann_solve
from kamrev.normalizer import (NormalizerConfig, _compose, _Increment, conjugate_field, normalize,
                               normalize_augmented)
from kamrev.revsystem import ReversibleFamily

CFG8 = make_config(tol=1e-11)


def small_family(delta, seed=0, order=8):
    return make_golden_family(delta=delta, seed=seed, order=order)


def deriv_matrix(s):
    cols = [s.directional_derivative(e) for e in np.eye(s.n)]
    return lambda x: np.stack([c.eval(x) for c in cols], axis=-1)


def pushforward_case():
    """A family, its field at one parameter point, and a transform (a, W0, W1)."""
    fam = small_family(1e-3)
    inst = fam.instantiate(OMEGA0, np.array([0.02]), MU0)
    N, q = fam.order, fam.q
    a = sine(2, (1, 0), np.array([0.008, -0.004]), N)
    W0 = sine(2, (0, 1), np.array([0.005, 0.0, 0.0]), N) \
        + FourierSeries.cosine(2, (1, 0), np.array([0.0, 0.006, 0.0]), N)
    W1 = FourierSeries.constant(2, np.eye(q), N) \
        + FourierSeries.cosine(2, (1, 1), 0.01 * np.eye(q), N)
    return fam, inst, a, W0, W1


def test_conjugate_field_pushforward_identities():
    """New field must satisfy X(x, w) = D(transform) . Xbar pointwise."""
    fam, inst, a, W0, W1 = pushforward_case()
    q = fam.q
    Xx_b, Xw_b = conjugate_field(inst.Xx, inst.Xw, a, W0, W1, fam.degree)

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


def test_conjugate_field_to_a_lower_degree_is_the_jet_of_the_full_one(monkeypatch):
    """Conjugated through degree 2, the field is the rows of degree <= 2 of
    the field conjugated through the family's degree, bit for bit when each
    product sums its pairs in one block."""
    monkeypatch.setattr(fourier, "PAIR_BLOCK", 1 << 40)
    fam, inst, a, W0, W1 = pushforward_case()
    full = conjugate_field(inst.Xx, inst.Xw, a, W0, W1, fam.degree)
    assert max(F.A.sum(axis=1).max() for F in full) == fam.degree == 3
    for got, F in zip(conjugate_field(inst.Xx, inst.Xw, a, W0, W1, 2), full):
        assert got.degree == 2
        low = F.A.sum(axis=1) <= 2
        for name in "AKV":
            np.testing.assert_array_equal(getattr(got, name), getattr(F, name)[low])


def test_conjugate_field_identity_shortcut():
    fam = small_family(1e-3)
    inst = fam.instantiate(OMEGA0, np.zeros(1), MU0)
    N, q = fam.order, fam.q
    a = FourierSeries(2, (2,), N)
    W0 = FourierSeries(2, (q,), N)
    W1 = FourierSeries.constant(2, np.eye(q), N)
    Xx, Xw = conjugate_field(inst.Xx, inst.Xw, a, W0, W1, 2)
    assert Xx is inst.Xx and Xw is inst.Xw


def two_field_conjugation(Xx, Xw, a, W0, W1, degree):
    """conjugate_field as it was before Xx and Xw were stacked: each shifted
    and substituted on its own, with the same solves."""
    n, q = Xx.n, Xw.shape[0]
    shift = AngleShift(FourierSeries(n, a.shape, a.order, K=a.K, V=a.V))
    sub = WSubstitution(W0, W1, degree)
    XxT, XwT = sub.apply(shift.apply(Xx)), sub.apply(shift.apply(Xw))
    Xx_bar = ft_neumann_solve(a.grad_x(), XxT)
    rhs = XwT - ft_matmul(sub.affine.grad_x(), Xx_bar)
    return Xx_bar, ft_neumann_solve(W1 - FourierSeries.constant(n, np.eye(q), W1.order), rhs)


def normalized_case(fam, omega0, mu0):
    """A family's field at the parameters a normalization ends on, and its
    transform (a, W0, W1)."""
    res = normalize(fam, omega0, mu0, make_config(tol=1e-11))
    return fam.instantiate(res.omega0 + res.u, res.v, res.mu0 + res.w), res.a, res.W0, res.W1


def lossy(s, loss):
    out = s * 1.0
    out.trunc_loss = loss
    return out


@pytest.mark.parametrize("case", ["golden-given", "golden-normalized", "curve-normalized"])
@pytest.mark.parametrize("losses", [False, True])
def test_stacked_conjugation_matches_the_two_field_one(case, losses):
    """Xx and Xw shifted and substituted as one field against one at a time,
    through degree 2 and the family's degree: every coefficient agrees to
    1e-15 of the majorant of its result.  The loss the budget reads, that of
    Xx plus that of Xw, is at most the two-field one plus DUST_TOL times the
    results' majorants: the stacked field prunes its dust against the top
    of both halves, unrecorded, so the products formed from it may cut that
    much more.  With losses, the fields carry 1e-12 and 2e-12, and a and W1
    3e-13 and 5e-13; the two-field conjugation records Xx's loss twice, in
    its solve and again in Xw's, where the stacked field's loss enters once,
    so the stacked loss is 1e-12 lower to within that allowance."""
    if case == "golden-given":
        fam, inst, a, W0, W1 = pushforward_case()
    elif case == "golden-normalized":
        fam = small_family(1e-3, seed=1)
        inst, a, W0, W1 = normalized_case(fam, OMEGA0, MU0)
    else:
        fam = make_curve_family(delta=1e-4, order=8)
        inst, a, W0, W1 = normalized_case(fam, np.array([1.0, 1.55]), np.zeros(0))
    Xx, Xw = inst.Xx, inst.Xw
    if losses:
        Xx, Xw, a, W1 = lossy(Xx, 1e-12), lossy(Xw, 2e-12), lossy(a, 3e-13), lossy(W1, 5e-13)
    for degree in sorted({2, fam.degree}):
        got = conjugate_field(Xx, Xw, a, W0, W1, degree)
        want = two_field_conjugation(Xx, Xw, a, W0, W1, degree)
        for g, w in zip(got, want):
            assert np.abs((g - w).V).max(initial=0.0) <= 1e-15 * w.majorant()
        allowance = DUST_TOL * sum(g.majorant() for g in got)
        once = 1e-12 if losses else 0.0
        assert (sum(g.trunc_loss for g in got)
                <= sum(w.trunc_loss for w in want) - once + allowance)


def three_shift_composition(a, W0, W1, inc):
    """_compose as it was before a, W0 and W1 were shifted as one series."""
    shift = AngleShift(inc.da)
    W1_shifted = shift.apply(W1)
    return (inc.da + shift.apply(a), shift.apply(W0) + fs_matmul(W1_shifted, inc.psi0),
            fs_matmul(W1_shifted, inc.dW1))


@pytest.mark.parametrize("losses", [False, True])
def test_composition_shifts_the_transform_as_one_series(losses):
    """_compose against ``three_shift_composition`` on the pushforward
    transform and an increment of size 1e-3: a, W0 and W1 each agree to
    1e-15 of their majorant plus DUST_TOL times the largest of the three
    majorants, as the flat series prunes its dust against all three.  Each
    part keeps its own loss, never less: with a, W0 and W1 carrying 1e-12,
    2e-12 and 3e-12, a's is at least 1e-12, W1's at least 3e-12 and W0's at
    least 5e-12, its own and W1's through the product.  Each takes on the
    flat shift's loss, so it may read more than the reference's, but at
    most the three reference losses together."""
    fam, _, a, W0, W1 = pushforward_case()
    N, q = fam.order, fam.q
    inc = _Increment(sine(2, (1, 1), np.array([1e-3, 5e-4]), N),
                     FourierSeries.cosine(2, (0, 1), np.array([1e-3, 0.0, -1e-3]), N),
                     FourierSeries.constant(2, np.eye(q), N)
                     + FourierSeries.cosine(2, (1, 0), 1e-3 * np.ones((q, q)), N),
                     np.zeros(2), np.zeros(1), np.zeros(1))
    if losses:
        a, W0, W1 = lossy(a, 1e-12), lossy(W0, 2e-12), lossy(W1, 3e-12)
    got, want = _compose(a, W0, W1, inc), three_shift_composition(a, W0, W1, inc)
    top = max(w.majorant() for w in want)
    for g, w in zip(got, want):
        assert (g.shape, g.order) == (w.shape, w.order)
        assert np.abs((g - w).V).max(initial=0.0) <= 1e-15 * w.majorant() + DUST_TOL * top
        assert g.trunc_loss <= sum(w.trunc_loss for w in want)
    if losses:
        assert got[0].trunc_loss >= 1e-12 and got[2].trunc_loss >= 3e-12
        assert got[1].trunc_loss >= 5e-12


def test_newton_step_contracts_quadratically():
    """One sweep from the identity transform: the residual it leaves is
    quadratic in the one it started from."""
    fam = small_family(1e-3, seed=2)
    with pytest.raises(NoConvergence) as exc:
        normalize(fam, OMEGA0, MU0, make_config(tol=1e-11, max_iter=1))
    before, after = exc.value.history
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
    y, z = slice(0, 1), slice(1, 3)
    assert res.block(y).shape == (1,)
    assert res.block(z).shape == (2,)
    assert res.block(y, y).shape == (1, 1)
    assert res.block(y, z).shape == (1, 2)
    assert res.block(z, y).shape == (2, 1)
    assert res.block(z, z).shape == (2, 2)
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


@pytest.mark.parametrize("route, bound", [(normalize, 1_000_000),
                                          (normalize_augmented, 1_700_000)],
                         ids=["normalize", "normalize_augmented"])
def test_golden_fourier_taylor_pairs_stay_bounded(monkeypatch, golden_family, route, bound):
    """The Fourier-Taylor pairs within each product's degree that the kernel
    forms on the golden family (order 16, tol 1e-11): 865,807 and 1,425,250
    when a sweep conjugates only the 2-jet it reads; 1,327,346 and
    2,486,546 when it conjugates every degree of the family."""
    kernel, pairs = fourier._convolve, []

    def counting(a, b, vcombine, out_shape):
        if a.q:
            degree = max(a.degree, b.degree)
            pairs.append(int((a.A.sum(axis=1)[:, None] + b.A.sum(axis=1) <= degree).sum()))
        return kernel(a, b, vcombine, out_shape)

    monkeypatch.setattr(fourier, "_convolve", counting)
    monkeypatch.setattr(ftaylor, "_convolve", counting)  # imported by name there
    route(golden_family, OMEGA0, MU0, make_config(tol=1e-11))
    assert 0 < sum(pairs) <= bound
