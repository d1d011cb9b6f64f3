"""Sparse Fourier layer: evaluation, algebra, shifts, serialization.

Oracle for products and shifts: pointwise evaluation on a fixed sample of
angles, compared against numpy arithmetic on the evaluated values.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import fs_stack, sine
from kamrev.errors import ImaginaryResidue
from kamrev.fourier import DUST_TOL, AngleShift, FourierSeries, fs_matmul, fs_mul, order1
from kamrev.ftaylor import FourierTaylor
from test_fourier_oracle import DIMS, ORDERS, SETTINGS, real_series

ORDER = 12
XS = [np.array([0.0, 0.0]), np.array([0.7, -1.3]), np.array([2.9, 4.1]),
      np.array([-0.4, 0.25])]


def random_series(rng, n, shape, order, kmax=3, real_reality=True):
    coeffs = {}
    for _ in range(6):
        k = tuple(int(c) for c in rng.integers(-kmax, kmax + 1, size=n))
        if order1(k) > order:
            continue
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if all(c == 0 for c in k):
            v = v.real.astype(complex)
        coeffs[k] = v
        mk = tuple(-c for c in k)
        if mk != k:
            coeffs[mk] = np.conj(v)
    return FourierSeries(n, shape, order, coeffs)


def eval_oracle(s, x):
    """Direct mode sum, no caching or vectorization."""
    out = np.zeros(s.shape, dtype=complex)
    for k, v in s.coeffs.items():
        out = out + v * np.exp(1j * np.dot(k, x))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_eval_matches_direct_mode_sum(seed):
    rng = np.random.default_rng(seed)
    s = random_series(rng, 2, (3,), ORDER)
    for x in XS:
        got = s.eval(x)
        want = eval_oracle(s, x)
        assert np.allclose(got, want.real, atol=1e-13)
        assert np.max(np.abs(want.imag)) < 1e-12  # reality enforced


def test_constructors_closed_forms():
    c = FourierSeries.constant(2, np.array([1.0, -2.0]), ORDER)
    s = sine(2, (1, 0), np.array([0.5, 0.0]), ORDER)
    co = FourierSeries.cosine(2, (0, 2), np.array([0.0, 3.0]), ORDER)
    for x in XS:
        assert np.allclose(c.eval(x), [1.0, -2.0])
        assert np.allclose(s.eval(x), [0.5 * np.sin(x[0]), 0.0])
        assert np.allclose(co.eval(x), [0.0, 3.0 * np.cos(2 * x[1])])


def test_linear_algebra_pointwise():
    rng = np.random.default_rng(7)
    a = random_series(rng, 2, (3,), ORDER)
    b = random_series(rng, 2, (3,), ORDER)
    for x in XS:
        assert np.allclose((a + b).eval(x), a.eval(x) + b.eval(x), atol=1e-13)
        assert np.allclose((a - b).eval(x), a.eval(x) - b.eval(x), atol=1e-13)
        assert np.allclose((a * 2.5).eval(x), 2.5 * a.eval(x), atol=1e-13)


def test_fs_mul_matches_pointwise_product():
    rng = np.random.default_rng(11)
    a = random_series(rng, 2, (2,), ORDER, kmax=2)
    b = random_series(rng, 2, (2,), ORDER, kmax=2)
    p = fs_mul(a, b)
    for x in XS:
        assert np.allclose(p.eval(x), a.eval(x) * b.eval(x), atol=1e-12)


@pytest.mark.parametrize("shapes", [((2, 3), (3,)), ((3,), (3, 2)), ((2, 3), (3, 2)),
                                    ((3,), (3,))])
def test_fs_matmul_matches_pointwise(shapes):
    sa, sb = shapes
    rng = np.random.default_rng(sum(sa) + 10 * sum(sb))
    a = random_series(rng, 2, sa, ORDER, kmax=2)
    b = random_series(rng, 2, sb, ORDER, kmax=2)
    p = fs_matmul(a, b)
    for x in XS:
        want = a.eval(x) @ b.eval(x)
        assert np.allclose(p.eval(x), want, atol=1e-12), shapes


def test_derivatives_exact_on_modes():
    rng = np.random.default_rng(3)
    s = random_series(rng, 2, (2,), ORDER)
    omega = np.array([1.0, 0.3])
    d0 = s.directional_derivative([1.0, 0.0])
    dd = s.directional_derivative(omega)
    for k, v in s.coeffs.items():
        assert np.allclose(d0.coeffs.get(k, np.zeros(2)), 1j * k[0] * v)
        assert np.allclose(dd.coeffs.get(k, np.zeros(2)),
                           1j * np.dot(k, omega) * v)


def test_average_reflect_phase_shift():
    rng = np.random.default_rng(5)
    s = random_series(rng, 2, (2,), ORDER)
    assert np.allclose(s.average(), s.coeffs.get((0, 0), np.zeros(2)).real)
    refl = s.reflect()
    for x in XS:
        assert np.allclose(refl.eval(x), s.eval(-x), atol=1e-13)


def test_truncation_records_dropped_mass():
    a = FourierSeries.cosine(1, (ORDER,), np.array([1.0]), ORDER)
    p = fs_mul(a, a)  # mode 2*ORDER falls outside
    assert all(order1(k) <= ORDER for k in p.coeffs)
    assert p.trunc_loss > 0.0
    small = a.truncate(ORDER - 1)
    assert not small.coeffs
    assert small.trunc_loss > 0.0


def test_a_matrix_product_skipped_whole_records_a_bound_on_its_mass():
    # under DROP_TOL: each entry of (1, 4) @ (4,) sums four products of 1e-11
    row = FourierSeries.constant(2, np.full((1, 4), 1e-11), ORDER)
    col = FourierSeries.constant(2, np.full((4,), 1e-11), ORDER)
    p = fs_matmul(row, col)
    assert not p.coeffs
    assert p.trunc_loss == pytest.approx(4e-22, rel=1e-12, abs=0.0)


def _with_mode(s, k, value):
    """s plus value cos(<k, x>)."""
    return s + FourierSeries.cosine(s.n, k, value, s.order)


def test_dust_below_1e_17_of_the_largest_mode_is_dropped():
    big = FourierSeries.cosine(2, (1, 0), np.array([4.0, -2.0]), ORDER)  # norm 2 at +-k
    s = _with_mode(_with_mode(big, (0, 3), np.array([0.0, 4e-18])), (2, 1),
                   np.array([4e-16, 0.0]))
    # the modes at 1e-18 of the largest norm are gone, those at 1e-16 kept
    assert sorted(s.coeffs) == [(-2, -1), (-1, 0), (1, 0), (2, 1)]
    np.testing.assert_array_equal(s.coeffs[(2, 1)], [2e-16, 0.0])
    # the floor is relative: the same modes alone are all kept
    assert len(FourierSeries.cosine(2, (0, 3), np.array([0.0, 4e-18]), ORDER).K) == 2


@pytest.mark.parametrize("seed", range(3))
def test_scaling_keeps_the_modes_because_the_floor_is_relative(seed):
    rng = np.random.default_rng(seed)
    s = _with_mode(random_series(rng, 2, (2,), ORDER), (4, 1), np.array([1e-15, 0.0]))
    small = s * 1e-10
    np.testing.assert_array_equal(small.K, s.K)
    np.testing.assert_array_equal((small * 1e10).K, s.K)


def test_pruned_dust_is_not_counted_as_truncation_loss():
    big = FourierSeries(1, (1,), ORDER, {(1,): np.array([1.0]), (-1,): np.array([1.0])},
                        trunc_loss=3e-9)
    dust = FourierSeries(1, (1,), ORDER, {(2,): np.array([1e-18]), (-2,): np.array([1e-18])},
                         trunc_loss=1e-12)
    total = big + dust
    assert sorted(total.coeffs) == [(-1,), (1,)]
    assert total.trunc_loss == 3e-9 + 1e-12


def test_a_product_takes_its_dust_floor_before_truncation():
    """cos x sin x lies beyond order 1, and the 1e-17 zero mode it meets is
    dust next to it: cut at order 1, the product keeps no mode, as the
    untruncated product keeps none up to order 1.  The loss is the mass
    beyond the order alone."""
    a = FourierSeries(1, (2,), 1, {(1,): np.array([0.5, 0]), (-1,): np.array([0.5, 0]),
                                   (0,): np.array([0, 1e-17])})
    b = FourierSeries(1, (2,), 1, {(1,): np.array([-50j, 0]), (-1,): np.array([50j, 0]),
                                   (0,): np.array([0, 1.0])})
    assert len(a.K) == len(b.K) == 3
    full = fs_mul(FourierSeries(1, (2,), 2, K=a.K, V=a.V), FourierSeries(1, (2,), 2, K=b.K, V=b.V))
    assert full.K.ravel().tolist() == [-2, 2]
    cut = fs_mul(a, b)
    assert len(cut.K) == 0 and cut.trunc_loss == full.majorant() == 50.0


def test_strip_norm_weights_modes():
    s = FourierSeries.cosine(2, (1, 2), np.array([2.0]), ORDER)
    rho = 0.3
    # cosine splits into two modes of weight |value|/2 each at |k| = 3
    want = 2.0 * np.exp(rho * 3)
    assert np.isclose(s.strip_norm(rho), want)
    assert np.isclose(s.majorant(), 2.0)


def test_fs_stack_adds_an_axis_like_numpy():
    rng = np.random.default_rng(17)
    a = random_series(rng, 2, (2,), ORDER)
    b = random_series(rng, 2, (2,), ORDER)
    st = fs_stack([a, b], axis=-1)
    assert st.shape == (2, 2)
    for x in XS:
        assert np.allclose(st.eval(x), np.stack([a.eval(x), b.eval(x)], axis=-1),
                           atol=1e-13)


def stacked_partials(s):
    """The Jacobian as fs_stack of the partials along each angle, each pruned
    against its own largest mode: the reference for grad_x on a series."""
    return fs_stack([s.directional_derivative(e) for e in np.eye(s.n)], axis=-1)


@SETTINGS
@given(data=st.data(), n=DIMS, d=st.integers(1, 3), order=ORDERS,
       decades=st.sampled_from([0, 8, 16, 17, 18]))
def test_grad_x_matches_the_stacked_partials(data, n, d, order, decades):
    """grad_x prunes the Jacobian once, against its largest row.  With every
    stored mode within 15 decades of the largest, as when the modes share a
    scale, neither side prunes a nonzero entry and the two agree bit for bit.
    Otherwise a row differs only by entries under the dust floor of one side,
    each less than DUST_TOL times the majorant."""
    s = data.draw(real_series(n, (d,), order))
    s = s + data.draw(real_series(n, (d,), order)) * 10.0 ** -decades
    got, want = s.grad_x(), stacked_partials(s)
    assert got.shape == want.shape == (d, n)
    assert got.trunc_loss == s.trunc_loss
    if s.norms.min(initial=np.inf) >= 1e-15 * s.norms.max(initial=0.0):
        np.testing.assert_array_equal(got.K, want.K)
        np.testing.assert_array_equal(got.V, want.V)
    else:
        g, w = dict(got.coeffs), dict(want.coeffs)
        modes, zero = set(g) | set(w), np.zeros((d, n))
        gap = sum(np.abs(g.get(k, zero) - w.get(k, zero)).max() for k in modes)
        assert gap <= DUST_TOL * len(modes) * max(got.majorant(), want.majorant())


def test_angle_shift_constant_is_exact_phase():
    rng = np.random.default_rng(21)
    s = random_series(rng, 2, (2,), ORDER)
    alpha = np.array([0.4, -0.9])
    shifted = AngleShift(FourierSeries.constant(2, alpha, ORDER)).apply(s)
    for x in XS:
        assert np.allclose(shifted.eval(x), s.eval(x + alpha), atol=1e-13)


def test_angle_shift_oscillatory_matches_pointwise():
    # small a: expansion converges fast, truncation tail ~ (kmax*|a|)^j
    rng = np.random.default_rng(22)
    s = random_series(rng, 2, (2,), ORDER, kmax=2)
    a = sine(2, (1, 0), np.array([0.01, 0.004]), ORDER)
    shifted = AngleShift(a).apply(s)
    for x in XS:
        assert np.allclose(shifted.eval(x), s.eval(x + a.eval(x)), atol=1e-9)


ANGLE = st.floats(-7.0, 7.0, allow_nan=False, allow_subnormal=False)


@SETTINGS
@given(data=st.data(), n=DIMS, shape=st.sampled_from([(), (2,), (2, 3)]), order=ORDERS)
def test_eval_on_a_stack_equals_row_by_row(data, n, shape, order):
    s = data.draw(real_series(n, shape, order))
    rows = data.draw(st.lists(st.lists(ANGLE, min_size=n, max_size=n), max_size=6))
    X = np.array(rows, dtype=float).reshape(len(rows), n)
    got = s.eval(X)
    assert got.shape == (len(rows),) + shape
    for x, row in zip(X, got):
        np.testing.assert_array_equal(row, s.eval(x))


def nonreal_series(value, k=(1, 0)):
    """value * exp(i<k, x>) with no partner at -k, built from arrays, which
    skips the reality check: imaginary part value * sin<k, x>."""
    value = np.asarray(value, dtype=complex)
    return FourierSeries(2, value.shape, ORDER, K=np.array([k]), V=value[None])


def test_eval_raises_on_an_imaginary_residue():
    s = nonreal_series([1e-6, 0.0])
    with pytest.raises(ImaginaryResidue):
        s.eval(np.array([0.7, 0.2]))
    # at x_1 = 0 the value is real; a stack raises if any row is not
    assert np.array_equal(s.eval(np.array([[0.0, 0.2]])), [[1e-6, 0.0]])
    with pytest.raises(ImaginaryResidue):
        s.eval(np.array([[0.0, 0.2], [0.7, 0.2], [0.0, -1.0]]))


def test_eval_checks_each_value_component_against_its_own_majorant():
    """Component 0 is 1; component 1 is 1e-6 cos x_1 + 1e-13 exp(i x_1), whose
    residue is far below 1e-10 times the series' majorant, but not its own."""
    s = FourierSeries(2, (2,), ORDER, K=np.array([[-1, 0], [0, 0], [1, 0]]),
                      V=np.array([[0.0, 5e-7], [1.0, 0.0], [0.0, 5e-7 + 1e-13]], dtype=complex))
    x = np.array([np.pi / 2, 0.0])
    assert 1e-13 < 1e-10 * s.majorant()
    with pytest.raises(ImaginaryResidue):
        s.eval(x)
    with pytest.raises(ImaginaryResidue):
        s.eval(np.array([[0.0, 0.0], x]))
    # at x_1 = 0 both components are real
    np.testing.assert_allclose(s.eval(np.array([0.0, 0.3])), [1.0, 1e-6 + 1e-13], rtol=1e-15)


@pytest.mark.parametrize("scalar", [1e3, 1e-3, -2.0, 0.5j])
def test_a_scalar_factor_scales_the_loss(scalar):
    s = FourierSeries(2, (2,), ORDER, trunc_loss=1e-9,
                      coeffs={(0, 0): np.array([1.0, 2.0])})
    F = FourierTaylor(2, 1, (2,), ORDER, 2, {(1,): s}, trunc_loss=1e-9)
    for x in (s, F):
        for scaled in (x * scalar, scalar * x):
            assert scaled.trunc_loss == pytest.approx(abs(scalar) * 1e-9, rel=1e-15, abs=0.0)


def test_json_roundtrip_is_exact():
    rng = np.random.default_rng(33)
    for shape in [(2,), (2, 2)]:
        s = random_series(rng, 2, shape, ORDER)
        back = FourierSeries.from_json(s.to_json())
        assert back.n == s.n and back.shape == s.shape and back.order == s.order
        assert set(back.coeffs) == set(s.coeffs)
        for k in s.coeffs:
            assert np.array_equal(back.coeffs[k], s.coeffs[k])


def test_rejects_mode_beyond_order_and_bad_reality():
    with pytest.raises(ValueError):
        FourierSeries(1, (1,), 2, {(5,): np.array([1.0 + 0j])})
    with pytest.raises(Exception):
        # k-coefficient without its conjugate partner fails the reality check
        FourierSeries(1, (1,), 4, {(1,): np.array([1.0 + 2.0j])})
