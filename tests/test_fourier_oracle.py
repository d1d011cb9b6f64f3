"""Array-backed FourierSeries against the dict-based algebra it replaced.

The oracle keeps coefficients in a dict from mode tuples to arrays and
works one mode at a time, as the series did before its modes moved into
stacked arrays: the product sorts and stacks the stored modes, sums
coinciding output modes with ``np.add.at``, prunes and truncates; the sum
merges dicts; truncation walks the modes.  Random real series with
n in {1, 2, 3} and vector or matrix values must give the same mode sets,
the same coefficients (1e-15 relative) and the same ``trunc_loss``; the
loss is a sum of positive norms, which the oracle adds in another order,
so it is compared to 1e-14 relative.  Every result must stay real.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kamrev.fourier import DROP_TOL, PRUNE_TOL, FourierSeries, fs_matmul, fs_mul, order1

SETTINGS = settings(max_examples=60, deadline=None)


# -- the dict oracle -----------------------------------------------------------


def _pruned(coeffs):
    return {k: v for k, v in coeffs.items() if v.size and np.max(np.abs(v)) >= PRUNE_TOL}


def _majorant(coeffs):
    return float(sum(np.max(np.abs(v)) for v in coeffs.values())) if coeffs else 0.0


def _stacked(coeffs, n):
    keys = sorted(coeffs)
    return (np.array(keys, dtype=np.int64).reshape(len(keys), n),
            np.stack([coeffs[k] for k in keys]))


def oracle_convolve(a, b, vcombine, out_shape):
    """Dict product of two series: (coefficients, trunc_loss)."""
    ca, cb = dict(a.coeffs), dict(b.coeffs)
    order = max(a.order, b.order)
    loss = a.trunc_loss + b.trunc_loss
    if not ca or not cb:
        return {}, loss
    if _majorant(ca) * _majorant(cb) < DROP_TOL:
        return {}, loss + _majorant(ca) * _majorant(cb)
    Ka, Va = _stacked(ca, a.n)
    Kb, Vb = _stacked(cb, b.n)
    keys = (Ka[:, None, :] + Kb[None, :, :]).reshape(-1, a.n)
    vals = vcombine(Va, Vb).reshape((-1,) + out_shape)
    uk, inv = np.unique(keys, axis=0, return_inverse=True)
    acc = np.zeros((len(uk),) + out_shape, dtype=complex)
    np.add.at(acc, np.ravel(inv), vals)
    norms = np.abs(acc).reshape(len(uk), -1).max(axis=1) if acc.size else np.zeros(len(uk))
    orders = np.abs(uk).sum(axis=1)
    live = norms >= PRUNE_TOL
    over = live & (orders > order)
    loss += float(norms[over].sum())
    return {tuple(int(c) for c in uk[i]): acc[i] for i in np.nonzero(live & ~over)[0]}, loss


def oracle_mul(a, b):
    out_shape = np.broadcast_shapes(a.shape, b.shape)
    r = len(out_shape)

    def combine(Va, Vb):
        sa = (len(Va), 1) + (1,) * (r - len(a.shape)) + a.shape
        sb = (1, len(Vb)) + (1,) * (r - len(b.shape)) + b.shape
        return Va.reshape(sa) * Vb.reshape(sb)

    return oracle_convolve(a, b, combine, out_shape)


def oracle_matmul(a, b):
    out_shape = np.matmul(np.zeros(a.shape), np.zeros(b.shape)).shape

    def combine(Va, Vb):
        A = Va.reshape((len(Va), 1) + a.shape)
        B = Vb.reshape((1, len(Vb)) + b.shape)
        if len(a.shape) == 1:
            A = A[..., None, :]
        if len(b.shape) == 1:
            B = B[..., :, None]
        C = np.matmul(A, B)
        if len(a.shape) == 1:
            C = C[..., 0, :]
        if len(b.shape) == 1:
            C = C[..., 0]
        return C

    return oracle_convolve(a, b, combine, out_shape)


def oracle_add(a, b):
    out = dict(a.coeffs)
    for k, v in b.coeffs.items():
        w = out.get(k)
        out[k] = v if w is None else w + v
    return _pruned(out), a.trunc_loss + b.trunc_loss


def oracle_truncate(s, order):
    out, loss = {}, 0.0
    for k, v in s.coeffs.items():
        if order1(k) <= order:
            out[k] = v
        else:
            loss += float(np.max(np.abs(v)))
    return out, s.trunc_loss + loss


def oracle_deriv_x(s, j):
    return _pruned({k: (1j * k[j]) * v for k, v in s.coeffs.items() if k[j] != 0}), s.trunc_loss


def oracle_reflect(s):
    return {k: np.conj(v) for k, v in s.coeffs.items()}, s.trunc_loss


# -- random real series ----------------------------------------------------------

ENTRY = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def real_series(draw, n, shape, order):
    size = int(np.prod(shape))
    coeffs = {}
    for _ in range(draw(st.integers(0, 5))):
        k = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        if order1(k) > order:
            continue
        re = np.array(draw(st.lists(ENTRY, min_size=size, max_size=size))).reshape(shape)
        im = np.array(draw(st.lists(ENTRY, min_size=size, max_size=size))).reshape(shape)
        mk = tuple(-c for c in k)
        v = re + (0j if k == mk else 1j * im)
        coeffs[k] = v
        coeffs[mk] = np.conj(v)
    loss = draw(st.sampled_from([0.0, 1e-12, 3e-9]))
    return FourierSeries(n, shape, order, coeffs, trunc_loss=loss)


SHAPES = st.sampled_from([(2,), (3,), (2, 2), (2, 3)])
DIMS = st.sampled_from([1, 2, 3])
ORDERS = st.integers(1, 4)


def assert_matches(got, want):
    coeffs, loss = want
    assert set(got.coeffs) == set(coeffs)
    for k, v in coeffs.items():
        np.testing.assert_allclose(got.coeffs[k], v, rtol=1e-15, atol=0.0)
    assert got.trunc_loss == pytest.approx(loss, rel=1e-14, abs=0.0)
    keys = list(got.coeffs)
    assert keys == sorted(set(keys))  # unique modes in lexicographic order


def assert_real(s, scale):
    """Coefficient at -k is the conjugate of the one at k, to rounding."""
    for k, v in s.coeffs.items():
        w = s.coeffs.get(tuple(-c for c in k), np.zeros(s.shape))
        assert np.max(np.abs(np.conj(w) - v), initial=0.0) <= 1e-14 * max(scale, 1.0)


@SETTINGS
@given(data=st.data(), n=DIMS, shape=SHAPES, order=ORDERS)
def test_mul_matches_dict_oracle(data, n, shape, order):
    a = data.draw(real_series(n, shape, order))
    b = data.draw(real_series(n, shape, data.draw(ORDERS)))
    p = fs_mul(a, b)
    assert_matches(p, oracle_mul(a, b))
    assert_real(p, a.majorant() * b.majorant())
    # scalar-valued factor broadcast over the values
    c = data.draw(real_series(n, (), order))
    assert_matches(fs_mul(c, a), oracle_mul(c, a))


@SETTINGS
@given(data=st.data(), n=DIMS, order=ORDERS,
       shapes=st.sampled_from([((2, 3), (3,)), ((3,), (3, 2)), ((2, 3), (3, 2)), ((3,), (3,))]))
def test_matmul_matches_dict_oracle(data, n, order, shapes):
    a = data.draw(real_series(n, shapes[0], order))
    b = data.draw(real_series(n, shapes[1], data.draw(ORDERS)))
    p = fs_matmul(a, b)
    assert_matches(p, oracle_matmul(a, b))
    assert_real(p, 3 * a.majorant() * b.majorant())


@SETTINGS
@given(data=st.data(), n=DIMS, shape=SHAPES, order=ORDERS)
def test_sum_matches_dict_oracle(data, n, shape, order):
    a = data.draw(real_series(n, shape, order))
    b = data.draw(real_series(n, shape, data.draw(ORDERS)))
    total = a + b
    assert_matches(total, oracle_add(a, b))
    assert total.order == max(a.order, b.order)
    assert_real(total, 0.0)
    # a - a cancels every mode exactly
    assert len((a - a).coeffs) == 0


@SETTINGS
@given(data=st.data(), n=DIMS, shape=SHAPES, order=ORDERS)
def test_truncate_deriv_reflect_match_dict_oracle(data, n, shape, order):
    s = data.draw(real_series(n, shape, order))
    cut = data.draw(st.integers(0, order - 1))
    assert_matches(s.truncate(cut), oracle_truncate(s, cut))
    assert s.truncate(order) is s
    for j in range(n):
        d = s.deriv_x(j)
        assert_matches(d, oracle_deriv_x(s, j))
        assert_real(d, 0.0)
    r = s.reflect()
    assert_matches(r, oracle_reflect(s))
    assert_real(r, 0.0)
