"""Array-backed FourierSeries against the dict-based algebra it replaced.

The oracle keeps coefficients in a dict from mode tuples to arrays and
works one mode at a time, as the series did before its modes moved into
stacked arrays: the product sorts and stacks the stored modes, sums
coinciding output modes with ``np.add.at``, prunes the dust below the
untruncated product's floor (``PRUNE_TOL``, or ``DUST_TOL`` times its
largest mode norm) and truncates; the sum merges dicts and prunes below its
own floor; truncation walks the modes.  Random real series with
n in {1, 2, 3} and vector or matrix values must give the same mode sets,
the same coefficients (1e-15 relative) and the same ``trunc_loss``; the
loss is a sum of positive norms, which the oracle adds in another order,
so it is compared to 1e-14 relative.  Every result must stay real.  The
oracle's matrix product sums each pair's entry products over the inner
index in the order the series product does.

The matrix product's pair values are those sums exactly, and agree with
one BLAS ``np.matmul`` per pair to a rounding bound stated with the test.

The slot kernels must also agree bit for bit with the array kernels they
replaced, kept here as ``reference_convolve`` and ``reference_union``: the
product numbered its output modes with ``np.unique`` over an (Ma Mb, n) key
array and summed them with ``np.add.at``.  Products, sums and stacks must
give the same K, the same bytes of V and the same ``trunc_loss``, on dense
slot maps and on ``np.unique`` numberings alike.
"""
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import fs_stack
from kamrev import fourier
from kamrev.fourier import (DROP_TOL, DUST_TOL, PRUNE_TOL, FourierSeries, _union, fs_matmul,
                            fs_mul, order1)

SETTINGS = settings(max_examples=60, deadline=None)


# -- the dict oracle -----------------------------------------------------------


def _floor(norms):
    """Dust floor: PRUNE_TOL, or DUST_TOL times the largest norm."""
    return max([PRUNE_TOL] + [DUST_TOL * x for x in norms])


def _pruned(coeffs):
    norms = {k: np.max(np.abs(v), initial=0.0) for k, v in coeffs.items()}
    floor = _floor(norms.values())
    return {k: v for k, v in coeffs.items() if norms[k] >= floor}


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
    live = norms >= _floor(norms)  # the untruncated product's floor
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


def stacked_matmul(Va, Vb, a_shape, b_shape):
    """Every pair's value by one broadcast ``np.matmul``, one small matrix
    product per pair: (Ma, Mb) + the product's value shape."""
    A = Va.reshape((len(Va), 1) + a_shape)
    B = Vb.reshape((1, len(Vb)) + b_shape)
    if len(a_shape) == 1:
        A = A[..., None, :]
    if len(b_shape) == 1:
        B = B[..., :, None]
    C = np.matmul(A, B)
    if len(a_shape) == 1:
        C = C[..., 0, :]
    if len(b_shape) == 1:
        C = C[..., 0]
    return C


def inner_sum_matmul(Va, Vb, a_shape, b_shape):
    """Every pair's value as a sum of entry products over the inner index j,
    in the order j = 0, 1, ... that fs_matmul sums in."""
    out_shape = np.matmul(np.zeros(a_shape), np.zeros(b_shape)).shape
    A = Va.reshape(len(Va), 1, -1, a_shape[-1])
    B = Vb.reshape(1, len(Vb), b_shape[0], -1)
    C = sum(A[..., :, j, None] * B[..., j, None, :] for j in range(a_shape[-1]))
    return C.reshape((len(Va), len(Vb)) + out_shape)


def oracle_matmul(a, b):
    out_shape = np.matmul(np.zeros(a.shape), np.zeros(b.shape)).shape
    return oracle_convolve(a, b, lambda Va, Vb: inner_sum_matmul(Va, Vb, a.shape, b.shape),
                           out_shape)


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
def real_series(draw, n, shape, order, kmax=3):
    size = int(np.prod(shape))
    coeffs = {}
    for _ in range(draw(st.integers(0, 5))):
        k = tuple(draw(st.lists(st.integers(-kmax, kmax), min_size=n, max_size=n)))
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
       shapes=st.sampled_from([((2, 3), (3,)), ((3,), (3, 2)), ((2, 3), (3, 2)), ((3,), (3,)),
                               ((2, 2), (2, 2)), ((3, 3), (3, 3))]))
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
        d = s.directional_derivative(np.eye(n)[j])
        assert_matches(d, oracle_deriv_x(s, j))
        assert_real(d, 0.0)
    r = s.reflect()
    assert_matches(r, oracle_reflect(s))
    assert_real(r, 0.0)


# -- bitwise against the np.unique + np.add.at kernels ------------------------------


def reference_convolve(a, b, vcombine, out_shape):
    """The product kernel before dense slots: np.unique over pair keys, np.add.at."""
    order = max(a.order, b.order)
    loss = a.trunc_loss + b.trunc_loss
    if not len(a.K) or not len(b.K):
        return FourierSeries(a.n, out_shape, order, trunc_loss=loss)
    if a.majorant() * b.majorant() < DROP_TOL:
        return FourierSeries(a.n, out_shape, order,
                             trunc_loss=loss + a.majorant() * b.majorant())
    keys = (a.K[:, None, :] + b.K[None, :, :]).reshape(-1, a.n)
    vals = vcombine(a.V, b.V).reshape((-1,) + out_shape)
    span = int(np.abs(a.K).max() + np.abs(b.K).max())
    codes = (keys + span) @ ((2 * span + 1) ** np.arange(a.n - 1, -1, -1, dtype=np.int64))
    _, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    K = keys[first]
    V = np.zeros((len(K),) + out_shape, dtype=complex)
    np.add.at(V, np.ravel(inv), vals)
    over = np.abs(K).sum(axis=1) > order
    if over.any():
        norms = np.abs(V).reshape(len(V), -1).max(axis=1)
        live = norms >= _floor(norms)
        loss += float(norms[over & live].sum())
        K, V = K[live & ~over], V[live & ~over]
    return FourierSeries(a.n, out_shape, order, trunc_loss=loss, K=K, V=V)


def reference_union(*Ks):
    """The mode merge before dense slots: np.unique over the concatenated codes."""
    cat = np.concatenate(Ks)
    span = int(np.abs(cat).max()) if cat.size else 0
    codes = (cat + span) @ ((2 * span + 1) ** np.arange(cat.shape[1] - 1, -1, -1, dtype=np.int64))
    _, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    return cat[first], np.split(np.ravel(inv), np.cumsum([len(K) for K in Ks[:-1]]))


def reference(fn, *args):
    """fn(*args) run on the reference kernels."""
    with mock.patch.object(fourier, "_convolve", reference_convolve), \
            mock.patch.object(fourier, "_union", reference_union):
        return fn(*args)


def numbered(fn, *args):
    """fn(*args), and the numberings its slot maps used ('dense', 'unique')."""
    with mock.patch.object(fourier, "_slots", wraps=fourier._slots) as slots, \
            mock.patch.object(fourier.np, "unique", wraps=np.unique) as unique:
        out = fn(*args)
    used = set()
    if unique.call_count:
        used.add("unique")
    if slots.call_count > unique.call_count:
        used.add("dense")
    return out, used


def assert_bitwise(got, want):
    assert got.K.dtype == want.K.dtype and np.array_equal(got.K, want.K)
    assert got.V.shape == want.V.shape and np.array_equal(got.V, want.V)
    assert got.V.tobytes() == want.V.tobytes()  # signed zeros too
    assert got.trunc_loss == want.trunc_loss and got.order == want.order


MATMUL_SHAPES = st.sampled_from([((2, 3), (3,)), ((3,), (3, 2)), ((2, 3), (3, 2)),
                                 ((2, 2), (2, 2)), ((3, 3), (3, 3))])


def test_products_sums_and_stacks_bitwise_equal_the_add_at_kernels():
    """n = 1..4, vector and matrix values, narrow modes and modes up to 40 wide:
    the wide ones in two or more angles overflow the dense slot map, so both
    numberings must be met."""
    used = set()

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), kmax=st.sampled_from([3, 40]),
           shape=SHAPES, shapes=MATMUL_SHAPES)
    def check(data, n, kmax, shape, shapes):
        def draw(shape, order=None):
            return data.draw(real_series(n, shape, kmax * n if order is None else order, kmax))

        a, b, c = draw(shape), draw(shape, kmax * data.draw(st.integers(1, n))), draw(())
        cases = [(fs_mul, a, b), (fs_mul, c, a), (fs_matmul, draw(shapes[0]), draw(shapes[1])),
                 (operator.add, a, b), (fs_stack, [a, b, draw(shape)])]
        for fn, *args in cases:
            got, numberings = numbered(fn, *args)
            assert_bitwise(got, reference(fn, *args))
            used.update(numberings)

    check()
    assert used == {"dense", "unique"}


@pytest.mark.parametrize("n,kmax,numbering", [(1, 3, "dense"), (2, 5, "dense"),
                                              (4, 2, "dense"), (3, 40, "unique"),
                                              (4, 40, "unique")])
def test_union_rows_sorted_unique_and_mapped_back(n, kmax, numbering):
    rng = np.random.default_rng(7 * n + kmax)
    Ks = [rng.integers(-kmax, kmax + 1, size=(m, n)) for m in (9, 0, 14)]
    Ks.append(np.concatenate([Ks[2][-3:], Ks[0][:4], Ks[0][:1]]))  # repeats across inputs
    (K, rows), used = numbered(_union, *Ks)
    assert used == {numbering}
    keys = [tuple(k) for k in K.tolist()]
    distinct = {tuple(k) for k in np.concatenate(Ks).tolist()}
    assert keys == sorted(distinct)  # unique, lexicographic, duplicates collapsed
    assert K.dtype == np.int64 and len(rows) == len(Ks)
    for Kin, r in zip(Ks, rows):
        assert np.array_equal(K[r], Kin)


# -- the matrix product's pair values -------------------------------------------------

PAIR_SHAPES = [((3, 2), (2,)), ((3, 3), (3,)), ((2, 2), (2,)), ((2, 3), (3,)), ((3,), (3, 2)),
               ((3,), (3,)), ((2, 2), (2, 2)), ((3, 3), (3, 3)), ((2, 3), (3, 2))]


def matmul_pairs(a, b):
    """fs_matmul's pair values, (Ma, Mb) + the value shape, from its combine."""
    with mock.patch.object(fourier, "_convolve", lambda a, b, combine, _: combine(a.V, b.V)):
        return np.ascontiguousarray(fs_matmul(a, b))


@SETTINGS
@given(data=st.data(), n=DIMS, shapes=st.sampled_from(PAIR_SHAPES))
def test_matmul_pair_values_are_in_order_sums_near_a_per_pair_matmul(data, n, shapes):
    """The pair values are the entry products summed over the inner index in
    order, exactly.  One ``np.matmul`` per pair hands the pair to a BLAS
    kernel (zgemv, zgemm, zdotu) that the CPU selects and that sums in an
    order of its own; against it the values agree elementwise to
    4 c eps sum_j |A_ij| |B_jk|, c the inner size, plus 4 c of the smallest
    subnormal for entries that underflow."""
    a = data.draw(real_series(n, shapes[0], data.draw(ORDERS)))
    b = data.draw(real_series(n, shapes[1], data.draw(ORDERS)))
    assume(len(a.K) and len(b.K))
    got = matmul_pairs(a, b)
    assert np.array_equal(got, inner_sum_matmul(a.V, b.V, a.shape, b.shape))
    want = stacked_matmul(a.V, b.V, a.shape, b.shape)
    scale = stacked_matmul(np.abs(a.V), np.abs(b.V), a.shape, b.shape)
    c, tiny = a.shape[-1], np.finfo(float).smallest_subnormal
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 4 * c * (np.finfo(float).eps * scale + tiny))
