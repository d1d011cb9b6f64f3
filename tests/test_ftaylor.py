"""Fourier-Taylor fields: polynomial-in-w layers over the sparse series.

Oracle throughout: pointwise evaluation at sampled (x, w), with numpy doing
the arithmetic on the evaluated values.  The compiled ``eval`` itself is
checked against the per-term loop it replaced, on Hypothesis-drawn fields,
and the products against the term-pair loop they replaced.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sine
from kamrev import fourier, ftaylor
from kamrev.errors import ImaginaryResidue, ImplicitSolveFailure
from kamrev.fourier import DROP_TOL, FourierSeries, fs_matmul, fs_mul
from kamrev.ftaylor import (FourierTaylor, WSubstitution, fs_neumann_solve,
                            ft_matmul, ft_mul, ft_neumann_solve, ft_series_matmul,
                            involution_pullback)
from test_fourier import ANGLE, nonreal_series
from test_fourier_oracle import DIMS, ENTRY, MATMUL_SHAPES, ORDERS, SETTINGS, real_series

N_ANGLE, Q, ORDER, DEGREE = 2, 3, 10, 3

SAMPLES = [(np.array([0.0, 0.0]), np.array([0.1, -0.2, 0.05])),
           (np.array([1.1, -0.6]), np.array([-0.3, 0.08, 0.2])),
           (np.array([2.7, 3.9]), np.array([0.02, 0.3, -0.15]))]


def random_ft(rng, shape, degree=DEGREE, kmax=2, nterms=5, top=None):
    """Random field; ``top`` caps the sampled term degrees below the container's."""
    top = degree if top is None else top
    terms = {}
    for _ in range(nterms):
        alpha = tuple(int(e) for e in rng.multinomial(int(rng.integers(0, top + 1)),
                                                      np.ones(Q) / Q))
        k = tuple(int(c) for c in rng.integers(-kmax, kmax + 1, size=N_ANGLE))
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if all(c == 0 for c in k):
            v = v.real.astype(complex)
        coeffs = {k: v}
        mk = tuple(-c for c in k)
        if mk != k:
            coeffs[mk] = np.conj(v)
        s = FourierSeries(N_ANGLE, shape, ORDER, coeffs)
        got = terms.get(alpha)
        terms[alpha] = s if got is None else got + s
    return FourierTaylor(N_ANGLE, Q, shape, ORDER, degree, terms)


def per_term_eval(F, x, w):
    """The evaluator the compiled one replaced: one ``FourierSeries.eval``
    per term, weighted by its monomial, terms with a zero monomial skipped.
    Returns the value and the scale sum |w^alpha| |F_alpha| it is made of."""
    w = np.asarray(w, dtype=float)
    out, scale = np.zeros(F.shape), 0.0
    for alpha, s in F.coeffs.items():
        mono = 1.0
        for wj, e in zip(w, alpha):
            mono *= wj ** e
        if mono != 0.0:
            out = out + s.eval(x) * mono
            scale += abs(mono) * s.majorant()
    return out, scale


@pytest.mark.parametrize("seed", range(4))
def test_eval_matches_monomial_sum(seed):
    rng = np.random.default_rng(seed)
    F = random_ft(rng, (2,))
    for x, w in SAMPLES:
        assert np.allclose(F.eval(x, w), per_term_eval(F, x, w)[0], atol=1e-12)


@st.composite
def real_fields(draw, n, q, shape, degree=3):
    order = draw(ORDERS)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        alpha = tuple(draw(st.lists(st.integers(0, degree), min_size=q, max_size=q)))
        if sum(alpha) > degree:
            continue
        s = draw(real_series(n, shape, order))
        terms[alpha] = s if alpha not in terms else terms[alpha] + s
    return FourierTaylor(n, q, shape, order, degree, terms)


@SETTINGS
@given(data=st.data(), n=DIMS, q=st.integers(0, 3), shape=st.sampled_from([(), (2,), (2, 3)]))
def test_compiled_eval_matches_per_term_loop(data, n, q, shape):
    """Each point against the per-term loop; the points as an (S, n) stack of
    x with an (S, q) stack of w, or with one w, give each row bit for bit
    what that row gives alone."""
    F = data.draw(real_fields(n, q, shape))
    X, W = np.zeros((3, n)), np.zeros((3, q))
    for x, w in zip(X, W):
        x[:] = data.draw(st.lists(ANGLE, min_size=n, max_size=n))
        w[:] = 1.5 * np.array(data.draw(st.lists(ENTRY, min_size=q, max_size=q)))
        want, scale = per_term_eval(F, x, w)
        got = F.eval(x, w)
        assert got.shape == F.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * scale
    for w_stack in (W, W[0]):
        stacked = F.eval(X, w_stack)
        assert stacked.shape == (3,) + F.shape
        for x, w, row in zip(X, np.broadcast_to(w_stack, W.shape), stacked):
            np.testing.assert_array_equal(row, F.eval(x, w))


# -- the term-pair product loop the one-kernel products replaced ------------------


def reference_product(a, b, series_op, out_shape):
    """One series product per pair of terms, summed per exponent.  Returns
    the field, the numbers of term pairs beyond the degree and within it,
    and two losses, kept apart: pair products below ``DROP_TOL``, which the
    series product skips (their majorant products), and each pair product's
    own Fourier loss.  A field is its Taylor jet, so the pairs beyond the
    degree are no part of the product and carry no loss."""
    degree, order = max(a.degree, b.degree), max(a.order, b.order)
    acc, above, within, drop_loss, fourier_loss = {}, 0, 0, 0.0, 0.0
    for alpha, sa in a.coeffs.items():
        for beta, sb in b.coeffs.items():
            if sum(alpha) + sum(beta) > degree:
                above += 1
                continue
            within += 1
            if sa.majorant() * sb.majorant() < DROP_TOL:
                drop_loss += sa.majorant() * sb.majorant()
                continue
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            prod = series_op(sa, sb)
            fourier_loss += prod.trunc_loss - sa.trunc_loss - sb.trunc_loss
            acc[gamma] = prod if gamma not in acc else acc[gamma] + prod
    out = FourierTaylor(a.n, a.q, out_shape, order, degree,
                        {g: s for g, s in acc.items() if len(s.K)})
    return out, above, within, drop_loss, fourier_loss


def reference_series_matmul(M, F, out_shape):
    """``fs_matmul(M, F_alpha)`` for every term, and the losses as above."""
    terms, fourier_loss = {}, 0.0
    for alpha, s in F.coeffs.items():
        prod = fs_matmul(M, s)
        fourier_loss += prod.trunc_loss - M.trunc_loss - s.trunc_loss
        terms[alpha] = prod
    out = FourierTaylor(F.n, F.q, out_shape, max(M.order, F.order), F.degree, terms)
    return out, 0, len(terms) if len(M.K) else 0, 0.0, fourier_loss


def widened(F, order):
    """F at another truncation order, with no loss of its own: at a larger
    order its products drop no modes."""
    if isinstance(F, FourierSeries):
        return FourierSeries(F.n, F.shape, order, K=F.K, V=F.V)
    return FourierTaylor(F.n, F.q, F.shape, order, F.degree, A=F.A, K=F.K, V=F.V)


def assert_product_matches_reference(product, reference, a, b):
    """Coefficients to 1e-14 maj(a) maj(b), plus the pair products the
    reference skipped below DROP_TOL, which the kernel sums; no loss for the
    pairs beyond the degree; the Fourier loss at most the reference's with
    those skipped pairs, since the kernel truncates the sum over pairs and
    not each pair.  Returns which truncations the case met."""
    scale = a.majorant() * b.majorant()
    got = product(a, b)
    want, above, within, drop_loss, fourier_loss = reference(a, b)
    if scale < DROP_TOL:  # the whole product is skipped, its bound the loss
        summed = 1 if product is ft_mul else a.shape[-1]  # products in one entry
        assert not len(got.V)
        skipped = summed * scale if within else 0.0  # none if wholly beyond the degree
        assert got.trunc_loss == pytest.approx(a.trunc_loss + b.trunc_loss + skipped,
                                               rel=1e-14, abs=0.0)
        return set()
    bare = product(widened(a, a.order), widened(b, b.order))
    assert got.trunc_loss == pytest.approx(a.trunc_loss + b.trunc_loss + bare.trunc_loss,
                                           rel=1e-14, abs=0.0)
    got_c, want_c = dict(got.coeffs), dict(want.coeffs)
    for alpha in set(got_c) | set(want_c):
        g = got_c.get(alpha, FourierSeries(got.n, got.shape, got.order))
        w = want_c.get(alpha, FourierSeries(got.n, got.shape, got.order))
        assert (g - w).majorant() <= 1e-14 * scale + drop_loss
    wide = product(widened(a, 2 * got.order), widened(b, 2 * got.order))
    assert wide.trunc_loss == 0.0  # nothing beyond the order, and the degree cut is exact
    assert bare.trunc_loss - wide.trunc_loss <= fourier_loss + drop_loss + 1e-14 * scale
    return {name for name, met in (("degree", above), ("fourier", fourier_loss)) if met}


@pytest.mark.parametrize("pair_block", [fourier.PAIR_BLOCK, 1], ids=["blocks", "row-by-row"])
def test_products_match_the_term_pair_loop(monkeypatch, pair_block):
    """ft_mul, ft_matmul and ft_series_matmul on Hypothesis-drawn fields with
    vector and matrix values; the draws must meet pairs beyond the degree
    and pairs beyond the Fourier order.  With a pair block of one pair the
    kernel forms and sums the pairs one row of the first factor at a time."""
    monkeypatch.setattr(fourier, "PAIR_BLOCK", pair_block)
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2]), q=st.integers(1, 3),
           shape=st.sampled_from([(), (2,), (2, 3)]), shapes=MATMUL_SHAPES)
    def check(data, n, q, shape, shapes):
        def field(shape):
            return data.draw(real_fields(n, q, shape, degree=data.draw(st.integers(1, 3))))

        a, b, c = field(shape), field(shape), field(())
        A, B = field(shapes[0]), field(shapes[1])
        M = data.draw(real_series(n, shapes[0], data.draw(ORDERS)))
        mul = np.broadcast_shapes(shape, ())
        mat = np.matmul(np.zeros(shapes[0]), np.zeros(shapes[1])).shape
        cases = [(ft_mul, lambda x, y: reference_product(x, y, fs_mul, shape), a, b),
                 (ft_mul, lambda x, y: reference_product(x, y, fs_mul, mul), a, c),
                 (ft_matmul, lambda x, y: reference_product(x, y, fs_matmul, mat), A, B),
                 (ft_series_matmul, lambda x, y: reference_series_matmul(x, y, mat), M, B)]
        for product, reference, x, y in cases:
            seen.update(assert_product_matches_reference(product, reference, x, y))

    check()
    assert seen == {"degree", "fourier"}


def jet(F, d):
    """F's rows of degree <= d, as a field of degree d."""
    rows = F.A.sum(axis=1) <= d
    return FourierTaylor(F.n, F.q, F.shape, F.order, d, A=F.A[rows], K=F.K[rows], V=F.V[rows])


@pytest.mark.parametrize("pair_block", [1 << 40, fourier.PAIR_BLOCK], ids=["one-block", "blocks"])
def test_a_product_is_exact_through_every_lower_degree(monkeypatch, pair_block):
    """A field is its Taylor jet: the rows of degree <= d of a product at
    degree D are the product at degree d of the operands cut to degree d,
    bit for bit when all pairs are summed in one block, and to 1e-14
    maj(a) maj(b) when the blocks are added in another order."""
    monkeypatch.setattr(fourier, "PAIR_BLOCK", pair_block)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2]), q=st.integers(1, 3),
           shape=st.sampled_from([(), (2,), (2, 3)]), shapes=MATMUL_SHAPES,
           D=st.integers(1, 3))
    def check(data, n, q, shape, shapes, D):
        alphas = [[a for a in itertools.product(range(j + 1), repeat=q) if sum(a) == j]
                  for j in range(D + 1)]

        def field(shape):  # a drawn series at four exponents, each of a drawn degree
            order = data.draw(ORDERS)
            series = real_series(n, shape, order).filter(lambda s: len(s.K))
            return FourierTaylor(n, q, shape, order, D, {
                data.draw(st.sampled_from(alphas[data.draw(st.integers(0, D))])):
                data.draw(series) for _ in range(4)})

        d = data.draw(st.integers(0, D - 1))
        a, b, A, B = field(shape), field(shape), field(shapes[0]), field(shapes[1])
        M = data.draw(real_series(n, shapes[0], data.draw(ORDERS)))
        for product, x, y in ((ft_mul, a, b), (ft_matmul, A, B), (ft_series_matmul, M, B)):
            cut = (x if product is ft_series_matmul else jet(x, d), jet(y, d))
            low, want = jet(product(x, y), d), product(*cut)
            if cut[0].majorant() * cut[1].majorant() < DROP_TOL:  # skipped, its bound the loss
                assert not len(want.V)
                assert low.majorant() <= want.trunc_loss * (1 + 1e-12)
            elif pair_block == 1 << 40:
                for name in "AKV":
                    np.testing.assert_array_equal(getattr(low, name), getattr(want, name))
            else:
                assert (low - want).majorant() <= 1e-14 * x.majorant() * y.majorant()

    check()


def test_eval_checks_every_term_against_its_own_majorant():
    """A small non-real term inside a large real field: its residue is far
    below 1e-10 times the field's majorant, but not its own."""
    big = FourierSeries.constant(2, np.array([1e6, 0.0]), ORDER)
    F = FourierTaylor(2, 1, (2,), ORDER, 2, {(0,): big, (1,): nonreal_series([1e-6, 0.0])})
    x, w = np.array([0.7, 0.2]), np.array([1.0])
    assert 1e-6 * np.sin(0.7) < 1e-10 * F.majorant()
    with pytest.raises(ImaginaryResidue):
        F.eval(x, w)
    # at x_1 = 0 every term is real
    assert np.allclose(F.eval(np.array([0.0, 0.2]), w), [1e6 + 1e-6, 0.0], rtol=1e-15)


def test_a_matrix_product_wholly_above_the_degree_is_empty_with_no_loss():
    # at degree 1 the degree-2 term is no part of the jet, though each of its
    # entries would sum three products of ones in (2, 3) @ (3,)
    A = FourierTaylor(2, 1, (2, 3), ORDER, 1,
                      {(1,): FourierSeries.constant(2, np.ones((2, 3)), ORDER)})
    b = FourierTaylor(2, 1, (3,), ORDER, 1, {(1,): FourierSeries.constant(2, np.ones(3), ORDER)})
    p = ft_matmul(A, b)
    assert not len(p.V)
    assert p.trunc_loss == 0.0


def test_products_match_pointwise():
    rng = np.random.default_rng(8)
    a = random_ft(rng, (), degree=3, top=2, nterms=4)
    b = random_ft(rng, (), degree=3, top=1, nterms=4)
    A = random_ft(rng, (2, 3), degree=3, top=1, nterms=4)
    B = random_ft(rng, (3,), degree=3, top=2, nterms=4)
    p = ft_mul(a, b)
    m = ft_matmul(A, B)
    for x, w in SAMPLES:
        assert np.allclose(p.eval(x, w), a.eval(x, w) * b.eval(x, w), atol=1e-12)
        assert np.allclose(m.eval(x, w), A.eval(x, w) @ B.eval(x, w), atol=1e-12)


def test_product_degree_truncation_is_accounted():
    one_w = FourierTaylor(N_ANGLE, Q, (), ORDER, 1,
                          {(1, 0, 0): FourierSeries.constant(N_ANGLE, np.array(1.0), ORDER)})
    p = ft_mul(one_w, one_w)  # degree-2 content, no part of a degree-1 jet
    assert not len(p.V)
    assert p.trunc_loss == 0.0


def test_series_matmul_fourier_truncation_is_accounted():
    top, mtop = (ORDER, 0), (-ORDER, 0)
    M = FourierSeries(N_ANGLE, (2, 2), ORDER, {top: np.eye(2) / 2, mtop: np.eye(2) / 2},
                      trunc_loss=0.25)  # cos(<top, x>) I, carrying an earlier loss
    F = FourierTaylor(N_ANGLE, Q, (2,), ORDER, DEGREE,
                      {(0, 1, 0): FourierSeries.cosine(N_ANGLE, top, np.ones(2), ORDER)})
    p = ft_series_matmul(M, F)
    # cos^2 = 1/2 + cos(2<top, x>)/2: two modes of size 1/4 beyond ORDER
    assert p.trunc_loss == pytest.approx(0.25 + 2 * 0.25)
    for x, w in SAMPLES:
        assert np.allclose(p.eval(x, w), 0.5 * np.ones(2) * w[1], atol=1e-12)


def test_taylor0_and_linear_w_extract_jets():
    rng = np.random.default_rng(12)
    F = random_ft(rng, (2,))
    h = 1e-6
    for x, _ in SAMPLES:
        w0 = F.taylor0().eval(x)
        assert np.allclose(w0, F.eval(x, np.zeros(Q)), atol=1e-12)
        L = F.linear_w().eval(x)  # (2, Q) Jacobian in w at w = 0
        for j in range(Q):
            e = np.zeros(Q)
            e[j] = h
            fd = (F.eval(x, e) - F.eval(x, -e)) / (2 * h)
            assert np.allclose(L[:, j], fd, atol=1e-7)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    F = random_ft(rng, (2,))
    Gx, Gw = F.grad_x(), F.grad_w()
    h = 1e-6
    for x, w in SAMPLES:
        for j in range(N_ANGLE):
            e = np.zeros(N_ANGLE)
            e[j] = h
            fd = (F.eval(x + e, w) - F.eval(x - e, w)) / (2 * h)
            assert np.allclose(Gx.eval(x, w)[:, j], fd, atol=1e-6)
        for j in range(Q):
            e = np.zeros(Q)
            e[j] = h
            fd = (F.eval(x, w + e) - F.eval(x, w - e)) / (2 * h)
            assert np.allclose(Gw.eval(x, w)[:, j], fd, atol=1e-6)


def test_w_substitution_matches_pointwise_composition():
    """F(x, W0(x) + W1(x) wbar) via the memoized table vs direct evaluation."""
    rng = np.random.default_rng(4)
    F = random_ft(rng, (2,), degree=3)
    W0 = sine(N_ANGLE, (1, 0), 0.01 * np.arange(1.0, Q + 1), ORDER)
    dev = FourierSeries.cosine(N_ANGLE, (0, 1),
                               0.02 * np.ones((Q, Q)), ORDER)
    W1 = FourierSeries.constant(N_ANGLE, np.eye(Q), ORDER) + dev
    sub = WSubstitution(W0, W1, DEGREE)
    G = sub.apply(F)
    for x, wbar in SAMPLES:
        # affine substitution keeps the degree, so this is exact up to the
        # Fourier order (mode sums stay well inside ORDER here)
        w = W0.eval(x) + W1.eval(x) @ wbar
        assert np.allclose(G.eval(x, wbar), F.eval(x, w), atol=1e-10)


def test_w_substitution_linear_case_is_exact():
    rng = np.random.default_rng(41)
    F = random_ft(rng, (2,), degree=1, nterms=4)
    W0 = FourierSeries.constant(N_ANGLE, 0.3 * np.arange(1.0, Q + 1), ORDER)
    W1 = FourierSeries.constant(N_ANGLE, np.eye(Q) + 0.2, ORDER)
    G = WSubstitution(W0, W1, DEGREE).apply(F)
    for x, wbar in SAMPLES:
        w = W0.eval(x) + W1.eval(x) @ wbar
        assert np.allclose(G.eval(x, wbar), F.eval(x, w), atol=1e-12)


def test_involution_pullback_pointwise():
    rng = np.random.default_rng(6)
    F = random_ft(rng, (2,))
    S = np.diag([-1.0, 1.0, -1.0])
    G = involution_pullback(F, S)
    for x, w in SAMPLES:
        assert np.allclose(G.eval(x, w), F.eval(-x, S @ w), atol=1e-12)


def test_neumann_solves_small_perturbation():
    rng = np.random.default_rng(15)
    M = FourierSeries.cosine(N_ANGLE, (1, 1), 0.05 * rng.standard_normal((2, 2)),
                             ORDER)
    rhs_s = sine(N_ANGLE, (1, 0), np.array([1.0, -0.5]), ORDER)
    u = fs_neumann_solve(M, rhs_s)
    for x, _ in SAMPLES:
        lhs = u.eval(x) + M.eval(x) @ u.eval(x)
        assert np.allclose(lhs, rhs_s.eval(x), atol=1e-10)
    rhs_t = random_ft(rng, (2,), nterms=3)
    ut = ft_neumann_solve(M, rhs_t)
    for x, w in SAMPLES:
        lhs = ut.eval(x, w) + M.eval(x) @ ut.eval(x, w)
        assert np.allclose(lhs, rhs_t.eval(x, w), atol=1e-9)
    # one inverse of (I + M) serves every w-degree and matrix-valued terms
    M3 = FourierSeries.cosine(N_ANGLE, (1, -1), 0.05 * rng.standard_normal((Q, Q)),
                              ORDER)
    rhs_m = random_ft(rng, (Q, 2), nterms=6)
    assert len({sum(a) for a in rhs_m.coeffs}) > 1
    um = ft_neumann_solve(M3, rhs_m)
    assert um.shape == (Q, 2)
    for x, w in SAMPLES:
        lhs = um.eval(x, w) + M3.eval(x) @ um.eval(x, w)
        assert np.allclose(lhs, rhs_m.eval(x, w), atol=1e-9)


def test_neumann_carries_input_losses_once(monkeypatch):
    # slowly contracting M whose tail beyond ORDER was cut off: the solve
    # takes 75 iterations, and M's recorded loss must enter the result once
    eye = np.eye(2)
    hi = 3 * ORDER
    M_full = (FourierSeries.constant(N_ANGLE, 0.6 * eye, hi)
              + FourierSeries.cosine(N_ANGLE, (1, 0), 0.05 * eye, hi)
              + FourierSeries.cosine(N_ANGLE, (ORDER + 1, 0), 2e-6 * eye, hi))
    M = M_full.truncate(ORDER)
    assert M.trunc_loss == pytest.approx(2e-6)
    rhs = FourierSeries.cosine(N_ANGLE, (0, 1), np.array([1.0, 0.5]), ORDER)
    products = []

    def counting(a, b):
        products.append(1)
        return fs_matmul(a, b)

    monkeypatch.setattr(ftaylor, "fs_matmul", counting)
    u = fs_neumann_solve(M, rhs, tol=1e-14)
    assert len(products) >= 50
    assert u.trunc_loss < 2 * M.trunc_loss
    # the recorded loss still bounds the change against the untruncated solve
    u_hi = fs_neumann_solve(M_full, rhs.truncate(hi), tol=1e-14)
    assert (u - u_hi).majorant() <= u.trunc_loss


def test_neumann_rejects_expansion():
    M = FourierSeries.constant(N_ANGLE, 2.0 * np.eye(2), ORDER) * -1.0  # I + M singular-ish
    rhs = FourierSeries.constant(N_ANGLE, np.array([1.0, 0.0]), ORDER)
    with pytest.raises(ImplicitSolveFailure):
        fs_neumann_solve(M, rhs, max_iter=50)


def test_map_values_truncate_drop():
    rng = np.random.default_rng(19)
    F = random_ft(rng, (2,))
    G = F.map_values(lambda v: v[::-1], (2,))
    for x, w in SAMPLES:
        assert np.allclose(G.eval(x, w), F.eval(x, w)[::-1], atol=1e-13)


def test_json_roundtrip():
    rng = np.random.default_rng(23)
    F = random_ft(rng, (2,))
    back = FourierTaylor.from_json(F.to_json())
    assert back.n == F.n and back.q == F.q and back.shape == F.shape
    assert set(back.coeffs) == set(F.coeffs)
    for x, w in SAMPLES:
        assert np.allclose(back.eval(x, w), F.eval(x, w), atol=1e-14)
