"""Shared builders: the elliptic n=2 benchmark family and a drift-curve family.

The benchmark family has one internal angle pair (golden-ratio frequency
vector), one drift slot, one elliptic normal plane whose rotation rate moves
with the external parameter, and reversibility involution diag(1, -1) on the
normal plane.  Perturbations are random trigonometric polynomials projected
onto the reversible parity classes, plus a fixed zero-mode z-linear component
that forces a nonzero unfolding shift.
"""
import numpy as np
import pytest

from kamrev import FourierSeries, NormalizerConfig, ReversibleFamily, fourier
from kamrev.ftaylor import FourierTaylor
from kamrev.revsystem import symmetrize_w_rows, symmetrize_x_row

GOLDEN = (1 + np.sqrt(5)) / 2
OMEGA0 = np.array([1.0, GOLDEN])
MU0 = np.array([0.04])
TAU = 1.5
GAMMA = 5e-3
HORIZON = 16


def sine(n, k, value, order):
    """The series value * sin(<k, x>)."""
    value = np.asarray(value, dtype=complex)
    k = tuple(int(c) for c in k)
    mk = tuple(-c for c in k)
    if k == mk:
        return FourierSeries(n, value.shape, order)
    return FourierSeries(n, value.shape, order, {k: -0.5j * value, mk: 0.5j * value})


def fs_stack(series, axis=0):
    """Stack equally shaped series along a new value axis (like np.stack)."""
    series = list(series)
    first = series[0]
    if all(len(s.K) == len(first.K) and np.array_equal(s.K, first.K) for s in series):
        K, parts = first.K, [s.V for s in series]
    else:
        K, rows = fourier._union(*(s.K for s in series))
        parts = []
        for s, r in zip(series, rows):
            part = np.zeros((len(K),) + first.shape, dtype=complex)
            part[r] = s.V
            parts.append(part)
    V = np.stack(parts, axis=axis + 1 if axis >= 0 else axis)
    return FourierSeries(first.n, V.shape[1:], max(s.order for s in series),
                         trunc_loss=sum(s.trunc_loss for s in series), K=K, V=V)


def _random_taylor(rng, n, q, dim, order, degree, kmax=2, deg=2):
    """Random real trig polynomial with modes |k|_1 <= kmax, w-degree <= deg."""
    terms = {}
    count = 0
    for _ in range(3 * dim):
        alpha = tuple(int(e) for e in rng.multinomial(rng.integers(0, deg + 1),
                                                      np.ones(q) / q)) if q else ()
        k = tuple(int(c) for c in rng.integers(-kmax, kmax + 1, size=n))
        if sum(abs(c) for c in k) > kmax:
            continue
        coeffs = {}
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        if all(c == 0 for c in k):
            v = v.real.astype(complex)
        coeffs[k] = v
        mk = tuple(-c for c in k)
        if mk != k:
            coeffs[mk] = np.conj(v)
        s = FourierSeries(n, (dim,), order, coeffs)
        got = terms.get(alpha)
        terms[alpha] = s if got is None else got + s
        count += 1
    if not count:
        terms[(0,) * q] = FourierSeries.constant(n, rng.standard_normal(dim), order)
    return FourierTaylor(n, q, (dim,), order, degree, terms)


def make_golden_family(delta=1e-4, seed=0, order=16, degree=3):
    """The criterion-6 sized benchmark: n=2, m=1, p=1, s=1, elliptic normal
    part Q(mu) = [[0, 1+mu], [-1, 0]], R = diag(1, -1)."""
    n, m, p, s = 2, 1, 1, 1
    d, q, qe = 2 * p, m + 2 * p, m + 2 * p + m
    N, D = order, degree
    R = np.diag([1.0, -1.0])
    Q_terms = {
        (0, 0, 0): np.array([[0.0, 1.0], [-1.0, 0.0]]),
        (0, 0, 1): np.array([[0.0, 1.0], [0.0, 0.0]]),
    }

    def const(vec):
        return FourierSeries.constant(n, np.asarray(vec, dtype=float), N)

    xi = FourierTaylor(n, qe, (n,), N, D, {
        (0, 1, 0, 0): const([0.3, 0.1]),
        (2, 0, 0, 0): const([0.2, 0.0]),
    })
    eta = FourierTaylor(n, qe, (m,), N, D, {
        (2, 0, 0, 0): const([0.25]),
        (0, 2, 0, 0): const([0.15]),
        (1, 0, 1, 0): const([-0.1]),
    })
    zeta = FourierTaylor(n, qe, (d,), N, D, {
        (0, 1, 1, 0): const([0.2, 0.0]),
        (2, 0, 0, 0): const([0.0, 0.1]),
        (1, 0, 1, 0): const([0.0, 0.15]),
        (0, 0, 1, 1): const([0.2, 0.0]),
        (0, 1, 0, 1): const([0.0, 0.3]),
    })
    base = ReversibleFamily(n, m, p, s, OMEGA0, R, Q_terms, xi, eta, zeta,
                            None, None, None, order=N, degree=D)
    if delta == 0.0:
        return base

    rng = np.random.default_rng(seed)
    S = base.S_w
    f = symmetrize_x_row(_random_taylor(rng, n, q, n, N, D), S)
    gh = symmetrize_w_rows(_random_taylor(rng, n, q, q, N, D), S)
    g = gh.map_values(lambda v: v[:m], shape=(m,))
    h = gh.map_values(lambda v: v[m:], shape=(d,))
    # fixed zero-mode content so all three parameter shifts respond at first
    # order in the perturbation size
    f = f + FourierTaylor.from_series(
        FourierSeries.constant(n, np.array([0.8, -0.5]), N), q, D)
    g = g + FourierTaylor.from_series(
        FourierSeries.constant(n, np.array([0.7]), N), q, D)
    # zero-mode z-linear piece anti-commuting with R: drives the unfolding shift
    M = np.array([[0.0, 0.6], [0.4, 0.0]])
    hz = {}
    for j in range(d):
        alpha = [0] * q
        alpha[m + j] = 1
        hz[tuple(alpha)] = const(M[:, j])
    h = h + FourierTaylor(n, q, (d,), N, D, hz)

    def rescale(F, target):
        maj = F.majorant()
        return F * (target / maj) if maj > 0 else F

    fam = base.with_perturbation(rescale(f, delta), rescale(g, delta),
                                 rescale(h, delta))
    assert not fam.check_reversibility()
    return fam


def make_curve_family(delta=1e-4, order=16, degree=3):
    """Drift-only family (no normal directions, no external parameters) whose
    invariant tori are identified along a frequency curve."""
    n, m = 2, 1
    N, D = order, degree
    eta = FourierTaylor(n, 2 * m, (m,), N, D, {
        (2, 0): FourierSeries.constant(n, np.array([0.1]), N)})
    f = (FourierTaylor.from_series(
            FourierSeries.cosine(n, (1, 0), np.array([1.0, 0.4]) * delta, N), m, D)
         + FourierTaylor.from_series(
            FourierSeries.constant(n, np.array([0.6, -0.3]) * delta, N), m, D))
    g = (FourierTaylor.from_series(
            FourierSeries.cosine(n, (1, 1), np.array([0.8]) * delta, N), m, D)
         + FourierTaylor.from_series(
            FourierSeries.constant(n, np.array([0.5]) * delta, N), m, D))
    return ReversibleFamily(n, m, 0, 0, np.array([1.0, 1.55]), np.zeros((0, 0)),
                            {}, None, eta, None, f, g, None, order=N, degree=D)


def make_config(**kw):
    args = dict(tau=TAU, gamma=GAMMA, horizon=HORIZON)
    args.update(kw)
    return NormalizerConfig(**args)


@pytest.fixture(scope="session")
def golden_family():
    return make_golden_family()


@pytest.fixture(scope="session")
def curve_family():
    return make_curve_family()
