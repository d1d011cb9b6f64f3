"""Truncated Fourier series on the n-torus with vector or matrix values.

A series keeps its stored modes in two arrays: ``K``, an int64 ``(M, n)``
array of multi-indices in strictly increasing lexicographic order, and
``V``, a complex ``(M,) + shape`` array whose row i is the coefficient of
exp(i<K[i], x>).  Modes whose norm is below ``PRUNE_TOL``, or below
``DUST_TOL`` times the largest norm of the series, are never stored.  Every
operation is a fixed handful of numpy expressions over the two arrays; the
``coeffs`` property is a read-only k -> array view for callers that think
in single modes.  A series is a Fourier-Taylor field with no phase
variables; ``_Rows`` holds the dust pruning, majorant and ``eval`` of both,
which takes a point or a stack and checks each value component's residue.

Reality of the represented function is an invariant: the coefficient at -k
is the complex conjugate of the coefficient at k for every stored k.  All
arithmetic preserves the invariant exactly because complex multiplication
commutes with conjugation flop for flop.

Products are sparse convolutions over the stored rows, in ``_convolve``,
the one kernel that forms pairs; Fourier-Taylor fields (``ftaylor``) use it
too.  A row's slot code is an integer affine in its key and increasing in
lexicographic order, and ``np.bincount`` sums each real and imaginary part
into its slot in pair order.  The rows are always in lexicographic order,
so a product is bit for bit the same whatever built its operands.  No grid
transforms are used, and no BLAS (see ``_matmul_pairs`` for the rounding).
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .errors import ImaginaryResidue

# Coefficients below this magnitude are pruned outright.
PRUNE_TOL = 1e-30
# Modes below this share of their series' largest norm are pruned too: this
# dust lies under the rounding of every sum it enters.
DUST_TOL = 1e-17
# Whole products whose majorant bound falls below this are skipped.  This
# sits eight orders of magnitude under the tightest stated tolerance.
DROP_TOL = 1e-20
# A Fourier-Taylor product forms its pair values this many pairs at a time
# (at least one row of the first factor), which bounds its working memory.
PAIR_BLOCK = 1 << 12
# An angle shift's Taylor expansion stops at the first layer this small
# relative to the operand, or at this degree.
SHIFT_TOL = 1e-17
SHIFT_MAX_DEGREE = 60


def order1(k) -> int:
    """Order |k| = |k_1| + ... + |k_n| of a multi-index."""
    return int(sum(abs(int(c)) for c in k))


def canonical_half(K) -> np.ndarray:
    """Mask of the rows of K whose first nonzero entry is positive, or that are 0."""
    return K[np.arange(len(K)), np.argmax(K != 0, axis=1)] >= 0


def _norms(V) -> np.ndarray:
    """Largest coefficient magnitude of each stored mode."""
    return np.abs(V).reshape(len(V), math.prod(V.shape[1:])).max(axis=1, initial=0.0)


def _lattice(lo, hi):
    """Place values w, radices hi - lo + 1 and slot count of the slot code
    (k - lo) @ w of key rows with lo <= k <= hi, affine in k and increasing
    in lexicographic order; a slot's key is code // w % radix + lo."""
    radix = hi - lo + 1
    w = [1]
    for r in radix.tolist()[:0:-1]:
        w.append(w[-1] * r)
    size = w[-1] * int(radix[0])
    if size >= 2 ** 62:
        raise OverflowError(f"keys spanning {radix} overflow the slot codes")
    return np.array(w[::-1], dtype=np.int64), radix, size


def _runs(E):
    """The run of equal rows of the sorted array E that each row is in, and
    the first row of each run."""
    new = np.ones(len(E), dtype=bool)
    new[1:] = (E[1:] != E[:-1]).any(axis=1)
    return np.cumsum(new) - 1, np.flatnonzero(new)


def _alive(norms, E) -> np.ndarray:
    """Mask of the rows at or above the dust floor of their block, a run of
    equal rows of E: PRUNE_TOL, or DUST_TOL times the block's top norm."""
    run, starts = _runs(E)
    return norms >= np.maximum(PRUNE_TOL, DUST_TOL * np.maximum.reduceat(norms, starts)[run])


def _slots(codes, size):
    """Number the distinct codes, which lie in [0, size): returns them in
    increasing order and, for each code, its number.  A dense slot -> number
    map serves when the slot range is within reach of the code count;
    ``np.unique`` serves when the range dwarfs it (wide modes in three or
    more angles), where the map would cost more to clear than the sort."""
    if size > 32 * len(codes) + 8192:
        return np.unique(codes, return_inverse=True)
    hit = np.zeros(size, dtype=bool)
    hit[codes] = True
    present = np.flatnonzero(hit)
    number = np.empty(size, dtype=np.intp)
    number[present] = np.arange(len(present))
    return present, number[codes]


def _union(*Ks):
    """Sorted union of key arrays, and the union row each input row lands on."""
    cat = np.concatenate(Ks)
    lo = cat.min(axis=0, initial=0)
    w, radix, size = _lattice(lo, cat.max(axis=0, initial=0))
    present, inv = _slots((cat - lo) @ w, size)
    ends = accumulate(len(K) for K in Ks)
    return present[:, None] // w % radix + lo, [inv[e - len(K):e] for K, e in zip(Ks, ends)]


class _Rows:
    """What a series and a Fourier-Taylor field share: both store coefficient
    rows V under unique sorted key rows ``keys``, [A | K] for a field and K
    for a series, which is a field with no phase variables (``q`` = 0)."""

    def _store(self, A, K, V):
        """Set K, V and their norms, less the dust: rows below PRUNE_TOL or
        DUST_TOL times the top norm of their term, a run of equal rows of A
        (a series passes no columns, so it is one term).  Returns the kept A."""
        norms = _norms(V)
        floor = max(PRUNE_TOL, DUST_TOL * norms.max(initial=0.0))
        if norms.min(initial=floor) < floor:  # a term's floor is at most this
            live = _alive(norms, A) if A.shape[1] else norms >= floor
            A, K, V, norms = A[live], K[live], V[live], norms[live]
        self.K, self.V, self.norms, self._majorant = K, V, norms, None
        return A

    def majorant(self) -> float:
        """l1 sum of the row norms: an upper bound for sup |F| over the real
        torus (times the unit polydisc in w for a field)."""
        if self._majorant is None:
            self._majorant = float(self.norms.sum())
        return self._majorant

    def _like(self, V):
        """Rows like these with values V, whose value shape is read off V."""
        return self._from_keys(self.keys, V, self.order, self.degree, self.trunc_loss)

    @cached_property
    def _evaluator(self):
        """Built on first use: the union K (M, n) of the terms' modes, as
        floats, the coefficients C (M, terms, values) on it, the exponents
        E (terms, q) and 1e-10 times each term's majorant per value component."""
        A = self.keys[:, :self.q]
        term, starts = _runs(A)
        K, (slot,) = _union(self.K)
        C = np.zeros((len(K), len(starts), math.prod(self.shape)), dtype=complex)
        C[slot, term] = self.V.reshape(len(self.V), -1)
        return K.astype(float), C, A[starts], 1e-10 * np.abs(C).sum(axis=0)

    def eval(self, x, w=()):
        """Value at a point (x, w), or at each row of an (S, n) stack of x with
        an (S, q) stack of w or one w: the sum of the terms F_alpha(x) w^alpha
        (a series is one term and takes no w).  The first call compiles
        ``_evaluator``; a call is then one set of phases exp(i<k, x>), one
        contraction per term and one monomial-weighted sum, each stack row
        summed as it would be alone.  Every term must be real at x: the
        imaginary part of each value component may not exceed 1e-10 times
        that component's majorant in the term, which stays strict in the
        fused x and w rows of ``InstantiatedField``."""
        x = np.asarray(x, dtype=float)
        if not len(self.V):
            return np.zeros(x.shape[:-1] + self.shape)
        K, C, E, limits = self._evaluator
        phases = np.exp(1j * np.einsum("...j,mj->...m", x, K))
        out = np.einsum("...m,mtp->...tp", phases, C)
        resid = np.abs(out.imag)
        bad = resid > limits
        if bad.any():
            *_, t, p = where = np.unravel_index(np.argmax(bad), bad.shape)
            raise ImaginaryResidue(
                f"imaginary residue {resid[where]:.3e} of term {tuple(E[t].tolist())}, "
                f"component {p}, exceeds {limits[t, p]:.3e} (1e-10 times its majorant)")
        mono = (np.asarray(w, dtype=float)[..., None, :] ** E).prod(axis=-1)
        return (mono[..., None, :] @ out.real).reshape(x.shape[:-1] + self.shape)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if (other.n, other.q, other.shape) != (self.n, self.q, self.shape):
            raise ValueError("operand mismatch in +")
        if len(self.V) == len(other.V) and np.array_equal(self.keys, other.keys):
            keys, V = self.keys, self.V + other.V
        else:
            keys, (rows_a, rows_b) = _union(self.keys, other.keys)
            V = np.zeros((len(keys),) + self.shape, dtype=complex)
            V[rows_a] = self.V
            V[rows_b] += other.V
        return self._from_keys(keys, V, max(self.order, other.order),
                               max(self.degree, other.degree), self.trunc_loss + other.trunc_loss)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like(-self.V)

    def __mul__(self, scalar):
        if isinstance(scalar, _Rows):
            return NotImplemented
        s = complex(scalar)
        out = self._like(self.V * (s.real if s.imag == 0.0 else s))
        out.trunc_loss *= abs(s)
        return out

    __rmul__ = __mul__

    def map_stack(self, fn):
        """Apply ``fn`` to the stacked coefficients V (rows on axis 0).

        ``fn`` must be linear and real and act on the value axes only, e.g.
        ``lambda V: V[:, :m]``; the value shape is read off its output."""
        return self._like(fn(self.V))

    def map_values(self, fn, shape=None):
        """Apply ``fn`` to every coefficient array (must be linear and real)."""
        shape = self.shape if shape is None else tuple(shape)
        return self.map_stack(lambda V: np.array([fn(v) for v in V], dtype=complex)
                              .reshape((len(V),) + shape))

    def truncate(self, order):
        """Drop modes beyond ``order``, recording the dropped l1 mass."""
        order = int(order)
        if order == self.order:
            return self
        keep = np.abs(self.K).sum(axis=1) <= order
        return self._from_keys(self.keys[keep], self.V[keep], order, self.degree,
                               self.trunc_loss + float(self.norms[~keep].sum()))

    def reflect(self):
        """Pullback under x -> -x; by reality this conjugates coefficients."""
        return self._like(np.conj(self.V))

    def grad_x(self):
        """Jacobian in the angles: value shape becomes shape + (n,)."""
        dK = (1j * self.K).reshape((len(self.K),) + (1,) * len(self.shape) + (self.n,))
        return self._like(self.V[..., None] * dK)

    def _keep(self, rows):
        """Keep only ``rows`` of a series or field just built, in place."""
        for name in ("A", "K", "V", "norms"):
            if name in vars(self):
                setattr(self, name, vars(self)[name][rows])
        self._majorant = None


class FourierSeries(_Rows):
    """Sparse truncated Fourier series sum_k c_k exp(i<k, x>) on T^n.

    Coefficients c_k are complex numpy arrays of a common ``shape``:
    ``(d,)`` for a map into R^d, ``(r, c)`` for matrix-valued series.
    ``order`` is the truncation order; modes with |k| > order are not
    representable and binary operations drop them, recording the dropped
    l1 mass in ``trunc_loss``.

    Build from a mapping ``coeffs`` (k -> array; modes, shapes, order and
    reality are checked) or from arrays ``K`` (unique rows in lexicographic
    order) and ``V``, which are taken as they are.  Either way modes below
    ``PRUNE_TOL`` or below ``DUST_TOL`` times the largest norm are pruned;
    that dust is not counted in ``trunc_loss``.
    """

    q = degree = 0  # a Fourier-Taylor field of degree 0 in no phase variables

    def __init__(self, n, shape, order, coeffs=None, trunc_loss=0.0, K=None, V=None):
        self.n = int(n)
        self.shape = tuple(int(s) for s in shape)
        self.order = int(order)
        self.trunc_loss = float(trunc_loss)
        if coeffs is not None or K is None:  # no arrays: the mapping, or no modes
            K, V = self._checked_arrays(coeffs or {})
        self._store(K[:, :0], K, V)
        if coeffs is not None:
            self._check_reality()

    def _checked_arrays(self, coeffs):
        items = sorted(((tuple(int(c) for c in k), v) for k, v in coeffs.items()),
                       key=lambda kv: kv[0])
        for k, v in items:
            if len(k) != self.n:
                raise ValueError(f"mode {k} has wrong length for n={self.n}")
            if np.shape(v) != self.shape:
                raise ValueError(f"coefficient at {k} has shape {np.shape(v)}, expected {self.shape}")
            if order1(k) > self.order:
                raise ValueError(f"mode {k} beyond truncation order {self.order}")
        K = np.array([k for k, _ in items], dtype=np.int64).reshape(len(items), self.n)
        V = np.array([v for _, v in items], dtype=complex).reshape((len(items),) + self.shape)
        return K, V

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, n, value, order):
        value = np.asarray(value, dtype=complex)
        return cls(n, value.shape, order, K=np.zeros((1, n), dtype=np.int64),
                   V=value.reshape((1,) + value.shape))

    @classmethod
    def cosine(cls, n, k, value, order):
        """value * cos(<k, x>)."""
        value = np.asarray(value, dtype=complex)
        k = tuple(int(c) for c in k)
        mk = tuple(-c for c in k)
        if k == mk:
            return cls(n, value.shape, order, {k: value})
        return cls(n, value.shape, order, {k: value / 2, mk: value / 2})

    def _check_reality(self, tol=1e-12):
        scale = self.majorant()
        if scale == 0.0:
            return
        M = len(self.K)
        span = np.abs(self.K).max(axis=0)
        w, _, _ = _lattice(-span, span)
        codes = (np.concatenate([self.K, -self.K]) + span) @ w
        pos = np.minimum(np.searchsorted(codes[:M], codes[M:]), M - 1)
        found = (codes[:M][pos] == codes[M:]).reshape((M,) + (1,) * len(self.shape))
        bad = _norms(self.V - np.where(found, np.conj(self.V[pos]), 0.0))
        if bad.max() > tol * scale:
            i = int(np.argmax(bad))
            raise ValueError(f"reality violated at mode {tuple(self.K[i].tolist())} "
                             f"by {bad[i]:.3e} (scale {scale:.3e})")

    # -- basic queries ---------------------------------------------------------

    @cached_property
    def coeffs(self) -> Mapping:
        """Read-only k -> coefficient mapping of the stored modes."""
        return MappingProxyType(dict(zip(map(tuple, self.K.tolist()), self.V)))

    keys = property(lambda self: self.K, doc="Product keys of the stored rows: the modes.")

    def _from_keys(self, keys, V, order, degree, loss):
        """A series on the key rows ``keys``; ``degree`` is ignored."""
        return FourierSeries(self.n, V.shape[1:], order, trunc_loss=loss, K=keys, V=V)

    def strip_norm(self, rho) -> float:
        """Majorant sum |c_k| e^{|k| rho} of sup over the complex strip of width rho."""
        rho = float(rho)
        if rho <= 0.0:
            raise ValueError("strip width rho must be positive")
        return float((self.norms * np.exp(np.abs(self.K).sum(axis=1) * rho)).sum())

    def average(self):
        """Torus average: the k = 0 coefficient as a real array."""
        zero = np.flatnonzero(~self.K.any(axis=1))
        if not len(zero):
            return np.zeros(self.shape)
        return np.real(self.V[zero[0]]).copy()

    # -- calculus ----------------------------------------------------------------

    def directional_derivative(self, omega):
        """Coefficientwise map c_k -> i <k, omega> c_k (derivative along the flow)."""
        factors = 1j * (self.K @ np.asarray(omega, dtype=float))
        return self._like(self.V * factors.reshape((-1,) + (1,) * len(self.shape)))

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        """Schema: one entry per +-k pair, canonical representative stored."""
        half = canonical_half(self.K)
        entries = [{"k": k, "re": np.real(v).ravel().tolist(), "im": np.imag(v).ravel().tolist()}
                   for k, v in zip(self.K[half].tolist(), self.V[half])]
        d = int(np.prod(self.shape)) if self.shape else 1
        doc = {"n": self.n, "d": d, "N": self.order, "coeffs": entries}
        if len(self.shape) != 1:
            doc["shape"] = list(self.shape)
        return doc

    @classmethod
    def from_json(cls, doc):
        n = int(doc["n"])
        order = int(doc["N"])
        shape = tuple(doc["shape"]) if "shape" in doc else (int(doc["d"]),)
        coeffs = {}
        for entry in doc["coeffs"]:
            k = tuple(int(c) for c in entry["k"])
            v = (np.asarray(entry["re"], dtype=float)
                 + 1j * np.asarray(entry["im"], dtype=float)).reshape(shape)
            coeffs[k] = v
            mk = tuple(-c for c in k)
            if mk != k:
                coeffs[mk] = np.conj(v)
        return cls(n, shape, order, coeffs)

    def __repr__(self):
        return (f"FourierSeries(n={self.n}, shape={self.shape}, order={self.order}, "
                f"modes={len(self.K)})")


# -- products ------------------------------------------------------------------


def _convolve(a, b, vcombine, out_shape):
    """Sparse convolution of stored rows with a vectorized value combiner.

    The operands are two series, or two Fourier-Taylor fields; a row's key
    is its mode k, after its exponent alpha for a field (``keys``).  A field
    is its Taylor jet, so pairs of total degree above the degree touch no
    stored coefficient: they are dropped before the sum, and a product wholly
    above the degree is empty, neither with any loss.  A whole product whose
    majorants' product is under DROP_TOL is skipped, with that product as its
    loss, counted c times in (., c) @ (c, .), where an entry sums c pairs.
    A pair's slot code is the sum of two per-factor code vectors; a mode
    column spans +- the factors' largest |k_j| summed (stored modes come in
    +-k pairs), an exponent column 0 to that sum or the degree.  The pair
    values, all at once for series and ``PAIR_BLOCK`` pairs at a time for
    fields, are viewed as float64, 2C parts per pair for C values, and one
    ``np.bincount`` over (slot, part) sums them into the slots in pair order, as
    ``np.add.at`` would: bit for bit for a series product, block by block for
    a field product.  The dust floor of each term is taken from the
    untruncated product; then the modes beyond the order go to
    ``trunc_loss``."""
    if (a.n, a.q) != (b.n, b.q):
        raise ValueError("operand mismatch in product")
    order, degree, q = max(a.order, b.order), max(a.degree, b.degree), a.q
    loss = a.trunc_loss + b.trunc_loss
    Ka, Kb = a.keys, b.keys
    keep = None
    if q:  # the pairs within the degree
        keep = Ka[:, :q].sum(axis=1)[:, None] + Kb[:, :q].sum(axis=1) <= degree
        keep = None if keep.all() else keep
    above = keep is not None and not keep.any()
    bound = 0.0 if above else a.majorant() * b.majorant()
    if above or not len(Ka) or not len(Kb) or bound < DROP_TOL:  # the whole product
        if bound:  # an entry of a (., c) @ (c, .) product sums c pair products
            loss += vcombine(np.ones((1,) + a.shape), np.ones((1,) + b.shape)).max() * bound
        return a._from_keys(np.zeros((0, Ka.shape[1]), dtype=np.int64),
                            np.zeros((0,) + out_shape, dtype=complex), order, degree, loss)
    hi = np.abs(Ka).max(axis=0) + np.abs(Kb).max(axis=0)
    lo = -hi
    if q:
        lo[:q], hi[:q] = 0, np.minimum(hi[:q], degree)
    w, radix, size = _lattice(lo, hi)
    codes = (Ka @ w)[:, None] + (Kb - lo) @ w
    codes = codes.ravel() if keep is None else codes[keep]
    present, slot = _slots(codes, size)
    del codes  # the pair codes are held once, as slots, while the values are summed
    sums, done = np.zeros((len(present), 2 * math.prod(out_shape))), 0
    step = max(1, PAIR_BLOCK // len(Kb)) if q else len(Ka)
    for i in range(0, len(Ka), step):
        vals = vcombine(a.V[i:i + step], b.V)
        vals = vals[keep[i:i + step]] if keep is not None else vals.reshape(
            (vals.shape[0] * len(Kb),) + out_shape)
        _scatter(sums, slot[done:done + len(vals)], vals)
        done += len(vals)
    keys = present[:, None] // w % radix + lo
    out = a._from_keys(keys, sums.view(complex).reshape((len(keys),) + out_shape),
                       order, degree, loss)
    over = np.abs(out.K).sum(axis=1) > order
    if over.any():
        out.trunc_loss += float(out.norms[over].sum())
        out._keep(~over)
    return out


def _scatter(sums, slot, vals):
    """Add the complex rows vals into the rows ``slot`` of the (S, 2C) real
    and imaginary part sums, one ``np.bincount`` over (slot, part), in row order."""
    parts = np.ascontiguousarray(vals).reshape(len(vals), sums.shape[1] // 2).view(np.float64)
    codes = slot[:, None] * sums.shape[1] + np.arange(sums.shape[1])
    sums += np.bincount(codes.ravel(), parts.ravel(), sums.size).reshape(sums.shape)


def _mul_pairs(a_shape, b_shape):
    """Value combiner of the pointwise product, with numpy broadcasting of
    the value shapes, and its value shape."""
    out_shape = np.broadcast_shapes(a_shape, b_shape)
    r = len(out_shape)

    def combine(Va, Vb):
        sa = (len(Va), 1) + (1,) * (r - len(a_shape)) + a_shape
        sb = (1, len(Vb)) + (1,) * (r - len(b_shape)) + b_shape
        return Va.reshape(sa) * Vb.reshape(sb)

    return combine, out_shape


def _matmul_pairs(a_shape, b_shape):
    """Value combiner of the pointwise matrix product (r,c) or (c,) @ (c,) or
    (c,e), and its value shape.

    All pair values at once, as (Ma r, Mb e) outer products of a's column j
    with b's row j summed in order j = 0, 1, ..., with no BLAS call, so the
    rounding does not depend on the CPU's BLAS kernel."""
    out_shape = np.matmul(np.zeros(a_shape), np.zeros(b_shape)).shape
    c = a_shape[-1]

    def combine(Va, Vb):
        # a vector factor gets a unit axis: A is (Ma, r, c), B is (Mb, c, e)
        A = Va.reshape(len(Va), -1, c)
        B = Vb.reshape(len(Vb), c, -1)
        G = A[:, :, 0].reshape(-1, 1) * B[:, 0, :].reshape(1, -1)
        term = np.empty_like(G)
        for j in range(1, c):
            G += np.multiply(A[:, :, j].reshape(-1, 1), B[:, j, :].reshape(1, -1), out=term)
        G = G.reshape(len(A), A.shape[1], len(B), B.shape[2]).transpose(0, 2, 1, 3)
        return G.reshape((len(A), len(B)) + out_shape)

    return combine, out_shape


def fs_mul(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    """Pointwise product with numpy broadcasting of the value shapes."""
    return _convolve(a, b, *_mul_pairs(a.shape, b.shape))


def fs_matmul(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    """Pointwise matrix product: (r,c) or (c,) @ (c,) or (c,e)."""
    return _convolve(a, b, *_matmul_pairs(a.shape, b.shape))


def _chain(memo, beta, step):
    """memo[beta], built as step(memo[beta - e_j], j) for the last j with
    beta_j > 0, so each entry costs one step from a memoized one."""
    got = memo.get(beta)
    if got is None:
        j = max(i for i, e in enumerate(beta) if e > 0)
        prev = list(beta)
        prev[j] -= 1
        got = memo[beta] = step(_chain(memo, tuple(prev), step), j)
    return got


class AngleShift:
    """Composition operator g(x) -> g(x + a(x)), a a small (n,)-valued series,
    on series and Fourier-Taylor fields g.

    g(x + a) = g + the layers sum_{|beta| = d} a^beta d^beta g / beta!, d >= 1,
    each one product, ``fs_matmul`` (series) or ``ft_series_matmul`` (fields),
    of the powers a^beta / beta! stacked as a (B,) series with g's rows
    stacked as (i k)^beta V, a loss-free (B,) + shape array.  The rows of
    each alpha of g (a series has one) stop at their first layer whose bound
    sum_beta maj(a^beta / beta!) maj(d^beta g) there is at most SHIFT_TOL
    times their majorant, or at SHIFT_MAX_DEGREE, and leave the stack.  The
    bound sums a majorant per beta, as the layer's beta terms may cancel, so
    a block stops no earlier than on the sum of its term majorants.  The sum
    is cut to g's order; its loss is g's once, the layers' and the cut mass.
    """

    def __init__(self, a: FourierSeries):
        if a.shape != (a.n,):
            raise ValueError("angle shift needs an (n,)-valued series")
        self.a = a
        self.trivial = a.majorant() == 0.0

    def layers(self):
        """The layers d = 1, 2, ..., SHIFT_MAX_DEGREE, up to the first in which
        no a^beta (|beta| = d) has modes or a loss (no modes: skipped under
        DROP_TOL, or cut away by the order): those betas (B, n), their a^beta /
        beta! stacked as a (B,) series, whose loss is a^beta's over beta!, the
        majorant of each, and each a^beta's loss.  Degree d's powers are one
        product of degree d - 1's with a, whose column (i, j) is a^(beta_i + e_j)
        for j at or after beta_i's last nonzero entry, so each beta comes once;
        each column is pruned, skipped under DROP_TOL and cut to the order as
        its own product would be, and keeps that product's loss: its parent's,
        a's, a skip's bound and its cut mass."""
        a, n = self.a, self.a.n
        # each component pruned against its own top, as a series of it alone
        # would be, at an order no product reaches, so that the products are uncut
        amag = np.abs(a.V)
        amag[amag < np.maximum(PRUNE_TOL, DUST_TOL * amag.max(axis=0, initial=0.0))] = 0.0
        comps = FourierSeries(n, a.shape, 2 ** 62, K=a.K, V=np.where(amag > 0.0, a.V, 0.0))
        # the last degree's betas, their losses, and all their powers stacked (B, 1)
        betas, loss = np.zeros((1, n), dtype=np.int64), np.zeros(1)
        powers = FourierSeries.constant(n, np.ones((1, 1)), 2 ** 62)
        for _ in range(SHIFT_MAX_DEGREE):
            i, j = np.nonzero(np.arange(n) >= ((betas > 0) * np.arange(n)).max(axis=1)[:, None])
            betas = betas[i] + np.eye(n, dtype=np.int64)[j]
            prod = fs_mul(powers, comps)
            col = prod.V[:, i, j]
            mag = np.abs(col)
            mag[mag < np.maximum(PRUNE_TOL, DUST_TOL * mag.max(axis=0, initial=0.0))] = 0.0
            bound = np.abs(powers.V[:, :, 0]).sum(axis=0)[i] * amag.sum(axis=0)[j]
            skip = bound < DROP_TOL
            mag[:, skip] = 0.0
            over = np.abs(prod.K).sum(axis=1) > a.order
            loss = loss[i] + a.trunc_loss + np.where(skip, bound, 0.0) + mag[over].sum(axis=0)
            K, V = prod.K[~over], np.where(mag > 0.0, col, 0.0)[~over]
            live = V.any(axis=0) | (loss > 0.0)
            if not live.any():
                return
            inv = np.array([1 / math.prod(map(math.factorial, b)) for b in betas[live].tolist()])
            P = FourierSeries(n, inv.shape, a.order, trunc_loss=float(inv @ loss[live]),
                              K=K, V=V[:, live] * inv)
            yield betas[live].astype(float), P, np.abs(P.V).sum(axis=0), loss[live]
            powers = FourierSeries(n, V.shape[1:] + (1,), 2 ** 62, K=K, V=V[:, :, None])

    def apply(self, g):
        """g(x + a(x)), for a series or a Fourier-Taylor field g."""
        if self.trivial or not len(g.V):
            return g
        if len(g.shape) > 1:  # a matrix value is shifted as a flat vector
            flat = self.apply(g.map_stack(lambda V: V.reshape(len(V), -1)))
            return flat.map_stack(lambda V: V.reshape((len(V),) + g.shape))
        from .ftaylor import ft_series_matmul  # ftaylor imports this module
        product = fs_matmul if isinstance(g, FourierSeries) else ft_series_matmul
        # the rows of one alpha form a block; a series is one block
        block = _runs(g.keys[:, :g.q])[0]
        floor = SHIFT_TOL * np.bincount(block, g.norms)
        K = g.K.astype(float)
        V = g.V.reshape(len(g.V), 1, -1)
        live = np.ones(len(g.V), dtype=bool)
        acc = g
        for degree, (betas, P, P_maj, _) in enumerate(self.layers(), 1):
            factor = (1, 1j, -1, -1j)[degree % 4] * (K[live, None] ** betas).prod(axis=2)
            rows = (factor[:, :, None] * V[live]).reshape((len(factor), len(betas)) + g.shape)
            term = product(P, g._from_keys(g.keys[live], rows, g.order, g.degree, 0.0))
            acc = acc + term
            # the norm of row r of d^beta g is |(i k_r)^beta| times r's norm
            bound = np.bincount(block[live], (np.abs(factor) @ P_maj) * g.norms[live],
                                minlength=len(floor))
            live &= (bound > floor)[block]
            if not live.any():
                break
        return acc.truncate(g.order)
