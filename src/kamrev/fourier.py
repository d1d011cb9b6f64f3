"""Truncated Fourier series on the n-torus with vector or matrix values.

A series keeps its stored modes in two arrays: ``K``, an int64 ``(M, n)``
array of multi-indices in strictly increasing lexicographic order, and
``V``, a complex ``(M,) + shape`` array whose row i is the coefficient of
exp(i<K[i], x>).  Coefficients below ``PRUNE_TOL`` are never stored.  Every
operation is a fixed handful of numpy expressions over the two arrays; the
``coeffs`` property is a read-only k -> array view for callers that think
in single modes.

Reality of the represented function is an invariant: the coefficient at -k
is the complex conjugate of the coefficient at k for every stored k.  All
arithmetic preserves the invariant exactly because complex multiplication
commutes with conjugation flop for flop.

Products are sparse convolutions over the stored modes.  Because the rows
are always in lexicographic order, a product meets its mode pairs in one
fixed order and sums coinciding output modes with ``np.add.at`` in that
order, so its mode set and coefficients are bit for bit those of a
mode-by-mode product over the sorted modes, whatever built the operands.
No grid transforms are used.

``_l1_ball`` is the one enumerator of integer vectors by l1 radius: the
angle shift takes its Taylor exponents of each degree from it, and
``diophantine`` its divisor-scan modes and normal shifts.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property, lru_cache

import numpy as np

from .errors import ImaginaryResidue

# Coefficients below this magnitude are pruned outright.
PRUNE_TOL = 1e-30
# Whole products whose majorant bound falls below this are skipped.  This
# sits eight orders of magnitude under the tightest stated tolerance.
DROP_TOL = 1e-20
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


def _codes(K, span) -> np.ndarray:
    """Integer codes of the rows of K (entries within +-span), increasing in
    lexicographic order, so that sorting and merging modes are 1-d."""
    base = 2 * span + 1
    if base ** K.shape[1] < 2 ** 62:
        return (K + span) @ (base ** np.arange(K.shape[1] - 1, -1, -1, dtype=np.int64))
    return np.unique(K, axis=0, return_inverse=True)[1].ravel()  # pragma: no cover


@lru_cache(maxsize=64)
def _l1_ball(n: int, radius: int) -> np.ndarray:
    """All integer vectors of length n with |k|_1 <= radius, in lexicographic
    order: each prefix in order, then the next entry ascending.  Cached, so
    the array is read-only."""
    rows = [((), radius)]
    for _ in range(n):
        rows = [(row + (c,), left - abs(c)) for row, left in rows
                for c in range(-left, left + 1)]
    ball = np.array([row for row, _ in rows], dtype=np.int64).reshape(len(rows), n)
    ball.flags.writeable = False
    return ball


def _union(*Ks):
    """Sorted union of mode arrays, and the union row each input row lands on."""
    cat = np.concatenate(Ks)
    span = int(np.abs(cat).max()) if cat.size else 0
    _, first, inv = np.unique(_codes(cat, span), return_index=True, return_inverse=True)
    return cat[first], np.split(np.ravel(inv), np.cumsum([len(K) for K in Ks[:-1]]))


class _ModeView(Mapping):
    """Read-only k -> coefficient view of a series' arrays."""

    def __init__(self, s):
        self._s = s

    def __len__(self):
        return len(self._s.K)

    def __iter__(self):
        return iter(map(tuple, self._s.K.tolist()))

    @cached_property
    def _rows(self):
        return {k: i for i, k in enumerate(self)}

    def __getitem__(self, k):
        return self._s.V[self._rows[tuple(int(c) for c in k)]]


class FourierSeries:
    """Sparse truncated Fourier series sum_k c_k exp(i<k, x>) on T^n.

    Coefficients c_k are complex numpy arrays of a common ``shape``:
    ``(d,)`` for a map into R^d, ``(r, c)`` for matrix-valued series.
    ``order`` is the truncation order; modes with |k| > order are not
    representable and binary operations drop them, recording the dropped
    l1 mass in ``trunc_loss``.

    Build from a mapping ``coeffs`` (k -> array; modes, shapes, order and
    reality are checked) or from arrays ``K`` (unique rows in lexicographic
    order) and ``V``, which are taken as they are.  Either way coefficients
    below ``PRUNE_TOL`` are pruned.
    """

    def __init__(self, n, shape, order, coeffs=None, trunc_loss=0.0, K=None, V=None):
        self.n = int(n)
        self.shape = tuple(int(s) for s in shape)
        self.order = int(order)
        self.trunc_loss = float(trunc_loss)
        self._majorant = None
        if coeffs is not None:
            K, V = self._checked_arrays(coeffs)
        elif K is None:
            K = np.zeros((0, self.n), dtype=np.int64)
            V = np.zeros((0,) + self.shape, dtype=complex)
        norms = _norms(V)
        dead = norms < PRUNE_TOL
        if dead.any():
            K, V, norms = K[~dead], V[~dead], norms[~dead]
        self.K, self.V, self.norms = K, V, norms
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
    def zero(cls, n, shape, order):
        return cls(n, shape, order)

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

    @classmethod
    def sine(cls, n, k, value, order):
        """value * sin(<k, x>)."""
        value = np.asarray(value, dtype=complex)
        k = tuple(int(c) for c in k)
        mk = tuple(-c for c in k)
        if k == mk:
            return cls.zero(n, value.shape, order)
        return cls(n, value.shape, order, {k: -0.5j * value, mk: 0.5j * value})

    def _check_reality(self, tol=1e-12):
        scale = self.majorant()
        if scale == 0.0:
            return
        M = len(self.K)
        span = int(np.abs(self.K).max())
        codes = _codes(np.concatenate([self.K, -self.K]), span)
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
        """Read-only k -> coefficient view of the stored modes."""
        return _ModeView(self)

    def majorant(self) -> float:
        """l1 coefficient norm: an upper bound for sup |f| on the real torus."""
        if self._majorant is None:
            self._majorant = float(self.norms.sum())
        return self._majorant

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

    def eval(self, x):
        """Evaluate at a point x of the torus; the result must be real."""
        x = np.asarray(x, dtype=float)
        if len(self.K) == 0:
            return np.zeros(self.shape)
        phases = np.exp(1j * (self.K @ x))
        out = np.tensordot(phases, self.V, axes=([0], [0]))
        mag = self.majorant()
        resid = float(np.max(np.abs(out.imag))) if out.size else 0.0
        if resid > 1e-10 * mag:
            raise ImaginaryResidue(f"imaginary residue {resid:.3e} exceeds 1e-10 * {mag:.3e}")
        return out.real

    # -- linear operations -----------------------------------------------------

    def _like(self, V, K=None, order=None, loss=0.0):
        """Series on the modes K (default: these) with values V, whose value
        shape is read off V."""
        return FourierSeries(self.n, V.shape[1:], self.order if order is None else order,
                             trunc_loss=self.trunc_loss + loss,
                             K=self.K if K is None else K, V=V)

    def _scaled(self, factors):
        """V with row i multiplied by factors[i]."""
        return self.V * factors.reshape((-1,) + (1,) * len(self.shape))

    def __add__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        if other.n != self.n or other.shape != self.shape:
            raise ValueError("series mismatch in + ")
        if len(self.K) == len(other.K) and np.array_equal(self.K, other.K):
            K, V = self.K, self.V + other.V
        else:
            K, (rows_a, rows_b) = _union(self.K, other.K)
            V = np.zeros((len(K),) + self.shape, dtype=complex)
            V[rows_a] = self.V
            V[rows_b] += other.V
        return self._like(V, K=K, order=max(self.order, other.order), loss=other.trunc_loss)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like(-self.V)

    def __mul__(self, scalar):
        if isinstance(scalar, FourierSeries):
            return NotImplemented
        s = complex(scalar)
        if s.imag == 0.0:
            s = s.real
        return self._like(self.V * s)

    __rmul__ = __mul__

    def truncate(self, order):
        """Drop modes beyond ``order``, recording the dropped l1 mass."""
        order = int(order)
        if order == self.order:
            return self
        keep = np.abs(self.K).sum(axis=1) <= order
        return self._like(self.V[keep], K=self.K[keep], order=order,
                          loss=float(self.norms[~keep].sum()))

    # -- calculus and symmetry -------------------------------------------------

    def directional_derivative(self, omega):
        """Coefficientwise map c_k -> i <k, omega> c_k (derivative along the flow)."""
        return self._like(self._scaled(1j * (self.K @ np.asarray(omega, dtype=float))))

    def deriv_x(self, j):
        """Partial derivative in the j-th angle: c_k -> i k_j c_k."""
        return self._like(self._scaled(1j * self.K[:, j]))

    def reflect(self):
        """Pullback under x -> -x; by reality this conjugates coefficients."""
        return self._like(np.conj(self.V))

    def phase_shift(self, alpha):
        """Pullback under x -> x + alpha for a constant alpha."""
        return self._like(self._scaled(np.exp(1j * (self.K @ np.asarray(alpha, dtype=float)))))

    def parity_decompose(self):
        """Split into the even part and the odd part in x.

        Even coefficients are Re c_k, odd ones i Im c_k; the two parts sum
        back to the series exactly.
        """
        return self._like(np.real(self.V).astype(complex)), self._like(1j * np.imag(self.V))

    def map_stack(self, fn):
        """Apply ``fn`` to the stacked coefficients V (modes on axis 0).

        ``fn`` must be linear and real and act on the value axes only, e.g.
        ``lambda V: V[:, :m]``; the value shape is read off its output."""
        return self._like(fn(self.V))

    def map_values(self, fn, shape=None):
        """Apply ``fn`` to every coefficient array (must be linear and real)."""
        shape = self.shape if shape is None else tuple(shape)
        return self.map_stack(lambda V: np.array([fn(v) for v in V], dtype=complex)
                              .reshape((len(V),) + shape))

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


def _convolve(a: FourierSeries, b: FourierSeries, vcombine, out_shape):
    """Sparse convolution of stored modes with a vectorized value combiner."""
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
    _, first, inv = np.unique(_codes(keys, span), return_index=True, return_inverse=True)
    K = keys[first]
    V = np.zeros((len(K),) + out_shape, dtype=complex)
    np.add.at(V, np.ravel(inv), vals)
    over = np.abs(K).sum(axis=1) > order
    if over.any():
        dropped = _norms(V[over])
        loss += float(dropped[dropped >= PRUNE_TOL].sum())
        K, V = K[~over], V[~over]
    return FourierSeries(a.n, out_shape, order, trunc_loss=loss, K=K, V=V)


def fs_mul(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    """Pointwise product with numpy broadcasting of the value shapes."""
    out_shape = np.broadcast_shapes(a.shape, b.shape)
    r = len(out_shape)

    def combine(Va, Vb):
        sa = (len(Va), 1) + (1,) * (r - len(a.shape)) + a.shape
        sb = (1, len(Vb)) + (1,) * (r - len(b.shape)) + b.shape
        return Va.reshape(sa) * Vb.reshape(sb)

    return _convolve(a, b, combine, out_shape)


def fs_matmul(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    """Pointwise matrix product: (r,c) @ (c,) or (r,c) @ (c,e)."""
    out_shape = np.matmul(np.zeros(a.shape), np.zeros(b.shape)).shape

    def combine(Va, Vb):
        # stacked coefficients: 1-D value shapes need explicit matrix axes,
        # else matmul reads the stack axis as a matrix dimension
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

    return _convolve(a, b, combine, out_shape)


def fs_stack(series, axis=0):
    """Stack equally shaped series along a new value axis (like np.stack)."""
    series = list(series)
    first = series[0]
    if all(len(s.K) == len(first.K) and np.array_equal(s.K, first.K) for s in series):
        K, parts = first.K, [s.V for s in series]
    else:
        K, rows = _union(*(s.K for s in series))
        parts = []
        for s, r in zip(series, rows):
            part = np.zeros((len(K),) + first.shape, dtype=complex)
            part[r] = s.V
            parts.append(part)
    V = np.stack(parts, axis=axis + 1 if axis >= 0 else axis)
    return FourierSeries(first.n, V.shape[1:], max(s.order for s in series),
                         trunc_loss=sum(s.trunc_loss for s in series), K=K, V=V)


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
    """Composition operator g(x) -> g(x + a(x)) shared across many series.

    ``a`` is a small (n,)-valued series.  The composition is the Taylor
    expansion g(x + a) = sum_beta d^beta g(x) a(x)^beta / beta!, truncated
    once a layer's majorant falls below SHIFT_TOL relative to the operand
    (or at degree SHIFT_MAX_DEGREE).  Powers of a are memoized so the
    expansion is shared by every series composed with the same shift; the
    derivatives of g are memoized within one composition.
    """

    def __init__(self, a: FourierSeries):
        if a.shape != (a.n,):
            raise ValueError("angle shift needs an (n,)-valued series")
        self.n = a.n
        self.trivial = a.majorant() == 0.0
        one = FourierSeries.constant(a.n, np.array(1.0 + 0j), a.order)
        self._pow = {(0,) * a.n: one}
        self._comp = [a.map_stack(lambda V, j=j: V[:, j]) for j in range(a.n)]

    def _power(self, beta):
        return _chain(self._pow, beta, lambda p, j: fs_mul(p, self._comp[j]))

    def apply(self, s: FourierSeries) -> FourierSeries:
        if self.trivial or not len(s.K):
            return s
        scale = s.majorant() + 1e-300
        derivs = {(0,) * self.n: s}
        acc = s
        for degree in range(1, SHIFT_MAX_DEGREE + 1):
            layer_mag = 0.0
            ball = _l1_ball(self.n, degree)
            for beta in map(tuple, ball[(ball >= 0).all(axis=1)
                                        & (ball.sum(axis=1) == degree)].tolist()):
                p = self._power(beta)
                if p.majorant() == 0.0:
                    continue
                ds = _chain(derivs, beta, lambda d, j: d.deriv_x(j))
                term = fs_mul(p, ds) * (1.0 / math.prod(map(math.factorial, beta)))
                layer_mag += term.majorant()
                acc = acc + term
            if layer_mag <= SHIFT_TOL * scale:
                break
        return acc.truncate(s.order)

