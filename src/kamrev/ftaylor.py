"""Fourier-Taylor fields: Fourier in the angles, polynomial in phase variables.

A field F(x, w) = sum_alpha F_alpha(x) w^alpha is stored as a FourierSeries
is: int64 exponent rows ``A`` (M, q), int64 mode rows ``K`` (M, n) and
complex values ``V`` (M,) + shape, row i the coefficient of
w^A[i] exp(i<K[i], x>), unique and in lexicographic (alpha, k) order.  The
rows of a term F_alpha are contiguous; each term drops its own dust.  A
series is the case q = 0; both share ``_Rows``'s pruning, majorant and
``eval``, which takes a point (x, w) or stacks of them.

A product is one call of ``fourier._convolve`` over the key columns
[A | K].  A field is its Taylor jet through its degree, so pairs of total
degree above it touch no stored coefficient: they are dropped before the
sum, and the cut records no loss.  The rest are summed into their (alpha, k) slots.
``trunc_loss`` is the l1 mass dropped: the operands' losses, whole products
skipped under DROP_TOL, and the summed modes beyond the Fourier order.  The
series a field is built or lifted from bring no loss of their own, and the
series it hands out (``coeffs``, ``taylor0``, ``linear_w``) carry none.

The degree truncation is exact for compositions with maps that are affine
in w: degrees only ever add, so nothing of degree <= D is lost by also
truncating every intermediate at D.
"""
from __future__ import annotations

import math
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import ImplicitSolveFailure
from .fourier import (FourierSeries, _chain, _convolve, _matmul_pairs, _mul_pairs, _Rows, _runs,
                      _scatter, _union, fs_matmul)


def _unit(q, j):
    e = [0] * q
    e[j] = 1
    return tuple(e)


class FourierTaylor(_Rows):
    """Polynomial in w of degree <= ``degree`` with Fourier series coefficients.

    Build from a mapping ``terms`` (alpha -> FourierSeries; terms given
    beyond the degree, unlike a product's pairs beyond it, are dropped into
    ``trunc_loss``) or from arrays ``A``, ``K`` and
    ``V`` (unique rows in (alpha, k) order), which are taken as they are."""

    def __init__(self, n, q, shape, order, degree, terms=None, trunc_loss=0.0,
                 A=None, K=None, V=None):
        self.n, self.q, self.order, self.degree = int(n), int(q), int(order), int(degree)
        self.shape = tuple(int(s) for s in shape)
        self.trunc_loss = float(trunc_loss)
        if terms is not None or A is None:  # no arrays: the terms, or none
            A, K, V = self._stacked(terms or {})
        self.A = self._store(A, K, V)

    def _stacked(self, terms):
        rows = [(np.zeros((0, self.q), dtype=np.int64), np.zeros((0, self.n), dtype=np.int64),
                 np.zeros((0,) + self.shape, dtype=complex))]
        for alpha, s in sorted(((tuple(int(e) for e in a), s) for a, s in terms.items()),
                               key=lambda item: item[0]):
            if len(alpha) != self.q or any(e < 0 for e in alpha):
                raise ValueError(f"bad exponent {alpha} for q={self.q}")
            if sum(alpha) > self.degree:
                self.trunc_loss += s.majorant()
            elif s.shape != self.shape or s.n != self.n:
                raise ValueError(f"coefficient at {alpha}: shape {s.shape} != {self.shape}")
            else:
                rows.append((np.full((len(s.K), self.q), alpha, dtype=np.int64), s.K, s.V))
        return tuple(np.concatenate(x) for x in zip(*rows))

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_series(cls, s: FourierSeries, q, degree):
        """s as a field constant in w; s's own loss is not carried over."""
        return cls(s.n, q, s.shape, s.order, degree,
                   A=np.zeros((len(s.K), q), dtype=np.int64), K=s.K, V=s.V)

    def _on_rows(self, A, K, V):
        """Field like this one on the rows A, K with values V; the number of
        phase variables and the value shape are read off A and V."""
        return FourierTaylor(self.n, A.shape[1], V.shape[1:], self.order, self.degree,
                             trunc_loss=self.trunc_loss, A=A, K=K, V=V)

    def _from_keys(self, keys, V, order, degree, loss):
        """A field on the key rows ``keys`` = [A | K] with values V."""
        return FourierTaylor(self.n, self.q, V.shape[1:], order, degree, trunc_loss=loss,
                             A=keys[:, :self.q], K=keys[:, self.q:], V=V)

    def with_rows(self, A, K, V):
        """A field like this one on rows in any order; rows with equal
        (alpha, k) are summed, and q and the value shape are read off A and V."""
        q, shape = A.shape[1], V.shape[1:]
        keys, (slot,) = _union(np.concatenate([A, K], axis=1))
        sums = np.zeros((len(keys), 2 * math.prod(shape)))
        _scatter(sums, slot, V)
        out = sums.view(complex).reshape((len(keys),) + shape)
        return self._on_rows(keys[:, :q], keys[:, q:], out)

    # -- queries -----------------------------------------------------------------

    @cached_property
    def keys(self) -> np.ndarray:
        """Product keys of the stored rows: [A | K]."""
        return np.concatenate([self.A, self.K], axis=1)  # no np.hstack dispatch

    @cached_property
    def coeffs(self):
        """Read-only alpha -> coefficient series F_alpha of the stored terms,
        in exponent order, with no loss of their own."""
        starts = _runs(self.A)[1].tolist()
        return MappingProxyType({tuple(self.A[i].tolist()): FourierSeries(
            self.n, self.shape, self.order, K=self.K[i:j], V=self.V[i:j])
            for i, j in zip(starts, starts[1:] + [len(self.V)])})

    def taylor0(self) -> FourierSeries:
        """The degree-0 part, with no loss of its own."""
        rows = ~self.A.any(axis=1)
        return FourierSeries(self.n, self.shape, self.order, K=self.K[rows], V=self.V[rows])

    def linear_w(self) -> FourierSeries:
        """The degree-1 part as a (shape + (q,)) series of partial coefficients."""
        rows = self.A.sum(axis=1) == 1
        K, (slot,) = _union(self.K[rows])
        V = np.zeros((len(K),) + self.shape + (self.q,), dtype=complex)
        V[slot, ..., np.argmax(self.A[rows], axis=1)] = self.V[rows]
        return FourierSeries(self.n, V.shape[1:], self.order, K=K, V=V)

    # -- calculus ----------------------------------------------------------------

    def grad_w(self):
        """Jacobian in w: value shape becomes shape + (q,).  Row i of variable j
        becomes A[i, j] V[i] in column j at exponent A[i] - e_j."""
        M, q, unit = len(self.V), self.q, np.eye(self.q, dtype=np.int64)
        has = self.A > 0
        factor = (self.A[:, :, None] * unit).reshape((M, q) + (1,) * len(self.shape) + (q,))
        V = self.V.reshape((M, 1) + self.shape + (1,)) * factor
        K = np.broadcast_to(self.K[:, None], (M, q, self.n))
        return self.with_rows((self.A[:, None] - unit)[has], K[has], V[has])

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        entries = [{"alpha": list(a), "series": s.to_json()} for a, s in self.coeffs.items()]
        return {"n": self.n, "q": self.q, "shape": list(self.shape),
                "N": self.order, "D": self.degree, "terms": entries}

    @classmethod
    def from_json(cls, doc):
        terms = {tuple(int(e) for e in ent["alpha"]): FourierSeries.from_json(ent["series"])
                 for ent in doc["terms"]}
        return cls(int(doc["n"]), int(doc["q"]), tuple(doc["shape"]),
                   int(doc["N"]), int(doc["D"]), terms)

    def __repr__(self):
        return (f"FourierTaylor(n={self.n}, q={self.q}, shape={self.shape}, "
                f"order={self.order}, degree={self.degree}, terms={len(self.coeffs)})")


# -- products --------------------------------------------------------------------


def ft_mul(a: FourierTaylor, b: FourierTaylor) -> FourierTaylor:
    """Pointwise product with numpy broadcasting of the value shapes."""
    return _convolve(a, b, *_mul_pairs(a.shape, b.shape))


def ft_matmul(a: FourierTaylor, b: FourierTaylor) -> FourierTaylor:
    """Pointwise matrix product of the values."""
    return _convolve(a, b, *_matmul_pairs(a.shape, b.shape))


def ft_series_matmul(M: FourierSeries, F: FourierTaylor) -> FourierTaylor:
    """Left-multiply F by the w-independent (r,c) or (c,) series M, as
    ``fs_matmul`` multiplies values; M's loss is counted once."""
    lifted = FourierTaylor(M.n, F.q, M.shape, M.order, F.degree, trunc_loss=M.trunc_loss,
                           A=np.zeros((len(M.K), F.q), dtype=np.int64), K=M.K, V=M.V)
    return _convolve(lifted, F, *_matmul_pairs(M.shape, F.shape))


def ft_sum(fields):
    """The sum of equally shaped fields, their rows merged at once."""
    parts = [F for F in fields if len(F.V)] or fields[:1]
    out = parts[0]._like(parts[0].V) if len(parts) == 1 else parts[0].with_rows(
        *(np.concatenate([getattr(F, x) for F in parts]) for x in "AKV"))
    out.order, out.degree = max(F.order for F in fields), max(F.degree for F in fields)
    out.trunc_loss = sum(F.trunc_loss for F in fields)
    return out


# -- substitution of an affine change of phase variables ---------------------------


class WSubstitution:
    """Monomial table for the affine substitution w = W0(x) + W1(x) wbar.

    ``affine`` is the (q,)-valued field W0 + W1 wbar itself; its rows are
    the generators.  Monomials w^alpha become scalar Fourier-Taylor
    polynomials in wbar, built incrementally and memoized so that
    substituting into many fields with the same transform shares all the
    products.
    """

    def __init__(self, W0, W1: FourierSeries, degree):
        self.q = W1.shape[0]
        if W1.shape != (self.q, self.q):
            raise ValueError("W1 must be square")
        self.n = W1.n
        self.order = W1.order
        self.degree = int(degree)
        terms = {} if W0 is None else {(0,) * self.q: W0}
        for i in range(self.q):
            terms[_unit(self.q, i)] = W1.map_stack(lambda V, i=i: V[:, :, i])
        self.affine = FourierTaylor(self.n, self.q, (self.q,), self.order, self.degree, terms)
        self._gen = [self.affine.map_stack(lambda V, j=j: V[:, j]) for j in range(self.q)]
        one = FourierSeries.constant(self.n, np.array(1.0), self.order)
        self._mono = {(0,) * self.q: FourierTaylor.from_series(one, self.q, self.degree)}

    def monomial(self, alpha) -> FourierTaylor:
        return _chain(self._mono, alpha, lambda p, j: ft_mul(p, self._gen[j]))

    def apply(self, F: FourierTaylor) -> FourierTaylor:
        """Substitute into F; the loss is F's and the products'."""
        terms = [FourierTaylor(F.n, self.q, F.shape, max(F.order, self.order), self.degree,
                               trunc_loss=F.trunc_loss)]
        for alpha, s in F.coeffs.items():
            terms.append(ft_mul(FourierTaylor.from_series(s, self.q, self.degree),
                                self.monomial(alpha)))
        return ft_sum(terms)


def involution_pullback(F: FourierTaylor, S) -> FourierTaylor:
    """Pullback of F under (x, w) -> (-x, S w) for a constant linear S."""
    W1 = FourierSeries.constant(F.n, np.asarray(S, dtype=float), F.order)
    sub = WSubstitution(None, W1, F.degree)
    return sub.apply(F.reflect())


# -- small implicit solves -----------------------------------------------------------

NEUMANN_TOL = 1e-15  # stop at a change <= this * maj(rhs), above its rounding floor (2.5e-16)
NEUMANN_MAX_ITER = 400


def fs_neumann_solve(M: FourierSeries, rhs: FourierSeries):
    """Solve (I + M(x)) u(x) = rhs(x) by fixed point; M must be a contraction.

    The result carries the losses of M and rhs once, plus the Fourier tail
    the last product dropped: earlier iterates are discarded, and the fixed
    point of the truncated map misses the exact one by (I + M)^{-1} applied
    to that tail."""
    u = rhs
    scale = rhs.majorant() + 1e-300
    for _ in range(NEUMANN_MAX_ITER):
        prod = fs_matmul(M, u)
        nxt = rhs - prod
        nxt.trunc_loss = rhs.trunc_loss + M.trunc_loss + max(
            prod.trunc_loss - M.trunc_loss - u.trunc_loss, 0.0)
        delta = (nxt - u).majorant()
        u = nxt
        if delta <= NEUMANN_TOL * scale:
            return u
    raise ImplicitSolveFailure(f"Neumann iteration stalled: last change {delta:.3e}")


def ft_neumann_solve(M: FourierSeries, rhs: FourierTaylor):
    """Solve (I + M(x)) u(x, w) = rhs(x, w) termwise in w.

    M does not depend on w, so (I + M)^{-1} is found once, by the Neumann
    iteration on the identity, and then applied to every term."""
    if not len(rhs.V):
        return rhs
    eye = FourierSeries.constant(M.n, np.eye(M.shape[0]), rhs.order)
    inv = fs_neumann_solve(M, eye)
    return ft_series_matmul(inv, rhs)
