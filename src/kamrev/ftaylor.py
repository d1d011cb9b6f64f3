"""Fourier-Taylor fields: Fourier in the angles, polynomial in phase variables.

A field F(x, w) = sum_alpha F_alpha(x) w^alpha is stored as a sparse map
from exponent tuples alpha (length q, total degree <= degree) to Fourier
series coefficients F_alpha.  Products truncate both the Taylor degree and
the Fourier order, recording dropped l1 mass in ``trunc_loss``.

The degree truncation is exact for compositions with maps that are affine
in w: degrees only ever add, so nothing of degree <= D is lost by also
truncating every intermediate at D.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ImaginaryResidue, ImplicitSolveFailure
from .fourier import FourierSeries, _chain, _union, fs_matmul, fs_mul, fs_stack


def _exp_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _unit(q, j):
    e = [0] * q
    e[j] = 1
    return tuple(e)


class FourierTaylor:
    """Polynomial in w of degree <= ``degree`` with FourierSeries coefficients."""

    def __init__(self, n, q, shape, order, degree, terms, trunc_loss=0.0):
        self.n = int(n)
        self.q = int(q)
        self.shape = tuple(shape)
        self.order = int(order)
        self.degree = int(degree)
        self.trunc_loss = float(trunc_loss)
        clean = {}
        for alpha, s in terms.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != self.q or any(e < 0 for e in alpha):
                raise ValueError(f"bad exponent {alpha} for q={self.q}")
            if sum(alpha) > self.degree:
                self.trunc_loss += s.majorant()
                continue
            if s.shape != self.shape or s.n != self.n:
                raise ValueError(f"coefficient at {alpha}: shape {s.shape} != {self.shape}")
            if len(s.K):
                clean[alpha] = s
        self.terms = clean

    # -- construction ----------------------------------------------------------

    @classmethod
    def zero(cls, n, q, shape, order, degree):
        return cls(n, q, shape, order, degree, {})

    @classmethod
    def from_series(cls, s: FourierSeries, q, degree):
        return cls(s.n, q, s.shape, s.order, degree, {(0,) * q: s})

    @classmethod
    def build(cls, n, q, order, degree, entries, shape=None):
        """entries: alpha -> FourierSeries | array (constant in x)."""
        terms = {}
        for alpha, v in entries.items():
            if isinstance(v, FourierSeries):
                terms[alpha] = v
            else:
                terms[alpha] = FourierSeries.constant(n, np.asarray(v, dtype=float), order)
        if shape is None:
            shape = next(iter(terms.values())).shape
        return cls(n, q, shape, order, degree, terms)

    def _like(self, terms, shape=None):
        return FourierTaylor(self.n, self.q, self.shape if shape is None else shape,
                             self.order, self.degree, terms, trunc_loss=self.trunc_loss)

    # -- linear structure --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FourierTaylor):
            return NotImplemented
        if (other.n, other.q, other.shape) != (self.n, self.q, self.shape):
            raise ValueError("field mismatch in +")
        out = dict(self.terms)
        for alpha, s in other.terms.items():
            t = out.get(alpha)
            out[alpha] = s if t is None else t + s
        out = {a: s for a, s in out.items() if len(s.K)}
        return FourierTaylor(self.n, self.q, self.shape, max(self.order, other.order),
                             max(self.degree, other.degree), out,
                             trunc_loss=self.trunc_loss + other.trunc_loss)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({a: -s for a, s in self.terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, FourierTaylor):
            return NotImplemented
        return self._like({a: s * scalar for a, s in self.terms.items()})

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------------------

    def majorant(self) -> float:
        """Bound for sup |F| over the real torus times the unit polydisc in w."""
        return float(sum(s.majorant() for s in self.terms.values()))

    def taylor0(self) -> FourierSeries:
        s = self.terms.get((0,) * self.q)
        if s is None:
            return FourierSeries.zero(self.n, self.shape, self.order)
        return s

    def linear_w(self) -> FourierSeries:
        """The degree-1 part as a (shape + (q,)) series of partial coefficients."""
        zero = FourierSeries.zero(self.n, self.shape, self.order)
        cols = [self.terms.get(_unit(self.q, j), zero) for j in range(self.q)]
        return fs_stack(cols, axis=-1)

    @cached_property
    def _evaluator(self):
        """Built on first use: the union K (M, n) of the terms' modes, the
        coefficients C (M, terms, values) on it, the exponents E (terms, q)
        and 1e-10 times each term's majorant per value component."""
        series = list(self.terms.values())
        K, rows = _union(*(s.K for s in series))
        C = np.zeros((len(K), len(series), math.prod(self.shape)), dtype=complex)
        for t, (s, r) in enumerate(zip(series, rows)):
            C[r, t] = s.V.reshape(len(s.K), -1)
        E = np.array(list(self.terms), dtype=np.int64).reshape(len(series), self.q)
        return K, C, E, 1e-10 * np.abs(C).sum(axis=0)

    def eval(self, x, w):
        """Value at one point (x, w): sum over the terms of F_alpha(x) w^alpha.

        Compiled once, on the first call, into ``_evaluator``; a call is then
        one set of phases exp(i<k, x>), one contraction to a value per term
        and one monomial-weighted sum.  Every term must be real at x: the
        imaginary part of each of its value components may not exceed 1e-10
        times that component's majorant in that term.  That is at least as
        strict as a check per term, and stays so in the fused x and w rows
        of ``InstantiatedField``."""
        if not self.terms:
            return np.zeros(self.shape)
        K, C, E, limits = self._evaluator
        phases = np.exp(1j * np.einsum("j,mj->m", np.asarray(x, dtype=float), K))
        out = np.einsum("m,mtp->tp", phases, C)
        resid = np.abs(out.imag)
        bad = resid > limits
        if bad.any():
            t, p = np.unravel_index(np.argmax(bad), bad.shape)
            raise ImaginaryResidue(
                f"imaginary residue {resid[t, p]:.3e} of term {tuple(E[t].tolist())}, "
                f"component {p}, exceeds {limits[t, p]:.3e} (1e-10 times its majorant)")
        mono = (np.asarray(w, dtype=float) ** E).prod(axis=1)
        return (mono @ out.real).reshape(self.shape)

    # -- calculus ----------------------------------------------------------------

    def deriv_w(self, j):
        out = {}
        for alpha, s in self.terms.items():
            if alpha[j] == 0:
                continue
            beta = list(alpha)
            beta[j] -= 1
            out[tuple(beta)] = s * alpha[j]
        return self._like(out)

    def grad_x(self):
        """Jacobian in the angles: value shape becomes shape + (n,)."""
        out = {a: fs_stack([s.deriv_x(j) for j in range(self.n)], axis=-1)
               for a, s in self.terms.items()}
        return self._like(out, shape=self.shape + (self.n,))

    def grad_w(self):
        """Jacobian in w: value shape becomes shape + (q,)."""
        zero = FourierSeries.zero(self.n, self.shape, self.order)
        betas = set()
        for alpha in self.terms:
            for j in range(self.q):
                if alpha[j] > 0:
                    b = list(alpha)
                    b[j] -= 1
                    betas.add(tuple(b))
        out = {}
        for beta in betas:
            cols = []
            for j in range(self.q):
                alpha = _exp_add(beta, _unit(self.q, j))
                s = self.terms.get(alpha)
                cols.append(zero if s is None else s * alpha[j])
            out[beta] = fs_stack(cols, axis=-1)
        return self._like(out, shape=self.shape + (self.q,))

    # -- structure maps ------------------------------------------------------------

    def map_stack(self, fn):
        """Apply ``fn`` to the stacked coefficients of every term, as
        ``FourierSeries.map_stack`` does; the value shape is read off its output."""
        shape = fn(np.zeros((0,) + self.shape, dtype=complex)).shape[1:]
        return self._like({a: s.map_stack(fn) for a, s in self.terms.items()}, shape=shape)

    def map_values(self, fn, shape):
        """Apply a linear value-space map to every coefficient array."""
        return FourierTaylor(self.n, self.q, tuple(shape), self.order, self.degree,
                             {a: s.map_values(fn, shape=shape) for a, s in self.terms.items()},
                             trunc_loss=self.trunc_loss)

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        entries = [{"alpha": list(a), "series": s.to_json()}
                   for a, s in sorted(self.terms.items())]
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
                f"order={self.order}, degree={self.degree}, terms={len(self.terms)})")


# -- products --------------------------------------------------------------------


def _ft_product(a: FourierTaylor, b: FourierTaylor, series_op, out_shape):
    if (a.n, a.q) != (b.n, b.q):
        raise ValueError("field mismatch in product")
    degree = max(a.degree, b.degree)
    order = max(a.order, b.order)
    acc = {}
    loss = a.trunc_loss + b.trunc_loss
    for alpha, sa in a.terms.items():
        da = sum(alpha)
        for beta, sb in b.terms.items():
            if da + sum(beta) > degree:
                loss += sa.majorant() * sb.majorant()
                continue
            gamma = _exp_add(alpha, beta)
            prod = series_op(sa, sb)
            loss += prod.trunc_loss - sa.trunc_loss - sb.trunc_loss
            got = acc.get(gamma)
            acc[gamma] = prod if got is None else got + prod
    acc = {g: s for g, s in acc.items() if len(s.K)}
    return FourierTaylor(a.n, a.q, out_shape, order, degree, acc, trunc_loss=max(loss, 0.0))


def ft_mul(a: FourierTaylor, b: FourierTaylor) -> FourierTaylor:
    out_shape = np.broadcast_shapes(a.shape, b.shape)
    return _ft_product(a, b, fs_mul, out_shape)


def ft_matmul(a: FourierTaylor, b: FourierTaylor) -> FourierTaylor:
    out_shape = np.matmul(np.zeros(a.shape), np.zeros(b.shape)).shape
    return _ft_product(a, b, fs_matmul, out_shape)


def ft_series_matmul(M: FourierSeries, F: FourierTaylor) -> FourierTaylor:
    """Left-multiply every term of F by the w-independent matrix series M."""
    out_shape = np.matmul(np.zeros(M.shape), np.zeros(F.shape)).shape
    terms = {}
    loss = F.trunc_loss + M.trunc_loss
    for alpha, s in F.terms.items():
        prod = fs_matmul(M, s)
        loss += prod.trunc_loss - M.trunc_loss - s.trunc_loss
        terms[alpha] = prod
    return FourierTaylor(F.n, F.q, out_shape, max(M.order, F.order), F.degree,
                         terms, trunc_loss=max(loss, 0.0))


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

    def apply(self, F: FourierTaylor, coeff_map=None) -> FourierTaylor:
        """Substitute into F; ``coeff_map`` transforms each coefficient series first
        (angle shift or reflection), applied before the w-substitution."""
        out = FourierTaylor.zero(F.n, self.q, F.shape, max(F.order, self.order), self.degree)
        for alpha, s in F.terms.items():
            c = s if coeff_map is None else coeff_map(s)
            if not len(c.K):
                continue
            lifted = FourierTaylor.from_series(c, self.q, self.degree)
            out = out + ft_mul(lifted, self.monomial(alpha))
        return out


def involution_pullback(F: FourierTaylor, S) -> FourierTaylor:
    """Pullback of F under (x, w) -> (-x, S w) for a constant linear S."""
    W1 = FourierSeries.constant(F.n, np.asarray(S, dtype=float), F.order)
    sub = WSubstitution(None, W1, F.degree)
    return sub.apply(F, coeff_map=lambda s: s.reflect())


# -- small implicit solves -----------------------------------------------------------


def fs_neumann_solve(M: FourierSeries, rhs: FourierSeries, tol=1e-16, max_iter=400):
    """Solve (I + M(x)) u(x) = rhs(x) by fixed point; M must be a contraction.

    The result carries the losses of M and rhs once, plus the Fourier tail
    the last product dropped: earlier iterates are discarded, and the fixed
    point of the truncated map misses the exact one by (I + M)^{-1} applied
    to that tail."""
    u = rhs
    scale = rhs.majorant() + 1e-300
    for _ in range(max_iter):
        prod = fs_matmul(M, u)
        nxt = rhs - prod
        nxt.trunc_loss = rhs.trunc_loss + M.trunc_loss + max(
            prod.trunc_loss - M.trunc_loss - u.trunc_loss, 0.0)
        delta = (nxt - u).majorant()
        u = nxt
        if delta <= tol * scale:
            return u
    raise ImplicitSolveFailure(f"Neumann iteration stalled: last change {delta:.3e}")


def ft_neumann_solve(M: FourierSeries, rhs: FourierTaylor):
    """Solve (I + M(x)) u(x, w) = rhs(x, w) termwise in w.

    M does not depend on w, so (I + M)^{-1} is found once, by the Neumann
    iteration on the identity, and then applied to every term."""
    if not rhs.terms:
        return rhs
    eye = FourierSeries.constant(M.n, np.eye(M.shape[0]), rhs.order)
    inv = fs_neumann_solve(M, eye)
    return ft_series_matmul(inv, rhs)
