"""Linear algebra of involutions and infinitesimally reversible matrices.

An involution R splits R^N into Fix R and Fix(-R).  Matrices anti-commuting
with R (``gl_minus``) are the linear parts of reversible systems; matrices
commuting with R (``gl_plus``) generate the symmetry-preserving conjugations.
Everything here is dense; dimensions stay small in all experiments.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NotAntiInvariant, NotInvolutive, Obstruction

RANK_RTOL = 1e-9


def _norm(a) -> float:
    return float(np.linalg.norm(a))


class InvolutionStructure:
    """An involution R together with orthonormal bases of its eigenspaces."""

    def __init__(self, R):
        R = np.asarray(R, dtype=float)
        N = R.shape[0]
        if R.shape != (N, N):
            raise ValueError("R must be square")
        err = _norm(R @ R - np.eye(N))
        if err > 1e-8 * max(1.0, _norm(R)):
            raise NotInvolutive(f"R^2 - I has norm {err:.3e}")
        self.R = R
        self.dim = N
        # Projectors (I +- R)/2 are idempotent; their column spaces are the
        # eigenspaces even when R is not symmetric.
        if N == 0:
            self.fix_plus = np.zeros((0, 0))
            self.fix_minus = np.zeros((0, 0))
            return
        self.fix_plus = scipy.linalg.orth(0.5 * (np.eye(N) + R), rcond=1e-10)
        self.fix_minus = scipy.linalg.orth(0.5 * (np.eye(N) - R), rcond=1e-10)
        if self.fix_plus.shape[1] + self.fix_minus.shape[1] != N:
            raise NotInvolutive("eigenspace dimensions do not add up to N")

    @property
    def dim_plus(self) -> int:
        return self.fix_plus.shape[1]

    @property
    def dim_minus(self) -> int:
        return self.fix_minus.shape[1]

    def in_fix_plus(self, v, tol=1e-10) -> bool:
        v = np.asarray(v, dtype=float)
        return _norm(self.R @ v - v) <= tol * (1.0 + _norm(v))

    def in_fix_minus(self, v, tol=1e-10) -> bool:
        v = np.asarray(v, dtype=float)
        return _norm(self.R @ v + v) <= tol * (1.0 + _norm(v))

    def gl_minus_dim(self) -> int:
        return 2 * self.dim_plus * self.dim_minus

    def _conjugating_frame(self):
        U = np.hstack([self.fix_plus, self.fix_minus])
        return U, np.linalg.inv(U)

    def gl_minus_basis(self):
        """Basis of the matrices anti-commuting with R."""
        U, Uinv = self._conjugating_frame()
        dp, dm = self.dim_plus, self.dim_minus
        out = []
        for i in range(dp):
            for j in range(dm):
                E = np.zeros((self.dim, self.dim))
                E[i, dp + j] = 1.0
                out.append(U @ E @ Uinv)
                E = np.zeros((self.dim, self.dim))
                E[dp + j, i] = 1.0
                out.append(U @ E @ Uinv)
        return out

    def gl_plus_basis(self):
        """Basis of the matrices commuting with R."""
        U, Uinv = self._conjugating_frame()
        dp, dm = self.dim_plus, self.dim_minus
        out = []
        for i in range(dp):
            for j in range(dp):
                E = np.zeros((self.dim, self.dim))
                E[i, j] = 1.0
                out.append(U @ E @ Uinv)
        for i in range(dm):
            for j in range(dm):
                E = np.zeros((self.dim, self.dim))
                E[dp + i, dp + j] = 1.0
                out.append(U @ E @ Uinv)
        return out


def fix_spaces(R) -> InvolutionStructure:
    return InvolutionStructure(R)


class RevMatrix:
    """A matrix Q anti-commuting with the involution of ``inv``."""

    def __init__(self, Q, inv: InvolutionStructure, check=True):
        Q = np.asarray(Q, dtype=float)
        if Q.shape != (inv.dim, inv.dim):
            raise ValueError("Q has wrong shape for the involution")
        if check:
            err = _norm(inv.R @ Q + Q @ inv.R)
            if err > 1e-12 * max(1.0, _norm(Q)):
                raise NotAntiInvariant(f"RQ + QR has norm {err:.3e}")
        self.Q = Q
        self.inv = inv

    @property
    def dim(self) -> int:
        return self.inv.dim

    def __repr__(self):
        return f"RevMatrix(dim={self.dim})"


@dataclass
class Unfolding:
    """A matrix family mu -> Q(mu) through ``base`` with the given velocity
    directions dQ/dmu_j at mu = 0; each direction must anti-commute with R."""
    base: RevMatrix
    directions: list = field(default_factory=list)

    def __post_init__(self):
        R = self.base.inv.R
        for D in self.directions:
            D = np.asarray(D, dtype=float)
            err = _norm(R @ D + D @ R)
            if err > 1e-10 * max(1.0, _norm(D)):
                raise NotAntiInvariant(f"unfolding direction violates anti-commutation by {err:.3e}")


@dataclass
class KernelReport:
    ok: bool
    violation: np.ndarray | None
    epimorphism: bool
    kernel_dim: int


def kernel_condition(Q: RevMatrix, rtol=RANK_RTOL) -> KernelReport:
    """Check ker Q intersects Fix R trivially; equivalently Q: Fix R -> Fix(-R) onto."""
    inv = Q.inv
    N = inv.dim
    U, s, Vt = np.linalg.svd(Q.Q)
    smax = s[0] if len(s) else 0.0
    ker = Vt[s <= rtol * max(smax, 1e-300)].T if len(s) else np.eye(N)
    if smax == 0.0:
        ker = np.eye(N)
    kdim = ker.shape[1]
    # Onto-ness of the restriction, computed independently of the kernel.
    restricted = Q.Q @ inv.fix_plus
    rank_restricted = np.linalg.matrix_rank(restricted, tol=rtol * max(smax, 1.0))
    epi = rank_restricted == inv.dim_minus
    if kdim == 0:
        return KernelReport(True, None, epi, 0)
    # Intersection of span(ker) with span(fix_plus): nontrivial iff the stacked
    # system ker a = fix_plus b has a nonzero solution.
    C = np.hstack([ker, -inv.fix_plus])
    null = scipy.linalg.null_space(C, rcond=rtol)
    for col in null.T:
        v = ker @ col[:kdim]
        if _norm(v) > rtol * 10:
            return KernelReport(False, v / _norm(v), epi, kdim)
    return KernelReport(True, None, epi, kdim)


def solve_fix_range(Q: RevMatrix, psi, tol=1e-10):
    """Solve Q delta = -psi with delta in Fix R, psi in Fix(-R).

    Minimal-norm solution in the Fix R coordinates; raises Obstruction when
    psi is not in the range of the restricted map.
    """
    inv = Q.inv
    psi = np.asarray(psi, dtype=float)
    if not inv.in_fix_minus(psi, tol=tol):
        raise NotAntiInvariant("right-hand side is not in Fix(-R)")
    A = Q.Q @ inv.fix_plus
    c, *_ = np.linalg.lstsq(A, -psi, rcond=None)
    delta = inv.fix_plus @ c
    resid = _norm(Q.Q @ delta + psi)
    if resid > tol * (1.0 + _norm(psi)):
        raise Obstruction(resid, "right-hand side outside the range of Q restricted to Fix R")
    return delta


def orbit_tangent(Q: RevMatrix, rtol=RANK_RTOL):
    """Tangent space of the conjugation orbit: {AQ - QA : A commutes with R}.

    Returns (orthonormal basis matrices of the image, codim inside gl_minus).
    """
    inv = Q.inv
    plus = inv.gl_plus_basis()
    cols = np.stack([(A @ Q.Q - Q.Q @ A).ravel() for A in plus], axis=1)
    U, s, _ = np.linalg.svd(cols, full_matrices=False)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > rtol * max(smax, 1e-300)))
    basis = [U[:, i].reshape(Q.Q.shape) for i in range(rank)]
    codim = inv.gl_minus_dim() - rank
    return basis, codim


@dataclass
class VersalityReport:
    versal: bool
    miniversal: bool
    codim: int
    rank_deficit: int
    missing: np.ndarray | None


def is_versal(unfolding: Unfolding, rtol=RANK_RTOL) -> VersalityReport:
    """Versal iff orbit tangent plus unfolding directions span gl_minus."""
    Q = unfolding.base
    inv = Q.inv
    orbit, codim = orbit_tangent(Q, rtol=rtol)
    cols = [B.ravel() for B in orbit] + [np.asarray(D, dtype=float).ravel()
                                         for D in unfolding.directions]
    target = inv.gl_minus_dim()
    if cols:
        M = np.stack(cols, axis=1)
        rank = np.linalg.matrix_rank(M, tol=rtol * max(_norm(M), 1.0))
    else:
        M = None
        rank = 0
    versal = rank == target
    missing = None
    if not versal:
        # Some gl_minus element outside the span: largest projection residual.
        best, best_res = None, 0.0
        if M is not None and rank > 0:
            Uspan, s, _ = np.linalg.svd(M, full_matrices=False)
            Uspan = Uspan[:, s > rtol * max(s[0], 1e-300)]
        else:
            Uspan = np.zeros((inv.dim ** 2, 0))
        for E in inv.gl_minus_basis():
            v = E.ravel()
            res = v - Uspan @ (Uspan.T @ v)
            if _norm(res) > best_res:
                best_res = _norm(res)
                best = res.reshape(Q.Q.shape)
        missing = best
    mini = versal and len(unfolding.directions) == codim
    return VersalityReport(versal, mini, codim, target - rank, missing)


# -- the nilpotent block, its interleaved form, and the conjugator ----------------


def _perm_sign(perm) -> int:
    perm = list(perm)
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class MiniversalNilpotent:
    """The 2m x 2m nilpotent block in two coordinate frames.

    Block frame: J = (-I_m) (+) I_m with family L(Lam) = [[0, I],[Lam, 0]].
    Interleaved frame: J_tilde = diag(-1, 1, ..., -1, 1) with family
    L_tilde(lam) whose odd rows carry a single 1 and whose even rows carry
    the lam entries in the odd columns.  The permutation S intertwines the
    two frames; its determinant is (-1)^{m(m-1)/2}.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        self.J = np.diag(np.concatenate([-np.ones(m), np.ones(m)]))
        self.J_tilde = np.diag(np.array([(-1.0) ** (i + 1) for i in range(2 * m)]))
        S = np.zeros((2 * m, 2 * m))
        perm = [0] * (2 * m)
        for i in range(m):
            S[2 * i, i] = 1.0
            S[2 * i + 1, m + i] = 1.0
            perm[i] = 2 * i
            perm[m + i] = 2 * i + 1
        self.S = S
        self.det_S = _perm_sign(perm)

    def L(self, Lam) -> np.ndarray:
        m = self.m
        Lam = np.asarray(Lam, dtype=float).reshape(m, m)
        out = np.zeros((2 * m, 2 * m))
        out[:m, m:] = np.eye(m)
        out[m:, :m] = Lam
        return out

    def L_tilde(self, lam) -> np.ndarray:
        m = self.m
        lam = np.asarray(lam, dtype=float).reshape(m, m)
        out = np.zeros((2 * m, 2 * m))
        for i in range(m):
            out[2 * i, 2 * i + 1] = 1.0
            for j in range(m):
                out[2 * i + 1, 2 * j] = lam[i, j]
        return out

    def conjugation_errors(self, Lam):
        """Residuals of J_tilde S = S J and L_tilde(Lam) S = S L(Lam)."""
        e1 = _norm(self.J_tilde @ self.S - self.S @ self.J)
        e2 = _norm(self.L_tilde(Lam) @ self.S - self.S @ self.L(Lam))
        return e1, e2

    def base_unfolding(self) -> Unfolding:
        """The interleaved family as an Unfolding at lam = 0 (m^2 directions)."""
        inv = fix_spaces(self.J_tilde)
        L0 = self.L_tilde(np.zeros((self.m, self.m)))
        base = RevMatrix(L0, inv)
        dirs = []
        for i in range(self.m):
            for j in range(self.m):
                E = np.zeros((self.m, self.m))
                E[i, j] = 1.0
                dirs.append(self.L_tilde(E) - L0)
        return Unfolding(base, dirs)

