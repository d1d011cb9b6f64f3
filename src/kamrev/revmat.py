"""Linear algebra of involutions and infinitesimally reversible matrices.

An involution R splits R^N into Fix R and Fix(-R).  Matrices anti-commuting
with R (``gl_minus``) are the linear parts of reversible systems; matrices
commuting with R (``gl_plus``) generate the symmetry-preserving conjugations.
Everything here is dense numpy, with no scipy; dimensions stay small.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotAntiInvariant, NotInvolutive, Obstruction

RANK_RTOL = 1e-9
# relative defect above which a vector is off Fix(-R) or outside Q's range on Fix R
FIX_RANGE_TOL = 1e-10


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def _orth(A, rcond=1e-10):
    """Orthonormal columns spanning the range of A: scipy's orth rule, floored at
    rcond since a nonzero projector has singular values of 1 or more."""
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return u[:, :np.count_nonzero(s > rcond * max(1.0, s.max(initial=0.0)))]


def _null_space(A, rcond):
    """Orthonormal columns spanning the null space of A (scipy's null_space rule)."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[np.count_nonzero(s > rcond * s.max()):].T


class InvolutionStructure:
    """An involution R together with orthonormal bases of its eigenspaces."""

    def __init__(self, R):
        R = np.asarray(R, dtype=float)
        N = R.shape[0]
        if R.shape != (N, N):
            raise ValueError("R must be square")
        err = _norm(R @ R - np.eye(N))
        # written so that a NaN or infinite R fails it too
        if not err / max(1.0, _norm(R)) <= 1e-8:
            raise NotInvolutive(f"R^2 - I has norm {err:.3e}")
        self.R = R
        self.dim = N
        # Projectors (I +- R)/2 are idempotent; their column spaces are the
        # eigenspaces even when R is not symmetric.
        self.fix_plus = _orth(0.5 * (np.eye(N) + R))
        self.fix_minus = _orth(0.5 * (np.eye(N) - R))
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

    def _frame_units(self, pairs):
        """U E_ab U^-1 for each (a, b): matrix units in the frame [fix_plus fix_minus]."""
        U = np.hstack([self.fix_plus, self.fix_minus])
        Uinv = np.linalg.inv(U)
        out = []
        for a, b in pairs:
            E = np.zeros((self.dim, self.dim))
            E[a, b] = 1.0
            out.append(U @ E @ Uinv)
        return out

    def gl_minus_basis(self):
        """Basis of the matrices anti-commuting with R."""
        dp, N = self.dim_plus, self.dim
        return self._frame_units([ab for i in range(dp) for j in range(dp, N)
                                  for ab in ((i, j), (j, i))])

    def gl_plus_basis(self):
        """Basis of the matrices commuting with R."""
        blocks = (range(self.dim_plus), range(self.dim_plus, self.dim))
        return self._frame_units([(i, j) for b in blocks for i in b for j in b])


class RevMatrix:
    """A matrix Q anti-commuting with the involution of ``inv``."""

    def __init__(self, Q, inv: InvolutionStructure, check=True):
        Q = np.asarray(Q, dtype=float)
        if Q.shape != (inv.dim, inv.dim):
            raise ValueError("Q has wrong shape for the involution")
        if check:
            err = _norm(inv.R @ Q + Q @ inv.R)
            if not err / max(1.0, _norm(Q)) <= 1e-12:
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
            if not err / max(1.0, _norm(D)) <= 1e-10:
                raise NotAntiInvariant(f"unfolding direction violates anti-commutation by {err:.3e}")


@dataclass
class KernelReport:
    ok: bool
    violation: np.ndarray | None
    epimorphism: bool
    kernel_dim: int


def kernel_condition(Q: RevMatrix) -> KernelReport:
    """Check ker Q intersects Fix R trivially; equivalently Q: Fix R -> Fix(-R) onto."""
    inv = Q.inv
    N = inv.dim
    U, s, Vt = np.linalg.svd(Q.Q)
    smax = s[0] if len(s) else 0.0
    ker = Vt[s <= RANK_RTOL * max(smax, 1e-300)].T if len(s) else np.eye(N)
    if smax == 0.0:
        ker = np.eye(N)
    kdim = ker.shape[1]
    # Onto-ness of the restriction, computed independently of the kernel.
    restricted = Q.Q @ inv.fix_plus
    rank_restricted = np.linalg.matrix_rank(restricted, tol=RANK_RTOL * max(smax, 1.0))
    epi = rank_restricted == inv.dim_minus
    if kdim == 0:
        return KernelReport(True, None, epi, 0)
    # Intersection of span(ker) with span(fix_plus): nontrivial iff the stacked
    # system ker a = fix_plus b has a nonzero solution.
    C = np.hstack([ker, -inv.fix_plus])
    null = _null_space(C, RANK_RTOL)
    for col in null.T:
        v = ker @ col[:kdim]
        if _norm(v) > RANK_RTOL * 10:
            return KernelReport(False, v / _norm(v), epi, kdim)
    return KernelReport(True, None, epi, kdim)


def solve_fix_range(Q: RevMatrix, psi):
    """Solve Q delta = -psi with delta in Fix R, psi in Fix(-R).

    Minimal-norm solution in the Fix R coordinates; raises Obstruction when
    psi is not in the range of the restricted map.
    """
    inv = Q.inv
    psi = np.asarray(psi, dtype=float)
    if not inv.in_fix_minus(psi, tol=FIX_RANGE_TOL):
        raise NotAntiInvariant("right-hand side is not in Fix(-R)")
    A = Q.Q @ inv.fix_plus
    c, *_ = np.linalg.lstsq(A, -psi, rcond=None)
    delta = inv.fix_plus @ c
    resid = _norm(Q.Q @ delta + psi)
    if resid > FIX_RANGE_TOL * (1.0 + _norm(psi)):
        raise Obstruction(resid, "right-hand side outside the range of Q restricted to Fix R")
    return delta


def orbit_tangent(Q: RevMatrix):
    """Tangent space of the conjugation orbit: {AQ - QA : A commutes with R}.

    Returns (orthonormal basis matrices of the image, codim inside gl_minus).
    """
    inv = Q.inv
    plus = inv.gl_plus_basis()
    cols = np.stack([(A @ Q.Q - Q.Q @ A).ravel() for A in plus], axis=1)
    U, s, _ = np.linalg.svd(cols, full_matrices=False)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > RANK_RTOL * max(smax, 1e-300)))
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


def is_versal(unfolding: Unfolding) -> VersalityReport:
    """Versal iff orbit tangent plus unfolding directions span gl_minus."""
    Q = unfolding.base
    inv = Q.inv
    orbit, codim = orbit_tangent(Q)
    cols = [B.ravel() for B in orbit] + [np.asarray(D, dtype=float).ravel()
                                         for D in unfolding.directions]
    target = inv.gl_minus_dim()
    if cols:
        M = np.stack(cols, axis=1)
        rank = np.linalg.matrix_rank(M, tol=RANK_RTOL * max(_norm(M), 1.0))
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
            Uspan = Uspan[:, s > RANK_RTOL * max(s[0], 1e-300)]
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
        inv = InvolutionStructure(self.J_tilde)
        L0 = self.L_tilde(np.zeros((self.m, self.m)))
        base = RevMatrix(L0, inv)
        dirs = []
        for i in range(self.m):
            for j in range(self.m):
                E = np.zeros((self.m, self.m))
                E[i, j] = 1.0
                dirs.append(self.L_tilde(E) - L0)
        return Unfolding(base, dirs)

