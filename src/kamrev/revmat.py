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


def _by_largest_entry(D) -> np.ndarray:
    """D over its largest entry in magnitude, so that its norm can neither
    overflow nor underflow; a zero D as it is."""
    D = np.asarray(D, dtype=float)
    top = np.abs(D).max(initial=0.0)
    return D / top if top else D


def numerical_rank(s, scale=None) -> int:
    """The numerical rank of a matrix with singular values s: the count above
    RANK_RTOL times scale, by default the largest of them, so a zero matrix
    has rank 0 however small the others are."""
    scale = s.max(initial=0.0) if scale is None else scale
    return int(np.count_nonzero(s > RANK_RTOL * scale))


def _orth(A):
    """Orthonormal columns spanning the range of a projector A, judged on the
    scale of 1: a nonzero projector has singular values of 1 or more, and a
    zero one only rounding noise."""
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return u[:, :numerical_rank(s, 1.0)]


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

    def __init__(self, Q, inv: InvolutionStructure):
        Q = np.asarray(Q, dtype=float)
        if Q.shape != (inv.dim, inv.dim):
            raise ValueError("Q has wrong shape for the involution")
        err = _norm(inv.R @ Q + Q @ inv.R)
        if not err / max(1.0, _norm(Q)) <= 1e-12:
            raise NotAntiInvariant(f"RQ + QR has norm {err:.3e}")
        self.Q = Q
        self.inv = inv


@dataclass
class Unfolding:
    """A matrix family mu -> Q(mu) through ``base`` with the given velocity
    directions dQ/dmu_j at mu = 0; each direction must anti-commute with R."""
    base: RevMatrix
    directions: list = field(default_factory=list)

    def __post_init__(self):
        R = self.base.inv.R
        for D in map(_by_largest_entry, self.directions):  # judged on its own scale
            err = _norm(R @ D + D @ R) / max(1.0, _norm(D))
            if not err <= 1e-10:
                raise NotAntiInvariant(
                    f"unfolding direction violates anti-commutation by {err:.3e} of its norm")


@dataclass
class KernelReport:
    ok: bool
    violation: np.ndarray | None
    epimorphism: bool
    kernel_dim: int


def kernel_condition(Q: RevMatrix) -> KernelReport:
    """Whether ker Q meets Fix R trivially (Q one-to-one on Fix R) and whether Q
    maps Fix R onto Fix(-R), both read off the rank of Q on Fix R at Q's scale.
    A violation comes with the unit vector of Fix R that Q shrinks most."""
    inv = Q.inv
    s = np.linalg.svd(Q.Q, compute_uv=False)
    _, s_fix, vt = np.linalg.svd(Q.Q @ inv.fix_plus)
    rank = numerical_rank(s_fix, s.max(initial=0.0))
    epi = rank == inv.dim_minus
    kdim = inv.dim - numerical_rank(s)
    if rank == inv.dim_plus:
        return KernelReport(True, None, epi, kdim)
    return KernelReport(False, inv.fix_plus @ vt[-1], epi, kdim)


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
    rank = numerical_rank(s)
    basis = [U[:, i].reshape(Q.Q.shape) for i in range(rank)]
    codim = inv.gl_minus_dim() - rank
    return basis, codim


@dataclass
class VersalityReport:
    versal: bool
    miniversal: bool
    codim: int
    rank_deficit: int


def is_versal(unfolding: Unfolding) -> VersalityReport:
    """Versal iff orbit tangent plus unfolding directions span gl_minus.  The
    orbit basis is orthonormal and each direction is scaled to unit l2 norm,
    so the answer does not depend on how mu is scaled."""
    Q = unfolding.base
    inv = Q.inv
    orbit, codim = orbit_tangent(Q)
    # a nonzero direction over its largest entry has norm >= 1; a zero one stays zero
    rows = [np.ravel(B) for B in orbit] + [np.ravel(D) / max(1.0, _norm(D))
                                           for D in map(_by_largest_entry, unfolding.directions)]
    target = inv.gl_minus_dim()
    # one row per spanning matrix; with none, a 0 x N^2 matrix of rank 0
    M = np.reshape(np.array(rows, dtype=float), (len(rows), inv.dim ** 2))
    rank = numerical_rank(np.linalg.svd(M, compute_uv=False))
    versal = rank == target
    mini = versal and len(unfolding.directions) == codim
    return VersalityReport(versal, mini, codim, target - rank)


# -- the nilpotent block, its interleaved form, and the conjugator ----------------


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
        for i in range(m):
            S[2 * i, i] = 1.0
            S[2 * i + 1, m + i] = 1.0
        self.S = S
        # exact: the LU factors of a permutation matrix have unit pivots, so
        # the determinant is the sign of the row swaps
        self.det_S = int(round(np.linalg.det(S)))

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

