"""Small-divisor solvers for the linear equations behind each Newton step.

Four flavors of the same mode-wise idea, distinguished by how the constant
normal-part matrix Q enters:

    scalar      dPhi/dx . omega           = F     divisor  i<k,omega>
    normal      dPhi/dx . omega - Q Phi   = F     matrix  (i<k,omega> I - Q)
    right       dPhi/dx . omega + Phi Q   = F     matrix  (i<k,omega> I + Q^T) on rows
    commutator  dPhi/dx . omega + Phi Q - Q Phi = F   Kronecker-vectorized solve

Each solves its equation exactly on the stored modes.  Reality is preserved
by solving one representative per +-k pair and mirroring the conjugate,
which is legitimate because Q is real.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diophantine import DiophantineParams
from .errors import NonzeroAverage, SingularMode, SmallDivisor, ZeroModeObstruction
from .fourier import FourierSeries, canonical_half
from .revmat import RevMatrix, solve_fix_range

COND_LIMIT = 1e12
# solve_scalar accepts an average up to this, relative to the majorant
ZERO_AVERAGE_TOL = 1e-12


def _half(F: FourierSeries):
    """Mask of the rows of F that represent a nonzero +-k pair."""
    return canonical_half(F.K) & F.K.any(axis=1)


def _mirrored(F: FourierSeries, half, vals, zero=None) -> FourierSeries:
    """Series with ``vals`` on the rows ``half`` of F, their conjugates at
    the negated modes, and ``zero`` (if any) at k = 0."""
    K = [F.K[half], -F.K[half]]
    V = [vals, np.conj(vals)]
    if zero is not None:
        K.append(np.zeros((1, F.n), dtype=np.int64))
        V.append(zero[None])
    K, V = np.concatenate(K), np.concatenate(V)
    rows = np.lexsort(K.T[::-1])
    return FourierSeries(F.n, F.shape, F.order, trunc_loss=F.trunc_loss, K=K[rows], V=V[rows])


def solve_scalar(F: FourierSeries, omega, params: DiophantineParams) -> FourierSeries:
    """Invert the derivative along the constant flow on zero-average series."""
    omega = np.asarray(omega, dtype=float)
    avg = float(np.max(np.abs(F.average()))) if len(F.K) else 0.0
    if avg > ZERO_AVERAGE_TOL * max(F.majorant(), 1e-300):
        raise NonzeroAverage(f"average has magnitude {avg:.3e}")
    half = _half(F)
    Kh = F.K[half]
    div = Kh @ omega
    bound = params.gamma * np.abs(Kh).sum(axis=1) ** (-params.tau)
    small = np.abs(div) < bound
    if small.any():
        i = int(np.argmax(small))
        raise SmallDivisor(Kh[i], abs(div[i]), bound[i])
    vals = F.V[half] / (1j * div).reshape((-1,) + (1,) * len(F.shape))
    return _mirrored(F, half, vals)


def _mode_solve(F: FourierSeries, omega, L, layout, solve_zero):
    """Solve (i<k,omega> I + L) X_k = F_k on every nonzero +-k representative
    of F at once, with a condition-number guard, and the k = 0 mode by
    ``solve_zero``.  ``layout`` is a pair of maps from the stacked
    coefficients to (M, r, c) column stacks and back."""
    to_cols, from_cols = layout
    half = _half(F)
    Kh = F.K[half]
    # one dot product per mode, as a stack of (1, n) rows, so each divisor
    # is rounded as a lone np.dot(k, omega) would round it
    div = (Kh[:, None, :] @ np.asarray(omega, dtype=float))[:, 0]
    A = 1j * div[:, None, None] * np.eye(len(L)) + L
    cond = np.linalg.cond(A)
    bad = np.flatnonzero(~np.isfinite(cond) | (cond > COND_LIMIT))
    if len(bad):
        raise SingularMode(Kh[bad[0]], cond[bad[0]])
    vals = from_cols(np.linalg.solve(A, to_cols(F.V[half]))).reshape((len(Kh),) + F.shape)
    k0 = np.flatnonzero(~F.K.any(axis=1))
    zero = solve_zero(F.V[k0[0]]) if len(k0) else None
    return _mirrored(F, half, vals, zero)


def solve_normal(F: FourierSeries, omega, Q: RevMatrix,
                 params: DiophantineParams | None = None) -> FourierSeries:
    """Solve dPhi/dx.omega - Q Phi = F mode-wise; F may be (d,) or (d, m)."""
    Qm = Q.Q
    d = Qm.shape[0]
    if F.shape[0] != d:
        raise ValueError("leading dimension of F must match Q")

    def zero(f0):
        f0 = np.real(f0)
        cond = np.linalg.cond(Qm)
        if np.isfinite(cond) and cond <= COND_LIMIT:
            return np.asarray(np.linalg.solve(-Qm, f0), dtype=complex)
        # Singular normal part: fall back to the Fix-space solve, column-wise.
        try:
            cols = f0.reshape(d, -1)
            sols = [solve_fix_range(Q, cols[:, j]) for j in range(cols.shape[1])]
        except Exception as exc:
            raise ZeroModeObstruction(f"constant mode unsolvable: {exc}") from exc
        return np.stack(sols, axis=1).reshape(f0.shape).astype(complex)

    c = math.prod(F.shape) // d
    layout = (lambda V: V.reshape(len(V), d, c), lambda X: X)
    return _mode_solve(F, omega, -Qm, layout, zero)


def solve_right(F: FourierSeries, omega, Q: RevMatrix) -> FourierSeries:
    """Solve dPhi/dx.omega + Phi Q = F for (m, d)-valued F (Q acts on rows)."""
    Qm = Q.Q
    d = Qm.shape[0]
    if F.shape[-1] != d:
        raise ValueError("trailing dimension of F must match Q")

    def zero(f0):
        f0 = np.real(f0)
        cond = np.linalg.cond(Qm)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise ZeroModeObstruction("constant mode needs invertible Q on the right")
        return np.asarray(np.linalg.solve(Qm.T, f0.T).T, dtype=complex)

    # transpose the row equation: (i div I + Q^T) Phi_k^T = F_k^T
    r = math.prod(F.shape) // d
    layout = (lambda V: V.reshape(len(V), r, d).transpose(0, 2, 1),
              lambda X: X.transpose(0, 2, 1))
    return _mode_solve(F, omega, Qm.T, layout, zero)


def commutator_operator(div: float, Qm: np.ndarray) -> np.ndarray:
    """Matrix of X -> i*div*X + X Q - Q X acting on column-major vec(X)."""
    d = Qm.shape[0]
    Id = np.eye(d)
    return 1j * div * np.eye(d * d) + np.kron(Qm.T, Id) - np.kron(Id, Qm)


def solve_commutator(F: FourierSeries, omega, Q: RevMatrix,
                     skip_zero_mode: bool = True) -> FourierSeries:
    """Solve dPhi/dx.omega + Phi Q - Q Phi = F for (d, d)-valued F.

    The k = 0 mode lies in the kernel-plagued adjoint operator and is
    handled by the caller (it feeds the parameter shift), so by default the
    constant mode of F must be absent.
    """
    Qm = Q.Q
    d = Qm.shape[0]
    if F.shape != (d, d):
        raise ValueError("F must be (d, d)-valued")

    def zero(f0):
        if skip_zero_mode:
            if np.max(np.abs(f0)) > 1e-12 * max(F.majorant(), 1e-300):
                raise ZeroModeObstruction("constant mode present; caller must absorb it")
            return None
        raise ZeroModeObstruction("constant commutator mode is never invertible")

    # column-major vec(X) of each mode as one column
    layout = (lambda V: V.transpose(0, 2, 1).reshape(len(V), d * d, 1),
              lambda X: X.reshape(-1, d, d).transpose(0, 2, 1))
    return _mode_solve(F, omega, commutator_operator(0.0, Qm), layout, zero)


@dataclass
class EstimateReport:
    rho: float
    rho_prime: float
    lhs: float
    rhs_factor: float
    implied_c: float

    def to_json(self):
        return {"rho": self.rho, "rho_prime": self.rho_prime, "lhs": self.lhs,
                "rhs_factor": self.rhs_factor, "impliedC": self.implied_c}


def verify_estimate(F: FourierSeries, Phi: FourierSeries, omega,
                    params: DiophantineParams, rho: float, rho_prime: float) -> EstimateReport:
    """Empirical constant for the strip-norm bound on the scalar solve:
    |Phi|_{rho'} <= C |F|_rho / (gamma (rho - rho')^{n + tau})."""
    if not (0.0 < rho_prime < rho):
        raise ValueError("need 0 < rho_prime < rho")
    lhs = Phi.strip_norm(rho_prime)
    rhs = F.strip_norm(rho)
    gap = (rho - rho_prime) ** (F.n + params.tau)
    implied = lhs * params.gamma * gap / rhs if rhs > 0 else 0.0
    return EstimateReport(rho, rho_prime, lhs, rhs, implied)
