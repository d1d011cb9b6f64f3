"""Iterative reduction of a reversible family to its torus normal form.

The normal variable w = (y, z) is one, with target T = diag(0, Q), which
anti-commutes with S_w = diag(-I, R).  Each sweep solves the linearized
conjugacy equations in a fixed order — the constant parts (with the drift
and frequency shifts), then the exact commutator bracket of the degree-0
generator, then the w-linear part (with the unfolding shift) — and
composes the resulting near-identity transform

    x = xbar + a(xbar),   w = W0(xbar) + W1(xbar) wbar

onto the accumulated one.  The field is re-instantiated from the original
family at the shifted parameters every sweep and conjugated by the total
transform, so errors never compound across sweeps.  The convergence is not
quadratic: the second residual is of order delta^3 in the forcing delta, at
observed orders 1.5-1.7; ROADMAP direction 14 is meant to restore a Newton step.

All mode solves use the limit target T(omega0, mu0), not the current one;
the difference is absorbed by the unfolding shift found jointly with the
constant part of the w-linear block.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .cohomology import solve_commutator, solve_normal, solve_scalar
from .diophantine import DiophantineParams, is_diophantine_pair
from .errors import (CancellationFailure, NoConvergence, SmallDivisor,
                     TruncationOverflow, VersalObstruction)
from .fourier import AngleShift, FourierSeries, fs_matmul
from .ftaylor import FourierTaylor, WSubstitution, ft_matmul, ft_neumann_solve
from .revmat import InvolutionStructure, RevMatrix
from .revsystem import AugmentedFamily, ReversibleFamily, check_transform_commutes, ft_embed

SMALLNESS_ORDER = 2
SMALLNESS_EPS = 0.1
# The degree in w through which a sweep conjugates the field: ``_measure``
# reads degrees 0 and 1, and the bracket in ``_solve_sweep`` reads Xw to
# degree 2 and Xx to degree 1.
JET_DEGREE = 2


@dataclass
class NormalizerConfig:
    tau: float
    gamma: float
    horizon: int
    tol: float = 1e-10
    max_iter: int = 12
    versal_tol: float = 1e-8
    cancel_tol: float = 1e-9
    loss_budget: float = 1e-8

    def dioph(self) -> DiophantineParams:
        return DiophantineParams(self.tau, self.gamma, self.horizon)


# -- series plumbing ---------------------------------------------------------------


def _drop_k0(s: FourierSeries) -> FourierSeries:
    """Remove the constant mode exactly (subtracting its average would leave
    reality-violating dust of order eps in the k = 0 coefficient)."""
    keep = s.K.any(axis=1)
    return FourierSeries(s.n, s.shape, s.order, trunc_loss=s.trunc_loss,
                         K=s.K[keep], V=s.V[keep])


def conjugate_field(Xx: FourierTaylor, Xw: FourierTaylor, a: FourierSeries,
                    W0: FourierSeries, W1: FourierSeries, degree, loss_budget=1e-8):
    """Push the field through x = xbar + a, w = W0 + W1 wbar (exactly, up to
    the ambient truncation orders) through ``degree`` in wbar, the degrees
    above it left out; the identity transform returns the field itself."""
    n, q = Xx.n, Xw.shape[0]
    eye = FourierSeries.constant(n, np.eye(q), W1.order)
    if a.majorant() == 0.0 and W0.majorant() == 0.0 and (W1 - eye).majorant() == 0.0:
        return Xx, Xw
    # Xx and Xw as one field; the shift applies the stored a, whose loss enters via Da
    shift = AngleShift(FourierSeries(n, a.shape, a.order, K=a.K, V=a.V))
    sub = WSubstitution(W0, W1, degree)
    XT = sub.apply(shift.apply(ft_embed(Xx, n + q, 0) + ft_embed(Xw, n + q, n)))
    # its loss goes with the w rows, into Xw_bar, and so into the budget once
    XxT = XT.map_stack(lambda V: V[:, :n])
    XxT.trunc_loss = 0.0
    XwT = XT.map_stack(lambda V: V[:, n:])

    Da = a.grad_x()
    Xx_bar = ft_neumann_solve(Da, XxT)

    rhs = XwT - ft_matmul(sub.affine.grad_x(), Xx_bar)
    Xw_bar = ft_neumann_solve(W1 - eye, rhs)

    scale = max(Xx_bar.majorant(), Xw_bar.majorant(), 1.0)
    loss = Xx_bar.trunc_loss + Xw_bar.trunc_loss
    if loss > loss_budget * scale:
        raise TruncationOverflow(f"conjugation dropped l1 mass {loss:.3e} (scale {scale:.3e})")
    return Xx_bar, Xw_bar


# -- results -----------------------------------------------------------------------


@dataclass
class NormalizationResult:
    omega0: np.ndarray
    mu0: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    a: FourierSeries
    W0: FourierSeries
    W1: FourierSeries
    Xx: FourierTaylor
    Xw: FourierTaylor
    Q_target: np.ndarray
    residual_history: list
    diagnostics: dict = dc_field(default_factory=dict)

    def _C(self):
        eye = FourierSeries.constant(self.W1.n, np.eye(self.W1.shape[0]), self.W1.order)
        return self.W1 - eye

    def block(self, rows, cols=None):
        """A transform block over the normal variable: the ``rows`` of W0, or
        with ``cols`` the rows x cols block of W1 - I (slices or indices)."""
        if cols is None:
            return self.W0.map_stack(lambda V: V[:, rows])
        return self._C().map_stack(lambda V: V[:, rows, cols])

    def smallness(self):
        """Weighted-coefficient sup bounds for the transform and its first
        SMALLNESS_ORDER x-derivatives; the persistence guarantee needs every
        one of them below SMALLNESS_EPS."""
        out = {}
        for name, s in (("a", self.a), ("W0", self.W0), ("W1 - I", self._C())):
            out[name] = float((s.norms * (1 + np.abs(s.K).sum(axis=1)) ** SMALLNESS_ORDER).sum())
        out["eps"] = SMALLNESS_EPS
        out["ok"] = all(val <= SMALLNESS_EPS
                        for key, val in out.items() if key not in ("eps", "ok"))
        return out


# -- one linearized solve -----------------------------------------------------------


class _Setup(NamedTuple):
    """What every sweep of one normalization shares: the base point, the limit
    matrix Q and the target T = diag(0, Q) of w = (y, z) over S_w, the
    Diophantine bound, the versal solve's gl_plus basis and columns, and the
    targets of the residual."""
    omega0: np.ndarray
    mu0: np.ndarray
    Q: np.ndarray
    T: RevMatrix
    dioph: DiophantineParams
    plus_basis: list
    versal_cols: np.ndarray
    omega_const: FourierSeries
    target_lin: FourierSeries


class _Residual(NamedTuple):
    r_x0: FourierSeries
    Axw: FourierSeries
    r_w0: FourierSeries
    r_ww: FourierSeries
    value: float


class _Increment(NamedTuple):
    da: FourierSeries
    psi0: FourierSeries
    dW1: FourierSeries
    du: np.ndarray
    dv: np.ndarray
    dw: np.ndarray


def _measure(Xx, Xw, ctx: _Setup) -> _Residual:
    r_x0 = Xx.taylor0() - ctx.omega_const
    Axw = Xx.linear_w()
    r_w0 = Xw.taylor0()
    r_ww = Xw.linear_w() - ctx.target_lin
    value = max(r_x0.majorant(), r_w0.majorant(), r_ww.majorant())
    return _Residual(r_x0, Axw, r_w0, r_ww, value)


def _solve_sweep(family, inst, Xx, Xw, res: _Residual, ctx: _Setup,
                 config, diagnostics) -> _Increment:
    """One pass through the linearized conjugacy equations at the current
    residual, with w = (y, z) as one normal variable against T.  Solve order:
    the constant part of w with the drift shift, then the x block with the
    frequency shift (the degree-0 generator feeds back into it through the
    x-row's w-linear coefficients), then the exact bracket correction, then
    the w-linear part with the unfolding shift absorbing its k = 0
    obstruction."""
    n, m, q = family.n, family.m, family.q
    N, D = family.order, family.degree
    omega0, T, dioph = ctx.omega0, ctx.T, ctx.dioph

    dv = -res.r_w0.average()[:m]
    drift = FourierSeries.constant(n, np.concatenate([dv, np.zeros(family.d)]), N)
    psi0 = solve_normal(res.r_w0 + drift, omega0, T)
    coupling = fs_matmul(res.Axw, psi0)
    du = -(res.r_x0 + coupling).average()
    da = solve_scalar(res.r_x0 + coupling + FourierSeries.constant(n, du, N),
                      omega0, dioph)

    # exact bracket of the degree-0 generator with the current field
    A_ft = FourierTaylor.from_series(da, q, D)
    P0_ft = FourierTaylor.from_series(psi0, q, D)
    K = (ft_matmul(Xw.grad_x(), A_ft) + ft_matmul(Xw.grad_w(), P0_ft)
         - ft_matmul(P0_ft.grad_x(), Xx))
    R_lin = res.r_ww + K.linear_w()
    # known parameter-shift feedback on the linear blocks
    for J, dp in zip(inst.jacobians, np.concatenate([du, dv])):
        if dp != 0.0:
            R_lin = R_lin + J.linear_w() * dp

    M0 = R_lin.average()
    if m:
        # the y-y average vanishes by parity, and no versal column reaches
        # it: zero its dust
        dust = float(np.max(np.abs(M0[:m, :m])))
        diagnostics["b1_average_dust"] = max(diagnostics.get("b1_average_dust", 0.0), dust)
    M0[:m, :m] = 0.0
    M0z = M0[m:, m:]
    if np.any(M0z):
        gap = float(np.linalg.norm(family.R @ M0z + M0z @ family.R))
        gap /= float(np.linalg.norm(M0z))
        diagnostics["zero_block_parity_gap"] = max(
            diagnostics.get("zero_block_parity_gap", 0.0), gap)
    plus_basis, A = ctx.plus_basis, ctx.versal_cols
    sol, *_ = np.linalg.lstsq(A, M0.ravel(), rcond=None)
    resid = float(np.linalg.norm(A @ sol - M0.ravel()))
    if resid > config.versal_tol * (1.0 + float(np.linalg.norm(M0))):
        raise VersalObstruction(
            f"zero-mode w-linear block off the orbit + unfolding span by {resid:.3e}")
    W1_0 = np.eye(q) + sum((sol[i] * P for i, P in enumerate(plus_basis)), np.zeros((q, q)))
    dW1 = (FourierSeries.constant(n, W1_0, N)
           + solve_commutator(_drop_k0(R_lin), omega0, T))
    return _Increment(da, psi0, dW1, du, dv, sol[len(plus_basis):])


def _compose(a, W0, W1, inc: _Increment):
    """Total transform after appending the incremental one on the right.  a,
    W0 and W1 are shifted as one flat series; each part keeps its own loss
    and takes on the shift's."""
    n, q = a.n, W0.shape[0]
    size = n + q + q * q
    flat = (ft_embed(a, size, 0) + ft_embed(W0, size, n)
            + ft_embed(W1.map_stack(lambda V: V.reshape(len(V), q * q)), size, n + q))
    flat.trunc_loss = 0.0
    moved = AngleShift(inc.da).apply(flat)
    W1_shifted = moved.map_stack(lambda V: V[:, n + q:].reshape(len(V), q, q))
    W1_shifted.trunc_loss += W1.trunc_loss
    a_new = inc.da + moved.map_stack(lambda V: V[:, :n])
    a_new.trunc_loss += a.trunc_loss
    W0_new = moved.map_stack(lambda V: V[:, n:n + q]) + fs_matmul(W1_shifted, inc.psi0)
    W0_new.trunc_loss += W0.trunc_loss
    W1_new = fs_matmul(W1_shifted, inc.dW1)
    return a_new, W0_new, W1_new


def _setup(family, omega0, mu0, config) -> _Setup:
    m = family.m
    omega0 = np.asarray(omega0, dtype=float).reshape(family.n)
    mu0 = np.asarray(mu0, dtype=float).reshape(family.s)
    Q = family.Q_at(omega0, mu0)
    dioph = config.dioph()
    report = is_diophantine_pair(omega0, RevMatrix(Q, family.inv) if family.d else None, dioph)
    if not report.holds:
        raise SmallDivisor(report.worst_k, report.margin + config.gamma, config.gamma)
    Tm = np.zeros((family.q, family.q))   # diag(0, Q), unfolding directions likewise
    Tm[m:, m:] = Q
    T = RevMatrix(Tm, InvolutionStructure(family.S_w))
    plus_basis = T.inv.gl_plus_basis()
    cols = ([(P @ Tm - Tm @ P).ravel() for P in plus_basis]
            + [-np.pad(Dz, (m, 0)).ravel() for Dz in family.unfolding_directions(omega0, mu0)])
    omega_const = FourierSeries.constant(family.n, omega0, family.order)
    target_lin = FourierSeries.constant(family.n, Tm, family.order)
    return _Setup(omega0, mu0, Q, T, dioph, plus_basis, np.stack(cols, axis=1),
                  omega_const, target_lin)


# -- public operations ---------------------------------------------------------------


def normalize(family: ReversibleFamily, omega0, mu0, config: NormalizerConfig,
              retarget=None) -> NormalizationResult:
    """Drive the family at (omega0, mu0) to the form
    dx/dt = omega0 + O(w), dy/dt = O2(w), dz/dt = Q(omega0, mu0) z + O2(w)
    by parameter shifts (u, v, w) and a fibered near-identity transform.
    With ``retarget``, (omega0, mu0) becomes retarget(omega0, mu0, u, v, w)
    after each sweep, and the Diophantine check, Q and the targets follow."""
    n, m, q, s = family.n, family.m, family.q, family.s
    N = family.order
    ctx = _setup(family, omega0, mu0, config)

    u = np.zeros(n)
    v = np.zeros(m)
    w = np.zeros(s)
    a = FourierSeries(n, (n,), N)
    W0 = FourierSeries(n, (q,), N)
    W1 = FourierSeries.constant(n, np.eye(q), N)

    history = []
    diagnostics = {}
    for sweep in range(config.max_iter + 1):
        inst = family.instantiate(ctx.omega0 + u, v, ctx.mu0 + w)
        Xx, Xw = conjugate_field(inst.Xx, inst.Xw, a, W0, W1, min(JET_DEGREE, family.degree),
                                 loss_budget=config.loss_budget)
        res = _measure(Xx, Xw, ctx)
        history.append(res.value)
        if res.value <= config.tol:
            break
        if sweep == config.max_iter:
            raise NoConvergence(history)
        if len(history) >= 2 and res.value >= history[-2]:
            raise NoConvergence(history)

        inc = _solve_sweep(family, inst, Xx, Xw, res, ctx, config, diagnostics)
        a, W0, W1 = _compose(a, W0, W1, inc)
        u = u + inc.du
        v = v + inc.dv
        w = w + inc.dw
        if retarget is not None:
            ctx = _setup(family, *retarget(ctx.omega0, ctx.mu0, u, v, w), config)

    result = NormalizationResult(ctx.omega0, ctx.mu0, u, v, w, a, W0, W1,
                                 Xx, Xw, ctx.Q, history, diagnostics)
    viol = check_transform_commutes(a, W0, W1, family.S_w)
    if viol:
        raise CancellationFailure(
            f"transform failed to commute with the involution: {viol[0]!r}")
    return result


# -- the augmented route --------------------------------------------------------------


@dataclass
class AugmentedNormalizationResult:
    augmented: AugmentedFamily
    core: NormalizationResult
    u: np.ndarray
    v: np.ndarray            # shift along the original external parameters
    W: np.ndarray            # shift along the promoted unfolding block
    cancellations: dict

    def sigma_value(self):
        """The drift offset recovered from the sigma rows: the invariant
        plane of the original family sits at sigma = this constant."""
        return self.core.block(self.augmented.rows()[1]).average()


def _variation(s: FourierSeries) -> float:
    avg = s.average()
    return (s - FourierSeries.constant(s.n, avg, s.order)).majorant()


def normalize_augmented(family: ReversibleFamily, omega0, mu0,
                        config: NormalizerConfig) -> AugmentedNormalizationResult:
    """Normalize the sigma-promoted family at the zero unfolding value and
    verify the structural cancellations: the unfolding shift vanishes, the
    sigma-row transform blocks lose their angle dependence, and the
    cross-blocks to y and z die entirely."""
    aug = family.augment()
    m = aug.m
    mu_hat = aug.mu_hat(np.asarray(mu0, dtype=float), np.zeros((m, m)))
    core = normalize(aug.family, omega0, mu_hat, config)

    v_mu, W = aug.split_shift(core.w)
    res = AugmentedNormalizationResult(aug, core, core.u, v_mu, W, {})

    omega0 = core.omega0
    Qbase = family.Q_at(omega0, np.asarray(mu0, dtype=float).reshape(family.s))
    # transform blocks over the promoted normal variable (y, sigma, z)
    ry, rs, rz = aug.rows()
    c0 = core.block(rs)
    c1 = core.block(rs, ry)
    c2 = core.block(rs, rs)
    c3 = core.block(rs, rz)
    b1 = core.block(ry, ry)

    checks = {
        "unfolding_shift": float(np.max(np.abs(W))) if W.size else 0.0,
        "sigma_const_variation": _variation(c0),
        "sigma_y_block": c1.majorant(),
        "sigma_sigma_variation": _variation(c2),
        "sigma_z_block": c3.majorant(),
        "q1_residual": c1.directional_derivative(omega0).majorant(),
        "q2_residual": (c1 + c2.directional_derivative(omega0)).majorant(),
        "q3_residual": (c3.directional_derivative(omega0)
                        + c3.map_stack(lambda V: V @ Qbase)).majorant(),
    }
    # independent recovery of the unfolding shift from the normalized field:
    # averaging the y-linear coefficient of the promoted sigma rows must
    # reproduce the shift itself (both are zero in exact arithmetic)
    chi1 = core.Xx.linear_w().map_stack(lambda V: V[:, :, ry])
    dc0 = c0.grad_x()
    lhs = fs_matmul(dc0, chi1).average()
    W_formula = lhs @ np.linalg.inv(np.eye(m) + b1.average())
    checks["shift_formula_gap"] = float(np.max(np.abs(W - W_formula))) if W.size else 0.0

    res.cancellations = checks
    bad = {k: val for k, val in checks.items() if val > config.cancel_tol}
    if bad:
        worst = max(bad, key=bad.get)
        raise CancellationFailure(
            f"augmented-route cancellation '{worst}' off by {bad[worst]:.3e} "
            f"(tolerance {config.cancel_tol:.1e})")
    return res
