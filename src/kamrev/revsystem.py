"""Reversible families on T^n x R^(m+2p), their validation, and the toys.

A family is written in the split form

    dx/dt = omega + xi(y, z, sigma) + f(x, y, z)
    dy/dt = sigma + eta(y, z, sigma) + g(x, y, z)
    dz/dt = Q(omega, mu) z + zeta(y, z, sigma) + h(x, y, z)

with external parameters (omega, sigma, mu).  The involution is
G: (x, y, z) -> (-x, -y, Rz).  The unperturbed coefficients xi, eta, zeta
are x-independent and live over the extended variables (y, z, sigma); the
perturbations f, g, h are x-dependent and parameter-free.  Q is polynomial
in (omega - omega*, mu).

The sigma-promoting augmentation turns such a family into another instance
of the same class with no y-variables at all: the normal variable becomes
(y, sigma, z) and the parameter list grows by the m x m unfolding block.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RootFindFailure, StepFailure
from .ftaylor import FourierTaylor, involution_pullback
from .fourier import FourierSeries
from .revmat import InvolutionStructure, RevMatrix, solve_fix_range


# -- small structural helpers ---------------------------------------------------


def classify_context(dim_fix_g: int, codim_t: int) -> str:
    """Which side of the dichotomy a torus sits on, by fixed-space dimension."""
    if dim_fix_g > codim_t:
        return "Invalid"
    if 2 * dim_fix_g < codim_t:
        return "Context2"
    return "Context1"


def ft_embed(F: FourierTaylor, total: int, offset: int) -> FourierTaylor:
    """Embed a (d,)-valued field into (total,)-valued rows [offset, offset+d)."""
    d = F.shape[0]
    return F.map_stack(lambda V: np.concatenate(
        [np.zeros((len(V), offset)), V, np.zeros((len(V), total - offset - d))], axis=1))


def ft_permute_vars(F: FourierTaylor, perm, q_new: int) -> FourierTaylor:
    """Re-index the polynomial variables: new exponent slot perm[i] <- old slot i."""
    terms = {}
    for alpha, s in F.terms.items():
        beta = [0] * q_new
        for i, e in enumerate(alpha):
            beta[perm[i]] = e
        terms[tuple(beta)] = s
    return FourierTaylor(F.n, q_new, F.shape, F.order, F.degree, terms,
                         trunc_loss=F.trunc_loss)


def ft_fix_tail(F: FourierTaylor, q_main: int, values) -> FourierTaylor:
    """Evaluate the trailing variables of F at constants, keeping the first
    q_main variables free."""
    values = np.asarray(values, dtype=float)
    acc = {}
    for alpha, s in F.terms.items():
        head, tail = alpha[:q_main], alpha[q_main:]
        factor = 1.0
        for val, e in zip(values, tail):
            factor *= val ** e
        if factor == 0.0:
            continue
        got = acc.get(head)
        term = s * factor
        acc[head] = term if got is None else got + term
    return FourierTaylor(F.n, q_main, F.shape, F.order, F.degree, acc,
                         trunc_loss=F.trunc_loss)


def _rows_times(V, X):
    """V applied to the rows of every coefficient in the stack X: one
    matrix-vector or matrix product per coefficient, so the sums round as
    V @ x does for each coefficient x."""
    return (V @ X[..., None])[..., 0] if X.ndim == 2 else V @ X


def _parity_defect(pulled, F, V=None):
    """How far F is from its parity class, given its pullback ``pulled`` by
    the involution (x, w) -> (-x, Sw): pulled - F for an x-row field, which
    must be even, or pulled + V F for a field whose rows V reverses."""
    return pulled - F if V is None else pulled + F.map_stack(lambda X: _rows_times(V, X))


def _violations(checks, tol):
    """A Violation for each (error, scale, identity) whose error exceeds
    tol * max(scale, 1)."""
    return [Violation(name, err) for err, scale, name in checks if err > tol * max(scale, 1.0)]


def symmetrize_x_row(F: FourierTaylor, S) -> FourierTaylor:
    """Project onto fields with F(-x, Sw) = F(x, w) (x-row parity class)."""
    return (F + involution_pullback(F, S)) * 0.5


def symmetrize_w_rows(F: FourierTaylor, S) -> FourierTaylor:
    """Project onto fields with F(-x, Sw) = -S F(x, w) (w-row parity class)."""
    S = np.asarray(S, dtype=float)
    pulled = involution_pullback(F, S).map_stack(lambda X: _rows_times(S, X))
    return (F - pulled) * 0.5


# -- the family -------------------------------------------------------------------


@dataclass
class Violation:
    identity: str
    error: float

    def __repr__(self):
        return f"{self.identity}: {self.error:.3e}"


class ReversibleFamily:
    """See the module docstring for the written-out form.

    Q_terms maps power multi-indices over (omega - omega*, mu) — tuples of
    length n + s — to (2p, 2p) matrices.  m = 0 encodes families whose
    normal variable carries everything (no separate y / sigma blocks).
    """

    def __init__(self, n, m, p, s, omega_star, R, Q_terms, xi, eta, zeta,
                 f, g, h, order=16, degree=3):
        self.n, self.m, self.p, self.s = int(n), int(m), int(p), int(s)
        self.omega_star = np.asarray(omega_star, dtype=float)
        self.d = 2 * self.p                      # normal dimension
        self.q = self.m + self.d                 # phase variables besides x
        self.order, self.degree = int(order), int(degree)
        R = np.asarray(R, dtype=float)
        self.inv = InvolutionStructure(R)
        self.R = R
        self.Q_terms = {tuple(int(e) for e in k): np.asarray(v, dtype=float)
                        for k, v in Q_terms.items()}
        # unperturbed coefficients over (y, z, sigma); perturbations over (y, z)
        self.xi = xi if xi is not None else self._zero_ext(self.n)
        self.eta = eta if eta is not None else self._zero_ext(self.m)
        self.zeta = zeta if zeta is not None else self._zero_ext(self.d)
        self.f = f if f is not None else self._zero_main(self.n)
        self.g = g if g is not None else self._zero_main(self.m)
        self.h = h if h is not None else self._zero_main(self.d)

    def _zero_ext(self, dim):
        return FourierTaylor.zero(self.n, self.q + self.m, (dim,), self.order, self.degree)

    def _zero_main(self, dim):
        return FourierTaylor.zero(self.n, self.q, (dim,), self.order, self.degree)

    def context(self) -> str:
        """Dichotomy class of the zero torus of the unperturbed family."""
        return classify_context(self.inv.dim_plus, self.q)

    # involution on the (y, z) variables
    @property
    def S_w(self) -> np.ndarray:
        S = np.zeros((self.q, self.q))
        S[:self.m, :self.m] = -np.eye(self.m)
        S[self.m:, self.m:] = self.R
        return S

    # involution on the extended (y, z, sigma) variables: sigma is untouched
    @property
    def S_ext(self) -> np.ndarray:
        S = np.zeros((self.q + self.m, self.q + self.m))
        S[:self.q, :self.q] = self.S_w
        S[self.q:, self.q:] = np.eye(self.m)
        return S

    # -- parameter-dependent linear part -----------------------------------------

    def Q_at(self, omega, mu) -> np.ndarray:
        t = np.concatenate([np.asarray(omega, dtype=float) - self.omega_star,
                            np.asarray(mu, dtype=float).reshape(self.s)])
        out = np.zeros((self.d, self.d))
        for powers, M in self.Q_terms.items():
            factor = 1.0
            for base, e in zip(t, powers):
                factor *= base ** e
            out = out + factor * M
        return out

    def Q_rev_at(self, omega, mu) -> RevMatrix:
        return RevMatrix(self.Q_at(omega, mu), self.inv)

    def dQ_at(self, omega, mu, j) -> np.ndarray:
        """Derivative of Q along parameter slot j of (omega_1..omega_n, mu_1..mu_s)."""
        t = np.concatenate([np.asarray(omega, dtype=float) - self.omega_star,
                            np.asarray(mu, dtype=float).reshape(self.s)])
        out = np.zeros((self.d, self.d))
        for powers, M in self.Q_terms.items():
            e_j = powers[j]
            if e_j == 0:
                continue
            factor = float(e_j)
            for i, (base, e) in enumerate(zip(t, powers)):
                factor *= base ** (e - 1 if i == j else e)
            out = out + factor * M
        return out

    def unfolding_directions(self, omega, mu):
        """dQ/dmu_j at the given point — the versality directions."""
        return [self.dQ_at(omega, mu, self.n + j) for j in range(self.s)]

    # -- validation ----------------------------------------------------------------

    def check_reversibility(self, tol=1e-12):
        """All structural identities, coefficient-wise; returns violations."""
        R = self.R
        checks = [(float(np.linalg.norm(R @ R - np.eye(self.d))), 1.0, "R^2 = I")]
        for powers, M in self.Q_terms.items():
            checks.append((float(np.linalg.norm(R @ M + M @ R)), float(np.linalg.norm(M)),
                           f"anti-commutation of Q term {powers}"))
        S_ext, S_w = self.S_ext, self.S_w
        for F, S, V, name in ((self.xi, S_ext, None, "xi(-y, Rz, sigma) = xi"),
                              (self.eta, S_ext, None, "eta(-y, Rz, sigma) = eta"),
                              (self.zeta, S_ext, R, "zeta(-y, Rz, sigma) = -R zeta"),
                              (self.f, S_w, None, "f(-x, -y, Rz) = f"),
                              (self.g, S_w, None, "g(-x, -y, Rz) = g"),
                              (self.h, S_w, R, "h(-x, -y, Rz) = -R h")):
            defect = _parity_defect(involution_pullback(F, S), F, V)
            checks.append((defect.majorant(), F.majorant(), name))

        # order conditions: xi = O(y,z), eta = O2(y,z), zeta = O2(y,z,sigma)
        for alpha, sr in self.xi.terms.items():
            if sum(alpha[:self.q]) < 1:
                checks.append((sr.majorant(), 0.0, f"xi term {alpha} has no (y,z) factor"))
        for alpha, sr in self.eta.terms.items():
            if sum(alpha[:self.q]) < 2:
                checks.append((sr.majorant(), 0.0, f"eta term {alpha} below order 2 in (y,z)"))
        for alpha, sr in self.zeta.terms.items():
            if sum(alpha) < 2:
                checks.append((sr.majorant(), 0.0, f"zeta term {alpha} below total order 2"))
        for F, name in ((self.xi, "xi"), (self.eta, "eta"), (self.zeta, "zeta")):
            for alpha, sr in F.terms.items():
                if sr.K.any():
                    checks.append((sr.majorant(), 0.0, f"{name} term {alpha} depends on x"))
        return _violations(checks, tol)

    # -- evaluation ------------------------------------------------------------------

    def instantiate(self, omega, sigma, mu) -> "InstantiatedField":
        omega = np.asarray(omega, dtype=float).reshape(self.n)
        sigma = np.asarray(sigma, dtype=float).reshape(self.m)
        mu = np.asarray(mu, dtype=float).reshape(self.s)
        n, m, d, q = self.n, self.m, self.d, self.q
        N, D = self.order, self.degree

        xi_s = ft_fix_tail(self.xi, q, sigma)
        eta_s = ft_fix_tail(self.eta, q, sigma)
        zeta_s = ft_fix_tail(self.zeta, q, sigma)
        Q = self.Q_at(omega, mu)

        Xx = FourierTaylor.from_series(
            FourierSeries.constant(n, omega, N), q, D) + xi_s + self.f

        Xw = FourierTaylor.zero(n, q, (q,), N, D)
        if m:
            const_y = FourierSeries.constant(n, np.concatenate([sigma, np.zeros(d)]), N)
            Xw = Xw + FourierTaylor.from_series(const_y, q, D)
            Xw = Xw + ft_embed(eta_s + self.g, q, 0)
        Xw = Xw + self._z_linear_ft(Q)
        Xw = Xw + ft_embed(zeta_s + self.h, q, m)

        # w-row parameter jacobians: slots (omega | sigma)
        jac = [self._z_linear_ft(self.dQ_at(omega, mu, j)) for j in range(n)]
        for j in range(m):
            dXw_y = ft_fix_tail(self.eta.deriv_w(q + j), q, sigma)
            dXw_z = ft_fix_tail(self.zeta.deriv_w(q + j), q, sigma)
            const = np.zeros(q)
            const[j] = 1.0
            jac.append(FourierTaylor.from_series(FourierSeries.constant(n, const, N), q, D)
                       + ft_embed(dXw_y, q, 0) + ft_embed(dXw_z, q, m))

        return InstantiatedField(self, omega, sigma, mu, Xx, Xw, jac)

    def _z_linear_ft(self, M) -> FourierTaylor:
        n, m, d, q = self.n, self.m, self.d, self.q
        lin = {}
        if M.size == 0 or float(np.max(np.abs(M))) == 0.0:
            return FourierTaylor.zero(n, q, (q,), self.order, self.degree)
        for j in range(d):
            if np.max(np.abs(M[:, j])) == 0.0:
                continue
            alpha = [0] * q
            alpha[m + j] = 1
            vec = np.zeros(q)
            vec[m:] = M[:, j]
            lin[tuple(alpha)] = FourierSeries.constant(n, vec, self.order)
        return FourierTaylor(n, q, (q,), self.order, self.degree, lin)

    def with_perturbation(self, f, g, h) -> "ReversibleFamily":
        return ReversibleFamily(self.n, self.m, self.p, self.s, self.omega_star,
                                self.R, self.Q_terms, self.xi, self.eta, self.zeta,
                                f, g, h, order=self.order, degree=self.degree)

    # -- serialization ---------------------------------------------------------------

    def to_json(self):
        def piece(F):
            return F.to_json() if F.terms else None

        return {
            "n": self.n, "m": self.m, "p": self.p, "s": self.s,
            "omegaStar": [float(c) for c in self.omega_star],
            "R": [[float(c) for c in row] for row in self.R],
            "order": self.order, "degree": self.degree,
            "QTerms": [{"powers": list(k), "matrix": [[float(c) for c in row] for row in M]}
                       for k, M in sorted(self.Q_terms.items())],
            "xi": piece(self.xi), "eta": piece(self.eta), "zeta": piece(self.zeta),
            "f": piece(self.f), "g": piece(self.g), "h": piece(self.h),
        }

    @classmethod
    def from_json(cls, doc):
        def piece(key):
            val = doc.get(key)
            return None if val is None else FourierTaylor.from_json(val)

        p = int(doc["p"])
        Q_terms = {tuple(int(e) for e in ent["powers"]): np.asarray(ent["matrix"], dtype=float)
                   for ent in doc.get("QTerms", [])}
        R = np.asarray(doc["R"], dtype=float).reshape(2 * p, 2 * p)
        return cls(int(doc["n"]), int(doc["m"]), p, int(doc["s"]),
                   np.asarray(doc["omegaStar"], dtype=float), R, Q_terms,
                   piece("xi"), piece("eta"), piece("zeta"),
                   piece("f"), piece("g"), piece("h"),
                   order=int(doc["order"]), degree=int(doc["degree"]))

    # -- sigma-promoting augmentation ---------------------------------------------

    def augment(self) -> "AugmentedFamily":
        """Promote sigma to a phase variable with d(sigma)/dt = Lambda y.

        The result is a family with no y-block at all: the normal variable is
        zhat = (y, sigma, z), the involution diag(-I, I, R), and the parameter
        list (mu, Lambda) with the m x m block entering linearly.
        """
        n, m, d, q, s = self.n, self.m, self.d, self.q, self.s
        N, D = self.order, self.degree
        qh = 2 * m + d
        Rh = np.zeros((qh, qh))
        Rh[:m, :m] = -np.eye(m)
        Rh[m:2 * m, m:2 * m] = np.eye(m)
        Rh[2 * m:, 2 * m:] = self.R
        # variable re-indexing (y, z, sigma) -> (y, sigma, z)
        perm = list(range(m)) + [2 * m + j for j in range(d)] + [m + j for j in range(m)]
        s_hat = s + m * m

        def reindex(F):
            return ft_permute_vars(F, perm, qh)

        def reindex_main(F):
            # perturbations have no sigma slots: (y, z) -> (y, _, z)
            pm = list(range(m)) + [2 * m + j for j in range(d)]
            return ft_permute_vars(F, pm, qh)

        xi_hat = reindex(self.xi)
        zeta_hat = (ft_embed(reindex(self.eta), qh, 0)
                    + ft_embed(reindex(self.zeta), qh, 2 * m))
        f_hat = reindex_main(self.f)
        h_hat = (ft_embed(reindex_main(self.g), qh, 0)
                 + ft_embed(reindex_main(self.h), qh, 2 * m))

        Q_terms_hat = {}
        base = np.zeros((qh, qh))
        base[:m, m:2 * m] = np.eye(m)
        Q_terms_hat[(0,) * (n + s_hat)] = base
        for powers, M in self.Q_terms.items():
            key = tuple(powers) + (0,) * (m * m)
            block = np.zeros((qh, qh))
            block[2 * m:, 2 * m:] = M
            got = Q_terms_hat.get(key)
            Q_terms_hat[key] = block if got is None else got + block
        for i in range(m):
            for j in range(m):
                key = [0] * (n + s_hat)
                key[n + s + i * m + j] = 1
                block = np.zeros((qh, qh))
                block[m + i, j] = 1.0
                Q_terms_hat[tuple(key)] = block

        fam = ReversibleFamily(n, 0, m + self.p, s_hat, self.omega_star, Rh,
                               Q_terms_hat, xi_hat, None, zeta_hat,
                               f_hat, None, h_hat, order=N, degree=D)
        return AugmentedFamily(self, fam)


@dataclass
class AugmentedFamily:
    """The sigma-promoted family plus the index bookkeeping to read results
    back in the original blocks (y rows, sigma rows, z rows)."""
    base: ReversibleFamily
    family: ReversibleFamily

    @property
    def m(self):
        return self.base.m

    def mu_hat(self, mu, Lam) -> np.ndarray:
        Lam = np.asarray(Lam, dtype=float).reshape(self.m, self.m)
        return np.concatenate([np.asarray(mu, dtype=float).reshape(self.base.s),
                               Lam.ravel()])

    def split_shift(self, w_hat):
        """Split the parameter shift of the augmented run into (mu part, Lambda)."""
        s = self.base.s
        w_hat = np.asarray(w_hat, dtype=float)
        return w_hat[:s], w_hat[s:].reshape(self.m, self.m)

    def rows(self):
        """Index ranges of (y, sigma, z) inside the augmented normal variable."""
        m, d = self.m, self.base.d
        return slice(0, m), slice(m, 2 * m), slice(2 * m, 2 * m + d)


class InstantiatedField:
    """A family frozen at concrete parameter values, ready for the normalizer
    (block access and parameter jacobians) or the integrator (pointwise eval)."""

    def __init__(self, family, omega, sigma, mu, Xx, Xw, jacobians):
        self.family = family
        self.omega, self.sigma, self.mu = omega, sigma, mu
        self.Xx, self.Xw = Xx, Xw
        self.jacobians = jacobians  # d(Xw) over the (omega | sigma) slots

    @cached_property
    def field(self) -> FourierTaylor:
        """The whole vector field (Xx, Xw) as one (n + q,)-valued field."""
        total = self.family.n + self.family.q
        return ft_embed(self.Xx, total, 0) + ft_embed(self.Xw, total, self.family.n)

    def eval(self, x, w):
        return self.field.eval(x, w)

    def rhs(self):
        n = self.family.n

        def fn(t, state):
            x, w = state[:n], state[n:]
            return self.eval(x, w)

        return fn

    def reversibility_errors(self):
        S = self.family.S_w
        ex = _parity_defect(involution_pullback(self.Xx, S), self.Xx).majorant()
        ew = _parity_defect(involution_pullback(self.Xw, S), self.Xw, S).majorant()
        scale = max(self.Xx.majorant(), self.Xw.majorant(), 1.0)
        return ex / scale, ew / scale


def check_transform_commutes(a, W0, W1, S, tol=1e-10):
    """Verify that x -> x + a(x), w -> W0(x) + W1(x) w commutes with the
    involution (x, w) -> (-x, Sw): a must be odd, W0 must be S-twisted even,
    and W1(-x) S = S W1(x).  Returns violations."""
    S = np.asarray(S, dtype=float)
    return _violations([
        (_parity_defect(a.reflect(), a, np.eye(a.n)).majorant(), a.majorant(), "a(-x) = -a(x)"),
        (_parity_defect(W0.reflect(), W0, -S).majorant(), W0.majorant(), "W0(-x) = S W0(x)"),
        (_parity_defect(W1.reflect().map_stack(lambda X: X @ S), W1, -S).majorant(),
         W1.majorant(), "W1(-x) S = S W1(x)")], tol)


# -- integration ------------------------------------------------------------------

INTEGRATE_RTOL = 1e-12
INTEGRATE_ATOL = 1e-12


def integrate(rhs, y0, T, t_eval=None):
    import scipy.integrate
    sol = scipy.integrate.solve_ivp(rhs, (0.0, float(T)), np.asarray(y0, dtype=float),
                                    method="DOP853", rtol=INTEGRATE_RTOL,
                                    atol=INTEGRATE_ATOL, t_eval=t_eval, dense_output=False)
    if not sol.success:
        raise StepFailure(f"integration failed: {sol.message}")
    return sol


def invert_angle_shift(a: FourierSeries, x, tol=1e-14, max_iter=100):
    """Solve xbar + a(xbar) = x for xbar (fixed point; a is small), at a
    point x or at every row of an (S, n) stack.  A row stops updating once
    its own step falls below ``tol``, so it gets what it would alone."""
    x = np.asarray(x, dtype=float)
    xbar = x.copy()
    live = np.ones(x.shape[:-1], dtype=bool)
    for _ in range(max_iter):
        nxt = x[live] - a.eval(xbar[live])
        step = np.max(np.abs(nxt - xbar[live]), axis=-1)
        xbar[live] = nxt
        live[live] = step >= tol
        if not live.any():
            break
    return xbar


def verify_torus(field: InstantiatedField, a, W0, W1, omega0, T=100.0, samples=201):
    """Start on the computed torus, integrate, and pull the trajectory back
    through the transform, all samples at once.  Returns (max deviation in
    wbar, rotation error)."""
    n = field.family.n
    x_bar0 = np.linspace(0.4, 0.4 + 0.9 * (n - 1), n)
    x0 = x_bar0 + a.eval(x_bar0)
    w0 = W0.eval(x_bar0)
    ts = np.linspace(0.0, float(T), samples)
    sol = integrate(field.rhs(), np.concatenate([x0, w0]), T, t_eval=ts)
    xbar = invert_angle_shift(a, sol.y[:n].T)
    wbar = np.linalg.solve(W1.eval(xbar), (sol.y[n:].T - W0.eval(xbar))[..., None])
    dev = float(np.max(np.abs(wbar)))
    rotation = (xbar[-1] - xbar[0]) / float(T)
    rot_err = float(np.max(np.abs(rotation - np.asarray(omega0, dtype=float))))
    return dev, rot_err


# -- the three toy models ----------------------------------------------------------

# root-search half-width, ex2's start points in it, ex2's solution residual
TOY_TRUST = 0.5
TOY_GRID = 21
TOY_RES_TOL = 1e-6


def _dpsi(fn, t, h=1e-4):
    """Five-point stencil derivative, ~h^4 accurate."""
    return (-fn(t + 2 * h) + 8 * fn(t + h) - 8 * fn(t - h) + fn(t - 2 * h)) / (12 * h)


@dataclass
class ToyEx1Result:
    z: float
    w: float
    normal_form_error: float


def toy_ex1(psi1, psi2) -> ToyEx1Result:
    """Equilibrium on the fixed axis for the planar model
    dz1/dt = z2 + psi1(z1^2, z2), dz2/dt = mu z1 + z1 psi2(z1^2, z2)
    (involution (z1, z2) -> (-z1, z2)): the shift t solves t + psi1(0, t) = 0,
    the parameter value is -psi2(0, t), and rescaling z1 restores the
    nilpotent linear part."""
    import scipy.optimize

    def eq(t):
        return t + psi1(0.0, t)

    lo, hi = -TOY_TRUST, TOY_TRUST
    if eq(lo) * eq(hi) > 0:
        raise RootFindFailure(f"no sign change of the axis equation on [{lo}, {hi}]")
    z = float(scipy.optimize.brentq(eq, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200))
    w = float(-psi2(0.0, z))

    # linearization at the equilibrium (0, z) with mu = w
    def field(pt):
        z1, z2 = pt
        return np.array([z2 + psi1(z1 * z1, z2), w * z1 + z1 * psi2(z1 * z1, z2)])

    J = np.zeros((2, 2))
    for j in range(2):
        def comp(t, j=j):
            pt = np.array([0.0, z])
            pt[j] += t
            return field(pt)

        J[:, j] = _dpsi(comp, 0.0)
    scale = 1.0 + _dpsi(lambda t: psi1(0.0, t), z)
    Tm = np.diag([1.0 / scale, 1.0])
    nf = Tm @ J @ np.linalg.inv(Tm)
    err = float(np.max(np.abs(nf - np.array([[0.0, 1.0], [0.0, 0.0]]))))
    return ToyEx1Result(z, w, err)


@dataclass
class ToySolution:
    z: float
    w: float
    residual: float


@dataclass
class ToyNoSolution:
    min_residual: float
    converged_fraction: float


def toy_ex2(psi1, psi2):
    """Attempted equilibrium normalization for the mirrored planar model
    dz1/dt = z2 + z2 psi1(z1, z2^2), dz2/dt = mu z1 + psi2(z1, z2^2)
    (involution (z1, z2) -> (z1, -z2)).  The two conditions on (t, mu) are
    mu t + psi2(t, 0) = 0 and mu + d(psi2)/dz1 (t, 0) = 0; the second is
    solved exactly for mu, leaving a one-dimensional damped Newton sweep.
    Certifies nonexistence by the surviving minimal residual over the grid.
    """

    def w_of(t):
        return float(-_dpsi(lambda u: psi2(u, 0.0), t))

    def damp(t):
        return w_of(t) * t + psi2(t, 0.0)

    best = None  # (residual, |(z,w)|, z, w)
    stalled = 0
    for t0 in np.linspace(-TOY_TRUST, TOY_TRUST, TOY_GRID):
        t = float(t0)
        ok = False
        for _ in range(60):
            r = damp(t)
            if abs(r) < 1e-13:
                ok = True
                break
            dr = _dpsi(damp, t)
            if abs(dr) < 1e-9 * max(abs(r), 1.0):
                ok = True  # gradient-critical: nothing to descend
                break
            step = -r / dr
            lam = 1.0
            while lam > 1e-12 and abs(damp(t + lam * step)) > abs(r):
                lam *= 0.5
            if lam <= 1e-12:
                ok = True
                break
            t = t + lam * step
            if abs(t) > 2 * TOY_TRUST:
                break
        r = abs(damp(t))
        wv = w_of(t)
        cand = (r, float(np.hypot(t, wv)), t, wv)
        if best is None or cand < best:
            best = cand
        if ok:
            stalled += 1
    frac = stalled / float(TOY_GRID)
    if best[0] <= TOY_RES_TOL:
        return ToySolution(best[2], best[3], best[0])
    return ToyNoSolution(best[0], frac)


def toy_linear(Q_of_mu, Psi_of_mu, mu_samples, inv):
    """Pointwise removal of an inhomogeneous drift in dz/dt = Q(mu) z + Psi(mu):
    shift z by a Fix-R vector, verify the conjugated system is homogeneous."""
    out = []
    for mu in mu_samples:
        Q = RevMatrix(np.asarray(Q_of_mu(mu), dtype=float), inv)
        psi = np.asarray(Psi_of_mu(mu), dtype=float)
        delta = solve_fix_range(Q, psi)
        residual = float(np.linalg.norm(Q.Q @ delta + psi))
        out.append((mu, delta, residual))
    return out
