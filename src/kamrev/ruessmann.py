"""Frequency-curve nondegeneracy and the drift-family persistence pipeline.

The pipeline treats the torus frequency as an artificial external parameter:
for each parameter value mu on a grid, a joint fixed point

    omega  <-  F(v, mu) - u        mu0  <-  mu0 - (mu0 + w - mu)

(with u, v, w the shifts reported by the normalizer at the current state)
finds the frequency and family parameter whose shifted values land back on
the true frequency-drift relation; both maps contract at the size of the
perturbation, so both run between the sweeps of one normalization.  Accepted
parameter values are those whose solved frequency is certified Diophantine
at the full gamma; the solver itself runs at a slacker bound so the
intermediate iterates are not over-rejected.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .diophantine import (DiophantineParams, _min_divisors, _sample_box, check_tau,
                          is_diophantine_pair)
from .errors import ImplicitSolveFailure, KamrevError
from .normalizer import NormalizerConfig, normalize
from .revmat import RevMatrix, numerical_rank
from .revsystem import ReversibleFamily, verify_torus

# the largest back-substitution residual an identified grid point may keep
IDENTIFY_TOL = 1e-12


@dataclass
class FrequencyCurve:
    """A frequency map F(sigma, mu) over a parameter box.

    F takes the drift offset sigma (length m) and the parameter mu (length
    matching box) and returns the n frequencies.  Rank statements sample
    the curve at sigma = 0.
    """
    F: callable
    box: list
    n: int
    m: int = 1

    def __post_init__(self):
        self.box = [(float(lo), float(hi)) for lo, hi in self.box]

    @property
    def dim(self):
        return len(self.box)

    def at(self, mu):
        """The n frequencies at mu, or an (S, n) array for an (S, dim) stack
        of parameter values, mapped over its rows."""
        mu = np.asarray(mu, dtype=float)
        if mu.ndim == 2:
            return np.array([self.at(row) for row in mu]).reshape(len(mu), self.n)
        return np.asarray(self.F(np.zeros(self.m), mu), dtype=float).reshape(self.n)


class PolynomialCurve(FrequencyCurve):
    """F(sigma, mu) = P(mu_1) + L sigma: component i is the polynomial with
    ascending coefficients ``polys[i]`` in the first parameter (0 for an empty
    box) plus row i of ``sigma_linear`` (n x m, default zero) times sigma.
    ``at`` runs Horner's rule elementwise over a stack, bit for bit per row."""

    def __init__(self, polys, box, m=1, sigma_linear=None):
        self.descending = [np.asarray(p, dtype=float)[::-1] for p in polys]
        n = len(self.descending)
        self.sigma_linear = (np.zeros((n, m)) if sigma_linear is None
                             else np.asarray(sigma_linear, dtype=float))
        super().__init__(self._value, box=box, n=n, m=m)

    def _value(self, sigma, mu):
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        t = mu[..., 0] if mu.shape[-1] else np.zeros(mu.shape[:-1])
        base = np.stack([np.polyval(p, t) for p in self.descending], axis=-1)
        return base + self.sigma_linear @ sigma[:self.m]

    def at(self, mu):
        mu = np.asarray(mu, dtype=float)
        return self._value(np.zeros(self.m), mu).reshape(mu.shape[:-1] + (self.n,))


@dataclass
class NondegeneracyReport:
    nondegenerate: bool
    rank: int
    normal: np.ndarray | None
    singular_values: np.ndarray

    def to_json(self):
        return {
            "nondegenerate": bool(self.nondegenerate),
            "rank": int(self.rank),
            "normal": None if self.normal is None else [float(c) for c in self.normal],
            "singularValues": [float(c) for c in self.singular_values],
        }


def is_ruessmann_nondegenerate(curve: FrequencyCurve, sample_count: int,
                               seed: int = 0) -> NondegeneracyReport:
    """Value-rank test: the curve is nondegenerate when its sampled values
    span all of R^n, i.e. the image lies in no hyperplane through the
    origin.  Degenerate curves come back with a unit normal of the
    offending hyperplane."""
    if sample_count < curve.n:
        raise ValueError("need at least n samples to decide rank n")
    rng = np.random.default_rng(seed)
    mus = _sample_box(curve.box, sample_count, rng)
    V = curve.at(mus).T                                      # (n, samples)
    U, sv, _ = np.linalg.svd(V, full_matrices=False)         # U is n x n
    rank = numerical_rank(sv)
    if rank == curve.n:
        return NondegeneracyReport(True, rank, None, sv)
    return NondegeneracyReport(False, rank, U[:, -1], sv)


def diophantine_fraction(curve: FrequencyCurve, tau: float, gamma: float,
                         kmax: int, samples: int, seed: int = 0) -> float:
    """Monte-Carlo fraction of the box whose frequency value fails the
    classical Diophantine condition at (tau, gamma) up to the horizon."""
    check_tau(tau, curve.n)
    rng = np.random.default_rng(seed)
    mus = _sample_box(curve.box, samples, rng)
    minima, _, _ = _min_divisors(curve.at(mus), np.zeros((samples, 0)), tau, kmax)
    return int(np.sum(minima < gamma)) / float(samples)


def uniform_grid(box, count: int) -> np.ndarray:
    """Uniform product mesh over the box, count points per dimension."""
    if not box:
        return np.zeros((1, 0))
    mesh = np.meshgrid(*[np.linspace(lo, hi, count) for lo, hi in box], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass
class GridPointResult:
    mu: np.ndarray
    accepted: bool
    reason: str
    fsharp: np.ndarray | None = None
    theta: np.ndarray | None = None
    margin: float | None = None
    torus_deviation: float | None = None
    rotation_error: float | None = None
    phi_residual: float | None = None
    upsilon_residual: float | None = None

    def to_json(self):
        def arr(v):
            return None if v is None else [float(c) for c in np.atleast_1d(v)]

        def num(v):
            return None if v is None else float(v)

        return {
            "mu": arr(self.mu),
            "accepted": bool(self.accepted),
            "reason": self.reason,
            "fsharp": arr(self.fsharp),
            "theta": arr(self.theta),
            "margin": num(self.margin),
            "torusDeviation": num(self.torus_deviation),
            "rotationError": num(self.rotation_error),
            "phiResidual": num(self.phi_residual),
            "upsilonResidual": num(self.upsilon_residual),
        }


@dataclass
class PersistenceReport:
    points: list
    rejected_fraction: float
    params: DiophantineParams

    def accepted(self):
        return [pt for pt in self.points if pt.accepted]

    def to_json(self):
        return {
            "params": {"tau": self.params.tau, "gamma": self.params.gamma,
                       "kmax": self.params.kmax},
            "rejectedFraction": float(self.rejected_fraction),
            "points": [pt.to_json() for pt in self.points],
        }

    def to_csv_rows(self):
        def flat(v):
            return "" if v is None else ";".join(f"{float(c):.17g}"
                                                 for c in np.atleast_1d(v))

        head = ["mu", "accepted", "fsharp", "theta", "margin",
                "torus_deviation", "reason"]
        rows = [head]
        for pt in self.points:
            rows.append([flat(pt.mu), str(int(pt.accepted)), flat(pt.fsharp),
                         flat(pt.theta), flat(pt.margin), flat(pt.torus_deviation),
                         pt.reason])
        return rows


def _identify(family, curve, mu_curve, cfg):
    """Joint fixed point for frequency and family parameter, found inside one
    normalization whose base point the fixed-point map moves after every
    sweep; when the family is parameter-free only the frequency moves and the
    parameter residual is identically zero.  Returns the converged state, the
    normalization at it, and the two back-substitution residuals there."""
    moves = []

    def residuals(omega, mu0, u, v, w):
        dom = np.asarray(curve.F(v, mu_curve), dtype=float).reshape(family.n) - u - omega
        return dom, (mu0 + w - mu_curve) if family.s else np.zeros(0)

    def retarget(omega, mu0, u, v, w):
        dom, dmu = residuals(omega, mu0, u, v, w)
        size = float(np.max(np.abs(np.concatenate([dom, dmu]))))
        if moves and size > 0.5 * moves[-1]:
            raise ImplicitSolveFailure(
                f"identification not contracting ({size:.3e} after {moves[-1]:.3e})")
        moves.append(size)
        return omega + dom, mu0 - dmu

    mu0 = mu_curve.copy() if family.s else np.zeros(0)
    run = normalize(family, curve.at(mu_curve), mu0, cfg, retarget=retarget)
    dom, dmu = residuals(run.omega0, run.mu0, run.u, run.v, run.w)
    phi_resid = float(np.max(np.abs(dom)))
    ups_resid = float(np.max(np.abs(dmu), initial=0.0))
    size = max(phi_resid, ups_resid)
    if size > IDENTIFY_TOL:
        raise ImplicitSolveFailure(f"identification stalled at {size:.3e}")
    return run.omega0, run.mu0, run, phi_resid, ups_resid


def _run_points(grid, family, curve, params, work, T, deviation_tol, verify):
    """The results of the grid points, in order; each point is independent of
    the others.  A ``KamrevError`` rejects its point with the reason
    ``<class>: <message>``; any other exception propagates."""
    points = []
    for mu_curve in grid:
        pt = GridPointResult(mu=mu_curve.copy(), accepted=False, reason="")
        points.append(pt)
        try:
            omega, mu0, run, phi_resid, ups_resid = _identify(family, curve, mu_curve, work)
            pt.fsharp = omega
            pt.theta = run.v
            pt.phi_residual = phi_resid
            pt.upsilon_residual = ups_resid

            Q = RevMatrix(run.Q_target, family.inv) if family.d else None
            report = is_diophantine_pair(omega, Q, params)
            pt.margin = report.margin
            if not report.holds:
                pt.reason = (f"frequency not Diophantine at gamma="
                             f"{params.gamma:.3e} (margin {report.margin:.3e})")
                continue

            if verify:
                field = family.instantiate(omega + run.u, run.v, mu0 + run.w)
                dev, rot_err = verify_torus(field, run.a, run.W0, run.W1,
                                            omega, T=T)
                pt.torus_deviation = dev
                pt.rotation_error = rot_err
                if dev > deviation_tol:
                    pt.reason = f"torus deviation {dev:.3e} above {deviation_tol:.1e}"
                    continue
            pt.accepted = True
        except KamrevError as exc:
            pt.reason = f"{type(exc).__name__}: {exc}"
    return points


# a forked worker's (chunks, other arguments of _run_points), set by
# _inherit; under fork no input is pickled (a library curve may be a lambda)
_INHERITED = None


def _inherit(chunks, args):
    global _INHERITED
    _INHERITED = chunks, args


def _inherited_chunk(index):
    chunks, args = _INHERITED
    return _run_points(chunks[index], *args)


def _run_forked(chunks, args):
    """Run chunks[1:] in forked workers and chunks[0] here, and return the
    points in grid order.  An exception that escapes any chunk propagates."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(len(chunks) - 1, mp_context=fork, initializer=_inherit,
                             initargs=(chunks, args)) as pool:
        futures = [pool.submit(_inherited_chunk, i) for i in range(1, len(chunks))]
        points = _run_points(chunks[0], *args)
        for future in futures:
            points += future.result()
    return points


def persistence_pipeline(family: ReversibleFamily, curve: FrequencyCurve,
                         config: NormalizerConfig, grid=None, grid_count: int = 20,
                         T: float = 100.0, deviation_tol: float = 1e-6,
                         verify: bool = True, workers: int = 1) -> PersistenceReport:
    """Run the frequency/parameter identification over a grid and certify
    the surviving set at ``config.dioph()``; every normalization runs at a
    quarter of its gamma.

    The family must be checked reversible and the curve nondegenerate by
    the caller.  The family's parameter count is either zero (the curve
    carries all parameter dependence; the mu-shift is then identically
    zero) or equal to the curve's box dimension.

    With ``workers`` > 1 the grid is split into min(workers, points)
    contiguous chunks.  This process runs the first chunk while worker
    processes forked from it, one per other chunk, run the rest; the "fork"
    start method of multiprocessing is required, and the workers inherit
    the inputs instead of receiving them pickled.  Points are independent,
    so the report is the same for any worker count."""
    if family.s not in (0, curve.dim):
        raise ValueError("family parameters must be absent or match the curve box")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if grid is None:
        grid = uniform_grid(curve.box, grid_count)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != curve.dim or not len(grid):
        raise ValueError(f"grid of shape {grid.shape} is not (S, {curve.dim}) with S >= 1")

    params = config.dioph()
    work = dataclasses.replace(config, gamma=config.gamma / 4.0)
    args = (family, curve, params, work, T, deviation_tol, verify)
    chunks = np.array_split(grid, min(workers, len(grid)))
    if len(chunks) == 1:
        points = _run_points(grid, *args)
    else:
        points = _run_forked(chunks, args)

    rejected = sum(1 for pt in points if not pt.accepted) / float(len(points))
    return PersistenceReport(points, rejected, params)
