"""Frequency-curve nondegeneracy and the drift-family persistence pipeline.

The pipeline treats the torus frequency as an artificial external parameter:
for each parameter value mu on a grid, a joint fixed point

    omega  <-  F(v, mu0 + w) - u        mu0  <-  mu0 - (mu0 + w - mu)

(with u, v, w the shifts reported by the normalizer at the current state)
finds the frequency and family parameter whose shifted values land back on
the true frequency-drift relation; both maps contract at the size of the
perturbation, so one normalization serves both updates per step.  Accepted
parameter values are those whose solved frequency is certified Diophantine
at the full gamma; the solver itself runs at a slacker bound so the
intermediate iterates are not over-rejected.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .diophantine import (DiophantineParams, _min_divisors, _sample_box,
                          is_diophantine_pair)
from .errors import (ImplicitSolveFailure, NoConvergence, SmallDivisor,
                     StepFailure)
from .normalizer import NormalizerConfig, normalize
from .revsystem import ReversibleFamily, verify_torus


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
        return np.asarray(self.F(np.zeros(self.m), np.asarray(mu, dtype=float)),
                          dtype=float).reshape(self.n)


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
                               seed: int = 0, rel_tol: float = 1e-9) -> NondegeneracyReport:
    """Value-rank test: the curve is nondegenerate when its sampled values
    span all of R^n, i.e. the image lies in no hyperplane through the
    origin.  Degenerate curves come back with a unit normal of the
    offending hyperplane."""
    if sample_count < curve.n:
        raise ValueError("need at least n samples to decide rank n")
    rng = np.random.default_rng(seed)
    mus = _sample_box(curve.box, sample_count, rng)
    V = np.stack([curve.at(mu) for mu in mus], axis=1)      # (n, samples)
    U, sv, _ = np.linalg.svd(V, full_matrices=True)
    rank = int(np.sum(sv > rel_tol * sv[0])) if sv.size and sv[0] > 0 else 0
    if rank == curve.n:
        return NondegeneracyReport(True, rank, None, sv)
    return NondegeneracyReport(False, rank, U[:, -1], sv)


def diophantine_fraction(curve: FrequencyCurve, tau: float, gamma: float,
                         kmax: int, samples: int, seed: int = 0) -> float:
    """Monte-Carlo fraction of the box whose frequency value fails the
    classical Diophantine condition at (tau, gamma) up to the horizon."""
    rng = np.random.default_rng(seed)
    mus = _sample_box(curve.box, samples, rng)
    W = np.fromiter(map(curve.at, mus), dtype=(float, curve.n), count=samples)
    minima, _, _ = _min_divisors(W, np.zeros((samples, 0)), tau, kmax)
    return int(np.sum(minima < gamma)) / float(samples)


def uniform_grid(box, count: int) -> np.ndarray:
    """Uniform product mesh over the box, count points per dimension."""
    axes = [np.linspace(lo, hi, count) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    if not axes:
        return np.zeros((1, 0))
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


def _identify(family, curve, mu_curve, omega, mu0, cfg, tol, max_outer):
    """Joint fixed point for frequency and family parameter.  Each step runs
    one normalization at the current (omega, mu0) and moves both unknowns;
    when the family is parameter-free only the frequency moves and the
    parameter residual is identically zero.  Returns the converged state,
    the normalization at it, and the two back-substitution residuals."""
    prev = None
    size = float("inf")
    for _ in range(max_outer):
        run = normalize(family, omega, mu0, cfg)
        mu_arg = (mu0 + run.w) if family.s else mu_curve
        target = curve.F(run.v, mu_arg)
        dom = np.asarray(target, dtype=float).reshape(family.n) - run.u - omega
        dmu = (mu0 + run.w - mu_curve) if family.s else np.zeros(0)
        phi_resid = float(np.max(np.abs(dom)))
        ups_resid = float(np.max(np.abs(dmu))) if family.s else 0.0
        size = max(phi_resid, ups_resid)
        if size <= tol:
            return omega, mu0, run, phi_resid, ups_resid
        if prev is not None and size > 0.5 * prev:
            raise ImplicitSolveFailure(
                f"identification not contracting ({size:.3e} after {prev:.3e})")
        omega = omega + dom
        mu0 = mu0 - dmu
        prev = size
    raise ImplicitSolveFailure(f"identification stalled at {size:.3e}")


def persistence_pipeline(family: ReversibleFamily, curve: FrequencyCurve,
                         params: DiophantineParams, grid=None, grid_count: int = 20,
                         config: NormalizerConfig | None = None,
                         T: float = 100.0, deviation_tol: float = 1e-6,
                         max_outer: int = 12, solve_tol: float = 1e-12,
                         verify: bool = True) -> PersistenceReport:
    """Run the frequency/parameter identification over a grid and certify
    the surviving set.

    The family must be checked reversible and the curve nondegenerate by
    the caller.  The family's parameter count is either zero (the curve
    carries all parameter dependence; the mu-shift is then identically
    zero) or equal to the curve's box dimension."""
    if family.s not in (0, curve.dim):
        raise ValueError("family parameters must be absent or match the curve box")
    if grid is None:
        grid = uniform_grid(curve.box, grid_count)
    grid = np.asarray(grid, dtype=float).reshape(-1, curve.dim)

    base = config or NormalizerConfig(params.tau, params.gamma, params.kmax)
    work = dataclasses.replace(base, tau=params.tau, gamma=params.gamma / 4.0,
                               horizon=params.kmax, solver_gamma=None)

    points = []
    for mu_curve in grid:
        pt = GridPointResult(mu=mu_curve.copy(), accepted=False, reason="")
        points.append(pt)
        try:
            mu0 = mu_curve.copy() if family.s else np.zeros(0)
            omega, mu0, run, phi_resid, ups_resid = _identify(
                family, curve, mu_curve, curve.at(mu_curve), mu0, work,
                solve_tol, max_outer)
            pt.fsharp = omega
            pt.theta = run.v
            pt.phi_residual = phi_resid
            pt.upsilon_residual = ups_resid

            Q = family.Q_rev_at(omega, mu0) if family.d else None
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
        except (SmallDivisor, NoConvergence, ImplicitSolveFailure, StepFailure) as exc:
            pt.reason = f"{type(exc).__name__}: {exc}"

    rejected = sum(1 for pt in points if not pt.accepted) / float(len(points))
    return PersistenceReport(points, rejected, params)
