"""Spectrum classification and small-divisor arithmetic for pairs (omega, Q).

The central inequality couples torus frequencies with the imaginary parts
of the normal spectrum:

    |<k, omega> + <K, beta>| >= gamma * |k|^(-tau)

for all integer k != 0 up to a horizon and all integer K with |K| <= 2.
Only a finite horizon is ever checked; downstream solvers need divisors
only up to twice the Fourier truncation order.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnpairedSpectrum
from .fourier import _l1_ball
from .revmat import RevMatrix

# Fixed chunk schedule so the Monte-Carlo fraction is reproducible for a
# given seed regardless of how many workers execute the chunks.
MEASURE_CHUNKS = 64
# Sample rows the divisor kernel scans at once; bounds its (rows, modes)
# temporaries (0.3 MB each for two frequencies at kmax 16).
SCAN_ROWS = 128
SPECTRUM_TOL = 1e-9  # eigenvalue parts below this times the spectral radius are 0


@dataclass
class SpectrumClassification:
    """Eigenvalue census of a matrix anti-commuting with an involution.

    ell: nonzero purely-imaginary pairs; kappa: quadruplets off both axes;
    beta: positive imaginary parts (pairs first, then quadruplets);
    alpha: positive real parts of the quadruplets.
    """
    ell: int
    kappa: int
    beta: np.ndarray
    alpha: np.ndarray
    real_pairs: int
    zero_count: int
    dim: int

    def check_counts(self):
        total = 2 * self.ell + 4 * self.kappa + 2 * self.real_pairs + self.zero_count
        if total != self.dim:
            raise UnpairedSpectrum(f"counts 2*{self.ell}+4*{self.kappa}+2*{self.real_pairs}"
                                   f"+{self.zero_count} != {self.dim}")


def classify_spectrum(Q: RevMatrix) -> SpectrumClassification:
    lam = np.linalg.eigvals(Q.Q)
    N = len(lam)
    scale = float(np.max(np.abs(lam))) if N else 0.0
    if scale == 0.0:
        return SpectrumClassification(0, 0, np.zeros(0), np.zeros(0), 0, N, N)
    thresh = SPECTRUM_TOL * scale

    # Every nonzero eigenvalue must be matched with its negative.
    nonzero = [z for z in lam if abs(z) > thresh]
    pool = list(nonzero)
    while pool:
        z = pool.pop()
        if not pool:
            raise UnpairedSpectrum(f"eigenvalue {z} has no partner -z")
        dists = [abs(z + u) for u in pool]
        j = int(np.argmin(dists))
        if dists[j] > 10 * thresh:
            raise UnpairedSpectrum(f"eigenvalue {z} has no partner -z (closest miss {dists[j]:.3e})")
        pool.pop(j)

    zero_count = N - len(nonzero)
    imag_pos = [z.imag for z in nonzero if abs(z.real) <= thresh and z.imag > thresh]
    real_pos = [z.real for z in nonzero if abs(z.imag) <= thresh and z.real > thresh]
    quad = [(z.real, z.imag) for z in nonzero
            if z.real > thresh and z.imag > thresh]
    ell = len(imag_pos)
    kappa = len(quad)
    quad.sort(key=lambda ab: (-ab[1], -ab[0]))
    beta = np.array(sorted(imag_pos, reverse=True) + [b for _, b in quad])
    alpha = np.array([a for a, _ in quad])
    out = SpectrumClassification(ell, kappa, beta, alpha, len(real_pos), zero_count, N)
    out.check_counts()
    return out


@dataclass
class DiophantineParams:
    tau: float
    gamma: float
    kmax: int

    def __post_init__(self):
        # a JSON config may give tau = 2; int64 mode orders cannot be raised
        # to a negative integer power
        self.tau, self.gamma = float(self.tau), float(self.gamma)
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.kmax < 1:
            raise ValueError("kmax must be at least 1")


def check_tau(tau: float, n: int):
    # at or below n - 1 a scanned fraction grows with the horizon, not converging
    if tau <= n - 1:
        raise ValueError(f"tau must exceed n-1 = {n - 1}")


def enumerate_modes(n: int, kmax: int) -> np.ndarray:
    """All k with 0 < |k|_1 <= kmax and positive first nonzero entry.

    One representative per +-k pair; sufficient for divisor scans because
    the normal-shift set K is symmetric.  These are the vectors after k = 0
    in the lexicographically ordered (and symmetric) l1 ball.
    """
    ball = _l1_ball(n, kmax)
    return ball[len(ball) // 2 + 1:]


def normal_shifts(n_beta: int) -> np.ndarray:
    """All integer K of length n_beta with |K|_1 <= 2 (K = 0 included)."""
    return _l1_ball(n_beta, 2)


@dataclass
class DiophantineReport:
    holds: bool
    worst_k: tuple
    worst_K: tuple
    margin: float
    horizon: int

    def to_json(self):
        return {
            "holds": bool(self.holds),
            "worst_k": [int(c) for c in self.worst_k],
            "worst_K": [int(c) for c in self.worst_K],
            "margin": float(self.margin),
            "horizon": int(self.horizon),
        }


def _sample_box(box, count, rng):
    return np.column_stack([rng.uniform(lo, hi, count) for lo, hi in box]) \
        if box else np.zeros((count, 0))


@lru_cache(maxsize=8)
def _divisor_table(n, n_beta, tau, kmax):
    modes = enumerate_modes(n, kmax)
    return modes, np.abs(modes).sum(axis=1).astype(float) ** tau, normal_shifts(n_beta)


def _min_divisors(W, B, tau, kmax):
    """Per sample row of W (S, n) and B (S, p): the minimum over the horizon
    of |<k,w> + <K,b>| * |k|_1^tau, and the k (S, n) and K (S, p) where it is
    met -- the first strict minimum in normal_shifts order, then the first in
    enumerate_modes order."""
    modes, weights, shifts = _divisor_table(W.shape[1], B.shape[1], tau, kmax)
    best = np.full(len(W), np.inf)
    at_k, at_K = np.zeros((2, len(W)), dtype=np.int64)
    for lo in range(0, len(W), SCAN_ROWS):
        block = slice(lo, lo + SCAN_ROWS)
        low, ik, iK = best[block], at_k[block], at_K[block]     # views
        # (M, rows) product, transposed so each row's modes are contiguous
        dots = np.ascontiguousarray((modes @ W[block].T).T)
        for j, K in enumerate(shifts):
            vals = dots + (B[block] @ K)[:, None]
            vals = np.multiply(np.abs(vals, out=vals), weights, out=vals)
            i = vals.argmin(axis=1)
            v = np.take_along_axis(vals, i[:, None], axis=1)[:, 0]
            better = v < low
            low[better], ik[better], iK[better] = v[better], i[better], j
    return best, modes[at_k], shifts[at_K]


def scan_divisors(omega, beta, tau: float, kmax: int):
    """Minimum of |<k,omega> + <K,beta>| * |k|^tau over the horizon.

    Returns (minimum, worst_k, worst_K).
    """
    best, k, K = _min_divisors(np.asarray(omega, dtype=float).reshape(1, -1),
                               np.asarray(beta, dtype=float).reshape(1, -1), tau, kmax)
    return float(best[0]), tuple(int(c) for c in k[0]), tuple(int(c) for c in K[0])


def is_diophantine_pair(omega, Q: RevMatrix | None,
                        params: DiophantineParams) -> DiophantineReport:
    """Check the pair condition up to the horizon; Q = None means beta empty
    (the classical vector condition)."""
    omega = np.asarray(omega, dtype=float)
    check_tau(params.tau, len(omega))
    beta = classify_spectrum(Q).beta if Q is not None else np.zeros(0)
    best, worst_k, worst_K = scan_divisors(omega, beta, params.tau, params.kmax)
    # margin is signed headroom of the normalized divisor over gamma
    return DiophantineReport(best >= params.gamma, worst_k, worst_K,
                             best - params.gamma, params.kmax)


def complement_measure_estimate(box_omega, box_beta, tau: float, gammas,
                                sample_count: int, kmax: int,
                                seed: int = 0, workers: int = 1) -> list[float]:
    """Monte-Carlo fraction of the box where the pair condition fails, one
    per gamma of ``gammas`` in the given order.

    The sample schedule is split into MEASURE_CHUNKS independently seeded
    chunks; the result is identical for any worker count.  Each chunk scans
    its divisors once and compares the minima with every gamma, so one scan
    serves all the gammas.
    """
    box_omega = [tuple(map(float, iv)) for iv in box_omega]
    box_beta = [tuple(map(float, iv)) for iv in box_beta]
    check_tau(tau, len(box_omega))
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas < 0):
        raise ValueError("gamma must be nonnegative")
    sizes = [sample_count // MEASURE_CHUNKS] * MEASURE_CHUNKS
    for i in range(sample_count % MEASURE_CHUNKS):
        sizes[i] += 1
    children = np.random.SeedSequence(seed).spawn(MEASURE_CHUNKS)

    def run_chunk(args):
        size, child = args
        rng = np.random.default_rng(child)
        W = _sample_box(box_omega, size, rng)
        B = _sample_box(box_beta, size, rng)
        minima, _, _ = _min_divisors(W, B, tau, kmax)
        return np.sum(minima[:, None] < gammas, axis=0)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        violated = sum(pool.map(run_chunk, zip(sizes, children)))
    return [int(v) / float(sample_count) for v in violated]
