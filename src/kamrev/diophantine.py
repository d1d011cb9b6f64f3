"""Spectrum classification and small-divisor arithmetic for pairs (omega, Q).

The central inequality couples torus frequencies with the imaginary parts
of the normal spectrum:

    |<k, omega> + <K, beta>| >= gamma * |k|^(-tau)

for all integer k != 0 up to a horizon and all integer K with |K| <= 2.
Only a finite horizon is ever checked; downstream solvers need divisors
only up to twice the Fourier truncation order.

The scan does not form every divisor.  For each prefix (k_1..k_{n-1}) of the
modes and each K it evaluates only the three last entries that can hold the
minimum (see _scan_block), so a sample costs O(kmax^(n-1)), not O(kmax^n).
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnpairedSpectrum
from .revmat import RevMatrix

# Fixed sampling schedule: MEASURE_CHUNKS independently seeded streams, so the
# Monte-Carlo fraction for a seed does not depend on the thread count.
MEASURE_CHUNKS = 64
# Sample rows of one divisor-scan task; complement_measure_estimate spreads
# its joined samples over its threads in blocks of this many rows.
SCAN_ROWS = 128
# Candidate divisors the kernel forms at once, three per (shift, prefix, row):
# 1.5 MB of buffers per thread.  At half this a divisors benchmark pass took
# 1.4 times as long; at twice this, about as long.
SCAN_VALUES = 65536
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


@lru_cache(maxsize=64)
def _l1_ball(n: int, radius: int) -> np.ndarray:
    """All integer vectors of length n with |k|_1 <= radius, in lexicographic
    order: each prefix in order, then the next entry ascending.  Cached, so
    the array is read-only."""
    rows = [((), radius)]
    for _ in range(n):
        rows = [(row + (c,), left - abs(c)) for row, left in rows
                for c in range(-left, left + 1)]
    ball = np.array([row for row, _ in rows], dtype=np.int64).reshape(len(rows), n)
    ball.flags.writeable = False
    return ball


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
    """The horizon's modes, their weights |k|_1^tau and the normal shifts; then
    per prefix p = (k_1..k_{n-1}) of the modes, in order: p, and as columns
    the range lo..hi of its last entries j, the j in it nearest 0 and the
    base that makes base + j the mode's index."""
    modes = enumerate_modes(n, kmax)
    _, start = np.unique(modes[:, :-1], axis=0, return_index=True)
    lo, hi = modes[start, -1], modes[np.append(start[1:], len(modes)) - 1, -1]
    cols = [x.astype(float)[:, None] for x in (lo, hi, np.clip(0, lo, hi), start - lo)]
    return (modes, np.abs(modes).sum(axis=1).astype(float) ** tau, normal_shifts(n_beta),
            modes[start, :-1], *cols)


def _dots(V, X):
    """(len(V), len(X)) inner products of the rows of V and X, summed left to
    right elementwise, so a row of X gets the same bits in any block."""
    out = np.zeros((len(V), len(X)))
    for i in range(X.shape[1]):
        out += V[:, i, None] * X[:, i]
    return out


_scratch = threading.local()


def _buffers(shape):
    """Two float arrays and one index array of `shape`, views of buffers that
    each thread keeps, up to SCAN_VALUES values, and reuses block after block:
    fresh ones cost a page fault per 4 kB in a worker thread, 25,000 per
    benchmark pass."""
    size = math.prod(shape)
    bufs = getattr(_scratch, "bufs", ())
    if not bufs or len(bufs[0]) < size:
        bufs = (np.empty(size), np.empty(size), np.empty(size, dtype=np.intp))
        if size <= SCAN_VALUES:
            _scratch.bufs = bufs
    return [buf[:size].reshape(shape) for buf in bufs]


def _scan_block(W, B, table):
    """_min_divisors over a block of rows, laid out (candidate, shift, prefix,
    row).  Let j* be the root of <p,w'> + j w_n + <K,b>.  Past j*, or from j0
    away from it, the divisor and the weight (|p|_1 + |j|)^tau both grow; in
    between their product has a concave log, so a prefix's minimum is at j0,
    floor j* or ceil j*, clipped to lo..hi.  When w_n = 0 no j moves the
    divisor: j0 holds the minimum, or lo when it is 0, as 0/0 clips to lo."""
    modes, weights, shifts, prefixes, lo, hi, j0, base = table
    rows, w_n = len(W), W[:, -1]
    J, vals, index = _buffers((3, len(shifts), len(prefixes), rows))
    dot_p = _dots(prefixes, W[:, :-1])                      # (prefix, row)
    dot_K = _dots(shifts, B)[:, None]                       # (shift, 1, row)
    root = np.add(dot_p, dot_K, out=vals[0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(root, -w_n, out=root)
    np.minimum(np.fmax(root, lo, out=root), hi, out=root)
    J[0] = j0
    np.floor(root, out=J[1])
    np.ceil(root, out=J[2])
    np.multiply(J, w_n, out=vals)
    vals += dot_p
    if B.shape[1]:                                          # else dot_K is 0
        vals += dot_K
    np.abs(vals, out=vals)
    np.add(J, base, out=index, casting="unsafe")            # mode indices
    vals *= weights.take(index, out=J, mode="clip")
    # first minimum in (shift, prefix) order, then the lowest mode index
    cell = vals.min(axis=0).reshape(-1, rows).argmin(axis=0)
    at = cell * rows + np.arange(rows)
    cand = vals.reshape(3, -1)[:, at]
    best = cand.min(axis=0)
    mode = np.where(cand == best, index.reshape(3, -1)[:, at], len(modes)).min(axis=0)
    return best, modes[mode], shifts[cell // len(prefixes)]


def _min_divisors(W, B, tau, kmax):
    """Per sample row of W (S, n) and B (S, p): the minimum over the horizon
    of |<k,w> + <K,b>| * |k|_1^tau, and the k (S, n) and K (S, p) where it is
    met -- the first strict minimum in normal_shifts order, then the first in
    enumerate_modes order.  Each row is scanned elementwise, on its own, so
    its outputs do not depend on the rows it is blocked with."""
    table = _divisor_table(W.shape[1], B.shape[1], tau, kmax)
    shifts, prefixes = table[2:4]
    cap = max(1, SCAN_VALUES // (3 * len(shifts) * len(prefixes)))        # rows
    step = -(-len(W) // -(-len(W) // cap))                  # equal blocks
    parts = [_scan_block(W[lo:lo + step], B[lo:lo + step], table)
             for lo in range(0, len(W), step)]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


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

    The samples are drawn from MEASURE_CHUNKS independently seeded streams
    and joined; their divisors are scanned once, in SCAN_ROWS-row blocks
    spread over the workers, and the minima are compared with every gamma,
    so one scan serves all the gammas.  The result is identical for any
    worker count.
    """
    box_omega = [tuple(map(float, iv)) for iv in box_omega]
    box_beta = [tuple(map(float, iv)) for iv in box_beta]
    check_tau(tau, len(box_omega))
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas < 0):
        raise ValueError("gamma must be nonnegative")
    sizes = [sample_count // MEASURE_CHUNKS + (i < sample_count % MEASURE_CHUNKS)
             for i in range(MEASURE_CHUNKS)]
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(MEASURE_CHUNKS)]
    # each stream draws its omegas, then its betas
    W = np.concatenate([_sample_box(box_omega, size, rng) for size, rng in zip(sizes, rngs)])
    B = np.concatenate([_sample_box(box_beta, size, rng) for size, rng in zip(sizes, rngs)])

    def scan(lo):
        return _min_divisors(W[lo:lo + SCAN_ROWS], B[lo:lo + SCAN_ROWS], tau, kmax)[0]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        minima = np.concatenate(list(pool.map(scan, range(0, sample_count, SCAN_ROWS))))
    violated = np.sum(minima[:, None] < gammas, axis=0)
    return [int(v) / float(sample_count) for v in violated]
