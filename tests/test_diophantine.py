"""Mode enumeration, spectrum census, and the coupled small-divisor scan.

Oracles for the scan: a plain double loop over itertools-enumerated modes,
and the full scan over every mode and shift that the prefix kernel replaced.
"""
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kamrev import diophantine
from kamrev.diophantine import (DiophantineParams, check_tau, complement_measure_estimate,
                                classify_spectrum, enumerate_modes,
                                is_diophantine_pair, normal_shifts, scan_divisors)
from kamrev.errors import UnpairedSpectrum
from kamrev.revmat import InvolutionStructure, RevMatrix

GOLDEN = (1 + np.sqrt(5)) / 2
INV2 = InvolutionStructure(np.diag([1.0, -1.0]))


def brute_modes(n, kmax):
    out = []
    for k in itertools.product(range(-kmax, kmax + 1), repeat=n):
        if 0 < sum(abs(c) for c in k) <= kmax:
            for c in k:
                if c:
                    if c > 0:
                        out.append(k)
                    break
    return set(out)


@pytest.mark.parametrize("n,kmax", [(1, 5), (2, 4), (3, 3)])
def test_enumerate_modes_matches_brute_force(n, kmax):
    got = {tuple(int(c) for c in row) for row in enumerate_modes(n, kmax)}
    assert got == brute_modes(n, kmax)


def test_normal_shifts_include_zero_and_are_symmetric():
    got = {tuple(int(c) for c in row) for row in normal_shifts(2)}
    want = {K for K in itertools.product(range(-2, 3), repeat=2)
            if sum(abs(c) for c in K) <= 2}
    assert got == want
    assert (0, 0) in got


def test_scan_divisors_against_double_loop():
    omega = np.array([1.0, GOLDEN])
    beta = np.array([np.sqrt(1.04)])
    tau, kmax = 1.5, 8
    best, worst_k, worst_K = scan_divisors(omega, beta, tau, kmax)
    # independent scan
    best_brute = np.inf
    for k in brute_modes(2, kmax):
        kl1 = sum(abs(c) for c in k)
        for K in itertools.product(range(-2, 3), repeat=1):
            if abs(K[0]) > 2:
                continue
            val = abs(np.dot(k, omega) + K[0] * beta[0]) * kl1 ** tau
            best_brute = min(best_brute, val)
    assert np.isclose(best, best_brute, rtol=1e-12)
    kl1 = sum(abs(c) for c in worst_k)
    achieved = abs(np.dot(worst_k, omega) + np.dot(worst_K, beta)) * kl1 ** tau
    assert np.isclose(achieved, best, rtol=1e-12)


@pytest.mark.parametrize("omega,beta", [
    ([1.0, GOLDEN], []),
    ([1.0, GOLDEN], [np.sqrt(1.04)]),
    ([1.0, 2.0], []),                      # exact resonances: ties at zero
    ([1.0, 2.0], [0.5]),
    ([1.0, GOLDEN, np.sqrt(2.0)], [0.3, 0.7]),
    ([1.0, -0.5], [0.25]),                 # a negative frequency
    ([1.0, 0.0], [0.5]),                   # last entry 0: the first j of k = (1, j) ties
])
def test_scan_divisors_worst_modes_are_first_strict_minimum(omega, beta):
    """The reported (k, K) is the double loop's first strict minimum: shifts
    in normal_shifts order outside, modes in enumerate_modes order inside."""
    tau, kmax = 1.5, 6
    best, worst_k, worst_K = scan_divisors(np.array(omega), np.array(beta), tau, kmax)
    want, want_k, want_K = np.inf, None, None
    for K in normal_shifts(len(beta)):
        for k in enumerate_modes(len(omega), kmax):
            val = (abs(float(np.dot(k, omega)) + float(np.dot(K, beta)))
                   * sum(abs(int(c)) for c in k) ** tau)
            if val < want:
                want, want_k, want_K = val, tuple(k), tuple(K)
    assert (worst_k, worst_K) == (want_k, want_K)
    assert np.isclose(best, want, rtol=1e-12, atol=1e-15)


def full_scan(omega, beta, tau, kmax):
    """Every divisor |<k,omega> + <K,beta>| * |k|_1^tau of the horizon, flat in
    (normal_shifts, enumerate_modes) order: the scan before the prefix kernel."""
    modes, shifts = enumerate_modes(len(omega), kmax), normal_shifts(len(beta))
    weights = np.abs(modes).sum(axis=1).astype(float) ** tau
    return (np.abs((modes @ omega)[None, :] + (shifts @ beta)[:, None]) * weights).ravel()


# zeros, negatives and exact dyadic values make divisors vanish and tie
# exactly; thirds and other inexact rationals make them tie within rounding
COORDS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -1.5, 2.0, 0.75]),
                   st.fractions(-3, 3, max_denominator=12).map(float),
                   st.floats(-3, 3, allow_subnormal=False))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2), st.integers(1, 30), st.floats(0.5, 4.0),
       st.integers(1, 3), st.data())
def test_prefix_scan_agrees_with_the_full_scan(n, p, kmax, tau, rows, data):
    W = np.reshape(data.draw(st.lists(COORDS, min_size=rows * n, max_size=rows * n)), (rows, n))
    B = np.reshape(data.draw(st.lists(COORDS, min_size=rows * p, max_size=rows * p)), (rows, p))
    best, at_k, at_K = diophantine._min_divisors(W, B, tau, kmax)
    modes, shifts = enumerate_modes(n, kmax), normal_shifts(p)
    for r in range(rows):
        vals = full_scan(W[r], B[r], tau, kmax)

        def scale(f):
            """(sum |k_i w_i| + sum |K_i b_i|) |k|_1^tau at flat index f."""
            k, K = modes[f % len(modes)], shifts[f // len(modes)]
            return (np.abs(k) @ np.abs(W[r]) + np.abs(K) @ np.abs(B[r])) * np.abs(k).sum() ** tau

        first = int(np.argmin(vals))
        ours = (np.flatnonzero((shifts == at_K[r]).all(axis=1))[0] * len(modes)
                + np.flatnonzero((modes == at_k[r]).all(axis=1))[0])
        bound = 4 * np.spacing(max(scale(first), scale(ours)))
        assert abs(best[r] - vals[first]) <= bound
        # the argmins differ only where rounding can reorder the two divisors
        assert ours == first or vals[ours] - vals[first] <= bound
    # a row scanned alone gives the bits it gets inside blocks of 7 and SCAN_ROWS rows
    alone = [diophantine._min_divisors(W[r:r + 1], B[r:r + 1], tau, kmax) for r in range(rows)]
    for size in (7, diophantine.SCAN_ROWS):
        tiled = np.arange(size) % rows
        block = diophantine._min_divisors(W[tiled], B[tiled], tau, kmax)
        for r in range(rows):
            assert all(a.tobytes() == b[r:r + 1].tobytes() for a, b in zip(alone[r], block))


def test_divisor_row_blocks_do_not_change_results(monkeypatch):
    kw = dict(tau=1.5, gammas=[0.05], sample_count=900, kmax=8, seed=5)
    whole = complement_measure_estimate(BOX, [(0.5, 1.5)], **kw)
    monkeypatch.setattr(diophantine, "SCAN_ROWS", 4)
    assert complement_measure_estimate(BOX, [(0.5, 1.5)], **kw) == whole


def test_classify_spectrum_elliptic_and_mixed():
    Q = RevMatrix(np.array([[0.0, 1.04], [-1.0, 0.0]]), INV2)
    sp = classify_spectrum(Q)
    assert sp.ell == 1 and sp.kappa == 0 and sp.real_pairs == 0
    assert np.isclose(sp.beta[0], np.sqrt(1.04))

    Qh = RevMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), INV2)
    sph = classify_spectrum(Qh)
    assert sph.ell == 0 and sph.real_pairs == 1 and len(sph.beta) == 0

    # rotation-coupled block: eigenvalues fill a quadruplet off both axes
    R4 = np.diag([1.0, 1.0, -1.0, -1.0])
    B = np.array([[1.0, 0.5], [-0.5, 1.0]])
    Qq = RevMatrix(np.block([[np.zeros((2, 2)), B], [-B, np.zeros((2, 2))]]),
                   InvolutionStructure(R4))
    spq = classify_spectrum(Qq)
    spq.check_counts()
    assert spq.kappa == 1 and len(spq.alpha) == 1 and spq.alpha[0] > 0


def test_classify_spectrum_rejects_unpaired():
    # spectrum {1, 2} cannot anti-commute with any R, so no RevMatrix holds
    # it; classify_spectrum reads only .Q
    with pytest.raises(UnpairedSpectrum):
        classify_spectrum(SimpleNamespace(Q=np.diag([1.0, 2.0])))


def test_is_diophantine_pair_golden_vs_resonant():
    params = DiophantineParams(1.5, 5e-3, 16)
    Q = RevMatrix(np.array([[0.0, 1.04], [-1.0, 0.0]]), INV2)
    rep = is_diophantine_pair(np.array([1.0, GOLDEN]), Q, params)
    assert rep.holds and rep.margin > 0
    # omega = (1, 1.5) has an exact resonance at k = (3, -2)
    rep_bad = is_diophantine_pair(np.array([1.0, 1.5]), None, params)
    assert not rep_bad.holds
    assert abs(np.dot(rep_bad.worst_k, [1.0, 1.5])) < 1e-12


def test_pair_margin_is_signed_headroom():
    params = DiophantineParams(1.5, 5e-3, 16)
    rep = is_diophantine_pair(np.array([1.0, GOLDEN]), None, params)
    best, _, _ = scan_divisors(np.array([1.0, GOLDEN]), np.zeros(0), 1.5, 16)
    assert np.isclose(rep.margin, best - params.gamma, rtol=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        DiophantineParams(1.5, -1.0, 16)
    with pytest.raises(ValueError):
        DiophantineParams(1.5, 1e-3, 0)
    with pytest.raises(ValueError):
        check_tau(0.5, 2)


BOX = [(1.0, 2.0), (1.0, 2.0)]


def test_measure_estimate_deterministic_across_workers():
    kw = dict(tau=1.5, gammas=[0.02], sample_count=500, kmax=10, seed=42)
    [f1] = complement_measure_estimate(BOX, [], workers=1, **kw)
    [f2] = complement_measure_estimate(BOX, [], workers=2, **kw)
    [f4] = complement_measure_estimate(BOX, [], workers=4, **kw)
    assert f1 == f2 == f4
    assert 0.0 <= f1 <= 1.0


def test_measure_estimate_monotone_in_gamma():
    fs = complement_measure_estimate(BOX, [], 1.5, [0.01, 0.04, 0.16], 800, 12, seed=7)
    assert fs[0] <= fs[1] <= fs[2]
    assert complement_measure_estimate(BOX, [], 1.5, [1e-9], 400, 12, seed=7) == [0.0]


def test_measure_estimate_against_direct_loop():
    """Tiny-sample oracle: replay the chunked sampling by hand."""
    from kamrev.diophantine import MEASURE_CHUNKS
    tau, kmax, count, seed = 1.5, 6, 40, 3
    gammas = [0.05, 0.01, 0.2, 0.05]
    got = complement_measure_estimate(BOX, [], tau, gammas, count, kmax, seed=seed)
    sizes = [count // MEASURE_CHUNKS] * MEASURE_CHUNKS
    for i in range(count % MEASURE_CHUNKS):
        sizes[i] += 1
    children = np.random.SeedSequence(seed).spawn(MEASURE_CHUNKS)
    bad = [0] * len(gammas)
    for size, child in zip(sizes, children):
        if size == 0:
            continue
        rng = np.random.default_rng(child)
        W = np.column_stack([rng.uniform(lo, hi, size) for lo, hi in BOX])
        for omega in W:
            vals = [abs(np.dot(k, omega)) * sum(abs(c) for c in k) ** tau
                    for k in brute_modes(2, kmax)]
            for i, gamma in enumerate(gammas):
                if min(vals) < gamma:
                    bad[i] += 1
    assert got == [b / count for b in bad]
    assert 0 < bad[1] < bad[0] < bad[2] < count  # every gamma splits the samples


@pytest.mark.parametrize("box_beta", [[], [(0.5, 1.5)]], ids=["no-beta", "beta"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_one_measure_call_serves_every_gamma_bit_for_bit(box_beta, workers):
    gammas = [0.08, 0.01, 0.04, 0.02, 0.04]  # unsorted, with a repeat
    kw = dict(sample_count=700, kmax=9, seed=11, workers=workers)
    got = complement_measure_estimate(BOX, box_beta, 1.5, gammas, **kw)
    assert got == [complement_measure_estimate(BOX, box_beta, 1.5, [g], **kw)[0]
                   for g in gammas]
    assert len(set(got)) == 4 and all(type(f) is float for f in got)


def test_measure_estimate_scans_each_sample_once(monkeypatch):
    """Every drawn sample reaches the kernel exactly once on two threads, and
    four gammas cost no more rows than one: one scan serves them all."""
    scanned = []
    real = diophantine._min_divisors

    def recorded(W, B, tau, kmax):
        scanned.append(W.copy())
        return real(W, B, tau, kmax)

    monkeypatch.setattr(diophantine, "_min_divisors", recorded)
    complement_measure_estimate(BOX, [], 1.5, [0.01, 0.02, 0.04, 0.08], 300, 6, seed=1,
                                workers=2)
    drawn = []
    for i, child in enumerate(np.random.SeedSequence(1).spawn(diophantine.MEASURE_CHUNKS)):
        size = 300 // diophantine.MEASURE_CHUNKS + (i < 300 % diophantine.MEASURE_CHUNKS)
        rng = np.random.default_rng(child)
        drawn.append(np.column_stack([rng.uniform(lo, hi, size) for lo, hi in BOX]))
    got, drawn = np.concatenate(scanned), np.concatenate(drawn)
    assert got.shape == drawn.shape == (300, 2)
    assert np.array_equal(got[np.lexsort(got.T)], drawn[np.lexsort(drawn.T)])


def test_measure_estimate_of_the_readme_example():
    """README's dioph-measure example (seed 12345), as one call per gamma
    computed it before one call served them all."""
    fractions = complement_measure_estimate(BOX, [], 1.5, [0.02, 0.04, 0.08], 4000, 50,
                                            seed=12345)
    assert fractions == [0.0175, 0.0405, 0.07425]


def test_measure_estimate_rejects_a_negative_gamma():
    with pytest.raises(ValueError):
        complement_measure_estimate(BOX, [], 1.5, [0.02, -0.01], 10, 4)


@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_measure_estimate_rejects_tau_at_or_below_n_minus_1(tau):
    # below it the fraction grows with kmax instead of converging
    with pytest.raises(ValueError, match="tau must exceed n-1 = 1"):
        complement_measure_estimate(BOX, [(0.5, 1.5)], tau, [0.1], 10, 4)
