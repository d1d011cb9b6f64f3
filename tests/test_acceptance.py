"""Acceptance gate: one test per headline guarantee of the package.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion; each test prints its measured values (visible with ``-s`` or on
failure) so tolerances can be audited against the numbers actually achieved.
Expensive artifacts (full normalizations, the persistence sweep) live in
module-scoped fixtures and are reused by the final reversibility audit.
"""
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from conftest import (GAMMA, GOLDEN, MU0, OMEGA0, TAU, make_config,
                      make_golden_family)
from kamrev.cohomology import (solve_normal, solve_scalar, verify_estimate)
from kamrev.diophantine import (DiophantineParams, complement_measure_estimate,
                                scan_divisors)
from kamrev.errors import Obstruction
from kamrev.fourier import FourierSeries
from kamrev.normalizer import normalize, normalize_augmented
from kamrev.revmat import (MiniversalNilpotent, RevMatrix, Unfolding,
                           fix_spaces, is_versal, orbit_tangent,
                           solve_fix_range)
from kamrev.revsystem import (ToyNoSolution, check_transform_commutes,
                              toy_ex1, toy_ex2, verify_torus)
from kamrev.ruessmann import (FrequencyCurve, is_ruessmann_nondegenerate,
                              persistence_pipeline)

DELTA = 1e-4


def report(tag, **kv):
    print(f"[{tag}] " + "  ".join(
        f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
        for k, v in kv.items()))


# -- shared expensive artifacts --------------------------------------------------


@pytest.fixture(scope="module")
def cfg16():
    return make_config(tol=1e-11)


@pytest.fixture(scope="module")
def crit6(golden_family, cfg16):
    t0 = time.monotonic()
    run = normalize(golden_family, OMEGA0, MU0, cfg16)
    field = golden_family.instantiate(OMEGA0 + run.u, run.v, MU0 + run.w)
    dev, rot = verify_torus(field, run.a, run.W0, run.W1, OMEGA0, T=100.0)
    elapsed = time.monotonic() - t0
    return SimpleNamespace(run=run, dev=dev, rot=rot, elapsed=elapsed)


@pytest.fixture(scope="module")
def crit7(golden_family, cfg16):
    t0 = time.monotonic()
    aug = normalize_augmented(golden_family, OMEGA0, MU0, cfg16)
    elapsed = time.monotonic() - t0
    return SimpleNamespace(aug=aug, elapsed=elapsed)


@pytest.fixture(scope="module")
def crit8(golden_family, crit6, cfg16):
    families = {1e-4: golden_family}
    runs = {1e-4: crit6.run}
    for delta in (1e-5, 1e-3):
        families[delta] = make_golden_family(delta=delta, order=16)
        runs[delta] = normalize(families[delta], OMEGA0, MU0, cfg16)
    return SimpleNamespace(families=families, runs=runs)


@pytest.fixture(scope="module")
def crit10(golden_family):
    curve = FrequencyCurve(
        lambda sigma, mu: np.array([1.0 + 0.2 * sigma[0],
                                    GOLDEN + 0.3 * sigma[0] + 0.8 * (mu[0] - 0.125)]),
        box=[(0.01, 0.20)], n=2, m=1)
    config = make_config(gamma=1e-2, tol=1e-11)
    t0 = time.monotonic()
    rep = persistence_pipeline(golden_family, curve, config, grid_count=20, T=25.0)
    elapsed = time.monotonic() - t0
    return SimpleNamespace(rep=rep, curve=curve, elapsed=elapsed)


# -- the criteria -----------------------------------------------------------------


def test_criterion_01_interleaving_frame_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    for m in range(1, 7):
        mv = MiniversalNilpotent(m)
        expected = (-1) ** ((m - 1) * m // 2)
        assert mv.det_S == expected                       # exact integers
        assert np.array_equal(mv.J_tilde @ mv.S, mv.S @ mv.J)
        for _ in range(20):
            Lam = rng.standard_normal((m, m))
            e1, e2 = mv.conjugation_errors(Lam)
            scale = max(1.0, float(np.max(np.abs(Lam))))
            assert e1 <= 1e-14
            assert e2 <= 1e-14 * scale
    elapsed = time.monotonic() - t0
    report("criterion 1", m_range="1..6", det="exact", elapsed=elapsed)
    assert elapsed < 1.0


def test_criterion_02_toy_pipelines():
    t0 = time.monotonic()
    values = (1e-2, -1e-2, 1e-3, -1e-3)
    worst_nf = 0.0
    for eps in values:
        for c in values:
            r = toy_ex1(lambda a, b: eps, lambda a, b: c)
            assert abs(r.z - (-eps)) <= 1e-12
            assert abs(r.w - (-c)) <= 1e-12
            assert r.normal_form_error <= 1e-10
            worst_nf = max(worst_nf, r.normal_form_error)
    for c in values:
        r = toy_ex2(lambda a, b: 0.0, lambda a, b: c)
        assert isinstance(r, ToyNoSolution)
        assert r.min_residual >= 0.99 * abs(c)
    elapsed = time.monotonic() - t0
    report("criterion 2", combos=len(values) ** 2, worst_normal_form=worst_nf,
           elapsed=elapsed)
    assert elapsed < 1.0


def _random_series(rng, n, shape, order, nmodes):
    coeffs = {}
    zero = np.zeros(shape, dtype=complex)
    for _ in range(nmodes):
        while True:
            k = tuple(int(c) for c in rng.integers(-order, order + 1, n))
            if any(k) and sum(abs(c) for c in k) <= order:
                break
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[k] = coeffs.get(k, zero) + v
        mk = tuple(-c for c in k)
        coeffs[mk] = coeffs.get(mk, zero) + np.conj(v)
    return FourierSeries(n, shape, order, coeffs)


def _dense_stacked_solve(rhs, omega, block):
    """The stated oracle: one block-diagonal system over all stored modes,
    solved in a single least-squares call."""
    keys = sorted(rhs.coeffs)
    sz = int(np.prod(rhs.shape, dtype=int))
    A = np.zeros((len(keys) * sz, len(keys) * sz), dtype=complex)
    b = np.zeros(len(keys) * sz, dtype=complex)
    for i, k in enumerate(keys):
        A[i * sz:(i + 1) * sz, i * sz:(i + 1) * sz] = block(np.asarray(k, float))
        b[i * sz:(i + 1) * sz] = rhs.coeffs[k].ravel()
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return {k: x[i * sz:(i + 1) * sz].reshape(rhs.shape)
            for i, k in enumerate(keys)}


def _rel_gap(sol, oracle):
    scale = max(float(np.max(np.abs(v))) for v in oracle.values())
    gap = 0.0
    for k, v in oracle.items():
        got = sol.coeffs.get(k, np.zeros_like(v))
        gap = max(gap, float(np.max(np.abs(got - v))))
    return gap / scale


def test_criterion_03_cohomology_against_dense_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(33)
    params = DiophantineParams(TAU, 1e-9, 12)
    implied = {1: [], 2: []}
    worst = 0.0
    count = 0
    for i in range(25):
        n = 1 + i % 2
        order = int(rng.integers(6, 13))
        omega = rng.uniform(1.0, 2.0, n)
        rhs = _random_series(rng, n, (2,), order, nmodes=4 + 2 * n)
        sol = solve_scalar(rhs, omega, params)
        oracle = _dense_stacked_solve(
            rhs, omega, lambda k: 1j * float(k @ omega) * np.eye(2))
        worst = max(worst, _rel_gap(sol, oracle))
        count += 1
        best, _, _ = scan_divisors(omega, np.zeros(0), TAU, order)
        est = verify_estimate(rhs, sol, omega,
                              DiophantineParams(TAU, best, order), 0.4, 0.2)
        implied[n].append(est.implied_c)
    inv1 = fix_spaces(np.diag([1.0, -1.0]))
    for i in range(25):
        n = 1 + i % 2
        order = int(rng.integers(6, 13))
        omega = rng.uniform(1.0, 2.0, n)
        b, c = rng.uniform(0.4, 1.6, 2)
        Qm = np.array([[0.0, b], [-c, 0.0]])
        Q = RevMatrix(Qm, inv1)
        rhs = _random_series(rng, n, (2,), order, nmodes=4 + 2 * n)
        sol = solve_normal(rhs, omega, Q)
        oracle = _dense_stacked_solve(
            rhs, omega, lambda k: 1j * float(k @ omega) * np.eye(2) - Qm)
        worst = max(worst, _rel_gap(sol, oracle))
        count += 1
    ratios = {n: max(v) / min(v) for n, v in implied.items()}
    elapsed = time.monotonic() - t0
    report("criterion 3", instances=count, worst_rel_gap=worst,
           implied_ratio_n1=ratios[1], implied_ratio_n2=ratios[2],
           elapsed=elapsed)
    assert count == 50
    assert worst <= 1e-12
    assert ratios[1] < 1e3 and ratios[2] < 1e3
    assert elapsed < 10.0


def _block_inv(p):
    return fix_spaces(np.diag(np.concatenate([np.ones(p), -np.ones(p)])))


def _random_gl_minus(rng, inv):
    basis = inv.gl_minus_basis()
    return sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))


def test_criterion_04_fix_range_solver():
    t0 = time.monotonic()
    rng = np.random.default_rng(44)
    worst = 0.0
    for i in range(100):
        p = 1 + i % 4
        inv = _block_inv(p)
        if i % 2 == 0:
            while True:     # invertible: trivial kernel
                Qm = _random_gl_minus(rng, inv)
                if abs(np.linalg.det(Qm)) > 1e-3:
                    break
        else:               # kernel exactly Fix(-R): lower-block form
            Qm = np.zeros((2 * p, 2 * p))
            Qm[p:, :p] = rng.standard_normal((p, p)) + 2.0 * np.eye(p)
        Q = RevMatrix(Qm, inv)
        delta0 = inv.fix_plus @ rng.standard_normal(p)
        psi = -Qm @ delta0
        delta = solve_fix_range(Q, psi)
        worst = max(worst, float(np.max(np.abs(Qm @ delta + psi))))
    assert worst <= 1e-10
    hits = 0
    for p in (2, 3, 4):
        for s in (0.5, 1.0, 2.0):
            Qm = np.zeros((2 * p, 2 * p))
            Qm[p, 0] = s            # range inside Fix(-R) is a single line
            psi = np.zeros(2 * p)
            psi[p + 1] = 1.0        # anti-invariant but off that line
            with pytest.raises(Obstruction):
                solve_fix_range(RevMatrix(Qm, _block_inv(p)), psi)
            hits += 1
    elapsed = time.monotonic() - t0
    report("criterion 4", instances=100, worst_residual=worst,
           obstructions=hits, elapsed=elapsed)
    assert elapsed < 5.0


def test_criterion_05_versality_certificates():
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    inv1 = _block_inv(1)
    base = RevMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), inv1)
    rep = is_versal(Unfolding(base, [np.array([[0.0, 0.0], [1.0, 0.0]])]))
    assert rep.versal and rep.miniversal and rep.codim == 1

    mv = MiniversalNilpotent(1)
    nil_unf = mv.base_unfolding()
    L0 = mv.L_tilde(np.zeros((1, 1)))
    for trial in range(10):
        p = 1 + trial % 3
        invp = _block_inv(p)
        while True:     # nonsingular with simple spectrum, disjoint from {0}
            Qp = _random_gl_minus(rng, invp)
            eig = np.linalg.eigvals(Qp)
            gaps = [abs(a - b) for i, a in enumerate(eig)
                    for b in eig[i + 1:]]
            if min(np.abs(eig)) > 0.1 and (not gaps or min(gaps) > 0.05):
                break
        Rbig = scipy.linalg.block_diag(mv.J_tilde, np.diag(
            np.concatenate([np.ones(p), -np.ones(p)])))
        Qbig = RevMatrix(scipy.linalg.block_diag(L0, Qp), fix_spaces(Rbig))
        znil = np.zeros((2, 2))
        zp = np.zeros((2 * p, 2 * p))
        dirs = [scipy.linalg.block_diag(D, zp) for D in nil_unf.directions]
        dirs += [scipy.linalg.block_diag(znil, B)
                 for B in invp.gl_minus_basis()]
        assert is_versal(Unfolding(Qbig, dirs)).versal

    codims = []
    for trial in range(10):
        p = 1 + trial % 3
        invp = _block_inv(p)
        while True:
            Qp = _random_gl_minus(rng, invp)
            eig = np.linalg.eigvals(Qp)
            gaps = [abs(a - b) for i, a in enumerate(eig)
                    for b in eig[i + 1:]]
            if not gaps or min(gaps) > 0.05:
                break
        _, codim = orbit_tangent(RevMatrix(Qp, invp))
        codims.append((p, codim))
        assert codim == p
    elapsed = time.monotonic() - t0
    report("criterion 5", direct_sums=10, codims=codims, elapsed=elapsed)
    assert elapsed < 5.0


def test_criterion_06_end_to_end_normalization(crit6):
    run = crit6.run
    hist = run.residual_history
    steps = len(hist) - 1
    assert steps <= 6
    assert hist[-1] <= 1e-10
    for before, after in zip(hist, hist[1:]):
        assert after <= max(1e6 * before ** 2, 1e-11)
    assert crit6.dev <= 1e-6
    assert crit6.rot <= 1e-8
    report("criterion 6", steps=steps, final_residual=hist[-1],
           torus_deviation=crit6.dev, rotation_error=crit6.rot,
           elapsed=crit6.elapsed)
    assert crit6.elapsed < 60.0


def test_criterion_07_augmented_route_cancellations(crit6, crit7):
    aug = crit7.aug
    canc = aug.cancellations
    assert float(np.max(np.abs(aug.W))) <= 1e-9
    assert canc["sigma_y_block"] <= 1e-9
    assert canc["sigma_z_block"] <= 1e-9
    assert canc["sigma_const_variation"] <= 1e-9
    assert canc["sigma_sigma_variation"] <= 1e-9
    assert canc["shift_formula_gap"] <= 1e-8
    direct = crit6.run
    agree = max(float(np.max(np.abs(aug.u - direct.u))),
                float(np.max(np.abs(aug.sigma_value() - direct.v))),
                float(np.max(np.abs(aug.v - direct.w))))
    assert agree <= 1e-8
    report("criterion 7", unfolding_shift=canc["unfolding_shift"],
           c1=canc["sigma_y_block"], c3=canc["sigma_z_block"],
           c0_var=canc["sigma_const_variation"],
           c2_var=canc["sigma_sigma_variation"],
           formula_gap=canc["shift_formula_gap"], route_agreement=agree,
           elapsed=crit7.elapsed)
    assert crit7.elapsed < 120.0


def test_criterion_08_shift_linearity(crit8):
    slopes = {}
    for name in ("u", "v", "w"):
        per_delta = {d: float(np.max(np.abs(getattr(r, name)))) / d
                     for d, r in crit8.runs.items()}
        spread = max(per_delta.values()) / min(per_delta.values())
        slopes[name] = (per_delta, spread)
        assert spread < 10.0
    report("criterion 8",
           **{f"{k}_spread": v for k, (_, v) in slopes.items()})


def test_criterion_09_measure_of_bad_frequencies():
    t0 = time.monotonic()
    gammas = np.array([0.02, 0.04, 0.08])
    fractions = np.array(complement_measure_estimate([(1.0, 2.0), (1.0, 2.0)], [], TAU,
                                                     gammas, 4000, 50, seed=12345))
    assert fractions[0] <= fractions[1] <= fractions[2]
    slope = float(gammas @ fractions / (gammas @ gammas))
    rel = float(np.max(np.abs(fractions - slope * gammas)) /
                np.max(fractions))
    elapsed = time.monotonic() - t0
    report("criterion 9", fractions=list(fractions), slope=slope,
           fit_rel_residual=rel, elapsed=elapsed)
    assert rel < 0.30
    assert elapsed < 30.0


def test_criterion_10_persistence_pipeline(crit10):
    moment = FrequencyCurve(
        lambda sigma, mu: np.array([1.0, mu[0], mu[0] ** 2, mu[0] ** 3]),
        box=[(0.5, 2.0)], n=4, m=1)
    assert is_ruessmann_nondegenerate(moment, 64).nondegenerate
    flat = FrequencyCurve(lambda sigma, mu: np.array([1.0, 2.0, 3.0, 4.0]),
                          box=[(0.5, 2.0)], n=4, m=1)
    assert not is_ruessmann_nondegenerate(flat, 64).nondegenerate

    rep = crit10.rep
    ok = rep.accepted()
    assert len(rep.points) == 20
    assert len(ok) >= 1
    for pt in ok:
        assert pt.torus_deviation is not None and pt.torus_deviation <= 1e-6
        assert pt.phi_residual <= 1e-9
        assert pt.upsilon_residual <= 1e-9
        assert pt.margin > 0
    report("criterion 10", accepted=len(ok), rejected=20 - len(ok),
           worst_phi=max(pt.phi_residual for pt in ok),
           worst_upsilon=max(pt.upsilon_residual for pt in ok),
           worst_deviation=max(pt.torus_deviation for pt in ok),
           elapsed=crit10.elapsed)
    assert crit10.elapsed < 600.0


def test_criterion_11_reversibility_everywhere(golden_family, crit6, crit7,
                                               crit8, crit10, cfg16):
    checked = []
    for delta, fam in crit8.families.items():
        assert fam.check_reversibility(tol=1e-12) == []
        checked.append(f"family(delta={delta:g})")
    aug_fam = golden_family.augment().family
    assert aug_fam.check_reversibility(tol=1e-12) == []
    checked.append("family(augmented)")

    S = golden_family.S_w
    for delta, run in crit8.runs.items():
        assert check_transform_commutes(run.a, run.W0, run.W1, S,
                                        tol=1e-12) == []
        checked.append(f"transform(delta={delta:g})")
    core = crit7.aug.core
    assert check_transform_commutes(core.a, core.W0, core.W1, aug_fam.S_w,
                                    tol=1e-12) == []
    checked.append("transform(augmented)")

    pt = crit10.rep.accepted()[0]
    run = normalize(golden_family, pt.fsharp, pt.mu, cfg16)
    assert check_transform_commutes(run.a, run.W0, run.W1, S,
                                    tol=1e-12) == []
    checked.append("transform(pipeline point)")
    report("criterion 11", artifacts=len(checked), items=checked)
