"""Frequency curves, nondegeneracy, and the persistence pipeline.

Oracle for the Monte-Carlo fraction: replay the sampling with the same rng
and count failures over an itertools mode enumeration.
"""
import dataclasses
import itertools
import multiprocessing
import os

import numpy as np
import pytest

from conftest import GOLDEN, MU0, OMEGA0, make_config, make_curve_family, \
    make_golden_family
from kamrev import ruessmann
from kamrev.cli import _curve_from_config
from kamrev.errors import SingularMode
from kamrev.ruessmann import (FrequencyCurve, PolynomialCurve, diophantine_fraction,
                              is_ruessmann_nondegenerate, persistence_pipeline,
                              uniform_grid)

DELTA = 1e-4


def drift_curve():
    return FrequencyCurve(
        lambda sigma, mu: np.array([1.0 + 0.3 * sigma[0],
                                    1.55 + mu[0] + 0.5 * sigma[0]]),
        box=[(0.0, 0.12)], n=2, m=1)


def elliptic_curve():
    # frequencies pinned near (1, golden) while mu sweeps the normal rotation
    return FrequencyCurve(
        lambda sigma, mu: np.array([1.0 + 0.2 * sigma[0],
                                    GOLDEN + 0.3 * sigma[0] + 0.8 * (mu[0] - 0.125)]),
        box=[(0.03, 0.22)], n=2, m=1)


def test_uniform_grid_covers_box():
    g = uniform_grid([(0.0, 1.0)], 5)
    assert g.shape == (5, 1)
    assert g[0, 0] == 0.0 and g[-1, 0] == 1.0
    g2 = uniform_grid([(0.0, 1.0), (2.0, 3.0)], 4)
    assert g2.shape == (16, 2)
    assert g2[:, 1].min() == 2.0 and g2[:, 1].max() == 3.0


def test_cli_polynomial_curve_evaluates_a_stack_bit_for_bit():
    curve = _curve_from_config({"box": [[0.0, 0.1]],
                                "components": [{"muPoly": [1.0]},
                                               {"muPoly": [1.55, 1.0, -0.3]}],
                                "sigmaLinear": [[0.3], [0.5]]})
    assert isinstance(curve, PolynomialCurve)
    mus = np.random.default_rng(2).uniform(0.0, 0.1, (500, 1))
    stacked = curve.at(mus)
    assert stacked.shape == (500, 2)
    for mu, row in zip(mus, stacked):
        np.testing.assert_array_equal(row, curve.at(mu))
    np.testing.assert_array_equal(
        curve.F(np.array([0.2]), np.array([0.05])),
        [np.polyval([1.0], 0.05) + 0.3 * 0.2,
         np.polyval([-0.3, 1.0, 1.55], 0.05) + 0.5 * 0.2])


def test_library_curve_maps_a_stack_over_its_rows():
    curve = FrequencyCurve(lambda sigma, mu: np.array([1.0, mu[0] ** 2 + mu[1]]),
                           box=[(0.0, 1.0), (0.0, 1.0)], n=2, m=1)
    mus = np.random.default_rng(4).uniform(0.0, 1.0, (7, 2))
    assert np.array_equal(curve.at(mus), [curve.at(mu) for mu in mus])
    assert curve.at(mus[:0]).shape == (0, 2)


def test_moment_curve_is_nondegenerate():
    curve = FrequencyCurve(
        lambda sigma, mu: np.array([1.0, mu[0], mu[0] ** 2, mu[0] ** 3]),
        box=[(0.5, 2.0)], n=4, m=1)
    rep = is_ruessmann_nondegenerate(curve, 64, seed=0)
    assert rep.nondegenerate and rep.rank == 4
    assert rep.normal is None


def test_degenerate_curves_produce_a_normal():
    const = FrequencyCurve(lambda sigma, mu: np.array([1.0, 2.0]),
                           box=[(0.0, 1.0)], n=2, m=1)
    rep = is_ruessmann_nondegenerate(const, 32)
    assert not rep.nondegenerate and rep.rank == 1
    assert abs(np.dot(rep.normal, [1.0, 2.0])) < 1e-9

    ray = FrequencyCurve(lambda sigma, mu: mu[0] * np.array([1.0, 2.0]),
                         box=[(0.5, 1.5)], n=2, m=1)
    rep2 = is_ruessmann_nondegenerate(ray, 32)
    assert not rep2.nondegenerate
    assert abs(np.dot(rep2.normal, [1.0, 2.0])) < 1e-9
    with pytest.raises(ValueError):
        is_ruessmann_nondegenerate(const, 1)


def test_diophantine_fraction_matches_replayed_sampling():
    curve = drift_curve()
    tau, gamma, kmax, samples, seed = 1.5, 5e-2, 6, 60, 11
    got = diophantine_fraction(curve, tau, gamma, kmax, samples, seed=seed)
    rng = np.random.default_rng(seed)
    mus = np.column_stack([rng.uniform(lo, hi, samples) for lo, hi in curve.box])
    modes = [k for k in itertools.product(range(-kmax, kmax + 1), repeat=2)
             if 0 < sum(abs(c) for c in k) <= kmax]
    bad = 0
    for mu in mus:
        omega = curve.at(mu)
        vals = [abs(np.dot(k, omega)) * sum(abs(c) for c in k) ** tau
                for k in modes]
        if min(vals) < gamma:
            bad += 1
    assert got == bad / samples


def test_diophantine_fraction_replay_spans_several_row_blocks():
    from kamrev.diophantine import SCAN_ROWS
    curve = drift_curve()
    tau, gamma, kmax, samples, seed = 1.5, 5e-2, 6, 1500, 4
    assert samples > 2 * SCAN_ROWS
    got = diophantine_fraction(curve, tau, gamma, kmax, samples, seed=seed)
    rng = np.random.default_rng(seed)
    mus = np.column_stack([rng.uniform(lo, hi, samples) for lo, hi in curve.box])
    modes = [k for k in itertools.product(range(-kmax, kmax + 1), repeat=2)
             if 0 < sum(abs(c) for c in k) <= kmax]
    bad = 0
    for mu in mus:
        omega = curve.at(mu)
        if min(abs(np.dot(k, omega)) * sum(abs(c) for c in k) ** tau
               for k in modes) < gamma:
            bad += 1
    assert got == bad / samples


@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_fraction_rejects_tau_at_or_below_n_minus_1(tau):
    with pytest.raises(ValueError, match="tau must exceed n-1 = 1"):
        diophantine_fraction(drift_curve(), tau, 5e-2, 6, 10)


def test_fraction_grows_with_gamma():
    curve = drift_curve()
    fs = [diophantine_fraction(curve, 1.5, g, 16, 300, seed=5)
          for g in (1e-4, 1e-2, 0.3)]
    assert fs[0] <= fs[1] <= fs[2]
    assert fs[0] == 0.0  # the curve is built to clear tiny gamma everywhere


def test_pipeline_drift_family_accepts_and_rejects_deterministically():
    """omega2 passes through 8/5 at mu = 0.05: that grid point must fall."""
    fam = make_curve_family(delta=DELTA, order=12)
    curve = FrequencyCurve(
        lambda sigma, mu: np.array([1.0 + 0.3 * sigma[0],
                                    1.55 + mu[0] + 0.5 * sigma[0]]),
        box=[(0.0, 0.1)], n=2, m=1)
    cfg = make_config(horizon=16, tol=1e-11)
    rep = persistence_pipeline(fam, curve, cfg, grid_count=3, T=20.0)
    assert len(rep.points) == 3
    ok = rep.accepted()
    assert [bool(pt.accepted) for pt in rep.points] == [True, False, True]
    assert rep.rejected_fraction == pytest.approx(1 / 3)
    assert "SmallDivisor" in rep.points[1].reason
    for pt in ok:
        assert pt.margin > 0
        assert pt.torus_deviation < 1e-6
        assert pt.rotation_error < 1e-8
        assert pt.phi_residual <= 1e-12
        assert pt.upsilon_residual == 0.0  # no family parameters to identify
        # drift offset responds at first order to the forcing
        assert 0 < abs(pt.theta[0]) < 20 * DELTA
        # the accepted frequency sits where the curve says it should
        assert abs(pt.fsharp[0] - 1.0) < 20 * DELTA


def test_pipeline_identifies_family_parameter():
    """s = 1|that is, the curve box feeds the family's own parameter and the
    outer loop must undo the mu-shift."""
    fam = make_golden_family(delta=DELTA, order=8)
    curve = elliptic_curve()
    assert is_ruessmann_nondegenerate(curve, 32).nondegenerate
    cfg = make_config(horizon=12, gamma=1e-2, tol=1e-11)
    grid = np.array([[0.08], [0.125], [0.17]])
    rep = persistence_pipeline(fam, curve, cfg, grid=grid, T=20.0)
    ok = rep.accepted()
    assert len(ok) == 3, [pt.reason for pt in rep.points]
    for pt in ok:
        assert pt.upsilon_residual <= 1e-12
        assert pt.phi_residual <= 1e-12
        assert pt.torus_deviation < 1e-6
        assert pt.rotation_error < 1e-8
        assert pt.margin > 0
        # frequency must lie on the curve up to the computed drift/parameter
        # (phi and upsilon residuals already enforce this; sanity-check scale)
        assert abs(pt.fsharp[1] - (GOLDEN + 0.8 * (pt.mu[0] - 0.125))) < 1e-2


def test_pipeline_rejects_everything_at_absurd_gamma():
    fam = make_curve_family(delta=DELTA, order=8)
    curve = drift_curve()
    cfg = make_config(tau=1.2, gamma=1.0, horizon=8, tol=1e-11)
    rep = persistence_pipeline(fam, curve, cfg, grid_count=2, T=5.0)
    assert rep.accepted() == []
    assert rep.rejected_fraction == 1.0
    for pt in rep.points:
        assert "margin" in pt.reason or "SmallDivisor" in pt.reason


def test_pipeline_certifies_at_config_and_normalizes_at_quarter_gamma(monkeypatch):
    """The config is the one carrier of (tau, gamma, horizon): the report
    certifies at it, and every normalization runs at its horizon with a
    quarter of its gamma."""
    fam = make_curve_family(delta=DELTA, order=8)
    g = 5e-3
    cfg = make_config(horizon=8, gamma=g, tol=1e-11)
    normalize = ruessmann.normalize
    seen = []

    def spy(family, omega0, mu0, config):
        seen.append(config)
        return normalize(family, omega0, mu0, config)

    monkeypatch.setattr(ruessmann, "normalize", spy)
    rep = persistence_pipeline(fam, drift_curve(), cfg, grid_count=2, verify=False)
    assert (rep.params.tau, rep.params.gamma, rep.params.kmax) == (cfg.tau, g, 8)
    # at least one normalization per grid point, each at horizon 8 and gamma g/4
    assert len(seen) >= 2
    assert seen == [dataclasses.replace(cfg, gamma=g / 4)] * len(seen)


def test_pipeline_validates_parameter_counts():
    fam = make_golden_family(delta=DELTA, order=8)  # s = 1
    bad_curve = FrequencyCurve(lambda sigma, mu: OMEGA0 + mu,
                               box=[(0.0, 0.1), (0.0, 0.1)], n=2, m=1)
    with pytest.raises(ValueError):
        persistence_pipeline(fam, bad_curve, make_config(gamma=1e-2, horizon=8))
    # grid rows must have the curve box's dimension, one parameter value each
    for grid in ([[0.02, 0.07]], [0.02, 0.07], np.zeros((0, 1))):
        with pytest.raises(ValueError):
            persistence_pipeline(make_curve_family(delta=DELTA, order=8), drift_curve(),
                                 make_config(gamma=1e-2, horizon=8), grid=grid)


def test_report_serialization_shapes():
    fam = make_curve_family(delta=DELTA, order=8)
    curve = drift_curve()
    cfg = make_config(horizon=12, tol=1e-11)
    rep = persistence_pipeline(fam, curve, cfg, grid_count=2, T=10.0)
    doc = rep.to_json()
    assert doc["rejectedFraction"] == rep.rejected_fraction
    assert len(doc["points"]) == 2
    for row in doc["points"]:
        assert set(row) >= {"mu", "accepted", "reason", "fsharp", "theta",
                            "margin"}
    rows = rep.to_csv_rows()
    assert len(rows) == 3 and rows[0][0] == "mu"  # header + one row per point


# omega = (1, 8/5) at mu = 0.05 on drift_curve: at horizon 16 the middle
# point is rejected with a small divisor
SPLIT_GRID = np.array([[0.0], [0.03], [0.05], [0.08], [0.11]])


@pytest.mark.parametrize("workers", [2, 3, 9])
def test_pipeline_in_forked_workers_returns_the_serial_points(workers):
    """drift_curve holds a lambda, which cannot be pickled: the workers get
    it by fork.  9 workers over 5 points run one point per chunk."""
    fam = make_curve_family(delta=DELTA, order=8)
    cfg = make_config(horizon=16, tol=1e-11)
    serial = persistence_pipeline(fam, drift_curve(), cfg, grid=SPLIT_GRID, T=5.0)
    forked = persistence_pipeline(fam, drift_curve(), cfg, grid=SPLIT_GRID, T=5.0,
                                  workers=workers)
    assert [pt.accepted for pt in serial.points] == [True, True, False, True, True]
    assert forked.to_json() == serial.to_json()
    assert forked.to_csv_rows() == serial.to_csv_rows()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [RuntimeError("internal bug"),
                                   SingularMode((3, -2), 1e12)],
                         ids=["RuntimeError", "SingularMode"])
@pytest.mark.parametrize("where", ["worker", "caller"])
def test_pipeline_chunk_errors_propagate_and_leave_no_process(monkeypatch, error, where):
    """An exception the pipeline does not catch leaves it unchanged from
    either side of the fork, and every worker is joined."""
    caller = os.getpid()
    identify = ruessmann._identify

    def failing(family, curve, mu_curve, *args):
        if (os.getpid() == caller) == (where == "caller") and mu_curve[0] > 0:
            raise error
        return identify(family, curve, mu_curve, *args)

    monkeypatch.setattr(ruessmann, "_identify", failing)
    with pytest.raises(type(error)) as info:
        persistence_pipeline(make_curve_family(delta=DELTA, order=8), drift_curve(),
                             make_config(horizon=16, tol=1e-11), grid=SPLIT_GRID[:4],
                             verify=False, workers=2)
    assert str(info.value) == str(error) and vars(info.value) == vars(error)
    assert multiprocessing.active_children() == []
    assert ruessmann._INHERITED is None


def test_pipeline_rejects_fewer_than_one_worker():
    with pytest.raises(ValueError, match="workers"):
        persistence_pipeline(make_curve_family(delta=DELTA, order=8), drift_curve(),
                             make_config(horizon=12), grid=SPLIT_GRID, workers=0)
