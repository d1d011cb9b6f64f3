"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is one `kamrev` CLI command fed a config that `make_config`
builds from the workload seed.  `check_*` inspect the written report and
return a list of problems; an empty list means the pass produced a correct
result.  The family builders follow the test suite's golden elliptic family
and drift-curve family; the golden family's random perturbation is one fixed
draw that the seed only rescales (see `golden_family`).
"""
import numpy as np

from kamrev import FourierSeries, ReversibleFamily
from kamrev.ftaylor import FourierTaylor
from kamrev.revsystem import symmetrize_w_rows, symmetrize_x_row, verify_torus

GOLDEN = (1 + np.sqrt(5)) / 2
OMEGA0 = [1.0, GOLDEN]
MU0 = [0.04]

# Full sizes of each workload; the self-test passes smaller ones.
TORUS = dict(order=12, degree=3, delta=1e-4, tol=1e-11)
SWEEP = dict(order=12, grid_points=7, T=20.0, fraction_samples=10000,
             horizon=16)
DIVISORS = dict(kmax=50, samples=4000, gammas=[0.02, 0.04, 0.08])


# -- torus: the golden elliptic family -------------------------------------------


def _random_taylor(rng, jitter, n, q, dim, order, degree, kmax=2, deg=2):
    """Random real trig polynomial with modes |k|_1 <= kmax, w-degree <= deg.

    `rng` draws the modes and base coefficients; `jitter` scales each
    coefficient by a factor in [0.8, 1.2]."""
    terms = {}
    for _ in range(3 * dim):
        alpha = tuple(int(e) for e in rng.multinomial(rng.integers(0, deg + 1),
                                                      np.ones(q) / q)) if q else ()
        k = tuple(int(c) for c in rng.integers(-kmax, kmax + 1, size=n))
        if sum(abs(c) for c in k) > kmax:
            continue
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = v * jitter.uniform(0.8, 1.2, dim)
        if all(c == 0 for c in k):
            v = v.real.astype(complex)
        coeffs = {k: v}
        mk = tuple(-c for c in k)
        if mk != k:
            coeffs[mk] = np.conj(v)
        s = FourierSeries(n, (dim,), order, coeffs)
        got = terms.get(alpha)
        terms[alpha] = s if got is None else got + s
    return FourierTaylor(n, q, (dim,), order, degree, terms)


def golden_family(seed, order, degree, delta, base_seed=6):
    """n=2, m=1, p=1, s=1; elliptic normal part Q(mu) = [[0, 1+mu], [-1, 0]],
    R = diag(1, -1).

    `base_seed` fixes the random perturbation's modes and coefficients, and
    `seed` scales each coefficient by a factor in [0.8, 1.2].  Redrawing the
    modes per seed would change the work threefold (two or three sweeps,
    sparser or denser series), which would swamp any change in kamrev."""
    n, m, p, s = 2, 1, 1, 1
    d, q, qe = 2 * p, m + 2 * p, m + 2 * p + m
    N, D = order, degree
    R = np.diag([1.0, -1.0])
    Q_terms = {
        (0, 0, 0): np.array([[0.0, 1.0], [-1.0, 0.0]]),
        (0, 0, 1): np.array([[0.0, 1.0], [0.0, 0.0]]),
    }

    def const(vec):
        return FourierSeries.constant(n, np.asarray(vec, dtype=float), N)

    xi = FourierTaylor(n, qe, (n,), N, D, {
        (0, 1, 0, 0): const([0.3, 0.1]),
        (2, 0, 0, 0): const([0.2, 0.0]),
    })
    eta = FourierTaylor(n, qe, (m,), N, D, {
        (2, 0, 0, 0): const([0.25]),
        (0, 2, 0, 0): const([0.15]),
        (1, 0, 1, 0): const([-0.1]),
    })
    zeta = FourierTaylor(n, qe, (d,), N, D, {
        (0, 1, 1, 0): const([0.2, 0.0]),
        (2, 0, 0, 0): const([0.0, 0.1]),
        (1, 0, 1, 0): const([0.0, 0.15]),
        (0, 0, 1, 1): const([0.2, 0.0]),
        (0, 1, 0, 1): const([0.0, 0.3]),
    })
    base = ReversibleFamily(n, m, p, s, np.array(OMEGA0), R, Q_terms, xi, eta,
                            zeta, None, None, None, order=N, degree=D)

    rng = np.random.default_rng(base_seed)
    jitter = np.random.default_rng(seed)
    S = base.S_w
    f = symmetrize_x_row(_random_taylor(rng, jitter, n, q, n, N, D), S)
    gh = symmetrize_w_rows(_random_taylor(rng, jitter, n, q, q, N, D), S)
    g = gh.map_values(lambda v: v[:m], shape=(m,))
    h = gh.map_values(lambda v: v[m:], shape=(d,))
    # fixed zero-mode content so all three parameter shifts respond at first
    # order in the perturbation size
    f = f + FourierTaylor.from_series(const([0.8, -0.5]), q, D)
    g = g + FourierTaylor.from_series(const([0.7]), q, D)
    # zero-mode z-linear piece anti-commuting with R: drives the unfolding shift
    M = np.array([[0.0, 0.6], [0.4, 0.0]])
    hz = {}
    for j in range(d):
        alpha = [0] * q
        alpha[m + j] = 1
        hz[tuple(alpha)] = const(M[:, j])
    h = h + FourierTaylor(n, q, (d,), N, D, hz)

    def rescale(F):
        maj = F.majorant()
        return F * (delta / maj) if maj > 0 else F

    return base.with_perturbation(rescale(f), rescale(g), rescale(h))


def torus_config(seed, order, degree, delta, tol):
    return {"family": golden_family(seed, order, degree, delta).to_json(),
            "omega0": OMEGA0, "mu0": MU0, "tau": 1.5, "gamma": 5e-3,
            "horizon": order, "tol": tol}


# -- sweep: the drift-curve family -----------------------------------------------


def curve_family(order, degree=3, delta=1e-4):
    """Drift-only family (no normal directions, no external parameters) whose
    invariant tori are identified along a frequency curve."""
    n, m = 2, 1
    N, D = order, degree
    eta = FourierTaylor(n, 2 * m, (m,), N, D, {
        (2, 0): FourierSeries.constant(n, np.array([0.1]), N)})
    f = (FourierTaylor.from_series(
            FourierSeries.cosine(n, (1, 0), np.array([1.0, 0.4]) * delta, N), m, D)
         + FourierTaylor.from_series(
            FourierSeries.constant(n, np.array([0.6, -0.3]) * delta, N), m, D))
    g = (FourierTaylor.from_series(
            FourierSeries.cosine(n, (1, 1), np.array([0.8]) * delta, N), m, D)
         + FourierTaylor.from_series(
            FourierSeries.constant(n, np.array([0.5]) * delta, N), m, D))
    return ReversibleFamily(n, m, 0, 0, np.array([1.0, 1.55]), np.zeros((0, 0)),
                            {}, None, eta, None, f, g, None, order=N, degree=D)


RESONANT_MU = 0.05  # omega = (1, 1.6): 8*omega_1 - 5*omega_2 = 0


def sweep_grid(seed, points):
    """Uniform grid on [0, 0.1] through the 8/5 resonance; the seed moves
    each point but the two ends and the resonant one by up to a quarter of
    the spacing."""
    grid = np.linspace(0.0, 0.1, points)
    mid = int(np.argmin(np.abs(grid - RESONANT_MU)))
    grid[mid] = RESONANT_MU
    jitter = np.random.default_rng(seed).uniform(-0.25, 0.25, points)
    jitter[[0, mid, points - 1]] = 0.0
    return grid + jitter * (grid[1] - grid[0])


def sweep_config(seed, order, grid_points, T, fraction_samples, horizon):
    return {"family": curve_family(order).to_json(),
            "curve": {"box": [[0.0, 0.1]],
                      "components": [{"muPoly": [1.0]}, {"muPoly": [1.55, 1.0]}],
                      "sigmaLinear": [[0.3], [0.5]]},
            "tau": 1.5, "gamma": 5e-3, "kmax": horizon, "horizon": horizon,
            "tol": 1e-11, "grid": [[float(mu)] for mu in sweep_grid(seed, grid_points)],
            "T": T, "curveFractionSamples": fraction_samples, "seed": seed}


# -- divisors: the Monte-Carlo small-divisor measure -----------------------------


def divisors_config(seed, kmax, samples, gammas):
    return {"boxOmega": [[1.0, 2.0], [1.0, 2.0]], "boxBeta": [[0.5, 1.5]],
            "tau": 1.5, "kmax": kmax, "sampleCount": samples,
            "gammas": list(gammas), "seed": seed}


COMMANDS = {"torus": "normalize", "sweep": "ruessmann", "divisors": "dioph-measure"}
BUILDERS = {"torus": (torus_config, TORUS), "sweep": (sweep_config, SWEEP),
            "divisors": (divisors_config, DIVISORS)}


def make_config(workload, seed, sizes=None):
    """The CLI config of `workload` for `seed`, at full or given sizes."""
    build, full = BUILDERS[workload]
    return build(seed, **(sizes or full))


# -- output checks -----------------------------------------------------------------


def check_torus(config, report):
    """At most 6 sweeps to a residual <= 1e-10, and the reported transform
    carries an orbit of the family that stays on the torus."""
    res = report["result"]
    if res is None:
        return [f"normalize failed: {report.get('error')}"]
    problems = []
    hist = res["residualHistory"]
    if len(hist) - 1 > 6:
        problems.append(f"{len(hist) - 1} sweeps > 6")
    if not hist[-1] <= 1e-10:
        problems.append(f"final residual {hist[-1]:.3e} > 1e-10")
    fam = ReversibleFamily.from_json(config["family"])
    omega0 = np.asarray(res["omega0"])
    field = fam.instantiate(omega0 + np.asarray(res["u"]), np.asarray(res["v"]),
                            np.asarray(res["mu0"]) + np.asarray(res["w"]))
    a, W0, W1 = (FourierSeries.from_json(res[k]) for k in ("a", "W0", "W1"))
    dev, rot = verify_torus(field, a, W0, W1, omega0, T=100.0)
    if not dev <= 1e-6:
        problems.append(f"torus deviation {dev:.3e} > 1e-6")
    if not rot <= 1e-8:
        problems.append(f"rotation error {rot:.3e} > 1e-8")
    return problems


def check_sweep(config, report):
    """The 8/5 point is rejected for a small divisor; every accepted point is
    verified; no point is rejected for any other reason."""
    res = report["result"]
    if res is None:
        return [f"ruessmann failed: {report.get('error')}"]
    if not res["nondegeneracy"]["nondegenerate"]:
        return ["curve reported degenerate"]
    problems = []
    for pt in res["pipeline"]["points"]:
        mu = pt["mu"][0]
        if mu == RESONANT_MU:
            if pt["accepted"] or not pt["reason"].startswith("SmallDivisor"):
                problems.append(f"resonant point mu={mu}: {pt['reason'] or 'accepted'}")
        elif pt["accepted"]:
            if not (pt["torusDeviation"] < 1e-6 and pt["rotationError"] < 1e-8
                    and pt["phiResidual"] <= 1e-12 and pt["margin"] > 0):
                problems.append(f"accepted point mu={mu} fails its bounds: {pt}")
        elif not (pt["reason"].startswith("SmallDivisor")
                  or pt["reason"].startswith("frequency not Diophantine")):
            problems.append(f"point mu={mu} rejected: {pt['reason']}")
    return problems


def check_divisors(config, report):
    """Fractions grow with gamma and follow the linear law within 30%."""
    res = report["result"]
    if res is None:
        return [f"dioph-measure failed: {report.get('error')}"]
    problems = []
    fr = res["fractions"]
    if any(b < a for a, b in zip(fr, fr[1:])):
        problems.append(f"fractions decrease with gamma: {fr}")
    if not res["fitRelResidual"] < 0.30:
        problems.append(f"fit relative residual {res['fitRelResidual']:.3f} >= 0.30")
    return problems


CHECKS = {"torus": check_torus, "sweep": check_sweep, "divisors": check_divisors}
