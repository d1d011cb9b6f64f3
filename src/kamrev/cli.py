"""Batch experiment driver.

Loads a JSON config, validates it against the shipped schema for the chosen
subcommand, dispatches to the library, and writes a JSON report (plus
optional CSV plot data).  Exit codes: 0 success, 2 config/validation error
(nothing is computed), 3 computational failure (the error is embedded in
the report); any other exception is a bug and keeps its traceback.
Reports are byte-identical for identical config + seed; wall-clock
timestamps live in the separate "metadata" field.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone
from importlib.resources import files

import jsonschema
import numpy as np
from referencing import Registry
from referencing.jsonschema import DRAFT202012

from . import __version__
from .cohomology import (solve_commutator, solve_normal, solve_right,
                         solve_scalar, verify_estimate)
from .diophantine import (DiophantineParams, complement_measure_estimate,
                          is_diophantine_pair)
from .errors import KamrevError, NotAntiInvariant
from .fourier import FourierSeries
from .normalizer import NormalizerConfig, normalize, normalize_augmented
from .revmat import (MiniversalNilpotent, RevMatrix, Unfolding, fix_spaces,
                     is_versal, kernel_condition)
from .revsystem import ReversibleFamily, ToySolution, toy_ex1, toy_ex2, toy_linear
from .ruessmann import (FrequencyCurve, diophantine_fraction,
                        is_ruessmann_nondegenerate, persistence_pipeline)

log = logging.getLogger("kamrev")


class ConfigError(Exception):
    pass


# -- config plumbing ------------------------------------------------------------


def _load_schema(name):
    res = files("kamrev") / "schemas" / f"{name}.json"
    return json.loads(res.read_text())


def _load_config(path):
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _schema_registry():
    """The shared definitions, which the schemas reference as `defs.json`."""
    defs = DRAFT202012.create_resource(_load_schema("defs"))
    return Registry().with_resource("defs.json", defs)


def _validate(config, name, schema=None):
    """Check config against ``schema``, by default the command's own."""
    if schema is None:
        # normalize-augmented takes the same config as normalize
        schema = _load_schema("normalize" if name == "normalize-augmented" else name)
    try:
        jsonschema.validate(config, schema, cls=jsonschema.Draft202012Validator,
                            registry=_schema_registry())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected by schema {name}: "
                          f"{exc.message} (at {list(exc.absolute_path)})") from exc


def _config_hash(config):
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _effective_seed(config, args):
    if args.seed is not None:
        return int(args.seed)
    return int(config.get("seed", 0)) if isinstance(config, dict) else 0


def _write_report(out_dir, command, config, seed, result, error=None):
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "command": command,
        "version": __version__,
        "configHash": _config_hash(config),
        "seed": seed,
        "result": result,
        "metadata": {"generatedAt": datetime.now(timezone.utc).isoformat()},
    }
    if error is not None:
        report["error"] = error
    path = os.path.join(out_dir, f"{command}-report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(out_dir, command, rows):
    path = os.path.join(out_dir, f"{command}-plot.csv")
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
    return path


def _decode(command, config, config_path):
    """The config with its documents decoded into library objects and its
    parts checked against one another, so that a value the library rejects is
    a configuration error, found before any computation starts."""
    cfg = dict(config)
    try:
        if "family" in cfg:
            doc = cfg["family"]
            if isinstance(doc, str):
                base = os.path.dirname(os.path.abspath(config_path))
                with open(os.path.join(base, doc)) as fh:
                    doc = json.load(fh)
                _validate(doc, f"{command} (family file {cfg['family']})",
                          {"$ref": "defs.json#/$defs/family"})
            cfg["family"] = ReversibleFamily.from_json(doc)
        if "rhs" in cfg:
            cfg["rhs"] = FourierSeries.from_json(cfg["rhs"])
        if command in ("dioph-check", "cohomology-solve", "ruessmann"):
            cfg["params"] = DiophantineParams(cfg["tau"], cfg["gamma"], cfg["kmax"])
            if "omega" in cfg:
                cfg["params"].validate_for(len(cfg["omega"]))
        if cfg.get("Q") is not None:
            Q, R = np.asarray(cfg["Q"], dtype=float), np.asarray(cfg["R"], dtype=float)
            if Q.ndim != 2 or Q.shape != R.shape or Q.shape[0] != Q.shape[1]:
                raise ValueError("Q and R must be square matrices of one size")
        if command == "cohomology-solve":
            kind, shape = cfg["kind"], cfg["rhs"].shape
            if kind != "scalar":
                d = len(cfg["Q"])
                fits = {"normal": shape[:1] == (d,), "right": shape[-1:] == (d,),
                        "commutator": shape == (d, d)}[kind]
                if not fits:
                    raise ValueError(f"rhs shape {shape} does not fit a {kind} solve "
                                     f"with a {d}x{d} Q")
            rho = cfg.get("rho")
            if rho is not None and not 0 < cfg.get("rhoPrime", rho / 2.0) < rho:
                raise ValueError("rhoPrime must lie in (0, rho)")
        if command == "ruessmann":
            n, dim = len(cfg["curve"]["components"]), len(cfg["curve"]["box"])
            if cfg.setdefault("rankSamples", 64) < n:
                raise ValueError(f"rankSamples must be at least the curve's n = {n}")
            if cfg["family"].s not in (0, dim):
                raise ValueError(f"family has s = {cfg['family'].s} parameters; "
                                 f"need 0 or the curve box dimension {dim}")
            # the sweep normalizes with divisors up to kmax
            if cfg.setdefault("horizon", cfg["kmax"]) != cfg["kmax"]:
                raise ValueError(f"horizon {cfg['horizon']} must equal kmax {cfg['kmax']}")
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return cfg


def _reversible(fam):
    viol = fam.check_reversibility()
    if viol:
        raise NotAntiInvariant(f"family is not reversible: {viol[0]!r}")
    return fam


# config key -> (NormalizerConfig field, type); absent keys keep its defaults
_NORMALIZER_KEYS = {
    "tau": ("tau", float), "gamma": ("gamma", float), "horizon": ("horizon", int),
    "tol": ("tol", float), "maxIter": ("max_iter", int),
    "versalTol": ("versal_tol", float), "cancelTol": ("cancel_tol", float),
    "lossBudget": ("loss_budget", float),
}


def _normalizer_config(config):
    return NormalizerConfig(**{field: kind(config[key])
                               for key, (field, kind) in _NORMALIZER_KEYS.items()
                               if config.get(key) is not None})


def _rev_matrix(config):
    """The config's Q over the involution R, or None if it has no Q."""
    if config.get("Q") is None:
        return None
    R = np.asarray(config["R"], dtype=float)
    return RevMatrix(np.asarray(config["Q"], dtype=float), fix_spaces(R))


def _vec(v):
    return [float(c) for c in np.atleast_1d(np.asarray(v, dtype=float))]


def _mat(M):
    return [[float(c) for c in row] for row in np.atleast_2d(np.asarray(M, dtype=float))]


# -- subcommand handlers ---------------------------------------------------------


def _run_dioph_check(config, seed, threads):
    omega = np.asarray(config["omega"], dtype=float)
    params = config["params"]
    Q = _rev_matrix(config)
    report = is_diophantine_pair(omega, Q, params)
    return report.to_json(), None


def _run_dioph_measure(config, seed, threads):
    box_omega = [tuple(b) for b in config["boxOmega"]]
    box_beta = [tuple(b) for b in config.get("boxBeta", [])]
    gammas = config.get("gammas") or [config["gamma"]]
    fractions = []
    for gamma in gammas:
        frac = complement_measure_estimate(
            box_omega, box_beta, config["tau"], gamma,
            config["sampleCount"], config["kmax"], seed=seed, workers=threads)
        fractions.append(float(frac))
    gam = np.asarray(gammas, dtype=float)
    fr = np.asarray(fractions, dtype=float)
    slope = float(gam @ fr / (gam @ gam)) if np.any(gam) else 0.0
    fit = slope * gam
    denom = float(np.max(np.abs(fr))) if np.any(fr) else 1.0
    rel = float(np.max(np.abs(fr - fit)) / denom) if denom else 0.0
    result = {"gammas": [float(g) for g in gam], "fractions": fractions,
              "fitSlope": slope, "fitRelResidual": rel}
    rows = [["gamma", "fraction"]] + [[f"{g:.17g}", f"{f:.17g}"]
                                      for g, f in zip(gam, fr)]
    return result, rows


def _run_cohomology_solve(config, seed, threads):
    omega = np.asarray(config["omega"], dtype=float)
    params, rhs = config["params"], config["rhs"]
    kind = config["kind"]
    Q = _rev_matrix(config)
    if kind == "scalar":
        sol = solve_scalar(rhs, omega, params)
    elif kind == "normal":
        sol = solve_normal(rhs, omega, Q, params=params)
    elif kind == "right":
        sol = solve_right(rhs, omega, Q)
    else:
        sol = solve_commutator(rhs, omega, Q)
    result = {"kind": kind, "solution": sol.to_json(),
              "solutionNorm": float(sol.majorant())}
    if config.get("rho") is not None:
        est = verify_estimate(rhs, sol, omega, params, float(config["rho"]),
                              float(config.get("rhoPrime", config["rho"] / 2.0)))
        result["estimate"] = est.to_json()
    return result, None


def _run_versal_check(config, seed, threads):
    Q = _rev_matrix(config)
    directions = [np.asarray(D, dtype=float) for D in config["directions"]]
    rep = is_versal(Unfolding(Q, directions))
    kc = kernel_condition(Q)
    return {"versal": bool(rep.versal), "miniversal": bool(rep.miniversal),
            "codim": int(rep.codim), "rankDeficit": int(rep.rank_deficit),
            "directionCount": len(directions),
            "kernelTrivialOnFixPlus": bool(kc.ok),
            "epimorphism": bool(kc.epimorphism)}, None


def _run_miniversal(config, seed, threads):
    m = int(config["m"])
    mv = MiniversalNilpotent(m)
    rng = np.random.default_rng(seed)
    e_frame = e_family = 0.0
    for _ in range(int(config.get("trials", 20))):
        e1, e2 = mv.conjugation_errors(rng.standard_normal((m, m)))
        e_frame, e_family = max(e_frame, e1), max(e_family, e2)
    det_expected = (-1) ** ((m - 1) * m // 2)
    return {"m": m, "detS": int(mv.det_S), "detExpected": det_expected,
            "detMatches": mv.det_S == det_expected,
            "conjugationErrors": {"frame": float(e_frame),
                                  "family": float(e_family)},
            "identitiesHold": bool(max(e_frame, e_family) < 1e-13)}, None


def _psi_from_spec(spec):
    c0 = float(spec.get("constant", 0.0))
    cx = float(spec.get("sinX", 0.0))
    cz = float(spec.get("z", 0.0))

    def psi(x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        return c0 + cx * np.sin(x) + cz * z

    return psi


def _run_toy(config, seed, threads, variant):
    if variant == "ex1":
        eps, c = float(config["epsilon"]), float(config["c"])
        r = toy_ex1(lambda x, z: np.full_like(np.asarray(z, dtype=float), eps),
                    lambda x, z: np.full_like(np.asarray(z, dtype=float), c))
        return {"z": float(r.z), "w": float(r.w),
                "normalFormError": float(r.normal_form_error)}, None
    if variant == "ex2":
        psi1 = _psi_from_spec(config["psi1"])
        psi2 = _psi_from_spec(config["psi2"])
        r = toy_ex2(psi1, psi2)
        if isinstance(r, ToySolution):
            return {"result": "Solution", "z": float(r.z), "w": float(r.w),
                    "residual": float(r.residual)}, None
        return {"result": "NoSolution",
                "min_residual": float(r.min_residual),
                "convergedFraction": float(r.converged_fraction)}, None
    # linear
    Q_pows = [np.asarray(M, dtype=float) for M in config["QPoly"]]
    Psi_pows = [np.asarray(v, dtype=float) for v in config["PsiPoly"]]

    def Q_of_mu(mu):
        return sum(M * mu ** j for j, M in enumerate(Q_pows))

    def Psi_of_mu(mu):
        return sum(v * mu ** j for j, v in enumerate(Psi_pows))

    inv = None
    if config.get("R") is not None:
        inv = fix_spaces(np.asarray(config["R"], dtype=float))
    rows = toy_linear(Q_of_mu, Psi_of_mu, config["muSamples"], inv=inv)
    out = [{"mu": float(mu), "delta": _vec(delta), "residual": float(resid)}
           for mu, delta, resid in rows]
    csv = [["mu", "residual"]] + [[f"{r['mu']:.17g}", f"{r['residual']:.17g}"]
                                  for r in out]
    return {"samples": out}, csv


def _normalize_result_json(res):
    return {
        "omega0": _vec(res.omega0), "mu0": _vec(res.mu0),
        "u": _vec(res.u), "v": _vec(res.v), "w": _vec(res.w),
        "residualHistory": [float(r) for r in res.residual_history],
        "a": res.a.to_json(), "W0": res.W0.to_json(), "W1": res.W1.to_json(),
        "QTarget": _mat(res.Q_target) if res.Q_target.size else [],
        "diagnostics": {k: float(v) for k, v in res.diagnostics.items()},
        "smallness": res.smallness(),
    }


def _normalize_args(config):
    """(family, omega0, mu0, normalizer config) of a normalize config."""
    return (_reversible(config["family"]), np.asarray(config["omega0"], dtype=float),
            np.asarray(config.get("mu0", []), dtype=float), _normalizer_config(config))


def _run_normalize(config, seed, threads):
    return _normalize_result_json(normalize(*_normalize_args(config))), None


def _run_normalize_augmented(config, seed, threads):
    aug = normalize_augmented(*_normalize_args(config))
    return {
        "core": _normalize_result_json(aug.core),
        "u": _vec(aug.u), "v": _vec(aug.v),
        "W": _mat(aug.W) if aug.W.size else [],
        "sigmaValue": _vec(aug.sigma_value()),
        "cancellations": {k: float(v) for k, v in aug.cancellations.items()},
    }, None


def _curve_from_config(doc):
    box = [tuple(b) for b in doc["box"]]
    m = int(doc.get("m", 1))
    sigma_lin = np.asarray(doc.get("sigmaLinear",
                                   np.zeros((len(doc["components"]), m))), dtype=float)
    polys = [np.asarray(comp["muPoly"], dtype=float) for comp in doc["components"]]
    n = len(polys)

    def F(sigma, mu):
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        t = mu[0] if mu.size else 0.0
        base = np.array([float(np.polyval(p[::-1], t)) for p in polys])
        return base + sigma_lin @ sigma[:m]

    return FrequencyCurve(F, box=box, n=n, m=m)


def _run_ruessmann(config, seed, threads):
    fam = _reversible(config["family"])
    curve = _curve_from_config(config["curve"])
    params = config["params"]
    nd = is_ruessmann_nondegenerate(curve, int(config["rankSamples"]), seed=seed)
    result = {"nondegeneracy": nd.to_json()}
    if not nd.nondegenerate:
        result["pipeline"] = None
        return result, None
    if config.get("curveFractionSamples"):
        result["curveBadFraction"] = diophantine_fraction(
            curve, params.tau, params.gamma, params.kmax,
            int(config["curveFractionSamples"]), seed=seed)
    grid = config.get("grid")
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
    report = persistence_pipeline(
        fam, curve, _normalizer_config(config), grid=grid,
        grid_count=int(config.get("gridCount", 20)),
        T=float(config.get("T", 100.0)),
        deviation_tol=float(config.get("deviationTol", 1e-6)),
        verify=bool(config.get("verify", True)))
    result["pipeline"] = report.to_json()
    return result, report.to_csv_rows()


# -- dispatch ----------------------------------------------------------------------

_HANDLERS = {
    "dioph-check": _run_dioph_check,
    "dioph-measure": _run_dioph_measure,
    "cohomology-solve": _run_cohomology_solve,
    "versal-check": _run_versal_check,
    "miniversal-nilpotent": _run_miniversal,
    "normalize": _run_normalize,
    "normalize-augmented": _run_normalize_augmented,
    "ruessmann": _run_ruessmann,
}


def _build_parser():
    ap = argparse.ArgumentParser(prog="kamrev",
                                 description="reversible-torus toolbox driver")
    ap.add_argument("--version", action="version", version=f"kamrev {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".")
        p.add_argument("--threads", type=int, default=1)

    for name in ["dioph-check", "dioph-measure", "cohomology-solve",
                 "versal-check", "normalize", "normalize-augmented", "ruessmann"]:
        common(sub.add_parser(name))

    p = sub.add_parser("miniversal-nilpotent")
    common(p)
    p.add_argument("--m", type=int, default=None)

    p = sub.add_parser("toy")
    p.add_argument("variant", choices=["ex1", "ex2", "linear"])
    common(p)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("KAMREV_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    command = args.command

    try:
        if command == "miniversal-nilpotent" and args.config is None:
            if args.m is None:
                raise ConfigError("miniversal-nilpotent needs --m or --config")
            config = {"m": int(args.m)}
        else:
            config = _load_config(args.config)
        schema = "toy-" + args.variant if command == "toy" else command
        _validate(config, schema)
        seed = _effective_seed(config, args)
        decoded = _decode(command, config, args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report_name = command + ("-" + args.variant if command == "toy" else "")
    try:
        if command == "toy":
            result, csv_rows = _run_toy(decoded, seed, args.threads, args.variant)
        else:
            result, csv_rows = _HANDLERS[command](decoded, seed, args.threads)
    except KamrevError as exc:
        log.error("%s failed: %s", command, exc)
        path = _write_report(args.out, report_name, config, seed, None,
                             error={"type": type(exc).__name__, "message": str(exc)})
        print(path)
        return 3

    path = _write_report(args.out, report_name, config, seed, result)
    if csv_rows and config.get("csv", True):
        _write_csv(args.out, report_name, csv_rows)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
