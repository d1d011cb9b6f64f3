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
import dataclasses
import hashlib
import json
import logging
import os
import re
import sys
from datetime import datetime, timezone
from functools import lru_cache
from importlib.resources import files

import numpy as np

from . import __version__
from .cohomology import (solve_commutator, solve_normal, solve_right,
                         solve_scalar, verify_estimate)
from .diophantine import (DiophantineParams, complement_measure_estimate,
                          is_diophantine_pair)
from .errors import KamrevError, NotAntiInvariant
from .fourier import FourierSeries
from .normalizer import NormalizerConfig, normalize, normalize_augmented
from .revmat import (InvolutionStructure, MiniversalNilpotent, RevMatrix, Unfolding,
                     is_versal, kernel_condition)
from .revsystem import ReversibleFamily, ToySolution, toy_ex1, toy_ex2, toy_linear
from .ruessmann import (PolynomialCurve, diophantine_fraction,
                        is_ruessmann_nondegenerate, persistence_pipeline)

log = logging.getLogger("kamrev")


class ConfigError(Exception):
    pass


# -- config plumbing ------------------------------------------------------------


def _load_schema(name):
    res = files("kamrev") / "schemas" / f"{name}.json"
    return json.loads(res.read_text())


def _finite_only(token):
    # json reads NaN and Infinity as floats, which no schema can then refuse
    raise ConfigError(f"config is not valid JSON: {token} is not a number")


def _load_config(path):
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_finite_only)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _schema_registry():
    """The shared definitions, which the schemas reference as `defs.json`."""
    from referencing import Registry
    from referencing.jsonschema import DRAFT202012
    defs = DRAFT202012.create_resource(_load_schema("defs"))
    return Registry().with_resource("defs.json", defs)


@lru_cache(maxsize=None)
def _validator(schema):
    """The validator of a command's schema, or of a family file's ("family")."""
    import jsonschema
    body = {"$ref": "defs.json#/$defs/family"} if schema == "family" else _load_schema(schema)
    return jsonschema.Draft202012Validator(body, registry=_schema_registry())


def _validate(config, name, schema=None):
    """Check config against the schema named ``schema``, by default the command's."""
    from jsonschema.exceptions import best_match
    if schema is None:
        # normalize-augmented takes the same config as normalize
        schema = "normalize" if name == "normalize-augmented" else name
    exc = best_match(_validator(schema).iter_errors(config))
    if exc is not None:
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
                    doc = json.load(fh, parse_constant=_finite_only)
                _validate(doc, f"{command} (family file {cfg['family']})", "family")
            cfg["family"] = ReversibleFamily.from_json(doc)
        if "rhs" in cfg:
            cfg["rhs"] = FourierSeries.from_json(cfg["rhs"])
        if command in ("dioph-check", "cohomology-solve", "ruessmann"):
            cfg["params"] = DiophantineParams(cfg["tau"], cfg["gamma"], cfg["kmax"])
            if "omega" in cfg:
                cfg["params"].validate_for(len(cfg["omega"]))
        if command == "dioph-measure":
            cfg["gammas"] = cfg.get("gammas") or [cfg["gamma"]]
            DiophantineParams(cfg["tau"], min(cfg["gammas"]), cfg["kmax"]).validate_for(
                len(cfg["boxOmega"]))
        # every matrix and vector the config gives acts on the space R reflects
        mats = [M for M in (cfg.get("Q"), *cfg.get("directions", []), *cfg.get("QPoly", []))
                if M is not None]
        if mats:
            d = len(cfg["R"])
            if any(np.shape(M) != (d, d) for M in [cfg["R"], *mats]) \
                    or any(np.shape(v) != (d,) for v in cfg.get("PsiPoly", [])):
                raise ValueError(f"Q, directions, QPoly and PsiPoly must fit R's {d}x{d} shape")
        if command.startswith("normalize"):
            fam = cfg["family"]
            if (len(cfg["omega0"]), len(cfg.get("mu0", []))) != (fam.n, fam.s):
                raise ValueError(f"omega0 and mu0 need the family's n = {fam.n} and s = {fam.s}")
        if command == "cohomology-solve":
            kind, shape = cfg["kind"], cfg["rhs"].shape
            if len(cfg["omega"]) != cfg["rhs"].n:
                raise ValueError(f"omega needs the rhs's n = {cfg['rhs'].n} entries")
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
            if n != cfg["family"].n:
                raise ValueError(f"curve has {n} components; family has n = {cfg['family'].n}")
            grid = cfg.get("grid")
            if grid is not None and (not grid or any(len(row) != dim for row in grid)):
                raise ValueError(f"grid needs one or more rows of the box dimension {dim}")
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


def _options(config, names):
    """The keyword arguments ``names`` that the config sets, each under its
    camelCase key (max_iter <- maxIter); the callee's defaults fill the rest."""
    keys = {name: re.sub("_([a-z])", lambda m: m[1].upper(), name) for name in names}
    return {name: config[key] for name, key in keys.items() if config.get(key) is not None}


def _normalizer_config(config):
    names = [field.name for field in dataclasses.fields(NormalizerConfig)]
    return NormalizerConfig(**_options(config, names))


def _rev_matrix(config):
    """The config's Q over the involution R, or None if it has no Q."""
    if config.get("Q") is None:
        return None
    R = np.asarray(config["R"], dtype=float)
    return RevMatrix(np.asarray(config["Q"], dtype=float), InvolutionStructure(R))


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
    fractions = complement_measure_estimate(
        box_omega, box_beta, config["tau"], config["gammas"],
        config["sampleCount"], config["kmax"], seed=seed, workers=threads)
    gam = np.asarray(config["gammas"], dtype=float)
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


_SOLVERS = {"scalar": solve_scalar, "normal": solve_normal, "right": solve_right,
            "commutator": solve_commutator}


def _run_cohomology_solve(config, seed, threads):
    omega = np.asarray(config["omega"], dtype=float)
    params, rhs = config["params"], config["rhs"]
    kind = config["kind"]
    # the scalar solve takes the Diophantine parameters, the others Q
    sol = _SOLVERS[kind](rhs, omega, params if kind == "scalar" else _rev_matrix(config))
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


def _run_toy_ex1(config, seed, threads):
    eps, c = float(config["epsilon"]), float(config["c"])
    r = toy_ex1(lambda x, z: np.full_like(np.asarray(z, dtype=float), eps),
                lambda x, z: np.full_like(np.asarray(z, dtype=float), c))
    return {"z": float(r.z), "w": float(r.w),
            "normalFormError": float(r.normal_form_error)}, None


def _run_toy_ex2(config, seed, threads):
    r = toy_ex2(_psi_from_spec(config["psi1"]), _psi_from_spec(config["psi2"]))
    if isinstance(r, ToySolution):
        return {"result": "Solution", "z": float(r.z), "w": float(r.w),
                "residual": float(r.residual)}, None
    return {"result": "NoSolution",
            "min_residual": float(r.min_residual),
            "convergedFraction": float(r.converged_fraction)}, None


def _run_toy_linear(config, seed, threads):
    Q_pows = [np.asarray(M, dtype=float) for M in config["QPoly"]]
    Psi_pows = [np.asarray(v, dtype=float) for v in config["PsiPoly"]]

    def Q_of_mu(mu):
        return sum(M * mu ** j for j, M in enumerate(Q_pows))

    def Psi_of_mu(mu):
        return sum(v * mu ** j for j, v in enumerate(Psi_pows))

    inv = InvolutionStructure(np.asarray(config["R"], dtype=float))
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
    return PolynomialCurve([comp["muPoly"] for comp in doc["components"]],
                           box=[tuple(b) for b in doc["box"]], m=int(doc.get("m", 1)),
                           sigma_linear=doc.get("sigmaLinear"))


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
    report = persistence_pipeline(
        fam, curve, _normalizer_config(config), workers=threads,
        **_options(config, ["grid", "grid_count", "T", "deviation_tol", "verify"]))
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
    "toy-ex1": _run_toy_ex1,
    "toy-ex2": _run_toy_ex2,
    "toy-linear": _run_toy_linear,
}


def _build_parser():
    ap = argparse.ArgumentParser(prog="kamrev",
                                 description="reversible-torus toolbox driver")
    ap.add_argument("--version", action="version", version=f"kamrev {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    # the toy-* entries are one subcommand, "toy", with the variant as argument
    for command in dict.fromkeys(name.split("-")[0] if name.startswith("toy-") else name
                                 for name in _HANDLERS):
        p = sub.add_parser(command)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".")
        p.add_argument("--threads", type=int, default=1)
    sub.choices["miniversal-nilpotent"].add_argument("--m", type=int, default=None)
    sub.choices["toy"].add_argument("variant", choices=[
        name[len("toy-"):] for name in _HANDLERS if name.startswith("toy-")])
    return ap


def main(argv=None) -> int:
    level = os.environ.get("KAMREV_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    # the handler, the schema and the report file: "toy ex1" names toy-ex1
    name = "-".join(filter(None, (args.command, getattr(args, "variant", None))))

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        if name == "miniversal-nilpotent" and args.config is None:
            if args.m is None:
                raise ConfigError("miniversal-nilpotent needs --m or --config")
            config = {"m": int(args.m)}
        else:
            config = _load_config(args.config)
        _validate(config, name)
        seed = _effective_seed(config, args)
        decoded = _decode(name, config, args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        result, csv_rows = _HANDLERS[name](decoded, seed, args.threads)
    except KamrevError as exc:
        log.error("%s failed: %s", name, exc)
        path = _write_report(args.out, name, config, seed, None,
                             error={"type": type(exc).__name__, "message": str(exc)})
        print(path)
        return 3

    path = _write_report(args.out, name, config, seed, result)
    if csv_rows and config.get("csv", True):
        _write_csv(args.out, name, csv_rows)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
