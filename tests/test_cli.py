"""Driver round trips: exit codes, report layout, determinism, schema gate."""
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing.jsonschema import DRAFT202012

from conftest import GOLDEN, make_curve_family, make_golden_family
from kamrev import cli
from kamrev.cli import main
from kamrev.fourier import FourierSeries

R2 = [[1.0, 0.0], [0.0, -1.0]]


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_report(out_dir, stem):
    with open(out_dir / f"{stem}-report.json") as fh:
        return json.load(fh)


def test_miniversal_shortcut_without_config(tmp_path):
    assert main(["miniversal-nilpotent", "--m", "2", "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "miniversal-nilpotent")
    assert rep["result"]["detS"] == -1
    assert rep["result"]["detMatches"] is True
    assert rep["result"]["identitiesHold"] is True
    assert rep["seed"] == 0 and "generatedAt" in rep["metadata"]


def test_toy_ex2_obstructed_run_still_exits_zero(tmp_path):
    cfg = write_cfg(tmp_path, {"psi1": {"z": 1.0}, "psi2": {"constant": 0.1}})
    assert main(["toy", "ex2", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = read_report(tmp_path, "toy-ex2")["result"]
    assert res["result"] == "NoSolution"
    assert res["min_residual"] == pytest.approx(0.1, rel=1e-2)


def test_toy_ex1_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, {"epsilon": 0.01, "c": -0.001})
    assert main(["toy", "ex1", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = read_report(tmp_path, "toy-ex1")["result"]
    assert res["z"] == pytest.approx(-0.01, abs=1e-12)
    assert res["w"] == pytest.approx(0.001, abs=1e-12)
    assert res["normalFormError"] < 1e-10


def test_toy_linear_writes_csv(tmp_path):
    cfg = write_cfg(tmp_path, {
        "QPoly": [[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]],
        "PsiPoly": [[0.0, 0.0], [0.0, 0.5]],
        "muSamples": [0.01, 0.05],
        "R": R2,
    })
    assert main(["toy", "linear", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = read_report(tmp_path, "toy-linear")["result"]
    assert all(row["residual"] < 1e-12 for row in res["samples"])
    assert res["samples"][0]["delta"] == pytest.approx([0.005, 0.0], abs=1e-12)
    lines = (tmp_path / "toy-linear-plot.csv").read_text().strip().splitlines()
    assert lines[0] == "mu,residual" and len(lines) == 3


TOY_LINEAR = {"QPoly": [[[0.0, 1.0], [-1.0, 0.0]]], "PsiPoly": [[0.0, 0.5]],
              "muSamples": [0.1]}


@pytest.mark.parametrize("extra,message", [
    ({}, "rejected by schema toy-linear"),
    ({"R": np.eye(3).tolist()}, "invalid configuration"),
    ({"R": R2, "PsiPoly": [[0.0, 0.5, 0.0]]}, "invalid configuration"),
    ({"R": R2, "QPoly": [[[0.0, 1.0], [-1.0, 0.0]], [[1.0]]]}, "invalid configuration"),
], ids=["R-absent", "R-size", "PsiPoly-size", "QPoly-size"])
def test_toy_linear_needs_R_and_sizes_that_fit_it(tmp_path, capsys, extra, message):
    cfg = write_cfg(tmp_path, {**TOY_LINEAR, **extra})
    assert main(["toy", "linear", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "toy-linear-report.json").exists()


@pytest.mark.parametrize("doc", [
    {"m": 2, "bogus": 1},          # unknown key
    {"m": 0},                      # below minimum
    {},                            # missing required
])
def test_schema_violations_exit_2_without_report(tmp_path, doc):
    cfg = write_cfg(tmp_path, doc)
    assert main(["miniversal-nilpotent", "--config", cfg,
                 "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "miniversal-nilpotent-report.json").exists()


def test_unreadable_and_malformed_configs_exit_2(tmp_path):
    assert main(["dioph-check", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["dioph-check", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["dioph-check", "--out", str(tmp_path)]) == 2  # no --config at all
    assert not (tmp_path / "dioph-check-report.json").exists()


def test_undecodable_series_exits_2_without_report(tmp_path):
    rhs = FourierSeries.cosine(2, (1, 0), np.array([1.0]), 8).to_json()
    rhs["N"] = 0                   # its modes now lie beyond the order
    cfg = write_cfg(tmp_path, {
        "omega": [1.0, GOLDEN], "tau": 1.5, "gamma": 5e-3, "kmax": 8,
        "kind": "scalar", "rhs": rhs,
    })
    assert main(["cohomology-solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "cohomology-solve-report.json").exists()


Q2 = [[0.0, 1.04], [-1.0, 0.0]]      # anti-commutes with R2


def _cohomology_doc(kind, value, **extra):
    """A cohomology-solve config; only the matrix solves take Q and R."""
    rhs = FourierSeries.cosine(2, (1, 0), np.asarray(value, dtype=float), 8)
    doc = {"omega": [1.0, GOLDEN], "tau": 1.5, "gamma": 5e-3, "kmax": 8,
           "kind": kind, "rhs": rhs.to_json()}
    if kind != "scalar":
        doc.update(Q=Q2, R=R2)
    doc.update(extra)
    return doc


def _ruessmann_doc(fam, box, **extra):
    doc = {"family": fam.to_json(),
           "curve": {"box": box,
                     "components": [{"muPoly": [1.0]}, {"muPoly": [1.55, 1.0]}]},
           "tau": 1.5, "gamma": 5e-3, "kmax": 12}
    doc.update(extra)
    return doc


@pytest.mark.parametrize("command,make_doc", [
    ("cohomology-solve", lambda: _cohomology_doc("normal", [1.0, 0.0, 0.0])),
    ("cohomology-solve", lambda: _cohomology_doc("right", np.ones((2, 3)))),
    ("cohomology-solve", lambda: _cohomology_doc("commutator", [1.0, 0.0])),
    ("cohomology-solve", lambda: _cohomology_doc("scalar", [1.0], rho=0.5,
                                                 rhoPrime=0.5)),
    ("dioph-check", lambda: {"omega": [1.0, GOLDEN], "tau": 1.5, "gamma": 5e-3,
                             "kmax": 8, "Q": Q2, "R": np.eye(3).tolist()}),
    ("ruessmann", lambda: _ruessmann_doc(make_curve_family(delta=1e-4, order=8),
                                         [[0.0, 0.1]], rankSamples=1)),
    ("ruessmann", lambda: _ruessmann_doc(make_golden_family(delta=1e-4, order=8),
                                         [[0.0, 0.1], [0.0, 0.1]])),
    ("ruessmann", lambda: _ruessmann_doc(make_curve_family(delta=1e-4, order=8),
                                         [[0.0, 0.1]], grid=[[0.02, 0.07]])),
    ("ruessmann", lambda: _ruessmann_doc(make_curve_family(delta=1e-4, order=8),
                                         [[0.0, 0.1]], grid=[[0.02], [0.05, 0.07]])),
    ("ruessmann", lambda: _ruessmann_doc(make_curve_family(delta=1e-4, order=8),
                                         [[0.0, 0.1]], grid=[])),
    ("ruessmann", lambda: _with(
        _ruessmann_doc(make_curve_family(delta=1e-4, order=8), [[0.0, 0.1]]),
        ["curve", "components"],
        [{"muPoly": [1.0]}, {"muPoly": [1.55, 1.0]}, {"muPoly": [0.3, 0.0, 1.0]}])),
    ("normalize", lambda: _family_doc(make_golden_family(delta=1e-4, order=8),
                                      omega0=[1.0, GOLDEN, 2.0])),
    ("normalize", lambda: _family_doc(make_golden_family(delta=1e-4, order=8),
                                      omega0=[GOLDEN])),
    ("normalize-augmented", lambda: _family_doc(make_golden_family(delta=1e-4, order=8),
                                                mu0=[0.04, 0.0])),
    ("normalize", lambda: {key: value for key, value in _family_doc(
        make_golden_family(delta=1e-4, order=8)).items() if key != "mu0"}),
    ("cohomology-solve", lambda: _cohomology_doc("scalar", [1.0], omega=[GOLDEN])),
    ("versal-check", lambda: {"Q": [[0.0, 1.0], [0.0, 0.0]], "R": R2,
                              "directions": [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]}),
    # tau must exceed n - 1 = 1, as dioph-check requires of its omega
    ("dioph-measure", lambda: {"boxOmega": [[1, 2], [1, 2]], "tau": 0.5, "gamma": 0.02,
                               "kmax": 6, "sampleCount": 64}),
    ("dioph-measure", lambda: {"boxOmega": [[1, 2], [1, 2]], "tau": 1, "gammas": [0.02],
                               "kmax": 6, "sampleCount": 64}),
    # and of the curve's n = 2 components
    ("ruessmann", lambda: _ruessmann_doc(make_curve_family(delta=1e-4, order=8),
                                         [[0.0, 0.1]], tau=0.5)),
], ids=["rhs-normal", "rhs-right", "rhs-commutator", "rho-prime", "Q-vs-R",
        "rank-samples", "family-s", "grid-width", "grid-ragged", "grid-empty",
        "curve-n", "omega0-long", "omega0-short", "mu0-long", "mu0-absent",
        "omega-vs-rhs", "direction-shape", "measure-tau", "measure-tau-at-n-1",
        "ruessmann-tau"])
def test_config_parts_that_disagree_exit_2_without_report(tmp_path, capsys,
                                                          command, make_doc):
    cfg = write_cfg(tmp_path, make_doc())
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / f"{command}-report.json").exists()


MEASURE_DOC = {"tau": 1.5, "gamma": 0.02, "kmax": 6, "sampleCount": 64}


@pytest.mark.parametrize("command,make_doc", [
    ("dioph-measure", lambda: {"boxOmega": [[2.0, 1.0], [1.0, 2.0]], **MEASURE_DOC}),
    ("dioph-measure", lambda: {"boxOmega": [[1.0, 2.0], [1.0, 2.0]],
                               "boxBeta": [[1.5, 0.5]], **MEASURE_DOC}),
    ("ruessmann", lambda: _ruessmann_doc(make_curve_family(delta=1e-4, order=8), [[0.1, 0.0]])),
], ids=["box-omega", "box-beta", "curve-box"])
def test_a_reversed_box_exits_2_without_report(tmp_path, capsys, command, make_doc):
    """An interval with lo > hi is a configuration error; numpy's uniform
    draw raised a ValueError from it, and the command exited 1."""
    cfg = write_cfg(tmp_path, make_doc())
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "lo > hi" in capsys.readouterr().err
    assert not (tmp_path / f"{command}-report.json").exists()


def test_a_degenerate_box_interval_still_runs(tmp_path):
    """lo = hi is a box of one value in that coordinate, not an error."""
    cfg = write_cfg(tmp_path, {"boxOmega": [[1.0, 1.0], [1.0, 2.0]], **MEASURE_DOC})
    assert main(["dioph-measure", "--config", cfg, "--out", str(tmp_path)]) == 0
    fractions = np.array(read_report(tmp_path, "dioph-measure")["result"]["fractions"])
    assert fractions.shape == (1,) and 0.0 <= fractions[0] <= 1.0


# every normalizer key at its NormalizerConfig default, and both run keys
DEFAULT_KEYS = {"tol": 1e-10, "maxIter": 12, "versalTol": 1e-8, "cancelTol": 1e-9,
                "lossBudget": 1e-8, "seed": 3, "csv": False}

TABLE_CASES = [
    ("dioph-check", lambda: {"omega": [1.0, GOLDEN], "tau": 1.5, "gamma": 5e-3,
                             "kmax": 8, "Q": Q2, "R": R2, "seed": 1}),
    ("dioph-measure", lambda: {"boxOmega": [[1.0, 2.0], [1.0, 2.0]], "boxBeta": [[0.5, 1.5]],
                               "tau": 1.5, "gamma": 0.02, "kmax": 6, "sampleCount": 64}),
    ("cohomology-solve", lambda: _cohomology_doc("scalar", [1.0], rho=0.5)),
    ("cohomology-solve", lambda: _cohomology_doc("normal", [1.0, 0.0])),
    ("cohomology-solve", lambda: _cohomology_doc("right", [[1.0, 0.0]])),
    ("cohomology-solve", lambda: _cohomology_doc("commutator", [[0.0, 1.0], [1.0, 0.0]])),
    ("versal-check", lambda: {"Q": [[0.0, 1.0], [0.0, 0.0]], "R": R2,
                              "directions": [[[0.0, 0.0], [1.0, 0.0]]]}),
    ("miniversal-nilpotent", lambda: {"m": 3, "trials": 2}),
    ("normalize", lambda: _family_doc(make_golden_family(delta=1e-4, order=8),
                                      **DEFAULT_KEYS)),
    ("normalize-augmented", lambda: _family_doc(make_golden_family(delta=1e-4, order=8),
                                                **DEFAULT_KEYS)),
    ("ruessmann", lambda: _ruessmann_doc(make_curve_family(delta=1e-4, order=8), [[0.0, 0.1]],
                                         horizon=12, gridCount=2, T=10.0, rankSamples=16,
                                         **DEFAULT_KEYS)),
    ("toy-ex1", lambda: {"epsilon": 0.01, "c": -0.001}),
    ("toy-ex2", lambda: {"psi1": {"z": 1.0}, "psi2": {"sinX": 0.3}}),
    ("toy-linear", lambda: {**TOY_LINEAR, "R": R2}),
]


@pytest.mark.parametrize("name,make_doc", TABLE_CASES,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(TABLE_CASES)])
def test_every_command_runs_and_rejects_an_unknown_key(tmp_path, name, make_doc):
    assert {case for case, _ in TABLE_CASES} == set(cli._HANDLERS)
    argv = name.split("-", 1) if name.startswith("toy-") else [name]
    doc = make_doc()
    ok, bad = tmp_path / "ok", tmp_path / "bad"
    assert main(argv + ["--config", write_cfg(tmp_path, doc), "--out", str(ok)]) == 0
    assert (ok / f"{name}-report.json").exists()
    doc["bogus"] = 1
    assert main(argv + ["--config", write_cfg(tmp_path, doc), "--out", str(bad)]) == 2
    assert not (bad / f"{name}-report.json").exists()


def _family_doc(fam, **extra):
    doc = {"family": fam.to_json(), "omega0": [1.0, GOLDEN], "mu0": [0.04],
           "tau": 1.5, "gamma": 5e-3, "horizon": 8}
    doc.update(extra)
    return doc


def _with(doc, path, value):
    """doc with the entry at `path` (keys and indices) replaced by value."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("command,make_doc", [
    ("normalize", lambda: _with(
        _family_doc(make_golden_family(delta=1e-4, order=8)),
        ["family", "degree"], 0)),
    ("normalize-augmented", lambda: _with(
        _family_doc(make_golden_family(delta=1e-4, order=8)),
        ["family", "QTerms", 0, "powers", 0], -1)),
    ("ruessmann", lambda: _with(
        _ruessmann_doc(make_curve_family(delta=1e-4, order=8), [[0.0, 0.1]]),
        ["family", "eta", "terms", 0, "series", "n"], 0)),
    ("cohomology-solve", lambda: _with(
        _cohomology_doc("scalar", [1.0]), ["rhs", "n"], 0)),
])
def test_nested_schema_violations_exit_2_without_report(tmp_path, capsys,
                                                        command, make_doc):
    cfg = write_cfg(tmp_path, make_doc())
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"rejected by schema {command}:" in capsys.readouterr().err
    assert not (tmp_path / f"{command}-report.json").exists()


@pytest.mark.parametrize("command,doc", [
    ("dioph-measure", {"boxOmega": [[1.0, 2.0], [1.0, 2.0]], "tau": 1.5, "kmax": 8,
                       "sampleCount": 300, "gamma": 0.5, "gammas": [0.02]}),
    ("dioph-check", {"omega": [1.0, GOLDEN], "tau": 1.5, "gamma": 5e-3, "kmax": 8,
                     "R": R2}),
    ("cohomology-solve", _cohomology_doc("scalar", [1.0], Q=Q2, R=R2)),
    ("cohomology-solve", _cohomology_doc("scalar", [1.0], R=R2)),
], ids=["gamma-and-gammas", "R-without-Q", "scalar-with-Q", "scalar-with-R"])
def test_keys_the_command_would_ignore_exit_2_without_report(tmp_path, capsys,
                                                             command, doc):
    cfg = write_cfg(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"rejected by schema {command}:" in capsys.readouterr().err
    assert not (tmp_path / f"{command}-report.json").exists()


def test_family_file_is_checked_against_the_family_schema(tmp_path, capsys):
    doc = _with(make_golden_family(delta=1e-4, order=8).to_json(), ["degree"], 0)
    (tmp_path / "family.json").write_text(json.dumps(doc))
    cfg = write_cfg(tmp_path, _family_doc(make_curve_family(delta=1e-4, order=8),
                                          family="family.json"))
    assert main(["normalize", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "rejected by schema normalize" in err and "family.json" in err
    assert not (tmp_path / "normalize-report.json").exists()


@pytest.mark.parametrize("key,value", [("Q", float("nan")), ("R", float("nan")),
                                       ("Q", float("inf")), ("R", float("-inf"))])
def test_non_finite_numbers_in_a_config_exit_2(tmp_path, capsys, key, value):
    doc = {"Q": [[0.0, 1.0], [0.0, 0.0]], "R": [[1.0, 0.0], [0.0, -1.0]],
           "directions": []}
    doc[key][0][0] = value          # json.dumps writes NaN, Infinity, -Infinity
    cfg = write_cfg(tmp_path, doc)
    assert main(["versal-check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "is not a number" in capsys.readouterr().err
    assert not (tmp_path / "versal-check-report.json").exists()


def test_non_finite_numbers_in_a_family_file_exit_2(tmp_path, capsys):
    doc = make_golden_family(delta=1e-4, order=8).to_json()
    doc["R"][1][1] = float("nan")
    (tmp_path / "family.json").write_text(json.dumps(doc))
    cfg = write_cfg(tmp_path, _family_doc(make_golden_family(delta=1e-4, order=8),
                                          family="family.json"))
    assert main(["normalize", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "NaN is not a number" in capsys.readouterr().err
    assert not (tmp_path / "normalize-report.json").exists()


@pytest.mark.parametrize("name,schema,make_doc", [
    ("miniversal-nilpotent", None, lambda: {"m": 0}),
    ("miniversal-nilpotent", None, lambda: {"m": 2, "bogus": 1}),
    ("dioph-check", None, lambda: {"omega": [1.0, GOLDEN], "tau": 1.5, "gamma": 5e-3,
                                   "kmax": 8, "R": R2}),
    ("cohomology-solve", None, lambda: _cohomology_doc("scalar", [1.0], Q=Q2)),
    ("normalize-augmented", None, lambda: _with(
        _family_doc(make_golden_family(delta=1e-4, order=8)),
        ["family", "QTerms", 0, "powers", 0], -1)),
    ("ruessmann", None, lambda: _with(
        _ruessmann_doc(make_curve_family(delta=1e-4, order=8), [[0.0, 0.1]]),
        ["family", "eta", "terms", 0, "series", "n"], 0)),
    ("normalize (family file f.json)", "family", lambda: _with(
        make_golden_family(delta=1e-4, order=8).to_json(), ["degree"], 0)),
], ids=["minimum", "unknown-key", "dependent", "scalar-with-Q", "nested", "nested-series",
        "family-file"])
def test_schema_errors_read_as_jsonschema_validate_words_them(name, schema, make_doc):
    doc = make_doc()
    body = ({"$ref": "defs.json#/$defs/family"} if schema == "family"
            else cli._load_schema("normalize" if name == "normalize-augmented" else name))
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, body, cls=jsonschema.Draft202012Validator,
                            registry=cli._schema_registry())
    words = (f"config rejected by schema {name}: {want.value.message} "
             f"(at {list(want.value.absolute_path)})")
    for _ in range(2):  # the second call meets the cached validator
        with pytest.raises(cli.ConfigError) as got:
            cli._validate(doc, name, schema)
        assert str(got.value) == words


def _sweep_doc(**extra):
    return _ruessmann_doc(make_curve_family(delta=1e-4, order=8), [[0.0, 0.1]],
                          tol=1e-11, gridCount=2, T=10.0, rankSamples=16, **extra)


def test_ruessmann_applies_normalizer_keys_without_horizon(tmp_path):
    results = []
    for extra in ({}, {"horizon": 12}):
        out = tmp_path / f"out{len(extra)}"
        cfg = write_cfg(tmp_path, _sweep_doc(maxIter=1, **extra), name=f"cfg{len(extra)}.json")
        assert main(["ruessmann", "--config", cfg, "--out", str(out)]) == 0
        results.append(read_report(out, "ruessmann")["result"])
    points = results[0]["pipeline"]["points"]
    assert points and all(not p["accepted"] and p["reason"].startswith("NoConvergence")
                          for p in points)
    assert results[0] == results[1]


def test_ruessmann_horizon_other_than_kmax_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, _sweep_doc(horizon=3))
    assert main(["ruessmann", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "horizon 3 must equal kmax 12" in capsys.readouterr().err
    assert not (tmp_path / "ruessmann-report.json").exists()


def test_ruessmann_rejects_solver_gamma(tmp_path, capsys):
    cfg = write_cfg(tmp_path, _sweep_doc(horizon=12, solverGamma=1e-9))
    assert main(["ruessmann", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "rejected by schema ruessmann" in capsys.readouterr().err
    assert not (tmp_path / "ruessmann-report.json").exists()


def test_normalize_rejects_solver_gamma(tmp_path, capsys):
    cfg = write_cfg(tmp_path, _family_doc(make_golden_family(delta=1e-4, order=8),
                                          solverGamma=1e-3))
    assert main(["normalize", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "rejected by schema normalize" in capsys.readouterr().err
    assert not (tmp_path / "normalize-report.json").exists()


def _shipped_schemas():
    return sorted(p.name[:-len(".json")]
                  for p in (files("kamrev") / "schemas").iterdir()
                  if p.name.endswith(".json"))


def _refs(node):
    if isinstance(node, dict):
        if "$ref" in node:
            yield node["$ref"]
        for value in node.values():
            yield from _refs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _refs(value)


def test_shared_schema_definitions_live_only_in_defs():
    shared = {"matrix", "vector", "series", "taylor", "family", "familyOrPath", "run", "dioph",
              "normalizer", "box"}
    names = _shipped_schemas()
    assert "defs" in names and "normalize-augmented" not in names
    registry = cli._schema_registry()
    for name in names:
        schema = cli._load_schema(name)
        own = set(schema.get("$defs", {}))
        assert own >= shared if name == "defs" else not own & shared, name
        uri = f"{name}.json"
        resolver = registry.with_resource(
            uri, DRAFT202012.create_resource(schema)).resolver(base_uri=uri)
        for ref in _refs(schema):
            resolver.lookup(ref)       # raises Unresolvable on a dangling $ref


def test_command_schemas_are_valid_and_take_fragment_keys_from_defs():
    fragments = cli._load_schema("defs")["$defs"]
    fragment_keys = {key for name in ("run", "dioph", "normalizer")
                     for key in fragments[name]["properties"]}
    for name in _shipped_schemas():
        schema = cli._load_schema(name)
        jsonschema.Draft202012Validator.check_schema(schema)
        if name != "defs":
            assert schema["unevaluatedProperties"] is False, name
            assert "additionalProperties" not in schema, name
            assert not fragment_keys & set(schema["properties"]), name


def test_value_error_in_computation_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(config, seed, threads):
        raise ValueError("internal bug")

    monkeypatch.setitem(cli._HANDLERS, "versal-check", broken)
    cfg = write_cfg(tmp_path, {
        "Q": [[0.0, 1.0], [0.0, 0.0]], "R": R2,
        "directions": [[[0.0, 0.0], [1.0, 0.0]]],
    })
    with pytest.raises(ValueError, match="internal bug"):
        main(["versal-check", "--config", cfg, "--out", str(tmp_path)])


def test_resonant_normalize_exits_3_with_error_in_report(tmp_path):
    fam = make_golden_family(delta=1e-4, order=8)
    cfg = write_cfg(tmp_path, {
        "family": fam.to_json(),
        "omega0": [1.0, 1.5],       # (3, -2) kills this frequency
        "mu0": [0.04],
        "tau": 1.5, "gamma": 5e-3, "horizon": 16,
    })
    assert main(["normalize", "--config", cfg, "--out", str(tmp_path)]) == 3
    rep = read_report(tmp_path, "normalize")
    assert rep["result"] is None
    assert rep["error"]["type"] == "SmallDivisor"
    assert rep["error"]["message"]


def test_normalize_happy_path(tmp_path):
    fam = make_golden_family(delta=1e-4, order=8)
    cfg = write_cfg(tmp_path, {
        "family": fam.to_json(),
        "omega0": [1.0, GOLDEN],
        "mu0": [0.04],
        "tau": 1.5, "gamma": 5e-3, "horizon": 16, "tol": 1e-11,
    })
    assert main(["normalize", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = read_report(tmp_path, "normalize")["result"]
    assert res["residualHistory"][-1] <= 1e-11
    assert res["smallness"]["ok"] is True
    assert abs(res["w"][0]) < 1e-2
    # transform comes back as replayable series
    assert res["a"]["n"] == 2 and res["W0"]["n"] == 2


def test_dioph_check_pair(tmp_path):
    cfg = write_cfg(tmp_path, {
        "omega": [1.0, GOLDEN], "tau": 1.5, "gamma": 5e-3, "kmax": 16,
        "Q": [[0.0, 1.04], [-1.0, 0.0]], "R": R2,
    })
    assert main(["dioph-check", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = read_report(tmp_path, "dioph-check")["result"]
    assert res["holds"] is True and res["margin"] > 0


def test_cohomology_solve_with_estimate(tmp_path):
    rhs = FourierSeries.cosine(2, (1, 0), np.array([1.0]), 8)
    cfg = write_cfg(tmp_path, {
        "omega": [1.0, GOLDEN], "tau": 1.5, "gamma": 5e-3, "kmax": 8,
        "kind": "scalar", "rhs": rhs.to_json(), "rho": 0.5,
    })
    assert main(["cohomology-solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = read_report(tmp_path, "cohomology-solve")["result"]
    assert res["kind"] == "scalar" and res["solutionNorm"] > 0
    assert "estimate" in res
    sol = FourierSeries.from_json(res["solution"])
    assert sol.majorant() > 0
    # the PDE itself: d_omega(sol) must reproduce the zero-average forcing
    err = sol.directional_derivative(np.array([1.0, GOLDEN])) - rhs
    assert err.majorant() < 1e-12


def test_cohomology_solve_accepts_integer_tau(tmp_path):
    rhs = FourierSeries.cosine(2, (1, 0), np.array([1.0]), 8)
    results = []
    for tau in (2, 2.0):
        out = tmp_path / f"tau-{tau!r}"
        cfg = write_cfg(tmp_path, {"omega": [1.0, GOLDEN], "tau": tau, "gamma": 5e-3,
                                   "kmax": 8, "kind": "scalar", "rhs": rhs.to_json()},
                        name=f"tau-{tau!r}.json")
        assert main(["cohomology-solve", "--config", cfg, "--out", str(out)]) == 0
        results.append(read_report(out, "cohomology-solve")["result"])
    assert results[0] == results[1]


def test_versal_check_nilpotent_base(tmp_path):
    cfg = write_cfg(tmp_path, {
        "Q": [[0.0, 1.0], [0.0, 0.0]], "R": R2,
        "directions": [[[0.0, 0.0], [1.0, 0.0]]],
    })
    assert main(["versal-check", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = read_report(tmp_path, "versal-check")["result"]
    assert res["versal"] and res["miniversal"] and res["codim"] == 1


def _measure_cfg(tmp_path, **extra):
    doc = {"boxOmega": [[1.0, 2.0], [1.0, 2.0]], "tau": 1.5,
           "gammas": [0.02, 0.04], "kmax": 8, "sampleCount": 300, "seed": 7}
    doc.update(extra)
    return write_cfg(tmp_path, doc)


def test_reports_byte_identical_modulo_metadata(tmp_path):
    cfg = _measure_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["dioph-measure", "--config", cfg, "--out", str(a)]) == 0
    assert main(["dioph-measure", "--config", cfg, "--out", str(b)]) == 0
    ra, rb = read_report(a, "dioph-measure"), read_report(b, "dioph-measure")
    ra.pop("metadata"), rb.pop("metadata")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    assert (a / "dioph-measure-plot.csv").read_bytes() == \
        (b / "dioph-measure-plot.csv").read_bytes()
    assert ra["result"]["fractions"][0] <= ra["result"]["fractions"][1]


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg = _measure_cfg(tmp_path)
    assert main(["dioph-measure", "--config", cfg, "--seed", "9",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "dioph-measure")
    assert rep["seed"] == 9


@pytest.mark.parametrize("command, seed", [("miniversal-nilpotent", "-1"),
                                           ("dioph-measure", "-3")])
def test_negative_seed_flag_exits_2_without_report(tmp_path, capsys, command, seed):
    # the run schema refuses a negative config seed; the flag is refused alike,
    # not left to numpy's generators to fail on mid-run
    args = ["--m", "2"] if command == "miniversal-nilpotent" else ["--config", _measure_cfg(tmp_path)]
    assert main([command, *args, "--seed", seed, "--out", str(tmp_path)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / f"{command}-report.json").exists()


def test_csv_opt_out(tmp_path):
    cfg = _measure_cfg(tmp_path, csv=False)
    assert main(["dioph-measure", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "dioph-measure-plot.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_nonpositive_threads_exit_2_before_any_work(tmp_path, capsys, monkeypatch, threads):
    def no_work(*args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._HANDLERS, "dioph-measure", no_work)
    cfg = _measure_cfg(tmp_path)
    assert main(["dioph-measure", "--config", cfg, "--out", str(tmp_path),
                 "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "dioph-measure-report.json").exists()


def test_ruessmann_degenerate_curve_short_circuits(tmp_path):
    fam = make_curve_family(delta=1e-4, order=8)
    cfg = write_cfg(tmp_path, {
        "family": fam.to_json(),
        "curve": {"box": [[0.0, 0.1]],
                  "components": [{"muPoly": [1.0]}, {"muPoly": [2.0]}]},
        "tau": 1.5, "gamma": 5e-3, "kmax": 12,
    })
    assert main(["ruessmann", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = read_report(tmp_path, "ruessmann")["result"]
    assert res["nondegeneracy"]["nondegenerate"] is False
    assert res["nondegeneracy"]["normal"] is not None
    assert res["pipeline"] is None


def test_ruessmann_pipeline_end_to_end(tmp_path):
    fam = make_curve_family(delta=1e-4, order=8)
    cfg = write_cfg(tmp_path, {
        "family": fam.to_json(),
        "curve": {"box": [[0.0, 0.1]],
                  "components": [{"muPoly": [1.0]}, {"muPoly": [1.55, 1.0]}],
                  "sigmaLinear": [[0.3], [0.5]]},
        "tau": 1.5, "gamma": 5e-3, "kmax": 12,
        "horizon": 12, "tol": 1e-11,
        "gridCount": 2, "T": 10.0, "rankSamples": 16,
    })
    assert main(["ruessmann", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = read_report(tmp_path, "ruessmann")["result"]
    assert res["nondegeneracy"]["nondegenerate"] is True
    pts = res["pipeline"]["points"]
    assert len(pts) == 2 and all(p["accepted"] for p in pts)
    assert res["pipeline"]["rejectedFraction"] == 0.0
    lines = (tmp_path / "ruessmann-plot.csv").read_text().splitlines()
    assert len(lines) == 3


def test_ruessmann_rejects_a_point_over_the_loss_budget_and_goes_on(tmp_path):
    """The benchmark sweep's first three points (seed 1), cut to Fourier order
    3, at a loss budget no conjugation meets: each conjugation drops about
    5.7e-10 of Fourier tail at a scale of about 1.56, some 370 times the
    budget of 1e-12.  Each point is rejected on its own, and the run ends
    with exit 0 and a report."""
    doc = _ruessmann_doc(make_curve_family(delta=1e-4, order=3), [[0.0, 0.1]],
                         kmax=16, horizon=16, tol=1e-11, T=20.0, lossBudget=1e-12,
                         grid=[[0.0], [0.02042053080271613], [0.030367996772663615]])
    cfg = write_cfg(tmp_path, doc)
    assert main(["ruessmann", "--config", cfg, "--out", str(tmp_path), "--threads", "2"]) == 0
    points = read_report(tmp_path, "ruessmann")["result"]["pipeline"]["points"]
    assert len(points) == 3 and not any(p["accepted"] for p in points)
    assert all(p["reason"].startswith("TruncationOverflow: conjugation dropped l1 mass")
               for p in points)


def test_ruessmann_reports_do_not_depend_on_threads(tmp_path):
    """--threads 2 and 3 fork 1 and 2 workers; 8/5 at mu = 0.05 is rejected."""
    doc = _ruessmann_doc(make_curve_family(delta=1e-4, order=8), [[0.0, 0.12]],
                         kmax=16, tol=1e-11, T=5.0, rankSamples=16,
                         grid=[[0.0], [0.03], [0.05], [0.08], [0.11]])
    cfg = write_cfg(tmp_path, doc)
    reports, csvs = [], []
    for threads in ("1", "2", "3"):
        out = tmp_path / threads
        assert main(["ruessmann", "--config", cfg, "--out", str(out),
                     "--threads", threads]) == 0
        report = read_report(out, "ruessmann")
        report.pop("metadata")
        reports.append(json.dumps(report, sort_keys=True))
        csvs.append((out / "ruessmann-plot.csv").read_bytes())
    assert reports[1:] == reports[:1] * 2 and csvs[1:] == csvs[:1] * 2
    points = json.loads(reports[0])["result"]["pipeline"]["points"]
    assert [p["accepted"] for p in points] == [True, True, False, True, True]
    assert points[2]["reason"].startswith("SmallDivisor")


def test_family_file_indirection_and_reversibility_gate(tmp_path):
    fam = make_curve_family(delta=1e-4, order=8)
    doc = fam.to_json()
    (tmp_path / "family.json").write_text(json.dumps(doc))
    cfg = write_cfg(tmp_path, {
        "family": "family.json",       # resolved relative to the config file
        "omega0": [1.0, 1.55],
        "tau": 1.5, "gamma": 5e-3, "horizon": 12, "tol": 1e-11,
    })
    assert main(["normalize", "--config", cfg, "--out", str(tmp_path)]) == 0

    # break reversibility: a constant h value off the odd subspace is illegal
    fam2 = make_golden_family(delta=1e-4, order=8)
    doc2 = {"family": fam2.to_json(), "omega0": [1.0, GOLDEN], "mu0": [0.04],
            "tau": 1.5, "gamma": 5e-3, "horizon": 12}
    term = next(t for t in doc2["family"]["h"]["terms"]
                if t["alpha"] == [0, 0, 0])
    term["series"]["coeffs"].insert(
        0, {"k": [0, 0], "re": [0.001, 0.0], "im": [0.0, 0.0]})
    (tmp_path / "cfg2.json").write_text(json.dumps(doc2))
    code = main(["normalize", "--config", str(tmp_path / "cfg2.json"),
                 "--out", str(tmp_path / "gate")])
    assert code == 3
    rep = read_report(tmp_path / "gate", "normalize")
    assert rep["error"]["type"] == "NotAntiInvariant"


def test_module_entry_point_runs_in_subprocess(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "kamrev.cli", "miniversal-nilpotent",
         "--m", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=root, env=env)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "miniversal-nilpotent-report.json").exists()
    assert out.stdout.strip().endswith("miniversal-nilpotent-report.json")
