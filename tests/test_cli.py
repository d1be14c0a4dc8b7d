import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georadon import cli
from georadon import inversion as IV
from georadon import mc as MC
from georadon import radial as R
from georadon.cli import main
from georadon.profiles import ArgKind, gaussian


def _write_job(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_transform_job_value_and_determinism(tmp_path):
    job = _write_job(tmp_path, "job.json", {
        "command": "transform",
        "model": "hyperboloid",
        "params": {"n": 3, "j": 0, "k": 1},
        "profile": {"family": "closed_form", "id": "hyper_cap",
                    "alpha": 2.0, "a": 2.0},
        "grid": {"kind": "cosh", "lo": 1.0, "hi": 2.0, "count": 50},
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
    })
    assert main(["transform", "--job", job]) == 0
    text1 = (tmp_path / "out.csv").read_text()
    first = text1.splitlines()[2].split(",")
    assert abs(float(first[1]) - math.sqrt(3.0)) < 1e-8
    assert text1.splitlines()[0].startswith("# model=hyperboloid")
    assert "variable=" in text1.splitlines()[0]
    assert main(["transform", "--job", job,
                 "--out", str(tmp_path / "out2.csv")]) == 0
    assert text1 == (tmp_path / "out2.csv").read_text()


def test_integral_floats_read_as_integers(tmp_path):
    texts = []
    for name, params, count in (("int", {"n": 4, "j": 1, "k": 2}, 5),
                                ("float", {"n": 4.0, "j": 1.0, "k": 2.0}, 5.0)):
        out = tmp_path / f"{name}.csv"
        job = _write_job(tmp_path, f"{name}.json", {
            "command": "transform", "model": "euclidean", "params": params,
            "profile": {"family": "gaussian"},
            "grid": {"lo": 0.5, "hi": 2.0, "count": count},
            "output": {"path": str(out)}})
        assert main(["transform", "--job", job]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_json_format_mirror(tmp_path):
    job = _write_job(tmp_path, "job.json", {
        "command": "table",
        "model": "euclidean",
        "profile": {"family": "gaussian", "sigma": 1.0},
        "grid": {"lo": 0.0, "hi": 2.0, "count": 5},
        "output": {"path": str(tmp_path / "t.json"), "format": "json"},
    })
    assert main(["table", "--job", job]) == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["meta"]["model"] == "euclidean_affine"
    assert abs(doc["columns"]["value"][0] - 1.0) < 1e-12


_GOOD_JOB = {
    "command": "transform", "model": "euclidean",
    "params": {"n": 4, "j": 0, "k": 2},
    "profile": {"family": "gaussian"},
    "grid": {"lo": 0.5, "hi": 2.0, "count": 5},
}
_CHAIN_JOB = {
    "command": "chain",
    "params": {"n": 3, "j": 1, "k": 2},
    "chain": {"h": {"family": "bump", "a": 1.2}, "rho": 0.6},
    "mc": {"seed": 9, "n_samples": 30000},
}
_DUALITY_JOB = {
    "command": "mc-duality",
    "params": {"n": 3, "j": 0, "k": 1},
    "duality": {"which": "affine"},
    "profile": {"family": "gaussian"},
    "mc": {"seed": 5, "n_samples": 20000},
}
_X = np.linspace(0.0, 2.0, 12).tolist()


@pytest.mark.parametrize("command, doc", [
    ("transform", dict(_GOOD_JOB, model="hyperboloid",
                       params={"n": 3, "j": 1, "k": 1},
                       grid={"lo": 1.0, "hi": 2.0, "count": 5})),
    ("transform", dict(_GOOD_JOB, profile={"family": "power"})),
    ("transform", dict(_GOOD_JOB, grid={"lo": "zero", "hi": 2.0,
                                        "count": 5})),
    ("transform", dict(_GOOD_JOB, profile={
        "family": "grid", "x": _X,
        "y": [1.0] * 5 + [math.nan] + [1.0] * 6})),
    ("chain", dict(_CHAIN_JOB, chain={"h": {"a": 1.2}})),
    ("chain", dict(_CHAIN_JOB, chain={"h": {"family": "bump", "a": "wide"}})),
    ("chain", dict(_CHAIN_JOB, chain={"rho": "far"})),
    ("mc-duality", dict(_DUALITY_JOB, duality="hyper")),
    ("transform", dict(_GOOD_JOB, model="hyperboloid",
                       params={"n": 3, "j": 0, "k": 1},
                       profile={"family": "closed_form", "id": "hyper_cap",
                                "alpha": "two", "a": 2.0},
                       grid={"kind": "cosh", "lo": 1.0, "hi": 2.0,
                             "count": 5})),
    ("transform", dict(_GOOD_JOB, quadrature={"rel_tol": "nan"})),
    ("chain", dict(_CHAIN_JOB, mc={"seed": -1, "n_samples": 2000})),
    ("table", {"command": "table", "model": "euclidean",
               "profile": {"family": "gaussian", "sigma": math.nan},
               "grid": {"lo": 0.0, "hi": 2.0, "count": 5}}),
    ("table", {"command": "table", "model": "euclidean",
               "profile": {"family": "bump", "a": math.inf},
               "grid": {"lo": 0.0, "hi": 2.0, "count": 5}}),
    ("transform", dict(_GOOD_JOB, profile={"family": "power", "p": math.nan})),
    ("transform", dict(_GOOD_JOB, model="hyperboloid",
                       params={"n": 3, "j": 0, "k": 1},
                       profile={"family": "closed_form", "id": "hyper_cap",
                                "alpha": math.inf, "a": 2.0},
                       grid={"kind": "cosh", "lo": 1.0, "hi": 2.0,
                             "count": 5})),
    ("transform", dict(_GOOD_JOB, model="ball",
                       profile={"family": "closed_form", "id": "chord_cap",
                                "alpha": 2.0, "a": math.nan},
                       grid={"lo": 0.05, "hi": 0.5, "count": 5})),
    ("transform", dict(_GOOD_JOB, profile={
        "family": "grid", "x": _X, "y": np.exp(-np.square(_X)).tolist(),
        "decay_hint": math.nan})),
    ("dual", dict(_GOOD_JOB, command="dual", params={"n": 4, "j": 1, "k": 2},
                  grid={"lo": -1.0, "hi": 1.0, "count": 5})),
    ("convert", {"command": "convert",
                 "convert": {"from": "cosh", "to": "distance"},
                 "grid": {"lo": 0.2, "hi": 0.9, "count": 5}}),
    ("convert", {"command": "convert",
                 "convert": {"from": "sin_angle", "to": "angle"},
                 "grid": {"lo": 0.5, "hi": 1.5, "count": 5}}),
    ("transform", dict(_GOOD_JOB, profile={"family": "gaussian", "sigma": 0})),
    ("transform", dict(_GOOD_JOB, profile={
        "family": "grid", "x": _X, "y": np.exp(-np.square(_X)).tolist(),
        "order": -1})),
    ("transform", dict(_GOOD_JOB, profile={
        "family": "grid", "x": _X[:8], "y": [1.0] * 8, "order": 8})),
    ("transform", dict(_GOOD_JOB, grid={"lo": 0.5, "hi": 2.0, "count": 5.5})),
    ("transform", dict(_GOOD_JOB, profile={
        "family": "grid", "x": _X, "y": np.exp(-np.square(_X)).tolist(),
        "order": True})),
    ("chain", dict(_CHAIN_JOB, chain={"rho": 1000.0})),
    ("chain", dict(_CHAIN_JOB, chain={"h": {"family": "bump", "a": 1e6}})),
    ("transform", dict(_GOOD_JOB, grid={"lo": 0.5, "hi": 2.0,
                                        "count": 1e308})),
    ("dual", {"command": "dual", "model": "hyperboloid",
              "params": {"n": 1e308, "j": 0, "k": 1},
              "profile": {"family": "bump", "a": 1.5},
              "grid": {"kind": "sinh", "lo": 0.5, "hi": 1.0, "count": 3}}),
    ("chain", dict(_CHAIN_JOB, params={"n": 1e308, "j": 1, "k": 2})),
    ("chain", dict(_CHAIN_JOB, mc={"seed": 9, "n_samples": 1e308})),
], ids=["bad-params", "power-without-p", "non-numeric-grid-bound",
        "nan-in-grid-profile", "chain-h-without-family",
        "chain-h-non-numeric-a", "chain-non-numeric-rho",
        "duality-not-an-object", "closed-form-non-numeric-alpha",
        "nan-rel-tol", "negative-mc-seed", "nan-gaussian-sigma",
        "infinite-bump-a", "nan-power-p", "infinite-closed-form-alpha",
        "nan-closed-form-a", "nan-decay-hint", "dual-negative-radius",
        "convert-cosh-below-one", "convert-sin-above-one",
        "zero-gaussian-sigma", "negative-grid-order", "grid-order-at-node-count",
        "fractional-grid-count", "boolean-grid-order",
        "chain-rho-with-infinite-cosh", "chain-h-support-with-infinite-cosh",
        "huge-grid-count", "huge-dimension", "huge-dimension-monte-carlo",
        "huge-sample-count"])
def test_invalid_params_exit_2(tmp_path, command, doc):
    doc = dict(doc, output={"path": str(tmp_path / "x.csv")})
    job = _write_job(tmp_path, "bad.json", doc)
    assert main([command, "--job", job]) == 2
    assert not (tmp_path / "x.csv").exists()


_CONVERT_JOB = {
    "command": "convert",
    "convert": {"from": "euclidean", "to": "elliptic"},
    "grid": {"lo": 0.0, "hi": 1.0, "count": 3},
}


def test_unknown_output_format_exits_2(tmp_path, capsys):
    # --format accepts only csv and json, and so does the job document
    job = _write_job(tmp_path, "xml.json", dict(
        _CONVERT_JOB, output={"format": "xml", "path": str(tmp_path / "o.x")}))
    assert main(["convert", "--job", job]) == 2
    assert "unknown output format 'xml'" in capsys.readouterr().err
    assert not (tmp_path / "o.x").exists()


@pytest.mark.parametrize("command, doc", [("convert", _CONVERT_JOB),
                                          ("verify", {"command": "verify"})])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command, doc):
    # a path under a missing directory is an error message and exit 2, not
    # a traceback, and no file or directory is created
    out = tmp_path / "missing" / "o.json"
    job = _write_job(tmp_path, "job.json", dict(
        doc, output={"format": "json", "path": str(out)}))
    assert main([command, "--job", job]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cannot write output" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


@pytest.mark.parametrize("command, doc", [
    ("verify", {"command": "verify"}),
    ("transform", _GOOD_JOB)])
def test_missing_output_directory_exits_2_before_the_work(
        tmp_path, monkeypatch, capsys, command, doc):
    def forbidden(*args, **kwargs):
        raise AssertionError("the job ran before its output path was checked")

    monkeypatch.setattr(cli, "identity_suite", forbidden)
    monkeypatch.setattr(R, "transform_function", forbidden)
    job = _write_job(tmp_path, "job.json", dict(
        doc, output={"path": str(tmp_path / "missing" / "r.json")}))
    assert main([command, "--job", job]) == 2
    assert "cannot write output" in capsys.readouterr().err


def test_mc_non_convergence_exits_4(tmp_path, monkeypatch, capsys):
    # an estimate whose standard error stops shrinking (terms 1000x wider
    # after the first quarter of the chunks) makes the job exit 4
    monkeypatch.setenv("GEORADON_THREADS", "1")

    def drifting_check(which, f, phi, p, spec):
        calls = []

        def terms(rng, count):
            calls.append(count)
            scale = 1e-3 if len(calls) <= 2 else 1.0
            return scale * rng.standard_normal(count)
        est, = MC._estimates(lambda units: np.concatenate(
            [terms(rng, count) for _, _, count, rng in units]), [spec], 1)
        return est, est

    monkeypatch.setattr(MC, "duality_check_mc", drifting_check)
    out = tmp_path / "d.csv"
    job = _write_job(tmp_path, "dual.json", dict(
        _DUALITY_JOB, mc={"seed": 5, "n_samples": 8 * MC.CHUNK},
        output={"path": str(out)}))
    assert main(["mc-duality", "--job", job]) == 4
    assert "failed to converge" in capsys.readouterr().err
    assert out.exists()


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # one process, one parser: each call gets the output its own flags ask
    # for, and a bad flag after good calls still exits 2
    job = _write_job(tmp_path, "conv.json", dict(
        _CONVERT_JOB, output={"path": str(tmp_path / "c.out")}))
    assert main(["convert", "--job", job, "--format", "json"]) == 0
    assert json.loads((tmp_path / "c.out").read_text())["columns"]
    assert main(["convert", "--job", job]) == 0
    csv = (tmp_path / "c.out").read_text()
    assert csv.splitlines()[1] == "coordinate,value"
    assert main(["convert", "--job", job,
                 "--out", str(tmp_path / "other.csv")]) == 0
    assert (tmp_path / "other.csv").read_text() == csv
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--job", job, "--format", "xml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--job", job, "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["convert", "--job", job]) == 0
    assert (tmp_path / "c.out").read_text() == csv


def test_divergent_profile_exit_3(tmp_path):
    job = _write_job(tmp_path, "div.json", {
        "command": "transform", "model": "euclidean",
        "params": {"n": 4, "j": 0, "k": 2},
        "profile": {"family": "power", "p": 0.0},
        "grid": {"lo": 0.5, "hi": 2.0, "count": 5},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    assert main(["transform", "--job", job]) == 3


def test_convert_job(tmp_path):
    job = _write_job(tmp_path, "conv.json", {
        "command": "convert",
        "convert": {"from": "euclidean", "to": "elliptic"},
        "grid": {"lo": 0.0, "hi": 1.0, "count": 3},
        "output": {"path": str(tmp_path / "c.csv")},
    })
    assert main(["convert", "--job", job]) == 0
    rows = (tmp_path / "c.csv").read_text().splitlines()
    assert abs(float(rows[-1].split(",")[1]) - math.pi / 4) < 1e-14


def test_invert_job(tmp_path):
    # the forward transform of the gaussian has a closed form; ask the CLI
    # to invert it and compare with the gaussian
    n, j, k = 4, 0, 2
    s = list(np.linspace(0.05, 3.5, 24))
    vals = [math.pi * math.exp(-x * x) for x in s]
    job = _write_job(tmp_path, "inv.json", {
        "command": "invert", "model": "euclidean",
        "params": {"n": n, "j": j, "k": k},
        "profile": {"family": "grid", "x": s, "y": vals, "order": 5,
                    "decay_hint": 8.0},
        "grid": {"lo": 0.3, "hi": 2.0, "count": 12},
        "check_residual": False,
        "output": {"path": str(tmp_path / "inv.csv")},
    })
    assert main(["invert", "--job", job]) == 0
    rows = (tmp_path / "inv.csv").read_text().splitlines()[2:]
    for row in rows[::4]:
        coord, value = (float(c) for c in row.split(","))
        assert abs(value - math.exp(-coord * coord)) < 2e-3


@pytest.mark.parametrize("model, params, grid", [
    # a hyperboloid forward window below cosh 1
    ("hyperboloid", {"n": 3, "j": 0, "k": 1},
     {"kind": "cosh", "lo": 0.05, "hi": 0.5, "count": 8}),
    # a projective window past pi/4
    ("projective", {"n": 4, "j": 0, "k": 2}, {"lo": 0.3, "hi": 0.9, "count": 8}),
    # a projective window whose hyperboloid pull-back collapses to a point
    ("projective", {"n": 4, "j": 0, "k": 2}, {"lo": 0.0, "hi": 1e-9,
                                              "count": 8}),
], ids=["hyperboloid-below-cosh-1", "projective-past-pi-4",
        "projective-collapsed-pull-back"])
def test_invert_window_outside_the_span_exits_2(tmp_path, model, params, grid):
    job = _write_job(tmp_path, "inv.json", {
        "command": "invert", "model": model, "params": params,
        "profile": {"family": "gaussian", "sigma": 0.7}, "grid": grid,
        "output": {"path": str(tmp_path / "inv.csv")},
    })
    assert main(["invert", "--job", job]) == 2
    assert not (tmp_path / "inv.csv").exists()


def test_mc_duality_job(tmp_path):
    job = _write_job(tmp_path, "dual.json", dict(
        _DUALITY_JOB, output={"path": str(tmp_path / "d.csv")}))
    assert main(["mc-duality", "--job", job]) == 0
    rows = (tmp_path / "d.csv").read_text().splitlines()
    lhs = float(rows[2].split(",")[1])
    rhs = float(rows[3].split(",")[1])
    se = math.hypot(float(rows[2].split(",")[2]), float(rows[3].split(",")[2]))
    assert abs(lhs - rhs) <= 4 * se


def test_chain_job(tmp_path):
    job = _write_job(tmp_path, "chain.json", dict(
        _CHAIN_JOB, output={"path": str(tmp_path / "ch.csv")}))
    assert main(["chain", "--job", job]) == 0
    rows = (tmp_path / "ch.csv").read_text().splitlines()
    lhs = float(rows[2].split(",")[1])
    rhs = float(rows[3].split(",")[1])
    se = float(rows[2].split(",")[2])
    assert abs(lhs - rhs) <= 4 * se


def test_chain_job_gaussian(tmp_path):
    job = _write_job(tmp_path, "chain.json", dict(
        _CHAIN_JOB, chain={"h": {"family": "gaussian", "sigma": 0.8},
                           "rho": 0.6},
        output={"path": str(tmp_path / "ch.csv")}))
    assert main(["chain", "--job", job]) == 0
    rows = [[float(c) for c in row.split(",")]
            for row in (tmp_path / "ch.csv").read_text().splitlines()[2:]]
    # the job's geodesic: one rotation drawn on the job's stream + 999
    rot = MC.sample_rotation(3, MC._rng(MC.McSpec(9, 1, 999), 0))
    lhs, rhs = IV.chain_identity(
        R.TransformParams(3, 1, 2),
        gaussian(0.8, arg_kind=ArgKind.GeodesicDistance),
        MC.GeodesicElement(3, 2, rot, 0.6), MC.McSpec(9, 30000))
    assert rows == [[0.0, lhs.value, lhs.std_error], [1.0, rhs, 0.0]]
    # the composed side estimates the direct one
    assert abs(lhs.value - rhs) <= 4 * lhs.std_error


def test_verify_job_writes_report(tmp_path):
    job = _write_job(tmp_path, "verify.json", {
        "command": "verify",
        "output": {"path": str(tmp_path / "report.json"), "format": "json"},
    })
    assert main(["verify", "--job", job]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["all_pass"] is True
    assert doc["count"] >= 20
    assert all(entry["pass"] for entry in doc["identities"])


def test_console_entry_point(tmp_path):
    job = _write_job(tmp_path, "t.json", {
        "command": "table", "model": "euclidean",
        "profile": {"family": "gaussian"},
        "grid": {"lo": 0.0, "hi": 1.0, "count": 3},
        "output": {"path": str(tmp_path / "t.csv")},
    })
    proc = subprocess.run([sys.executable, "-m", "georadon.cli", "table",
                           "--job", job], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # only the smoothing spline of the reconstruction chain needs
    # scipy.interpolate, and only the Gauss-Jacobi rules need scipy.special
    code = ("import sys, georadon.cli; "
            "print('scipy.interpolate' in sys.modules, "
            "'scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


#: one small valid job document per command
_VALID_JOBS = {
    "transform": dict(_GOOD_JOB, quadrature={
        "rel_tol": 1e-10, "abs_tol": 1e-12, "max_subdivisions": 200,
        "truncation_tail_tol": 1e-12}),
    "dual": {"command": "dual", "model": "hyperboloid",
             "params": {"n": 3, "j": 0, "k": 1},
             "profile": {"family": "bump", "a": 1.5},
             "grid": {"kind": "sinh", "lo": 0.5, "hi": 1.0, "count": 3}},
    "invert": {"command": "invert", "model": "euclidean",
               "params": {"n": 4, "j": 0, "k": 2},
               "profile": {"family": "gaussian", "sigma": 0.7},
               "grid": {"lo": 0.3, "hi": 0.9, "count": 3},
               "check_residual": False, "dual": False},
    "convert": _CONVERT_JOB,
    "verify": {"command": "verify", "quadrature": {"rel_tol": 1e-10}},
    "mc-duality": dict(_DUALITY_JOB,
                       mc={"seed": 5, "n_samples": 500, "stream_id": 1}),
    "chain": dict(_CHAIN_JOB, mc={"seed": 9, "n_samples": 500, "stream_id": 1}),
    "table": {"command": "table", "model": "euclidean",
              "profile": {"family": "gaussian", "sigma": 1.0},
              "grid": {"lo": 0.0, "hi": 2.0, "count": 3}},
}


def _field_paths(doc, prefix=()):
    """The key path of every field of a job document, nested ones too."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


#: the values a mutation puts in place of a field's value
_BAD_VALUES = {"string": "x", "nan": math.nan, "inf": math.inf,
               "-inf": -math.inf, "huge": 1e308, "bool": True}


def _mutated(doc, path, mutation):
    """A deep copy of ``doc`` with the field at ``path`` dropped, negated
    (-1 where it is not a nonzero number) or given a ``_BAD_VALUES`` value."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    sec = doc
    for k in parents:
        sec = sec[k]
    value = sec.pop(key)
    if mutation == "negative":
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        sec[key] = -abs(value) if number and value else -1.0
    elif mutation != "drop":
        sec[key] = _BAD_VALUES[mutation]
    return doc


@st.composite
def _mutated_jobs(draw):
    command = draw(st.sampled_from(sorted(_VALID_JOBS)))
    doc = _VALID_JOBS[command]
    for _ in range(draw(st.integers(1, 2))):
        doc = _mutated(doc, draw(st.sampled_from(list(_field_paths(doc)))),
                       draw(st.sampled_from(["drop", "negative",
                                             *_BAD_VALUES])))
    return command, doc


@settings(max_examples=300, deadline=None)
@given(_mutated_jobs())
def test_mutated_job_documents_never_exit_1(job):
    # a job document with a field dropped or given a wrong value is run or
    # refused with an exit code, never a traceback (exit 1)
    command, doc = job
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        doc = dict(doc, output={"path": str(Path(tmp) / "out.csv")})
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--job", str(path)]) in (0, 2, 3, 4)
