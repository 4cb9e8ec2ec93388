"""CLI subcommands, exit codes, report emission, SVG rendering."""

import csv
import json
import math
import shutil
from pathlib import Path

import pytest

from conftest import solved_field
from levelset_lab import cli, solver
from levelset_lab.critical import find_critical_points
from levelset_lab.render import render_svg
from levelset_lab.verify import TheoremVerdict


@pytest.fixture(scope="module")
def scen(tmp_path_factory):
    """Small-grid copies of the built-in scenarios for quick CLI runs."""
    out = tmp_path_factory.mktemp("scenarios")
    src = cli.builtin_scenario_dir()
    for name in ("counterexample1", "log_annulus", "z_plus_inv", "z2_minus_zm2"):
        data = json.loads((src / f"{name}.json").read_text())
        data["grid"] = {"n_theta": 64, "n_s": 32}
        (out / f"{name}.json").write_text(json.dumps(data))
    return out


def test_verify_exit_zero_and_report_content(scen, tmp_path):
    code = cli.main(["verify", str(scen / "counterexample1.json"), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["critical_points"] == []
    assert list(report)[:8] == ["scenario", "grid", "boundary_profile", "critical_points",
                                "censuses", "verdicts", "warnings", "notes"]


def test_verify_report_verdict_values(scen, tmp_path):
    code = cli.main(["verify", str(scen / "z_plus_inv.json"), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    thm = next(v for v in report["verdicts"] if v["id"] == "thm_1_1")
    assert thm == dict(thm, holds=True, lhs=2, rhs=2)


def test_verify_byte_identical_modulo_timestamp(scen, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert cli.main(["verify", str(scen / "z2_minus_zm2.json"), "--out", str(out)]) == 0
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    ra.pop("timestamp")
    rb.pop("timestamp")
    assert json.dumps(ra) == json.dumps(rb)


def test_exit_one_on_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    assert cli.main(["verify", str(bad), "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_exit_one_on_ellipticity_violation(tmp_path, capsys):
    scenario = {
        "domain": {"interior": {"radius": "1"}, "exterior": {"radius": "2"}},
        "operator": {"a11": "1", "a12": "1.5", "a22": "1"},
        "boundary": {"psi_interior": "0", "psi_exterior": "1"},
        "grid": {"n_theta": 64, "n_s": 32},
        "tolerances": {},
    }
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["verify", str(path), "--out", str(tmp_path)]) == 1
    assert "ellipticity" in capsys.readouterr().err


def test_exit_two_on_failed_verdict(scen, tmp_path, monkeypatch, capsys):
    """A doctored report with a failed applicable check maps to exit code 2."""
    import levelset_lab.cli as cli_mod

    real_run = cli_mod.run_scenario

    def doctored(spec, fingerprint=""):
        report = real_run(spec, fingerprint)
        report.verdicts[0] = TheoremVerdict(
            id="thm_1_1", applicable=True, holds=False, lhs=9, rhs=7,
            hypotheses=[], witness={})
        return report

    monkeypatch.setattr(cli_mod, "run_scenario", doctored)
    code = cli_mod.main(["verify", str(scen / "counterexample1.json"), "--out", str(tmp_path)])
    assert code == 2
    assert "FAIL thm_1_1" in capsys.readouterr().err


def test_usage_error_exit_one(capsys):
    assert cli.main(["no-such-command"]) == 1


@pytest.mark.parametrize("argv, check", [
    (["render", "z_plus_inv.json", "--grid", "2x2", "--t", "0"], "grid"),
    (["critical", "z_plus_inv.json", "--grid", "2x2"], "grid"),
    (["census", "log_annulus.json", "--grid", "2x2", "--t", "0.5"], "grid"),
    (["solve", "log_annulus.json", "--grid", "0x0"], "grid"),
    (["solve", "log_annulus.json", "--grid", "8x4"], "grid"),
    (["critical", "z_plus_inv.json", "--tol-grad", "-1"], "tolerances"),
    (["critical", "z_plus_inv.json", "--tol-grad", "nan"], "tolerances"),
    (["critical", "z_plus_inv.json", "--tol-grad", "inf"], "tolerances"),
])
def test_overrides_are_validated(scen, tmp_path, capsys, argv, check):
    """--grid and --tol-grad values go through scenario validation: exit 1
    with structured error lines, no traceback and no run below the limits."""
    command, name, *rest = argv
    assert cli.main([command, str(scen / name), *rest, "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith(f"error: {scen / name}: {check}: ") for line in lines)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key, value, message", [
    ("lambda_floor", "tiny", "operator.lambda_floor must be a number"),
    ("lambda_floor", [1e-10], "operator.lambda_floor must be a number"),
    ("notes", 5, "notes must be a list of strings"),
    ("notes", "text", "notes must be a list of strings"),
    ("notes", ["fine", 7], "notes must be a list of strings"),
    # NaN and Infinity are not JSON numbers, though Python's json reads them
    pytest.param("lambda_floor", math.nan, "operator.lambda_floor must be a number", id="lambda_floor-NaN"),
    pytest.param("lambda_floor", math.inf, "operator.lambda_floor must be a number", id="lambda_floor-Infinity"),
    pytest.param("tolerances.linear_residual_tol", math.nan, "tolerances.linear_residual_tol must be a number",
                 id="linear_residual_tol-NaN"),
    pytest.param("tolerances.linear_residual_tol", "nan", "tolerances.linear_residual_tol must be a number",
                 id="linear_residual_tol-string"),
    pytest.param("tolerances.grad_zero_tol", -math.inf, "tolerances.grad_zero_tol must be a number",
                 id="grad_zero_tol-minus-Infinity"),
    pytest.param("tolerances.equal_extrema_tol", True, "tolerances.equal_extrema_tol must be a number",
                 id="equal_extrema_tol-true"),
    pytest.param("grid.n_theta", 128.7, "grid.n_theta / grid.n_s must be integers", id="n_theta-fraction"),
    pytest.param("grid.n_theta", "128", "grid.n_theta / grid.n_s must be integers", id="n_theta-string"),
    pytest.param("grid.n_s", True, "grid.n_theta / grid.n_s must be integers", id="n_s-true"),
])
def test_schema_type_errors_are_structured(scen, tmp_path, capsys, key, value, message):
    """A mistyped or non-finite number, or a mistyped notes entry, is a
    schema violation: exit 1 with one structured error line and no
    traceback."""
    data = json.loads((scen / "z_plus_inv.json").read_text())
    if key == "lambda_floor":
        data["operator"] = dict(data["operator"], lambda_floor=value)
    elif "." in key:
        block, name = key.split(".")
        data[block] = dict(data.get(block) or {}, **{name: value})
    else:
        data[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["verify", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: schema: {message}"]
    assert not any(out.iterdir())


def test_verify_validates_once(scen, tmp_path, capsys, monkeypatch):
    """verify validates the scenario once (inside run_scenario), and a bad
    override still exits 1 with structured error lines."""
    import levelset_lab.domain as domain_mod
    import levelset_lab.verify as verify_mod
    calls = []

    def counting(fn):
        return lambda spec, *a, **k: calls.append(spec.name) or fn(spec, *a, **k)

    monkeypatch.setattr(domain_mod, "validate_scenario", counting(domain_mod.validate_scenario))
    monkeypatch.setattr(verify_mod, "validate_scenario", counting(verify_mod.validate_scenario))
    path = scen / "log_annulus.json"
    assert cli.main(["verify", str(path), "--grid", "32x16", "--out", str(tmp_path)]) == 0
    assert calls == ["log_annulus"]
    capsys.readouterr()
    out = tmp_path / "bad"
    assert cli.main(["verify", str(path), "--grid", "2x2", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith(f"error: {path}: grid: ") for line in lines)
    assert not any(out.iterdir())


def test_census_subcommand(scen, tmp_path):
    code = cli.main(["census", str(scen / "log_annulus.json"), "--t", "0.5", "--out", str(tmp_path)])
    assert code == 0
    census = json.loads((tmp_path / "census.json").read_text())
    assert census["M1"] == 1 and census["M2"] == 1


def test_critical_subcommand(scen, tmp_path):
    code = cli.main(["critical", str(scen / "z_plus_inv.json"), "--grid", "128x64",
                     "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "critical.csv").open()))
    assert len(rows) == 2
    assert {r["multiplicity"] for r in rows} == {"1"}
    assert abs(abs(float(rows[0]["x"])) - 1.0) < 5e-3


def test_solve_subcommand_csv(scen, tmp_path):
    code = cli.main(["solve", str(scen / "log_annulus.json"), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "log_annulus_field.csv").read_text().splitlines()
    assert lines[0] == "theta,s,x,y,u"


def test_render_subcommand(scen, tmp_path):
    code = cli.main(["render", str(scen / "z2_minus_zm2.json"),
                     "--t", "-1", "--t", "0", "--t", "1", "--out", str(tmp_path)])
    assert code == 0
    svg = (tmp_path / "levelsets.svg").read_text()
    assert svg.count('<g id="level-') == 3
    assert svg.count("<circle") == 4
    assert svg.startswith("<svg")


def test_render_empty_thresholds():
    fld = solved_field("log_annulus", 64, 32)
    svg = render_svg(fld, [], [])
    assert '<g id="boundaries"' in svg
    assert '<g id="level-' not in svg


def test_render_threshold_above_max_group_empty():
    fld = solved_field("log_annulus", 64, 32)
    svg = render_svg(fld, [5.0], find_critical_points(fld))
    assert '<g id="level-0"' in svg
    group = svg.split('<g id="level-0"', 1)[1].split("</g>", 1)[0]
    assert "<path" not in group


def test_render_deterministic():
    fld = solved_field("z2_minus_zm2", 64, 32)
    pts = find_critical_points(fld)
    assert render_svg(fld, [0.0], pts) == render_svg(fld, [0.0], pts)


def test_batch_subcommand(scen, tmp_path, monkeypatch):
    monkeypatch.setenv("LEVELSET_LAB_THREADS", "2")
    code = cli.main(["batch", str(scen), "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "batch_summary.csv").open()))
    assert [r["scenario"] for r in rows] == sorted(
        p.stem for p in Path(scen).glob("*.json"))
    assert all(r["status"] == "ok" for r in rows)
    for r in rows:
        assert (tmp_path / f"{r['scenario']}_report.json").exists()


def test_threaded_batch_writes_the_serial_reports(scen, tmp_path, monkeypatch):
    """Worker threads share the cached per-grid assembly plans: a batch on
    two threads, each run starting from an empty plan cache, writes the
    same reports as one thread, the timestamp aside."""
    batch_dir = tmp_path / "in"
    shutil.copytree(scen, batch_dir)
    data = json.loads((cli.builtin_scenario_dir() / "disk_z2.json").read_text())
    data["grid"] = {"n_theta": 64, "n_s": 32}
    (batch_dir / "disk_z2.json").write_text(json.dumps(data))
    reports = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("LEVELSET_LAB_THREADS", threads)
        solver._grid_plan.cache_clear()
        out = tmp_path / threads
        out.mkdir()
        assert cli.main(["batch", str(batch_dir), "--out", str(out)]) == 0
        reports[threads] = {p.name: {k: v for k, v in json.loads(p.read_text()).items() if k != "timestamp"}
                            for p in out.glob("*_report.json")}
        reports[threads]["batch_summary.csv"] = (out / "batch_summary.csv").read_text()
    assert len(reports["1"]) == 6
    assert reports["2"] == reports["1"]


def test_batch_rejects_malformed_thread_count(scen, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LEVELSET_LAB_THREADS", "abc")
    assert cli.main(["batch", str(scen), "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {scen}: cli: ") and "LEVELSET_LAB_THREADS" in lines[0]


def test_unwritable_output_path(scen, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    code = cli.main(["census", str(scen / "log_annulus.json"), "--t", "0.5",
                     "--out", str(blocker)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_batch_survives_unreadable_file(scen, tmp_path, capsys):
    batch_dir = tmp_path / "in"
    batch_dir.mkdir()
    shutil.copy(scen / "log_annulus.json", batch_dir / "good.json")
    (batch_dir / "latin1.json").write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    code = cli.main(["batch", str(batch_dir), "--out", str(tmp_path / "out")])
    assert code == 1
    rows = {r["scenario"]: r["status"] for r in csv.DictReader((tmp_path / "out" / "batch_summary.csv").open())}
    assert rows["good"] == "ok"
    assert rows["latin1"].startswith("error:") and "cannot read scenario" in rows["latin1"]
    assert cli.main(["verify", str(batch_dir / "latin1.json"), "--out", str(tmp_path)]) == 1


def test_batch_records_unexpected_exception(scen, tmp_path, monkeypatch, capsys):
    real = cli._verify_one

    def flaky(path, args):
        if path.endswith("z_plus_inv.json"):
            raise RuntimeError("boom")
        return real(path, args)

    monkeypatch.setattr(cli, "_verify_one", flaky)
    batch_dir = tmp_path / "in"
    batch_dir.mkdir()
    for name in ("log_annulus", "z_plus_inv"):
        shutil.copy(scen / f"{name}.json", batch_dir / f"{name}.json")
    code = cli.main(["batch", str(batch_dir), "--out", str(tmp_path / "out")])
    assert code == 1
    rows = {r["scenario"]: r["status"] for r in csv.DictReader((tmp_path / "out" / "batch_summary.csv").open())}
    assert rows == {"log_annulus": "ok", "z_plus_inv": "error: RuntimeError: boom"}
    assert "Traceback" in capsys.readouterr().err


def test_disk_with_interior_datum_is_a_validation_error(tmp_path, capsys):
    """A disk has no interior curve to carry psi_interior: verify exits 1
    with one boundary_data line, and batch records the same violation."""
    data = json.loads((cli.builtin_scenario_dir() / "disk_z2.json").read_text())
    data["boundary"]["psi_interior"] = "0"
    batch_dir = tmp_path / "in"
    batch_dir.mkdir()
    path = batch_dir / "disk_inner.json"
    path.write_text(json.dumps(data))
    message = "psi_interior must be present exactly when the domain has an interior curve"
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: boundary_data: {message}"]
    assert cli.main(["batch", str(batch_dir), "--out", str(tmp_path / "out")]) == 1
    rows = {r["scenario"]: r["status"] for r in csv.DictReader((tmp_path / "out" / "batch_summary.csv").open())}
    assert rows == {"disk_inner": f"error: 1 validation error(s): {message}"}


@pytest.mark.parametrize("name", ["../escaped", "a\u0000b"])
def test_scenario_name_cannot_leave_out(scen, tmp_path, capsys, name):
    """solve, verify and batch name their files after the scenario; a name
    with a path separator or NUL is a schema error, and nothing is written
    outside --out."""
    data = json.loads((scen / "log_annulus.json").read_text())
    data["name"] = name
    batch_dir = tmp_path / "in"
    batch_dir.mkdir()
    path = batch_dir / "named.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "runs" / "out"
    message = f"name {name!r} must not contain a path separator or NUL"
    for command in ("solve", "verify"):
        assert cli.main([command, str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: schema: {message}"]
    assert cli.main(["batch", str(batch_dir), "--out", str(out)]) == 1
    rows = {r["scenario"]: r["status"] for r in csv.DictReader((out / "batch_summary.csv").open())}
    assert rows == {"named": f"error: 1 validation error(s): {message}"}
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert written == ["in/named.json", "runs/out/batch_summary.csv"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["census", "render"])
def test_non_finite_threshold_rejected(scen, tmp_path, capsys, command, value):
    """A threshold that is not finite has no level set: exit 1 with one
    cli line, and no output file.  ("--t=-inf": argparse reads a bare
    "-inf" as an option.)"""
    path = scen / "log_annulus.json"
    assert cli.main([command, str(path), f"--t={value}", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: cli: bad --t value {float(value)!r}, want a finite number"]
    assert not any(tmp_path.iterdir())
