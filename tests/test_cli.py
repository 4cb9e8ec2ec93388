"""CLI subcommands, exit codes, report emission, SVG rendering."""

import csv
import json
import shutil
from pathlib import Path

import pytest

from conftest import solved_field
from levelset_lab import cli
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
])
def test_overrides_are_validated(scen, tmp_path, capsys, argv, check):
    """--grid and --tol-grad values go through scenario validation: exit 1
    with structured error lines, no traceback and no run below the limits."""
    command, name, *rest = argv
    assert cli.main([command, str(scen / name), *rest, "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith(f"error: {scen / name}: {check}: ") for line in lines)
    assert not any(tmp_path.iterdir())


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
