"""The output-corpus comparison of `tests/report_corpus.py`."""

import json
import shutil

from report_corpus import compare, json_paths, main, path_counts


def test_json_paths_names_each_moved_value():
    old = {"grid": {"residuals": [1e-14, 2e-14]}, "points": [{"x": 1.0, "m": 1}]}
    assert json_paths(old, old) == []
    moved = {"grid": {"residuals": [1e-14, 3e-14]}, "points": [{"x": 1.0, "m": 1}]}
    assert json_paths(old, moved) == ["grid.residuals[1]"]
    assert json_paths({"m": 1}, {"m": 1.0}) == ["m"]
    assert json_paths({"holds": True}, {"holds": 1}) == ["holds"]


def test_json_paths_renamed_key_names_its_object():
    assert json_paths({"a": {"lhs": 1, "rhs": 2}}, {"a": {"lhs": 1, "bound": 2}}) == ["a"]
    assert json_paths({"lhs": 1}, {"rhs": 1}) == ["$"]


def test_json_paths_reordered_list_is_one_line():
    a = {"points": [{"x": 1.0, "v": -2e-14}, {"x": -1.0, "v": 2e-14}], "n": [3, 1, 2]}
    b = {"points": [{"x": -1.0, "v": 2e-14}, {"x": 1.0, "v": -2e-14}], "n": [1, 2, 3]}
    assert json_paths(a, b) == ["points: reordered", "n: reordered"]
    assert json_paths([1, 2], [2, 1]) == ["$: reordered"]
    # a permutation that also moves a value, or turns an int into a float,
    # is not a reordering
    assert json_paths([1.0, 2.0], [2.0, 1.5]) == ["[0]", "[1]"]
    assert json_paths([1, 2], [2.0, 1]) == ["[0]", "[1]"]
    assert json_paths([1, 1, 2], [1, 2, 2]) == ["[1]"]


def test_compare_reports_reordered_svg_lines(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, svg, report in ((old, "<svg>\n<a/>\n<b/>\n</svg>\n", '{"p": [1, 2], "q": 0.5}'),
                              (new, "<svg>\n<b/>\n<a/>\n</svg>\n", '{"p": [2, 1], "q": 0.25}')):
        (root / "run").mkdir(parents=True)
        (root / "run" / "levelsets.svg").write_text(svg)
        (root / "run" / "report.json").write_text(report)
        (root / "run" / "exit.txt").write_text("0\n")
    (new / "run" / "exit.txt").write_text("2\n")
    assert compare(old, new) == [
        "differs: run/exit.txt",
        "differs: run/levelsets.svg: reordered",
        "differs: run/report.json: p: reordered, q",
    ]


def test_compare_counts_the_files_of_each_json_path(tmp_path, capsys):
    """After the file list, `compare` prints how many reports differ at each
    JSON path, list indices written [*]; the list and the exit status are
    those of the comparison alone."""
    old, new = tmp_path / "old", tmp_path / "new"
    reports = {"a": ({"solves": [{"iterations": 9}, {"iterations": 10}], "p": [1, 2]},
                     {"solves": [{"iterations": 6}, {"iterations": 7}], "p": [2, 1]}),
               "b": ({"solves": [{"iterations": 5}], "q": 0.5}, {"solves": [{"iterations": 4}], "q": 0.25}),
               "c": ({"solves": [{"iterations": 5}]}, {"solves": [{"iterations": 5}]})}
    for run, payloads in reports.items():
        for root, payload in zip((old, new), payloads):
            (root / run).mkdir(parents=True)
            (root / run / "report.json").write_text(json.dumps(payload))
    (old / "c" / "levelsets.svg").write_text("<svg>\n<a/>\n<b/>\n</svg>\n")
    (new / "c" / "levelsets.svg").write_text("<svg>\n<b/>\n<a/>\n</svg>\n")
    diffs = compare(old, new)
    assert diffs == ["differs: a/report.json: solves[0].iterations, solves[1].iterations, p: reordered",
                     "differs: b/report.json: solves[0].iterations, q",
                     "differs: c/levelsets.svg: reordered"]
    assert path_counts(diffs) == ["solves[*].iterations: 2 files", "p: reordered: 1 files", "q: 1 files"]
    assert main(["compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == diffs + path_counts(diffs) + [f"4 files in {old}, 3 differences"]
    assert path_counts([]) == [] and main(["compare", str(old), str(old)]) == 0


TOL = {"coordinate": 1e-6, "value": 1e-4, "gate": 1e-10}


def test_tolerant_float_moved_inside_its_tolerance():
    old = {"critical_points": [{"x": 1.0, "y": 0.0, "value": 2.0, "degree_radius": 0.1, "multiplicity": 1}],
           "grid": {"linear_residuals": [2e-15, 3e-14]}}
    new = {"critical_points": [{"x": 1.0 + 9e-7, "y": -5e-8, "value": 2.0 - 9e-5, "degree_radius": 0.102,
                                "multiplicity": 1}],
           "grid": {"linear_residuals": [4e-14, 9e-11]}}
    assert json_paths(old, new, tol=TOL) == []
    assert json_paths(old, new) != []


def test_tolerant_float_moved_outside_its_tolerance():
    point = {"x": 1.0, "y": 0.0, "value": 2.0, "degree_radius": 0.1, "multiplicity": 1, "is_zero": False}
    moved = [dict(point, x=1.0 + 2e-6), dict(point, value=2.0 + 2e-4), dict(point, degree_radius=0.11),
             dict(point, multiplicity=2), dict(point, is_zero=True)]
    want = ["critical_points[0].x", "critical_points[0].value", "critical_points[0].degree_radius",
            "critical_points[0].multiplicity", "critical_points[0].is_zero"]
    for other, path in zip(moved, want):
        assert json_paths({"critical_points": [point]}, {"critical_points": [other]}, tol=TOL) == [path]
    # a residual above the gate, a float of no declared tolerance, an int turned float
    assert json_paths({"linear_residuals": [1e-14]}, {"linear_residuals": [2e-10]}, tol=TOL) == ["linear_residuals[0]"]
    assert json_paths({"theta": 0.5}, {"theta": 0.5 + 1e-15}, tol=TOL) == ["theta"]
    assert json_paths({"lhs": 2}, {"lhs": 2.0}, tol=TOL) == ["lhs"]


def test_tolerant_permuted_point_list_matches_as_a_set():
    a = [{"x": 1.0, "y": 0.5, "value": -2e-14}, {"x": -1.0, "y": 0.5, "value": 2e-14}]
    b = [{"x": -1.0, "y": 0.5 + 1e-7, "value": -3e-14}, {"x": 1.0, "y": 0.5, "value": 1e-14}]
    assert json_paths({"critical_points": a}, {"critical_points": b}, tol=TOL) == []
    assert json_paths({"points": a}, {"points": b[::-1]}, tol=TOL) == []
    # outside a point list the order counts, and a point that moved too far matches nothing
    assert json_paths({"censuses": a}, {"censuses": b}, tol=TOL) != []
    far = [dict(b[0], x=-1.1), b[1]]
    assert json_paths({"critical_points": a}, {"critical_points": far}, tol=TOL) != []


def test_compare_tolerant_reads_the_run_scenario(tmp_path):
    """The tolerances come from the run's scenario in the old corpus: the
    diameter of log_annulus is 2e, so a coordinate may move by 5.4e-6."""
    from levelset_lab.cli import builtin_scenario_dir

    old, new = tmp_path / "old", tmp_path / "new"
    for root, x in ((old, 1.5), (new, 1.5 + 5e-6)):
        (root / "scenarios" / "builtin").mkdir(parents=True)
        shutil.copyfile(builtin_scenario_dir() / "log_annulus.json", root / "scenarios" / "builtin" / "log_annulus.json")
        (root / "builtin" / "log_annulus").mkdir(parents=True)
        (root / "builtin" / "log_annulus" / "report.json").write_text(json.dumps({"critical_points": [{"x": x}]}))
    assert compare(old, new, tolerant=True) == []
    assert compare(old, new) == ["differs: builtin/log_annulus/report.json: critical_points[0].x"]
    (new / "builtin" / "log_annulus" / "report.json").write_text(json.dumps({"critical_points": [{"x": 1.5 + 6e-6}]}))
    assert compare(old, new, tolerant=True) == ["differs: builtin/log_annulus/report.json: critical_points[0].x"]
