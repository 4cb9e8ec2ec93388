"""The output-corpus comparison of `tests/report_corpus.py`."""

from report_corpus import compare, json_paths


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
