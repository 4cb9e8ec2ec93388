"""The lines of the package that the test suite never runs, found with the
standard library alone (no coverage package is needed).

    python tests/line_coverage.py [pytest arguments]

Runs pytest in this process (by default the tier-1 suite:
`-q --continue-on-collection-errors`) with a line tracer set for this
thread and for every thread started later, before the package is
imported.  Then it prints, for each module of `src/levelset_lab`, the
executable lines that never ran, as ranges, and exits with pytest's exit
code.  A line is executable when the compiled module attributes an
instruction to it.  Tracing makes the suite about 1.5 times slower.
The module is not collected as a test.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "levelset_lab"
ran = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}


def _trace_lines(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    lines = ran.get(frame.f_code.co_filename)
    if lines is None:
        return None
    lines.add(frame.f_lineno)
    return _trace_lines


def executable_lines(path: str) -> set:
    """Line numbers that some instruction of the compiled module carries."""
    lines, stack = set(), [compile(Path(path).read_text(encoding="utf-8"), path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(missed: set, executable: list) -> str:
    """The missed lines as comma-separated ranges; a range runs on over
    lines that are not executable."""
    out, extend = [], False
    for line in executable:
        if line in missed:
            if extend:
                out[-1][1] = line
            else:
                out.append([line, line])
        extend = line in missed
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = never = 0
    for path, seen in ran.items():
        executable = sorted(executable_lines(path))
        missed = set(executable) - seen
        total, never = total + len(executable), never + len(missed)
        name = Path(path).relative_to(ROOT)
        print(f"{name}: {len(missed)} of {len(executable)} never ran" + (f": {ranges(missed, executable)}" if missed else ""))
    print(f"total: {never} of {total} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
