"""List the lines of src/ that the tier-1 tests never run.

No coverage package is needed: pytest runs in this process under a
sys.settrace line collector (Python 3.11 has no sys.monitoring), and a file's
executable lines are those its compiled code objects map instructions to
(co_lines).  From the repository root:

    python tools/line_coverage.py
    python tools/line_coverage.py --src DIR -- PYTEST_ARGS...

The first form runs the tier-1 command, pytest -q
--continue-on-collection-errors.  The report prints, per .py file under the
source directory, the lines that never ran, then a total; the exit code is
pytest's.  The tracer slows every Python call, so a test with a wall-clock
limit can fail under it that passes without it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import threading
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: pathlib.Path) -> set[int]:
    """The line numbers of every instruction in the file's code objects."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def _line_collector(lines: set[int]):
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def run_traced(files: list[pathlib.Path], pytest_args: list[str]) -> tuple[int, dict]:
    """pytest's exit code, and {file: lines run} for the given files."""
    seen = {str(path): set() for path in files}
    local_tracers = {name: _line_collector(lines) for name, lines in seen.items()}

    def tracer(frame, event, arg):
        local = local_tracers.get(frame.f_code.co_filename)
        if local is not None:
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                        help="directory whose .py files are measured and put on sys.path "
                             "(default: the repository's src)")
    parser.add_argument("pytest_args", nargs=argparse.REMAINDER,
                        help="arguments for pytest after --, default the tier-1 ones")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    pytest_args = [a for a in args.pytest_args if a != "--"] or TIER1_ARGS
    files = sorted(src.rglob("*.py"))
    sys.path.insert(0, str(src))
    code, seen = run_traced(files, pytest_args)

    total = missed = 0
    print(f"\nlines of {src} never run by pytest {' '.join(pytest_args)}:")
    for path in files:
        lines = executable_lines(path)
        unrun = sorted(lines - seen[str(path)])
        total += len(lines)
        missed += len(unrun)
        if unrun:
            print(f"{path.relative_to(src)}: {len(unrun)} of {len(lines)}: {_ranges(unrun)}")
    print(f"total: {missed} of {total} executable lines never ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
