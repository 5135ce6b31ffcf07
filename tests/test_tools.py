"""The repository's tools on small fixtures."""

import pathlib
import subprocess
import sys
import textwrap

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"

FIXTURE_MODULE = '''\
"""A module of which the fixture test runs every line but one."""

import functools


@functools.lru_cache
def sign(x):
    if x < 0:
        return -1
    return 1


class Box:
    def __init__(self, items):
        self.items = [
            sign(item)
            for item in items
        ]
'''

FIXTURE_TEST = '''\
from fixture_module import Box, sign


def test_positive():
    assert sign(2) == 1
    assert Box([3, 4]).items == [1, 1]
'''


def test_line_coverage_finds_the_one_unrun_line(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "fixture_module.py").write_text(FIXTURE_MODULE)
    (tmp_path / "test_fixture.py").write_text(FIXTURE_TEST)
    unrun = FIXTURE_MODULE.splitlines().index("        return -1") + 1
    result = subprocess.run(
        [sys.executable, str(TOOLS / "line_coverage.py"), "--src", str(src), "--",
         "test_fixture.py", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    *_, file_line, total_line = result.stdout.splitlines()
    report = textwrap.indent(result.stdout, "  ")
    name, count, lines = file_line.split(": ")
    assert (name, count.split(" of ")[0], lines) == ("fixture_module.py", "1", str(unrun)), report
    assert total_line.startswith("total: 1 of "), report


def test_ci_runs_line_coverage_as_an_informational_step():
    workflow = (TOOLS.parent / ".github" / "workflows" / "tier1.yml").read_text()
    steps = [step for step in workflow.split("\n      - ") if "tools/line_coverage.py" in step]
    assert len(steps) == 1
    assert "continue-on-error: true" in steps[0]
