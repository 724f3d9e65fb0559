"""``tools/loc.py``: the package's line counts per module."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "loc.py")
PACKAGE = os.path.join(ROOT, "src", "dynkin")


def _loc():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(*args):
    """The tool's output as {module: [numbers]}."""
    out = subprocess.run([sys.executable, TOOL, *args], capture_output=True,
                         check=True, encoding="utf-8", timeout=60).stdout
    lines = out.splitlines()
    return {f[0]: [int(v) for v in f[1:]] for f in map(str.split, lines[1:])}


def test_module_counts_sum_to_the_total():
    rows = _rows()
    total = rows.pop("total")
    assert [sum(col) for col in zip(*rows.values())] == total
    assert sorted(rows) == sorted(
        name for name in os.listdir(PACKAGE) if name.endswith(".py"))
    for name, (code, doc, lines) in rows.items():
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            assert lines == len(fh.read().splitlines()), name
        assert code + doc <= lines, name


def test_count_splits_code_from_docstrings_and_the_rest():
    source = (
        '"""Module.\n\nMore."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # code\n"
        "\n"
        "\n"
        "def f():\n"
        '    """One line."""\n'
        "    return (\n"
        "        x)\n"
    )
    # docstrings: lines 1-3 and 10; code: lines 6, 9, 11 and 12
    assert _loc().count(source) == (4, 4, 12)


def test_the_change_since_a_revision():
    try:
        subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    now = _rows()
    rows = _rows("--base", "HEAD")
    assert all(rows[name][:3] == row for name, row in now.items())
    base = _loc().counts("HEAD")
    for name, row in rows.items():
        if name != "total":
            was = base.get(name, (0, 0, 0))
            assert row[3:] == [a - b for a, b in zip(row[:3], was)], name
    total = rows.pop("total")
    assert [sum(col) for col in zip(*rows.values())] == total
