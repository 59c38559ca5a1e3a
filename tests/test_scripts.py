"""Smoke runs of the scripts under scripts/, each in its own process at p = 5."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, summary", [
    ("theorem1_table.py", ["--trials", "3"], r"^3/3 agree$"),
    ("exactness_sweep.py", ["--draws", "1"], r"^p = 5: \d+ checks in [\d.]+s: pass$"),
    ("depth_one_counterexample.py", [], r"^  gap left uncorrected\s+: 1$"),
    ("hensel_crossover.py", ["--ms", "3-4", "--roots", "1", "--repeat", "1"],
     r"^F_p\^2\s+6\s+4\s+[\d.]+\s+[\d.]+\s+x[\d.]+$"),
])
def test_script_runs_and_prints_its_summary(script, args, summary):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--p", "5", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.search(summary, done.stdout, re.MULTILINE), done.stdout


def test_src_lines_counts_lines_and_lines_of_code(tmp_path):
    # one module of known counts: 11 lines, of which 4 are code: the import,
    # the def, the assignment of a string that holds a # and the return
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text('"""A module docstring\n\nover three lines."""\n'
                      "import os\n\n# a comment line\n"
                      'def f():\n    """One line."""\n    s = "#"  # not a comment line\n'
                      "    return s\n\n")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert [line.split() for line in done.stdout.splitlines()] == [
        ["module", "lines", "code"], ["pkg/mod.py", "11", "4"], ["total", "11", "4"]]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = {name: (int(lines), int(code)) for name, lines, code in
            (line.split() for line in done.stdout.splitlines()[1:])}
    modules = {p.relative_to(ROOT / "src").as_posix(): p for p in (ROOT / "src").rglob("*.py")}
    assert set(rows) == {*modules, "total"}
    for name, path in modules.items():
        assert rows[name][0] == len(path.read_text().splitlines()) > rows[name][1]
    assert rows["total"] == tuple(map(sum, zip(*(rows[name] for name in modules))))
