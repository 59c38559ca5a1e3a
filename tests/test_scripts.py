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
