"""Byte-level regression guard on the walkthroughs in demos/.

Each demo runs in a fresh interpreter under -W error, so a deprecation or
a RuntimeWarning fails it, and its stdout must equal
tests/golden/demos/<demo>.txt. A change that alters a demo's output on
purpose regenerates the file with
`PYTHONPATH=src python -W error demos/<demo>.py > tests/golden/demos/<demo>.txt`
and says why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "demos"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert DEMOS == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, env=env, cwd=ROOT, check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{demo}.txt").read_bytes()
