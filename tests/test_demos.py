"""The demo scripts run and print exactly their golden output.

The demos call many public names, so this also guards the public API.  A
changed golden file is an output change to be reviewed.  To rewrite the
files after a reviewed change:

    PYTHONPATH=src python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicasai

DEMOS = Path(__file__).parents[1] / "demos"
GOLDEN = Path(__file__).parent / "golden" / "demos"


def run_demo(script: Path) -> subprocess.CompletedProcess:
    src = str(Path(padicasai.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda s: s.stem)
def test_demo_golden(script):
    r = run_demo(script)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / f"{script.stem}.txt").read_text()


if __name__ == "__main__":
    for script in sorted(DEMOS.glob("*.py")):
        r = run_demo(script)
        if r.returncode:
            sys.exit(f"{script.name}: {r.stderr}")
        (GOLDEN / f"{script.stem}.txt").write_text(r.stdout)
