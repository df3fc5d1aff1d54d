"""The demo scripts, run as a user runs them: each in its own process.

Demos 01–05 print exact values only, so their stdout is compared byte for
byte with the files under tests/demo_golden/; demo 06 prints wall times,
so it only has to exit 0.  To accept an intended change of output,
rewrite the golden file from the demo's stdout and review the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "demo_golden"
EXACT = sorted(GOLDEN.glob("*.out"))


def _run(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )


def test_every_exact_demo_has_a_golden_file():
    assert [p.stem for p in EXACT] == sorted(
        p.stem for p in (ROOT / "demos").glob("0[1-5]_*.py")
    )


@pytest.mark.parametrize("golden", EXACT, ids=[p.stem[:2] for p in EXACT])
def test_demo_prints_its_golden_bytes(golden):
    run = _run(golden.stem)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == golden.read_bytes()


def test_three_routes_demo_runs():
    run = _run("06_three_routes")
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout
