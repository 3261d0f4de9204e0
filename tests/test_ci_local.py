"""tools/ci_local.py on a small workflow written here; the repository's own
workflow takes minutes, and its run is cited in CHANGES.md."""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("yaml")

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ci_local.py"

WORKFLOW = """\
jobs:
  tests:
    timeout-minutes: 5
    steps:
      - uses: actions/checkout@v4
      - run: python -m pip install -e .[test]
      - name: workspace and env
        working-directory: ${{ runner.temp }}
        env:
          GREETING: hello
        run: |
          test "$PWD" = "$RUNNER_TEMP"
          test "$GREETING" = hello
          test -f "$GITHUB_WORKSPACE/README.md"
          scs --help > /dev/null
      - name: a failing step
        run: |
          echo the last words
          false
          echo not reached
      - name: after the failure
        run: echo still runs
  floors:
    steps:
      - run: python -m pip install "numpy==1.24.*"
"""


def test_runs_offline_steps_and_names_the_rest(tmp_path):
    workflow = tmp_path / "ci.yml"
    workflow.write_text(WORKFLOW)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = subprocess.run([sys.executable, str(TOOL), "--workflow", str(workflow)],
                          capture_output=True, text=True, timeout=120,
                          env={"PATH": "/usr/bin:/bin", "TMPDIR": str(tmp)})
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert lines[0].startswith("skip") and "uses: actions/checkout@v4" in lines[0]
    assert lines[1].startswith("skip") and "pip install" in lines[1]
    assert lines[2].startswith("ok    exit  0") and lines[2].endswith("workspace and env")
    assert lines[3].startswith("FAIL  exit  1") and lines[3].endswith("a failing step")
    assert "    | the last words" in lines[4:]
    assert "not reached" not in proc.stdout
    assert lines[-2].startswith("ok") and lines[-2].endswith("after the failure")
    assert lines[-1].startswith("skip") and "job floors" in lines[-1]
    assert list(tmp.iterdir()) == []  # the temporary tree is gone
