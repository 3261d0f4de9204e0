"""Run the offline steps of the CI workflow here, from the workflow file itself.

    python tools/ci_local.py [--workflow PATH]

Each `run:` step of `jobs.tests` runs as the workflow states it: its text
through `bash --noprofile --norc -eo pipefail` (the runner's default shell),
in its `working-directory` and with its `env`.  GITHUB_WORKSPACE is a copy
of the working tree (the files git tracks or would add) in a temporary
directory, and RUNNER_TEMP is an empty directory next to it; both go when
the run ends.  The package is not installed: `src` of the copy is put on
PYTHONPATH, and a `scs` shim that calls `scsnet.cli.main` goes first on
PATH.  Steps that use an action or install packages, and every other job,
need the network or a runner; they are skipped and named.  The matrix is
not expanded: every step runs on the interpreter that runs this script.

One line per step: its status, exit code, seconds and name.  A failing
step's last output lines follow its line, and, unlike on the runner, the
later steps still run.  The exit code is 1 if any step failed.  PyYAML is
the one dependency outside the stdlib.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parent.parent
SHIM = """#!/bin/sh
exec "{python}" -c 'import sys; from scsnet.cli import main; sys.exit(main())' "$@"
"""
TAIL_LINES = 30


def step_name(step):
    if "name" in step:
        return step["name"]
    if "uses" in step:
        return f"uses: {step['uses']}"
    return "run: " + step["run"].strip().splitlines()[0]


def skip_reason(step):
    if "uses" in step:
        return "an action; the workspace is a copy of the working tree"
    if re.search(r"\bpip install\b", step["run"]):
        return "installs packages, which needs the network"
    return None


def expand(text, context):
    """Replace each ${{ name }} by its value; an unknown name is an error."""
    def value(match):
        name = match.group(1)
        if name not in context:
            sys.exit(f"ci_local: no local value for ${{{{ {name} }}}}")
        return context[name]
    return re.sub(r"\$\{\{\s*([\w.-]+)\s*\}\}", value, str(text))


def copy_working_tree(dest):
    """Copy the files git tracks or would add (not the ignored ones); outside
    a git checkout, every file but caches."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=REPO, check=True, capture_output=True).stdout.decode().split("\0")
    except (OSError, subprocess.CalledProcessError):
        shutil.copytree(REPO, dest, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(".git", "__pycache__"))
        return
    for rel in filter(None, listed):
        src = REPO / rel
        if src.is_file():
            target = dest / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(src.read_bytes())
            target.chmod(src.stat().st_mode)


def run_step(script, cwd, env, timeout, log):
    """Run one step in its own process group; return (exit code, seconds)."""
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(["bash", "--noprofile", "--norc", "-eo", "pipefail", script],
                                cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            # the step's background children too: leave no process behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    return code, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workflow", type=Path,
                        default=REPO / ".github" / "workflows" / "tier1.yml")
    args = parser.parse_args(argv)
    workflow = yaml.safe_load(args.workflow.read_text(encoding="utf-8"))
    jobs = workflow["jobs"]
    job = jobs["tests"]
    deadline = time.monotonic() + 60.0 * job.get("timeout-minutes", 360)
    failed = False
    with tempfile.TemporaryDirectory(prefix="ci_local_") as tmp:
        root = Path(tmp)
        workspace, runner_temp, bin_dir = (root / d for d in ("workspace", "temp", "bin"))
        for d in (workspace, runner_temp, bin_dir):
            d.mkdir()
        copy_working_tree(workspace)
        shim = bin_dir / "scs"
        shim.write_text(SHIM.format(python=sys.executable))
        shim.chmod(0o755)
        context = {"github.workspace": str(workspace), "runner.temp": str(runner_temp)}
        base_env = {**os.environ, **workflow.get("env", {}), **job.get("env", {}),
                    "GITHUB_WORKSPACE": str(workspace), "RUNNER_TEMP": str(runner_temp),
                    "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
                    "PYTHONPATH": os.pathsep.join(
                        filter(None, [str(workspace / "src"), os.environ.get("PYTHONPATH")]))}
        for k, step in enumerate(job["steps"]):
            name = step_name(step)
            reason = skip_reason(step)
            if reason is not None:
                print(f"skip  {'-':>7}  {'-':>7}  {name} ({reason})", flush=True)
                continue
            script = root / f"step{k}.sh"
            script.write_text(expand(step["run"], context))
            env = {**base_env, **{key: expand(v, context)
                                  for key, v in step.get("env", {}).items()}}
            cwd = workspace / expand(step.get("working-directory", "."), context)
            log = root / f"step{k}.log"
            code, seconds = run_step(script, cwd, env, max(1.0, deadline - time.monotonic()),
                                     log)
            ok = code == 0
            failed |= not ok
            print(f"{'ok' if ok else 'FAIL':<4}  exit {code!s:>2}  {seconds:6.1f}s  {name}",
                  flush=True)
            if not ok:
                for line in log.read_text(errors="replace").splitlines()[-TAIL_LINES:]:
                    print(f"    | {line}")
        for other in jobs:
            if other != "tests":
                print(f"skip  {'-':>7}  {'-':>7}  job {other} (only jobs.tests runs here)",
                      flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
