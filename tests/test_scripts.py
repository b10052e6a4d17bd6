"""Smoke tests for the runnable scripts in scripts/."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(env, name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_plane_curve_growth_defaults(child_env):
    proc = run_script(child_env, "plane_curve_growth.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[1:] if line.strip()]
    assert rows[:-1] == [str(d) for d in range(1, 21)]
    assert rows[-1] == "computed"


def test_plane_curve_growth_normalized_ratio_past_the_float_range(child_env):
    # as a float, N_d / (3d-1)! is subnormal from d = 349 and 0.0 from 367,
    # so the ratio must be computed exactly to stay right and to reach d = 368
    proc = run_script(child_env, "plane_curve_growth.py", "--upto", "368")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[1:] if line.strip()}
    assert rows["367"][-1] == "0.13670"
    assert "368" in rows


@pytest.mark.parametrize("upto", ["0", "501"])
def test_plane_curve_growth_rejects_bad_upto(child_env, upto):
    proc = run_script(child_env, "plane_curve_growth.py", "--upto", upto)
    # a bad value exits 2 like a parse error; one past N_d's work limit exits 4
    # with the one line `qschub nd --upto 501` prints
    assert (proc.returncode, proc.stdout) == (2 if upto == "0" else 4, "")
    assert "Traceback" not in proc.stderr
    assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1
    if upto == "501":
        assert proc.stderr == "error: N_d is computed for d <= 500 (work limit), got 501\n"


def test_plane_curve_growth_closed_pipe_exits_2(child_env):
    # about 116 KB of rows: more than a pipe holds, so the write meets the closed reader
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "plane_curve_growth.py"), "--upto", "200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env,
    )
    assert proc.stdout.readline().split()[:2] == ["d", "N_d"]
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in stderr
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
