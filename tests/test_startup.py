"""What importing the command line loads.  Each query is one process, so
start-up is most of its cost: the import graph holds only what every
command uses: json and selfcheck load in the commands that use them, and
subprocess only when an N_d large enough for the helper process is computed."""

import subprocess
import sys

NOT_AT_START = ("dataclasses", "inspect", "typing", "json", "random", "subprocess", "qschub.selfcheck")

PROBE = f"""
import sys
import qschub.cli
print(sorted(m for m in {NOT_AT_START!r} if m in sys.modules))
import qschub
from qschub import run_selfcheck
from qschub.selfcheck import run_selfcheck as direct
print(qschub.run_selfcheck is run_selfcheck is direct)
"""


def test_importing_the_cli_loads_no_module_a_command_may_not_need(child_env):
    # -S: site-packages may preload some of these and hide a regression
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
