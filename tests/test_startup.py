"""What importing the command line loads, and what the entry point does
with it.  Each query is one process, so start-up is most of its cost: the
import graph holds only what every command uses: json and selfcheck load in
the commands that use them, and subprocess only when an N_d large enough
for the helper process is computed.  The entry point freezes the imported
heap before the command runs; the library and parse_and_dispatch do not."""

import gc
import subprocess
import sys

from qschub.cli import parse_and_dispatch

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


# python -m qschub with parse_and_dispatch replaced by a probe that reports
# what main passed it and whether the heap was frozen by then
FREEZE_PROBE = """
import gc, runpy, sys
import qschub.cli

def probe(argv):
    print(argv, gc.get_freeze_count() > 0)
    return 3

qschub.cli.parse_and_dispatch = probe
sys.argv = ["qschub", "info", "G(2,4)"]
runpy.run_module("qschub", run_name="__main__", alter_sys=True)
"""


def test_the_entry_point_freezes_the_imported_heap_before_the_command(child_env):
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (3, ""), proc.stderr
    assert proc.stdout == "['info', 'G(2,4)'] True\n"


def test_dispatch_in_process_freezes_nothing(capsys):
    assert gc.get_freeze_count() == 0
    assert parse_and_dispatch(["qtable", "G(2,4)"]) == 0
    assert capsys.readouterr().out.startswith("s[0] * s[0] = 1\n")
    assert gc.get_freeze_count() == 0
