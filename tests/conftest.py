import os
from pathlib import Path

import pytest

import qschub


@pytest.fixture
def child_env():
    """An environment in which a child Python imports the same qschub these
    tests import, installed or not."""
    src = str(Path(qschub.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}
