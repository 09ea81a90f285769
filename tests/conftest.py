import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import decolab

try:
    from hypothesis import settings
except ModuleNotFoundError:  # a numpy-only install: the hypothesis modules skip
    pass
else:
    # Every hypothesis test draws the same examples on every run, and no run
    # replays a failure stored by an earlier one.
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")

# Absolute path of the directory that contains the imported decolab package.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(decolab.__file__)))


def cli_env(extra=None):
    """Environment for a ``python -m decolab`` child process.

    The child imports the same decolab as the tests, whatever its working
    directory: the package's parent directory goes first on PYTHONPATH as an
    absolute path (a relative entry such as ``src`` breaks once the child
    runs elsewhere).  An ambient DECOLAB_SEED is dropped so configs and flags
    decide the seed; ``extra`` is applied last.
    """
    env = dict(os.environ)
    env.pop("DECOLAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def run_cli(args, env_extra=None, cwd=None):
    """``python -m decolab args`` in a child process with ``cli_env(env_extra)``."""
    return subprocess.run([sys.executable, "-m", "decolab", *args], capture_output=True,
                          text=True, env=cli_env(env_extra), cwd=cwd)


README = Path(__file__).resolve().parent.parent / "README.md"
README_CONFIGS = [
    json.loads(block)
    for block in re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
]


def traced_peak(fn, *args):
    """tracemalloc's peak, in bytes, while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# One line per acceptance criterion, echoed after the run so the pass/fail
# status of each is visible even when pytest captures stdout.
_CRITERION_LINES = []


@pytest.fixture(scope="session")
def criterion_log():
    return _CRITERION_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
