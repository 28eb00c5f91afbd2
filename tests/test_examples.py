"""The documented entry points: each example script runs to its end."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Each script and a line it prints at its end.
EXAMPLES = {
    "quickstart.py": "accepted:",
    "cpu_debugging.py": "qsort finished: tohost=",
    "reverse_debugging.py": "replay cursor ended at cycle",
    "fpu_bug_hunt.py": "fixed build matches the functional model. bug closed.",
    "ide_session.py": "event stream:",
}


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs_to_its_end(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    assert EXAMPLES[script] in done.stdout
