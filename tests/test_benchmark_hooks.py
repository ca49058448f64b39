"""The benchmark's tracer hooks still resolve against this source tree.

``perfbench/spans.py`` wraps program functions where their callers look them
up (module globals and class attributes such as
``repro.engine.pool.warm_worker``).  A rename or deletion in ``src/`` would
only surface as an ``AttributeError`` in a traced benchmark run, so this
installs and uninstalls the tracer in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
from perfbench.spans import Tracer
tracer = Tracer()
tracer.install()
wrapped = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracer._patches]
tracer.uninstall()
assert all(getattr(owner, attr) is not hook for owner, attr, hook in wrapped)
print(len(wrapped))
"""


def test_every_tracer_hook_resolves():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    done = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0
