"""Byte pins on CLI output: stdout digests recorded before the planner merge.

``data/stdout_digests.json`` holds the SHA-256 of the stdout of a few CLI
runs — the headline claims, the tenants tables (plain, and a churning
fidelity config), the shocks report over every scheme, and the shocks
report rerun over two cache partitions with hash and adaptive placement. Most digests were recorded while the engine
still had a separate scalar planning path, and the fidelity and
all-scheme shocks digests while population cells still had an eager
(materialise-then-replay) arrival path, which was the default then; they
pin that the one remaining planner and the one streamed arrival path
print exactly the same bytes. The partitioned tenants pins (churn over
three partitions, a settlement period landing on the end instant, a
single query) and the scenario pins (phase changes with failure checks,
shocks with strict maintenance) were recorded while partitioned cells
still replayed their own hand-rolled epoch loop and ``run(list)``
scheduled its whole list up front; they pin that the one kernel assembly
prints the same bytes. Each run is a fresh ``python -m repro.cli``
process, as a user would start it.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")

with open(os.path.join(_HERE, "data", "stdout_digests.json"),
          encoding="utf-8") as _handle:
    PINS = json.load(_handle)


@pytest.mark.parametrize("pin", PINS, ids=[pin["name"] for pin in PINS])
def test_cli_stdout_matches_pinned_digest(pin):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *pin["argv"]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    digest = hashlib.sha256(completed.stdout).hexdigest()
    assert digest == pin["stdout_sha256"], (
        f"{' '.join(pin['argv'])} printed different bytes:\n"
        f"{completed.stdout.decode()}")
