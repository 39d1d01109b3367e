"""The benchmark's pinned lemma counts, checked from tier-1.

``perfbench/workloads.py lemmas --trace`` runs the lemmas suite over the
order-10 corpus in a fresh process and compares its suite outputs and the
traced ``commutators.tuples_checked`` / ``commutators.sampled_reports``
against ``perfbench/expected.json``.  Any change to the scan order, the stop
rule or the sampled draw order of the lemma checks shows up as a mismatch.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_lemmas_workload_reproduces_pinned_counts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workloads.py"), "lemmas", "--seed", "0",
         "--spawned-at", repr(time.monotonic()), "--trace"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["mismatches"] == []
