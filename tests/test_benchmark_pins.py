"""The benchmark's pinned counts, checked from tier-1.

``perfbench/workloads.py WORKLOAD --trace`` runs one workload in a fresh
process and compares its suite outputs and traced counts against
``perfbench/expected.json``.  For ``lemmas``, any change to the scan order,
the stop rule or the sampled draw order of the lemma checks shows up as a
mismatch.  For ``galois-suites``, each Aut group must be built once: the
``enumerate_homs`` calls are one hom-set read per classified pair plus one
End(G) enumeration per ``automorphism_group`` build, so a rebuilt Aut group
or an extra read raises them.  For
``class-suites`` and ``simple-a6``, the subgroup, normal-closure and
quotient machinery must reproduce the suite outputs and the pinned
``enumerate_homs`` and ``GroupClass.contains`` call counts.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_workload(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workloads.py"), name, "--seed", "0",
         "--spawned-at", repr(time.monotonic()), "--trace"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_lemmas_workload_reproduces_pinned_counts():
    result = _traced_workload("lemmas")
    assert result["mismatches"] == []


def test_galois_suites_fill_each_cache_entry_once():
    result = _traced_workload("galois-suites")
    assert result["mismatches"] == []
    assert result["layers"]["homs.enumerate_homs.calls"] == 1640
    assert result["layers"]["homs.automorphism_group.misses"] == 40


def test_class_suites_workload_reproduces_pinned_counts():
    result = _traced_workload("class-suites")
    assert result["mismatches"] == []
    assert result["layers"]["homs.enumerate_homs.calls"] == 30632
    assert result["layers"]["approx.GroupClass.contains.calls"] == 24334


def test_simple_a6_workload_reproduces_pinned_counts():
    result = _traced_workload("simple-a6")
    assert result["mismatches"] == []
