"""Smoke tests: each script under scripts/ runs to completion at tiny sizes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("run_suites.py", ["--max-order", "4", "--socle-max-order", "3"]),
        ("pgroup_envelopes.py", ["--max-order", "8"]),
        ("simple_embeddings.py", ["--max-order", "8"]),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(("#", "cogalois"))


def _bench_run(**metrics):
    return {"meta": {"src_lines": 1}, "result": {"metrics": {
        k: {"value": v, "unit": "s"} for k, v in metrics.items()}}}


def test_bench_pairs_summary():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    runs = {
        "parent": [_bench_run(t=v) for v in (2.0, 1.0, 3.0, 4.0, 5.0)],
        "change": [_bench_run(t=v) for v in (1.0, 2.0, 1.0, 1.0, 1.0)],
    }
    t = bench_pairs.summarize(runs)["t"]
    assert (t["pairs"], t["change_wins"], t["unit"]) == (5, 4, "s")
    assert (t["parent"]["q1"], t["parent"]["median"], t["parent"]["q3"]) == (1.5, 3.0, 4.5)
    assert t["change"]["median"] == 1.0
