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


def fake_checkout(root: Path, body: str) -> Path:
    """A directory whose perfbench/run.py is the script `body`."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(body)
    return root


def run_bench_pairs(tmp_path, parent, change, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(parent), str(change),
         "--name", "t", "--out", str(tmp_path / "out.json"), "--seconds", "1", *args],
        capture_output=True, text=True, timeout=120,
    )


def fake_perfbench(value):
    return ("import json\nprint('# meta ' + json.dumps({'src_lines': 1}))\n"
            f"print(json.dumps({{'metrics': {{'t': {{'value': {value}, 'unit': 's'}}}}}}))\n")


def test_bench_pairs_reports_a_failing_run(tmp_path):
    good = fake_checkout(tmp_path / "good", fake_perfbench(1.0))
    bad = fake_checkout(tmp_path / "bad", "import sys\nprint('boom: no workload', file=sys.stderr)\n"
                                          "sys.exit(1)\n")
    proc = run_bench_pairs(tmp_path, good, bad, "--pairs", "2")
    assert proc.returncode == 2
    assert "# pair 0 change:" in proc.stderr and "exited 1" in proc.stderr
    assert "boom: no workload" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "out.json").exists()


def test_bench_pairs_prints_one_summary_line_per_metric(tmp_path):
    parent = fake_checkout(tmp_path / "parent", fake_perfbench(2.0))
    change = fake_checkout(tmp_path / "change", fake_perfbench(1.5))
    proc = run_bench_pairs(tmp_path, parent, change, "--pairs", "3")
    assert proc.returncode == 0, proc.stderr
    summary = [line for line in proc.stdout.splitlines() if line.startswith("# t:")]
    assert summary == ["# t: parent median 2, change median 1.5 s; change lower in 3 of 3 pairs"]
