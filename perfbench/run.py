#!/usr/bin/env python3
"""grouper's benchmark: cold-process workloads with checked outputs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every measurement is a fresh child process (``perfbench/workloads.py``),
because a ``grouper verify`` user pays for a cold process and a warm one
would mostly measure grouper's module-level caches.  Children run one at a
time; with ``--workload all`` they go round-robin over the workloads, so
speed drift on the machine hits every workload alike.

A run first starts a speed probe (``perfbench/probe.py``) on each CPU the
children use; each child is pinned to one CPU per thread it runs.  Then it
starts one untimed set-up-only child per workload (it writes the bytecode
cache and warms the page cache), then ``SETUP_PROBES`` set-up-only
children per workload, then full children until the next round would end
more than half a round after ``--seconds``.  Every full child's outputs
are checked against ``perfbench/expected.json``.  ``ref_wall_s`` and
``setup_s`` are a child's times scaled by the probe's speed on its CPUs
while they ran, so that the host's speed drift cancels out.

``--trace 0`` prints the end-to-end metrics (medians over the run's
children); ``--trace 1`` alternates untraced and traced children and
prints the per-layer metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
for people.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import SPECS, THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "workloads.py"
PROBE = HERE / "probe.py"
WORKLOADS = tuple(SPECS)
# probe loop time at the reference speed; ``ref_wall_s`` and ``setup_s``
# are times scaled to it (see perfbench/README.md)
REF_SPIN_MS = 2.5

KINDS = ("warm-up", "set-up", "full", "traced")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, children included, ends before this

SUITE_IDS = ("cogalois", "galois", "socle-cover", "radical-envelope", "lemmas")
LAYER_METRICS = (
    ("corpus.classify_pair.calls", "count"),
    ("corpus.classify_pair.misses", "count"),
    ("corpus.classify_pair.self_s", "s"),
    *((f"corpus.suite.{s}.wall_s", "s") for s in SUITE_IDS),
    ("corpus.pair_p50_ms", "ms"),
    ("corpus.pair_p99_ms", "ms"),
    ("corpus.pair_max_ms", "ms"),
    ("process.cpu_s", "s"),
    ("homs.enumerate_homs.calls", "count"),
    ("homs.enumerate_homs.misses", "count"),
    ("homs.enumerate_homs.self_s", "s"),
    ("homs.enumerate_homs.rows", "count"),
    ("homs.automorphism_group.calls", "count"),
    ("homs.automorphism_group.misses", "count"),
    ("homs.automorphism_group.self_s", "s"),
    ("homs.automorphism_group.aut_rows", "count"),
    ("homs.find_isomorphism.calls", "count"),
    ("homs.find_isomorphism.self_s", "s"),
    ("groups.are_isomorphic.calls", "count"),
    ("groups.are_isomorphic.self_s", "s"),
    ("approx.GroupClass.contains.calls", "count"),
    ("approx.GroupClass.contains.self_s", "s"),
    ("groups.subgroup_generated.calls", "count"),
    ("groups.subgroup_generated.self_s", "s"),
    ("groups.quotient_group.self_s", "s"),
    ("approx.f_socle.calls", "count"),
    ("approx.f_socle.self_s", "s"),
    ("approx.local_kernel.calls", "count"),
    ("approx.local_kernel.self_s", "s"),
    ("approx.classify_hom.calls", "count"),
    ("approx.classify_hom.self_s", "s"),
    ("approx.galois_group.calls", "count"),
    ("approx.galois_group.self_s", "s"),
    ("simple.simple_envelope_criterion.self_s", "s"),
    ("simple.subgroups_isomorphic_to.self_s", "s"),
    ("commutators.check_commutator_lemmas.calls", "count"),
    ("commutators.check_commutator_lemmas.self_s", "s"),
    ("commutators.tuples_checked", "count"),
    ("commutators.tuples_per_s", "1/s"),
    ("commutators.sampled_reports", "count"),
    ("commutators.upper_central_series.self_s", "s"),
    ("trace.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Child:
    """Outcome of one child process; a failed child fails all of its checks.

    ``kind`` is ``warm-up``, ``set-up`` (both stop after set-up), ``full`` or
    ``traced``.
    """

    workload: str
    kind: str
    cpus: tuple
    spawned: float
    checks: int
    lifetime_s: float
    report: dict
    error: str | None
    # mean probe times on ``cpus`` over set-up and over the timed region
    setup_spin_ms: float | None = None
    spin_ms: float | None = None

    @property
    def failed(self) -> int:
        return self.checks if self.error else 0

    @property
    def wall_s(self) -> float:
        # a child that crashed or timed out keeps its place in the sample,
        # at the time it took
        return self.report.get("wall_s", self.lifetime_s)

    @property
    def setup_window(self) -> tuple:
        """Set-up on the monotonic clock, or the whole life of a failed child."""
        return self.spawned, self.spawned + self.report.get("setup_s", self.lifetime_s)

    @property
    def window(self) -> tuple:
        """The timed region on the monotonic clock, or the whole life of a failed child."""
        if "timed_to" in self.report:
            return self.report["timed_from"], self.report["timed_to"]
        return self.spawned, self.spawned + self.lifetime_s

    @property
    def ref_wall_s(self) -> float:
        return scaled(self.wall_s, self.spin_ms)

    @property
    def ref_setup_s(self) -> float:
        return scaled(self.report["setup_s"], self.setup_spin_ms)


def scaled(seconds: float, spin_ms: float | None) -> float:
    """``seconds`` at the reference probe speed; raw if the probe gave no samples."""
    return seconds * REF_SPIN_MS / spin_ms if spin_ms else seconds


def child_cpus(workload: str) -> tuple:
    """The CPUs a workload's children are pinned to: one per thread it runs."""
    cpus = sorted(os.sched_getaffinity(0))
    return tuple(cpus[-THREADS[workload]:])


class Probes:
    """One speed probe (``probe.py``) per CPU, running for the whole run."""

    def __init__(self, cpus):
        self.samples: dict = {}
        self.procs = {}
        for cpu in cpus:
            self.procs[cpu] = subprocess.Popen(
                [sys.executable, str(PROBE), str(cpu)], cwd=ROOT, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)

    def stop(self) -> None:
        """End of file on stdin stops a probe; collect its samples and wait for it."""
        for cpu, proc in self.procs.items():
            try:
                out, _ = proc.communicate(input="", timeout=3)
                self.samples[cpu] = json.loads(out)
            except (subprocess.TimeoutExpired, ValueError):
                proc.kill()
                proc.communicate()
                self.samples[cpu] = []

    def spin_ms(self, cpus, start: float, end: float) -> float | None:
        """Mean probe time on ``cpus`` between ``start`` and ``end``.

        A window too short to hold a sample takes the mean over the whole run.
        """
        mine = [s for cpu in cpus for s in self.samples.get(cpu, [])]
        inside = [ms for t, ms in mine if start <= t <= end]
        values = inside or [ms for _, ms in mine]
        return statistics.fmean(values) if values else None


def n_checks(expected: dict, traced: bool) -> int:
    return sum(len(v) for k, v in expected.items() if k != "trace" or traced)


def spawn(workload: str, kind: str, seed: int, expected: dict, timeout: float) -> Child:
    setup_only = kind in ("warm-up", "set-up")
    checks = 1 if setup_only else n_checks(expected, kind == "traced")
    cmd = [sys.executable, str(CHILD), workload, "--seed", str(seed)]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * (kind == "traced")
    cpus = child_cpus(workload)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(t0)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))

    def child(report: dict, error: str | None) -> Child:
        return Child(workload, kind, cpus, t0, checks, time.monotonic() - t0, report, error)

    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return child({}, f"timed out after {timeout:.0f} s")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return child({}, f"exit {proc.returncode}: {tail[0]}")
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return child({}, "no result line")
    return child(report, "; ".join(report.get("mismatches", [])) or None)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(children: list) -> dict:
    setups = [c.ref_setup_s for c in children
              if c.kind in ("set-up", "full") and not c.error]
    full = [c for c in children if c.kind == "full"]
    done = [c for c in full if "peak_rss_mb" in c.report]
    return {
        "ref_wall_s": (statistics.median(c.ref_wall_s for c in full), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (statistics.median(c.report["peak_rss_mb"] for c in done)
                        if done else 0.0, "MB"),
    }


def per_layer(children: list) -> dict:
    untraced = [c for c in children if c.kind == "full" and not c.error]
    traced = [c for c in children if c.kind == "traced" and not c.error]

    def med(values, default=0.0):
        values = list(values)
        return statistics.median(values) if values else default

    out = {}
    layers = [c.report["layers"] for c in traced]
    for name, _unit in LAYER_METRICS:
        out[name] = med(l.get(name, 0) for l in layers)
    self_s = out["commutators.check_commutator_lemmas.self_s"]
    out["commutators.tuples_per_s"] = out["commutators.tuples_checked"] / self_s if self_s else 0.0
    for suite in SUITE_IDS:
        out[f"corpus.suite.{suite}.wall_s"] = med(
            c.report["suite_wall_s"][suite] for c in untraced
            if suite in c.report.get("suite_wall_s", {}))
    pair_ms = [[1000 * s for s in c.report.get("pair_seconds", [])] for c in untraced]
    for key, q in (("p50", 50), ("p99", 99), ("max", 100)):
        out[f"corpus.pair_{key}_ms"] = med(percentile(p, q) for p in pair_ms if p)
    out["process.cpu_s"] = med(c.report["cpu_s"] for c in untraced)
    out["trace.cpu_s"] = med(c.report["cpu_s"] for c in traced)
    out["trace.overhead_s"] = (med(c.ref_wall_s for c in traced)
                               - med(c.ref_wall_s for c in untraced)) if traced and untraced else 0.0
    units = dict(LAYER_METRICS)
    return {k: (v, units[k]) for k, v in out.items()}


def metadata(children: list) -> dict:
    src = ROOT / "src" / "grouper"
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    first = next((c.report for c in children if not c.error), {})
    return {
        "cores": os.cpu_count(),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def run(workloads, seed: int, seconds: float, trace: bool, expected: dict) -> list:
    start = time.monotonic()
    children: list = []
    probes = Probes(sorted({cpu for w in workloads for cpu in child_cpus(w)}))
    try:
        rounds(workloads, seed, seconds, trace, expected, start, children)
    finally:
        probes.stop()
    for c in children:
        c.setup_spin_ms = probes.spin_ms(c.cpus, *c.setup_window)
        c.spin_ms = probes.spin_ms(c.cpus, *c.window)
    if any(c.spin_ms is None for c in children):
        print("# the speed probes gave no samples; times are not scaled", file=sys.stderr)
    return children


def rounds(workloads, seed, seconds, trace, expected, start, children) -> None:
    """Start the run's children one at a time, appending each to ``children``."""

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    def go(w: str, kind: str) -> None:
        child = spawn(w, kind, seed, expected[w], left())
        if child.error:
            print(f"# {w}: {kind} child failed: {child.error}", file=sys.stderr)
        children.append(child)

    for w in workloads:
        go(w, "warm-up")
    for _ in range(SETUP_PROBES):
        for w in workloads:
            go(w, "set-up")

    # full rounds; with tracing, traced rounds alternate with untraced ones
    min_rounds = 2 if trace else 1
    round_s: list = []
    while left() > 0:
        t0 = time.monotonic()
        kind = "traced" if trace and len(round_s) % 2 else "full"
        for w in workloads:
            go(w, kind)
        round_s.append(time.monotonic() - t0)
        if any(c.error and c.error.startswith("timed out") for c in children):
            break
        # stop once the next round would end more than half a round past --seconds
        elapsed = time.monotonic() - start
        if len(round_s) >= min_rounds and elapsed + statistics.median(round_s) / 2 > seconds:
            break


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "grouper" / "__init__.py").is_file():
        print(f"error: no grouper package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    children = run(workloads, args.seed, args.seconds, bool(args.trace), expected)

    attempted = sum(c.checks for c in children)
    failed = sum(c.failed for c in children)
    print("# meta " + json.dumps(metadata(children), sort_keys=True))
    metrics = {}
    for w in workloads:
        mine = [c for c in children if c.workload == w]
        values = per_layer(mine) if args.trace else end_to_end(mine)
        kinds = [c.kind for c in mine]
        w_att = sum(c.checks for c in mine)
        w_failed = sum(c.failed for c in mine)
        print(f"# {w}: " + ", ".join(f"{kinds.count(k)} {k}" for k in KINDS)
              + f" children; fail_ratio {w_failed}/{w_att} = {w_failed / w_att:.4f} ratio")
        for kind in ("full", "traced"):
            ran = [c for c in mine if c.kind == kind]
            if ran:
                print(f"#   {kind} children wall_s: "
                      + " ".join(f"{c.wall_s:.3f}" for c in ran) + " s; probe spin: "
                      + " ".join(f"{c.spin_ms or 0:.3f}" for c in ran) + " ms; ref_wall_s: "
                      + " ".join(f"{c.ref_wall_s:.3f}" for c in ran) + " s")
        setups = [c for c in mine if c.kind in ("set-up", "full") and not c.error]
        if setups:
            print("#   set-up: median raw setup_s "
                  f"{statistics.median(c.report['setup_s'] for c in setups):.4f} s; "
                  f"median probe spin {statistics.median(c.setup_spin_ms or 0 for c in setups):.3f} ms")
        cpu = values.get("trace.cpu_s", (0.0, ""))[0]
        for name, (value, unit) in values.items():
            if args.trace and not value:
                continue
            share = f"  ({100 * value / cpu:.1f}% of traced CPU)" if (
                cpu and name.endswith(".self_s")) else ""
            print(f"#   {name} = {value:.6g} {unit}{share}")
        prefix = "" if len(workloads) == 1 else f"{w}."
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
