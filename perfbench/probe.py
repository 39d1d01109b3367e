"""Speed probe: times a fixed pure-Python loop on one CPU, again and again.

Usage (normally started by ``perfbench/run.py``)::

    python3 perfbench/probe.py CPU

The process pins itself to CPU, then every ``INTERVAL_S`` runs ``spin()``
and records ``(monotonic midpoint, loop CPU milliseconds)``.  It stops when
its standard input reaches end of file, which also happens when the parent
dies, and prints its samples as one JSON list.

``spin()`` mixes interpreter arithmetic with random reads from a list of
several megabytes, because grouper's workloads mix both and host slow-downs
hit the two differently.  The loop uses no grouper code, so a change to
grouper cannot move it.  What moves it is the speed the host gives this CPU
at that moment; the benchmark divides each child's times by it (see
``perfbench/README.md``).
"""

from __future__ import annotations

import json
import os
import random
import select
import sys
import time

INTERVAL_S = 0.05
ARITH_ITERATIONS = 10_000
TABLE_SIZE = 200_000
READS = 2_000


def make_spin():
    rng = random.Random(1)
    table = list(range(TABLE_SIZE))
    rng.shuffle(table)
    picks = [rng.randrange(TABLE_SIZE) for _ in range(READS)]

    def spin() -> int:
        s = 0
        for i in range(ARITH_ITERATIONS):
            s += i * i % 7
        for i in picks:
            s += table[table[i]]
        return s

    return spin


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    spin = make_spin()
    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready and not sys.stdin.read(1):
            break
        t0 = time.monotonic()
        c0 = time.thread_time()
        spin()
        c1 = time.thread_time()
        samples.append(((t0 + time.monotonic()) / 2, 1000.0 * (c1 - c0)))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
