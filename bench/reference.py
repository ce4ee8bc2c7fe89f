"""Reference workload for scaling CPU-bound phase times to host speed.

Usage: ``python3 reference.py``. For every line read from standard input it
runs the workload once and prints its CPU time in seconds on a line of its
own; it exits at the end of its input. ``phase.py`` runs it as a process of
its own, so that the workload's memory does not count in the phase's peak
RSS and the phases' heap does not slow it down.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
import time

import numpy as np

REFERENCE_RECORDS = 12_000
REFERENCE_MATRIX = np.random.default_rng(0).normal(size=(1000, 768))


def reference_s() -> float:
    """CPU time of a fixed workload of the kinds langselect's CPU-bound paths
    do: ``REFERENCE_RECORDS`` small records are hashed with sha256 and
    serialised to json, sorted by hash, parsed back into a dict and walked
    once; then the nearest of 200 rows is found for each of 1,000 rows of
    width 768, as k-means does. It calls nothing of langselect, so a program
    change cannot move it; only the host's speed does. The cyclic garbage
    collector is off while it runs, so that no timing holds a collection
    that another does not.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        rng = random.Random(0)
        rows = []
        for i in range(REFERENCE_RECORDS):
            key = f"item-{rng.randrange(10**9)}:{i}"
            record = json.dumps({"id": key, "pair": [i, 2 * i], "upper": key.upper()})
            rows.append((hashlib.sha256(key.encode("utf-8")).hexdigest(), record))
        rows.sort()
        index = {digest: json.loads(record) for digest, record in rows}
        sum(len(record["id"]) for record in index.values())
        for _ in range(3):
            (REFERENCE_MATRIX @ REFERENCE_MATRIX[:200].T).argmax(axis=1)
        return time.process_time() - t0
    finally:
        gc.enable()


def main() -> int:
    for _ in sys.stdin:
        print(reference_s(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
