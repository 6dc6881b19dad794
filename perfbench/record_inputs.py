"""Record the first-rule inputs file ``perfbench/inputs.json``.

For every multipartition that a first-rule stratum allows it records

* the SHA-256 digest of ``wreathbranch branch-first --json`` stdout, so
  every response of every seed is checked byte for byte;
* its cost class: the stratum's inputs sorted by the CPU time of a
  cold request (every ``functools`` cache cleared, least of
  ``REPEATS`` passes) and cut into up to
  ``CLASSES`` groups of equal size.  The benchmark draws one input per
  class in turn, so each run holds the same mix of cheap and dear
  inputs whatever the seed.

Run from the repository root, on an otherwise idle machine (about a
quarter of an hour on two cores):

    python3 perfbench/record_inputs.py

The classes come from the commit the file was recorded at; later
commits keep them, so that all commits are measured on the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from wreathbranch import cli  # noqa: E402
from wreathbranch.shapes import enumerate_partitions  # noqa: E402

from tracer import package_modules  # noqa: E402
from workloads import FIRST_RULE_STRATA, digest_key  # noqa: E402

CLASSES = 16
REPEATS = 3
WORKERS = 2
CACHES = [obj for mod in package_modules() for obj in vars(mod).values()
          if hasattr(obj, "cache_info")]


def cold_request(task) -> tuple[str, str, float]:
    """(key, stdout digest, CPU seconds) of one request on cold caches."""
    m, lam = task
    for cached in CACHES:
        cached.cache_clear()
    buf = io.StringIO()
    argv = ["branch-first", "-m", str(m), "--lambda",
            json.dumps([list(p) for p in lam]), "--json"]
    t0 = time.process_time()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    cost = time.process_time() - t0
    if code != 0:
        raise SystemExit(f"branch-first failed for m={m} lambda={lam}")
    return (digest_key(m, lam), hashlib.sha256(buf.getvalue().encode())
            .hexdigest(), cost)


def main() -> None:
    tasks = [(m, lam) for strata in FIRST_RULE_STRATA.values()
             for m, sizes in strata
             for lam in itertools.product(*(enumerate_partitions(s)
                                            for s in sizes))]
    digests, cost = {}, {}
    # The machine's speed drifts over seconds, so each input is timed in
    # REPEATS separate passes and its cost is the least of them.
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        for _ in range(REPEATS):
            for key, digest, seconds in pool.imap_unordered(
                    cold_request, tasks, chunksize=8):
                if digests.setdefault(key, digest) != digest:
                    raise SystemExit(f"output of {key} is not deterministic")
                cost[key] = min(cost.get(key, seconds), seconds)
    classes = {}
    for workload, strata in FIRST_RULE_STRATA.items():
        classes[workload] = []
        for m, sizes in strata:
            costed = sorted(
                (cost[digest_key(m, lam)], lam)
                for lam in itertools.product(*(enumerate_partitions(s)
                                               for s in sizes)))
            k = min(CLASSES, len(costed))
            cut = [costed[i * len(costed) // k:(i + 1) * len(costed) // k]
                   for i in range(k)]
            classes[workload].append(
                [m, [sorted([list(p) for p in lam] for _, lam in c)
                     for c in cut]])
    out = HERE / "inputs.json"
    out.write_text(json.dumps({"digests": digests, "classes": classes},
                              sort_keys=True, separators=(",", ":")) + "\n")
    print(f"{len(digests)} digests and cost classes written to {out}")


if __name__ == "__main__":
    main()
