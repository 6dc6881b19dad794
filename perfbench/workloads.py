"""Workload definitions: input strata, pinned suites and per-operation caps.

Shared by ``run.py`` (the client) and ``worker.py`` (the child processes).
Nothing here imports ``wreathbranch`` at module level, so the client can
report a missing source tree before touching the package.
"""

from __future__ import annotations

import itertools
import math
import random

# First-rule workloads.  Each stratum fixes m and the size of every
# component of lambda; the seed only picks which partition of each size
# sits in each component, so every seed gets the same mix of per-node
# sizes.  Within one stratum the cost of a request still varies up to
# sevenfold with the shapes, hence the cost classes below.
FIRST_RULE_STRATA = {
    "first_rule_deep": (
        (4, (5, 3, 4, 3, 2)),
        (4, (4, 3, 3, 3, 4)),
        (4, (3, 4, 2, 4, 2)),
    ),
    "first_rule_wide": (
        (5, (1, 2, 2, 2, 2, 2, 1)),
        (5, (2, 2, 2, 2, 2, 2, 2)),
        (5, (1, 3, 2, 2, 2, 3, 1)),
        (6, (1, 1, 1, 2, 1, 2, 1, 2, 1, 1, 1)),
    ),
}

# Sweep workloads: (suite, max_m, max_n, expected checked count).  Every
# bound is explicit and nonzero, because verify.SUITES reads 0 or None
# as "use the default".  lr-oracle, cosets, stabilizers and length-lemma
# ignore max_m; it is still passed as 1 so no default is ever taken.
SWEEP_SUITES = {
    "sweep_warm": (
        ("dimensions-first", 5, 6, 9344),
        ("dimensions-second", 5, 6, 9344),
        ("labelling-equivalence", 4, 5, 1052),
    ),
    "oracle_sweep": (
        ("lr-oracle", 1, 8, 6830),
        ("cosets", 1, 6, 1429),
        ("stabilizers", 1, 6, 25181),
        ("length-lemma", 1, 6, 2083),
    ),
}

WORKLOADS = tuple(FIRST_RULE_STRATA) + tuple(SWEEP_SUITES)

# Time caps in seconds, about four times the slowest case measured on
# a 2-core x86-64 VM with Python 3.11.  An operation over its cap is
# killed and counted as failed.
REQUEST_CAP_S = 10.0
SUITE_CAP_S = {
    "dimensions-first": 15.0,
    "dimensions-second": 5.0,
    "labelling-equivalence": 12.0,
    "lr-oracle": 60.0,
    "cosets": 40.0,
    "stabilizers": 20.0,
    "length-lemma": 5.0,
}


def spread_order(k: int) -> list[int]:
    """0..k-1 in bit-reversed order, so every prefix spans the range."""
    bits = max(1, (k - 1).bit_length())
    return sorted(range(k), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))


def first_rule_requests(workload: str, seed: int, cost_classes):
    """Endless sequence of (m, lambda) requests for a first-rule workload.

    ``cost_classes[workload]`` splits each stratum's inputs into classes
    of similar cost at the baseline (see ``record_inputs.py``).  Requests
    go round-robin over the strata; within a stratum they visit the
    classes in bit-reversed order, and the seed picks the multipartition
    inside each class.  Every run then holds the same mix of cheap and
    dear inputs, so the seed changes the shapes but hardly the totals.
    """
    rng = random.Random(seed)
    strata = []
    for m, classes in cost_classes[workload]:
        shuffled = [rng.sample(c, len(c)) for c in classes]
        strata.append((m, shuffled, spread_order(len(classes))))
    for j in itertools.count():
        for m, classes, order in strata:
            members = classes[order[j % len(order)]]
            lam = members[(j // len(order)) % len(members)]
            yield m, tuple(tuple(p) for p in lam)


def cycle_length(strata) -> int:
    """Requests until every class of every stratum has been visited."""
    return math.lcm(*(len(classes) for _, classes in strata)) * len(strata)


def digest_key(m: int, lam) -> str:
    return f"{m}:" + ",".join(
        "[" + ",".join(map(str, p)) + "]" for p in lam)
