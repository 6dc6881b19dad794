"""Integer partitions, compositions and multipartitions as plain tuples.

Conventions used throughout the package:

- a *partition* is a weakly decreasing tuple of positive ints, stored
  without trailing zeros; ``()`` is the unique partition of 0;
- a *composition* is a tuple of non-negative ints (zero parts are kept,
  they carry positional information);
- a *multipartition* is a tuple of partitions.

All values are immutable and every function here is pure.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial

Partition = tuple[int, ...]
Composition = tuple[int, ...]
Multipartition = tuple[Partition, ...]


def check_partition(parts) -> Partition:
    """`parts` as a tuple, or ValueError unless its parts are ints, all
    positive and weakly decreasing: the one partition check."""
    parts = tuple(parts)
    # builtins, not generators: called per component, () the commonest one
    if parts and (set(map(type, parts)) - {int} or parts[-1] <= 0
                  or sorted(parts, reverse=True) != list(parts)):
        raise ValueError(f"not a partition: {parts}")
    return parts


def check_composition(parts) -> Composition:
    """`parts` as a tuple, or ValueError unless its parts are ints >= 0."""
    parts = tuple(parts)
    if any(type(p) is not int or p < 0 for p in parts):
        raise ValueError(f"not a composition: {parts}")
    return parts


def check_count(value, name: str, least: int = 0) -> None:
    """ValueError unless `value` is an int (not a bool) of at least `least`.

    A cached function calls it in its body, where the cache keys True
    and 2.0 apart from 1 and 2 and never holds an error.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {type(value).__name__}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


@cache
def enumerate_partitions(m: int) -> tuple[Partition, ...]:
    """All partitions of m in strictly descending lexicographic order.

    The first entry is (m) and the last is (1,...,1); for m = 0 the
    result is ((),).  ValueError unless m is an int >= 0.
    """
    check_count(m, "m")
    return tuple(partitions_inside(m, (m,) * m))


def partitions_inside(k: int, lam: Partition):
    """Yield the partitions of k that fit inside lam, descending lex order.

    One loop, as `compositions`: fill greedily, largest part first; then
    lower the last part whose rows below can hold the rest, none above
    it, and refill them.  Nothing for k < 0 or k > |lam|.
    """
    if not 0 <= k <= sum(lam):
        return
    parts, rest, top = [], k, k  # rest boxes to place, none above top
    while True:
        while rest:  # the room was checked, so lam has rows enough
            top = min(top, lam[len(parts)], rest)
            parts.append(top)
            rest -= top
        yield tuple(parts)
        while parts:  # room below for rest + 1: top a row, less if shorter
            top, rows = parts[-1] - 1, len(lam) - len(parts)
            if top * rows > rest and (lam[-1] >= top or sum(
                    min(p, top) for p in lam[-rows:]) > rest):
                break
            rest += parts.pop()
        else:
            return
        parts[-1] = top
        rest += 1


def removable_boxes(lam: Partition) -> list[Partition]:
    """Partitions obtained from `lam` by removing one box, by row index.

    A box is removable from row i when the result is still weakly
    decreasing; a part that drops to zero is deleted.  Does not check
    `lam`: callers pass partitions they hold.
    """
    out = []
    for i in range(len(lam)):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if lam[i] - 1 >= below:
            smaller = lam[:i] + ((lam[i] - 1,) if lam[i] > 1 else ()) + lam[i + 1:]
            out.append(smaller)
    return out


def conjugate(lam: Partition) -> Partition:
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def specht_dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape `lam` (hook lengths)."""
    # checked before the cached lookup: True == 1 and both hash alike
    return _specht_dimension(check_partition(lam))


@cache
def _specht_dimension(lam: Partition) -> int:
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    dim, rem = divmod(factorial(sum(lam)), hooks)
    if rem:
        raise RuntimeError(f"hook product of {lam} does not divide n!")
    return dim


def size_composition(mp: Multipartition) -> Composition:
    """The composition of component sizes of a multipartition."""
    return tuple(sum(c) for c in mp)


def compositions(n: int, caps):
    """Yield the compositions a of n with 0 <= a[i] <= caps[i].

    There is one part per cap.  Order: lexicographic with the first
    part largest first.  One loop, so there may be any number of caps.
    """
    caps = tuple(caps)
    # room[i]: the most boxes parts i.. can hold
    room = list(itertools.accumulate(reversed(caps), initial=0))[::-1]
    parts, i, rest = [0] * len(caps), 0, n  # parts i.. are to hold rest
    while 0 <= rest <= room[i]:
        for j in range(i, len(caps)):  # greedily, so the largest first
            parts[j] = caps[j] if caps[j] < rest else rest
            rest -= parts[j]
        yield tuple(parts)
        # the last part that can give a box to the parts after it
        i = len(caps)
        while i and not (parts[i - 1] and rest < room[i]):
            i -= 1
            rest += parts[i]
        if i:
            parts[i - 1] -= 1
        rest = rest + 1 if i else -1  # -1: no part can, so stop


def multipartitions(n: int, components: int):
    """An iterator over the multipartitions of n with `components` parts.

    Components of size 0 are the empty partition.  The order is
    deterministic: by size composition, then componentwise.  ValueError,
    at the call, unless n and components are ints >= 0.
    """
    check_count(n, "n")
    check_count(components, "components")
    return (mp for sizes in compositions(n, (n,) * components)
            for mp in itertools.product(*map(enumerate_partitions, sizes)))
