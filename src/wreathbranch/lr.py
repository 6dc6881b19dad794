"""Littlewood-Richardson coefficients.

``lr_coefficient`` is 0 unless alpha and beta fit in lam and
alpha u beta <= lam <= alpha + beta in dominance order (Fulton, *Young
Tableaux*, section 5).  Otherwise a pruned walk after Anders Buch's
``lrcalc`` counts the LR tableaux of shape lam/alpha and content beta.
``lr_multi`` extends it to a tuple of partitions by peeling off the
first one and recursing.  ``_lr_product`` lists every nonzero
c^nu_{kappa,alpha} at once, strip by strip as ``lrcalc`` does.
``verify.schur_product_oracle`` cross-checks both by another route.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, zip_longest
from operator import le, sub

from .shapes import Partition, check_partition, enumerate_partitions


def lr_coefficient(lam: Partition, alpha: Partition, beta: Partition) -> int:
    """The coefficient c^lam_{alpha,beta}: the number of LR tableaux."""
    return _lr_coefficient(*map(check_partition, (lam, alpha, beta)))


def lr_multi(lam: Partition, parts) -> int:
    """The generalized coefficient c(lam; (alpha^1, ..., alpha^t)).

    t = 0 gives 1 exactly for the empty lam; t = 1 is a Kronecker
    delta; t = 2 is lr_coefficient; larger tuples recurse through all
    intermediate partitions.  The value is invariant under reordering
    the tuple (checked in the test suite), so the memo key is sorted;
    empty parts do not change it either.
    ValueError unless lam and every part are partitions.
    """
    return _lr_multi(check_partition(lam), map(check_partition, parts))


# The entry points check before `_lr_multi_sorted`'s cached lookup, as
# True == 1 and both hash alike.  The cores below do not check: their
# callers pass checked or enumerated partitions.

def _lr_multi(lam: Partition, parts) -> int:
    """lr_multi without the entry check; () parts leave the key."""
    return _lr_multi_sorted(tuple(lam),
                            tuple(sorted(tuple(p) for p in parts if p)))


def _lr_coefficient(lam: Partition, alpha: Partition, beta: Partition) -> int:
    if sum(beta) != sum(lam) - sum(alpha) or not _in_window(lam, alpha, beta):
        return 0
    return _lr_walk(lam, alpha, beta)


def _lr_walk(lam: Partition, alpha: Partition, beta: Partition) -> int:
    """The number of LR tableaux of shape lam/alpha and content beta.

    Fills the boxes in reverse reading order (rows top-down, each right
    to left).  A box of row i (from 0) takes a value v only while v is
    owed to the content (count[v] < beta_v), is at most i + 1 and the
    box to its right, exceeds the box above it, and keeps the reading
    word a lattice word (count[v] < count[v - 1]).  One loop moves back
    and forth over the boxes, so no shape needs a deep stack.  Assumes
    alpha fits in lam and |beta| = |lam/alpha|.
    """
    # per box in filling order: its largest value by row, and the
    # positions of its right and upper neighbours; position n reads 0
    # (no box above) and n + 1 reads len(beta) (no box to the right)
    n = sum(beta)
    boxes, where = [], {}
    for i, (a, row) in enumerate(zip_longest(alpha, lam, fillvalue=0)):
        for j in range(row - 1, a - 1, -1):
            where[i, j] = len(boxes)
            boxes.append((min(i + 1, len(beta)), where.get((i, j + 1), n + 1),
                          where.get((i - 1, j), n)))
    value = [0] * n + [0, len(beta)]
    owed = (0,) + beta
    count = [n + 1] + [0] * len(beta)    # count[0] never stops a 1
    total, k = 0, 0
    while k >= 0:
        if k == n:
            total += 1
            k -= 1
            continue
        top, right, above = boxes[k]
        v = value[k]
        if v:
            count[v] -= 1
            v += 1
        else:
            v = value[above] + 1
        hi = min(top, value[right])
        while v <= hi and (count[v] == owed[v] or count[v] == count[v - 1]):
            v += 1
        if v <= hi:
            value[k] = v
            count[v] += 1
            k += 1
        else:
            value[k] = 0
            k -= 1
    return total


def _in_window(lam: Partition, alpha: Partition, beta: Partition) -> bool:
    """alpha and beta fit in lam, and alpha u beta <= lam <= alpha + beta."""
    added = tuple(a + b for a, b in zip_longest(alpha, beta, fillvalue=0))
    union = sorted(alpha + beta, reverse=True)
    return (all(len(p) <= len(lam) and all(map(le, p, lam))
                for p in (alpha, beta))
            and _dominated(lam, added, sum(lam))
            and _dominated(union, lam, sum(lam)))


def _dominated(small, big, n: int) -> bool:
    """small <= big in dominance order; partial sums past the end are n."""
    return all(s <= b for s, b in zip_longest(accumulate(small),
                                              accumulate(big), fillvalue=n))


@cache
def _lr_product(kappa: Partition, alpha: Partition) -> dict:
    """{nu: c^nu_{kappa,alpha}} for each nu where it is not 0; no recursion.

    After ``lrcalc``, label i + 1 fills a horizontal strip of alpha_i
    boxes top-down while the label-(i+1) boxes in rows <= r number at
    most the label-i boxes in rows < r.  Do not change the cached dict.
    """
    # (shape, most boxes the next label may put in rows <= r) -> tableaux
    states = {(kappa, (sum(alpha),) * (len(kappa) + 1)): 1}
    for size in alpha:
        grown: dict = {}
        for (shape, most), count in states.items():
            start = most.count(0)  # the rows above the last label's boxes
            room = [size, *map(sub, shape, shape[1:] + (0,))][start:]
            room_below = list(accumulate(room[:0:-1], initial=0))[::-1]
            partial = [(0, (0,) * start)]  # (boxes placed, boxes per row)
            for top, cap, rest in zip(most[start:], room, room_below):
                partial = [(c + a, strip + (a,)) for c, strip in partial
                           for a in range(max(0, size - c - rest),
                                          min(top - c, cap, size - c) + 1)]
            for _, strip in partial:
                nu = tuple(o + a for o, a in zip(shape + (0,), strip) if o + a)
                key = nu, tuple(accumulate(strip, initial=0))
                grown[key] = grown.get(key, 0) + count
        states = grown
    product: dict = {}
    for (shape, _), count in states.items():
        product[shape] = product.get(shape, 0) + count
    return product


@cache
def _lr_multi_sorted(lam: Partition, parts) -> int:
    """lr_multi with `parts` a sorted tuple of partitions."""
    if len(parts) == 2:
        return _lr_coefficient(lam, parts[0], parts[1])
    if sum(map(sum, parts)) != sum(lam):
        return 0
    if len(parts) == 0:
        return 1 if lam == () else 0
    if len(parts) == 1:
        return 1 if parts[0] == lam else 0
    head, tail = parts[0], parts[1:]
    total = 0
    for beta in enumerate_partitions(sum(lam) - sum(head)):
        c = _lr_coefficient(lam, head, beta)
        if c:
            total += c * _lr_multi_sorted(beta, tail)
    return total
