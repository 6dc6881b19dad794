"""Littlewood-Richardson coefficients.

``lr_coefficient`` is 0 unless alpha and beta fit in lam and
alpha u beta <= lam <= alpha + beta in dominance order (Fulton, *Young
Tableaux*, section 5).  Otherwise a pruned walk after Anders Buch's
``lrcalc`` counts the LR tableaux of shape lam/alpha and content beta.
Its other mode, free content (``lrcalc``'s skew), lists every nonzero
c^lam_{alpha,beta} at once: ``lr_multi`` peels a tuple of partitions by
it in one loop, and ``_lr_product`` walks a disjoint skew shape with it.
``verify.schur_product_oracle`` cross-checks both modes by another route.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, zip_longest
from operator import le

from .shapes import Partition, check_partition


def lr_coefficient(lam: Partition, alpha: Partition, beta: Partition) -> int:
    """The coefficient c^lam_{alpha,beta}: the number of LR tableaux."""
    return _lr_coefficient(*map(check_partition, (lam, alpha, beta)))


def lr_multi(lam: Partition, parts) -> int:
    """The generalized coefficient c(lam; (alpha^1, ..., alpha^t)).

    t = 0 gives 1 exactly for the empty lam; t = 1 is a Kronecker
    delta; t = 2 is lr_coefficient; larger tuples sum over the
    intermediate partitions inside lam.  The value is invariant under
    reordering the tuple (checked in the test suite), so the memo key
    is sorted; empty parts do not change it either.
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


def _lr_walk(lam: Partition, alpha: Partition, beta: Partition = None):
    """The number of LR tableaux of shape lam/alpha and content beta.

    Fills the boxes in reverse reading order (rows top-down, each right
    to left).  A box of row i (from 0) takes a value v only while v is
    owed to the content (count[v] < beta_v), is at most i + 1 and the
    box to its right, exceeds the box above it, and keeps the reading
    word a lattice word (count[v] < count[v - 1]).  One loop moves back
    and forth over the boxes, so no shape needs a deep stack.  Assumes
    alpha fits in lam and |beta| = |lam/alpha|.  With beta None nothing
    is owed, values run to len(lam), and the result is {beta: c} for
    every beta with c = c^lam_{alpha,beta} > 0, as ``lrcalc``'s skew.
    """
    # per box in filling order: its largest value by row, and the
    # positions of its right and upper neighbours; position n reads 0
    # (no box above) and n + 1 reads `rows` (no box to the right)
    n, rows = sum(lam) - sum(alpha), len(lam if beta is None else beta)
    boxes, where = [], {}
    for i, (a, row) in enumerate(zip_longest(alpha, lam, fillvalue=0)):
        for j in range(row - 1, a - 1, -1):
            where[i, j] = len(boxes)
            boxes.append((min(i + 1, rows), where.get((i, j + 1), n + 1),
                          where.get((i - 1, j), n)))
    value = [0] * n + [0, rows]
    owed = (0,) + ((n + 1,) * rows if beta is None else beta)
    count = [n + 1] + [0] * rows    # count[0] never stops a 1
    total, found, k = 0, {}, 0
    while k >= 0:
        if k == n:
            if beta is None:  # a lattice word's counts are a partition
                content = tuple(filter(None, count[1:]))
                found[content] = found.get(content, 0) + 1
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
    return total if beta is not None else found


def _in_window(lam: Partition, alpha: Partition, beta: Partition) -> bool:
    """alpha and beta fit in lam, and alpha u beta <= lam <= alpha + beta."""
    if not all(len(p) <= len(lam) and all(map(le, p, lam))
               for p in (alpha, beta)):
        return False  # most triples stop here, before the sums are built
    added = tuple(a + b for a, b in zip_longest(alpha, beta, fillvalue=0))
    return (_dominated(lam, added, sum(lam))
            and _dominated(sorted(alpha + beta, reverse=True), lam, sum(lam)))


def _dominated(small, big, n: int) -> bool:
    """small <= big in dominance order; partial sums past the end are n."""
    return all(s <= b for s, b in zip_longest(accumulate(small),
                                              accumulate(big), fillvalue=n))


@cache
def _lr_product(kappa: Partition, alpha: Partition) -> dict:
    """{nu: c^nu_{kappa,alpha}} for each nu where it is not 0.

    s_kappa s_alpha is s_{lam/mu} for kappa set north-east of alpha
    (Macdonald, ch. I section 5): lam is kappa's rows shifted right by
    a = alpha_1 above alpha's, mu = (a^len(kappa)), and the free-content
    walk lists that skew.  Do not change the cached dict.
    """
    if not (kappa and alpha):
        return {kappa or alpha: 1}
    a = alpha[0]
    return _lr_walk(tuple(a + k for k in kappa) + alpha, (a,) * len(kappa))


@cache
def _lr_multi_sorted(lam: Partition, parts) -> int:
    """lr_multi with `parts` sorted; one loop peels all but the last pair.

    One free-content walk peels a head off each shape it fits in.
    """
    if len(parts) == 2:
        return _lr_coefficient(lam, *parts)
    if len(parts) < 2:  # lam == parts holds only when both are ()
        return int(lam == parts or (lam,) == parts)
    weights = {lam: 1}  # shape -> weight; the last pair checks the sizes
    for head in parts[:-2]:
        peeled: dict = {}
        for shape, weight in weights.items():
            if len(head) <= len(shape) and all(map(le, head, shape)):
                for beta, c in _lr_walk(shape, head).items():
                    peeled[beta] = peeled.get(beta, 0) + weight * c
        weights = peeled
    return sum(weight * _lr_multi_sorted(shape, parts[-2:])
               for shape, weight in weights.items())
