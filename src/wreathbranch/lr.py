"""Littlewood-Richardson coefficients.

``lr_coefficient`` is 0 unless alpha and beta fit in lam and
alpha u beta <= lam <= alpha + beta in dominance order (Fulton, *Young
Tableaux*, section 5); otherwise it counts lattice-word semistandard
skew tableaux.  ``lr_multi`` extends it to a tuple of partitions by
peeling off the first one and recursing.  ``verify.schur_product_oracle``
cross-checks the rule by an independent route.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, zip_longest

from .shapes import Partition, check_partition, enumerate_partitions
from .tableaux import (enumerate_skew_ssyt, is_lattice_word,
                       reverse_reading_word, skew_fits)


def lr_coefficient(lam: Partition, alpha: Partition, beta: Partition) -> int:
    """The coefficient c^lam_{alpha,beta} via lattice-word counting."""
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


# The entry points check before the cached lookup, as True == 1 and both
# hash alike.  The cores below do not check: their callers pass checked
# or enumerated partitions.

def _lr_multi(lam: Partition, parts) -> int:
    """lr_multi without the entry check; () parts leave the key."""
    return _lr_multi_sorted(tuple(lam),
                            tuple(sorted(tuple(p) for p in parts if p)))


@cache
def _lr_coefficient(lam: Partition, alpha: Partition, beta: Partition) -> int:
    if sum(beta) != sum(lam) - sum(alpha) or not _in_window(lam, alpha, beta):
        return 0
    return sum(1 for t in enumerate_skew_ssyt(lam, alpha, beta)
               if is_lattice_word(reverse_reading_word(t)))


def _in_window(lam: Partition, alpha: Partition, beta: Partition) -> bool:
    """alpha and beta fit in lam, and alpha u beta <= lam <= alpha + beta."""
    added = tuple(a + b for a, b in zip_longest(alpha, beta, fillvalue=0))
    union = sorted(alpha + beta, reverse=True)
    return (skew_fits(lam, alpha) and skew_fits(lam, beta)
            and _dominated(lam, added, sum(lam))
            and _dominated(union, lam, sum(lam)))


def _dominated(small, big, n: int) -> bool:
    """small <= big in dominance order; partial sums past the end are n."""
    return all(s <= b for s, b in zip_longest(accumulate(small),
                                              accumulate(big), fillvalue=n))


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
