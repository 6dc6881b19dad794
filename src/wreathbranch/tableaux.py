"""Skew semistandard tableaux and lattice words, for the LR rule.

A tableau is a tuple of row tuples.  A skew tableau is described by an
outer partition, an inner composition removing a prefix of each row, and
the rows of remaining entries; row i of the filling occupies absolute
columns inner[i]+1 .. outer[i].
"""

from __future__ import annotations

from .shapes import Composition, Partition

Rows = tuple[tuple[int, ...], ...]


def skew_fits(outer: Partition, inner: Composition) -> bool:
    """True iff the inner diagram lies wholly inside the outer one."""
    inner = tuple(inner)
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def reverse_reading_word(rows: Rows) -> tuple[int, ...]:
    """Concatenate the rows, each reversed, from the top row down."""
    word = []
    for row in rows:
        word.extend(reversed(row))
    return tuple(word)


def is_lattice_word(word) -> bool:
    """Every prefix contains at least as many i's as (i+1)'s, for all i."""
    counts: dict[int, int] = {}
    for v in word:
        if v < 1:
            raise ValueError("lattice words have positive entries")
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def enumerate_skew_ssyt(outer: Partition, inner: Composition,
                        type_: Composition) -> list[Rows]:
    """All semistandard skew tableaux of the given shape and type.

    Entries range over 1..len(type_), entry i used exactly type_[i-1]
    times.  Returns the empty list when the type size does not match the
    number of boxes.  Order: row-major lexicographic on the fillings.
    """
    outer = tuple(outer)
    inner = tuple(inner)
    if not skew_fits(outer, inner):
        raise ValueError(f"inner shape {inner} does not fit inside {outer}")
    type_ = tuple(type_)
    boxes = [(i, (inner[i] if i < len(inner) else 0) + j + 1)
             for i in range(len(outer))
             for j in range((outer[i] - (inner[i] if i < len(inner) else 0)))]
    if sum(type_) != len(boxes):
        return []

    remaining = list(type_)
    filling: dict[tuple[int, int], int] = {}
    results: list[Rows] = []

    def above(i: int, col: int):
        for k in range(i - 1, -1, -1):
            if (k, col) in filling:
                return filling[(k, col)]
        return 0

    def backtrack(pos: int):
        if pos == len(boxes):
            rows = []
            for i in range(len(outer)):
                off = inner[i] if i < len(inner) else 0
                rows.append(tuple(filling[(i, off + j + 1)]
                                  for j in range(outer[i] - off)))
            results.append(tuple(rows))
            return
        i, col = boxes[pos]
        left = filling.get((i, col - 1), 1)
        lo = max(left, above(i, col) + 1)
        for v in range(lo, len(type_) + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            filling[(i, col)] = v
            backtrack(pos + 1)
            del filling[(i, col)]
            remaining[v - 1] += 1

    backtrack(0)
    return results

