"""Permutations of {1..n} and Young-subgroup double coset machinery.

A permutation is a tuple of images: ``p[i-1]`` is the image of i.  We
use the right-action convention throughout, so the product ``a*b`` acts
as "apply a, then b" and is written ``compose(a, b)``.

Cycle notation is parsed and printed with cycles applied left to right,
each cycle starting at its smallest moved point; the identity prints as
``e``.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, NamedTuple

from .shapes import Composition
from .tableaux import Rows, shape_of

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """The product ab: apply a first, then b."""
    return tuple(b[a[i] - 1] for i in range(len(a)))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def length(p: Perm) -> int:
    """Number of inversions: pairs i < j with (i)p > (j)p."""
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def descents(p: Perm) -> list[int]:
    """All j with (j)p > (j+1)p."""
    return [j + 1 for j in range(len(p) - 1) if p[j] > p[j + 1]]


def all_perms(n: int) -> Iterator[Perm]:
    return itertools.permutations(range(1, n + 1))


def from_cycles(cycles, n: int) -> Perm:
    """Build a permutation of degree n from cycles, applied left to right."""
    p = list(identity(n))
    for cyc in cycles:
        step = {cyc[i]: cyc[(i + 1) % len(cyc)] for i in range(len(cyc))}
        p = [step.get(v, v) for v in p]
    return tuple(p)


def parse_cycles(text: str, n: int) -> Perm:
    """Parse cycle notation like ``(1,12,3,6)(5,7,13)``; ``e`` is identity."""
    text = text.strip()
    if text == "e" or text == "":
        return identity(n)
    if not re.fullmatch(r"(\(\d+(,\d+)*\))+", text.replace(" ", "")):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = [[int(v) for v in grp.split(",")]
              for grp in re.findall(r"\(([^)]*)\)", text)]
    if any(v < 1 or v > n for cyc in cycles for v in cyc):
        raise ValueError(f"cycle entry out of range for degree {n}")
    return from_cycles(cycles, n)


def to_cycles(p: Perm) -> str:
    """Cycle notation with cycles sorted by their smallest moved point."""
    seen = set()
    out = []
    for start in range(1, len(p) + 1):
        if start in seen or p[start - 1] == start:
            continue
        cyc = [start]
        seen.add(start)
        v = p[start - 1]
        while v != start:
            cyc.append(v)
            seen.add(v)
            v = p[v - 1]
        out.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(out) if out else "e"


def act_on_tableau(rows: Rows, sigma: Perm) -> Rows:
    """Move the entry in box i to box (i)sigma, boxes numbered row-major.

    This is a right action: acting by sigma then pi equals acting by
    compose(sigma, pi).
    """
    flat = [e for row in rows for e in row]
    if len(flat) != len(sigma):
        raise ValueError("permutation degree does not match tableau size")
    moved = [0] * len(flat)
    for i, e in enumerate(flat):
        moved[sigma[i] - 1] = e
    return _reshape(moved, shape_of(rows))


def _reshape(flat, shape: Composition) -> Rows:
    rows = []
    pos = 0
    for part in shape:
        rows.append(tuple(flat[pos:pos + part]))
        pos += part
    return tuple(rows)


def standard_tableau(alpha: Composition, gamma: Composition) -> Rows:
    """Shape-alpha tableau filled row-major with gamma_1 1s, gamma_2 2s, ..."""
    if sum(alpha) != sum(gamma):
        raise ValueError("shape and type have different sizes")
    flat = [v + 1 for v, count in enumerate(gamma) for _ in range(count)]
    return _reshape(flat, tuple(alpha))


def enumerate_weakly_increasing(alpha: Composition,
                                gamma: Composition) -> list[Rows]:
    """All tableaux of shape alpha and type gamma with weakly increasing rows.

    Order: lexicographic on the row-major filling.
    """
    alpha = tuple(alpha)
    gamma = tuple(gamma)
    if sum(alpha) != sum(gamma):
        raise ValueError("shape and type have different sizes")
    remaining = list(gamma)
    results: list[Rows] = []
    flat: list[int] = []
    row_starts = set(itertools.accumulate((0,) + alpha[:-1]))

    def backtrack(pos: int):
        if pos == sum(alpha):
            results.append(_reshape(flat, alpha))
            return
        lo = 1 if pos in row_starts else flat[-1]
        for v in range(lo, len(gamma) + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            flat.append(v)
            backtrack(pos + 1)
            flat.pop()
            remaining[v - 1] += 1

    backtrack(0)
    return results


class CosetSystem(NamedTuple):
    gamma: Composition
    alpha: Composition
    reps: tuple[Perm, ...]


def double_coset_reps(gamma: Composition, alpha: Composition) -> CosetSystem:
    """A complete non-redundant system of (S_gamma, S_alpha)-double cosets.

    One representative per weakly-increasing-row tableau of shape alpha
    and type gamma: the stable permutation carrying the row-major
    standard filling onto that tableau.
    """
    gamma = tuple(gamma)
    alpha = tuple(alpha)
    std = [e for row in standard_tableau(alpha, gamma) for e in row]
    reps = []
    for tab in enumerate_weakly_increasing(alpha, gamma):
        flat = [e for row in tab for e in row]
        targets: dict[int, list[int]] = {}
        for pos in range(len(flat) - 1, -1, -1):
            targets.setdefault(flat[pos], []).append(pos + 1)
        reps.append(tuple(targets[v].pop() for v in std))
    return CosetSystem(gamma, alpha, tuple(reps))


def rho_cosets(sizes: Composition) -> list[tuple[int, Perm]]:
    """Distinguished (S_sizes, S_{n-1})-double coset representatives.

    For each 1-based index i with sizes[i-1] > 0, with b the partial sum
    of sizes up to i, the representative is the cycle
    (b, n, n-1, ..., b+1), or the identity when b = n.  Returns the
    pairs (i, rep) with i ascending; the reps are pairwise distinct.
    """
    n = sum(sizes)
    if n < 1:
        raise ValueError("need a positive total size")
    out = []
    b = 0
    for i, s in enumerate(sizes, start=1):
        b += s
        if s == 0:
            continue
        if b == n:
            out.append((i, identity(n)))
        else:
            out.append((i, from_cycles([[b] + list(range(n, b, -1))], n)))
    return out
