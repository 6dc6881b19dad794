"""Permutations of {1..n} and Young-subgroup double coset machinery.

A permutation is a tuple of images: ``p[i-1]`` is the image of i.  We
use the right-action convention throughout, so the product ``a*b`` acts
as "apply a, then b" and is written ``compose(a, b)``.

Cycle notation is printed with cycles applied left to right, each
cycle starting at its smallest moved point; the identity prints as
``e``.  A filling of a composition shape is kept flat, in row-major
order.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .shapes import Composition, check_composition, fillings

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


def standard_filling(gamma: Composition) -> tuple[int, ...]:
    """The filling with gamma_1 1s, then gamma_2 2s, and so on."""
    return tuple(v + 1 for v, count in enumerate(gamma) for _ in range(count))


def double_coset_reps(gamma: Composition,
                      alpha: Composition) -> tuple[Perm, ...]:
    """A complete non-redundant system of (S_gamma, S_alpha)-double cosets.

    One representative per weakly-increasing-row filling of shape alpha
    and type gamma: the stable permutation carrying the standard filling
    onto that filling, i.e. the box positions sorted stably by entry.
    """
    gamma = check_composition(gamma)
    alpha = check_composition(alpha)
    if sum(alpha) != sum(gamma):
        raise ValueError("shape and type have different sizes")
    return tuple(tuple(pos + 1 for pos in sorted(range(len(flat)),
                                                 key=flat.__getitem__))
                 for flat in fillings(alpha, gamma))


def rho_cosets(sizes: Composition) -> list[tuple[int, Perm]]:
    """Distinguished (S_sizes, S_{n-1})-double coset representatives.

    For each 1-based index i with sizes[i-1] > 0, with b the partial sum
    of sizes up to i, the representative is the cycle
    (b, n, n-1, ..., b+1), or the identity when b = n.  Returns the
    pairs (i, rep) with i ascending; the reps are pairwise distinct.
    """
    sizes = check_composition(sizes)
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
