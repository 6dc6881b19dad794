"""Permutations of {1..n} and Young-subgroup double coset machinery.

A permutation is a tuple of images: ``p[i-1]`` is the image of i.  We
use the right-action convention throughout, so the product ``a*b`` acts
as "apply a, then b".

Cycle notation is printed with cycles applied left to right, each
cycle starting at its smallest moved point; the identity prints as
``e``.  A filling of a composition shape is kept flat, in row-major
order.
"""

from __future__ import annotations

from itertools import accumulate

from .shapes import Composition, check_composition

Perm = tuple[int, ...]


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


def double_coset_reps(gamma: Composition,
                      alpha: Composition) -> tuple[Perm, ...]:
    """A complete non-redundant system of (S_gamma, S_alpha)-double cosets.

    One representative per weakly-increasing-row filling of shape alpha
    and type gamma, in lexicographic order of the flat fillings: the
    box positions sorted stably by entry, each the least element of its
    double coset (the `cosets` suite checks this).  One loop over the
    boxes, so no deep stack; box k taking entry v with r entries v left
    is the (gamma_v - r)-th box holding v, so it goes to place
    end[v] - 1 - r of the sort, end the running sum of gamma.
    """
    gamma = check_composition(gamma)
    alpha = check_composition(alpha)
    n = sum(gamma)
    if sum(alpha) != n:
        raise ValueError("shape and type have different sizes")
    # after[k]: the boxes right of box k in its row
    after = [size - 1 - j for size in alpha for j in range(size)]
    end = list(accumulate(gamma))
    top = len(gamma)
    out = []
    remaining, flat, rep = list(gamma), [-1] * n, [0] * n  # -1: no entry yet
    k = 0
    while k >= 0:
        if k == n:  # each place of rep was written by this filling
            out.append(tuple(rep))
            k -= 1
            continue
        v = flat[k]
        if v >= 0:  # free the entry the box held, to try the next one
            remaining[v] += 1
            v += 1
        else:  # no less than the entry to its left in its row
            v = flat[k - 1] if k and after[k - 1] else 0
        while v < top and not remaining[v]:
            v += 1
        # the row's later boxes need entries no less than v
        if v < top and (not after[k] or sum(remaining[v:]) > after[k]):
            remaining[v] -= 1
            rep[end[v] - 1 - remaining[v]] = k + 1
            flat[k] = v
            k += 1
        else:
            flat[k] = -1
            k -= 1
    return tuple(out)


def rho_cosets(sizes: Composition) -> list[tuple[int, Perm]]:
    """Distinguished (S_sizes, S_{n-1})-double coset representatives.

    For each 1-based index i with sizes[i-1] > 0, with b the partial sum
    of sizes up to i, the representative is the cycle
    (b, n, n-1, ..., b+1): it sends b to n and each of b+1, ..., n one
    down, so it is the identity when b = n.  Returns the pairs (i, rep)
    with i ascending; each rep is the least element of its double coset,
    which the `cosets` suite checks.
    """
    sizes = check_composition(sizes)
    n = sum(sizes)
    if n < 1:
        raise ValueError("need a positive total size")
    out = []
    b = 0
    for i, s in enumerate(sizes, start=1):
        b += s
        if s:
            out.append((i, (*range(1, b), n, *range(b, n))))
    return out
