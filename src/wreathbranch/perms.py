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

from .shapes import Composition, check_composition, fillings

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
    and type gamma: the stable permutation carrying the standard filling
    onto that filling, i.e. the box positions sorted stably by entry.
    Each is the least element of its double coset, as the `cosets`
    suite checks.
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
