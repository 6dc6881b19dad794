"""Independent oracles and exhaustive self-check suites.

The oracles use the enumerators of ``shapes`` and the permutation
helpers below, but never call ``lr`` or ``branching``:
Schur products from Kostka numbers by the Pieri rule, and double cosets
found by orbit closure on the right cosets of S_n, with the least
element of each, which every coset representative must be.  Each suite
compares an independent value with the production code, which the
suites do call, over a finite family and returns ``{"checked": count,
"failures": [message, ...]}``.  The CLI and the acceptance tests both
run these.

Permutations are tuples of images in the right-action convention of
``perms``: ``compose(a, b)`` applies a, then b.
"""

from __future__ import annotations

import itertools
from functools import cache, partial
from math import factorial, prod
from operator import mul
from typing import Iterator

from .branching import (_check_lambda, _column_by_walk, _column_expansion,
                        _filtration_multiplicities, _wreath_specht_dimension,
                        branch_first, branch_second, wreath_specht_dimension,
                        young_layer)
from .lr import _lr_coefficient, _lr_product
from .perms import Perm, double_coset_reps, rho_cosets, to_cycles
from .shapes import (Composition, Partition, check_count, compositions,
                     enumerate_partitions, multipartitions)

# Largest |alpha| + |beta| for schur_product_oracle, and largest n for
# the suites over all of S_n: the coset oracle labels all n!
# permutations by their right cosets, and the stabilizer suite checks
# the conjugate of S_gamma by each of them.  At n = 7, cosets take about
# 3 s and stabilizers about 1 s.
SCHUR_ORACLE_BOUND = 15
ORACLE_BOUND = 7


@cache
def _kostka_at(lam: Partition, mu: Partition) -> int:
    """K(lam, mu), the number of semistandard tableaux of shape lam and
    content mu.

    Pieri rule: the entries equal to l(mu) fill a horizontal strip
    lam/kappa of size mu_last, so K(lam, mu) is the sum of K(kappa, mu
    without its last part) over such kappa, found by removing up to
    lam_i - lam_(i+1) boxes from row i.
    """
    if len(lam) > len(mu):  # the first column needs len(lam) distinct entries
        return 0
    if not mu:
        return 1
    caps = tuple(p - q for p, q in zip(lam, lam[1:] + (0,)))
    return sum(_kostka_at(tuple(p - r for p, r in zip(lam, strip) if p > r),
                          mu[:-1])
               for strip in compositions(mu[-1], caps))


@cache
def _kostka(shape: Partition) -> dict:
    """The coefficients of s_shape at partitions: the Kostka numbers.

    Maps each partition mu of |shape| with K(shape, mu) != 0 to it.
    """
    return {mu: k for mu in enumerate_partitions(sum(shape))
            if (k := _kostka_at(shape, mu))}


def _as_partition(exp) -> Partition:
    return tuple(sorted((e for e in exp if e), reverse=True))


@cache
def _splits(a: int, mu: Partition) -> dict:
    """Count the compositions x <= mu of size a by (sort x, sort(mu - x))."""
    table: dict[tuple[Partition, Partition], int] = {}
    for x in compositions(a, mu):
        key = (_as_partition(x), _as_partition(m - y for m, y in zip(mu, x)))
        table[key] = table.get(key, 0) + 1
    return table


def schur_product_oracle(alpha: Partition, beta: Partition) -> dict:
    """Expand s_alpha * s_beta in the Schur basis without the LR rule.

    A symmetric polynomial is fixed by its coefficients at partitions,
    and setting trailing variables to zero is a ring map, so for each
    partition mu of n = |alpha|+|beta| the coefficient [x^mu] of the
    product is computed in l(mu) variables:
    the sum over a <= mu of K(alpha, sort a) K(beta, sort(mu - a)),
    read off the split table of (|alpha|, mu), which every pair of
    shapes of these sizes shares.
    Then the Schur polynomial of the lexicographically greatest
    surviving partition is subtracted off, repeatedly, using
    [x^mu] s_lead = K(lead, mu).  Returns a map partition -> positive
    coefficient.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    a = sum(alpha)
    n = a + sum(beta)
    if n > SCHUR_ORACLE_BOUND:
        raise ValueError("oracle bound exceeded")
    k_alpha, k_beta = _kostka(alpha), _kostka(beta)
    # enumerate_partitions lists partitions in descending lex order
    shapes = enumerate_partitions(n)
    product = {
        mu: sum(c * k_alpha.get(rho, 0) * k_beta.get(sigma, 0)
                for (rho, sigma), c in _splits(a, mu).items())
        for mu in shapes}
    expansion: dict[Partition, int] = {}
    for i, lead in enumerate(shapes):
        coeff = product[lead]
        if not coeff:
            continue
        if coeff < 0:
            raise RuntimeError(f"negative coefficient {coeff} at {lead}")
        expansion[lead] = coeff
        k_lead = _kostka(lead)
        for mu in shapes[i:]:
            product[mu] -= coeff * k_lead.get(mu, 0)
    if any(product.values()):
        raise RuntimeError("the product is not a sum of Schur polynomials")
    return expansion


def all_perms(n: int) -> Iterator[Perm]:
    """S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def _transposition(j: int, n: int) -> Perm:
    """The adjacent transposition (j, j+1) in S_n."""
    return (*range(1, j), j + 1, j, *range(j + 2, n + 1))


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


def standard_filling(gamma: Composition) -> tuple[int, ...]:
    """The filling with gamma_1 1s, then gamma_2 2s, and so on."""
    return tuple(v + 1 for v, count in enumerate(gamma) for _ in range(count))


def young_subgroup(gamma: Composition) -> tuple[Perm, ...]:
    """All elements of the Young subgroup S_gamma inside S_n, n = |gamma|."""
    blocks = []
    start = 1
    for part in gamma:
        blocks.append(list(itertools.permutations(range(start, start + part))))
        start += part
    return tuple(tuple(itertools.chain.from_iterable(choice))
                 for choice in itertools.product(*blocks))


@cache
def _indexed_symmetric_group(n: int):
    """S_n in lexicographic order, with adjacent transpositions as maps.

    Returns (perms, index, left, right): index maps each permutation to
    its position in perms, and for s = (j+1, j+2), left[j][i] is the
    index of s * perms[i] and right[j][i] the index of perms[i] * s.
    """
    perms = tuple(all_perms(n))
    index = {p: i for i, p in enumerate(perms)}
    gens = [_transposition(j, n) for j in range(1, n)]
    left = tuple(tuple(index[compose(g, p)] for p in perms) for g in gens)
    right = tuple(tuple(index[compose(p, g)] for p in perms) for g in gens)
    return perms, index, left, right


def _block_transpositions(gamma: Composition) -> list[int]:
    """The 0-based j whose transposition (j+1, j+2) lies in S_gamma."""
    gens = []
    start = 0
    for part in gamma:
        gens.extend(range(start, start + part - 1))
        start += part
    return gens


def _orbits(size: int, moves) -> tuple[list[int], list[int]]:
    """Label 0..size-1 by the orbits of the index maps in `moves`.

    Returns (owner, seeds): owner[i] is the label of i's orbit, and
    seeds[k] the least element of orbit k.  Seeds rise, so the orbits
    are numbered by their least element.
    """
    owner = [-1] * size
    seeds = []
    for seed in range(size):
        if owner[seed] >= 0:
            continue
        label = len(seeds)
        seeds.append(seed)
        owner[seed] = label
        orbit = [seed]
        for i in orbit:  # the loop also visits what it appends
            for move in moves:
                nxt = move[i]
                if owner[nxt] < 0:
                    owner[nxt] = label
                    orbit.append(nxt)
    return owner, seeds


@cache
def _right_cosets(gamma: Composition) -> tuple[tuple, ...]:
    """Label each index of S_n, n = |gamma|, by its right coset S_gamma * p.

    The cosets are the orbits of left multiplication by the block
    transpositions of gamma.  Returns (owner, seeds, moves), owner and
    seeds as `_orbits` gives them.  moves[j][k] labels S_gamma * p * s,
    s = (j+1, j+2), which is the same for every p in coset k, so it is
    read at the seed and kept for every alpha.
    """
    perms, _, left, right = _indexed_symmetric_group(sum(gamma))
    owner, seeds = _orbits(len(perms),
                           [left[j] for j in _block_transpositions(gamma)])
    moves = tuple(tuple(owner[step[p]] for p in seeds) for step in right)
    return tuple(owner), tuple(seeds), moves


def brute_force_double_cosets(
        gamma: Composition, alpha: Composition) -> tuple[list[int], list[int]]:
    """Partition S_n into (S_gamma, S_alpha)-double cosets by orbit closure.

    Exhaustive oracle over all n! elements, so n is capped by
    ORACLE_BOUND.  Right multiplication by S_alpha permutes the right
    cosets S_gamma * p, so the orbits are closed on those n!/|S_gamma|
    cosets, by the moves `_right_cosets` keeps per gamma.  Returns
    (owner, least): owner[c] labels the double coset of right coset c
    of `_right_cosets(gamma)`, and least[k], rising in k, indexes the
    least element of double coset k, which the `cosets` suite asks every
    representative to be.
    """
    n = sum(gamma)
    if sum(alpha) != n:
        raise ValueError("gamma and alpha must have equal size")
    if n > ORACLE_BOUND:
        raise ValueError("oracle bound exceeded")
    _, seeds, moves = _right_cosets(tuple(gamma))
    # cosets are numbered by least element, so numbering the double
    # cosets by least coset numbers them by least element too
    double, double_seeds = _orbits(
        len(seeds), [moves[j] for j in _block_transpositions(alpha)])
    return double, [seeds[k] for k in double_seeds]


def positive_compositions(n: int):
    """All compositions of n with strictly positive parts.

    Zero parts change neither the Young subgroup nor the double cosets,
    so the coset suites quantify over these.
    """
    return (tuple(p + 1 for p in c)
            for k in range(n + 1) for c in compositions(n - k, (n - k,) * k))


def verify_lr_oracle(max_total: int = 8) -> dict:
    """LR coefficients and product-kernel expansions against
    Schur-polynomial peeling, all sizes; `checked` counts coefficients."""
    if max_total > SCHUR_ORACLE_BOUND:
        raise ValueError(f"oracle bound exceeded: {max_total} > "
                         f"{SCHUR_ORACLE_BOUND}")
    checked = 0
    failures = []
    for total in range(0, max_total + 1):
        for a in range(0, total + 1):
            for alpha in enumerate_partitions(a):
                for beta in enumerate_partitions(total - a):
                    expansion = schur_product_oracle(alpha, beta)
                    # uncached, so the check adds no cache entries
                    product = _lr_product.__wrapped__(alpha, beta)
                    if product != expansion:
                        failures.append(f"s_{alpha} * s_{beta} = {product}, "
                                        f"oracle says {expansion}")
                    for lam in enumerate_partitions(total):
                        want = expansion.get(lam, 0)
                        got = _lr_coefficient(lam, alpha, beta)
                        checked += 1
                        if got != want:
                            failures.append(
                                f"c^{lam}_({alpha},{beta}) = {got}, "
                                f"oracle says {want}")
    return {"checked": checked, "failures": failures}


def _check_oracle_bound(max_n: int) -> None:
    """The S_n suites walk S_n for every n <= max_n: cap max_n first."""
    if max_n > ORACLE_BOUND:
        raise ValueError(f"oracle bound exceeded: {max_n} > {ORACLE_BOUND}")


def verify_cosets(max_n: int = 6) -> dict:
    """Each double coset representative system must be the least, that
    is the shortest, elements of its double cosets in the brute-force
    partition, one each: the paper's distinguished representatives."""
    _check_oracle_bound(max_n)
    levels = [list(positive_compositions(n)) for n in range(1, max_n + 1)]
    # one system at a time: (7) has 586,751 representatives
    systems = itertools.chain(
        ((f"({gamma},{alpha})", gamma, alpha,
          double_coset_reps(gamma, alpha))
         for comps in levels for gamma in comps for alpha in comps),
        ((f"rho reps for sizes {sizes}", sizes, (sum(sizes) - 1, 1),
          [p for _, p in rho_cosets(sizes)])
         for comps in levels for sizes in comps))
    checked = 0
    failures = []
    for what, gamma, alpha, reps in systems:
        owner, least = brute_force_double_cosets(gamma, alpha)
        right = factorial(sum(gamma)) // prod(map(factorial, gamma))
        if len(owner) != right:
            failures.append(f"{what}: {len(owner)} right cosets, not {right}")
        index = _indexed_symmetric_group(sum(gamma))[1]
        checked += 1
        if sorted(index.get(rep, -1) for rep in reps) != least:
            failures.append(f"{what}: {len(reps)} reps are not the least "
                            f"elements of the {len(least)} double cosets")
    # the worked 9-box example, exact cycle output
    got = {to_cycles(p) for _, p in rho_cosets((3, 1, 0, 2, 3))}
    want = {"e", "(6,9,8,7)", "(4,9,8,7,6,5)", "(3,9,8,7,6,5,4)"}
    checked += 1
    if got != want:
        failures.append(f"rho reps for (3,1,0,2,3): {sorted(got)}")
    return {"checked": checked, "failures": failures}


def verify_stabilizers(max_n: int = 6) -> dict:
    """Stabilizer of the acted standard filling equals the conjugated subgroup.

    The stabilizer under the box action depends only on the flat filling,
    never on the row shape, so one filling per (gamma, sigma) pair covers
    all shapes.  Per gamma, the distinct images of each box under S_gamma
    are found once; sigma^-1 S_gamma sigma sends box x to sigma applied
    to the images of box sigma^-1(x), so every element fixes the acted
    filling iff those values hold the entry of box x.  Conjugation is
    one-to-one and every acted filling rearranges the standard one, so
    the size check is made once per gamma.  Only for n <= 4 is the
    conjugate built, and compared with the stabilizer found by brute
    force.
    """
    _check_oracle_bound(max_n)
    checked = 0
    failures = []
    for n in range(1, max_n + 1):
        # 0-based sinv: sinv[x - 1] + 1 is the preimage of x under sigma;
        # only the inverses are kept, which holds the peak memory down
        inverses = [tuple(sorted(range(n), key=sigma.__getitem__))
                    for sigma in all_perms(n)]
        for gamma in positive_compositions(n):
            group = young_subgroup(gamma)
            flat0 = standard_filling(gamma)
            # an empty group fails here, before its images are read
            sizes_match = len(set(group)) == _stab_order(flat0)
            # images[y]: the distinct g(y + 1) over g in S_gamma
            images = [set(col) for col in zip(*group)]
            for sigma, sinv in zip(all_perms(n), inverses):
                flat = list(map(flat0.__getitem__, sinv))  # box entries
                # sinv * g * sigma sends box x to sigma(g(sinv(x)))
                ok = sizes_match and all(flat[sigma[v - 1] - 1] == e
                                         for e, y in zip(flat, sinv)
                                         for v in images[y])
                if ok and n <= 4:
                    conj = {tuple(sigma[g[y] - 1] for y in sinv)
                            for g in group}
                    ok = conj == {
                        theta for theta in all_perms(n)
                        if all(flat[theta[i] - 1] == flat[i]
                               for i in range(n))}
                checked += 1
                if not ok:
                    failures.append(f"stabilizer mismatch gamma={gamma} "
                                    f"sigma={sigma}")
    return {"checked": checked, "failures": failures}


def _stab_order(flat) -> int:
    counts: dict[int, int] = {}
    for e in flat:
        counts[e] = counts.get(e, 0) + 1
    out = 1
    for c in counts.values():
        out *= factorial(c)
    return out


def verify_length_lemma(max_n: int = 6) -> dict:
    """Multiplying by a descent of the inverse drops the length by one."""
    _check_oracle_bound(max_n)
    checked = 0
    failures = []
    for n in range(1, max_n + 1):
        for sigma in all_perms(n):
            for j in descents(inverse(sigma)):
                t = _transposition(j, n)
                checked += 1
                if length(compose(sigma, t)) != length(sigma) - 1:
                    failures.append(f"length lemma fails for sigma={sigma} "
                                    f"j={j}")
    return {"checked": checked, "failures": failures}


def verify_labelling_equivalence(max_m: int = 4, max_n: int = 4) -> dict:
    """Labelling sums (per-nu columns) equal matrix sums (product columns)."""
    checked = 0
    failures = []
    for m in range(2, max_m + 1):
        layer = young_layer(m)
        for n in range(1, max_n + 1):
            for lam in multipartitions(n, len(layer.upper)):
                lam = _check_lambda(m, lam)
                via_mats = _filtration_multiplicities(layer, lam,
                                                      _column_expansion)
                via_labs = _filtration_multiplicities(layer, lam,
                                                      _column_by_walk)
                checked += 1
                if via_mats != via_labs:
                    failures.append(f"m={m} lambda={lam}: "
                                    f"{via_labs} != {via_mats}")
    return {"checked": checked, "failures": failures}


def verify_dimensions(rule: str, max_m: int, max_n: int) -> dict:
    """Restriction preserves total dimension for every multipartition."""
    if rule not in ("first", "second"):
        raise ValueError(f"unknown rule {rule!r}")
    checked = 0
    failures = []
    for m in range(2, max_m + 1):
        r = len(enumerate_partitions(m))
        # the same nu recurs for many lambda, so memoize its dimension;
        # the checked entry point checks each nu the rule returns once
        lower_dim = cache(partial(wreath_specht_dimension,
                                  m - 1 if rule == "first" else m))
        for n in range(1, max_n + 1):
            for lam in multipartitions(n, r):
                # lam is checked once, by branch_first or branch_second
                expected = _wreath_specht_dimension(m, lam)
                mults = (branch_first(m, lam) if rule == "first"
                         else branch_second(m, lam))
                total = sum(map(mul, mults.values(), map(lower_dim, mults)))
                checked += 1
                if total != expected:
                    failures.append(f"m={m} n={n} rule={rule} lambda={lam}: "
                                    f"{total} != {expected}")
    return {"checked": checked, "failures": failures}


# suite -> (check taking (max_m, max_n), default max_m, default max_n).
# Suites that do not range over m ignore max_m.
SUITES = {
    "lr-oracle": (lambda _, max_n: verify_lr_oracle(max_n), 1, 8),
    "cosets": (lambda _, max_n: verify_cosets(max_n), 1, 6),
    "dimensions-first": (lambda max_m, max_n:
                         verify_dimensions("first", max_m, max_n), 4, 5),
    "dimensions-second": (lambda max_m, max_n:
                          verify_dimensions("second", max_m, max_n), 5, 6),
    "labelling-equivalence": (verify_labelling_equivalence, 4, 4),
    "stabilizers": (lambda _, max_n: verify_stabilizers(max_n), 1, 6),
    "length-lemma": (lambda _, max_n: verify_length_lemma(max_n), 1, 6),
}


def run_suite(name: str, max_m: int | None = None,
              max_n: int | None = None) -> dict:
    """Run one suite; a bound left as None takes the suite's default."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    check, default_m, default_n = SUITES[name]
    for value, label in ((max_m, "max_m"), (max_n, "max_n")):
        if value is not None:
            check_count(value, label, 1)
    max_m = default_m if max_m is None else max_m
    max_n = default_n if max_n is None else max_n
    report = check(max_m, max_n)
    report["suite"] = name
    return report
