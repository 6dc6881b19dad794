"""Independent brute-force oracles and reference helpers used by the tests.

Everything here recomputes quantities by naive enumeration, or works on
tableaux as tuples of rows, deliberately avoiding the code paths under
test.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import re
from collections import Counter
from pathlib import Path

from wreathbranch import enumerate_partitions, lr_multi
from wreathbranch.lr import _lr_product
from wreathbranch.verify import positive_compositions


BENCH_INPUTS = (Path(__file__).resolve().parents[1]
                / "perfbench" / "inputs.json")


def cheapest_first_rule_requests(workloads) -> list:
    """(id, m, lambda, stdout digest) for each first-rule benchmark stratum.

    lambda is the first of the stratum's cost class 0, and the digest is
    the SHA-256 of its `branch-first --json` stdout, both as recorded in
    the benchmark's inputs file.
    """
    inputs = json.loads(BENCH_INPUTS.read_text())
    out = []
    for workload in workloads:
        for k, (m, costed) in enumerate(inputs["classes"][workload]):
            lam = tuple(map(tuple, costed[0][0]))
            key = f"{m}:" + ",".join(json.dumps(p, separators=(",", ":"))
                                     for p in costed[0][0])
            out.append((f"{workload}-{k}", m, lam, inputs["digests"][key]))
    return out


def concat_parts(components) -> tuple[int, ...]:
    """Concatenate the parts of a multicomposition into one composition."""
    return tuple(itertools.chain.from_iterable(components))


def partitions_by_filter(m: int) -> list[tuple[int, ...]]:
    """All partitions of m found by filtering raw tuples."""
    if m == 0:
        return [()]
    found = set()
    for k in range(1, m + 1):
        for tup in itertools.combinations_with_replacement(range(1, m + 1), k):
            if sum(tup) == m:
                found.add(tuple(sorted(tup, reverse=True)))
    return sorted(found, reverse=True)


def fits(outer, inner) -> bool:
    """True iff the partition `inner` fits inside the partition `outer`."""
    return len(inner) <= len(outer) and all(map(int.__le__, inner, outer))


def count_standard_tableaux(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of `shape`, counted by direct placement."""
    n = sum(shape)
    if n == 0:
        return 1
    rows = [[] for _ in shape]

    def place(v: int) -> int:
        if v > n:
            return 1
        total = 0
        for i, row in enumerate(rows):
            if len(row) >= shape[i]:
                continue
            j = len(row)
            if i > 0 and len(rows[i - 1]) <= j:
                continue
            row.append(v)
            total += place(v + 1)
            row.pop()
        return total

    return place(1)


def reverse_reading_word(rows) -> tuple[int, ...]:
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


def enumerate_skew_ssyt(outer, inner, type_) -> list:
    """All semistandard skew tableaux of the given shape and type.

    A tableau is a tuple of row tuples; row i holds the entries in
    absolute columns inner[i]+1 .. outer[i].  Entries range over
    1..len(type_), entry i used exactly type_[i-1] times.  Returns the
    empty list when the type size does not match the number of boxes.
    Order: row-major lexicographic on the fillings.
    """
    outer = tuple(outer)
    inner = tuple(inner)
    if len(inner) > len(outer) or any(a > b for a, b in zip(inner, outer)):
        raise ValueError(f"inner shape {inner} does not fit inside {outer}")
    type_ = tuple(type_)
    boxes = [(i, (inner[i] if i < len(inner) else 0) + j + 1)
             for i in range(len(outer))
             for j in range((outer[i] - (inner[i] if i < len(inner) else 0)))]
    if sum(type_) != len(boxes):
        return []

    remaining = list(type_)
    filling: dict[tuple[int, int], int] = {}
    results = []

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


def lattice_tableaux(lam, alpha, beta) -> int:
    """c^lam_{alpha,beta} by brute force: the semistandard tableaux of
    shape lam/alpha and type beta whose reverse reading word is a
    lattice word."""
    return sum(1 for t in enumerate_skew_ssyt(lam, alpha, beta)
               if is_lattice_word(reverse_reading_word(t)))


def content_type(rows) -> tuple[int, ...]:
    """The composition counting occurrences of each entry, up to the max."""
    entries = [e for row in rows for e in row]
    if not entries:
        return ()
    counts = [0] * max(entries)
    for e in entries:
        counts[e - 1] += 1
    return tuple(counts)


def _column_entries(rows, inner):
    """Map absolute column -> entries from top row down (gaps skipped)."""
    cols: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        off = inner[i] if i < len(inner) else 0
        for j, e in enumerate(row):
            cols.setdefault(off + j + 1, []).append(e)
    return cols


def is_semistandard(rows, inner=()) -> bool:
    """Rows weakly increase; columns strictly increase downward.

    Column comparisons use absolute column positions, so entries
    separated by a gap in a skew column are still compared.
    """
    for row in rows:
        if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
            return False
    for entries in _column_entries(rows, tuple(inner)).values():
        if any(entries[k] >= entries[k + 1] for k in range(len(entries) - 1)):
            return False
    return True


def reshape(flat, shape):
    rows = []
    pos = 0
    for part in shape:
        rows.append(tuple(flat[pos:pos + part]))
        pos += part
    return tuple(rows)


def adjacency_of(layer) -> tuple[tuple[int, ...], ...]:
    """The layer's dense 0/1 matrix: entry (i, j) is 1 iff (i, j) is an edge."""
    edges = set(layer.edges)
    return tuple(tuple(int((i, j) in edges) for j in range(len(layer.lower)))
                 for i in range(len(layer.upper)))


def fillings_by_filter(support, row_sums, col_sums):
    """Weakly increasing row fillings with the given margins, by filtering.

    Takes every choice of one multiset of entries per row, in the
    lexicographic order of the concatenated rows, and keeps those that
    respect `support` and use entry j exactly col_sums[j] times.
    """
    per_row = [itertools.combinations_with_replacement(range(len(col_sums)),
                                                       size)
               for size in row_sums]
    out = []
    for rows in itertools.product(*per_row):
        flat = tuple(itertools.chain.from_iterable(rows))
        if all(support[i][v] for i, row in enumerate(rows) for v in row) \
                and all(flat.count(j) == c for j, c in enumerate(col_sums)):
            out.append(flat)
    return out


def stable_argsorts(flats) -> tuple[tuple[int, ...], ...]:
    """The 1-based box positions of each flat filling, sorted stably by
    entry: the double coset representative read off that filling."""
    return tuple(tuple(pos + 1 for pos in sorted(range(len(flat)),
                                                 key=flat.__getitem__))
                 for flat in flats)


def count_integer_matrices(row_sums, col_sums) -> int:
    """The number of nonnegative integer matrices with the given margins,
    row by row over every choice of a row within the columns left."""
    @functools.cache
    def count(i: int, cols: tuple[int, ...]) -> int:
        if i == len(row_sums):
            return int(not any(cols))
        return sum(count(i + 1, tuple(map(operator.sub, cols, row)))
                   for row in itertools.product(*(range(c + 1) for c in cols))
                   if sum(row) == row_sums[i])

    return count(0, tuple(col_sums))


def good_labellings_by_fillings(layer, lam_sizes, nu_sizes):
    """Good labellings for upper node sizes `lam_sizes`, lower `nu_sizes`.

    The reference for the size-matrix enumerator of ``branching``: the
    (row, entry) counts of each filling supported on the layer's
    adjacency matrix are the edge sizes of the labellings, which take
    every partition of each size, in edge order.
    """
    box_rows = [i for i, size in enumerate(lam_sizes) for _ in range(size)]
    out = []
    for flat in fillings_by_filter(adjacency_of(layer), lam_sizes, nu_sizes):
        sizes = Counter(zip(box_rows, flat))
        out.extend(itertools.product(*(enumerate_partitions(sizes[e])
                                       for e in layer.edges)))
    return out


def labellings_payload(layer, lam, nu) -> dict:
    """The payload of the ``labellings`` command for lam over nu, as a dict.

    The reference for the CLI: the labellings come from
    `good_labellings_by_fillings`, and each M(L) is the product over all
    nodes of lr_multi(component, the labels on its edges).
    """
    sizes = [tuple(map(sum, parts)) for parts in (lam, nu)]
    entries = []
    for labels in good_labellings_by_fillings(layer, *sizes):
        coeff = 1
        for k, part in enumerate(lam):
            coeff *= lr_multi(part, [lbl for (i, _), lbl
                                     in zip(layer.edges, labels) if i == k])
        for k, part in enumerate(nu):
            coeff *= lr_multi(part, [lbl for (_, j), lbl
                                     in zip(layer.edges, labels) if j == k])
        entries.append({"labels": [{"upper": i + 1, "lower": j + 1,
                                    "label": lbl}
                                   for (i, j), lbl in zip(layer.edges, labels)],
                        "coefficient": coeff})
    return {"m": layer.m, "lambda": lam, "nu": nu, "labellings": entries,
            "total": sum(e["coefficient"] for e in entries)}


def standard_tableau(alpha, gamma):
    """Shape-alpha tableau filled row-major with gamma_1 1s, gamma_2 2s, ..."""
    if sum(alpha) != sum(gamma):
        raise ValueError("shape and type have different sizes")
    flat = [v + 1 for v, count in enumerate(gamma) for _ in range(count)]
    return reshape(flat, alpha)


def act_on_tableau(rows, sigma):
    """Move the entry in box i to box (i)sigma, boxes numbered row-major.

    This is a right action: acting by sigma then pi equals acting by
    ``wreathbranch.verify.compose(sigma, pi)``.
    """
    flat = [e for row in rows for e in row]
    if len(flat) != len(sigma):
        raise ValueError("permutation degree does not match tableau size")
    moved = [0] * len(flat)
    for i, e in enumerate(flat):
        moved[sigma[i] - 1] = e
    return reshape(moved, [len(row) for row in rows])


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Parse cycle notation like ``(1,12,3,6)(5,7,13)``; ``e`` is identity.

    Cycles are applied left to right.
    """
    text = text.replace(" ", "")
    perm = list(range(1, n + 1))
    if text in ("e", ""):
        return tuple(perm)
    if not re.fullmatch(r"(\(\d+(,\d+)*\))+", text):
        raise ValueError(f"bad cycle notation: {text!r}")
    for group in re.findall(r"\(([^)]*)\)", text):
        cyc = [int(v) for v in group.split(",")]
        if any(v < 1 or v > n for v in cyc):
            raise ValueError(f"cycle entry out of range for degree {n}")
        step = {cyc[i]: cyc[(i + 1) % len(cyc)] for i in range(len(cyc))}
        perm = [step.get(v, v) for v in perm]
    return tuple(perm)


def schur_monomials(shape: tuple[int, ...], nvars: int) -> dict:
    """The Schur polynomial s_shape in `nvars` variables.

    Returned as a map from exponent vectors (length nvars) to
    coefficients, built by summing x^content over all semistandard
    tableaux of the shape with entries at most nvars.  The reference
    for the Pieri-rule Kostka numbers of ``verify``.
    """
    shape = tuple(shape)
    poly: dict[tuple[int, ...], int] = {}
    remaining = sum(shape)
    if len(shape) > nvars > 0 or (shape and nvars == 0):
        return {}
    if remaining == 0:
        return {(0,) * nvars: 1}

    boxes = [(i, j) for i in range(len(shape)) for j in range(shape[i])]
    # the position of the box to the left of each box and of the box
    # above it, in the reading order of `boxes`, or None
    left = [k - 1 if j else None for k, (i, j) in enumerate(boxes)]
    above = [k - shape[i - 1] if i else None for k, (i, j) in enumerate(boxes)]
    filling = [0] * len(boxes)
    content = [0] * nvars

    def backtrack(pos: int):
        if pos == len(boxes):
            key = tuple(content)
            poly[key] = poly.get(key, 0) + 1
            return
        lo = max(1 if left[pos] is None else filling[left[pos]],
                 1 if above[pos] is None else filling[above[pos]] + 1)
        for v in range(lo, nvars + 1):
            filling[pos] = v
            content[v - 1] += 1
            backtrack(pos + 1)
            content[v - 1] -= 1

    backtrack(0)
    return poly


def full_product_schur_expansion(alpha, beta) -> dict:
    """s_alpha * s_beta in the Schur basis by multiplying whole polynomials.

    The reference route for ``verify.schur_product_oracle``: expand both
    factors in n = |alpha|+|beta| variables with `schur_monomials`,
    multiply every pair of monomials, then repeatedly subtract the Schur
    polynomial of the lexicographically greatest surviving exponent.
    """
    nvars = sum(alpha) + sum(beta)
    if nvars == 0:
        return {(): 1}
    product: dict[tuple[int, ...], int] = {}
    for ea, ca in schur_monomials(tuple(alpha), nvars).items():
        for eb, cb in schur_monomials(tuple(beta), nvars).items():
            key = tuple(x + y for x, y in zip(ea, eb))
            product[key] = product.get(key, 0) + ca * cb
    expansion = {}
    while product:
        lead = max(product)
        coeff = product[lead]
        assert list(lead) == sorted(lead, reverse=True), lead
        shape = tuple(p for p in lead if p > 0)
        expansion[shape] = coeff
        for exp, c in schur_monomials(shape, nvars).items():
            v = product.get(exp, 0) - coeff * c
            if v:
                product[exp] = v
            else:
                product.pop(exp, None)
    return expansion


def set_orbit_double_cosets(gamma, alpha) -> list[frozenset]:
    """(S_gamma, S_alpha)-double cosets of S_n by closing orbits of sets.

    Multiplies permutations as tuples on both sides by the adjacent
    transpositions inside the blocks; sorted by minimal element.
    """
    n = sum(gamma)

    def swaps(comp):
        out, start = [], 0
        for part in comp:
            for j in range(start, start + part - 1):
                p = list(range(1, n + 1))
                p[j], p[j + 1] = p[j + 1], p[j]
                out.append(tuple(p))
            start += part
        return out

    def mul(a, b):  # apply a, then b
        return tuple(b[x - 1] for x in a)

    left, right = swaps(gamma), swaps(alpha)
    unseen = set(itertools.permutations(range(1, n + 1)))
    cosets = []
    while unseen:
        orbit = {min(unseen)}
        frontier = list(orbit)
        while frontier:
            sigma = frontier.pop()
            for nxt in ([mul(g, sigma) for g in left]
                        + [mul(sigma, h) for h in right]):
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        unseen -= orbit
        cosets.append(frozenset(orbit))
    return sorted(cosets, key=min)


def stabilizer_report_by_conjugates(max_n: int, subgroup) -> dict:
    """The `stabilizers` suite's report, each conjugate built in full.

    For each (gamma, sigma), every element of sigma^-1 S_gamma sigma is
    built as an n-tuple, with S_gamma = subgroup(gamma).  Each element
    must fix the acted standard filling, the conjugate must have as many
    elements as its stabilizer, and for n <= 4 it must equal the
    stabilizer found by brute force.
    """
    checked = 0
    failures = []
    for n in range(1, max_n + 1):
        perms = list(itertools.permutations(range(1, n + 1)))
        for gamma in positive_compositions(n):
            group = subgroup(gamma)
            # getters[y](sigma) lists sigma(g(y+1)) over g in S_gamma; the
            # first g comes twice, so each getter returns a tuple
            getters = [operator.itemgetter(*(v - 1 for v in col))
                       for col in zip(*group[:1], *group)]
            flat0 = tuple(v + 1 for v, part in enumerate(gamma)
                          for _ in range(part))
            for sigma in perms:
                sinv = sorted(range(n), key=sigma.__getitem__)
                flat = [flat0[y] for y in sinv]
                # column x: the images sigma(g(sinv(x))) of box x
                columns = [getters[y](sigma) for y in sinv] if group else []
                ok = all(flat[v - 1] == e
                         for e, col in zip(flat, columns) for v in set(col))
                conj = set(zip(*columns))
                order = math.prod(map(math.factorial,
                                      Counter(flat).values()))
                stab = {theta for theta in perms
                        if all(flat[theta[i] - 1] == flat[i]
                               for i in range(n))} if n <= 4 else None
                checked += 1
                if not ok or len(conj) != order or (stab is not None
                                                    and stab != conj):
                    failures.append(f"stabilizer mismatch gamma={gamma} "
                                    f"sigma={sigma}")
    return {"checked": checked, "failures": failures}


@functools.cache
def _row_fillings_by_filter(support_row, eta_i) -> tuple:
    """(row, lr_multi(eta_i, row)) for the rows of size |eta_i| with it > 0.

    A row holds one partition per support entry and () off the support.
    Ordered by the sizes of the row's partitions, largest first, then by
    the partitions themselves, each in descending lexicographic order.
    """
    n = sum(eta_i)
    pools = [[p for k in range(n + 1) for p in enumerate_partitions(k)]
             if a else [()] for a in support_row]
    rows = [row for row in itertools.product(*pools)
            if sum(map(sum, row)) == n]
    rows.sort(key=lambda row: (tuple(map(sum, row)), row), reverse=True)
    return tuple((row, c) for row in rows if (c := lr_multi(eta_i, row)))


@functools.cache
def _column_map(col_parts) -> dict:
    """nu -> lr_multi(nu, col_parts) over partitions of the size, if > 0.

    The reference for ``branching._column_expansion``: it asks about
    every partition of the column's size, as that function once did.
    """
    size = sum(map(sum, col_parts))
    return {nu: c for nu in enumerate_partitions(size)
            if (c := lr_multi(nu, col_parts))}


def product_digest(total: int) -> str:
    """SHA-256 over every product s_kappa * s_alpha with |kappa| +
    |alpha| = total, as sorted items of the uncached kernel, for kappa by
    size, then in `enumerate_partitions` order, then alpha likewise.

    Pins the kernel's answers past the Schur oracle's bound.
    """
    digest = hashlib.sha256()
    for k in range(total + 1):
        for kappa in enumerate_partitions(k):
            for alpha in enumerate_partitions(total - k):
                product = _lr_product.__wrapped__(kappa, alpha)
                digest.update(repr(sorted(product.items())).encode())
    return digest.hexdigest()


def filtration_multiplicities_by_loop(A, eta) -> dict:
    """The matrix-sum formula by one plain loop over the fillings of A.

    The reference for ``branching._filtration_multiplicities``.  Every
    row, empty eta_i included, contributes its fillings; for each choice
    of one filling per row, the product of the row coefficients goes to
    every choice of one nu^j per column, times the column coefficients
    lr_multi(nu^j, the column's nonempty parts).  Zero entries are
    omitted at the end.
    """
    t = len(A[0]) if A else 0
    per_row = [_row_fillings_by_filter(tuple(support), tuple(part))
               for support, part in zip(A, eta)]
    result = {}
    for combo in itertools.product(*per_row):
        row_coeff = 1
        for _, c in combo:
            row_coeff *= c
        col_maps = []
        for j in range(t):
            col_parts = tuple(row[j] for row, _ in combo if row[j])
            col_maps.append(_column_map(col_parts))
        for nu_choice in itertools.product(*(cm.items() for cm in col_maps)):
            nu = tuple(k for k, _ in nu_choice)
            w = row_coeff
            for _, v in nu_choice:
                w *= v
            result[nu] = result.get(nu, 0) + w
    return {k: v for k, v in result.items() if v}


def branch_payload(m: int, rule: str, lam, mults) -> dict:
    """The payload of a branch-first or branch-second answer, as a dict.

    The reference for the CLI's spliced output: `json.dumps` of this dict
    with ``sort_keys=True`` is the ``--json`` stdout.  Entries run in
    descending order of (concat_parts(nu), nu).
    """
    ordered = sorted(mults, key=lambda nu: (concat_parts(nu), nu),
                     reverse=True)
    return {"m": m, "n": sum(map(sum, lam)), "rule": rule, "lambda": lam,
            "multiplicities": [{"nu": nu, "mult": mults[nu]}
                               for nu in ordered]}


def branch_human(payload: dict) -> str:
    """The human stdout of a `branch_payload`, without the final newline."""
    lines = [f"rule={payload['rule']} m={payload['m']} n={payload['n']} "
             f"lambda={json.dumps(payload['lambda'])}"]
    for entry in payload["multiplicities"]:
        lines.append(f"  nu={json.dumps(entry['nu'])} mult={entry['mult']}")
    return "\n".join(lines)
