"""Branching multiplicities for Specht modules of S_m wr S_n.

The first rule (restriction to S_{m-1} wr S_n) is computed two ways by
one loop over fillings, whose rows and columns hold a good labelling's
labels at the upper and lower nodes of the two-layer Young graph slice.
Both take column coefficients from the one LR walk of ``lr``, in two ways
that must agree: the matrix formula folds Schur products (free walks on
disjoint skew shapes), the labelling sum asks lr_multi about each nu.
The second rule (restriction to S_m wr S_{n-1}) removes one box from one
component, weighted by a hook-length dimension.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache
from math import factorial, prod
from operator import itemgetter

from .lr import _lr_multi, _lr_multi_sorted, _lr_product
from .shapes import (Multipartition, Partition, _specht_dimension,
                     check_count, check_partition, compositions,
                     enumerate_partitions, partitions_inside, removable_boxes,
                     size_composition)

# A multipartition matrix is a tuple of rows; each row holds one
# partition per column.  A multiplicity map is a dict multipartition ->
# positive int.  A row filling is a pair (row, coeff).
_row_of, _coeff_of = itemgetter(0), itemgetter(1)


# edges are 0-based (upper index, lower index) pairs, each upper node's in
# falling lower index; below[i] holds upper node i's lower indices rising
YoungLayer = namedtuple("YoungLayer", "m upper lower edges below")
YoungLayer.__doc__ = ("Partitions of m and m-1 with the one-box-removal "
                      "edges between them.")


@cache
def young_layer(m: int) -> YoungLayer:
    check_count(m, "m", 1)
    upper = enumerate_partitions(m)
    lower = enumerate_partitions(m - 1)
    index = {p: j for j, p in enumerate(lower)}
    edges = tuple((i, index[q])
                  for i, p in enumerate(upper)
                  for q in removable_boxes(p))
    below = [() for _ in upper]
    for i, j in edges:
        below[i] = (j,) + below[i]
    return YoungLayer(m, upper, lower, edges, tuple(below))


def good_labellings(m: int, lam: Multipartition,
                    nu: Multipartition) -> list[tuple[tuple, int]]:
    """The good labellings L of young_layer(m) for lam over nu, with M(L).

    A good labelling gives each edge a partition, so that the label
    sizes at each upper node sum to the size of lam's component there,
    and likewise for nu below.  Each entry is (labels, M(L)): the labels
    are aligned with the layer's edges, and M(L) is the product over all
    nodes of lr_multi(component, incident labels).  ValueError unless
    lam and nu are multipartitions with one component per node.  Each
    call returns a new list.
    """
    lam = _check_lambda(m, lam)
    layer = young_layer(m)
    nu = tuple(nu)
    if len(nu) != len(layer.lower):
        raise ValueError(f"nu must have {len(layer.lower)} components")
    nu = tuple(map(check_partition, nu))
    nu_sizes = size_composition(nu)
    # node i composes |lam_i| over below[i]; reversed, over its edges
    rows = (compositions(s, (s,) * len(js))
            for s, js in zip(size_composition(lam), layer.below))
    out = []
    for sizes in itertools.product(*rows):
        edge_sizes = [k for row in sizes for k in reversed(row)]
        lower_sizes = [0] * len(nu)
        for (_, j), k in zip(layer.edges, edge_sizes):
            lower_sizes[j] += k
        if tuple(lower_sizes) != nu_sizes:
            continue
        for labels in itertools.product(*map(enumerate_partitions,
                                             edge_sizes)):
            upper, lower = [[] for _ in lam], [[] for _ in nu]
            for (i, j), label in zip(layer.edges, labels):
                upper[i].append(label)
                lower[j].append(label)
            coeff = prod(map(_lr_multi, lam, upper))
            if coeff:
                coeff *= prod(map(_lr_multi, nu, lower))
            out.append((labels, coeff))
    return out


# The entry points hold checked partitions, so they call the cores below.

@cache
def _row_fillings(support, width: int, eta_i: Partition) -> tuple:
    """Fillings of one row that have a nonzero row LR coefficient.

    Pairs (row, coeff): row holds one partition per lower node (`width`),
    () off `support` (a node's `below`), with sizes summing to |eta_i|,
    and coeff is lr_multi(eta_i, row); only parts inside eta_i are tried,
    as any other gives 0.  Memoised, as every lambda that puts eta_i on a
    node with this support shares them.
    """
    n = sum(eta_i)
    caps = [n if j in support else 0 for j in range(width)]
    inside = [tuple(partitions_inside(k, eta_i)) for k in range(n + 1)]
    out = []
    for sizes in compositions(n, caps):
        for row in itertools.product(*map(inside.__getitem__, sizes)):
            if coeff := _lr_multi(eta_i, row):
                out.append((row, coeff))
    return tuple(out)


def _filtration_multiplicities(layer: YoungLayer, eta: Multipartition,
                               columns) -> dict:
    """The multiplicity map of the first rule, for n >= 1.

    A filling puts a partition on each edge: row i holds upper node i's,
    () off `below[i]`, and column j lower node j's.  For each nu with one
    component per lower node, sums over the fillings the product of row
    coefficients lr_multi(eta^i, R_i) and column coefficients
    lr_multi(nu^j, C_j), as the table `columns` lists them.  An empty eta^i
    has one row, all (), at coefficient 1, so only nonempty rows combine.
    """
    per_row = [_row_fillings(js, len(layer.lower), part)
               for js, part in zip(layer.below, eta) if part]
    # No zero filter: every term is a product of positive LR coefficients
    # (row fillings and column tables keep nonzero ones only), so no
    # entry of the sum is zero.
    result: dict[Multipartition, int] = {}
    get = result.get
    for combo in itertools.product(*per_row):
        row_coeff = prod(map(_coeff_of, combo))
        # one nu^j per column, chosen independently
        nus, coeffs = zip(*map(columns, zip(*map(_row_of, combo))))
        for nu, w in zip(itertools.product(*nus),
                         map(prod, itertools.product(*coeffs))):
            result[nu] = get(nu, 0) + row_coeff * w
    return result


@cache
def _column_expansion(column) -> tuple:
    """(nus, coeffs): the nu with lr_multi(nu, column) > 0, and those values.

    `column` holds one partition per row, () entries included; the nus
    are partitions of its total size in `enumerate_partitions` order.
    Folds the product kernel over the nonempty parts.
    """
    terms = {(): 1}
    for part in sorted(p for p in column if p):
        grown: dict = {}
        for kappa, c in terms.items():
            for nu, d in _lr_product(kappa, part).items():
                grown[nu] = grown.get(nu, 0) + c * d
        terms = grown
    return tuple(zip(*sorted(terms.items(), reverse=True)))


@cache
def _column_by_walk(column) -> tuple:
    """`_column_expansion`'s table per nu, never by `_lr_product`.

    Asks `_lr_multi_sorted` about every partition of the column's size.
    """
    key = tuple(sorted(p for p in column if p))
    terms = [(nu, c) for nu in enumerate_partitions(sum(map(sum, key)))
             if (c := _lr_multi_sorted(nu, key))]
    return tuple(zip(*terms))


def _check_lambda(m: int, lam) -> Multipartition:
    """`lam` as one partition per partition of m (m >= 1), or ValueError."""
    check_count(m, "m", 1)
    lam = tuple(lam)
    components = len(enumerate_partitions(m))
    if len(lam) != components:
        raise ValueError(f"lambda must have {components} components")
    return tuple(map(check_partition, lam))


def branch_first(m: int, lam: Multipartition, method: str = "matrices") -> dict:
    """Multiplicities of the restriction from S_m wr S_n to S_{m-1} wr S_n.

    Returns a map from p(m-1)-component multipartitions of n to positive
    multiplicities.  ``method`` selects the column table: the product
    kernel for the matrix-sum formula, the LR walk for the good-labelling
    sum; both give the same map, in the same order.
    """
    if method not in ("matrices", "labellings"):
        raise ValueError(f"unknown method {method!r}")
    lam = _check_lambda(m, lam)
    layer = young_layer(m)
    if not any(lam):  # n = 0: both methods give the one nu, all ()
        return {((),) * len(layer.lower): 1}
    columns = _column_expansion if method == "matrices" else _column_by_walk
    return _filtration_multiplicities(layer, lam, columns)


def wreath_specht_dimension(m: int, lam: Multipartition) -> int:
    """Dimension of the Specht module of S_m wr S_n indexed by `lam`."""
    return _wreath_specht_dimension(m, _check_lambda(m, lam))


def _wreath_specht_dimension(m: int, lam: Multipartition) -> int:
    """wreath_specht_dimension for a checked `lam`."""
    n = sum(map(sum, lam))
    dim = factorial(n)
    for mu, part in zip(enumerate_partitions(m), lam):
        if part:  # an empty component contributes a factor of 1
            k = sum(part)
            dim //= factorial(k)
            dim *= _specht_dimension(mu) ** k * _specht_dimension(part)
    return dim


def branch_second(m: int, lam: Multipartition) -> dict:
    """Multiplicities of the restriction from S_m wr S_n to S_m wr S_{n-1}.

    Here n = |lam| must be at least 1.  One entry per single-box
    removal: removing a box from component i contributes the
    hook-length dimension of the i-th partition of m.
    """
    lam = _check_lambda(m, lam)
    if not any(lam):
        raise ValueError("n must be at least 1")
    upper = enumerate_partitions(m)
    result: dict[Multipartition, int] = {}
    for i, part in enumerate(lam):
        if not part:
            continue
        for delta in removable_boxes(part):
            key = lam[:i] + (delta,) + lam[i + 1:]
            result[key] = result.get(key, 0) + _specht_dimension(upper[i])
    return result
