"""Branching multiplicities for Specht modules of S_m wr S_n.

The first rule (restriction to S_{m-1} wr S_n) is computed two ways: by
summing coefficients over good labellings of the two-layer Young graph
slice, and by the multipartition-matrix formula; the two must agree.
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
from .shapes import (Multipartition, Partition, _removable_boxes,
                     _specht_dimension, check_count, check_partition,
                     compositions, enumerate_partitions, removable_boxes,
                     size_composition)

# A multipartition matrix is a tuple of rows; each row holds one
# partition per column.  A multiplicity map is a dict multipartition ->
# positive int.  A row filling is a pair (row, coeff).
_row_of, _coeff_of = itemgetter(0), itemgetter(1)


# edges are 0-based (upper index, lower index) pairs
YoungLayer = namedtuple("YoungLayer", "m upper lower edges adjacency")
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
    edge_set = set(edges)
    adjacency = tuple(tuple(1 if (i, j) in edge_set else 0
                            for j in range(len(lower)))
                      for i in range(len(upper)))
    return YoungLayer(m, upper, lower, edges, adjacency)


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
    # edge-size matrices: row i composes |lam_i| over upper node i's edges
    rows = (compositions(s, [s * a for a in row])
            for s, row in zip(size_composition(lam), layer.adjacency))
    out = []
    for sizes in itertools.product(*rows):
        if tuple(map(sum, zip(*sizes))) != nu_sizes:
            continue
        for labels in itertools.product(*(enumerate_partitions(sizes[i][j])
                                          for i, j in layer.edges)):
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

def _node_product(parts: Multipartition, keys) -> int:
    """Product over nodes k of lr_multi(parts[k], labels at node k).

    keys[k] holds node k's nonempty labels sorted: a `_lr_multi_sorted` key.
    """
    coeff = 1
    for part, key in zip(parts, keys):
        coeff *= _lr_multi_sorted(part, key)
        if not coeff:
            return 0
    return coeff


def _labelling_multiplicities(layer: YoungLayer, lam: Multipartition) -> dict:
    """The multiplicity map of the good-labelling sum.

    The labels at upper node i of a good labelling fill row i of the
    adjacency matrix, and its upper factor is that row's coefficient, so
    the labellings with a nonzero upper factor combine `_row_fillings`.
    Labellings with equal lower keys (as `_node_product` takes them) share
    their lower factor, so their upper factors are summed first.  The
    keys come in the order of `multipartitions`.
    """
    groups: dict[tuple, dict] = {}  # nu sizes -> {lower keys: coeff}
    for combo in itertools.product(*map(_row_fillings, layer.adjacency, lam)):
        keys = tuple(tuple(sorted([p for p in column if p]))
                     for column in zip(*map(_row_of, combo)))
        nu_sizes = tuple(sum(map(sum, key)) for key in keys)
        group = groups.setdefault(nu_sizes, {})
        group[keys] = group.get(keys, 0) + prod(map(_coeff_of, combo))
    result: dict[Multipartition, int] = {}
    for nu_sizes, group in sorted(groups.items(), reverse=True):
        for nu in itertools.product(*map(enumerate_partitions, nu_sizes)):
            total = sum(coeff * _node_product(nu, keys)
                        for keys, coeff in group.items())
            if total:
                result[nu] = total
    return result


@cache
def _row_fillings(support_row, eta_i: Partition) -> tuple:
    """Fillings of one row that have a nonzero row LR coefficient.

    Pairs (row, coeff): row holds one partition per column, () off the
    support, with sizes summing to |eta_i|, and coeff is
    lr_multi(eta_i, row).  Memoised, as every lambda that puts eta_i on
    a row with this support shares them.
    """
    n = sum(eta_i)
    caps = tuple(n if a else 0 for a in support_row)
    out = []
    for sizes in compositions(n, caps):
        for row in itertools.product(*map(enumerate_partitions, sizes)):
            coeff = _lr_multi(eta_i, row)
            if coeff:
                out.append((row, coeff))
    return tuple(out)


def _filtration_multiplicities(A, eta: Multipartition) -> dict:
    """The multiplicity map of the matrix-sum formula.

    A is a 0/1 matrix of tuples with one row per component of eta.  For
    each multipartition nu with one component per column of A, sums over
    the fillings of A by partitions (one per support entry, () off it)
    the product of row coefficients lr_multi(eta^i, R_i) and column
    coefficients lr_multi(nu^j, C_j).  Zero entries are omitted.
    """
    # a row with an empty eta_i has one filling, all (), at coefficient 1
    per_row = [_row_fillings(row, part) for row, part in zip(A, eta) if part]
    if not per_row:
        return {((),) * (len(A[0]) if A else 0): 1}
    # No zero filter: every term is a product of positive LR coefficients
    # (row fillings and column tables keep nonzero ones only), so no
    # entry of the sum is zero.
    result: dict[Multipartition, int] = {}
    get = result.get
    for combo in itertools.product(*per_row):
        row_coeff = prod(map(_coeff_of, combo))
        # one nu^j per column, chosen independently
        nus, coeffs = zip(*map(_column_expansion, zip(*map(_row_of, combo))))
        for nu, w in zip(itertools.product(*nus),
                         map(prod, itertools.product(*coeffs))):
            result[nu] = get(nu, 0) + row_coeff * w
    return result


@cache
def _column_expansion(column) -> tuple:
    """(nus, coeffs): the nu with lr_multi(nu, column) > 0, and those values.

    `column` holds one partition per row, () entries included; the nus
    are partitions of its total size in `enumerate_partitions` order.
    """
    terms = {(): 1}
    for part in sorted(p for p in column if p):
        grown: dict = {}
        for kappa, c in terms.items():
            for nu, d in _lr_product(kappa, part).items():
                grown[nu] = grown.get(nu, 0) + c * d
        terms = grown
    return tuple(zip(*sorted(terms.items(), reverse=True)))


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
    multiplicities.  ``method`` selects the matrix-sum formula or the
    good-labelling sum; both give the same map.
    """
    lam = _check_lambda(m, lam)
    layer = young_layer(m)
    if method == "matrices":
        return _filtration_multiplicities(layer.adjacency, lam)
    if method == "labellings":
        return _labelling_multiplicities(layer, lam)
    raise ValueError(f"unknown method {method!r}")


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
        for delta in _removable_boxes(part):
            key = lam[:i] + (delta,) + lam[i + 1:]
            result[key] = result.get(key, 0) + _specht_dimension(upper[i])
    return result
