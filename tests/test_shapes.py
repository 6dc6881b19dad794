import itertools
import sys
from functools import cache

import pytest

from wreathbranch import shapes
from wreathbranch.perms import double_coset_reps
from wreathbranch.shapes import (check_composition, compositions,
                                 enumerate_partitions, multipartitions,
                                 partitions_inside, removable_boxes,
                                 size_composition, specht_dimension)

from helpers import (concat_parts, count_standard_tableaux,
                     fillings_by_filter, fits, partitions_by_filter,
                     stable_argsorts)

# partition counts p(0)..p(10)
PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_partitions_of_three():
    assert enumerate_partitions(3) == ((3,), (2, 1), (1, 1, 1))


def test_partitions_of_zero():
    assert enumerate_partitions(0) == ((),)


def test_partitions_of_seven_against_filter_oracle():
    assert list(enumerate_partitions(7)) == partitions_by_filter(7)
    assert len(enumerate_partitions(7)) == 15


@pytest.mark.parametrize("m", range(11))
def test_partition_count_and_lex_order(m):
    parts = enumerate_partitions(m)
    assert len(parts) == PARTITION_COUNTS[m]
    assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))
    if m > 0:
        assert parts[0] == (m,)
        assert parts[-1] == (1,) * m


_filtered = cache(partitions_by_filter)


@pytest.mark.parametrize("size", range(11))
def test_partitions_inside_match_a_filter(size):
    # every lam of the size, the empty one included, and every k up to
    # one past |lam|, where nothing fits
    for lam in _filtered(size):
        for k in range(size + 2):
            assert list(partitions_inside(k, lam)) == [
                p for p in _filtered(k) if fits(lam, p)]
    assert list(partitions_inside(-1, (size,))) == []


def test_partitions_inside_past_the_recursion_limit():
    # one loop: a row or a column longer than the recursion limit needs
    # no deeper stack
    n = sys.getrecursionlimit() + 100
    assert list(partitions_inside(n, (1,) * n)) == [(1,) * n]
    assert list(partitions_inside(n, (n,))) == [(n,)]


@pytest.mark.parametrize("value, message", [
    (2.0, "must be an int, not float"),
    (True, "must be an int, not bool"),
    (-1, "must be at least 0"),
], ids=["float", "bool", "negative"])
@pytest.mark.parametrize("call", [
    enumerate_partitions,
    lambda value: multipartitions(value, 2),
    lambda value: multipartitions(2, value),
], ids=["enumerate_partitions", "multipartitions-n",
        "multipartitions-components"])
def test_sizes_must_be_ints_of_at_least_zero(call, value, message):
    # an answer cached for 1 must not be returned for True, though
    # True == 1 and both hash alike
    enumerate_partitions(1)
    with pytest.raises(ValueError, match=message):
        call(value)


def test_removable_boxes():
    assert removable_boxes((2, 1)) == [(1, 1), (2,)]
    assert removable_boxes((3,)) == [(2,)]
    assert removable_boxes((2, 2)) == [(2, 1)]


def test_specht_dimension_examples():
    assert specht_dimension((2, 1)) == 2
    assert specht_dimension((3, 2)) == 5
    assert specht_dimension(()) == 1
    for n in range(1, 9):
        assert specht_dimension((n,)) == 1


@pytest.mark.parametrize("m", range(9))
def test_specht_dimension_matches_tableau_count(m):
    for lam in enumerate_partitions(m):
        assert specht_dimension(lam) == count_standard_tableaux(lam)


@pytest.mark.parametrize("m", range(1, 9))
def test_dimension_branching_shadow(m):
    # removing one box partitions the standard tableaux by their top entry
    for lam in enumerate_partitions(m):
        assert specht_dimension(lam) == sum(specht_dimension(d)
                                            for d in removable_boxes(lam))


def test_specht_dimension_checks_before_the_cache():
    assert specht_dimension((1,)) == 1
    with pytest.raises(ValueError, match="not a partition"):
        specht_dimension((True,))


def test_specht_dimension_rejects_hooks_that_do_not_divide(monkeypatch):
    # columns two boxes too long give (3) the hooks 5, 4, 3, and 60
    # does not divide 3!
    conjugate = shapes.conjugate
    monkeypatch.setattr(shapes, "conjugate",
                        lambda lam: tuple(p + 2 for p in conjugate(lam)))
    with pytest.raises(RuntimeError, match="does not divide n!"):
        shapes._specht_dimension.__wrapped__((3,))


@pytest.mark.parametrize("caps", [(), (0,), (3,), (0, 0), (2, 0, 3),
                                  (1, 1, 1, 1), (4, 2), (0, 3, 0, 2, 1)])
def test_compositions_against_a_product_filter(caps):
    for n in range(-1, sum(caps) + 2):
        want = [a for a in itertools.product(*(range(c + 1) for c in caps))
                if sum(a) == n]
        # first part largest first: the reverse of the product's order
        assert list(compositions(n, caps)) == want[::-1]


# The fillings tests below check the double coset representatives that
# `double_coset_reps(col_sums, row_sums)` reads off the weakly increasing
# row fillings with the given margins: each is the stable argsort of its
# filling, in the lexicographic order of the fillings.

def test_fillings_worked_example():
    # shape (8, 1), type (3, 1, 0, 2, 3), entries 0-based
    want = [
        (0, 0, 0, 1, 3, 3, 4, 4, 4),
        (0, 0, 0, 1, 3, 4, 4, 4, 3),
        (0, 0, 0, 3, 3, 4, 4, 4, 1),
        (0, 0, 1, 3, 3, 4, 4, 4, 0),
    ]
    assert fillings_by_filter(((1,) * 5,) * 2, (8, 1), (3, 1, 0, 2, 3)) \
        == want
    assert double_coset_reps((3, 1, 0, 2, 3), (8, 1)) == stable_argsorts(want)


def test_fillings_small():
    assert double_coset_reps((2, 2, 1), (5,)) == \
        stable_argsorts([(0, 0, 1, 1, 2)]) == ((1, 2, 3, 4, 5),)
    assert double_coset_reps((1, 1), (1, 1)) == \
        stable_argsorts([(0, 1), (1, 0)]) == ((1, 2), (2, 1))


def test_fillings_edge_margins():
    assert double_coset_reps((), ()) == ((),)
    assert double_coset_reps((), (0,)) == ((),)
    assert double_coset_reps((2,), (0, 2)) == ((1, 2),)
    # unequal totals raise, whichever side is larger
    for gamma, alpha in (((3,), (2,)), ((2,), (3,))):
        with pytest.raises(ValueError, match="different sizes"):
            double_coset_reps(gamma, alpha)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 2), (1, 0), (1, 3),
                                       (2, 2), (2, 3), (3, 2)])
def test_fillings_against_a_filter(rows, cols):
    # every margin with parts at most 2
    support = ((1,) * cols,) * rows
    for row_sums in itertools.product(range(3), repeat=rows):
        for col_sums in itertools.product(range(3), repeat=cols):
            if sum(row_sums) != sum(col_sums):
                with pytest.raises(ValueError, match="different sizes"):
                    double_coset_reps(col_sums, row_sums)
                continue
            want = fillings_by_filter(support, row_sums, col_sums)
            assert want == sorted(set(want))
            assert double_coset_reps(col_sums, row_sums) == \
                stable_argsorts(want)


def test_check_composition():
    assert check_composition([3, 1, 0, 2, 3]) == (3, 1, 0, 2, 3)
    assert check_composition(()) == ()


@pytest.mark.parametrize("parts", [(2, -1, 1), (True, 1), (1.0,), ("1",)])
def test_check_composition_rejects(parts):
    with pytest.raises(ValueError, match="not a composition"):
        check_composition(parts)


def test_concat_parts():
    assert concat_parts(((2,), (1, 1))) == (2, 1, 1)
    assert concat_parts(()) == ()
    assert concat_parts(((3, 1), (), (2,))) == (3, 1, 2)


def test_size_composition():
    assert size_composition(((2,), (1, 1), ())) == (2, 2, 0)


def test_multipartitions_enumeration():
    mps = list(multipartitions(2, 2))
    assert set(mps) == {((2,), ()), ((1, 1), ()), ((1,), (1,)),
                        ((), (2,)), ((), (1, 1))}
    assert len(mps) == len(set(mps))
    assert list(multipartitions(0, 3)) == [((), (), ())]
    # compositions is one loop, so more components than the recursion
    # limit need no deeper stack
    assert len(list(multipartitions(1, 1200))) == 1200
