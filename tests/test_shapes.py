import itertools

import pytest

from wreathbranch.shapes import (check_composition, compositions,
                                 enumerate_partitions, fillings,
                                 multipartitions, removable_boxes,
                                 size_composition, specht_dimension)

from helpers import (concat_parts, count_standard_tableaux,
                     fillings_by_filter, partitions_by_filter)

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


def test_removable_boxes_empty_errors():
    with pytest.raises(ValueError, match="no removable boxes"):
        removable_boxes(())


def test_removable_boxes_rejects_non_partitions():
    for lam in [(2, 3), (1, 0), (0,), (True,), (1.0,)]:
        with pytest.raises(ValueError, match="not a partition"):
            removable_boxes(lam)


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


@pytest.mark.parametrize("caps", [(), (0,), (3,), (0, 0), (2, 0, 3),
                                  (1, 1, 1, 1), (4, 2), (0, 3, 0, 2, 1)])
def test_compositions_against_a_product_filter(caps):
    for n in range(-1, sum(caps) + 2):
        want = [a for a in itertools.product(*(range(c + 1) for c in caps))
                if sum(a) == n]
        # first part largest first: the reverse of the product's order
        assert list(compositions(n, caps)) == want[::-1]


def test_fillings_worked_example():
    # shape (8, 1), type (3, 1, 0, 2, 3), entries 0-based
    assert fillings((8, 1), (3, 1, 0, 2, 3)) == [
        (0, 0, 0, 1, 3, 3, 4, 4, 4),
        (0, 0, 0, 1, 3, 4, 4, 4, 3),
        (0, 0, 0, 3, 3, 4, 4, 4, 1),
        (0, 0, 1, 3, 3, 4, 4, 4, 0),
    ]


def test_fillings_small():
    assert fillings((5,), (2, 2, 1)) == [(0, 0, 1, 1, 2)]
    assert fillings((1, 1), (1, 1)) == [(0, 1), (1, 0)]


def test_fillings_edge_margins():
    assert fillings((), ()) == [()]
    assert fillings((0,), ()) == [()]
    assert fillings((0, 2), (2,)) == [(0, 0)]
    # unequal totals give no filling, whichever side is larger
    assert fillings((2,), (3,)) == []
    assert fillings((3,), (2,)) == []


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 2), (1, 0), (1, 3),
                                       (2, 2), (2, 3), (3, 2)])
def test_fillings_against_a_filter(rows, cols):
    # every margin with parts at most 2
    support = ((1,) * cols,) * rows
    for row_sums in itertools.product(range(3), repeat=rows):
        for col_sums in itertools.product(range(3), repeat=cols):
            want = fillings_by_filter(support, row_sums, col_sums)
            assert want == sorted(set(want))
            assert fillings(row_sums, col_sums) == want


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
