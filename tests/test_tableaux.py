"""The tableau helpers that serve as the brute-force LR reference."""

import itertools

import pytest

from wreathbranch.shapes import enumerate_partitions, specht_dimension

from helpers import (content_type, enumerate_skew_ssyt, is_lattice_word,
                     is_semistandard, reshape, reverse_reading_word)

# skew filling of (6,4,3,3,1) minus (3,4,2,1), used in several tests
SKEW_OUTER = (6, 4, 3, 3, 1)
SKEW_INNER = (3, 4, 2, 1)
SKEW_ROWS = ((1, 3, 3), (), (1,), (2, 2), (3,))


def test_content_type():
    tab = ((1, 2, 1, 3, 2), (2, 3, 2), (2, 3, 1, 3), (1,))
    assert content_type(tab) == (4, 5, 4)
    assert content_type(()) == ()
    assert content_type(((3,),)) == (0, 0, 1)


def test_is_semistandard_skew_example():
    assert is_semistandard(SKEW_ROWS, SKEW_INNER)
    assert content_type(SKEW_ROWS) == (2, 2, 3)


def test_is_semistandard_rejects_bad_rows_and_columns():
    assert not is_semistandard(((2, 1),))
    assert not is_semistandard(((1,), (1,)))
    assert is_semistandard(((1, 1), (2,)))


def test_column_strictness_across_gaps():
    # rows 1 and 3 share column 1 with a gap at row 2
    assert is_semistandard(((1,), (2,), (1,)), (0, 1, 0)) is False
    assert is_semistandard(((1,), (2,), (2,)), (0, 1, 0)) is True


def test_reverse_reading_word():
    assert reverse_reading_word(SKEW_ROWS) == (3, 3, 1, 1, 2, 2, 3)
    assert reverse_reading_word(()) == ()
    assert reverse_reading_word(((1, 2),)) == (2, 1)


def test_is_lattice_word():
    assert is_lattice_word((1, 1, 2, 1, 2, 3))
    assert not is_lattice_word((2, 1, 1))
    assert not is_lattice_word((1, 2, 2))
    assert is_lattice_word(())


def test_lattice_word_rejects_nonpositive():
    with pytest.raises(ValueError):
        is_lattice_word((1, 0))


def test_enumerate_skew_ssyt_small_cases():
    assert len(enumerate_skew_ssyt((2, 1), (), (2, 1))) == 1
    assert enumerate_skew_ssyt((1,), (), (0, 1)) == [((2,),)]
    assert enumerate_skew_ssyt((2,), (), (1, 0, 1)) == [((1, 3),)]
    assert enumerate_skew_ssyt((2,), (), (1,)) == []


def test_enumerate_skew_ssyt_bad_inner():
    with pytest.raises(ValueError):
        enumerate_skew_ssyt((2,), (3,), (1,))


def test_enumerated_tableaux_are_semistandard_with_right_type():
    for type_ in [(2, 2, 3), (3, 3, 1), (1, 1, 1, 1, 1, 1, 1)]:
        for rows in enumerate_skew_ssyt(SKEW_OUTER, SKEW_INNER, type_):
            assert is_semistandard(rows, SKEW_INNER)
            assert content_type(rows) == tuple(type_)


@pytest.mark.parametrize("m", range(7))
def test_standard_type_counts_match_hook_formula(m):
    ones = (1,) * m
    for lam in enumerate_partitions(m):
        tabs = enumerate_skew_ssyt(lam, (), ones)
        assert len(tabs) == specht_dimension(lam)


def test_enumeration_matches_naive_filter():
    cases = []
    for outer_size in range(1, 6):
        for outer in enumerate_partitions(outer_size):
            for inner_size in range(0, outer_size):
                for inner in enumerate_partitions(inner_size):
                    if len(inner) <= len(outer) and all(
                            inner[i] <= outer[i] for i in range(len(inner))):
                        cases.append((outer, inner))
    for outer, inner in cases:
        boxes = sum(outer) - sum(inner)
        for type_ in [(boxes,), (boxes - 1, 1), (1,) * boxes,
                      (0, boxes), (boxes - 2, 1, 1)]:
            if any(v < 0 for v in type_):
                continue
            got = enumerate_skew_ssyt(outer, inner, type_)
            want = _skew_ssyt_by_filter(outer, inner, type_)
            assert sorted(got) == sorted(want)
            assert len(got) == len(set(got))


def _skew_ssyt_by_filter(outer, inner, type_):
    """Every raw filling of outer/inner, kept if semistandard of type_."""
    lengths = [o - i for o, i in itertools.zip_longest(outer, inner,
                                                       fillvalue=0)]
    kept = []
    for values in itertools.product(range(1, len(type_) + 1),
                                    repeat=sum(lengths)):
        rows = reshape(values, lengths)
        if is_semistandard(rows, inner) and content_type(rows) == type_:
            kept.append(rows)
    return kept


def test_enumeration_is_row_major_lexicographic():
    tabs = enumerate_skew_ssyt((2, 2), (), (1, 1, 1, 1))
    flats = [tuple(e for row in t for e in row) for t in tabs]
    assert flats == sorted(flats)
