import itertools
import random

import pytest

from helpers import (_column_map, cheapest_first_rule_requests,
                     filtration_multiplicities_by_loop,
                     good_labellings_by_fillings)
from wreathbranch import branching, verify
from wreathbranch.branching import (_column_expansion,
                                    _filtration_multiplicities, branch_first,
                                    branch_second, good_labellings,
                                    wreath_specht_dimension, young_layer)
from wreathbranch.shapes import (compositions, conjugate,
                                 enumerate_partitions, multipartitions,
                                 removable_boxes, specht_dimension)
from wreathbranch.verify import (verify_dimensions,
                                 verify_labelling_equivalence)

LAM36 = ((2,), (1, 1), (1, 1))
NU36 = ((3,), (2, 1))


def test_young_layer_m3():
    layer = young_layer(3)
    assert layer.upper == ((3,), (2, 1), (1, 1, 1))
    assert layer.lower == ((2,), (1, 1))
    assert set(layer.edges) == {(0, 0), (1, 0), (1, 1), (2, 1)}
    assert layer.adjacency == ((1, 0), (1, 1), (0, 1))


def test_young_layer_edges_match_removable_boxes():
    for m in (1, 2, 3, 4, 5):
        layer = young_layer(m)
        for i, p in enumerate(layer.upper):
            js = {j for (a, j) in layer.edges if a == i}
            assert {layer.lower[j] for j in js} == set(removable_boxes(p))


def test_young_layer_small_and_m4():
    one = young_layer(1)
    assert len(one.upper) == 1 and len(one.lower) == 1 and len(one.edges) == 1
    four = young_layer(4)
    assert len(four.upper) == 5 and len(four.lower) == 3
    assert len(four.edges) == 7
    with pytest.raises(ValueError):
        young_layer(0)


def test_good_labellings_worked_example():
    pairs = good_labellings(3, LAM36, NU36)
    assert len(pairs) == 4
    # edge sizes are forced to 2,1,1,2; displayed labelling appears once
    displayed = ((2,), (1,), (1,), (1, 1))
    coeffs = dict(pairs)
    assert len(coeffs) == 4
    assert coeffs[displayed] == 1
    assert sum(coeffs.values()) == 1  # the other three vanish


def test_good_labellings_empty_multipartition():
    assert good_labellings(3, ((), (), ()), ((), ())) == [
        (((), (), (), ()), 1)]


def test_good_labellings_component_mismatch():
    with pytest.raises(ValueError, match="lambda must have 3 components"):
        good_labellings(3, ((1,),), NU36)
    with pytest.raises(ValueError, match="nu must have 2 components"):
        good_labellings(3, LAM36, ((3,), (2, 1), ()))


def test_good_labellings_reject_non_multipartitions():
    # the bool part comes after a cached answer for the int one, as
    # True == 1 and both hash alike
    nu5 = ((2,), (2, 1))
    assert good_labellings(3, ((1,), (1, 1), (1, 1)), nu5)
    for lam, nu in ((((1, 1), (2, 1), (0, 1)), NU36),
                    (LAM36, ((3,), (1, 2))),
                    (((True,), (1, 1), (1, 1)), nu5),
                    (LAM36, ((3,), (2, True)))):
        with pytest.raises(ValueError, match="not a partition"):
            good_labellings(3, lam, nu)
    with pytest.raises(ValueError, match="m must be at least 1"):
        good_labellings(0, ((1,),), ((1,),))


def _one_partition_each(sizes):
    return tuple((s,) if s else () for s in sizes)


def test_labellings_match_the_filling_reference():
    # every (lambda sizes, nu sizes) with m <= 4 and n <= 4: 1,666 pairs
    pairs = 0
    for m in range(1, 5):
        layer = young_layer(m)
        for n in range(5):
            for lam_sizes in compositions(n, (n,) * len(layer.upper)):
                for nu_sizes in compositions(n, (n,) * len(layer.lower)):
                    want = good_labellings_by_fillings(layer, lam_sizes,
                                                       nu_sizes)
                    got = good_labellings(m, _one_partition_each(lam_sizes),
                                          _one_partition_each(nu_sizes))
                    assert [labels for labels, _ in got] == want, (
                        m, lam_sizes, nu_sizes)
                    pairs += 1
    assert pairs == 1666


def test_labelling_sum_matches_the_per_nu_definition():
    # branch_first groups the sum by the size composition of nu; here it
    # is summed per nu through the exported, checked function
    cases = []
    for m, max_n in ((1, 4), (2, 4), (3, 4), (4, 3)):
        layer = young_layer(m)
        for n in range(max_n + 1):
            for lam in multipartitions(n, len(layer.upper)):
                expected = {}
                for nu in multipartitions(n, len(layer.lower)):
                    total = sum(coeff for _, coeff in good_labellings(
                        m, lam, nu))
                    if total:
                        expected[nu] = total
                cases.append((m, lam, expected))
    for m, lam, expected in cases:
        got = branch_first(m, lam, method="labellings")
        assert list(got.items()) == list(expected.items()), (m, lam)
    # a shuffled order mixes the size compositions, so the memoised row
    # fillings are met in another order
    random.Random(11).shuffle(cases)
    for m, lam, expected in cases:
        got = branch_first(m, lam, method="labellings")
        assert list(got.items()) == list(expected.items()), (m, lam)


def test_good_labellings_are_a_fresh_list():
    # the labelling sum reads memoised row fillings; a caller that
    # changes the exported function's list must not change a later answer
    same_sizes = ((1, 1), (2,), (2,))
    before = [list(branch_first(3, lam, method="labellings").items())
              for lam in (LAM36, same_sizes)]
    pairs = good_labellings(3, LAM36, NU36)
    assert isinstance(pairs, list) and len(pairs) == 4
    first = list(pairs)
    pairs[0] = pairs[1]
    pairs.append(pairs[1])
    good_labellings(3, same_sizes, NU36).clear()
    after = [list(branch_first(3, lam, method="labellings").items())
             for lam in (LAM36, same_sizes)]
    assert after == before
    assert good_labellings(3, LAM36, NU36) == first


def test_filtration_sum_matches_the_plain_loop():
    # the production loop skips empty rows, keys one table per column and
    # drops no zeros; the reference loops over every row and filters
    def check(m, lam):
        A = young_layer(m).adjacency
        got = _filtration_multiplicities(A, lam)
        want = filtration_multiplicities_by_loop(A, lam)
        assert list(got.items()) == list(want.items()), (m, lam)
        assert all(v > 0 for v in got.values()), (m, lam)

    for m, max_n in ((1, 5), (2, 5), (3, 5), (4, 5), (5, 4)):
        components = len(young_layer(m).upper)
        for n in range(max_n + 1):
            for lam in multipartitions(n, components):
                check(m, lam)
    check(5, ((),) * 7)
    check(5, ((2,), (), (1, 1), (), (), (2, 1), ()))
    check(4, ((), (2, 1), (), (1, 1, 1), ()))
    # row coefficients above 1 need |eta_i| >= 6 on a two-edge row
    check(3, ((1,), (3, 2, 1), ()))
    check(4, ((), (3, 2, 1), (), (2, 1, 1, 1, 1), (1,)))


def test_column_expansion_matches_the_scan():
    # every column of up to 3 nonempty parts with total <= 8, once with
    # an empty entry: the nus come in enumerate_partitions order
    columns = 0
    for total in range(9):
        for k in range(4):
            for sizes in compositions(total, (total,) * k):
                if 0 in sizes:
                    continue
                for parts in itertools.product(*map(enumerate_partitions,
                                                    sizes)):
                    want = _column_map(parts)
                    order = tuple(nu for nu in enumerate_partitions(total)
                                  if nu in want)
                    for column in (parts, ((),) + parts[::-1]):
                        columns += 1
                        assert _column_expansion(column) == (
                            order, tuple(map(want.get, order)))
    assert columns == 1840


def test_filtration_without_nonempty_rows():
    # every row empty: the one filling is all (), so nu is all ()
    assert _filtration_multiplicities(((1, 0), (1, 1)), ((), ())) == {
        ((), ()): 1}
    assert _filtration_multiplicities(((), ()), ((), ())) == {(): 1}
    assert _filtration_multiplicities((), ()) == {(): 1}
    # a nonempty row with no support has no filling
    assert _filtration_multiplicities(((0, 0), (1, 1)), ((1,), ())) == {}


def test_filtration_identity_matrix():
    eye = ((1, 0), (0, 1))
    for eta in [((2,), (1,)), ((1, 1), ()), ((3, 1), (2, 2))]:
        assert _filtration_multiplicities(eye, eta) == {eta: 1}


def test_branch_first_worked_example():
    mults = branch_first(3, LAM36)
    assert mults[NU36] == 1
    assert branch_first(3, LAM36, method="labellings")[NU36] == 1


def test_branch_first_small_cases():
    assert branch_first(3, ((), (), ())) == {((), ()): 1}
    assert branch_first(2, ((1,), (1,))) == {((2,),): 1, ((1, 1),): 1}
    with pytest.raises(ValueError):
        branch_first(3, ((1,),))
    with pytest.raises(ValueError, match="unknown method 'x'"):
        branch_first(3, LAM36, method="x")


def test_branch_first_over_a_layer_of_a_thousand_nodes():
    # young_layer(23) has p(22) = 1,002 lower nodes; the compositions
    # over them are one loop, so a one-box lambda needs no deep stack
    layer = young_layer(23)
    lam = ((1,),) + ((),) * (len(layer.upper) - 1)
    want = {((1,),) + ((),) * (len(layer.lower) - 1): 1}
    assert branch_first(23, lam) == want
    assert branch_first(23, lam, method="labellings") == want


def test_branch_second_examples():
    assert branch_second(3, ((1,), (1,), ())) == {
        ((), (1,), ()): 1,
        ((1,), (), ()): 2,
    }
    # all of lambda concentrated in one component of size one
    assert branch_second(3, ((), (), (1,))) == {((), (), ()): 1}
    assert branch_second(3, ((), (1,), ())) == {((), (), ()): 2}
    with pytest.raises(ValueError, match="n must be at least 1"):
        branch_second(3, ((), (), ()))
    with pytest.raises(ValueError):
        branch_second(3, ((1,), (1,)))


def test_branch_second_m1_is_box_removal():
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            got = branch_second(1, (lam,))
            want = {(d,): 1 for d in removable_boxes(lam)}
            assert got == want


def test_wreath_specht_dimension():
    assert wreath_specht_dimension(3, LAM36) == 360
    assert wreath_specht_dimension(3, ((), (), ())) == 1
    for lam in enumerate_partitions(4):
        assert wreath_specht_dimension(1, (lam,)) == specht_dimension(lam)


def test_lambda_components_must_be_partitions():
    bad = ((1, 2), (), ())
    with pytest.raises(ValueError, match="not a partition"):
        branch_first(3, bad)
    with pytest.raises(ValueError, match="not a partition"):
        branch_first(3, bad, method="labellings")
    with pytest.raises(ValueError, match="not a partition"):
        branch_second(3, bad)
    with pytest.raises(ValueError, match="not a partition"):
        wreath_specht_dimension(3, bad)
    with pytest.raises(ValueError, match="not a partition"):
        branch_first(2, ((True,), ()))


@pytest.mark.parametrize("m", [0, -1])
def test_m_below_one_is_rejected(m):
    for call in (lambda: branch_first(m, ((1,),)),
                 lambda: branch_second(m, ((1,),)),
                 lambda: wreath_specht_dimension(m, ((2,),))):
        with pytest.raises(ValueError, match="m must be at least 1"):
            call()


@pytest.mark.parametrize("m", [2.0, 1.5, True, "2", None])
def test_m_must_be_an_int(m):
    lam = ((1,), ())
    for call in (lambda: branch_first(m, lam),
                 lambda: branch_first(m, lam, method="labellings"),
                 lambda: branch_second(m, lam),
                 lambda: wreath_specht_dimension(m, lam),
                 lambda: good_labellings(m, lam, ((1,),)),
                 lambda: young_layer(m)):
        with pytest.raises(ValueError, match="m must be an int"):
            call()


def test_young_layer_caches_no_layer_for_a_bad_m():
    # True and 2.0 compare equal to 1 and 2, whose layers are cached
    # first; they must still raise, not return or cache a layer
    assert young_layer(1).m == 1 and young_layer(2).m == 2
    for m in (True, 2.0):
        with pytest.raises(ValueError, match="m must be an int"):
            young_layer(m)


def test_dimension_identities_small():
    assert verify_dimensions("first", 3, 3)["failures"] == []
    assert verify_dimensions("second", 2, 4)["failures"] == []
    assert verify_dimensions("second", 2, 1)["failures"] == []
    with pytest.raises(ValueError):
        verify_dimensions("sideways", 2, 2)


def test_dimension_identity_reports_a_dropped_row_filling(monkeypatch):
    row_fillings = branching._row_fillings

    def dropping_one(support_row, eta_i):
        fillings = row_fillings(support_row, eta_i)
        return fillings[:-1] if len(fillings) > 1 else fillings

    monkeypatch.setattr(branching, "_row_fillings", dropping_one)
    assert verify_dimensions("first", 3, 3)["failures"]
    # both first-rule methods read the same row fillings, so
    # labelling-equivalence no longer sees a row fault
    assert verify_labelling_equivalence(3, 3)["failures"] == []


def test_labelling_equivalence_reports_a_perturbed_labelling_sum(
        monkeypatch):
    # the suite calls the labelling core directly, so the fault is set
    # where the suite looks it up
    labelling_route = verify._labelling_multiplicities

    def perturbed(layer, lam):
        mults = labelling_route(layer, lam)
        mults[next(iter(mults))] += 1
        return mults

    monkeypatch.setattr(verify, "_labelling_multiplicities", perturbed)
    report = verify_labelling_equivalence(2, 2)
    assert report["checked"] == 7
    assert len(report["failures"]) == 7


def test_unknown_rule_raises_before_any_work():
    with pytest.raises(ValueError, match="unknown rule"):
        verify_dimensions("sideways", 1, 1)


def test_branch_first_worked_dimension_total():
    mults = branch_first(3, LAM36)
    total = sum(mult * wreath_specht_dimension(2, nu)
                for nu, mult in mults.items())
    assert total == 360


def test_multiplicity_maps_never_store_zero():
    for m in (2, 3):
        for lam in multipartitions(3, len(enumerate_partitions(m))):
            assert all(v > 0 for v in branch_first(m, lam).values())
            assert all(v > 0 for v in branch_second(m, lam).values())


def test_first_lower_node_with_four_edges():
    # at m = 7 the lower node (3,2,1) is the first with four upper
    # neighbours; a lambda of n = 4 on those nodes can fill all four
    # entries of its column and give a 4-label lower key
    layer = young_layer(7)
    j = layer.lower.index((3, 2, 1))
    above = [i for i, k in layer.edges if k == j]
    assert [layer.upper[i] for i in above] == [
        (4, 2, 1), (3, 3, 1), (3, 2, 2), (3, 2, 1, 1)]
    checked = 0
    for parts in multipartitions(4, len(above)):
        lam = [()] * len(layer.upper)
        for i, part in zip(above, parts):
            lam[i] = part
        lam = tuple(lam)
        mults = branch_first(7, lam)
        assert branch_first(7, lam, method="labellings") == mults
        assert sum(c * wreath_specht_dimension(6, nu)
                   for nu, c in mults.items()) == \
            wreath_specht_dimension(7, lam)
        checked += 1
    assert checked == 105


def _sign_twist(m, lam):
    """Move the component at mu to the index of mu' and conjugate it."""
    shapes = enumerate_partitions(m)
    index = {mu: i for i, mu in enumerate(shapes)}
    out = [()] * len(shapes)
    for mu, part in zip(shapes, lam):
        out[index[conjugate(mu)]] = conjugate(part)
    return tuple(out)


@pytest.mark.parametrize("m, lam", [
    pytest.param(m, lam, id=name)
    for name, m, lam, _ in cheapest_first_rule_requests(
        ("first_rule_deep", "first_rule_wide"))])
def test_branch_first_commutes_with_the_sign_twist(m, lam):
    # tensoring with the sign character maps the Specht module of lam
    # to that of its twist, at both m and m - 1
    twisted = {_sign_twist(m - 1, nu): c
               for nu, c in branch_first(m, lam).items()}
    assert branch_first(m, _sign_twist(m, lam)) == twisted


def _then(first, second, m_second):
    """The summed multiplicities of `second` on each answer of `first`."""
    out = {}
    for nu, c in first.items():
        for kappa, d in second(m_second, nu).items():
            out[kappa] = out.get(kappa, 0) + c * d
    return out


@pytest.mark.parametrize("m, lam", [
    pytest.param(m, lam, id=name)
    for name, m, lam, _ in cheapest_first_rule_requests(
        ("first_rule_deep", "first_rule_wide"))])
def test_both_rules_commute_at_request_sizes(m, lam):
    # both orders restrict to S_{m-1} wr S_{n-1}
    first_then_second = _then(branch_first(m, lam), branch_second, m - 1)
    second_then_first = _then(branch_second(m, lam), branch_first, m)
    assert first_then_second == second_then_first
