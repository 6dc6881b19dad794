import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wreathbranch
from helpers import (_column_map, _row_fillings_by_filter, adjacency_of,
                     cheapest_first_rule_requests, fits,
                     filtration_multiplicities_by_loop,
                     good_labellings_by_fillings)
from wreathbranch import branching, shapes, verify
from wreathbranch.branching import (YoungLayer, _column_by_walk,
                                    _column_expansion,
                                    _filtration_multiplicities, branch_first,
                                    branch_second, good_labellings,
                                    wreath_specht_dimension, young_layer)
from wreathbranch.shapes import (check_partition, compositions, conjugate,
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
    assert adjacency_of(layer) == ((1, 0), (1, 1), (0, 1))
    assert layer.below == ((0,), (0, 1), (1,))


def test_young_layer_edges_fall_and_below_rises():
    # good_labellings reverses each below[i] to get node i's edge sizes
    for m in range(1, 9):
        layer = young_layer(m)
        for i, js in enumerate(layer.below):
            falling = [j for a, j in layer.edges if a == i]
            assert falling == sorted(falling, reverse=True), (m, i)
            assert js == tuple(reversed(falling)), (m, i)
        assert [i for i, _ in layer.edges] == sorted(i for i, _ in layer.edges)


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
    # branch_first sums over the fillings, with the column coefficients
    # from the LR walk; here it is summed per nu through the exported,
    # checked function.  The map comes in the matrix method's order.
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
    # a shuffled order mixes the size compositions, so the memoised row
    # fillings and column tables are met in another order
    shuffled = cases[:]
    random.Random(11).shuffle(shuffled)
    for m, lam, expected in cases + shuffled:
        got = branch_first(m, lam, method="labellings")
        assert got == expected, (m, lam)
        assert list(got.items()) == list(branch_first(m, lam).items()), (
            m, lam)


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
    # n = 0 is answered by branch_first before the core, so it is the
    # entry point that is checked
    def check(m, lam):
        got = branch_first(m, lam)
        want = filtration_multiplicities_by_loop(adjacency_of(young_layer(m)),
                                                 lam)
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


def _layer_of(A):
    """A layer whose dense 0/1 matrix is A, with placeholder nodes."""
    edges = tuple((i, j) for i, row in enumerate(A)
                  for j in reversed(range(len(row))) if row[j])
    below = tuple(tuple(j for j, a in enumerate(row) if a) for row in A)
    layer = YoungLayer(0, (None,) * len(A), (None,) * (len(A[0]) if A else 0),
                       edges, below)
    assert adjacency_of(layer) == A
    return layer


def test_filtration_without_nonempty_rows(monkeypatch):
    # every row empty: the one filling is all (), so nu is all ();
    # branch_first answers this n = 0 case for both methods, before the
    # cores, so it is asked here of the layer given by each matrix
    for A, want in ((((1, 0), (1, 1)), {((), ()): 1}),
                    (((), ()), {(): 1})):
        layer = _layer_of(A)
        monkeypatch.setattr(branching, "young_layer", lambda m: layer)
        for method in ("matrices", "labellings"):
            assert branch_first(2, ((), ()), method=method) == want
    monkeypatch.undo()
    # no lambda has zero components, so the smallest layer stands in for
    # the empty matrix
    assert adjacency_of(young_layer(1)) == ((1,),)
    for method in ("matrices", "labellings"):
        assert branch_first(1, ((),), method=method) == {((),): 1}
    # a nonempty row with no support has no filling, by either table
    for columns in (_column_expansion, _column_by_walk):
        assert _filtration_multiplicities(_layer_of(((0, 0), (1, 1))),
                                          ((1,), ()), columns) == {}


def test_filtration_identity_matrix():
    eye = _layer_of(((1, 0), (0, 1)))
    for eta in [((2,), (1,)), ((1, 1), ()), ((3, 1), (2, 2))]:
        for columns in (_column_expansion, _column_by_walk):
            assert _filtration_multiplicities(eye, eta, columns) == {eta: 1}


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


def test_unknown_method_raises_before_any_work(monkeypatch):
    def unreachable(m):
        raise AssertionError("young_layer reached")

    monkeypatch.setattr(branching, "young_layer", unreachable)
    lam = ((1,),) + ((),) * (len(enumerate_partitions(30)) - 1)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        branch_first(30, lam, method="bogus")


@pytest.mark.parametrize("method", ["matrices", "labellings"])
def test_empty_components_build_no_row_fillings(method):
    # only the one nonempty component of lambda has row fillings to
    # combine; an empty one would cost one memo entry per upper node
    lam = ((1,),) + ((),) * (len(enumerate_partitions(23)) - 1)
    branching._row_fillings.cache_clear()
    branch_first(23, lam, method=method)
    assert branching._row_fillings.cache_info().misses == 1


_LARGE_M = """import json, resource, time
from wreathbranch import branching
from wreathbranch.shapes import enumerate_partitions
m, mu = 30, (8, 6, 5, 4, 3, 2, 1, 1)  # mu has 7 removable boxes
lam = [()] * len(enumerate_partitions(m))
lam[enumerate_partitions(m).index(mu)] = (1,)
lam = tuple(lam)
seconds = []
def timed(call, *args, **kwargs):
    start = time.process_time()
    out = call(*args, **kwargs)
    seconds.append(time.process_time() - start)
    return out
mats = timed(branching.branch_first, m, lam)
labs = timed(branching.branch_first, m, lam, method="labellings")
totals = [sum(c for _, c in timed(branching.good_labellings, m, lam, nu))
          for nu in mats]
print(json.dumps({
    "seconds": seconds,
    "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "nus": len(mats), "same": labs == mats,
    "totals": totals == list(mats.values()),
    "dims": sum(c * branching.wreath_specht_dimension(m - 1, nu)
                for nu, c in mats.items())
            == branching.wreath_specht_dimension(m, lam)}))
"""


def test_one_box_lambda_at_m30_is_fast_and_small_in_a_fresh_process():
    # the layer has p(30) = 5,604 upper and p(29) = 4,565 lower nodes but
    # only 23,025 edges; work and memory follow the edges
    src = str(Path(wreathbranch.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", _LARGE_M], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert (report["nus"], report["same"], report["totals"],
            report["dims"]) == (7, True, True, True)
    assert len(report["seconds"]) == 9
    assert max(report["seconds"]) < 1.0, report["seconds"]
    assert report["rss_kib"] < 64 * 1024, report["rss_kib"]


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


def test_young_layer_checks_no_partition_it_enumerated(monkeypatch):
    # the layer's partitions come from enumerate_partitions, so removing
    # their boxes needs no check; the uncached body is called, which
    # leaves the layer cache as it was
    calls = []

    def counted(parts):
        calls.append(parts)
        return check_partition(parts)

    for module in (shapes, branching):
        monkeypatch.setattr(module, "check_partition", counted)
    layer = young_layer.__wrapped__(8)
    assert calls == []
    assert layer == young_layer(8) and len(layer.edges) == 45


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


@pytest.mark.parametrize("m", [3, 4, 5])
def test_row_fillings_ask_only_rows_inside_eta(monkeypatch, m):
    # lr_multi(eta_i, row) is 0 when a part of the row does not fit in
    # eta_i, so the scan asks each row of fitting parts once and no other
    asked, lr_multi = [], branching._lr_multi

    def counted(eta_i, row):
        asked.append(row)
        return lr_multi(eta_i, row)

    monkeypatch.setattr(branching, "_lr_multi", counted)
    layer = young_layer(m)
    for js, support_row in zip(layer.below, adjacency_of(layer)):
        for eta_i in (p for k in range(1, 5) for p in enumerate_partitions(k)):
            asked.clear()
            fillings = branching._row_fillings.__wrapped__(
                js, len(layer.lower), eta_i)
            assert fillings == _row_fillings_by_filter(support_row, eta_i)
            pools = [[p for k in range(sum(eta_i) + 1)
                      for p in enumerate_partitions(k) if fits(eta_i, p)]
                     if a else [()] for a in support_row]
            assert sorted(asked) == sorted(
                row for row in itertools.product(*pools)
                if sum(map(sum, row)) == sum(eta_i))


def test_dimension_identity_reports_a_dropped_row_filling(monkeypatch):
    row_fillings = branching._row_fillings

    def dropping_one(support, width, eta_i):
        fillings = row_fillings(support, width, eta_i)
        return fillings[:-1] if len(fillings) > 1 else fillings

    monkeypatch.setattr(branching, "_row_fillings", dropping_one)
    assert verify_dimensions("first", 3, 3)["failures"]
    # both first-rule methods read the same row fillings, so
    # labelling-equivalence no longer sees a row fault
    assert verify_labelling_equivalence(3, 3)["failures"] == []


def test_labelling_equivalence_reports_a_perturbed_labelling_sum(
        monkeypatch):
    # the suite passes the walk's column table to the core itself, so the
    # fault is set where the suite looks it up
    walk_route = verify._column_by_walk

    def perturbed(column):
        nus, coeffs = walk_route(column)
        return nus, (coeffs[0] + 1,) + coeffs[1:]

    monkeypatch.setattr(verify, "_column_by_walk", perturbed)
    report = verify_labelling_equivalence(2, 2)
    assert report["checked"] == 7
    assert len(report["failures"]) == 7


@pytest.mark.parametrize("fault", ["drop the last nu", "add 1"])
def test_labelling_equivalence_reports_a_faulty_walk_table(monkeypatch,
                                                           fault):
    walk_route = branching._column_by_walk

    def faulty(column):
        nus, coeffs = walk_route(column)
        if fault == "add 1":
            return nus, coeffs[:-1] + (coeffs[-1] + 1,)
        return nus[:-1], coeffs[:-1]

    monkeypatch.setattr(verify, "_column_by_walk", faulty)
    branching._column_by_walk.cache_clear()
    try:
        report = verify_labelling_equivalence(3, 3)
    finally:
        branching._column_by_walk.cache_clear()
    assert report["checked"] == 51
    assert report["failures"]


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


def test_second_rule_dimension_identity_reports_a_raised_entry(monkeypatch):
    # the suite looks branch_second up in verify, so the fault goes there
    def raised(m, lam):
        mults = dict(branch_second(m, lam))
        mults[next(iter(mults))] += 1
        return mults

    monkeypatch.setattr(verify, "branch_second", raised)
    report = verify_dimensions("second", 3, 3)
    # every lower node has a positive dimension, so every instance fails
    assert report["checked"] == 51
    assert len(report["failures"]) == 51
