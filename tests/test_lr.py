import itertools
import sys
import time
from functools import cache
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from wreathbranch import branching, lr, verify
from wreathbranch.lr import lr_coefficient, lr_multi
from wreathbranch.shapes import (conjugate, enumerate_partitions,
                                 specht_dimension)
from wreathbranch.verify import (SCHUR_ORACLE_BOUND, _kostka,
                                 schur_product_oracle,
                                 verify_labelling_equivalence,
                                 verify_lr_oracle)

from helpers import (_column_map, enumerate_skew_ssyt, fits,
                     full_product_schur_expansion, lattice_tableaux,
                     product_digest, schur_monomials)


def test_lr_coefficient_examples():
    assert lr_coefficient((3,), (2,), (1,)) == 1
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2,), (2,)) == 0  # size mismatch
    assert lr_coefficient((1,), (2,), (1,)) == 0    # alpha does not fit
    assert lr_coefficient((2, 2), (1,), (2, 1)) == 1


def test_lr_coefficient_worked_product_values():
    # the five coefficients multiplied in the 3-wr-6 worked example
    assert lr_multi((2,), ((2,),)) == 1
    assert lr_multi((1, 1), ((1,), (1,))) == 1
    assert lr_multi((1, 1), ((1, 1),)) == 1
    assert lr_multi((3,), ((2,), (1,))) == 1
    assert lr_multi((2, 1), ((1,), (1, 1))) == 1


def test_lr_multi_base_cases():
    assert lr_multi((2,), ((2,),)) == 1
    assert lr_multi((2,), ((1, 1),)) == 0
    assert lr_multi((), ()) == 1
    assert lr_multi((1,), ()) == 0
    assert lr_multi((3, 2, 1), ((1,),) * 6) == 16


def test_lr_entry_points_reject_non_partitions():
    for call in (lambda: lr_coefficient((1, 2), (1,), (2,)),
                 lambda: lr_coefficient((2, 1), (0, 1), (2,)),
                 lambda: lr_multi((1, 2), ((1,), (2,))),
                 lambda: lr_multi((1, 2), ((1, 2),)),
                 lambda: lr_multi((1, 2), ((1,), (1,), (1,))),
                 lambda: lr_multi((3,), ((1,), (2, 0)))):
        with pytest.raises(ValueError, match="not a partition"):
            call()


def test_lr_entry_points_check_before_the_cache():
    # True == 1 and both hash alike, so a cached answer for (1,) must
    # not be returned for (True,)
    assert lr_coefficient((3,), (2,), (1,)) == 1
    assert lr_multi((2, 1), ((1,), (1,), (1,))) == 2
    for call in (lambda: lr_coefficient((3,), (2,), (True,)),
                 lambda: lr_multi((2, 1), ((True,), (1,), (1,)))):
        with pytest.raises(ValueError, match="not a partition"):
            call()


def test_lr_multi_degree_filter():
    assert lr_multi((3,), ((1,), (1,))) == 0
    assert lr_multi((2, 1), ((2,), (2,))) == 0


@pytest.mark.parametrize("m", range(8))
def test_lr_multi_dimension_identity(m):
    for lam in enumerate_partitions(m):
        assert lr_multi(lam, ((1,),) * m) == specht_dimension(lam)


def _mass_check(total, t):
    """Check sum_lam c(lam; parts) f^lam against
    total! / prod |alpha^i|! * prod f^{alpha^i}, for every multiset parts
    of t nonempty partitions alpha^i of sizes summing to total.

    Both sides are the dimension of the module induced from the Young
    subgroup, and every term is positive, so a dropped term lowers the
    left side.  Returns the multisets checked and (parts, left, right)
    for each that fails.
    """
    pool = [p for k in range(1, total - t + 2)
            for p in enumerate_partitions(k)]
    checked, failures = 0, []
    for parts in itertools.combinations_with_replacement(pool, t):
        if sum(map(sum, parts)) != total:
            continue
        checked += 1
        left = sum(lr_multi(lam, parts) * specht_dimension(lam)
                   for lam in enumerate_partitions(total))
        right = (factorial(total) // prod(factorial(sum(p)) for p in parts)
                 * prod(map(specht_dimension, parts)))
        if left != right:
            failures.append((parts, left, right))
    return checked, failures


@pytest.mark.parametrize("total, t, multisets", [(9, 3, 134), (8, 4, 37)])
def test_lr_multi_mass_identity(total, t, multisets):
    assert _mass_check(total, t) == (multisets, [])


def test_mass_identity_catches_a_peel_that_skips_a_partition(monkeypatch):
    # the free-content walk drops the last beta it found; the fixed one,
    # which single coefficients and the last pair take, is left alone
    walk = lr._lr_walk
    monkeypatch.setattr(lr, "_lr_walk", lambda lam, alpha, beta=None: (
        walk(lam, alpha, beta) if beta is not None
        else dict(list(walk(lam, alpha).items())[:-1])))
    lr._lr_multi_sorted.cache_clear()
    try:
        _, failures = _mass_check(7, 3)
    finally:
        lr._lr_multi_sorted.cache_clear()  # no faulty value outlives the test
    assert failures
    assert all(left < right for _, left, right in failures)


def test_many_one_box_parts_in_a_row_are_fast():
    # the peel's walk lists only the nonzero beta: one per part here,
    # where every partition of the rest would be p(59) = 831,820
    start = time.process_time()
    assert lr._lr_multi_sorted.__wrapped__((60,), ((1,),) * 60) == 1
    assert time.process_time() - start < 0.5


def test_the_free_walk_lists_the_nonzero_coefficients():
    # {beta: c^lam_{alpha,beta}} with free content, against the walk with
    # each content fixed, for every alpha inside lam with |lam| <= 9
    pairs = 0
    for n in range(10):
        for lam in enumerate_partitions(n):
            for k in range(n + 1):
                for alpha in enumerate_partitions(k):
                    if not fits(lam, alpha):
                        continue
                    pairs += 1
                    assert lr._lr_walk(lam, alpha) == {
                        beta: c for beta in enumerate_partitions(n - k)
                        if (c := lr._lr_coefficient(lam, alpha, beta))}
    assert pairs == 1592


def test_lr_multi_matches_the_product_route():
    # entry by entry, where the mass identity sees only a sum: a peel
    # that walks a head not inside its shape fails here
    pool = [p for k in range(1, 7) for p in enumerate_partitions(k)]
    multisets = 0
    for t in (3, 4):
        for parts in itertools.combinations_with_replacement(pool, t):
            total = sum(map(sum, parts))
            if total > 9:
                continue
            multisets += 1
            got = {nu: c for nu in enumerate_partitions(total)
                   if (c := lr_multi(nu, parts))}
            assert got == dict(zip(*branching._column_expansion(parts))), parts
    assert multisets == 382


def test_lr_multi_order_invariance():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            pools = []
            for sizes in _compositions_upto(n, 3):
                tup = tuple(itertools.product(
                    *(enumerate_partitions(s) for s in sizes)))
                pools.extend(tup)
            for parts in pools:
                base = lr_multi(lam, parts)
                for perm in itertools.permutations(parts):
                    assert lr_multi(lam, perm) == base


def _compositions_upto(n, max_len):
    for length in range(1, max_len + 1):
        for cuts in itertools.combinations(range(1, n), length - 1):
            bounds = (0,) + cuts + (n,)
            yield tuple(bounds[i + 1] - bounds[i] for i in range(length))


def test_schur_monomials_basics():
    assert schur_monomials((1,), 2) == {(1, 0): 1, (0, 1): 1}
    assert schur_monomials((1, 1), 1) == {}
    assert schur_monomials((), 3) == {(0, 0, 0): 1}
    # s_(2,1) in 3 vars has 8 monomials (x1^2 x2 type: 6, x1x2x3: 2)
    poly = schur_monomials((2, 1), 3)
    assert sum(poly.values()) == 8
    assert poly[(1, 1, 1)] == 2


def test_schur_product_oracle_pieri():
    assert schur_product_oracle((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert schur_product_oracle((2,), (1,)) == {(3,): 1, (2, 1): 1}
    assert schur_product_oracle((), ()) == {(): 1}


def test_schur_product_oracle_two_one_squared():
    expansion = schur_product_oracle((2, 1), (2, 1))
    assert len(expansion) == 7
    assert sum(expansion.values()) == 8
    assert expansion[(3, 2, 1)] == 2
    assert all(sum(p) == 6 for p in expansion)


def test_schur_product_oracle_matches_the_full_product():
    for total in range(0, 7):
        for a in range(total + 1):
            for alpha in enumerate_partitions(a):
                for beta in enumerate_partitions(total - a):
                    assert schur_product_oracle(alpha, beta) == \
                        full_product_schur_expansion(alpha, beta)


@pytest.mark.parametrize("size", range(9))
def test_pieri_kostka_matches_the_tableau_counter(size):
    # the counter's polynomial in |lam| variables must be symmetric, and
    # its coefficients at partitions are the Kostka numbers.  Symmetry is
    # checked on the generators (1 2) and (1 2 ... n) of S_n: each maps
    # the finite support into itself, so onto it.
    for lam in enumerate_partitions(size):
        poly = schur_monomials(lam, size)
        for exp, c in poly.items():
            assert poly.get(exp[1:2] + exp[:1] + exp[2:]) == c, (lam, exp)
            assert poly.get(exp[1:] + exp[:1]) == c, (lam, exp)
        at_partitions = {tuple(e for e in exp if e): c
                         for exp, c in poly.items()
                         if list(exp) == sorted(exp, reverse=True)}
        assert _kostka(lam) == at_partitions


def test_schur_product_oracle_bound():
    assert schur_product_oracle((SCHUR_ORACLE_BOUND,), ()) == \
        {(SCHUR_ORACLE_BOUND,): 1}
    first_rejected = SCHUR_ORACLE_BOUND + 1
    with pytest.raises(ValueError, match=f"oracle bound exceeded: "
                       f"{first_rejected} > {SCHUR_ORACLE_BOUND}"):
        schur_product_oracle((first_rejected // 2,),
                             (first_rejected - first_rejected // 2,))


def test_schur_oracle_rejects_a_negative_coefficient(monkeypatch):
    # s_(1) read as -s_(1), so s_(1) * s_() is -s_(1)
    monkeypatch.setattr(verify, "_kostka", lambda shape: {
        mu: -k if shape == (1,) else k for mu, k in _kostka(shape).items()})
    with pytest.raises(RuntimeError,
                       match=r"negative coefficient -1 at \(1,\)"):
        schur_product_oracle((1,), ())


def test_schur_oracle_rejects_a_remainder(monkeypatch):
    # without its leading monomial, s_(2) never clears [x^(2)]
    monkeypatch.setattr(verify, "_kostka", lambda shape: {
        mu: k for mu, k in _kostka(shape).items()
        if shape != (2,) or mu != shape})
    with pytest.raises(RuntimeError, match="not a sum of Schur polynomials"):
        schur_product_oracle((1,), (1,))


def test_lr_symmetry_small():
    for total in range(0, 7):
        for a in range(total + 1):
            for alpha in enumerate_partitions(a):
                for beta in enumerate_partitions(total - a):
                    for lam in enumerate_partitions(total):
                        assert (lr_coefficient(lam, alpha, beta)
                                == lr_coefficient(lam, beta, alpha))


@pytest.mark.parametrize("lam, alpha, beta", [
    ((3, 1, 1), (2, 2), (1,)),  # alpha does not fit in lam
    ((3, 1, 1), (1,), (2, 2)),  # nor beta here
    ((3, 1), (1, 1), (1, 1)),   # alpha + beta does not dominate lam
    ((3, 2, 2), (3, 1), (3,)),  # lam does not dominate (3, 3, 1), though
                                # it dominates the unsorted (3, 1, 3)
])
def test_each_window_condition_rejects_on_its_own(lam, alpha, beta):
    assert not lr._in_window(lam, alpha, beta)
    assert lr_coefficient(lam, alpha, beta) == 0


def _skew_triple(data, max_size):
    """lam of size at most max_size, alpha inside it, and any beta with
    |beta| = |lam/alpha|."""
    n = data.draw(st.integers(0, max_size), label="|lam|")
    lam = data.draw(st.sampled_from(enumerate_partitions(n)), label="lam")
    b = data.draw(st.integers(0, n), label="|beta|")
    alpha = data.draw(st.sampled_from(
        [a for a in enumerate_partitions(n - b) if fits(lam, a)]),
        label="alpha")
    beta = data.draw(st.sampled_from(enumerate_partitions(b)), label="beta")
    return lam, alpha, beta


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triples_outside_the_window_have_no_lattice_tableau(data):
    lam, alpha, beta = _skew_triple(data, 12)
    assume(not lr._in_window(lam, alpha, beta))
    assert lattice_tableaux(lam, alpha, beta) == 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_walk_counts_the_lattice_tableaux(data):
    # the walk runs here on triples inside and outside the window alike
    lam, alpha, beta = _skew_triple(data, 12)
    assert lr._lr_walk(lam, alpha, beta) == lattice_tableaux(lam, alpha, beta)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lr_symmetries_past_the_oracles(data):
    # c^lam_{alpha,beta} = c^lam_{beta,alpha} = c^lam'_{alpha',beta'},
    # at sizes above those the tier-1 oracle run checks (|lam| <= 11);
    # lam is drawn from the window, where the coefficients that are not
    # 0 lie
    n = data.draw(st.integers(13, 18), label="|lam|")
    a = data.draw(st.integers(0, n), label="|alpha|")
    alpha = data.draw(st.sampled_from(enumerate_partitions(a)), label="alpha")
    beta = data.draw(st.sampled_from(enumerate_partitions(n - a)),
                     label="beta")
    lam = data.draw(st.sampled_from(
        [p for p in enumerate_partitions(n) if lr._in_window(p, alpha, beta)]),
        label="lam")
    c = lr_coefficient(lam, alpha, beta)
    assert lr_coefficient(lam, beta, alpha) == c
    assert lr_coefficient(*map(conjugate, (lam, alpha, beta))) == c


def test_lr_oracle_reports_a_window_that_drops_a_coefficient(monkeypatch):
    window = lr._in_window
    dropped = ((2, 1), (1,), (1, 1))
    monkeypatch.setattr(lr, "_in_window", lambda *triple: (
        triple != dropped and window(*triple)))
    report = verify_lr_oracle(3)
    assert report["failures"] == ["c^(2, 1)_((1,),(1, 1)) = 0, oracle says 1"]


def _semistandard_walk(lam, alpha, beta=None):
    """The walk without its lattice prune: the semistandard tableaux of
    shape lam/alpha and type beta, or with beta None {type: count} over
    the partition types."""
    if beta is not None:
        return len(enumerate_skew_ssyt(lam, alpha, beta))
    return {b: c for b in enumerate_partitions(sum(lam) - sum(alpha))
            if (c := len(enumerate_skew_ssyt(lam, alpha, b)))}


def test_lr_oracle_reports_a_walk_without_the_lattice_prune(monkeypatch):
    # without the lattice condition the walk counts every semistandard
    # tableau; the product kernel walks a disjoint skew shape in free
    # mode, so the products of two nonempty factors fail as well
    monkeypatch.setattr(lr, "_lr_walk", _semistandard_walk)
    report = verify_lr_oracle(3)
    assert report["checked"] == 43
    assert report["failures"] == [
        "s_(1,) * s_(1,) = {(2,): 1, (1, 1): 2}, "
        "oracle says {(2,): 1, (1, 1): 1}",
        "s_(1,) * s_(2,) = {(3,): 1, (2, 1): 2, (1, 1, 1): 3}, "
        "oracle says {(3,): 1, (2, 1): 1}",
        "s_(1,) * s_(1, 1) = {(2, 1): 1, (1, 1, 1): 3}, "
        "oracle says {(2, 1): 1, (1, 1, 1): 1}",
        "c^(2, 1)_((1,),(1, 1)) = 2, oracle says 1",
        "s_(2,) * s_(1,) = {(3,): 1, (2, 1): 2, (1, 1, 1): 3}, "
        "oracle says {(3,): 1, (2, 1): 1}",
        "s_(1, 1) * s_(1,) = {(2, 1): 1, (1, 1, 1): 3}, "
        "oracle says {(2, 1): 1, (1, 1, 1): 1}",
    ]


def _product_mismatches(max_total):
    """(pairs, [(kappa, alpha), ...]): the pairs with |kappa| + |alpha| <=
    max_total where the product kernel and the Schur oracle differ."""
    pairs, mismatches = 0, []
    for total in range(max_total + 1):
        for k in range(total + 1):
            for kappa in enumerate_partitions(k):
                for alpha in enumerate_partitions(total - k):
                    pairs += 1
                    if lr._lr_product(kappa, alpha) != schur_product_oracle(
                            kappa, alpha):
                        mismatches.append((kappa, alpha))
    return pairs, mismatches


def test_the_product_kernel_matches_the_schur_oracle():
    assert _product_mismatches(10) == (1215, [])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_product_kernel_past_the_oracle_run(data):
    # the kernel walks a disjoint skew shape in free mode; the scan asks
    # lr_multi, which walks each nu with one factor's content fixed
    n = data.draw(st.integers(9, 14), label="|kappa| + |alpha|")
    k = data.draw(st.integers(0, n), label="|kappa|")
    kappa = data.draw(st.sampled_from(enumerate_partitions(k)), label="kappa")
    alpha = data.draw(st.sampled_from(enumerate_partitions(n - k)),
                      label="alpha")
    assert lr._lr_product(kappa, alpha) == _column_map((kappa, alpha))


def test_the_products_past_the_oracle_keep_their_digest():
    # recorded from the strip-by-strip kernel that the disjoint-skew walk
    # replaced; 5,822 products, beyond SCHUR_ORACLE_BOUND
    assert 16 > SCHUR_ORACLE_BOUND
    assert product_digest(16) == (
        "c801ab61a8003679a92251d7e5b501df6687918e52daec500c85d8562170b029")


def _semistandard_product(kappa, alpha):
    """The kernel without its lattice prune: every semistandard tableau of
    shape nu/kappa and type alpha, for each nu that holds kappa."""
    return {nu: c for nu in enumerate_partitions(sum(kappa) + sum(alpha))
            if fits(nu, kappa)
            and (c := len(enumerate_skew_ssyt(nu, kappa, alpha)))}


def test_checks_report_a_kernel_without_the_lattice_prune(monkeypatch):
    # cached like the kernel, as the oracle suite calls it through
    # __wrapped__
    for module in (lr, branching, verify):
        monkeypatch.setattr(module, "_lr_product",
                            cache(_semistandard_product))
    branching._column_expansion.cache_clear()
    try:
        pairs, mismatches = _product_mismatches(3)
        report = verify_labelling_equivalence(4, 4)
        oracle = verify_lr_oracle(3)
    finally:
        branching._column_expansion.cache_clear()
    # counting every semistandard tableau, the kernel sends s_() * s_(1,1)
    # to s_(2) + s_(1,1)
    assert (pairs, mismatches) == (18, [((), (1, 1)), ((), (2, 1)),
                                        ((), (1, 1, 1)), ((1,), (1, 1))])
    # the labelling sum reads its coefficients from the LR walk, so the
    # two first-rule methods now disagree
    assert report["failures"]
    # the oracle suite reports each of those pairs and still counts the
    # coefficients of the walk, which all pass
    assert oracle["checked"] == 43
    assert oracle["failures"] == [
        f"s_{kappa} * s_{alpha} = {_semistandard_product(kappa, alpha)}, "
        f"oracle says {schur_product_oracle(kappa, alpha)}"
        for kappa, alpha in mismatches]
    assert oracle["failures"][0] == (
        "s_() * s_(1, 1) = {(2,): 1, (1, 1): 1}, oracle says {(1, 1): 1}")


def test_the_product_kernel_past_the_recursion_limit():
    # one loop over labels and rows: no stack grows with the shape
    n = sys.getrecursionlimit() + 100
    assert lr._lr_product((), (1,) * n) == {(1,) * n: 1}
    assert lr._lr_product((1,) * n, (1,)) == {(2,) + (1,) * (n - 1): 1,
                                              (1,) * (n + 1): 1}
