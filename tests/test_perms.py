import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from wreathbranch.perms import double_coset_reps, rho_cosets, to_cycles
from wreathbranch import verify
from wreathbranch.verify import (_block_transpositions,
                                 _indexed_symmetric_group, _right_cosets,
                                 _transposition, all_perms,
                                 brute_force_double_cosets, compose, descents,
                                 inverse, length, positive_compositions,
                                 standard_filling, young_subgroup)

from helpers import (act_on_tableau, count_integer_matrices, parse_cycles,
                     reshape, set_orbit_double_cosets,
                     stabilizer_report_by_conjugates, standard_tableau)


def test_length_and_descents():
    assert length(parse_cycles("e", 5)) == 0
    assert descents(parse_cycles("e", 5)) == []
    assert length(parse_cycles("(3,4)", 6)) == 1
    assert length((4, 3, 2, 1)) == 6
    assert descents((1, 2)) == []
    assert descents((2, 1)) == [1]
    assert descents((2, 3, 1)) == [2]


def test_cycle_roundtrip():
    for n in range(1, 6):
        for p in all_perms(n):
            assert parse_cycles(to_cycles(p), n) == p
    assert to_cycles((1, 2, 3, 4)) == "e"
    assert parse_cycles("e", 3) == (1, 2, 3)


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1,2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1,5)", 3)


def test_act_on_tableau_worked_example():
    tau = ((1, 2, 1, 3, 2), (2, 3, 2), (2, 3, 1, 3), (1,))
    sigma = parse_cycles("(1,12,3,6)(5,7,13)(8,10)", 13)
    assert act_on_tableau(tau, sigma) == (
        (2, 2, 3, 3, 1), (1, 2, 3), (2, 2, 1, 1), (3,))


def test_act_identity_and_degree_mismatch():
    tau = ((1, 2), (1,))
    assert act_on_tableau(tau, (1, 2, 3)) == tau
    with pytest.raises(ValueError):
        act_on_tableau(tau, (1, 2, 3, 4))


@given(st.permutations(list(range(1, 8))), st.permutations(list(range(1, 8))))
def test_act_is_a_right_action(sig, pi):
    sig, pi = tuple(sig), tuple(pi)
    tau = ((1, 1, 2, 3), (2, 2), (3,))
    one = act_on_tableau(act_on_tableau(tau, sig), pi)
    two = act_on_tableau(tau, compose(sig, pi))
    assert one == two
    assert act_on_tableau(act_on_tableau(tau, sig), inverse(sig)) == tau


def test_standard_tableau_examples():
    assert standard_filling((3, 5, 0, 4, 1)) == (
        1, 1, 1, 2, 2, 2, 2, 2, 4, 4, 4, 4, 5)
    assert standard_filling((3, 1, 0, 2, 3)) == (1, 1, 1, 2, 4, 4, 5, 5, 5)
    assert standard_filling(()) == ()
    assert standard_tableau((2, 0, 3, 1, 3, 4), (3, 5, 0, 4, 1)) == (
        (1, 1), (), (1, 2, 2), (2,), (2, 2, 4), (4, 4, 4, 5))
    assert standard_tableau((8, 1), (3, 1, 0, 2, 3)) == (
        (1, 1, 1, 2, 4, 4, 5, 5), (5,))
    assert standard_tableau((4,), (4,)) == ((1, 1, 1, 1),)


def test_standard_tableau_size_mismatch():
    with pytest.raises(ValueError):
        standard_tableau((2,), (3,))


def test_double_coset_reps_act_to_distinct_weakly_increasing():
    for gamma, alpha in [((3, 1, 0, 2, 3), (8, 1)), ((2, 1), (2, 1)),
                        ((1, 1, 1), (2, 1)), ((4,), (4,)), ((0, 2), (1, 0, 1)),
                        ((), ())]:
        std = standard_tableau(alpha, gamma)
        acted = [tuple(e for row in act_on_tableau(std, rep) for e in row)
                 for rep in double_coset_reps(gamma, alpha)]
        # the distinct rearrangements of the standard filling whose rows
        # weakly increase
        flat = [e for row in std for e in row]
        arranged = set(itertools.permutations(flat))
        want = [f for f in arranged
                if all(list(row) == sorted(row) for row in reshape(f, alpha))]
        assert sorted(acted) == sorted(want)


def _double_coset_invariant(gamma, alpha, sigma):
    # sorting the rows of the acted standard tableau is a complete
    # invariant of the (S_gamma, S_alpha)-double coset of sigma
    std = standard_tableau(alpha, gamma)
    return tuple(tuple(sorted(row)) for row in act_on_tableau(std, sigma))


def test_reps_match_worked_cycle_list_as_double_cosets():
    gamma, alpha = (3, 1, 0, 2, 3), (8, 1)
    known = [parse_cycles(c, 9) for c in
             ("e", "(6,9,8,7)", "(4,9,8,7,6,5)", "(3,9,8,7,6,5,4)")]
    ours = double_coset_reps(gamma, alpha)
    known_inv = {_double_coset_invariant(gamma, alpha, p) for p in known}
    ours_inv = {_double_coset_invariant(gamma, alpha, p) for p in ours}
    assert known_inv == ours_inv
    assert len(ours_inv) == 4


def test_rho_cosets_worked_example():
    reps = rho_cosets((3, 1, 0, 2, 3))
    assert [i for i, _ in reps] == [1, 2, 4, 5]
    assert [to_cycles(p) for _, p in reps] == [
        "(3,9,8,7,6,5,4)", "(4,9,8,7,6,5)", "(6,9,8,7)", "e"]


def test_rho_cosets_single_component():
    assert rho_cosets((4,)) == [(1, (1, 2, 3, 4))]
    assert rho_cosets((0, 3, 0)) == [(2, (1, 2, 3))]
    with pytest.raises(ValueError):
        rho_cosets((0, 0))


def test_rho_cosets_are_the_cycles_they_name():
    # rep i is the cycle (b, n, n-1, ..., b+1), b the partial sum to i;
    # at b = n that is the 1-cycle (n), the identity
    for n in range(1, 8):
        for sizes in positive_compositions(n):
            cycles = ["(" + ",".join(map(str, (b, *range(n, b, -1)))) + ")"
                      for b in itertools.accumulate(sizes)]
            assert [p for _, p in rho_cosets(sizes)] == \
                [parse_cycles(c, n) for c in cycles]


def test_transpositions_match_the_cycle_parser():
    for n in range(2, 8):
        for j in range(1, n):
            assert _transposition(j, n) == parse_cycles(f"({j},{j + 1})", n)


def test_compositions_are_validated():
    for bad in ((2, -1, 1), (True, 1), (1.5,)):
        with pytest.raises(ValueError, match="not a composition"):
            rho_cosets(bad)
    with pytest.raises(ValueError, match="not a composition"):
        double_coset_reps((2, -1), (1,))
    with pytest.raises(ValueError, match="not a composition"):
        double_coset_reps((1,), (2, -1))
    with pytest.raises(ValueError, match="different sizes"):
        double_coset_reps((2,), (3,))


def test_brute_force_double_cosets_basics():
    for n in range(1, 6):
        # S_(n) is all of S_n: one right coset, one double coset
        owner, least = brute_force_double_cosets((n,), (n,))
        assert len(least) == 1 and owner == [0]
    owner, least = brute_force_double_cosets((1, 1, 1), (2, 1))
    assert len(owner) == 6 and len(least) == 3
    assert len(brute_force_double_cosets((1, 1, 1), (3,))[1]) == 1
    with pytest.raises(ValueError, match="oracle bound exceeded"):
        brute_force_double_cosets((8,), (8,))
    with pytest.raises(ValueError, match="equal size"):
        brute_force_double_cosets((2,), (1,))


def _labels_as_sets(gamma, alpha):
    """The double cosets of the label form as sets, in label order."""
    owner, least = brute_force_double_cosets(gamma, alpha)
    perms = _indexed_symmetric_group(sum(gamma))[0]
    labels = [owner[c] for c in _right_cosets(gamma)[0]]
    assert len(labels) == len(perms)
    assert least == [labels.index(k) for k in range(len(least))]
    cosets = [set() for _ in range(len(least))]
    for p, k in zip(perms, labels):
        cosets[k].add(p)
    return [frozenset(c) for c in cosets]


def test_brute_force_double_cosets_match_set_orbits():
    for n in range(1, 6):
        for gamma in positive_compositions(n):
            for alpha in positive_compositions(n):
                # the reference is sorted by minimal element, so this
                # also checks that the labels follow the minimal elements
                assert _labels_as_sets(gamma, alpha) == \
                    set_orbit_double_cosets(gamma, alpha)


def test_right_cosets_are_the_cosets_of_the_young_subgroup():
    for n in range(1, 6):
        perms, index, _, _ = _indexed_symmetric_group(n)
        for gamma in positive_compositions(n):
            owner, seeds, moves = _right_cosets(gamma)
            group = young_subgroup(gamma)
            assert len(owner) == math.factorial(n)
            assert Counter(owner) == {k: len(group)
                                      for k in range(len(seeds))}
            # numbered by least element, each seed the least of its class
            assert list(seeds) == sorted(seeds)
            assert [owner.index(k) for k in range(len(seeds))] == list(seeds)
            for k, seed in enumerate(seeds):
                coset = {index[compose(g, perms[seed])] for g in group}
                assert {i for i, c in enumerate(owner) if c == k} == coset
            # moves[j][k]: the coset of p * (j+1, j+2), for every p in
            # coset k
            assert len(moves) == n - 1
            for j, move in enumerate(moves):
                t = _transposition(j + 1, n)
                assert [move[c] for c in owner] == \
                    [owner[index[compose(p, t)]] for p in perms]


def test_positive_compositions():
    assert list(positive_compositions(0)) == [()]
    comps = list(positive_compositions(4))
    assert len(set(comps)) == len(comps) == 8
    assert all(sum(c) == 4 and min(c) >= 1 for c in comps)


def test_brute_force_is_deterministic():
    one = brute_force_double_cosets((2, 1), (1, 2))
    two = brute_force_double_cosets((2, 1), (1, 2))
    assert one == two


def test_minimal_length_coset_elements_give_weakly_increasing_rows():
    for n in range(1, 5):
        comps = list(positive_compositions(n))
        for alpha in comps:
            sa = young_subgroup(alpha)
            for sigma in all_perms(n):
                coset = [compose(sigma, v) for v in sa]
                if length(sigma) != min(length(p) for p in coset):
                    continue
                for gamma in comps:
                    tab = act_on_tableau(standard_tableau(alpha, gamma), sigma)
                    assert all(list(row) == sorted(row) for row in tab)


def test_minimal_length_property_distinct_entries_n5():
    n = 5
    gamma = (1,) * n
    for alpha in positive_compositions(n):
        sa = young_subgroup(alpha)
        std = standard_tableau(alpha, gamma)
        for sigma in all_perms(n):
            coset = [compose(sigma, v) for v in sa]
            if length(sigma) == min(length(p) for p in coset):
                tab = act_on_tableau(std, sigma)
                assert all(list(row) == sorted(row) for row in tab)


@pytest.mark.parametrize("fault", [
    lambda reps: reps[:-1],  # one representative dropped
    lambda reps: reps + reps[:1],  # one representative repeated
], ids=["dropped", "repeated"])
def test_coset_suite_catches_wrong_representatives(monkeypatch, fault):
    reps = verify.double_coset_reps
    monkeypatch.setattr(verify, "double_coset_reps",
                        lambda gamma, alpha: fault(reps(gamma, alpha)))
    report = verify.verify_cosets(4)
    assert report["checked"] == 101
    assert any(" reps are not the least elements " in f
               for f in report["failures"])


def test_coset_suite_counts_the_right_cosets(monkeypatch):
    # an oracle that loses the last right coset of every gamma
    oracle = verify.brute_force_double_cosets

    def lossy(gamma, alpha):
        owner, least = oracle(gamma, alpha)
        return owner[:-1], least

    monkeypatch.setattr(verify, "brute_force_double_cosets", lossy)
    failures = verify.verify_cosets(3)["failures"]
    # n!/|S_gamma| = 3 for gamma = (1, 2)
    assert "((1, 2),(2, 1)): 2 right cosets, not 3" in failures
    # every system reports it: 1 + 4 + 16 pairs, 1 + 2 + 4 rho systems
    assert sum(" right cosets, not " in f for f in failures) == 28


def test_coset_suite_catches_a_repeated_rho_rep(monkeypatch):
    rho = verify.rho_cosets

    def identity_twice(sizes):
        # the last rep of a positive composition is the identity
        out = rho(sizes)
        return [(out[0][0], out[-1][1])] + out[1:]

    monkeypatch.setattr(verify, "rho_cosets", identity_twice)
    failures = verify.verify_cosets(4)["failures"]
    assert any(f.startswith("rho reps for sizes") and
               " reps are not the least elements " in f for f in failures)


def test_coset_suite_catches_a_representative_that_is_not_least(monkeypatch):
    # s * d with s = (1, 2) in S_gamma lies in the double coset of d but
    # is one inversion longer, so it still hits a double coset of its own
    reps = verify.double_coset_reps

    def lengthened(gamma, alpha):
        out = reps(gamma, alpha)
        if gamma[0] < 2:
            return out
        return out[:-1] + (compose(_transposition(1, sum(gamma)), out[-1]),)

    monkeypatch.setattr(verify, "double_coset_reps", lengthened)
    report = verify.verify_cosets(4)
    assert report["checked"] == 101
    # one failure per pair with gamma_1 >= 2: 2 + 8 + 32 for n = 2, 3, 4
    assert len(report["failures"]) == 42
    assert all(" reps are not the least elements " in f
               for f in report["failures"])


def test_least_elements_are_the_unique_shortest():
    # the suite's least element of a double coset is the paper's
    # distinguished representative: no other element is as short
    total = 0
    for n in range(1, 7):
        lengths = list(map(length, _indexed_symmetric_group(n)[0]))
        comps = list(positive_compositions(n))
        for gamma in comps:
            for alpha in comps:
                owner, least = brute_force_double_cosets(gamma, alpha)
                labels = [owner[c] for c in _right_cosets(gamma)[0]]
                as_short = Counter(k for k, ell in zip(labels, lengths)
                                   if ell <= lengths[least[k]])
                assert as_short == Counter(range(len(least)))
                total += len(least)
    assert total == 40558


# Past ORACLE_BOUND, at n = 8 and 9: zero parts, one row, one column
# and square margins
FAMILY_PAST_THE_ORACLE = [
    ((3, 2, 3), (2, 4, 2)), ((2, 2, 2, 2), (2, 2, 2, 2)),
    ((4, 1, 3), (1,) * 8), ((1,) * 8, (4, 4)), ((8,), (3, 5)),
    ((3, 3, 3), (3, 3, 3)), ((2, 3, 4), (1, 4, 4)), ((1, 2, 3, 3), (4, 5)),
    ((5, 0, 4), (2, 2, 2, 2, 1)), ((1,) * 9, (9,)), ((1,) * 9, (2, 3, 4)),
]


def _reps_past_the_oracle_failures(gamma, alpha, reps) -> list:
    """What is wrong with `reps` as the distinguished (S_gamma, S_alpha)
    representatives, checked without labelling S_n: their count, that
    they are distinct permutations, and that each is shorter than its
    neighbours s * w and w * t by the block transpositions."""
    n = sum(gamma)
    out = []
    if len(reps) != count_integer_matrices(gamma, alpha):
        out.append(f"{len(reps)} reps")
    if len(set(reps)) != len(reps) or \
            any(sorted(w) != list(range(1, n + 1)) for w in reps):
        out.append("not distinct permutations")
    left = [_transposition(j + 1, n) for j in _block_transpositions(gamma)]
    right = [_transposition(j + 1, n) for j in _block_transpositions(alpha)]
    for w in reps:
        ell = length(w)
        if any(length(compose(s, w)) <= ell for s in left) or \
                any(length(compose(w, t)) <= ell for t in right):
            out.append(f"{w} is not minimal")
    return out


@pytest.mark.parametrize("gamma,alpha", FAMILY_PAST_THE_ORACLE)
def test_reps_past_the_oracle_bound_are_minimal(gamma, alpha):
    assert sum(gamma) > verify.ORACLE_BOUND
    reps = double_coset_reps(gamma, alpha)
    assert _reps_past_the_oracle_failures(gamma, alpha, reps) == []


def test_reps_past_the_oracle_bound_catch_a_planted_s_times_w():
    # s * w lies in the double coset of w, one inversion longer
    gamma, alpha = (3, 3, 3), (3, 3, 3)
    reps = double_coset_reps(gamma, alpha)
    planted = compose(_transposition(1, 9), reps[-1])
    assert length(planted) == length(reps[-1]) + 1
    assert _reps_past_the_oracle_failures(
        gamma, alpha, reps[:-1] + (planted,)) == [f"{planted} is not minimal"]


def _cross_block_transposition(gamma):
    """A transposition across the first two blocks of gamma, or None."""
    if len(gamma) < 2:
        return None
    return parse_cycles(f"({gamma[0]},{gamma[0] + 1})", sum(gamma))


def _with_cross_block_transposition(gamma):
    group = young_subgroup(gamma)
    cross = _cross_block_transposition(gamma)
    return group if cross is None else group + (cross,)


def _last_swapped_for_cross_block_transposition(gamma):
    """Same size as S_gamma, but one element does not fix the filling."""
    group = young_subgroup(gamma)
    cross = _cross_block_transposition(gamma)
    return group if cross is None else group[:-1] + (cross,)


def _last_swapped_for_a_collapse(gamma):
    """The last element swapped for the map sending boxes 1 and 2 to 1.

    It fixes the standard filling and keeps the size, so only the
    brute-force comparison, for n <= 4, can catch it.
    """
    group = young_subgroup(gamma)
    if gamma[0] < 2:
        return group
    return group[:-1] + ((1, 1, *range(3, sum(gamma) + 1)),)


# planted faults in young_subgroup, each a function of gamma
STABILIZER_FAULTS = {
    "omitted": lambda gamma: young_subgroup(gamma)[:-1],
    "cross-block": _with_cross_block_transposition,
    "swapped": _last_swapped_for_cross_block_transposition,
    "repeated": lambda gamma: (young_subgroup(gamma)[:1]
                               + young_subgroup(gamma)),
    "empty": lambda gamma: (),
    "collapsed": _last_swapped_for_a_collapse,
}


@pytest.mark.parametrize("fault", ["omitted", "cross-block", "swapped",
                                   "empty", "collapsed"])
def test_stabilizer_suite_catches_a_wrong_young_subgroup(monkeypatch, fault):
    monkeypatch.setattr(verify, "young_subgroup", STABILIZER_FAULTS[fault])
    report = verify.verify_stabilizers(4)
    assert report["checked"] == 221
    assert report["failures"]


@pytest.mark.parametrize("fault", ["omitted", "swapped", "cross-block",
                                   "empty"])
def test_stabilizer_suite_catches_faults_past_the_brute_force_bound(
        monkeypatch, fault):
    # faults at n = 5 only, where no brute-force stabilizer is compared:
    # the fixing check alone catches "swapped", the size check the rest
    def group(gamma):
        if sum(gamma) == 5:
            return STABILIZER_FAULTS[fault](gamma)
        return young_subgroup(gamma)

    monkeypatch.setattr(verify, "young_subgroup", group)
    report = verify.verify_stabilizers(5)
    assert report["checked"] == 2141
    assert report["failures"]
    assert report == stabilizer_report_by_conjugates(5, group)


@pytest.mark.parametrize("fault", ["intact", *STABILIZER_FAULTS])
@pytest.mark.parametrize("n", [4, 5])
def test_stabilizer_suite_matches_the_materialized_reference(
        monkeypatch, n, fault):
    # the reference builds every conjugate in full; the suite must report
    # the same checks and the same failures in the same order, also for
    # a repeated element, which no check can see
    group = STABILIZER_FAULTS.get(fault, young_subgroup)
    monkeypatch.setattr(verify, "young_subgroup", group)
    assert (verify.verify_stabilizers(n)
            == stabilizer_report_by_conjugates(n, group))
