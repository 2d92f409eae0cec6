import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlab import Poset, downset_lattice, enumerate_chain, si_poset
from mvmlab.errors import CapExceeded
from mvmlab.posets import cover_pairs, transitive_closure

from conftest import posets_isomorphic


def chain_poset(n):
    return Poset(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def boolean_poset(k):
    subsets = [frozenset(s) for r in range(k + 1)
               for s in itertools.combinations(range(k), r)]
    return Poset(subsets, [(a, b) for a in subsets for b in subsets if a <= b])


def test_transitive_closure_and_leq():
    P = Poset("abc", [("a", "b"), ("b", "c")])
    assert P.leq("a", "c") and P.leq("a", "a")
    assert not P.leq("c", "a")


def test_a_generator_of_pairs_is_read_once_when_the_order_is_first_read():
    read = []

    def pairs():
        for p in [("a", "b"), ("b", "c")]:
            read.append(p)
            yield p

    P = Poset("abc", pairs())
    assert len(P) == 3 and P.labels == ["a", "b", "c"] and read == []
    assert P.leq("a", "c") and not P.leq("c", "a")
    assert P.covers() == [("a", "b"), ("b", "c")]
    assert P.to_dot() == Poset("abc", [("a", "b"), ("b", "c")]).to_dot()
    assert read == [("a", "b"), ("b", "c")]


def test_covers_skip_transitive_edges():
    P = Poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert sorted(P.covers()) == [("a", "b"), ("b", "c")]


def test_minimal_maximal_height():
    P = Poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert P.minimal() == ["a"] and P.maximal() == ["d"]
    assert P.height("a") == 0 and P.height("b") == 1 and P.height("d") == 3


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_heights_minimal_maximal_match_the_order(n, rng):
    # a random order: i <= j only for i < j, so it is antisymmetric
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    P = Poset(range(n), pairs)
    below = {a: [b for b in P.labels if b != a and P.leq(b, a)]
             for a in P.labels}
    assert [P.height(a) for a in P.labels] == [len(below[a])
                                               for a in P.labels]
    assert P.minimal() == [a for a in P.labels if not below[a]]
    assert P.maximal() == [a for a in P.labels if not any(
        a != b and P.leq(a, b) for b in P.labels)]
    assert P.covers() == P.covers() == [
        (a, b) for a in P.labels for b in P.labels if a in below[b]
        and not any(c in below[b] for c in P.labels if a in below[c])]


def test_chain_downsets():
    # downsets of an n-chain: the n+1 initial segments
    for n in range(5):
        assert len(chain_poset(n).downsets()) == n + 1


def test_antichain_downsets():
    P = Poset("abc", [])
    assert len(P.downsets()) == 8  # all subsets
    assert frozenset("ab") in P.downsets()


def test_downsets_are_downward_closed():
    P = boolean_poset(2)
    for d in P.downsets():
        for b in d:
            for a in P.labels:
                if P.leq(a, b):
                    assert a in d


def test_downset_lattice_of_the_two_element_antichain():
    D = downset_lattice(Poset("ab", []))
    assert len(D) == 4
    assert posets_isomorphic(D, boolean_poset(2))


def test_downset_cap(monkeypatch):
    with pytest.raises(CapExceeded, match=r"^poset size is 20, above the cap "
                       r"12 \(MVMLAB_CAP_DOWNSET\)$"):
        Poset(range(20), []).downsets()
    monkeypatch.setenv("MVMLAB_CAP_DOWNSET", "3")
    with pytest.raises(CapExceeded, match="the cap 3 "):
        Poset("abcd", []).downsets()
    assert len(Poset("abc", []).downsets()) == 8


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9), st.integers(0, 10 ** 6))
def test_bitset_closure_and_covers_match_the_definitions(n, seed):
    # any relation: cycles make preorders, whose cover_pairs are not used,
    # so only the closure is checked on them
    rng = random.Random(seed)
    edges = {(i, j) for i in range(n) for j in range(n)
             if i == j or rng.random() < 0.2}
    reach = set(edges)
    for k, i, j in itertools.product(range(n), repeat=3):
        if (i, k) in reach and (k, j) in reach:
            reach.add((i, j))
    rows = transitive_closure([sum(1 << j for j in range(n) if (i, j) in edges)
                               for i in range(n)])
    assert {(i, j) for i in range(n) for j in range(n)
            if rows[i] >> j & 1} == reach
    if any((j, i) in reach for i, j in reach if i != j):
        return
    assert cover_pairs(rows) == [
        (i, j) for i, j in sorted(reach) if i != j
        and not any((i, k) in reach and (k, j) in reach
                    for k in range(n) if k not in (i, j))]


def test_isomorphism_testing():
    C3 = chain_poset(3)
    assert posets_isomorphic(C3, Poset("xyz", [("x", "y"), ("y", "z")]))
    assert not posets_isomorphic(C3, Poset("xyz", []))
    assert not posets_isomorphic(C3, chain_poset(4))
    V = Poset("abc", [("a", "b"), ("a", "c")])
    hat = Poset("abc", [("b", "a"), ("c", "a")])
    assert not posets_isomorphic(V, hat)
    # no size cap: a 300-element chain against a relabeled copy
    perm = list(range(300))
    random.Random(3).shuffle(perm)
    Q = Poset(range(300), [(perm[i], perm[i + 1]) for i in range(299)])
    assert posets_isomorphic(chain_poset(300), Q)


def _reference_isomorphic(P, Q):
    """The brute-force matcher the canonical form replaced: try every
    bijection that keeps (up-set size, down-set size)."""
    if len(P) != len(Q):
        return False

    def invariants(R):
        return [(sum(R.leq(a, b) for b in R.labels),
                 sum(R.leq(b, a) for b in R.labels)) for a in R.labels]

    mine, theirs = invariants(P), invariants(Q)
    if sorted(mine) != sorted(theirs):
        return False
    classes = {}
    for i, inv in enumerate(mine):
        classes.setdefault(inv, ([], []))[0].append(i)
    for j, inv in enumerate(theirs):
        classes[inv][1].append(j)
    keys = list(classes)
    n, a, b = len(P), P.labels, Q.labels
    for combo in itertools.product(
            *[itertools.permutations(classes[k][1]) for k in keys]):
        perm = [None] * n
        for k, targets in zip(keys, combo):
            for i, j in zip(classes[k][0], targets):
                perm[i] = j
        if all(P.leq(a[i], a[j]) == Q.leq(b[perm[i]], b[perm[j]])
               for i in range(n) for j in range(n)):
            return True
    return False


def _random_poset(rng, n):
    # pairs i < j only, so the transitive closure stays antisymmetric
    return Poset(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < 0.4])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.booleans(), st.integers(0, 10 ** 6))
def test_isomorphism_agrees_with_the_brute_force_matcher(n, relabeled, seed):
    rng = random.Random(seed)
    P = _random_poset(rng, n)
    if relabeled:
        perm = list(range(n))
        rng.shuffle(perm)
        Q = Poset(range(n), [(perm[a], perm[b]) for a in range(n)
                             for b in range(n) if P.leq(a, b)])
    else:
        Q = _random_poset(rng, n)
    assert posets_isomorphic(P, Q) == _reference_isomorphic(P, Q)
    assert posets_isomorphic(Q, P) == posets_isomorphic(P, Q)


def test_downset_lattice_of_the_three_element_antichain():
    assert posets_isomorphic(downset_lattice(Poset("abc", [])),
                             boolean_poset(3))


def test_to_dot_is_stable_and_well_formed():
    P = Poset("ba", [("b", "a")])
    dot = P.to_dot(name="g")
    assert dot == P.to_dot(name="g")
    assert dot.startswith("digraph g {") and dot.endswith("}\n")
    assert '"b"' in dot and "->" in dot


def test_as_dict_sorts_output():
    P = Poset("cab", [("c", "a"), ("a", "b")])
    d = P.as_dict()
    assert d["nodes"] == ["a", "b", "c"]
    assert d["covers"] == [["a", "b"], ["c", "a"]]


def test_si_downset_lattice_regression_golden():
    # lattice of downsets of the SI poset up to size 4: frozen count
    sis = [A for n in (2, 3, 4) for A in enumerate_chain(n, "si")]
    P = si_poset(sis)
    assert len(P) == 11
    assert len(downset_lattice(P)) == 189
