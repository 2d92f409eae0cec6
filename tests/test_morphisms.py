
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (algebra_tables, reference_subalgebras,
                      reference_subuniverses, seeded_lattice_tables, shuffled,
                      si_chain_pairs, si_product_family, subalgebra_on,
                      unskipped_hs_closure)
from mvmlab import (Congruence, are_isomorphic, canonical_key, catalog,
                    catalog_names, cn_delta, congruence_lattice,
                    enumerate_chain, hs_closure, is_subdirectly_irreducible,
                    ln_plus, lm_delta, order_dual, principal_congruences,
                    product, quotient, si_members, si_poset, subalgebras,
                    trivial_algebra)
from mvmlab import constructions, morphisms, posets
from mvmlab.congruences import (_closures, _frame, _joins,
                                _restricted_steps, _sort_key, _steps)
from mvmlab.cli import identify


def names_of(keyed):
    return sorted(identify(A) for A in keyed.values())


# ---------------------------------------------------------------------------
# homomorphisms, by brute force: the oracle for isomorphism

def homomorphisms(A, B):
    """Every map A -> B preserving the four operations and 0, 1, as tuples
    indexed by the elements of A, in lexicographic order."""
    tables = ((A.join, B.join), (A.meet, B.meet),
              (A.oplus, B.oplus), (A.odot, B.odot))
    cells = list(itertools.product(range(A.size), repeat=2))
    return [f for f in itertools.product(range(B.size), repeat=A.size)
            if f[A.zero] == B.zero and f[A.one] == B.one
            and all(tb[f[u]][f[v]] == f[ta[u][v]]
                    for ta, tb in tables for u, v in cells)]


def test_identity_is_the_only_truncated_chain_endomorphism():
    A = ln_plus(2)
    assert homomorphisms(A, A) == [(0, 1, 2)]


def test_unique_map_collapsing_the_infinitesimal():
    assert homomorphisms(cn_delta(2), ln_plus(1)) == [(0, 0, 1)]


def test_homomorphisms_preserve_all_operations():
    for A, B in ((cn_delta(3), cn_delta(2)), (catalog("A3n"), catalog("C2n")),
                 (ln_plus(2), ln_plus(4))):
        for f in homomorphisms(A, B):
            assert f[A.zero] == B.zero and f[A.one] == B.one
            for ta, tb in ((A.join, B.join), (A.meet, B.meet),
                           (A.oplus, B.oplus), (A.odot, B.odot)):
                for x in range(A.size):
                    for y in range(A.size):
                        assert f[ta[x][y]] == tb[f[x]][f[y]]


def test_no_map_between_incomparable_truncated_chains():
    # 1/2 has nowhere to go in the 1/3 chain and cannot collapse (simplicity)
    assert homomorphisms(ln_plus(2), ln_plus(3)) == []


def test_pure_chain_endomorphisms_are_monotone_maps():
    L2 = catalog("L2")
    assert homomorphisms(L2, L2) == [(0, 0, 2), (0, 1, 2), (0, 2, 2)]


def test_are_isomorphic_matches_a_bijective_homomorphism():
    algebras = [A for n in range(2, 5) for A in enumerate_chain(n, "all")]
    algebras += [shuffled(A, i) for i, A in enumerate(algebras)]
    algebras += [A for A in map(catalog, catalog_names()) if A.size <= 4]
    isomorphic = 0
    for A, B in itertools.combinations(algebras, 2):
        if A.size == B.size:
            bijective = any(len(set(f)) == A.size
                            for f in homomorphisms(A, B))
            assert are_isomorphic(A, B) == bijective, (A, B)
            isomorphic += bijective
    assert isomorphic > 30


# ---------------------------------------------------------------------------
# HS closure

def test_hs_closure_of_simple_chain():
    assert names_of(hs_closure([ln_plus(6)])) == \
        ["L1+", "L2+", "L3+", "L6+", "trivial"]


def test_hs_closure_worked_examples():
    assert names_of(hs_closure([catalog("A3n")])) == \
        ["A3n", "C2d", "C2n", "L1+", "trivial"]
    assert names_of(hs_closure([catalog("A3d")])) == \
        ["A3d", "C2d", "C2n", "L1+", "trivial"]
    assert names_of(hs_closure([catalog("B3d")])) == \
        ["B3d", "C2d", "L1+", "L2+", "trivial"]
    assert names_of(hs_closure([catalog("B3n")])) == \
        ["B3n", "C2n", "L1+", "L2+", "trivial"]


def test_hs_closure_is_idempotent_and_monotone():
    c1 = hs_closure([catalog("A3n")])
    c2 = hs_closure(list(c1.values()))
    assert set(c1) == set(c2)
    assert canonical_key(trivial_algebra()) in c1


def _reference_hs_closure(S):
    """Closure under S and H by rounds, to a fixpoint, with subalgebras
    from the subset scan."""
    found = {}
    frontier = []
    for A in S:
        k = canonical_key(A)
        if k not in found:
            found[k] = A
            frontier.append(A)
    while frontier:
        new = []
        for A in frontier:
            produced = [sub for sub, _ in reference_subalgebras(A)]
            produced += [quotient(A, th)
                         for th in congruence_lattice(A).labels]
            for B in produced:
                k = canonical_key(B)
                if k not in found:
                    found[k] = B
                    new.append(B)
        frontier = new
    return found


_SI_CHAINS = [A for n in range(2, 7) for A in enumerate_chain(n, "si")]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(si_chain_pairs()), st.booleans())
def test_hs_closure_of_si_chain_products_matches_the_fixpoint(pair, dual):
    P = product(*pair)
    if dual:
        P = order_dual(P)
    assert set(hs_closure([P])) == set(_reference_hs_closure([P]))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([A for A in _SI_CHAINS
                                           if A.size <= 4]),
                          st.integers(0, 3)), min_size=1, max_size=5))
def test_hs_closure_keeps_the_first_generator_of_each_class(drawn):
    # shuffled copies of the same chain are isomorphic duplicates
    gens = [shuffled(A, seed) for A, seed in drawn]
    closure = hs_closure(gens)
    assert set(closure) == set(_reference_hs_closure(gens))
    for A in gens:
        k = canonical_key(A)
        assert closure[k] is next(B for B in gens if canonical_key(B) == k)


@pytest.mark.parametrize("factors", [(3, 3), (4, 3)])
def test_hs_closure_of_large_products_matches_the_fixpoint(factors):
    P = product(*map(ln_plus, factors))
    assert set(hs_closure([P])) == set(_reference_hs_closure([P]))


def _same_closure(new, old):
    """Same keys in the same order, and representatives with the same
    tables and names."""
    assert list(new) == list(old)
    for k, A in new.items():
        assert algebra_tables(A) == algebra_tables(old[k])
        assert A.name == old[k].name


def test_hs_closure_skips_only_repeated_tables():
    for P in si_product_family():
        _same_closure(hs_closure([P]), unskipped_hs_closure([P]))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(si_product_family()[:40]),
                          st.integers(0, 3)), min_size=2, max_size=3))
def test_hs_closure_of_several_generators_skips_only_repeats(drawn):
    # named and unnamed generators, some isomorphic, share one seen set
    gens = [shuffled(P, seed).rename(f"g{seed}") if seed else P
            for P, seed in drawn]
    _same_closure(hs_closure(gens), unskipped_hs_closure(gens))


@pytest.mark.slow
def test_hs_closure_of_the_fifth_boolean_power():
    # opt in with -m slow: about 12 s, most of it in the oracle
    L = ln_plus(1)
    P = product(product(product(product(L, L), L), L), L)
    assert len(subalgebras(P)) == 87
    closure = hs_closure([P])
    assert len(closure) == 88
    _same_closure(closure, unskipped_hs_closure([P]))


# the quotients hs_closure skips: B/theta when a proper subuniverse M of B
# meets every theta-block, for then B/theta is isomorphic to a quotient of M

def _lemma_corpus():
    return ([catalog(name) for name in catalog_names()]
            + si_product_family()[::3] + list(seeded_lattice_tables(20, 23)))


def _taken_quotients(monkeypatch):
    """The (B, theta) of every quotient `hs_closure` forms, in order."""
    taken, real = [], morphisms._quotient

    def record(B, theta):
        taken.append((B, theta))
        return real(B, theta)

    monkeypatch.setattr(morphisms, "_quotient", record)
    return taken


def test_hs_closure_skips_exactly_what_a_proper_subuniverse_gives(
        monkeypatch):
    taken = _taken_quotients(monkeypatch)
    for A in _lemma_corpus():
        taken.clear()
        hs_closure([A])
        by_sub = {}
        for B, theta in taken:
            by_sub.setdefault(B, []).append(theta)
        for B, _ in subalgebras(A):
            proper = [M for M in reference_subuniverses(B)
                      if len(M) < B.size]
            assert by_sub.pop(B, []) == [
                theta for theta in congruence_lattice(B).labels[1:]
                if not any(len({theta.ids[m] for m in M})
                           == theta.num_blocks() for M in proper)], (A, B)
        assert not by_sub


def _check_frame_against_con(A):
    """For every subuniverse U of A, the congruences read off A's frame
    are those of the subalgebra on U: its join-irreducibles, in order, and
    their joins, in the order of Con(B)."""
    frame = _frame(A)
    for U in reference_subuniverses(A):
        B = subalgebra_on(A, U)
        down, J, step = _restricted_steps(frame, U)
        assert J.bit_count() == len(_steps(B)[1]), (A, U)
        principal = list(_closures(step, posets._bits(J)))

        def partition(s):
            return Congruence(map((~s).__and__, down))

        assert list(map(partition, principal)) == \
            list(principal_congruences(B)), (A, U)
        assert sorted(map(partition, _joins(principal)), key=_sort_key) == \
            congruence_lattice(B).labels, (A, U)


def test_congruences_read_off_the_frame_are_those_of_each_subalgebra():
    # the catalogue, every SI product as it is, dualised or shuffled, and
    # tables that are no MV-monoids: the cover lemma uses no monoid law
    for A in [*_lemma_corpus(), *si_product_family()]:
        _check_frame_against_con(A)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(si_chain_pairs()), st.integers(0, 10 ** 6))
def test_congruences_read_off_the_frame_of_a_shuffled_product(pair, seed):
    _check_frame_against_con(shuffled(product(*pair), seed))


def test_hs_closure_of_non_mv_tables_matches_the_fixpoint():
    # the lemma is pure universal algebra: no monoid law is used
    for A in seeded_lattice_tables(12, 29):
        assert set(hs_closure([A])) == set(_reference_hs_closure([A]))


def test_hs_closure_forms_few_quotients(monkeypatch):
    # every nontrivial quotient of every subalgebra class would be 16,655
    taken = _taken_quotients(monkeypatch)
    for P in si_product_family():
        hs_closure([P])
    assert len(taken) <= 1104


def test_subalgebras_stay_in_size_order_when_keys_do_not_start_with_it(
        monkeypatch):
    # from 256 elements on a key starts with two bytes of size, so raw key
    # order is not size order there; a key prefix that sorts larger
    # algebras first imitates that on small ones
    real = constructions.canonical_key

    def larger_first(A):
        return bytes([255 - A.size]) + real(A)

    monkeypatch.setattr(constructions, "canonical_key", larger_first)
    for P in [catalog("A3n"), *si_product_family()[::5]]:
        sizes = [B.size for B, _ in subalgebras(P)]
        assert sizes == sorted(sizes) and len(set(sizes)) > 1, P
        _same_closure(hs_closure([P]), unskipped_hs_closure([P]))


def test_hs_closure_builds_no_order(monkeypatch):
    # it reads the congruences of each subalgebra, never their order
    def refuse(rows):
        raise AssertionError("an order was built")

    monkeypatch.setattr(posets, "transitive_closure", refuse)
    closure = hs_closure([product(ln_plus(1), ln_plus(2)), catalog("A3n")])
    assert canonical_key(ln_plus(2)) in closure


def test_hs_closure_of_a_product_contains_both_factors():
    P = product(ln_plus(1), ln_plus(2))
    closure = hs_closure([P])
    for A in (ln_plus(1), ln_plus(2)):
        assert canonical_key(A) in closure


# ---------------------------------------------------------------------------
# SI poset

def test_si_members_are_the_si_classes_of_the_hs_closure():
    def keys(*algebras):
        return {canonical_key(A) for A in algebras}

    # the subalgebras of L_d+ are the L_e+ with e | d, all simple
    assert set(si_members([ln_plus(6)])) == \
        keys(*(ln_plus(e) for e in (1, 2, 3, 6)))
    assert set(si_members([ln_plus(2), ln_plus(3)])) == \
        keys(ln_plus(1), ln_plus(2), ln_plus(3))
    assert set(si_members([cn_delta(2)])) == keys(ln_plus(1), cn_delta(2))
    # a product is no SI member, but its factors are
    P = product(ln_plus(1), ln_plus(2))
    assert set(si_members([P])) == keys(ln_plus(1), ln_plus(2))
    assert si_members([]) == {} and si_members([trivial_algebra()]) == {}
    # the generators of fig8: the SI classes of the HS closure, in its order
    gens = [catalog("A3n"), catalog("B3d")]
    closure = hs_closure(gens)
    assert list(si_members(gens)) == [k for k, B in closure.items()
                                      if is_subdirectly_irreducible(B)[0]]
    assert len(si_members(gens)) < len(closure)


def test_si_poset_of_small_chains():
    L = {n: ln_plus(n) for n in (1, 2, 3)}
    P = si_poset([L[1], L[2], L[3]])
    assert len(P) == 3
    assert P.leq(L[1], L[2]) and P.leq(L[1], L[3])
    assert not P.leq(L[2], L[3]) and not P.leq(L[3], L[2])
    assert P.minimal() == [L[1]]


def test_si_poset_labels_each_class_by_its_first_input():
    gens = [shuffled(ln_plus(2), 1), ln_plus(1), ln_plus(2),
            catalog("C2d"), shuffled(catalog("C2d"), 3), ln_plus(1)]
    P = si_poset(gens)
    assert len(P) == 3
    assert all(a is b for a, b in zip(P.labels, (gens[0], gens[1], gens[3])))


def test_si_poset_deduplicates_iso_classes():
    P = si_poset([ln_plus(2), catalog("L2+")])
    assert len(P) == 1


def test_si_poset_warns_on_non_si_input():
    # one warning per class, at the position of its first member
    with pytest.warns(UserWarning) as caught:
        si_poset([ln_plus(2), lm_delta(3), lm_delta(3).rename("again")])
    assert [str(w.message) for w in caught] == [
        "si_poset input 1 (FiniteAlgebra(LM3d, n=4)) is not subdirectly "
        "irreducible"]
