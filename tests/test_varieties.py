import functools
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlab import (CANCELLATIVITY, DivisorClosedSet, almost_minimal_axioms,
                    are_isomorphic, canonical_key, catalog, catalog_names,
                    classify_variety, cn_delta, cn_nabla, congruence_lattice,
                    divisor_closed_sets, enumerate_chain, evaluate,
                    hs_closure, is_mv_monoid, is_positive_mv, ln_plus,
                    member_of_variety, order_dual, parse, phi, product,
                    quotient, satisfies, satisfies_quasi, si_members,
                    si_quotients, sigma, subalgebras, tau, trivial_algebra)
from mvmlab.errors import NotDivisorClosed, NotPositiveMV
from mvmlab.terms import const, var, variables
from mvmlab.varieties import _fold_odot, _fold_oplus, _si_classes

from conftest import (random_chain_tables, seeded_chain_tables,
                      seeded_lattice_tables, shuffled)


# ---------------------------------------------------------------------------
# divisor-closed sets

def test_divisor_closed_set_basics():
    I = DivisorClosedSet({1, 2, 3, 6})
    assert list(I) == [1, 2, 3, 6]
    assert 6 in I and 4 not in I
    assert I.max() == 6 and math.lcm(*I) == 6
    assert I == {3, 6, 2, 1} and I == DivisorClosedSet([6, 3, 2, 1])


def test_divisor_closed_set_equality_and_hash():
    I = DivisorClosedSet({1, 2})
    assert I != None and I != 3  # noqa: E711
    assert I == frozenset({1, 2}) and hash(I) == hash(frozenset({1, 2}))
    assert len({I, frozenset({1, 2}), DivisorClosedSet([2, 1])}) == 1
    assert hash(I) == hash(DivisorClosedSet([2, 1]))
    # a sequence of the members hashes differently, so it is not equal
    for seq in ((1, 2), [1, 2], (2, 1)):
        assert I != seq and seq != I
    assert len({I, (1, 2)}) == 2
    assert I == {1, 2} and {1, 2} == I


def test_divisor_closed_set_rejects_gaps():
    with pytest.raises(NotDivisorClosed):
        DivisorClosedSet({2})  # misses 1
    with pytest.raises(NotDivisorClosed):
        DivisorClosedSet({1, 6})  # misses 2 and 3
    with pytest.raises(NotDivisorClosed):
        DivisorClosedSet({0, 1})


def test_divisor_closed_set_checks_types_before_sorting():
    with pytest.raises(NotDivisorClosed):
        DivisorClosedSet([1, "a"])  # sorting it would raise TypeError
    with pytest.raises(NotDivisorClosed):
        member_of_variety(ln_plus(2), [1, True, 2])  # True is not 1


def _message_by_full_scan(members):
    # the least m with a missing divisor, and its least one, trying every
    # d <= m (the check before divisors were found in pairs)
    present = set(members)
    for m in sorted(present):
        for d in range(1, m + 1):
            if m % d == 0 and d not in present:
                return f"{m} is in the set but its divisor {d} is not"
    return None


def test_divisor_closed_set_messages_match_the_full_scan():
    rng = random.Random(15)
    for _ in range(500):
        if rng.random() < 0.5:
            p = rng.random()
            members = {m for m in range(1, 61) if rng.random() < p}
        else:  # a closed set with one member taken out
            members = {d for m in rng.sample(range(1, 61), rng.randint(1, 4))
                       for d in range(1, m + 1) if m % d == 0}
            members.discard(rng.choice(sorted(members)))
        want = _message_by_full_scan(members)
        try:
            I = DivisorClosedSet(members)
        except NotDivisorClosed as exc:
            assert str(exc) == want
        else:
            assert want is None and set(I) == members


def test_divisor_closed_set_of_a_big_prime_answers_at_once():
    p = 1_000_000_007
    start = time.perf_counter()
    assert list(DivisorClosedSet([1, p])) == [1, p]
    assert time.perf_counter() - start < 0.1
    with pytest.raises(NotDivisorClosed, match=f"^{p} is in the set but its "
                                               "divisor 1 is not$"):
        DivisorClosedSet([p])
    assert member_of_variety(ln_plus(1), [1, p])
    assert not member_of_variety(ln_plus(2), [1, p])


def test_empty_set_conventions():
    empty = DivisorClosedSet(())
    assert empty.max() == 0 and math.lcm(*empty) == 1
    assert len(empty) == 0


def test_divisor_closed_sets_are_the_closed_subsets():
    for bound in range(11):
        closed = [S for r in range(bound + 1)
                  for S in itertools.combinations(range(1, bound + 1), r)
                  if _message_by_full_scan(S) is None]
        assert [I.members for I in divisor_closed_sets(bound)] == \
            sorted(closed)


def test_divisor_closed_sets_up_to_six():
    sets = divisor_closed_sets(6)
    assert len(sets) == 17
    assert DivisorClosedSet(()) in sets
    assert DivisorClosedSet({1, 2, 3, 6}) in sets
    assert all(isinstance(I, DivisorClosedSet) for I in sets)
    assert sets == sorted(sets, key=lambda I: I.members)
    # bound 1 and 2 sanity: {}, {1} and {}, {1}, {1,2}
    assert len(divisor_closed_sets(1)) == 2
    assert len(divisor_closed_sets(2)) == 3


# ---------------------------------------------------------------------------
# the tau ladder

def clamp(v, lo, hi):
    return min(max(v, lo), hi)


@pytest.mark.parametrize("n", range(0, 7))
def test_tau_matches_the_clamp_formula(n):
    # on the chain of fractions i/m, tau(n, k) computes ((n x - k) v 0) ^^ 1
    for m in range(1, 7):
        A = ln_plus(m)
        for k in range(-1, n + 1):
            t = tau(n, k)
            for i in range(m + 1):
                want = clamp(n * i - k * m, 0, m)
                assert evaluate(t, A, {0: i}) == want


def _tau_alt(n, k):
    # the same terms by the second recursion (tau(n,k-1) * x) + tau(n,k)
    if n == 0:
        return const("one") if k < 0 else const("zero")
    return _fold_oplus(_fold_odot(_tau_alt(n - 1, k - 1), var(0)),
                       _tau_alt(n - 1, k))


def test_tau_alt_agrees_with_tau():
    for n in range(0, 7):
        for k in range(-1, n + 1):
            for m in (2, 5):
                A = ln_plus(m)
                for i in range(m + 1):
                    assert (evaluate(tau(n, k), A, {0: i})
                            == evaluate(_tau_alt(n, k), A, {0: i}))


def test_tau_base_cases():
    assert tau(0, -1) is const("one")
    assert tau(0, 0) is const("zero")
    assert tau(0, 5) is const("zero")


def test_deep_tau_needs_no_recursion():
    # one cell per row: tau(n, 0) is n x and tau(n, n - 1) is x^n
    n = 3000
    for k in (0, n - 1):
        t = tau(n, k)
        for m in range(1, 7):
            A = ln_plus(m)
            for i in range(m + 1):
                assert evaluate(t, A, {0: i}) == clamp(n * i - k * m, 0, m)


# ---------------------------------------------------------------------------
# Phi_n

def test_phi_shape():
    P = phi(3)
    assert len(P.equations) == 6
    assert P.name == "Phi(3)"
    with pytest.raises(ValueError):
        phi(0)


def test_phi_names_its_equations():
    P = phi(2)
    assert P.texts() == ["tau(2,0) + tau(2,0) ≈ tau(2,0)",
                         "tau(2,0) * tau(2,0) ≈ tau(2,0)",
                         "tau(2,1) + tau(2,1) ≈ tau(2,1)",
                         "tau(2,1) * tau(2,1) ≈ tau(2,1)"]
    assert P.equations[2] == parse("x * x + x * x ≈ x * x")
    assert sigma({1, 2}).texts() == [str(e) for e in sigma({1, 2})]


def test_phi_divisor_law_small():
    for m in range(1, 7):
        for n in range(1, 7):
            assert bool(satisfies(ln_plus(m), phi(n))) == (n % m == 0)


def test_phi_of_sixty_is_tractable():
    # lcm(1..6) = 60; the shared-subterm ladder keeps this cheap
    P = phi(60)
    assert len(P.equations) == 120
    assert all(variables(e.lhs) <= {0} for e in P.equations)
    assert satisfies(ln_plus(6), P)
    assert satisfies(ln_plus(5), P)
    assert not satisfies(ln_plus(7), P)


def test_phi_on_non_truncated_chains():
    assert not satisfies(cn_delta(2), phi(1))
    assert not satisfies(cn_nabla(3), phi(6))


# ---------------------------------------------------------------------------
# Sigma_I

def test_sigma_of_a_downward_interval_is_just_the_threshold():
    S = sigma({1, 2, 3})
    assert S.equations == [parse("4x ≈ 3x")]


def test_sigma_with_non_divisor_equations():
    S = sigma({1, 2, 3, 6})
    assert S.equations == [parse("7x ≈ 6x"),
                           parse("6(3x)^4 ≈ (4x)^6"),
                           parse("6(4x)^5 ≈ (5x)^6")]


def test_sigma_of_empty_set():
    S = sigma(())
    assert S.equations == [parse("x ≈ 0")]


def test_threshold_law():
    # (m+1)x = mx holds on the n-chain iff n <= m
    for m in range(1, 9):
        eq = parse(f"{m + 1}x ≈ {m}x")
        for n in range(1, 9):
            assert bool(satisfies(ln_plus(n), eq)) == (n <= m)


def test_non_divisor_law():
    # m((k-1)x)^k = (kx)^m holds on the n-chain (n <= m <= 6) iff k does not
    # divide n
    for m in range(1, 7):
        for n in range(1, m + 1):
            for k in range(1, m + 1):
                eq = parse(f"{m}(({k - 1}x)^{k}) ≈ ({k}x)^{m}")
                assert bool(satisfies(ln_plus(n), eq)) == (n % k != 0)


# ---------------------------------------------------------------------------
# membership and classification

def test_member_of_variety_examples():
    assert member_of_variety(ln_plus(2), {1, 2})
    assert member_of_variety(ln_plus(1), {1, 2})
    assert not member_of_variety(ln_plus(3), {1, 2})
    assert not member_of_variety(ln_plus(4), {1, 2, 3, 6})
    assert member_of_variety(ln_plus(6), {1, 2, 3, 6})
    assert not member_of_variety(cn_delta(2), {1, 2})
    assert member_of_variety(catalog("trivial"), ())


def test_member_of_variety_past_the_equational_route():
    # lcm(1..12) = 27720: Phi would need a ladder of about 4 * 10^8 cells
    I = range(1, 13)
    for k in (1, 2, 3, 5, 7, 11, 12):
        assert member_of_variety(ln_plus(k), I)
    assert not member_of_variety(ln_plus(13), I)
    for a, b in itertools.combinations_with_replacement((1, 2, 3, 4, 5), 2):
        if (a + 1) * (b + 1) > 16:
            continue
        P = product(ln_plus(a), ln_plus(b))
        for J in ({1, 2}, {1, 2, 4}, {1, 3}, {1, 5}, {1, 2, 3, 4, 6}):
            assert member_of_variety(P, J) == (a in J and b in J)


def _non_si_inputs():
    # products, their quotients and order duals, and the catalog
    base = [ln_plus(n) for n in (1, 2, 3)] + [cn_delta(2), cn_nabla(2),
                                              catalog("A3n"), catalog("B3d")]
    products = [product(A, B) for A, B in
                itertools.combinations_with_replacement(base, 2)
                if A.size * B.size <= 16]
    quotients = [quotient(P, c) for P in products
                 for c in congruence_lattice(P).labels]
    return (products + quotients + [order_dual(P) for P in products]
            + [catalog(name) for name in catalog_names()])


_NON_SI = _non_si_inputs()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_NON_SI), st.sampled_from(divisor_closed_sets(6)))
def test_membership_agrees_with_the_equational_route(A, I):
    assert member_of_variety(A, I) == bool(
        is_mv_monoid(A) and satisfies(A, sigma(I))
        and satisfies(A, phi(math.lcm(*I))))


def test_member_of_variety_computes_the_si_quotients_once(monkeypatch):
    from mvmlab import constructions
    calls = []

    def counted(A):
        calls.append(A)
        return si_quotients(A)

    monkeypatch.setattr(constructions, "si_quotients", counted)
    P = product(ln_plus(2), ln_plus(3))
    for I in divisor_closed_sets(6):
        assert member_of_variety(P, I) == (2 in I and 3 in I)
    assert not member_of_variety(product(P, cn_delta(2)), {1, 2, 3})
    assert len(calls) == 2


def _non_mv_chains():
    return [B for n in (4, 5) for B in enumerate_chain(n, "all")
            if not is_mv_monoid(B)]


def test_hs_of_a_non_mv_monoid_generator_lies_in_its_variety():
    # Jónsson's lemma asks only for the lattice reduct: the generator route
    # must not reject an algebra of V(K) for failing a connecting axiom
    chains = _non_mv_chains()
    assert len(chains) == 37
    assert {"chain4_1", "chain4_11"} <= {B.name for B in chains}
    members = 0
    for B in chains:
        for C in hs_closure([B]).values():
            assert member_of_variety(C, [B]), (C, B)
            members += 1
    assert members == 281


def test_a_non_mv_monoid_generator_excludes_what_fails_its_equations():
    B = next(B for B in _non_mv_chains() if B.name == "chain4_1")
    eq = parse("x + x ≈ x")
    assert satisfies(B, eq) and not satisfies(ln_plus(2), eq)
    assert not member_of_variety(ln_plus(2), [B])
    assert member_of_variety(B, [B])


@functools.cache
def _membership_inputs():
    # relabeled SI chains of 2..7 elements and products of two L_e+
    inputs = [shuffled(A, i) for n in range(2, 8)
              for i, A in enumerate(enumerate_chain(n, "si"))]
    return inputs + [shuffled(product(ln_plus(a), ln_plus(b)), a + b)
                     for a, b in ((1, 2), (2, 2), (2, 3))]


def test_membership_by_index_set_matches_membership_by_generators():
    # the closed form (the L_e+ with e in I) against the SI members of
    # HS(L_d+ : d in I), on relabeled SI chains and products
    inputs = _membership_inputs()
    sets = divisor_closed_sets(6)
    assert len(sets) == 17
    members = 0
    for I in sets:
        gens = [ln_plus(d) for d in I]
        for A in inputs:
            verdict = member_of_variety(A, I)
            assert member_of_variety(A, gens) == verdict, (A, I)
            members += verdict
    # each L_e+ (e <= 6) lies in the sets holding e, each product in those
    # holding both factors
    assert members == sum(e in I for e in range(1, 7) for I in sets) + sum(
        a in I and b in I for a, b in ((1, 2), (2, 2), (2, 3)) for I in sets)


def _member_by_si_members(A, K):
    # the generator route as it was: A's SI classes among the SI members
    return _si_classes(A).keys() <= si_members(K).keys()


def _member_by_target_keys(A, I):
    # the index route as it was: A's SI classes among the keys of the L_e+
    # with e in I and fewer elements than A, and A an MV-monoid
    targets = {canonical_key(ln_plus(e)) for e in I if e < A.size}
    return bool(is_mv_monoid(A)) and _si_classes(A).keys() <= targets


def test_membership_routes_match_their_former_formulations():
    non_mv = _non_mv_chains()
    corpus = (_membership_inputs()[::2] + _NON_SI[::2] + non_mv
              + list(seeded_lattice_tables(10, 26)))
    for I in divisor_closed_sets(6):
        for A in corpus:
            assert member_of_variety(A, I) == _member_by_target_keys(A, I)
    generator_lists = [[ln_plus(d) for d in I]
                       for I in divisor_closed_sets(6)[::5]]
    generator_lists += [[cn_delta(2)], [catalog("A3n"), catalog("B3d")]]
    generator_lists += [[B] for B in non_mv[::9]]
    members = 0
    for K in generator_lists:
        for A in corpus[::3]:
            verdict = member_of_variety(A, K)
            assert verdict == _member_by_si_members(A, K), (A, K)
            members += verdict
    assert 0 < members < len(generator_lists) * len(corpus[::3])


def test_member_of_variety_rejects_mixed_or_non_integer_sets():
    A = ln_plus(2)
    for K in ([ln_plus(1), 1], [1, ln_plus(1)], [1.0], ["1"], [1, 2.0],
              [ln_plus(2), "L1+"]):
        with pytest.raises(NotDivisorClosed):
            member_of_variety(A, K)


def test_no_generators_and_the_empty_index_set_both_give_the_trivial_variety():
    corpus = [catalog(name) for name in catalog_names()]
    corpus += [product(ln_plus(1), ln_plus(1)), trivial_algebra()]
    for A in corpus:
        verdict = member_of_variety(A, [])
        assert verdict == member_of_variety(A, DivisorClosedSet(()))
        assert verdict == (A.size == 1), A


def test_member_of_variety_rejects_non_mv_monoids():
    from mvmlab import chain_algebra
    bad = chain_algebra(2, [[1, 1], [1, 1]], [[0, 0], [0, 1]])
    assert not member_of_variety(bad, {1})


def test_classify_round_trip_small():
    for I in divisor_closed_sets(4):
        gens = [ln_plus(n) for n in I]
        assert classify_variety(gens) == I


def test_classify_single_generator():
    assert classify_variety([ln_plus(6)]) == {1, 2, 3, 6}
    assert classify_variety([ln_plus(4)]) == {1, 2, 4}
    assert classify_variety([]) == DivisorClosedSet(())


def _classify_by_hs_closure(generators):
    # the HS route: {n : L_n+ is in HS of the generators' SI quotients}
    closure = hs_closure([Q for A in generators for Q in si_quotients(A)])
    max_n = max((A.size for A in closure.values()), default=1) - 1
    return {n for n in range(1, max_n + 1)
            if canonical_key(ln_plus(n)) in closure}


@functools.cache
def _positive_corpus():
    """One algebra per iso class: the positive chains of size <= 6, their
    products of <= 12 elements, and the subalgebras of those products, save
    those of a 2-chain times a 6-chain (115 more classes, about 2 s)."""
    chains = [A for n in range(2, 7) for A in enumerate_chain(n, "positive")]
    found = {canonical_key(A): A for A in chains}
    for A, B in itertools.combinations_with_replacement(chains, 2):
        if A.size * B.size > 12:
            continue
        P = product(A, B)
        found.setdefault(canonical_key(P), P)
        if A.size > 2 or P.size <= 10:
            for S, _ in subalgebras(P):
                found.setdefault(canonical_key(S), S)
    return list(found.values())


def _si_indices_by_quotients(A):
    # the e with L_e+ an SI quotient, or None, from every SI quotient
    indices = set()
    for Q in si_quotients(A):
        if not are_isomorphic(Q, ln_plus(Q.size - 1)):
            return None
        indices.add(Q.size - 1)
    return indices


def test_si_indices_of_si_algebras_match_the_quotient_route():
    from mvmlab.varieties import _si_indices
    found = []
    for n in range(2, 7):
        for i, A in enumerate(enumerate_chain(n, "si")):
            for B in (A, shuffled(A, i)):
                assert _si_indices(B) == _si_indices_by_quotients(B), A.name
                if _si_indices(B) is not None:
                    found.append(_si_indices(B))
    # L_1+ .. L_5+, each also relabeled
    assert found == [{e} for e in range(1, 6) for _ in range(2)]


def test_classify_agrees_with_the_hs_route():
    from mvmlab.varieties import _si_indices
    corpus = _positive_corpus()
    assert len(corpus) == 147
    for A in corpus:
        assert _si_indices(A) is not None
        assert classify_variety([A]) == _classify_by_hs_closure([A])
    gens = corpus[::20]
    assert classify_variety(gens) == _classify_by_hs_closure(gens)


def test_classify_rejects_non_positive_generators():
    with pytest.raises(NotPositiveMV) as exc:
        classify_variety([ln_plus(2), cn_delta(2)])
    assert exc.value.index == 1
    # the SI indices decide positivity: the axioms and cancellativity agree
    catalogued = [catalog(name) for name in catalog_names()]
    corpus = [A for n in range(1, 6) for A in enumerate_chain(n, "all")]
    corpus += seeded_chain_tables(300, 21)
    corpus += catalogued + list(_positive_corpus())
    corpus += [product(A, B) for A, B in
               itertools.combinations_with_replacement(catalogued, 2)
               if A.size * B.size <= 12]
    rejected = 0
    for A in corpus:
        try:
            classify_variety([A])
        except NotPositiveMV:
            rejected += 1
            assert not _positive_by_definition(A), A
        else:
            assert _positive_by_definition(A), A
    assert 0 < rejected < len(corpus) - 200


def _positive_by_definition(A):
    # the definition, which shares nothing with the SI quotients
    return bool(is_mv_monoid(A)) and bool(satisfies_quasi(A, CANCELLATIVITY))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds(shuffled, st.deferred(lambda: st.sampled_from(
        _positive_corpus())), st.integers(0, 10**6)),
    st.builds(shuffled, st.deferred(lambda: st.sampled_from(
        _non_mv_chains())), st.integers(0, 10**6)),
    st.sampled_from(list(seeded_lattice_tables(60, 25))),
    random_chain_tables()))
def test_is_positive_mv_is_the_definition(A):
    # shuffled products and subalgebras of positive chains, non-MV chains,
    # and arbitrary tables over chains and product lattices
    assert is_positive_mv(A) == _positive_by_definition(A)


def test_is_positive_mv_answers_fast_on_a_large_product(monkeypatch):
    monkeypatch.setenv("MVMLAB_CAP_PRODUCT", "256")
    P = functools.reduce(product, [ln_plus(1)] * 7)
    A = shuffled(P, 7)
    start = time.perf_counter()
    assert is_positive_mv(A)
    # the axiom and cancellation scans took over 8 s here
    assert time.perf_counter() - start < 0.1
    Q = shuffled(product(functools.reduce(product, [ln_plus(1)] * 5),
                         cn_delta(2)), 5)
    assert not is_positive_mv(Q)


def test_almost_minimal_axioms():
    for tag in ("C_delta", "delta", "CΔ"):
        aset = almost_minimal_axioms(tag)
        assert satisfies(cn_delta(2), aset)  # the oplus-idempotent 3-chain
        assert not satisfies(cn_delta(3), aset)
        assert not satisfies(ln_plus(2), aset)
    for tag in ("C_nabla", "nabla", "C∇"):
        aset = almost_minimal_axioms(tag)
        assert satisfies(cn_nabla(2), aset)
        assert not satisfies(ln_plus(2), aset)
    with pytest.raises(ValueError):
        almost_minimal_axioms("other")
