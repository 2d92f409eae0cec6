import collections
import functools
import io
import itertools
import json
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (poset_is_chain, random_chain_tables, shuffled,
                      si_chain_pairs)
from mvmlab import (Congruence, catalog, chain_algebra, cn_delta, cn_nabla,
                    congruence_lattice, enumerate_chain, identity_congruence,
                    is_simple, is_subdirectly_irreducible, lm_delta, lm_nabla,
                    ln_plus, make_algebra, monolith, order_dual,
                    principal_congruence, principal_congruences, product,
                    quotient, si_quotients, subalgebras, total_congruence,
                    trivial_algebra)
from mvmlab import cli, congruences, posets, save
from mvmlab.congruences import congruence_join, is_congruence
from mvmlab.constructions import _quotient
from mvmlab.errors import NotACongruence, TableOutOfRange
from mvmlab.posets import cover_pairs


def pure_chain(n):
    return chain_algebra(n, [[max(i, j) for j in range(n)] for i in range(n)],
                         [[min(i, j) for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# partitions

def test_partition_normal_form():
    assert Congruence([5, 5, 2, 5]).ids == (0, 0, 1, 0)
    assert Congruence([0, 1, 2]) == identity_congruence(3)
    assert Congruence([7, 7, 7]) == total_congruence(3)


def test_partition_predicates():
    c = Congruence([0, 0, 1, 2])
    assert c.related(0, 1) and not c.related(1, 2)
    assert c.blocks() == [(0, 1), (2,), (3,)]
    assert not c.is_identity() and not c.is_total()
    assert identity_congruence(4).refines(c)
    assert c.refines(total_congruence(4))
    assert not c.refines(identity_congruence(4))


def test_partition_meet_join():
    a = Congruence([0, 0, 1, 1])
    b = Congruence([0, 1, 1, 2])
    assert a.meet(b) == Congruence([0, 1, 2, 3])
    assert a.join(b) == total_congruence(4)


_partitions = st.lists(st.integers(0, 3), min_size=4, max_size=4).map(Congruence)


@settings(max_examples=100, deadline=None)
@given(_partitions, _partitions)
def test_meet_join_are_lattice_bounds(a, b):
    m, j = a.meet(b), a.join(b)
    assert m.refines(a) and m.refines(b)
    assert a.refines(j) and b.refines(j)
    # meet is the greatest lower bound, join the least upper bound
    assert a.meet(b) == b.meet(a) and a.join(b) == b.join(a)
    assert a.refines(b) == (a.meet(b) == a)


def _relation(part):
    n = part.size
    return {(x, y) for x in range(n) for y in range(n) if part.related(x, y)}


def _transitive_closure(rel):
    while True:
        step = {(x, z) for x, y in rel for v, z in rel if y == v}
        if step <= rel:
            return rel
        rel = rel | step


_partition_pairs = st.integers(1, 8).flatmap(lambda n: st.tuples(
    *[st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
      .map(Congruence)] * 2))


@settings(max_examples=200, deadline=None)
@given(_partition_pairs)
def test_join_is_the_transitive_closure_of_the_union(pair):
    a, b = pair
    assert _relation(a.join(b)) == \
        _transitive_closure(_relation(a) | _relation(b))


# ---------------------------------------------------------------------------
# principal congruences

def test_principal_congruence_on_pure_chain_collapses_the_interval():
    A = pure_chain(5)
    th = principal_congruence(A, 1, 3)
    assert th.blocks() == [(0,), (1, 2, 3), (4,)]
    assert is_congruence(A, th)


def test_principal_congruence_trivial_pair():
    assert principal_congruence(ln_plus(2), 1, 1) == identity_congruence(3)


@pytest.mark.parametrize("a, b, message", [
    # -1 used to stand for 2, giving the blocks (0, 2), (1,): 0 ~ 2 forces
    # 1 + 0 ~ 1 + 2, that is 1 ~ 2, so that was no congruence
    (-1, 0, "a = -1 outside 0..2"),
    (0, 3, "b = 3 outside 0..2"),
    (True, 0, "a = True outside 0..2"),
])
def test_principal_congruence_rejects_non_elements(a, b, message):
    with pytest.raises(TableOutOfRange, match=f"^{message}$"):
        principal_congruence(ln_plus(2), a, b)


def test_principal_congruence_on_simple_chain_is_total():
    A = ln_plus(2)
    for a in range(3):
        for b in range(a + 1, 3):
            assert principal_congruence(A, a, b).is_total()


def test_principal_congruences_are_congruences():
    for A in (cn_delta(4), cn_nabla(3), catalog("A3n"), catalog("B3d")):
        for a in range(A.size):
            for b in range(A.size):
                assert is_congruence(A, principal_congruence(A, a, b))


def test_congruence_join_closure():
    A = cn_delta(4)
    ths = [principal_congruence(A, 1, 2), principal_congruence(A, 2, 3)]
    j = congruence_join(A, ths)
    assert is_congruence(A, j)
    assert all(t.refines(j) for t in ths)


# ---------------------------------------------------------------------------
# congruence lattices of the named families

def test_infinitesimal_chains_have_chain_congruence_lattices():
    for n in range(1, 6):
        for build in (cn_delta, cn_nabla):
            L = congruence_lattice(build(n))
            assert len(L) == n + 1
            assert poset_is_chain(L)
            assert L.labels[0].is_identity()
            assert L.labels[-1].is_total()


def test_pure_chain_congruence_lattice_is_boolean():
    # congruences of a pure n-chain = subsets of the n-1 covering gaps
    for n in range(2, 6):
        L = congruence_lattice(pure_chain(n))
        assert len(L) == 2 ** (n - 1)
    assert len(congruence_lattice(pure_chain(4)).covers()) == 12  # cube edges


def test_four_element_si_catalog_monoliths():
    A = catalog("A3n")  # 0 < b < a < 1
    si, m = is_subdirectly_irreducible(A)
    assert si and m.blocks() == [(0, 1), (2,), (3,)]
    assert len(congruence_lattice(A)) == 4
    B = catalog("A3d")
    si, m = is_subdirectly_irreducible(B)
    assert si and m.blocks() == [(0,), (1,), (2, 3)]
    for name in ("B3d", "B3n"):
        C = catalog(name)
        si, m = is_subdirectly_irreducible(C)
        assert si
        assert len(congruence_lattice(C)) == 3


def test_degenerate_chains_are_not_si():
    for n in range(3, 6):
        for build in (lm_delta, lm_nabla):
            si, m = is_subdirectly_irreducible(build(n))
            assert not si and m is None


def test_truncated_chains_are_simple():
    for n in range(1, 13):
        A = ln_plus(n)
        assert is_simple(A)
        si, m = is_subdirectly_irreducible(A)
        assert si and m.is_total()


def test_trivial_algebra_is_not_si_or_simple():
    assert not is_simple(trivial_algebra())
    assert is_subdirectly_irreducible(trivial_algebra()) == (False, None)


def test_monolith_refines_every_nontrivial_congruence():
    for A in (cn_delta(3), catalog("A3n"), catalog("B3d"), lm_delta(3)):
        m = monolith(A)
        for c in congruence_lattice(A).labels[1:]:
            assert m.refines(c)


def test_congruence_lattice_of_a_large_simple_chain():
    assert len(congruence_lattice(ln_plus(13))) == 2


@pytest.mark.parametrize("factors", [
    (ln_plus(4), ln_plus(3)), (ln_plus(5), ln_plus(5)),
    (ln_plus(1), ln_plus(2), ln_plus(3)), (cn_delta(3), lm_delta(3))])
def test_congruences_of_a_product_are_products_of_congruences(factors):
    # MV-monoids have a lattice reduct, so their varieties are congruence
    # distributive and a product has no skew congruences (Fraser & Horn
    # 1970): Con(A x B) is Con A x Con B
    P = functools.reduce(product, factors)
    assert len(congruence_lattice(P)) == \
        math.prod(len(congruence_lattice(A)) for A in factors)


# ---------------------------------------------------------------------------
# brute-force oracle: every set partition, checked against both arguments of
# every operation at once

def _set_partitions(n):
    """Every partition of 0..n-1, as restricted growth strings."""
    def grow(prefix, blocks):
        if len(prefix) == n:
            yield Congruence(prefix)
            return
        for b in range(blocks + 1):
            yield from grow(prefix + [b], max(blocks, b + 1))
    yield from grow([], 0)


def _compatible(A, part):
    ids, n = part.ids, A.size
    related = [(a, b) for a in range(n) for b in range(n) if ids[a] == ids[b]]
    return all(ids[t[a][c]] == ids[t[b][d]]
               for t in (A.join, A.meet, A.oplus, A.odot)
               for a, b in related for c, d in related)


def _check_against_brute_force(A):
    partitions = list(_set_partitions(A.size))
    con = {p for p in partitions if _compatible(A, p)}
    lat = congruence_lattice(A)
    cs = lat.labels
    assert set(cs) == con
    assert lat.covers() == [
        (cs[i], cs[j]) for i, j in itertools.permutations(range(len(cs)), 2)
        if cs[i].refines(cs[j]) and not any(
            k not in (i, j) and cs[i].refines(cs[k]) and cs[k].refines(cs[j])
            for k in range(len(cs)))]
    for p in partitions:
        assert is_congruence(A, p) == (p in con)
    for a, b in itertools.combinations(range(A.size), 2):
        theta = principal_congruence(A, a, b)
        assert theta in con and theta.related(a, b)
        assert all(theta.refines(c) for c in con if c.related(a, b))
    nontrivial = [c for c in con if not c.is_identity()]
    m = functools.reduce(Congruence.meet, nontrivial) if nontrivial else None
    assert monolith(A) == m
    assert is_simple(A) == (A.size > 1 and len(con) == 2)
    # A/theta is SI iff the congruences strictly above theta have a least one
    def si(c):
        above = [d for d in con if c.refines(d) and d != c]
        return any(all(d.refines(e) for e in above) for d in above)

    assert [_tables(Q) for Q in si_quotients(A)] == \
        [_tables(quotient(A, c)) for c in cs if si(c)]
    assert all(is_subdirectly_irreducible(Q)[0] for Q in si_quotients(A))


def _tables(A):
    return A.zero, A.one, A.oplus, A.odot, A.join, A.meet


def _index_covers(P):
    """The covers of P as pairs of positions in P.labels."""
    index = {c: i for i, c in enumerate(P.labels)}
    return [(index[c], index[d]) for c, d in P.covers()]


_SMALL_CHAINS = [A for n in range(1, 6) for A in enumerate_chain(n, "all")]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SMALL_CHAINS))
def test_chain_congruences_match_brute_force(A):
    _check_against_brute_force(A)


def _small_pieces():
    # subalgebras and quotients with at most 6 elements of products of SI
    # chains with at most 12 elements
    sis = [A for n in (2, 3, 4) for A in enumerate_chain(n, "si")]
    out = []
    for A, B in itertools.combinations_with_replacement(sis, 2):
        if A.size * B.size > 12:
            continue
        P = product(A, B)
        out += [S for S, _ in subalgebras(P) if S.size <= 6]
        out += [Q for Q in (quotient(P, c)
                            for c in congruence_lattice(P).labels)
                if Q.size <= 6]
    return out


_PIECES = _small_pieces()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_PIECES))
def test_subalgebra_and_quotient_congruences_match_brute_force(A):
    _check_against_brute_force(A)


@settings(max_examples=200, deadline=None)
@given(random_chain_tables())
def test_non_commutative_table_congruences_match_brute_force(A):
    _check_against_brute_force(A)


def test_non_commutative_oplus_needs_the_second_argument():
    # {0, 1} is compatible with x -> x + c but not with x -> 2 + x:
    # 2 + 0 = 2 and 2 + 1 = 1
    A = chain_algebra(3, [[0, 1, 2], [1, 1, 2], [2, 1, 2]],
                      [[min(i, j) for j in range(3)] for i in range(3)])
    theta = Congruence([0, 0, 1])
    assert not is_congruence(A, theta)
    assert theta not in congruence_lattice(A).labels
    assert principal_congruence(A, 0, 1).is_total()
    with pytest.raises(NotACongruence):
        quotient(A, theta)


def test_covering_pairs_generate_the_lattice_of_every_pair():
    # the reference: fold theta(a, b) over all pairs a < b
    for A, B in si_chain_pairs():
        P = product(A, B)
        known = {identity_congruence(P.size)}
        for a, b in itertools.combinations(range(P.size), 2):
            p = principal_congruence(P, a, b)
            known |= {c.join(p) for c in known}
        assert set(congruence_lattice(P).labels) == known
        assert set(principal_congruences(P)) <= known


def test_trusted_quotients_and_lazy_covers_match_the_checked_ones():
    for A, B in si_chain_pairs():
        for P in (product(A, B), order_dual(product(A, B))):
            lat = congruence_lattice(P)
            assert "_up" not in vars(lat)  # nothing built until read
            cs = lat.labels
            # the covers as they were built eagerly: refinement rows, then
            # the covering pairs of that order
            assert _index_covers(lat) == cover_pairs(
                [sum(1 << j for j, d in enumerate(cs) if c.refines(d))
                 for c in cs])
            for theta in cs:
                Q, R = _quotient(P, theta), quotient(P, theta)
                assert _tables(Q) == _tables(R) and Q.name == R.name
            # 0 ~ 1 alone is no congruence of an algebra with 3 or more
            # elements: it would collapse the interval [0, 1]
            bad = Congruence([0 if e in (P.zero, P.one) else e + 1
                              for e in range(P.size)])
            with pytest.raises(NotACongruence):
                quotient(P, bad)


# ---------------------------------------------------------------------------
# the all-covers reference: Con(A) as it was built before it was read off
# the join-irreducibles, with one closure per covering pair of the lattice
# reduct, the covers from refinement rows and the SI quotients from a count
# of upper covers

def _lattice_cover_pairs(A):
    n = A.size
    return cover_pairs([sum(1 << b for b in range(n) if A.join[a][b] == b)
                        for a in range(n)])


def _all_covers_lattice(A):
    known = {identity_congruence(A.size)}
    for a, b in _lattice_cover_pairs(A):
        p = principal_congruence(A, a, b)
        known |= {c.join(p) for c in known}
    return sorted(known, key=lambda c: (-c.num_blocks(), c.ids))


def _refinement_covers(cs):
    # row j = {i : c_j refines c_i}, the AND over the pairs c_j relates of
    # the bitset of congruences relating that pair
    relating = collections.defaultdict(int)
    for i, c in enumerate(cs):
        for block in c.blocks():
            for pair in itertools.combinations(block, 2):
                relating[pair] |= 1 << i
    return cover_pairs([functools.reduce(operator.and_,
                                         (relating[b[0], e]
                                          for b in c.blocks() for e in b[1:]),
                                         (1 << len(cs)) - 1)
                        for c in cs])


def _upper_cover_si(cs):
    upper = collections.Counter(i for i, _ in _refinement_covers(cs))
    return [c for i, c in enumerate(cs) if upper[i] == 1]


def _check_against_all_covers(A):
    cs = _all_covers_lattice(A)
    lat = congruence_lattice(A)
    assert lat.labels == cs
    assert _index_covers(lat) == _refinement_covers(cs)
    # the chain test of the `congruences` command
    assert (len(lat.covers()) == len(lat) - 1) == \
        all(a.refines(b) for a, b in zip(cs, cs[1:]))
    assert monolith(A) == (functools.reduce(Congruence.meet, cs[1:])
                           if cs[1:] else None)
    assert is_simple(A) == (A.size > 1 and len(cs) == 2)
    assert [_tables(Q) for Q in si_quotients(A)] == \
        [_tables(_quotient(A, c)) for c in _upper_cover_si(cs)]


_PRODUCTS = [product(A, B) for A, B in si_chain_pairs()] + \
    [functools.reduce(product, [ln_plus(1)] * 3)]


@functools.cache
def _subalgebras_of(i):
    return [S for S, _ in subalgebras(_PRODUCTS[i])]


_seeds = st.integers(0, 10 ** 6)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_PRODUCTS), _seeds)
def test_relabeled_products_match_the_all_covers_lattice(P, seed):
    _check_against_all_covers(shuffled(P, seed))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(_PRODUCTS) - 1), _seeds, _seeds)
def test_subalgebras_of_products_match_the_all_covers_lattice(i, pick, seed):
    subs = _subalgebras_of(i)
    _check_against_all_covers(shuffled(subs[pick % len(subs)], seed))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_PRODUCTS), _seeds)
def test_random_operations_on_product_lattices_match_the_all_covers_lattice(
        P, seed):
    # each entry of oplus and odot is the join, or at some rate a random
    # element: usually non-commutative tables that break every monoid law,
    # with a congruence lattice that is not always trivial
    rng = random.Random(seed)
    n, rate = P.size, rng.choice((0.05, 0.2, 1.0))
    oplus, odot = ([[rng.randrange(n) if rng.random() < rate else P.join[a][b]
                     for b in range(n)] for a in range(n)] for _ in range(2))
    A = make_algebra(n, P.zero, P.one, oplus, odot, join=P.join, meet=P.meet)
    _check_against_all_covers(shuffled(A, seed))


def test_json_is_chain_means_every_two_congruences_are_comparable(tmp_path):
    corpus = _SMALL_CHAINS + _PRODUCTS + [
        S for i in range(0, len(_PRODUCTS), 9) for S in _subalgebras_of(i)]
    path = tmp_path / "a.json"
    verdicts = set()
    for A in corpus:
        path.write_text(json.dumps(save(A)))
        out = io.StringIO()
        assert cli.run(["congruences", str(path)], out) == 0
        doc = json.loads(out.getvalue())
        cs = [Congruence([b for e in range(A.size) for b, block in
                          enumerate(c) if e in block])
              for c in doc["congruences"]]
        comparable = all(a.refines(b) or b.refines(a)
                         for a, b in itertools.combinations(cs, 2))
        assert doc["is_chain"] == comparable, A
        verdicts.add(comparable)
    assert verdicts == {True, False}


@pytest.fixture()
def closures(monkeypatch):
    """The (a, b) of every `principal_congruence` closure run."""
    calls, real = [], congruences.principal_congruence

    def counted(A, a, b):
        calls.append((a, b))
        return real(A, a, b)

    monkeypatch.setattr(congruences, "principal_congruence", counted)
    return calls


def test_one_closure_per_join_irreducible_of_the_lattice_reduct(closures):
    # the all-covers fold ran one closure per covering pair: 32 and 17
    for P, pairs, joins, size in (
            (functools.reduce(product, [ln_plus(1)] * 4), 32, 4, 16),
            (product(ln_plus(2), ln_plus(3)), 17, 5, 4)):
        assert len(_lattice_cover_pairs(P)) == pairs
        closures.clear()
        assert len(congruence_lattice(P)) == size
        assert len(closures) == joins
        closures.clear()
        assert len(si_quotients(P)) == len(_upper_cover_si(
            _all_covers_lattice(P)))
        assert len(closures) == joins
    # monolith stops at the first identity meet: two atoms of L1+^4
    closures.clear()
    assert monolith(functools.reduce(product, [ln_plus(1)] * 4)).is_identity()
    assert len(closures) == 2


def test_si_quotients_build_no_congruence_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("a congruence lattice was built")

    for P in _PRODUCTS[::9]:
        expected = [_tables(_quotient(P, c))
                    for c in _upper_cover_si(_all_covers_lattice(P))]
        with monkeypatch.context() as m:
            m.setattr(congruences, "congruence_lattice", refuse)
            m.setattr(posets.Poset, "__init__", refuse)
            assert [_tables(Q) for Q in si_quotients(P)] == expected
