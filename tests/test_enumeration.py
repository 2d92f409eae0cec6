import functools
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlab import (Poset, canonical_key, chain_algebra, cn_delta, cn_nabla,
                    enumerate_chain, enumerate_on_lattice, hs_closure,
                    is_mv_monoid, is_positive_mv, is_simple,
                    is_subdirectly_irreducible, ln_plus, make_algebra,
                    member_of_variety, parse, product, satisfies,
                    satisfies_quasi, si_members, si_necessary_condition)
from mvmlab.terms import CANCELLATIVITY
from mvmlab import congruences, enumeration
from mvmlab.algebra import (FiniteAlgebra, dual_table, max_table, min_table,
                            order_dual)
from mvmlab.enumeration import (FILTERS, _dual_tables, _monoid_tables,
                                _pairs, _schedule, _table_schedule, _verdict)
from mvmlab.posets import lower_covers
from mvmlab.errors import CapExceeded

from conftest import random_chain_tables, random_operations, shuffled

# the two connecting-axiom groups, written out for an independent check
MIXED_ASSOC = [parse("(x + y) * ((x * y) + z) ≈ (x * (y + z)) + (y * z)"),
               parse("(x * y) + ((x + y) * z) ≈ (x + (y * z)) * (y + z)")]
# (C) and (D) with x, y written {a}, {b}
_TRUNCATION_LAWS = ["({a} * {b}) + z ≈ (({a} + {b}) * (({a} * {b}) + z)) v z",
                    "({a} + {b}) * z ≈ (({a} * {b}) + (({a} + {b}) * z)) ^^ z"]
TRUNCATION = [parse(law.format(a="x", b="y")) for law in _TRUNCATION_LAWS]


def _table_verdict(A, flt):
    # the filter's verdict read off A's tables, as `_pairs` reads it
    return _verdict(flt, A.join, A.zero, A.one)(A.oplus, A.odot)


def _public_verdict(A, flt):
    # the filter's verdict on A by the public predicates
    if flt == "si-necessary":
        return si_necessary_condition(A)
    if flt == "si":
        return is_subdirectly_irreducible(A)[0]
    if flt == "positive":
        return bool(satisfies_quasi(A, CANCELLATIVITY))
    return True


def test_counts_per_size():
    assert [len(enumerate_chain(n, "all")) for n in range(1, 8)] == \
        [1, 1, 4, 19, 118, 857, 7235]
    assert [len(enumerate_chain(n, "si-necessary")) for n in range(1, 8)] == \
        [0, 1, 3, 9, 35, 143, 683]
    assert [len(enumerate_chain(n, "si")) for n in range(1, 8)] == \
        [0, 1, 3, 7, 19, 39, 107]
    assert [len(enumerate_chain(n, "positive")) for n in range(1, 8)] == \
        [1, 1, 2, 4, 8, 16, 32]


# sha256 of the JSON list of (name, oplus, odot) of enumerate_chain(8, flt)
_GOLDEN_EIGHT = {
    "all": (68639, "3299276428de14489dfa526fb7e79081"
                   "8d9ada8d13a741ea26c08d726df9ae7d"),
    "si-necessary": (3447, "14aef876bc51e0caef5123674d4aa228"
                           "720af123baeaad29f0ba31524e24cb9a"),
    "si": (207, "7051da6a65a92d8a9bc438a8bcaca5ac"
                "6517547ed5b1e3bb82d973cfcbe68c57"),
    "positive": (64, "b3e8d850d5de62c5a83ff397d0bf319d"
                     "7687e039baf9f1f55baf356102e6b805"),
}


@pytest.mark.slow
def test_eight_element_chain_census():
    # opt in with -m slow: about 5 s for the four filters
    out = {flt: enumerate_chain(8, flt) for flt in FILTERS}
    for flt, (count, digest) in _GOLDEN_EIGHT.items():
        records = [(A.name, A.oplus, A.odot) for A in out[flt]]
        assert len(records) == count, flt
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() \
            == digest, flt
    positive = out["positive"]
    L = ln_plus(7)
    assert [(A.oplus, A.odot) for A in positive
            if is_subdirectly_irreducible(A)[0]] == [(L.oplus, L.odot)]


@pytest.mark.slow
def test_nine_element_chain_counts():
    # opt in with -m slow: about 35 s; "all" is counted off the verdicts of
    # the pair stage, as its 723,617 algebras would hold some 270 MB
    assert len(enumerate_chain(9, "si")) == 591
    assert len(enumerate_chain(9, "positive")) == 128
    assert sum(kept for _, _, kept in _pairs(*_chain_args(9), "all",
                                            delta=list(range(9))[::-1])) \
        == 723_617


@pytest.mark.parametrize("n", range(2, 8))
def test_cancellativity_read_off_the_columns_matches_the_quasi_equation(n):
    # every table of the "all" census, which holds every chain MV-monoid
    for A in enumerate_chain(n, "all"):
        assert _table_verdict(A, "positive") == \
            bool(satisfies_quasi(A, CANCELLATIVITY))


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_chain_tables(), st.builds(
    lambda P, seed, rate: random_operations(P, random.Random(seed), rate),
    st.sampled_from([product(ln_plus(1), ln_plus(2)),
                     product(ln_plus(1), ln_plus(1))]),
    st.integers(0, 10 ** 6), st.sampled_from([0, 0.2, 1.0]))))
def test_cancellativity_of_arbitrary_tables_matches_the_quasi_equation(A):
    assert _table_verdict(A, "positive") == \
        bool(satisfies_quasi(A, CANCELLATIVITY))


def test_output_is_deterministic_and_duplicate_free():
    a = enumerate_chain(4, "all")
    b = enumerate_chain(4, "all")
    assert [(A.oplus, A.odot) for A in a] == [(B.oplus, B.odot) for B in b]
    assert len({(A.oplus, A.odot) for A in a}) == len(a)
    # chains are rigid, so distinct tables are distinct iso classes
    assert len({canonical_key(A) for A in a}) == len(a)


def test_all_filter_admits_exactly_the_relaxed_axioms():
    # every output satisfies everything except possibly the truncation pair,
    # and exactly two size-4 tables fail it
    out = enumerate_chain(4, "all")
    full = []
    for A in out:
        assert satisfies(A, MIXED_ASSOC)
        if satisfies(A, TRUNCATION):
            full.append(A)
            assert is_mv_monoid(A)
        else:
            assert not is_mv_monoid(A)
    assert len(full) == 19 - 2


def test_refined_filters_enforce_the_full_definition():
    for flt in ("si-necessary", "si", "positive"):
        for n in (3, 4, 5):
            for A in enumerate_chain(n, flt):
                assert is_mv_monoid(A)


def test_filters_select_what_they_claim():
    for A in enumerate_chain(4, "si-necessary"):
        assert si_necessary_condition(A)
    for A in enumerate_chain(4, "si"):
        assert is_subdirectly_irreducible(A)[0]
    for A in enumerate_chain(4, "positive"):
        assert is_positive_mv(A)


def test_si_output_is_a_subset_of_si_necessary():
    necessary = {(A.oplus, A.odot) for A in enumerate_chain(4, "si-necessary")}
    for A in enumerate_chain(4, "si"):
        assert (A.oplus, A.odot) in necessary


def test_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_chain(3, "everything")
    with pytest.raises(ValueError):
        enumerate_chain(0)
    with pytest.raises(CapExceeded, match=r"^chain enumeration size is 99, "
                       r"above the cap 9 \(MVMLAB_CAP_ENUM_CHAIN\)$"):
        enumerate_chain(99)
    assert FILTERS == ("all", "si-necessary", "si", "positive")


# ---------------------------------------------------------------------------
# independent completeness oracle: generate-then-filter from scratch

def _naive_monoid_tables(join, meet, unit):
    """All commutative monoid tables on 0..n-1 with the given unit that
    distribute over join and meet, by raw scan (no pruning)."""
    n = len(join)
    cells = [(i, j) for i in range(n) for j in range(i, n)
             if unit not in (i, j)]
    out = []
    for values in itertools.product(range(n), repeat=len(cells)):
        t = [[0] * n for _ in range(n)]
        for i in range(n):
            t[unit][i] = t[i][unit] = i
        for (i, j), v in zip(cells, values):
            t[i][j] = t[j][i] = v
        if any(t[t[a][b]][c] != t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            continue
        if any(t[a][join[b][c]] != join[t[a][b]][t[a][c]]
               or t[a][meet[b][c]] != meet[t[a][b]][t[a][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            continue
        out.append(tuple(tuple(r) for r in t))
    return out


def _reference_monoid_tables(join, meet, unit, order):
    """The same tables by the generator the census used before the checks
    moved into the fill: row-major in `order`, each cell bounded below by
    the filled cells at the lower covers, associativity and distributivity
    checked on complete tables only."""
    n = len(order)
    leq = [[join[a][b] == b for b in range(n)] for a in range(n)]
    above = [[v for v in order if leq[a][v]] for a in range(n)]
    below = lower_covers(join)
    incomparable = [(b, c) for b in range(n) for c in range(b + 1, n)
                    if not leq[b][c] and not leq[c][b]]
    top = order[-1]
    t = [[None] * n for _ in range(n)]
    for i in range(n):
        t[top][i] = t[i][top] = top
        t[unit][i] = t[i][unit] = i
    inner = order[1:-1]
    cells = [(i, j, [(a, j) for a in below[i]] + [(i, b) for b in below[j]])
             for k, i in enumerate(inner) for j in inner[k:]]
    out = []

    def leaf_ok():
        for a in inner:
            ta = t[a]
            for b in inner:
                tab = t[ta[b]]
                tb = t[b]
                for c in inner:
                    if tab[c] != ta[tb[c]]:
                        return False
            for b, c in incomparable:
                if (ta[join[b][c]] != join[ta[b]][ta[c]]
                        or ta[meet[b][c]] != meet[ta[b]][ta[c]]):
                    return False
        return True

    def fill(idx):
        if idx == len(cells):
            if leaf_ok():
                out.append(tuple(map(tuple, t)))
            return
        i, j, lower = cells[idx]
        lo = join[i][j]
        for a, b in lower:
            lo = join[lo][t[a][b]]
        for v in above[lo]:
            t[i][j] = t[j][i] = v
            fill(idx + 1)

    fill(0)
    return sorted(out)


_SMALL_LATTICES = {
    "2x3": lambda: product(ln_plus(1), ln_plus(2)),
    "2^3": lambda: functools.reduce(product, [ln_plus(1)] * 3),
    "2x4": lambda: product(ln_plus(1), ln_plus(3)),
    "3x3": lambda: product(ln_plus(2), ln_plus(2)),
}


@pytest.mark.parametrize("which", [*range(2, 8), "diamond",
                                   *_SMALL_LATTICES])
def test_monoid_tables_match_the_leaf_check_generator(diamond, which):
    # both calls, the additive and the multiplicative (the order dual's)
    if which == "diamond":
        L = diamond
    elif which in _SMALL_LATTICES:
        L = _SMALL_LATTICES[which]()
    else:
        L = ln_plus(which - 1)
    order = sorted(range(L.size), key=L.heights().__getitem__)
    for args in [(L.join, L.meet, L.zero, order),
                 (L.meet, L.join, L.one, order[::-1])]:
        got = _monoid_tables(*args)
        assert got == _reference_monoid_tables(*args), (which, args)
        # equal rows are one object
        rows = [r for t in got for r in t]
        assert len({id(r) for r in rows}) == len(set(rows))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_naive_generate_then_filter(n):
    join, meet = ln_plus(n - 1).join, ln_plus(n - 1).meet
    expected = set()
    for p in _naive_monoid_tables(join, meet, 0):
        for q in _naive_monoid_tables(join, meet, n - 1):
            A = chain_algebra(n, p, q)
            if satisfies(A, MIXED_ASSOC):
                expected.add((p, q))
    got = {(A.oplus, A.odot) for A in enumerate_chain(n, "all")}
    assert got == expected


# ---------------------------------------------------------------------------
# enumeration over a fixed lattice

def test_two_element_chain_supports_exactly_the_boolean_algebra():
    out = enumerate_on_lattice(ln_plus(1), "all")
    assert len(out) == 1
    assert canonical_key(out[0]) == canonical_key(ln_plus(1))


def test_diamond_lattice_golden(diamond):
    assert len(enumerate_on_lattice(diamond, "all")) == 1
    assert len(enumerate_on_lattice(diamond, "positive")) == 1
    assert enumerate_on_lattice(diamond, "si") == []
    assert enumerate_on_lattice(diamond, "si-necessary") == []
    A = enumerate_on_lattice(diamond, "all")[0]
    assert canonical_key(A) == canonical_key(product(ln_plus(1), ln_plus(1)))


def _keys(algebras):
    return [canonical_key(A) for A in algebras]


def _refined_outputs_are_mv_monoids(out, flt):
    # the pipeline never runs is_mv_monoid, so this check is independent
    return flt == "all" or all(is_mv_monoid(A) for A in out)


_FILTER_HOLDS = {"all": lambda A: True,
                 "si-necessary": si_necessary_condition,
                 "si": lambda A: is_subdirectly_irreducible(A)[0],
                 "positive": is_positive_mv}


@pytest.mark.parametrize("seed", [None, 3, 11])
def test_lattice_enumeration_matches_naive_generate_then_filter(diamond,
                                                                 seed):
    L = diamond if seed is None else shuffled(diamond, seed)
    adds = _naive_monoid_tables(L.join, L.meet, L.zero)
    muls = _naive_monoid_tables(L.join, L.meet, L.one)
    # the connecting axioms happen to reject the non-distributive tables on
    # this lattice, so the generator is compared on its own as well
    order = sorted(range(L.size), key=L.height)
    assert _monoid_tables(L.join, L.meet, L.zero, order) == sorted(adds)
    assert _monoid_tables(L.meet, L.join, L.one, order[::-1]) == sorted(muls)
    for flt in FILTERS:
        expected = set()
        for p in adds:
            for q in muls:
                A = FiniteAlgebra(L.size, L.zero, L.one, p, q, L.join,
                                  L.meet)
                full = (satisfies(A, MIXED_ASSOC)
                        if flt == "all" else is_mv_monoid(A))
                if full and _FILTER_HOLDS[flt](A):
                    expected.add(canonical_key(A))
        out = enumerate_on_lattice(L, flt)
        assert _keys(out) == sorted(expected), flt
        assert _refined_outputs_are_mv_monoids(out, flt)


def test_lattice_enumeration_agrees_with_chain_enumeration():
    # feeding a chain lattice, in any labelling, must reproduce the chain
    # enumeration class for class
    for n in (2, 3, 4, 5):
        for flt in FILTERS:
            want = sorted(_keys(enumerate_chain(n, flt)))
            for L in (ln_plus(n - 1), shuffled(ln_plus(n - 1), n)):
                out = enumerate_on_lattice(L, flt)
                assert _keys(out) == want, (n, flt, L.join)
                assert _refined_outputs_are_mv_monoids(out, flt)


def test_lattice_enumeration_cap():
    # 9 elements are under the cap, 10 above it
    assert len(enumerate_on_lattice(product(ln_plus(2), ln_plus(2)),
                                    "positive")) == 3
    with pytest.raises(CapExceeded):
        enumerate_on_lattice(product(ln_plus(1), ln_plus(4)), "all")


# ---------------------------------------------------------------------------
# the joint (oplus, odot) search against the pair loop it replaced

def _mixed_assoc_ok(n, p, q):
    # the two mixed-associativity connecting axioms, on the raw tables
    for x in range(n):
        for y in range(n):
            pxy, qxy = p[x][y], q[x][y]
            for z in range(n):
                if q[pxy][p[qxy][z]] != p[q[x][p[y][z]]][q[y][z]]:
                    return False
                if p[qxy][q[pxy][z]] != q[p[x][q[y][z]]][p[y][z]]:
                    return False
    return True


def _truncation_ok(n, join, meet, p, q):
    # the two truncation connecting axioms ((x*y)+z = (...) v z and its dual)
    for x in range(n):
        for y in range(n):
            pxy, qxy = p[x][y], q[x][y]
            for z in range(n):
                if p[qxy][z] != join[q[pxy][p[qxy][z]]][z]:
                    return False
                if q[pxy][z] != meet[p[qxy][q[pxy][z]]][z]:
                    return False
    return True


def _reference_pairs(join, meet, zero, one, order, flt):
    """Every (oplus, odot) pair of monoid tables, each tested in full."""
    n = len(order)
    adds = _monoid_tables(join, meet, zero, order)
    muls = _monoid_tables(meet, join, one, order[::-1])
    return [(p, q) for p in adds for q in muls
            if _mixed_assoc_ok(n, p, q)
            and (flt == "all" or _truncation_ok(n, join, meet, p, q))]


def _judged(args, pairs, flt):
    # each pair with the public predicate run on its own algebra
    join, meet, zero, one, order = args
    return [(p, q, _public_verdict(FiniteAlgebra(len(order), zero, one, p, q,
                                                 join, meet), flt))
            for p, q in pairs]


def _chain_args(n):
    return max_table(n), min_table(n), 0, n - 1, list(range(n))


def _chain_pairs(n, flt):
    # the pair stage as `enumerate_chain` runs it, mirrored through the
    # order reversal of the chain: (oplus, odot, verdict) triples
    return list(_pairs(*_chain_args(n), flt, delta=list(range(n))[::-1]))


@pytest.mark.parametrize("n", range(1, 7))
def test_joint_search_matches_the_pair_loop_on_chains(n):
    for flt in FILTERS:
        want = _judged(_chain_args(n),
                       _reference_pairs(*_chain_args(n), flt), flt)
        assert _chain_pairs(n, flt) == want, flt
        assert list(_pairs(*_chain_args(n), flt)) == want, flt
        expected = [(f"chain{n}_{k}", p, q)
                    for k, (p, q, kept) in enumerate(want) if kept]
        got = [(A.name, A.oplus, A.odot) for A in enumerate_chain(n, flt)]
        assert got == expected, flt


def _downset_algebra(labels, leq_pairs):
    # the lattice of downsets of a poset, as join/meet tables
    sets = sorted(Poset(labels, leq_pairs).downsets(),
                  key=lambda s: (len(s), sorted(s)))
    idx = {s: i for i, s in enumerate(sets)}
    join = [[idx[a | b] for b in sets] for a in sets]
    meet = [[idx[a & b] for b in sets] for a in sets]
    return make_algebra(len(sets), 0, len(sets) - 1, join, meet, join=join,
                        meet=meet)


_NON_CHAIN_POSETS = {
    "V": ("abc", [("a", "b"), ("a", "c")]),       # 5 downsets
    "wedge": ("abc", [("a", "c"), ("b", "c")]),   # 5 downsets
    "2+1": ("abc", [("a", "b")]),                 # the 2x3 grid
}


@pytest.mark.parametrize("which", ["diamond", "diamond/3", "diamond/11",
                                   "diamond/29", *_NON_CHAIN_POSETS])
def test_joint_search_matches_the_pair_loop_on_lattices(diamond, which):
    if which.startswith("diamond"):
        _, _, seed = which.partition("/")
        L = shuffled(diamond, int(seed)) if seed else diamond
    else:
        L = _downset_algebra(*_NON_CHAIN_POSETS[which])
    order = sorted(range(L.size), key=L.height)
    args = (L.join, L.meet, L.zero, L.one, order)
    for flt in FILTERS:
        want = _judged(args, _reference_pairs(*args, flt), flt)
        assert list(_pairs(*args, flt)) == want, flt
        found = {}
        for p, q, kept in want:
            A = FiniteAlgebra(L.size, L.zero, L.one, p, q, L.join, L.meet)
            if kept:
                found.setdefault(canonical_key(A), (p, q))
        got = [(A.oplus, A.odot) for A in enumerate_on_lattice(L, flt)]
        assert got == [found[k] for k in sorted(found)], flt


def test_almost_minimal_varieties_are_defined_by_their_equations(diamond):
    # V(C_delta) is the class of MV-monoids with x + x = x, and V(C_nabla)
    # dually with x * x = x: membership by SI classes against the equations,
    # on every MV-monoid chain of at most 6 elements and every MV-monoid on
    # the off-chain lattices above
    algebras = [A for n in range(1, 7) for A in enumerate_chain(n, "all")]
    lattices = [diamond, *(_downset_algebra(*_NON_CHAIN_POSETS[name])
                           for name in _NON_CHAIN_POSETS)]
    off_chain = [A for L in lattices for A in enumerate_on_lattice(L, "all")]
    algebras = [A for A in algebras + off_chain if is_mv_monoid(A)]
    assert len(algebras) == 533 + len(off_chain)
    for gen, eq in ((cn_delta(2), parse("x + x ≈ x")),
                    (cn_nabla(2), parse("x * x ≈ x"))):
        verdicts = [member_of_variety(A, [gen]) for A in algebras]
        assert verdicts == [bool(satisfies(A, eq)) for A in algebras], gen
        assert 0 < sum(verdicts) < len(algebras)


@pytest.mark.parametrize("N, primes", [
    (7, [2, 3, 5]), pytest.param(8, [2, 3, 5, 7], marks=pytest.mark.slow)])
def test_almost_minimal_si_chains_are_the_c3s_and_the_prime_lp(N, primes):
    # the covers of V(L1+) among the SI chains of 2..N elements, those whose
    # only other SI member of their HS closure is L1+: C_delta, C_nabla and
    # L_p+ for p prime; every SI chain of 3..N elements lies above one
    # (opt in to N = 8 with -m slow: about 4 s)
    l1 = canonical_key(ln_plus(1))
    chains = [A for n in range(2, N + 1) for A in enumerate_chain(n, "si")]
    covers = [A for A in chains
              if set(si_members([A])) - {canonical_key(A)} == {l1}]
    want = [cn_delta(2), cn_nabla(2), *map(ln_plus, primes)]
    assert sorted(map(canonical_key, covers)) == \
        sorted(map(canonical_key, want))
    keys = set(map(canonical_key, want))
    for A in chains:
        if A.size >= 3:
            assert keys & set(hs_closure([A])), A.name


def _chain_dual(t):
    n = len(t)
    return tuple(tuple(n - 1 - t[n - 1 - i][n - 1 - j] for j in range(n))
                 for i in range(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_order_duality_maps_the_all_output_onto_itself(n):
    # reversing the chain swaps the roles of oplus and odot; every axiom of
    # the "all" filter has its dual among them
    pairs = {(p, q) for p, q, _ in _chain_pairs(n, "all")}
    assert {(_chain_dual(q), _chain_dual(p)) for p, q in pairs} == pairs


@pytest.mark.parametrize("n", range(1, 6))
def test_pair_stage_matches_satisfies_on_every_pair_of_tables(n):
    # brute force over all pairs of monoid tables, each algebra checked by
    # the term engine on the connecting axioms written out above
    join, meet, zero, one, order = _chain_args(n)
    tables = [(p, q) for p in _monoid_tables(join, meet, zero, order)
              for q in _monoid_tables(meet, join, one, order[::-1])]

    def holds(p, q, equations):
        A = chain_algebra(n, p, q)
        return bool(satisfies(A, equations))

    relaxed = [(p, q) for p, q in tables if holds(p, q, MIXED_ASSOC)]
    full = [(p, q) for p, q in relaxed if holds(p, q, TRUNCATION)]
    for flt in FILTERS:
        want = relaxed if flt == "all" else full
        assert [(p, q) for p, q, _ in _chain_pairs(n, flt)] == want, flt
        # sigma(p, q) = (q^delta, p^delta) maps the passing pairs onto
        # themselves: the mirrored walk rests on this
        assert {(_chain_dual(q), _chain_dual(p)) for p, q in want} \
            == set(want), flt


def _monotone_unital_tables(join, unit):
    """Every commutative table with the given unit that is monotone in each
    argument for the order of `join`, by backtracking on monotonicity
    alone: neither associativity nor distributivity is asked for."""
    n = len(join)
    leq = [[join[a][b] == b for b in range(n)] for a in range(n)]
    t = [[None] * n for _ in range(n)]
    for i in range(n):
        t[unit][i] = t[i][unit] = i
    cells = [(i, j) for i in range(n) for j in range(i, n)
             if unit not in (i, j)]
    out = []

    def monotone_at(i, j):
        v = t[i][j]
        for a in range(n):
            for b, w in enumerate(t[a]):
                if w is None:
                    continue
                if leq[a][i] and leq[b][j] and not leq[w][v]:
                    return False
                if leq[i][a] and leq[j][b] and not leq[v][w]:
                    return False
        return True

    def fill(k):
        if k == len(cells):
            out.append(tuple(map(tuple, t)))
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = t[j][i] = v
            if monotone_at(i, j):
                fill(k + 1)
        t[i][j] = t[j][i] = None

    fill(0)
    return out


def _associative(t):
    r = range(len(t))
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in r for b in r for c in r)


@pytest.mark.parametrize("which, tables, passing, unassociative", [
    (2, 1, 1, 0), (3, 2, 4, 0), (4, 7, 23, 4), (5, 42, 185, 67),
    ("diamond", 4, 1, 0)])
def test_first_mixed_associativity_implies_the_second(diamond, which, tables,
                                                      passing, unassociative):
    # the lemma in the `_pairs` docstring, checked by the term engine on
    # every pair of commutative monotone tables with units 0 and 1,
    # associative or not, distributive or not
    L = diamond if which == "diamond" else ln_plus(which - 1)
    adds = _monotone_unital_tables(L.join, L.zero)
    muls = _monotone_unital_tables(L.join, L.one)
    assert len(adds) == len(muls) == tables
    algebras = [FiniteAlgebra(L.size, L.zero, L.one, p, q, L.join, L.meet)
                for p in adds for q in muls]
    first = [A for A in algebras if satisfies(A, MIXED_ASSOC[0])]
    assert len(first) == passing
    assert sum(not (_associative(A.oplus) and _associative(A.odot))
               for A in first) == unassociative
    for A in first:
        assert satisfies(A, MIXED_ASSOC[1]), (A.oplus, A.odot)


def _monotone_unital_algebras(L):
    # every pair of commutative monotone tables on L with units 0 and 1
    return [FiniteAlgebra(L.size, L.zero, L.one, p, q, L.join, L.meet)
            for p in _monotone_unital_tables(L.join, L.zero)
            for q in _monotone_unital_tables(L.join, L.one)]


@pytest.mark.parametrize("which, failing", [
    (2, 0), (3, 0), (4, 12), (5, 970), ("diamond", 0)])
def test_truncation_holds_at_sum_one_or_product_zero(diamond, which,
                                                     failing):
    # the truncation lemma in the `_pairs` docstring, checked by the term
    # engine on every pair of commutative monotone tables with units 0 and
    # 1, associative or not, distributive or not
    L = diamond if which == "diamond" else ln_plus(which - 1)
    laws = [parse(f"{premise} => {law.format(a='x', b='y')}")
            for law in _TRUNCATION_LAWS
            for premise in ("x + y ≈ 1", "x * y ≈ 0")]
    algebras = _monotone_unital_algebras(L)
    for A in algebras:
        for law in laws:
            assert satisfies(A, law), (A.oplus, A.odot, law)
    assert sum(not satisfies(A, TRUNCATION) for A in algebras) == failing


@pytest.mark.parametrize("which", [
    2, 3, 4, pytest.param(5, marks=pytest.mark.slow), "diamond"])
def test_truncation_reads_x_and_y_through_their_sum_and_product(diamond,
                                                                which):
    # the verdict of (C) and (D) at (x, y, z) is their verdict at every
    # (x3, x4, z) with the same sum and product (opt in to the 5-chain with
    # -m slow: about 8 s, for 5^5 assignments on 1764 algebras)
    L = diamond if which == "diamond" else ln_plus(which - 1)
    laws = [parse(f"x + y ≈ x3 + x4 & x * y ≈ x3 * x4 & "
                  f"{law.format(a='x', b='y')} => "
                  f"{law.format(a='x3', b='x4')}")
            for law in _TRUNCATION_LAWS]
    for A in _monotone_unital_algebras(L):
        for law in laws:
            assert satisfies(A, law), (A.oplus, A.odot, law)


# ---------------------------------------------------------------------------
# the mirrored census: odot tables as order duals, one verdict per mirror pair

@pytest.mark.parametrize("n", range(1, 9))
def test_dual_tables_are_the_multiplicative_tables(n):
    join, meet, zero, one, order = _chain_args(n)
    adds = _monoid_tables(join, meet, zero, order)
    delta = order[::-1]
    muls, rank = _dual_tables(adds, delta)
    assert muls == _monoid_tables(meet, join, one, order[::-1])
    assert [dual_table(t, delta) for t in muls] == [adds[k] for k in rank]
    # equal rows are one object, as in _monoid_tables
    rows = [r for t in muls for r in t]
    assert len({id(r) for r in rows}) == len(set(rows))


def _mirror(pair):
    p, q = pair
    return _chain_dual(q), _chain_dual(p)


@pytest.mark.parametrize("n", range(1, 7))
def test_refined_filters_read_the_same_on_a_pair_and_its_mirror(n):
    # the verdict recorded for a mirror image is its twin's
    full = _reference_pairs(*_chain_args(n), "si")
    for p, q in full:
        A = chain_algebra(n, p, q)
        D = order_dual(A)
        assert (D.oplus, D.odot) == _mirror((p, q))
        for flt in FILTERS[1:]:
            assert _table_verdict(A, flt) == _table_verdict(D, flt), \
                (flt, p, q)


def _recorded_verdicts(monkeypatch, enumerate_):
    """(filter, oplus, odot, verdict) of each pair the filter runs on during
    enumerate_(), and the arguments of each `_monoid_tables` call."""
    runs, generated = [], []

    def verdict(flt, join, zero, one):
        real = _verdict(flt, join, zero, one)

        def recorded(p, q):
            kept = real(p, q)
            runs.append((flt, p, q, kept))
            return kept
        return recorded

    def generate(*args):
        generated.append(args)
        return _monoid_tables(*args)

    with monkeypatch.context() as m:
        m.setattr(enumeration, "_verdict", verdict)
        m.setattr(enumeration, "_monoid_tables", generate)
        enumerate_()
    return runs, generated


def _si_filter_runs(monkeypatch, enumerate_):
    """(oplus, odot, step table, verdict) of each pair the "si" filter runs
    on during enumerate_(), the step table the one it reads off the pair's
    two tables."""
    steps = []

    def monolith_of(step):
        steps.append(step)
        return congruences._monolith_of(step)

    with monkeypatch.context() as m:
        m.setattr(enumeration, "_monolith_of", monolith_of)
        runs, _ = _recorded_verdicts(m, enumerate_)
    return [(p, q, step, kept)
            for (flt, p, q, kept), step in zip(runs, steps, strict=True)]


def _check_si_filter_runs(runs, join, meet, zero, one, order):
    for p, q, step, kept in runs:
        fresh = FiniteAlgebra(len(order), zero, one, p, q, join, meet)
        assert fresh._cache == {}
        # up to each label's own bit, which every closure holds: `_steps`
        # drops a + or * table equal to join or meet
        down, want = congruences._steps(fresh)
        assert len(step) == len(want) == down[one].bit_count()
        assert [s | 1 << k for k, s in enumerate(step)] == \
            [s | 1 << k for k, s in enumerate(want)], (p, q)
        assert is_subdirectly_irreducible(fresh)[0] == kept, (p, q)


@pytest.mark.parametrize("n", range(1, 7))
def test_the_si_filter_reads_the_seeded_step_tables_on_chains(monkeypatch,
                                                             n):
    runs = _si_filter_runs(monkeypatch, lambda: enumerate_chain(n, "si"))
    _check_si_filter_runs(runs, *_chain_args(n))
    assert sum(kept for *_, kept in runs) >= (n > 1)


@pytest.mark.parametrize("which", ["diamond", "2x3", "2^3"])
def test_the_si_filter_reads_the_seeded_step_tables_on_lattices(
        monkeypatch, diamond, which):
    two = ln_plus(1)
    L = {"diamond": diamond, "2x3": product(two, ln_plus(2)),
         "2^3": functools.reduce(product, [two] * 3)}[which]
    runs = _si_filter_runs(monkeypatch,
                           lambda: enumerate_on_lattice(L, "si"))
    assert runs
    _check_si_filter_runs(runs, L.join, L.meet, L.zero, L.one, range(L.size))


@pytest.mark.parametrize("n, flt, classes", [
    (6, "si-necessary", 219), (6, "si", 219), (6, "positive", 219),
    (7, "si", 1192)])
def test_the_filter_runs_once_per_mirror_class(monkeypatch, n, flt, classes):
    # and the monoid tables are generated once, the odot ones as duals
    pairs = [(p, q) for p, q, _ in _chain_pairs(n, flt)]
    mirror_classes = {frozenset({pq, _mirror(pq)}) for pq in pairs}
    out = []
    runs, generated = _recorded_verdicts(
        monkeypatch, lambda: out.extend(enumerate_chain(n, flt)))
    calls = [(p, q) for _, p, q, _ in runs]
    assert len(generated) == 1
    assert len(calls) == len(mirror_classes) == classes
    assert {frozenset({pq, _mirror(pq)}) for pq in calls} == mirror_classes
    # and every verdict, run or recorded, is the filter's own
    assert [(A.oplus, A.odot) for A in out] == \
        [pq for pq in pairs if _public_verdict(chain_algebra(n, *pq), flt)]


def test_the_pair_stage_builds_no_algebra_and_no_partition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an algebra or a partition was built")

    L = _SMALL_LATTICES["2x3"]()
    monkeypatch.setattr(FiniteAlgebra, "__init__", refuse)
    monkeypatch.setattr(congruences.Congruence, "__init__", refuse)
    args = (L.join, L.meet, L.zero, L.one,
            sorted(range(L.size), key=L.height))
    assert [sum(kept for *_, kept in _chain_pairs(6, flt))
            for flt in FILTERS] == [857, 143, 39, 16]
    assert [sum(kept for *_, kept in _pairs(*args, flt))
            for flt in FILTERS] == [4, 0, 0, 2]


def _diamond_under(k):
    # the diamond 0 < {1, 2} < 3 with a k-element chain 3 < 4 < ... above it
    n = 3 + k

    def leq(a, b):
        return a == b or a == 0 or b >= max(a, 3)

    join = [[b if leq(a, b) else a if leq(b, a) else 3 for b in range(n)]
            for a in range(n)]
    meet = [[a if leq(a, b) else b if leq(b, a) else 0 for b in range(n)]
            for a in range(n)]
    return make_algebra(n, 0, n - 1, join, meet, join=join, meet=meet)


@pytest.mark.parametrize("which", [*range(1, 7), "diamond", "2x3", "2^3",
                                   "3x3", "diamond/4"])
def test_the_kept_flags_are_the_public_predicates(diamond, which):
    # every verdict `_pairs` yields, run on the tables or recorded from a
    # mirror image, against the public predicate on a fresh algebra
    if isinstance(which, int):
        args, delta = _chain_args(which), list(range(which))[::-1]
    else:
        L = (diamond if which == "diamond" else _diamond_under(4)
             if which == "diamond/4" else _SMALL_LATTICES[which]())
        order = sorted(range(L.size), key=L.height)
        args, delta = (L.join, L.meet, L.zero, L.one, order), None
    join, meet, zero, one, order = args
    for flt in FILTERS:
        triples = list(_pairs(*args, flt, delta=delta))
        assert triples, flt
        for p, q, kept in triples:
            A = FiniteAlgebra(len(order), zero, one, p, q, join, meet)
            assert kept == _public_verdict(A, flt), (which, flt, p, q)


# ---------------------------------------------------------------------------
# the walk's fixed schedule, on every linear extension of the lattice order

def _linear_extensions(L):
    # every order with the bottom first and the top last that puts each
    # element after the ones below it
    inner = [v for v in range(L.size) if v not in (L.zero, L.one)]
    for perm in itertools.permutations(inner):
        if not any(L.join[b][a] == a
                   for a, b in itertools.combinations(perm, 2)):
            yield [L.zero, *perm, L.one]


def _schedule_cases(diamond):
    # (join, meet, zero, one, order) of the 2- to 6-chains, and of the
    # diamond, 2x3 and 2^3 with every linear extension
    for n in range(2, 7):
        yield _chain_args(n)
    for L in (diamond, _SMALL_LATTICES["2x3"](), _SMALL_LATTICES["2^3"]()):
        for order in _linear_extensions(L):
            yield L.join, L.meet, L.zero, L.one, order


def test_linear_extensions_are_counted_right(diamond):
    assert [len(list(_linear_extensions(L))) for L in
            (diamond, *(make() for make in _SMALL_LATTICES.values()))] == \
        [2, 5, 48, 14, 42]


def test_every_check_enters_once_all_the_cells_it_reads_are_known(diamond):
    # the schedule lemma of `_pairs`, on every pair of monoid tables: odot
    # cells off the current path hold a sibling branch's values, so a check
    # entering before a cell it reads is known would read a stale value
    for join, meet, zero, one, order in _schedule_cases(diamond):
        n = len(order)
        inner = order[1:-1]
        cells, depth, truncation, enter = _schedule(order, "si")
        # the fill order: pass r, later elements first, fills {r, j} for
        # the inner j up to r, j going down; 0 and 1 are known at once
        assert cells == [(r, j) for k, r in enumerate(inner[::-1])
                         for j in inner[::-1][k:]]
        assert depth == [0 if {i, j} & {zero, one} else
                         cells.index((max(i, j, key=order.index),
                                      min(i, j, key=order.index))) + 1
                         for i in range(n) for j in range(n)]
        # every check is listed once: a truncation check per inner cell
        # unless the filter is "all", an (A) instance per (x, y, z) with
        # x != 0, y strictly inside and z != 1
        assert sorted(a for at in truncation for a in at) == \
            sorted(i * n + j for i, j in cells)
        assert not any(_schedule(order, "all")[2])
        assert sorted(item for at in enter for item in at) == \
            sorted((x * n + y, y * n + z, x * n, z) for y in inner
                   for x in order[1:] for z in order[:-1])
        adds = _monoid_tables(join, meet, zero, order)
        muls = _monoid_tables(meet, join, one, order[::-1])
        for p in adds:
            for q in muls:
                for d, items in enumerate(enter):
                    for a, _, _, z in items:
                        # (x + y) * ((x * y) + z) = (x * (y + z)) + (y * z)
                        x, y = divmod(a, n)
                        s, t = p[x][y], q[x][y]
                        reads = [(x, y), (s, p[t][z]), (x, p[y][z]), (y, z)]
                        assert max(depth[i * n + j] for i, j in reads) <= d
                for d, at in enumerate(truncation):
                    for a in at:
                        # (C) and (D) read {x, y} and row x + y of odot
                        s = p[a // n][a % n]
                        assert max(depth[a], *depth[s * n:s * n + n]) <= d


def test_every_table_check_enters_once_all_the_cells_it_reads_are_known(
        diamond):
    # the entry lemma of `_monoid_tables`, for the additive call and the
    # multiplicative one (the order dual's, on the reversed order): a prefix
    # holds at {a, b} an element above a v b (the unit and monotonicity), so
    # checking each of those covers every table prefix
    additive = [(join, meet, order)
                for join, meet, _, _, order in _schedule_cases(diamond)]
    for join, meet, order in additive + [(meet, join, order[::-1])
                                         for join, meet, order in additive]:
        n = len(order)
        inner = order[1:-1]
        cells, depth, assoc, dist = _table_schedule(join, meet, order)
        # one fill order and one depth table for both searches
        assert (cells, depth) == _schedule(order, "si")[:2]
        # every instance is listed once: associativity at (a, b, c) for
        # a, b, c inner and a at or before c, distributivity at
        # (a; b, c) for a inner and b, c incomparable
        assert sorted(item for at in assoc for item in at) == \
            sorted((a * n + b, b * n + c, a * n, c)
                   for a, b, c in itertools.product(inner, repeat=3)
                   if order.index(a) <= order.index(c))
        assert sorted(item for at in dist for item in at) == \
            sorted((a * n + b, a * n + c, a * n + join[b][c],
                    a * n + meet[b][c])
                   for a, b, c in itertools.product(inner, repeat=3)
                   if b < c and join[b][c] not in (b, c))
        known = [[depth[i * n + j] for j in range(n)] for i in range(n)]
        for d, items in enumerate(assoc):
            for ab, bc, _, c in items:
                # t(t(a,b),c) = t(a,t(b,c))
                a, b = divmod(ab, n)
                assert max(known[a][b], known[b][c]) <= d
                for u in order:
                    if join[join[a][b]][u] == u:  # u >= a v b
                        assert known[u][c] <= d, (order, a, b, c, u)
                    if join[join[b][c]][u] == u:  # u >= b v c
                        assert known[a][u] <= d, (order, a, b, c, u)
        for d, items in enumerate(dist):
            for reads in items:
                assert max(depth[k] for k in reads) <= d


@pytest.mark.parametrize("which", ["2x3", "2^3", "3x3"])
def test_pairs_do_not_depend_on_the_linear_extension(which):
    L = _SMALL_LATTICES[which]()
    orders = list(_linear_extensions(L))
    args = (L.join, L.meet, L.zero, L.one, orders[0])
    relaxed = _reference_pairs(*args, "all")
    full = [(p, q) for p, q in relaxed
            if _truncation_ok(L.size, L.join, L.meet, p, q)]
    for flt in FILTERS:
        want = sorted(_judged(args, relaxed if flt == "all" else full, flt))
        for order in orders:
            got = _pairs(L.join, L.meet, L.zero, L.one, order, flt)
            assert sorted(got) == want, (flt, order)


@pytest.mark.parametrize("which", ["2x3", "2^3", "2x4", "3x3"])
def test_monoid_tables_do_not_depend_on_the_linear_extension(which):
    L = _SMALL_LATTICES[which]()
    orders = list(_linear_extensions(L))
    adds = _monoid_tables(L.join, L.meet, L.zero, orders[0])
    muls = _monoid_tables(L.meet, L.join, L.one, orders[0][::-1])
    for order in orders[1:]:
        assert _monoid_tables(L.join, L.meet, L.zero, order) == adds, order
        assert _monoid_tables(L.meet, L.join, L.one, order[::-1]) == muls, \
            order
