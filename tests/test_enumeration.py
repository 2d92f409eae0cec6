import itertools

import pytest

from mvmlab import (Poset, canonical_key, chain_algebra, enumerate_chain,
                    enumerate_on_lattice, is_mv_monoid, is_positive_mv,
                    is_simple, is_subdirectly_irreducible, ln_plus,
                    make_algebra, parse, product, satisfies,
                    si_necessary_condition)
from mvmlab.algebra import max_table, min_table
from mvmlab.enumeration import FILTERS, _monoid_tables, _pairs, _passes
from mvmlab.errors import CapExceeded

from conftest import shuffled

# the two connecting-axiom groups, written out for an independent check
MIXED_ASSOC = [parse("(x + y) * ((x * y) + z) ≈ (x * (y + z)) + (y * z)"),
               parse("(x * y) + ((x + y) * z) ≈ (x + (y * z)) * (y + z)")]
TRUNCATION = [parse("(x * y) + z ≈ ((x + y) * ((x * y) + z)) v z"),
              parse("(x + y) * z ≈ ((x * y) + ((x + y) * z)) ^^ z")]


def test_counts_per_size():
    assert [len(enumerate_chain(n, "all")) for n in range(1, 8)] == \
        [1, 1, 4, 19, 118, 857, 7235]
    assert [len(enumerate_chain(n, "si-necessary")) for n in range(1, 8)] == \
        [0, 1, 3, 9, 35, 143, 683]
    assert [len(enumerate_chain(n, "si")) for n in range(1, 8)] == \
        [0, 1, 3, 7, 19, 39, 107]
    assert [len(enumerate_chain(n, "positive")) for n in range(1, 8)] == \
        [1, 1, 2, 4, 8, 16, 32]


@pytest.mark.slow
def test_eight_element_chain_census():
    # opt in with -m slow: about 15 s
    assert len(enumerate_chain(8, "si")) == 207
    positive = enumerate_chain(8, "positive")
    assert len(positive) == 64
    L = ln_plus(7)
    assert [(A.oplus, A.odot) for A in positive
            if is_subdirectly_irreducible(A)[0]] == [(L.oplus, L.odot)]


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
        assert all(satisfies(A, e) for e in MIXED_ASSOC)
        if all(satisfies(A, e) for e in TRUNCATION):
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
                       r"above the cap 8 \(MVMLAB_CAP_ENUM_CHAIN\)$"):
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_naive_generate_then_filter(n):
    join, meet = ln_plus(n - 1).join, ln_plus(n - 1).meet
    expected = set()
    for p in _naive_monoid_tables(join, meet, 0):
        for q in _naive_monoid_tables(join, meet, n - 1):
            A = chain_algebra(n, p, q, validate=False)
            if all(satisfies(A, e) for e in MIXED_ASSOC):
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
                A = make_algebra(L.size, L.zero, L.one, p, q, join=L.join,
                                 meet=L.meet, validate=False)
                full = (all(satisfies(A, e) for e in MIXED_ASSOC)
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


def test_lattice_enumeration_cap(diamond):
    with pytest.raises(CapExceeded):
        enumerate_on_lattice(ln_plus(7), "all")


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


def _chain_args(n):
    return max_table(n), min_table(n), 0, n - 1, list(range(n))


def _chain_pairs(n, flt):
    # the pair stage as `enumerate_chain` runs it, mirrored through the
    # order reversal of the chain
    return list(_pairs(*_chain_args(n), flt, delta=list(range(n))[::-1]))


@pytest.mark.parametrize("n", range(1, 7))
def test_joint_search_matches_the_pair_loop_on_chains(n):
    for flt in FILTERS:
        want = _reference_pairs(*_chain_args(n), flt)
        assert _chain_pairs(n, flt) == want, flt
        assert list(_pairs(*_chain_args(n), flt)) == want, flt
        expected = [(f"chain{n}_{k}", p, q) for k, (p, q) in enumerate(want)
                    if _passes(chain_algebra(n, p, q, validate=False), flt)]
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
        want = _reference_pairs(*args, flt)
        assert list(_pairs(*args, flt)) == want, flt
        found = {}
        for p, q in want:
            A = make_algebra(L.size, L.zero, L.one, p, q, join=L.join,
                             meet=L.meet, validate=False)
            if _passes(A, flt):
                found.setdefault(canonical_key(A), (p, q))
        got = [(A.oplus, A.odot) for A in enumerate_on_lattice(L, flt)]
        assert got == [found[k] for k in sorted(found)], flt


def _chain_dual(t):
    n = len(t)
    return tuple(tuple(n - 1 - t[n - 1 - i][n - 1 - j] for j in range(n))
                 for i in range(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_order_duality_maps_the_all_output_onto_itself(n):
    # reversing the chain swaps the roles of oplus and odot; every axiom of
    # the "all" filter has its dual among them
    pairs = set(_chain_pairs(n, "all"))
    assert {(_chain_dual(q), _chain_dual(p)) for p, q in pairs} == pairs


@pytest.mark.parametrize("n", range(1, 6))
def test_pair_stage_matches_satisfies_on_every_pair_of_tables(n):
    # brute force over all pairs of monoid tables, each algebra checked by
    # the term engine on the connecting axioms written out above
    join, meet, zero, one, order = _chain_args(n)
    tables = [(p, q) for p in _monoid_tables(join, meet, zero, order)
              for q in _monoid_tables(meet, join, one, order[::-1])]

    def holds(p, q, equations):
        A = chain_algebra(n, p, q, validate=False)
        return all(satisfies(A, e) for e in equations)

    relaxed = [(p, q) for p, q in tables if holds(p, q, MIXED_ASSOC)]
    full = [(p, q) for p, q in relaxed if holds(p, q, TRUNCATION)]
    for flt in FILTERS:
        want = relaxed if flt == "all" else full
        assert _chain_pairs(n, flt) == want, flt
        # sigma(p, q) = (q^delta, p^delta) maps the passing pairs onto
        # themselves: the mirrored walk rests on this
        assert {(_chain_dual(q), _chain_dual(p)) for p, q in want} \
            == set(want), flt
