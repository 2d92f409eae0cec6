import itertools

import pytest

from mvmlab import (canonical_key, chain_algebra, enumerate_chain,
                    enumerate_on_lattice, is_mv_monoid, is_positive_mv,
                    is_simple, is_subdirectly_irreducible, ln_plus, parse,
                    product, satisfies, si_necessary_condition)
from mvmlab.enumeration import FILTERS
from mvmlab.errors import CapExceeded

# the two connecting-axiom groups, written out for an independent check
MIXED_ASSOC = [parse("(x + y) * ((x * y) + z) ≈ (x * (y + z)) + (y * z)"),
               parse("(x * y) + ((x + y) * z) ≈ (x + (y * z)) * (y + z)")]
TRUNCATION = [parse("(x * y) + z ≈ ((x + y) * ((x * y) + z)) v z"),
              parse("(x + y) * z ≈ ((x * y) + ((x + y) * z)) ^^ z")]


def test_counts_per_size():
    assert [len(enumerate_chain(n, "all")) for n in range(1, 6)] == \
        [1, 1, 4, 19, 118]
    assert [len(enumerate_chain(n, "si-necessary")) for n in range(1, 6)] == \
        [0, 1, 3, 9, 35]
    assert [len(enumerate_chain(n, "si")) for n in range(1, 6)] == \
        [0, 1, 3, 7, 19]
    assert [len(enumerate_chain(n, "positive")) for n in range(1, 6)] == \
        [1, 1, 2, 4, 8]


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
    with pytest.raises(CapExceeded):
        enumerate_chain(99)
    assert FILTERS == ("all", "si-necessary", "si", "positive")


# ---------------------------------------------------------------------------
# independent completeness oracle: generate-then-filter from scratch

def _naive_monoid_tables(n, unit):
    """All commutative monoid tables on 0..n-1 with the given unit that
    distribute over max and min, by raw scan (no pruning)."""
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
        if any(t[a][max(b, c)] != max(t[a][b], t[a][c])
               or t[a][min(b, c)] != min(t[a][b], t[a][c])
               for a in range(n) for b in range(n) for c in range(n)):
            continue
        out.append(tuple(tuple(r) for r in t))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_naive_generate_then_filter(n):
    expected = set()
    for p in _naive_monoid_tables(n, 0):
        for q in _naive_monoid_tables(n, n - 1):
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


def test_lattice_enumeration_agrees_with_chain_enumeration():
    # feeding a chain lattice must reproduce the chain counts
    for n in (3, 4):
        out = enumerate_on_lattice(ln_plus(n - 1), "all")
        assert len(out) == len(enumerate_chain(n, "all"))


def test_lattice_enumeration_cap(diamond):
    with pytest.raises(CapExceeded):
        enumerate_on_lattice(ln_plus(7), "all")
