import pytest

from mvmlab import (canonical_key, catalog, cn_delta, hs_closure,
                    homomorphisms, ln_plus, lm_delta, product, si_poset,
                    trivial_algebra)
from mvmlab.cli import identify
from mvmlab.errors import CapExceeded


def names_of(keyed):
    return sorted(identify(A) for A in keyed.values())


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


def test_homomorphism_cap():
    with pytest.raises(CapExceeded):
        homomorphisms(ln_plus(8), ln_plus(8))


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


def test_hs_closure_of_a_product_contains_both_factors():
    P = product(ln_plus(1), ln_plus(2))
    closure = hs_closure([P])
    for A in (ln_plus(1), ln_plus(2)):
        assert canonical_key(A) in closure


# ---------------------------------------------------------------------------
# SI poset

def test_si_poset_of_small_chains():
    P = si_poset([ln_plus(1), ln_plus(2), ln_plus(3)])
    k = {n: canonical_key(ln_plus(n)) for n in (1, 2, 3)}
    assert len(P) == 3
    assert P.leq(k[1], k[2]) and P.leq(k[1], k[3])
    assert not P.leq(k[2], k[3]) and not P.leq(k[3], k[2])
    assert P.minimal() == [k[1]]


def test_si_poset_deduplicates_iso_classes():
    P = si_poset([ln_plus(2), catalog("L2+")])
    assert len(P) == 1


def test_si_poset_warns_on_non_si_input():
    with pytest.warns(UserWarning):
        si_poset([lm_delta(3)])
