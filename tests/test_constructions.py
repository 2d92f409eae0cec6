from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (algebra_tables, extend, random_chain_tables,
                      reference_subalgebras, reference_subuniverses,
                      seeded_lattice_tables, shuffled, si_chain_pairs,
                      si_product_family, unskipped_subalgebras)
from mvmlab import (are_isomorphic, canonical_key, catalog, catalog_names,
                    cn_delta, cn_delta_star, cn_nabla, cn_nabla_star,
                    gamma_of_lex, is_mv_monoid, lm_delta, lm_delta_star,
                    lm_nabla, lm_nabla_star, ln_plus, monolith, product,
                    quotient, subalgebras, trivial_algebra)
from mvmlab.congruences import total_congruence
from mvmlab.constructions import (_subalgebra_classes, subuniverse_closure,
                                  trivial_lmonoid)
from mvmlab.errors import (CapExceeded, MalformedDocument, NotACongruence,
                           TableOutOfRange, UnknownName)


def test_ln_plus_matches_unit_interval_arithmetic():
    # element i is the fraction i/n; oplus/odot are truncated +/- in [0, 1]
    for n in range(1, 7):
        A = ln_plus(n)
        for i in range(n + 1):
            for j in range(n + 1):
                x, y = Fraction(i, n), Fraction(j, n)
                assert A.oplus[i][j] == min(x + y, 1) * n
                assert A.odot[i][j] == max(x + y - 1, 0) * n


def test_cn_delta_tables():
    A = cn_delta(3)  # 0 < e < 2e < 1
    assert A.oplus[1][1] == 2 and A.oplus[1][2] == 2  # clamps at 2e
    assert A.oplus[1][3] == 3  # 1 absorbs
    assert A.odot[1][2] == 0 and A.odot[3][2] == 2  # 1 is the *-unit


def test_cn_nabla_tables():
    A = cn_nabla(3)  # 0 < d^2 < d < 1
    assert A.oplus[1][2] == 3  # nonzero powers sum to 1
    assert A.odot[2][2] == 1  # d * d = d^2
    assert A.odot[2][1] == 1  # d * d^2 clamps at d^2
    assert A.odot[0][2] == 0 and A.oplus[0][2] == 2


def test_degenerate_chains():
    assert lm_delta(3).oplus == lm_delta(3).join
    assert lm_nabla(3).odot == lm_nabla(3).meet
    assert lm_delta(3).odot[1][2] == 0
    assert lm_nabla(3).oplus[1][2] == 4 - 1


def test_invalid_parameters():
    for build in (ln_plus, cn_delta, cn_nabla, lm_delta, lm_nabla):
        with pytest.raises(MalformedDocument,
                           match=rf"^{build.__name__} needs n >= 1$"):
            build(0)


def test_parametric_tables_are_capped_before_they_are_built(monkeypatch):
    # (n+1)**2 cells, the 2-variable assignments: n <= 4095 by default
    monkeypatch.delenv("MVMLAB_CAP_ASSIGNMENTS", raising=False)
    for build in (ln_plus, cn_delta, cn_nabla, lm_delta, lm_nabla):
        name = build.__name__
        with pytest.raises(CapExceeded, match=rf"^the number of assignments "
                           rf"to 2 variables over the 4097 elements of "
                           rf"{name}\(4096\) is 16785409, above the cap "
                           rf"16777216 \(MVMLAB_CAP_ASSIGNMENTS\)$"):
            build(4096)
        with pytest.raises(CapExceeded):
            build(10 ** 100)
    monkeypatch.setenv("MVMLAB_CAP_ASSIGNMENTS", "16")
    assert ln_plus(3).size == 4
    with pytest.raises(CapExceeded):
        lm_nabla(4)


def test_catalog_names_and_aliases():
    names = catalog_names()
    assert len(names) == 15
    assert {"L1+", "L2+", "L3+", "L2", "C2d", "C2n", "C3d", "C3n",
            "A3d", "A3n", "B3d", "B3n", "LM3d", "LM3n", "trivial"} == set(names)
    assert are_isomorphic(catalog("C2Δ"), catalog("C2d"))
    assert are_isomorphic(catalog("Ł3+"), catalog("L3+"))
    with pytest.raises(UnknownName):
        catalog("nope")


def test_catalog_is_isomorphism_free(catalog_algebras):
    keys = {canonical_key(A) for A in catalog_algebras.values()}
    assert len(keys) == len(catalog_algebras)


def test_catalog_matches_the_family_builders(catalog_algebras):
    assert are_isomorphic(catalog_algebras["L3+"], ln_plus(3))
    assert are_isomorphic(catalog_algebras["C3d"], cn_delta(3))
    assert are_isomorphic(catalog_algebras["C3n"], cn_nabla(3))
    assert are_isomorphic(catalog_algebras["LM3d"], lm_delta(3))
    assert are_isomorphic(catalog_algebras["LM3n"], lm_nabla(3))
    assert are_isomorphic(catalog_algebras["trivial"], trivial_algebra())


# ---------------------------------------------------------------------------
# Gamma of a lexicographic product

def test_gamma_of_lex_reproduces_the_chain_families():
    for n in range(1, 6):
        assert are_isomorphic(gamma_of_lex(cn_delta_star(n)), cn_delta(n))
        assert are_isomorphic(gamma_of_lex(cn_nabla_star(n)), cn_nabla(n))
        assert are_isomorphic(gamma_of_lex(lm_delta_star(n)), lm_delta(n))
        assert are_isomorphic(gamma_of_lex(lm_nabla_star(n)), lm_nabla(n))
    assert are_isomorphic(gamma_of_lex(trivial_lmonoid()), ln_plus(1))


def test_gamma_of_lex_output_is_mv_monoid():
    for n in range(1, 5):
        assert is_mv_monoid(gamma_of_lex(cn_delta_star(n)))


# ---------------------------------------------------------------------------
# product / subalgebra / quotient

def test_product_basics():
    P = product(ln_plus(1), ln_plus(2))
    assert P.size == 6 and is_mv_monoid(P)
    assert are_isomorphic(product(trivial_algebra(), ln_plus(3)), ln_plus(3))


def test_product_of_two_chains_is_not_a_chain(diamond):
    P = product(ln_plus(1), ln_plus(1))
    assert not P.is_chain()
    assert is_mv_monoid(P)
    assert P.join == diamond.join or are_isomorphic(P, diamond.rename(""))


def test_product_cap():
    with pytest.raises(CapExceeded):
        product(ln_plus(8), ln_plus(8))


def test_subuniverse_closure():
    A = ln_plus(6)
    assert subuniverse_closure(A, [2]) == {0, 2, 4, 6}
    assert subuniverse_closure(A, []) == {0, 6}
    assert subuniverse_closure(A, [1]) == set(range(7))


def test_subuniverse_closure_matches_the_set_closure(catalog_algebras):
    # the bitset closure against `extend`, which closes sets of values
    for A in [*catalog_algebras.values(), *si_product_family()[::4],
              *seeded_lattice_tables(4, 37)]:
        for g in range(A.size):
            U = subuniverse_closure(A, [g])
            assert type(U) is frozenset
            assert U == extend(A, (), (A.zero, A.one, g)), (A, g)


@pytest.mark.parametrize("gens, message", [
    ([-1], "generator = -1 outside 0..2"),  # used to give {-1, 0, 2}
    ([1, 3], "generator = 3 outside 0..2"),
    ((g for g in [True]), "generator = True outside 0..2"),
])
def test_subuniverse_closure_rejects_non_elements(gens, message):
    with pytest.raises(TableOutOfRange, match=f"^{message}$"):
        subuniverse_closure(ln_plus(2), gens)


def test_subalgebras_of_truncated_chain():
    subs = subalgebras(ln_plus(6))
    keys = {canonical_key(S) for S, _ in subs}
    assert keys == {canonical_key(ln_plus(n)) for n in (1, 2, 3, 6)}
    for S, emb in subs:
        # embeddings are genuine subuniverses listed in order
        assert emb[0] == 0 and emb[-1] == 6
        assert set(emb) == subuniverse_closure(ln_plus(6), set(emb))


def test_subalgebras_match_the_subset_scan(catalog_algebras):
    # same classes, order and embeddings as scanning every subset
    for A in catalog_algebras.values():
        assert subalgebras(A) == reference_subalgebras(A)
    for A, B in si_chain_pairs():
        P = product(A, B)
        assert subalgebras(P) == reference_subalgebras(P)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(si_chain_pairs()), st.integers(0, 10 ** 6))
def test_subalgebras_of_relabeled_products_match_the_subset_scan(pair, seed):
    # a relabeling changes which subuniverse of a class comes first
    P = shuffled(product(*pair), seed)
    assert subalgebras(P) == reference_subalgebras(P)


@settings(max_examples=100, deadline=None)
@given(random_chain_tables())
def test_subalgebras_of_non_commutative_tables_match_the_subset_scan(A):
    assert subalgebras(A) == reference_subalgebras(A)


def _listing(subs):
    return [(algebra_tables(B), B.name, emb) for B, emb in subs]


def test_subalgebras_skip_only_repeated_tables(catalog_algebras):
    # same tables, names and embeddings as building and keying every
    # subuniverse
    for A in [*catalog_algebras.values(), *si_product_family()]:
        assert _listing(subalgebras(A)) == _listing(unskipped_subalgebras(A))


def test_subalgebra_covers_are_the_maximal_proper_subuniverses(
        catalog_algebras):
    # shuffled copies change which bits the walk's subuniverses set, so
    # the covers, embeddings and listing order are checked apart from them
    corpus = [*catalog_algebras.values(), *si_product_family()[::2],
              *seeded_lattice_tables(20, 31)]
    corpus += [shuffled(A, seed) for seed, A in enumerate(corpus)]
    for A in corpus:
        classes = _subalgebra_classes(A)
        assert [(B, emb) for B, emb, _ in classes] == \
            reference_subalgebras(A), A
        for B, _, covers in classes:
            proper = [set(M) for M in reference_subuniverses(B)
                      if len(M) < B.size]
            assert sorted(covers) == sorted(
                tuple(sorted(M)) for M in proper
                if not any(M < N for N in proper)), (A, B)


def test_subalgebras_of_infinitesimal_chain():
    subs = subalgebras(cn_delta(2))
    keys = {canonical_key(S) for S, _ in subs}
    assert keys == {canonical_key(ln_plus(1)), canonical_key(cn_delta(2))}


def test_quotient_by_monolith_shrinks_the_ladder():
    A = cn_delta(3)
    m = monolith(A)
    assert m.blocks() == [(0,), (1, 2), (3,)]
    assert are_isomorphic(quotient(A, m), cn_delta(2))


def test_quotient_total_and_invalid():
    A = ln_plus(2)
    assert quotient(A, total_congruence(3)).size == 1
    from mvmlab.congruences import Congruence
    with pytest.raises(NotACongruence):
        quotient(A, Congruence([0, 0, 1]))  # collapses 0 with 1/2 only
