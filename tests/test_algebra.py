import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlab import (are_isomorphic, canonical_key, catalog, catalog_names,
                    chain_algebra, cn_delta, cn_nabla, enumerate_chain,
                    enumerate_on_lattice, hs_closure, lm_delta, lm_nabla,
                    ln_plus, load, load_file, make_algebra, order_dual,
                    product, satisfies, save, si_quotients, subalgebras,
                    trivial_algebra)
from mvmlab import algebra
from mvmlab.algebra import (_validate_lattice, canonical_form, load_lmonoid,
                            make_lmonoid)
from mvmlab.axioms import MV_MONOID_AXIOMS
from mvmlab.constructions import _from_tables, _induced_tables
from mvmlab.errors import (MalformedDocument, NotALattice, NotAnLMonoid,
                           TableOutOfRange)

from conftest import (height_key, relabel, shuffled, si_chain_pairs,
                      si_product_family)


def test_trivial_algebra():
    T = trivial_algebra()
    assert T.size == 1 and T.zero == T.one == 0
    assert T.is_chain()


def test_chain_algebra_defaults():
    A = ln_plus(2)
    assert A.chain_flag and A.is_chain()
    assert A.zero == 0 and A.one == 2
    assert A.join[1][2] == 2 and A.meet[1][2] == 1
    assert A.leq(0, 1) and A.leq(1, 2) and not A.leq(2, 1)
    assert [A.height(e) for e in range(3)] == [0, 1, 2]


def test_explicit_chain_tables_recognized_as_chain():
    A = ln_plus(2)
    B = make_algebra(3, 0, 2, A.oplus, A.odot,
                     join=[list(r) for r in A.join],
                     meet=[list(r) for r in A.meet])
    assert B.chain_flag


def test_save_load_round_trip(catalog_algebras):
    for name, A in catalog_algebras.items():
        doc = save(A)
        B = load(doc)
        assert B == A.rename(B.name)
        assert are_isomorphic(A, B)


def test_save_omits_chain_lattice_tables():
    doc = save(ln_plus(3))
    assert "join" not in doc and "meet" not in doc
    assert load(doc).join == ln_plus(3).join


def test_save_keeps_non_chain_lattice_tables(diamond):
    doc = save(diamond)
    assert "join" in doc and "meet" in doc
    assert load(doc) == diamond.rename("diamond")


def test_load_file_round_trip(tmp_path):
    import json
    p = tmp_path / "a.json"
    p.write_text(json.dumps(save(cn_delta(2))))
    assert are_isomorphic(load_file(p), cn_delta(2))


def test_load_rejects_malformed_documents():
    with pytest.raises(MalformedDocument):
        load([1, 2, 3])
    with pytest.raises(MalformedDocument):
        load({"size": 2, "zero": 0, "one": 1, "oplus": [[0, 1], [1, 1]]})
    with pytest.raises(MalformedDocument):
        load({"size": 0, "zero": 0, "one": 0, "oplus": [], "odot": []})


def test_load_rejects_out_of_range_entries():
    with pytest.raises(TableOutOfRange):
        load({"size": 2, "zero": 0, "one": 1,
              "oplus": [[0, 1], [1, 5]], "odot": [[0, 0], [0, 1]]})


def test_load_file_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(MalformedDocument):
        load_file(p)


def test_lattice_validation_catches_bad_tables():
    # join not idempotent
    with pytest.raises(NotALattice) as exc:
        make_algebra(2, 0, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]],
                     join=[[1, 1], [1, 1]], meet=[[0, 0], [0, 1]])
    assert exc.value.witness is not None


def test_chain_documents_are_checked_before_the_default_tables_are_built(
        monkeypatch):
    # the document's own tables are checked before the n x n max and min
    # tables of its chain are built, so a huge size with small tables fails
    # at once
    def refuse(n):
        raise AssertionError(f"max_table({n}) built")

    monkeypatch.setattr(algebra, "max_table", refuse)
    doc = {"size": 10 ** 8, "zero": 0, "one": 10 ** 8 - 1, "oplus": [[0]],
           "odot": [[0]]}
    with pytest.raises(MalformedDocument, match="oplus table is not"):
        load(doc)
    with pytest.raises(MalformedDocument, match="plus table is not"):
        load_lmonoid({"size": 10 ** 8, "zero": 0, "plus": [[0]]})


def test_chain_constructor_requires_numeric_order():
    with pytest.raises(MalformedDocument):
        make_algebra(2, 1, 0, [[0, 1], [1, 1]], [[0, 0], [0, 1]])


def test_canonical_key_equal_iff_isomorphic_small():
    reps = [catalog(n) for n in
            ("L1+", "L2+", "C2d", "C2n", "L2", "A3d", "A3n", "B3d", "B3n")]
    for A in reps:
        for B in reps:
            same = canonical_key(A) == canonical_key(B)
            assert same == (A is B)


def test_canonical_key_identifies_coinciding_constructions():
    # the oplus-degenerate 2-ladder coincides with the truncated one
    assert canonical_key(lm_delta(2)) == canonical_key(cn_delta(2))
    assert canonical_key(lm_nabla(2)) == canonical_key(cn_nabla(2))
    assert canonical_key(ln_plus(1)) == canonical_key(catalog("L1+"))


def test_canonical_key_invariant_under_relabeling(diamond):
    perms = list(itertools.permutations(range(4)))
    base = canonical_key(diamond)
    for perm in perms:
        assert canonical_key(relabel(diamond, perm)) == base


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A3d", "A3n", "B3d", "B3n", "L3+", "C3d", "C3n"]),
       st.integers(0, 10 ** 6))
def test_canonical_key_invariant_under_shuffle(name, seed):
    A = catalog(name)
    assert canonical_key(shuffled(A, seed)) == canonical_key(A)


def _brute_isomorphic(A, B):
    """Reference: try every bijection."""
    if A.size != B.size:
        return False
    n = A.size
    pairs = ((A.join, B.join), (A.meet, B.meet), (A.oplus, B.oplus),
             (A.odot, B.odot))
    return any(p[A.zero] == B.zero and p[A.one] == B.one
               and all(p[s[i][j]] == t[p[i]][p[j]] for s, t in pairs
                       for i in range(n) for j in range(n))
               for p in itertools.permutations(range(n)))


def _power(A, k):
    P = A
    for _ in range(k - 1):
        P = product(P, A)
    return P


L1 = ln_plus(1)
# products with non-trivial automorphisms, where refinement alone does not
# separate the elements
SYMMETRIC = [product(ln_plus(2), ln_plus(2)),
             product(cn_delta(2), cn_delta(2)), _power(L1, 3), _power(L1, 4),
             product(_power(L1, 2), ln_plus(2))]
# at most 6 elements: symmetric products next to chains and products of the
# same size that are not isomorphic to them
SMALL = [_power(L1, 2), ln_plus(3), catalog("A3d"), catalog("B3n"),
         product(L1, ln_plus(2)), product(L1, cn_delta(2)),
         product(L1, cn_nabla(2)), order_dual(product(L1, cn_delta(2))),
         ln_plus(5), product(L1, catalog("L2"))]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(range(len(SYMMETRIC))), st.integers(0, 10 ** 6))
def test_canonical_key_invariant_under_shuffle_of_symmetric_products(i, seed):
    A = SYMMETRIC[i]
    assert canonical_key(shuffled(A, seed)) == canonical_key(A)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(SMALL))), st.sampled_from(range(len(SMALL))),
       st.booleans(), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_canonical_key_equal_iff_a_bijection_is_an_isomorphism(
        i, j, same, seed_a, seed_b):
    A = shuffled(SMALL[i], seed_a)
    B = shuffled(SMALL[i if same else j], seed_b)
    assert (canonical_key(A) == canonical_key(B)) == _brute_isomorphic(A, B)


def test_canonical_key_of_a_64_element_boolean_algebra():
    A = _power(L1, 6)
    assert canonical_key(shuffled(A, 7)) == canonical_key(A)


def test_canonical_key_is_kept_per_algebra():
    for i, A in enumerate(SMALL + SYMMETRIC):
        A = shuffled(A, i)
        assert "key" not in A._cache
        key = canonical_key(A)
        assert A._cache["key"] == key == canonical_form(
            A.size, (A.join, A.meet, A.oplus, A.odot), (A.zero, A.one),
            [(A.height(e), e == A.zero, e == A.one) for e in range(A.size)])
        assert canonical_key(A) is key
        # algebras built from A start without its key
        same = _from_tables(_induced_tables(A, range(A.size), range(A.size)))
        for B in (A.rename("copy"), order_dual(A), same):
            assert "key" not in B._cache
        assert canonical_key(A.rename("copy")) == canonical_key(same) == key


def test_heights_in_one_pass_match_the_per_element_count():
    algebras = [catalog(name) for name in catalog_names()]
    for A in algebras + list(si_product_family()):
        assert A.heights() == [A.height(e) for e in range(A.size)]


def test_canonical_key_is_unchanged_by_the_one_pass_heights():
    algebras = [catalog(name) for name in catalog_names()]
    algebras += [A for n in range(1, 6) for A in enumerate_chain(n, "all")]
    for i, A in enumerate(algebras + list(si_product_family())):
        for B in (A, shuffled(A, i)):
            assert canonical_key(B) == height_key(B)


def test_are_isomorphic_rejects_different_sizes():
    assert not are_isomorphic(ln_plus(2), ln_plus(3))


def test_order_dual_is_an_involution(catalog_algebras):
    for name, A in catalog_algebras.items():
        assert are_isomorphic(order_dual(order_dual(A)), A)


def test_order_dual_swaps_the_named_duals():
    for n in range(2, 6):
        assert are_isomorphic(order_dual(cn_delta(n)), cn_nabla(n))
        assert are_isomorphic(order_dual(lm_delta(n)), lm_nabla(n))
        assert are_isomorphic(order_dual(ln_plus(n)), ln_plus(n))
    assert are_isomorphic(order_dual(catalog("A3d")), catalog("A3n"))
    assert are_isomorphic(order_dual(catalog("B3d")), catalog("B3n"))


def test_lmonoid_validation():
    with pytest.raises(NotAnLMonoid):
        # constant-0 addition has no unit
        make_lmonoid(2, 0, [[0, 0], [0, 0]])
    with pytest.raises(NotAnLMonoid):
        # non-commutative addition
        make_lmonoid(2, 0, [[0, 1], [0, 1]])
    M = make_lmonoid(2, 0, [[0, 1], [1, 1]])
    assert M.chain_flag and M.leq(0, 1)


non_distributive = pytest.mark.parametrize("join, meet", [
    # M3: 0 < {1, 2, 3} < 4, three pairwise incomparable atoms
    ([[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4], [3, 4, 4, 3, 4],
      [4, 4, 4, 4, 4]],
     [[0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 2, 0, 2], [0, 0, 0, 3, 3],
      [0, 1, 2, 3, 4]]),
    # N5: 0 < 1 < 2 < 4 and 0 < 3 < 4, with 3 incomparable to 1 and 2
    ([[0, 1, 2, 3, 4], [1, 1, 2, 4, 4], [2, 2, 2, 4, 4], [3, 4, 4, 3, 4],
      [4, 4, 4, 4, 4]],
     [[0, 0, 0, 0, 0], [0, 1, 1, 0, 1], [0, 1, 2, 0, 2], [0, 0, 0, 3, 3],
      [0, 1, 2, 3, 4]]),
], ids=["M3", "N5"])


@non_distributive
def test_lmonoid_over_a_non_distributive_lattice_is_rejected(join, meet):
    n = len(join)
    # + is join (unit 0); the lattice laws are checked before the +-laws
    with pytest.raises(NotALattice) as exc:
        make_lmonoid(n, 0, join, join=join, meet=meet)
    assert str(exc.value) == "distributivity fails"
    with pytest.raises(NotALattice):
        load_lmonoid({"size": n, "zero": 0, "plus": join, "join": join,
                      "meet": meet})


def test_load_lmonoid():
    M = load_lmonoid({"size": 3, "zero": 0,
                      "plus": [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
                      "name": "m"})
    assert M.name == "m" and M.plus[1][1] == 2
    with pytest.raises(MalformedDocument):
        load_lmonoid({"size": 3, "zero": 0})


@non_distributive
def test_non_distributive_lattice_tables_are_still_rejected(join, meet):
    n = len(join)
    with pytest.raises(NotALattice) as exc:
        make_algebra(n, 0, n - 1, join, meet, join=join, meet=meet)
    assert str(exc.value) == "distributivity fails"
    with pytest.raises(NotALattice) as exc:
        load({"size": n, "zero": 0, "one": n - 1, "oplus": join,
              "odot": meet, "join": join, "meet": meet})
    assert str(exc.value) == "distributivity fails"


# ---------------------------------------------------------------------------
# the lattice reduct is proved once, where an algebra is made from outside
# input; everything built from such algebras keeps a bounded distributive
# lattice, which `is_mv_monoid` trusts

_LATTICE_LAWS = [(n, e) for n, e in MV_MONOID_AXIOMS if n.startswith("lat.")]


def _assert_bounded_distributive(A):
    _validate_lattice(A.join, A.meet, A.size)
    assert all(A.join[A.zero][x] == x and A.meet[A.one][x] == x
               for x in range(A.size)), A
    # the term engine shares no code with _validate_lattice
    for name, e in _LATTICE_LAWS:
        assert satisfies(A, e), (A, name)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(si_chain_pairs()) - 1), st.integers(0, 10 ** 6))
def test_relabeled_products_and_what_they_generate_are_bounded_distributive(
        i, seed):
    P = shuffled(product(*si_chain_pairs()[i]), seed)
    derived = [P, *(S for S, _ in subalgebras(P)), *si_quotients(P),
               *hs_closure([P]).values()]
    for A in derived:
        _assert_bounded_distributive(A)
        _assert_bounded_distributive(order_dual(A))


@settings(max_examples=20, deadline=None)
@given(which=st.sampled_from(["diamond", "L1+xL2+"]),
       seed=st.integers(0, 10 ** 6))
def test_algebras_enumerated_on_a_lattice_are_bounded_distributive(
        diamond, which, seed):
    L = diamond if which == "diamond" else product(ln_plus(1), ln_plus(2))
    found = enumerate_on_lattice(shuffled(L, seed))
    assert found
    for A in found:
        _assert_bounded_distributive(A)
        _assert_bounded_distributive(order_dual(A))


def test_chain_documents_and_order_duals_skip_the_lattice_check(
        monkeypatch, diamond):
    def refuse(*args):
        raise AssertionError("_validate_lattice called")

    monkeypatch.setattr(algebra, "_validate_lattice", refuse)
    for A in (ln_plus(60), catalog("C3d"), trivial_algebra()):
        assert load(save(A)) == A
    make_lmonoid(3, 0, [[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    for A in (diamond, product(ln_plus(1), ln_plus(2)), ln_plus(4)):
        assert order_dual(order_dual(A)) == A
