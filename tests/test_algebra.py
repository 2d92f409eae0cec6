import copy
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlab import (FiniteAlgebra, are_isomorphic, canonical_key, catalog,
                    catalog_names, chain_algebra, cn_delta, cn_nabla,
                    congruence_lattice, enumerate_chain, enumerate_on_lattice,
                    hs_closure, lm_delta, lm_nabla, ln_plus, load, load_file,
                    make_algebra, order_dual, product, quotient, satisfies,
                    save, si_quotients, subalgebras, trivial_algebra)
from mvmlab import algebra
from mvmlab.algebra import (_validate_lattice, canonical_form, load_lmonoid,
                            make_lmonoid)
from mvmlab.axioms import MV_MONOID_AXIOMS
from mvmlab.constructions import _induced_tables
from mvmlab.congruences import identity_congruence
from mvmlab.errors import (MalformedDocument, NotACongruence, NotALattice,
                           NotAnLMonoid, TableOutOfRange)

from conftest import (height_key, relabel, shuffled, si_chain_pairs,
                      si_product_family)


def test_trivial_algebra():
    T = trivial_algebra()
    assert T.size == 1 and T.zero == T.one == 0
    assert T.is_chain()


def test_chain_algebra_defaults():
    A = ln_plus(2)
    assert A.is_chain() and "join" not in save(A)
    assert A.zero == 0 and A.one == 2
    assert A.join[1][2] == 2 and A.meet[1][2] == 1
    assert A.leq(0, 1) and A.leq(1, 2) and not A.leq(2, 1)
    assert [A.height(e) for e in range(3)] == [0, 1, 2]


def test_explicit_chain_tables_recognized_as_chain():
    A = ln_plus(2)
    B = make_algebra(3, 0, 2, A.oplus, A.odot,
                     join=[list(r) for r in A.join],
                     meet=[list(r) for r in A.meet])
    assert B == A and "join" not in save(B)


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


def _assert_round_trip(A):
    # join and meet are left out exactly for the chain in numeric order
    doc = save(A)
    n = A.size
    numeric_chain = (A.zero == 0 and A.one == n - 1
                     and A.join == algebra.max_table(n)
                     and A.meet == algebra.min_table(n))
    assert ("join" in doc) == ("meet" in doc) == (not numeric_chain), A
    assert load(doc) == A


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(si_chain_pairs()) - 1), st.integers(0, 10 ** 6))
def test_derived_algebras_round_trip_through_save(i, seed):
    P = shuffled(product(*si_chain_pairs()[i]), seed)
    derived = [P, *(S for S, _ in subalgebras(P)), *si_quotients(P)]
    for A in derived:
        _assert_round_trip(A)
        _assert_round_trip(order_dual(A))


_CHAINS = [A for n in range(1, 6) for A in enumerate_chain(n, "si")] + [
    catalog(name) for name in catalog_names()]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CHAINS), st.booleans(), st.integers(0, 10 ** 6))
def test_quotients_of_chains_round_trip_through_save(C, shuffle, seed):
    if shuffle:
        C = shuffled(C, seed)
    for theta in congruence_lattice(C).labels:
        _assert_round_trip(quotient(C, theta))


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


@pytest.mark.parametrize("present, missing", [("join", "meet"),
                                               ("meet", "join")])
def test_join_and_meet_come_together(present, missing):
    n = 3
    lattice = {"join": algebra.max_table(n), "meet": algebra.min_table(n)}
    half = {present: [list(r) for r in lattice[present]]}
    zeros = [[0] * n] * n
    message = f"^missing field '{missing}'$"
    with pytest.raises(MalformedDocument, match=message):
        load({"size": n, "zero": 0, "one": 2, "oplus": zeros, "odot": zeros,
              **half})
    with pytest.raises(MalformedDocument, match=message):
        load_lmonoid({"size": n, "zero": 0, "plus": zeros, **half})


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
        same = FiniteAlgebra(*_induced_tables(A, range(A.size),
                                              range(A.size)))
        for B in (A.rename("copy"), order_dual(A), same):
            assert "key" not in B._cache
        assert canonical_key(A.rename("copy")) == canonical_key(same) == key


def test_heights_in_one_pass_match_the_per_element_count():
    algebras = [catalog(name) for name in catalog_names()]
    for A in algebras + list(si_product_family()):
        below = [sum(A.leq(x, e) for x in range(A.size) if x != e)
                 for e in range(A.size)]
        assert A.heights() == [A.height(e) for e in range(A.size)] == below


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
    assert M.join == algebra.max_table(2) and M.leq(0, 1)


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


# ---------------------------------------------------------------------------
# the gate for outside tables: each failure's type, message and witness, and
# which of two faults wins, as they were before algebras and l-monoids shared
# one gate

_MAX2, _MIN2 = [[0, 1], [1, 1]], [[0, 0], [0, 1]]
_DIAMOND_JOIN = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
_DIAMOND_MEET = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]


@pytest.mark.parametrize("join, meet, message, witness", [
    # join = meet = max: 0 v (0 ^ 1) = 1
    (_MAX2, _MAX2, "absorption fails", (0, 1, 1)),
    ([[0, 0, 1], [0, 1, 0], [1, 0, 2]], [[0, 0, 1], [0, 1, 1], [1, 1, 2]],
     "join associativity fails", (0, 0, 2)),
    ([[0, 1, 2], [1, 1, 2], [2, 2, 2]], [[0, 2, 0], [2, 1, 2], [0, 2, 2]],
     "meet associativity fails", (0, 0, 1)),
])
def test_lattice_validation_messages_and_witnesses(join, meet, message,
                                                   witness):
    n = len(join)
    with pytest.raises(NotALattice) as exc:
        _validate_lattice(join, meet, n)
    assert (str(exc.value), exc.value.witness) == (message, witness)
    for build in (lambda: make_lmonoid(n, 0, join, join=join, meet=meet),
                  lambda: make_algebra(n, 0, n - 1, join, meet, join=join,
                                       meet=meet)):
        with pytest.raises(NotALattice) as exc:
            build()
        assert (str(exc.value), exc.value.witness) == (message, witness)


@pytest.mark.parametrize("zero, one, message, witness", [
    (1, 1, "zero is not the bottom", (1, 0, 0)),
    (0, 0, "one is not the top", (0, 1, 1)),
])
def test_explicit_lattice_bounds_are_checked(zero, one, message, witness):
    with pytest.raises(NotALattice) as exc:
        make_algebra(2, zero, one, _MAX2, _MIN2, join=_MAX2, meet=_MIN2)
    assert (str(exc.value), exc.value.witness) == (message, witness)


# the gate proves a lattice reduct with bitset rows in O(n^2) steps; the
# cubic law scan, `_validate_lattice`, is its oracle and names the witness

def _lattice_product(*lattices):
    """Join and meet tables of the product of (join, meet) pairs, element
    (a, b) numbered a * len(b's lattice) + b."""
    join, meet = lattices[0]
    for j2, m2 in lattices[1:]:
        k = len(j2)
        pairs = [(a, b) for a in range(len(join)) for b in range(k)]

        def table(t, t2):
            return [[t[a][c] * k + t2[b][d] for c, d in pairs]
                    for a, b in pairs]

        join, meet = table(join, j2), table(meet, m2)
    return join, meet


def _chain(k):
    return ([[max(a, b) for b in range(k)] for a in range(k)],
            [[min(a, b) for b in range(k)] for a in range(k)])


_M3, _N5 = non_distributive.args[1]
_GATE_LATTICES = [
    _chain(1), _chain(2), _chain(3), _chain(5), (_DIAMOND_JOIN, _DIAMOND_MEET),
    _lattice_product(_chain(2), _chain(3)),
    _lattice_product(_chain(2), _chain(2), _chain(2)),
    _M3, _N5,
    _lattice_product(_M3, _chain(2)),  # M3 x L1+
    _lattice_product(_N5, _chain(2)),  # N5 x L1+
]


def _cubic_verdict(join, meet):
    """None when `_validate_lattice` passes, else its (message, witness)."""
    try:
        _validate_lattice(join, meet, len(join))
    except NotALattice as exc:
        return str(exc), exc.witness
    return None


def _assert_the_gate_agrees_with_the_cubic_scan(join, meet):
    n, verdict = len(join), _cubic_verdict(join, meet)
    frozen = tuple(map(tuple, join)), tuple(map(tuple, meet))
    assert algebra._is_distributive_lattice(*frozen) == (verdict is None)
    doc = {"size": n, "oplus": join, "odot": meet, "join": join,
           "meet": meet}
    if verdict is None:
        bottom = next(a for a in range(n) if join[a] == list(range(n)))
        top = next(a for a in range(n) if meet[a] == list(range(n)))
        A = load({**doc, "zero": bottom, "one": top})
        assert (A.join, A.meet) == frozen
    else:
        with pytest.raises(NotALattice) as exc:
            load({**doc, "zero": 0, "one": n - 1})
        assert (str(exc.value), exc.value.witness) == verdict


@st.composite
def _gate_inputs(draw):
    """Random tables of 1-5 elements (half of them idempotent and
    commutative), or a relabelled lattice of `_GATE_LATTICES` with up to
    three entries changed (each perhaps mirrored to keep commutativity)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        cell = st.integers(0, n - 1)
        join, meet = ([[draw(cell) for _ in range(n)] for _ in range(n)]
                      for _ in range(2))
        if draw(st.booleans()):
            for t in (join, meet):
                for a in range(n):
                    t[a][a] = a
                    for b in range(a):
                        t[b][a] = t[a][b]
        return join, meet
    join, meet = draw(st.sampled_from(_GATE_LATTICES))
    n = len(join)
    perm = draw(st.permutations(range(n)))
    inv = sorted(range(n), key=perm.__getitem__)

    def table(t):
        return [[perm[t[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]

    join, meet = table(join), table(meet)
    for t, a, b, v, mirror in draw(st.lists(st.tuples(
            st.sampled_from((join, meet)), st.integers(0, n - 1),
            st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
            max_size=3)):
        t[a][b] = v
        if mirror:
            t[b][a] = v
    return join, meet


@settings(max_examples=400, deadline=None)
@given(_gate_inputs())
def test_the_bitset_gate_accepts_exactly_what_the_cubic_scan_accepts(tables):
    _assert_the_gate_agrees_with_the_cubic_scan(*tables)


@pytest.mark.parametrize("join, meet", _GATE_LATTICES)
def test_the_bitset_gate_on_the_lattices_as_they_are(join, meet):
    _assert_the_gate_agrees_with_the_cubic_scan(join, meet)


@pytest.mark.parametrize("join, meet, witness", [
    ([[0, 1], [0, 1]], [[0, 1], [0, 1]], (0, 1, 1)),
    # 0 below 1 and 2, and 1 <= 2 <= 1: every other check passes
    ([[0, 1, 2], [1, 1, 2], [2, 1, 2]], [[0, 0, 0], [0, 1, 1], [0, 2, 2]],
     (1, 2, 2)),
])
def test_tables_whose_order_is_not_antisymmetric_are_rejected(join, meet,
                                                              witness):
    assert not algebra._is_distributive_lattice(join, meet)
    with pytest.raises(NotALattice) as exc:
        load({"size": len(join), "zero": 0, "one": 1, "oplus": join,
              "odot": meet, "join": join, "meet": meet})
    assert (str(exc.value), exc.value.witness) == (
        "commutativity fails", witness)


def test_relabelled_distributive_products_load_without_the_cubic_scan(
        monkeypatch):
    monkeypatch.setenv("MVMLAB_CAP_PRODUCT", "256")
    L = ln_plus(1)
    power = L
    for _ in range(7):
        power = product(power, L)
    assert power.size == 256

    def refuse(*args):
        raise AssertionError("_validate_lattice called")

    monkeypatch.setattr(algebra, "_validate_lattice", refuse)
    for i, P in enumerate([*si_product_family()[::4], power]):
        Q = shuffled(P, i)  # made through the gate as well
        assert load(save(Q)) == Q
        assert load(save(order_dual(Q))) == order_dual(Q)


@pytest.mark.parametrize("plus, lattice, message, witness", [
    ([[0, 1, 2, 3], [1, 1, 2, 2], [2, 2, 2, 0], [3, 2, 0, 3]], {},
     "+ associativity fails", (1, 2, 3)),
    ([[0, 1, 2], [1, 1, 0], [2, 0, 2]], {}, "+ over join fails", (1, 0, 2)),
    # on a chain + over meet fails where + over join does, so the diamond
    ([[0, 1, 2, 3], [1, 3, 3, 3], [2, 3, 2, 3], [3, 3, 3, 1]],
     {"join": _DIAMOND_JOIN, "meet": _DIAMOND_MEET},
     "+ over meet fails", (1, 1, 2)),
])
def test_lmonoid_law_messages_and_witnesses(plus, lattice, message, witness):
    n = len(plus)
    with pytest.raises(NotAnLMonoid) as exc:
        make_lmonoid(n, 0, plus, **lattice)
    assert (str(exc.value), exc.value.witness) == (message, witness)
    with pytest.raises(NotAnLMonoid) as exc:
        load_lmonoid({"size": n, "zero": 0, "plus": plus, **lattice})
    assert (str(exc.value), exc.value.witness) == (message, witness)


@pytest.mark.parametrize("doc", [[1, 2], "x", None, 3])
def test_load_lmonoid_rejects_a_document_that_is_not_an_object(doc):
    with pytest.raises(MalformedDocument,
                       match="^l-monoid document must be a JSON object$"):
        load_lmonoid(doc)


_L2 = {"size": 2, "zero": 0, "one": 1, "oplus": [[0, 1], [1, 1]],
       "odot": [[0, 0], [0, 1]]}
_M2 = {"size": 2, "zero": 0, "plus": [[0, 1], [1, 1]]}


@pytest.mark.parametrize("loader, doc", [(load, _L2), (load_lmonoid, _M2)],
                         ids=["algebra", "l-monoid"])
def test_a_document_name_is_a_string_or_null(loader, doc):
    assert loader(doc).name == ""
    assert loader({**doc, "name": None}).name == ""
    assert loader({**doc, "name": "x"}).name == "x"
    for name in (0, ["x"], {"x": 1}, True, 1.5):
        with pytest.raises(MalformedDocument,
                           match="^name must be a string$"):
            loader({**doc, "name": name})


def test_quotient_rejects_a_partition_of_another_size():
    with pytest.raises(NotACongruence, match="^partition is not compatible "
                                             "with the tables$"):
        quotient(ln_plus(2), identity_congruence(2))


def _with_chain_lattice(doc):
    n = doc["size"]
    return {**doc, "join": [[max(i, j) for j in range(n)] for i in range(n)],
            "meet": [[min(i, j) for j in range(n)] for i in range(n)]}


def _sound_documents():
    # (kind, documents, own tables, constants), chains with and without
    # their lattice tables, and the diamond
    algebras = [save(ln_plus(2)), save(catalog("C2d")),
                save(product(ln_plus(1), ln_plus(1))),
                save(product(ln_plus(1), cn_delta(2)))]
    algebras.append(_with_chain_lattice(algebras[0]))
    lmonoids = [{"size": 3, "zero": 0,
                 "plus": [[min(i + j, 2) for j in range(3)]
                          for i in range(3)]},
                {"size": 3, "zero": 2,
                 "plus": [[min(i, j) for j in range(3)] for i in range(3)]},
                {"size": 4, "zero": 0, "plus": _DIAMOND_JOIN,
                 "join": _DIAMOND_JOIN, "meet": _DIAMOND_MEET}]
    lmonoids.append(_with_chain_lattice(lmonoids[0]))
    return (("algebra", algebras, ("oplus", "odot"), ("zero", "one")),
            ("l-monoid", lmonoids, ("plus",), ("zero",)))


def _fault(doc, n, rng, own, constants):
    """Put one random fault into doc, an n-element document, in place, and
    name its kind.  An in-range "law" entry may leave doc sound."""
    tables = [k for k in (*own, "join", "meet")
              if isinstance(doc.get(k), list)] or ["join"]
    kind = rng.choice(["size", "drop", "constant", "entry", "shape",
                       "lattice", "law"])
    if kind == "size":
        doc["size"] = rng.choice(["3", 0, -2, True, 2.5, None, n + 1, n - 1])
    elif kind == "drop":
        doc.pop(rng.choice([*constants, *tables, "size"]), None)
    elif kind == "constant":
        doc[rng.choice(constants)] = rng.choice(
            [-1, n, True, False, None, "0", rng.randrange(n)])
    elif kind in ("entry", "law"):
        t = doc.get(rng.choice(own if kind == "law" else tables))
        v = rng.randrange(n) if kind == "law" else rng.choice(
            [-1, n, True, "1", 0.0, None])
        i, j = rng.randrange(n), rng.randrange(n)
        if isinstance(t, list) and i < len(t) and isinstance(t[i], list) \
                and j < len(t[i]):
            t[i][j] = v
    elif kind == "shape":
        what = rng.choice(tables)
        t = doc.get(what) or [[0]]
        doc[what] = [t[:-1], [*t[:-1], t[-1][:-1]], [*t, t[0]], "x",
                     None][rng.randrange(5)]
    else:
        how = rng.randrange(4)
        if how == 0:
            doc.pop(rng.choice(["join", "meet"]), None)
        elif how == 1 and "join" in doc and "meet" in doc:
            doc["join"], doc["meet"] = doc["meet"], doc["join"]
        elif how == 2:
            doc["join"] = [[max(i, j) for j in range(n)] for i in range(n)]
            doc["meet"] = copy.deepcopy(doc["join"])
        else:
            doc.update(_with_chain_lattice({"size": n}))
            doc["meet"][rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return kind


def _outcome(loader, doc):
    try:
        M = loader(doc)
    except Exception as exc:  # any type, so that a change of type shows
        return [type(exc).__name__, str(exc), getattr(exc, "witness", None)]
    return ["ok", M.size, M.zero, *(getattr(M, k) for k in (
        "one", "oplus", "odot", "plus", "join", "meet") if hasattr(M, k))]


def test_two_fault_documents_fail_as_they_always_did():
    # 300 documents of each kind with two random faults: which fault is
    # reported (type, message, witness), or the structure built, hashed;
    # the digest was computed before the two loaders shared one gate, and
    # again when a lone join or meet became a missing field (47 records
    # changed, each a document with one of the two absent or null)
    rng = random.Random(20)
    records = []
    for kind, docs, own, constants in _sound_documents():
        loader = load if kind == "algebra" else load_lmonoid
        assert all(_outcome(loader, doc)[0] == "ok" for doc in docs)
        for _ in range(300):
            doc = copy.deepcopy(rng.choice(docs))
            n = doc["size"]
            faults = [_fault(doc, n, rng, own, constants) for _ in range(2)]
            records.append([kind, faults, _outcome(loader, doc)])
    assert {r[2][0] for r in records} == {
        "ok", "MalformedDocument", "TableOutOfRange", "NotALattice",
        "NotAnLMonoid"}
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == ("0a01e9ede7f36a7bf2a5a4ee12b7fe6e"
                      "53590dc0577ab9f7adbbca4a931a69dd")
