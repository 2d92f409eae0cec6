import functools
import itertools
import random

import pytest
from hypothesis import strategies as st

from mvmlab import (canonical_key, catalog, catalog_names, chain_algebra,
                    congruence_lattice, enumerate_chain, make_algebra,
                    order_dual, product)
from mvmlab.algebra import FiniteAlgebra, canonical_form
from mvmlab.constructions import _extend, subuniverse_closure


@pytest.fixture(scope="session")
def catalog_algebras():
    return {name: catalog(name) for name in catalog_names()}


@pytest.fixture(scope="session")
def diamond():
    # 2x2 lattice 0 < {1, 2} < 3 with 1, 2 incomparable
    join = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    return make_algebra(4, 0, 3, join, meet, join=join, meet=meet,
                        name="diamond")


def relabel(A, perm):
    """Image of A under the permutation perm (old element -> new element)."""
    n = A.size
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old

    def table(t):
        return [[perm[t[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]

    return make_algebra(n, perm[A.zero], perm[A.one],
                        table(A.oplus), table(A.odot),
                        join=table(A.join), meet=table(A.meet))


def shuffled(A, seed):
    rng = random.Random(seed)
    perm = list(range(A.size))
    rng.shuffle(perm)
    return relabel(A, perm)


def posets_isomorphic(P, Q):
    """Whether two posets are isomorphic: equal canonical forms of <= as the
    table t[i][j] = j if i <= j else i, each element coloured by its (up-set
    size, down-set size)."""
    return len(P) == len(Q) and _poset_form(P) == _poset_form(Q)


def poset_is_chain(P):
    """Whether every two elements of P are comparable."""
    return all(P.leq(a, b) or P.leq(b, a)
               for a, b in itertools.combinations(P.labels, 2))


def _poset_form(P):
    n, a = len(P), P.labels
    leq = [[P.leq(a[i], a[j]) for j in range(n)] for i in range(n)]
    table = [[j if leq[i][j] else i for j in range(n)] for i in range(n)]
    sizes = [(sum(leq[i]), sum(row[i] for row in leq)) for i in range(n)]
    return canonical_form(n, [table], [], sizes)


@st.composite
def random_chain_tables(draw):
    """A chain with arbitrary, usually non-commutative, oplus and odot."""
    n = draw(st.integers(1, 6))
    table = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                     min_size=n, max_size=n)
    return chain_algebra(n, draw(table), draw(table))


def seeded_chain_tables(count, seed):
    """`count` chains of 1..5 elements with arbitrary oplus and odot tables,
    drawn from random.Random(seed): most break the monoid laws too."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        yield chain_algebra(n, *([[rng.randrange(n) for _ in range(n)]
                                  for _ in range(n)] for _ in range(2)))


@functools.cache
def si_chain_pairs():
    """Every pair of SI chains of sizes 2..6 whose product has at most 12
    elements (96 pairs)."""
    chains = [A for n in range(2, 7) for A in enumerate_chain(n, "si")]
    return [(A, B) for A, B in
            itertools.combinations_with_replacement(chains, 2)
            if A.size * B.size <= 12]


def reference_subalgebras(A):
    """Subalgebras by scanning every subset that contains 0 and 1 and keeping
    the closed ones: (algebra, embedding) pairs sorted by (size, key), each
    class embedded as its first subuniverse in scan order."""
    base = {A.zero, A.one}
    rest = [e for e in range(A.size) if e not in base]
    found = {}
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            subset = base | set(extra)
            if not all(t[a][b] in subset
                       for t in (A.join, A.meet, A.oplus, A.odot)
                       for a in subset for b in subset):
                continue
            elems = sorted(subset)
            index = {e: i for i, e in enumerate(elems)}

            def table(t):
                return [[index[t[a][b]] for b in elems] for a in elems]

            sub = make_algebra(len(elems), index[A.zero], index[A.one],
                               table(A.oplus), table(A.odot),
                               join=table(A.join), meet=table(A.meet))
            found.setdefault(canonical_key(sub), (sub, tuple(elems)))
    return [found[k] for k in sorted(found, key=lambda k: (k[0], k))]


# ---------------------------------------------------------------------------
# HS closures and subalgebras that build and key every candidate: the
# oracles for skipping repeated tables

def height_key(A):
    """`canonical_key` with each element's height counted one element at a
    time (`FiniteAlgebra.height`), kept in A's cache apart from the key."""
    key = A._cache.get("height_key")
    if key is None:
        key = A._cache["height_key"] = canonical_form(
            A.size, (A.join, A.meet, A.oplus, A.odot), (A.zero, A.one),
            [(A.height(e), e == A.zero, e == A.one) for e in range(A.size)])
    return key


def _induced(A, reps, index, name=""):
    def table(t):
        return tuple(tuple(index[t[a][b]] for b in reps) for a in reps)

    return FiniteAlgebra(len(reps), index[A.zero], index[A.one],
                         table(A.oplus), table(A.odot), table(A.join),
                         table(A.meet), name=name)


def unskipped_subalgebras(A):
    """`subalgebras` with a subalgebra built and keyed for every
    subuniverse, in the same (size, sorted elements) order."""
    least = subuniverse_closure(A, ())
    universes, stack = {least}, [least]
    while stack:
        S = stack.pop()
        grown = {_extend(A, S, (e,)) for e in range(A.size) if e not in S}
        stack += grown - universes
        universes |= grown
    found = {}
    for U in sorted(map(sorted, universes), key=lambda U: (len(U), U)):
        sub = _induced(A, U, {e: i for i, e in enumerate(U)})
        found.setdefault(height_key(sub), (sub, tuple(U)))
    return [found[k] for k in sorted(found, key=lambda k: (k[0], k))]


def unskipped_hs_closure(S):
    """`hs_closure` with every quotient of every subalgebra built and
    keyed, in the same order, so its dict order is the one to match."""
    found = {}
    for A in S:
        found.setdefault(height_key(A), A)
    for A in list(found.values()):
        for B, _ in unskipped_subalgebras(A):
            found.setdefault(height_key(B), B)
            for theta in congruence_lattice(B).labels[1:]:
                Q = _induced(B, [b[0] for b in theta.blocks()], theta.ids,
                             name=f"{B.name}/theta" if B.name else "")
                found.setdefault(height_key(Q), Q)
    return found


def algebra_tables(A):
    return (A.zero, A.one, A.join, A.meet, A.oplus, A.odot)


@functools.cache
def si_product_family():
    """The product of each `si_chain_pairs` pair, taken as it is, as its
    order dual, or shuffled (plain or dual), in turn."""
    out = []
    for i, (A, B) in enumerate(si_chain_pairs()):
        P = product(A, B)
        if i % 3 == 1 or i % 6 == 5:
            P = order_dual(P)
        out.append(shuffled(P, i) if i % 3 == 2 else P)
    return out
