"""Builders for the named finite algebras (truncated unit-interval chains,
Chang-type chains, the degenerate LM chains, the 3- and 4-element catalog),
plus Gamma-of-lexicographic-product, products, subalgebras and quotients."""

import functools
import itertools
import operator
from collections import Counter

from .algebra import (FiniteAlgebra, _check_element, canonical_key,
                      chain_algebra, make_lmonoid, order_dual, trivial_algebra)
from .caps import check
from .congruences import (_sort_key, congruence_join, is_congruence,
                          is_subdirectly_irreducible, principal_congruences,
                          translation_tables)
from .errors import MalformedDocument, NotACongruence, UnknownName


def ln_plus(n):
    """(n+1)-chain of i/n with truncated addition: i+j capped at n, i*j
    floored at 0 after subtracting n."""
    if n < 1:
        raise MalformedDocument("ln_plus needs n >= 1")
    size = n + 1
    oplus = [[min(i + j, n) for j in range(size)] for i in range(size)]
    odot = [[max(i + j - n, 0) for j in range(size)] for i in range(size)]
    return chain_algebra(size, oplus, odot, name=f"L{n}+")


def cn_delta(n):
    """(n+1)-chain 0 < e < 2e < ... < (n-1)e < 1 of infinitesimal multiples:
    ie+je = min(i+j, n-1)e, ie*je = 0, and 1 is the *-unit / +-absorber."""
    if n < 1:
        raise MalformedDocument("cn_delta needs n >= 1")
    size = n + 1
    top = n

    def add(i, j):
        if i == top or j == top:
            return top
        return min(i + j, n - 1)

    def mul(i, j):
        if i == top:
            return j
        if j == top:
            return i
        return 0

    oplus = [[add(i, j) for j in range(size)] for i in range(size)]
    odot = [[mul(i, j) for j in range(size)] for i in range(size)]
    return chain_algebra(size, oplus, odot, name=f"C{n}d")


def cn_nabla(n):
    """Order dual of cn_delta: chain 0 < d^(n-1) < ... < d^2 < d < 1 of
    infinitesimal co-multiples; element i (1 <= i <= n-1) is d^(n-i)."""
    if n < 1:
        raise MalformedDocument("cn_nabla needs n >= 1")
    return order_dual(cn_delta(n)).rename(f"C{n}n")


def lm_delta(n):
    """(n+1)-chain with oplus = join and x*y = 0 unless one argument is 1."""
    if n < 1:
        raise MalformedDocument("lm_delta needs n >= 1")
    size = n + 1

    def mul(i, j):
        if i == size - 1:
            return j
        if j == size - 1:
            return i
        return 0

    oplus = [[max(i, j) for j in range(size)] for i in range(size)]
    odot = [[mul(i, j) for j in range(size)] for i in range(size)]
    return chain_algebra(size, oplus, odot, name=f"LM{n}d")


def lm_nabla(n):
    """Order dual of lm_delta: odot = meet, x+y = 1 unless one side is 0."""
    if n < 1:
        raise MalformedDocument("lm_nabla needs n >= 1")
    return order_dual(lm_delta(n)).rename(f"LM{n}n")


def _four_chain(name, bb_p, ab_p, aa_p, bb_t, ab_t, aa_t):
    # 4-chain 0 < b < a < 1 given the six non-forced table entries
    # (b=1, a=2); remaining entries are the unit/absorber laws
    oplus = [[0, 1, 2, 3],
             [1, bb_p, ab_p, 3],
             [2, ab_p, aa_p, 3],
             [3, 3, 3, 3]]
    odot = [[0, 0, 0, 0],
            [0, bb_t, ab_t, 1],
            [0, ab_t, aa_t, 2],
            [0, 1, 2, 3]]
    return chain_algebra(4, oplus, odot, name=name)


def _catalog_builders():
    b, a, one, zero = 1, 2, 3, 0
    return {
        # 3-element algebras
        "L2+": lambda: ln_plus(2),
        "C2d": lambda: cn_delta(2),
        "C2n": lambda: cn_nabla(2),
        "L2": lambda: chain_algebra(
            3, [[max(i, j) for j in range(3)] for i in range(3)],
            [[min(i, j) for j in range(3)] for i in range(3)], name="L2"),
        # 4-element chains 0 < b < a < 1; the nabla ones are order duals
        "A3d": lambda: _four_chain("A3d", b, one, one, zero, b, a),
        "A3n": lambda: order_dual(catalog("A3d")),
        "B3d": lambda: _four_chain("B3d", b, a, one, zero, zero, b),
        "B3n": lambda: order_dual(catalog("B3d")),
        "L3+": lambda: ln_plus(3),
        "C3d": lambda: cn_delta(3),
        "C3n": lambda: cn_nabla(3),
        "LM3d": lambda: lm_delta(3),
        "LM3n": lambda: lm_nabla(3),
        "L1+": lambda: ln_plus(1),
        "trivial": trivial_algebra,
    }


_ALIASES = {
    "A3Δ": "A3d", "A3∇": "A3n", "B3Δ": "B3d", "B3∇": "B3n",
    "C3Δ": "C3d", "C3∇": "C3n", "LM3Δ": "LM3d", "LM3∇": "LM3n",
    "C2Δ": "C2d", "C2∇": "C2n", "Ł1+": "L1+", "Ł2+": "L2+", "Ł3+": "L3+",
}


def catalog_names():
    return sorted(_catalog_builders())


def catalog(name):
    builders = _catalog_builders()
    key = _ALIASES.get(name, name)
    if key not in builders:
        raise UnknownName(f"unknown catalog algebra {name!r}")
    return builders[key]().rename(key)


# ---------------------------------------------------------------------------
# finite commutative l-monoids used as Gamma-of-lex seeds

def cn_delta_star(n):
    """n-chain 0 < e < ... < (n-1)e with truncated addition (zero at the
    bottom)."""
    plus = [[min(i + j, n - 1) for j in range(n)] for i in range(n)]
    return make_lmonoid(n, 0, plus, name=f"C{n}d*")


def cn_nabla_star(n):
    """n-chain of d-powers below zero: element i is -(n-1-i), addition clamped
    at the bottom (zero at the top)."""
    plus = [[max(i + j - (n - 1), 0) for j in range(n)] for i in range(n)]
    return make_lmonoid(n, n - 1, plus, name=f"C{n}n*")


def lm_delta_star(n):
    plus = [[max(i, j) for j in range(n)] for i in range(n)]
    return make_lmonoid(n, 0, plus, name=f"LM{n}d*")


def lm_nabla_star(n):
    plus = [[min(i, j) for j in range(n)] for i in range(n)]
    return make_lmonoid(n, n - 1, plus, name=f"LM{n}n*")


def trivial_lmonoid():
    return make_lmonoid(1, 0, ((0,),), name="0*")


def gamma_of_lex(M):
    """Unit interval of the lexicographic product Z x M: universe
    {(0,x): x >= 0_M} u {(1,x): x <= 0_M} with lex order, truncated +.
    Its lattice is the ordinal sum of the up-set and the down-set of 0_M,
    sublattices of M's proved lattice, so it is distributive and bounded
    by (0,z) and (1,z)."""
    z = M.zero
    lower = sorted(x for x in range(M.size) if M.leq(z, x))
    upper = sorted(x for x in range(M.size) if M.leq(x, z))
    universe = [(0, x) for x in lower] + [(1, x) for x in upper]
    index = {p: i for i, p in enumerate(universe)}

    def add(p, q):
        c = p[0] + q[0]
        s = M.plus[p[1]][q[1]]
        if c >= 2:
            return (1, z)
        if c == 1:
            return (1, M.meet[s][z])
        return (0, s)

    def mul(p, q):
        c = p[0] + q[0] - 1
        s = M.plus[p[1]][q[1]]
        if c < 0:
            return (0, z)
        if c == 0:
            return (0, M.join[s][z])
        return (1, s)

    def lat(p, q, pick_upper):
        if p[0] != q[0]:
            hi, lo = (p, q) if p[0] > q[0] else (q, p)
            return hi if pick_upper else lo
        t = M.join if pick_upper else M.meet
        return (p[0], t[p[1]][q[1]])

    def table(f):
        return tuple(tuple(index[f(p, q)] for q in universe)
                     for p in universe)

    return FiniteAlgebra(
        len(universe), index[(0, z)], index[(1, z)], table(add), table(mul),
        table(lambda p, q: lat(p, q, True)),
        table(lambda p, q: lat(p, q, False)),
        name=f"Gamma(Z x {M.name})" if M.name else "Gamma(Z x M)")


# ---------------------------------------------------------------------------
# product / subalgebra / quotient

def product(A, B):
    n = A.size * B.size
    check("PRODUCT", n, "product size")
    pairs = list(itertools.product(range(A.size), range(B.size)))
    index = {p: i for i, p in enumerate(pairs)}

    def table(ta, tb):
        return tuple(tuple(index[(ta[i1][j1], tb[i2][j2])]
                           for (j1, j2) in pairs) for (i1, i2) in pairs)

    return FiniteAlgebra(
        n, index[(A.zero, B.zero)], index[(A.one, B.one)],
        table(A.oplus, B.oplus), table(A.odot, B.odot),
        table(A.join, B.join), table(A.meet, B.meet),
        name=f"{A.name}x{B.name}" if A.name and B.name else "")


def _extend(A, closed, gens):
    """Least subuniverse containing the subuniverse `closed` and `gens`.
    Products of two elements of `closed` already lie in it, so only the
    products involving a new element are computed."""
    tables = translation_tables(A)
    members, seen = list(closed), set(closed)
    queue = list(set(gens) - seen)
    seen.update(queue)
    while queue:
        x = queue.pop()
        members.append(x)
        new = {t[x][y] for t in tables for y in members} - seen
        seen |= new
        queue += new
    return frozenset(seen)


def subuniverse_closure(A, gens):
    """Least subuniverse (containing 0 and 1) that contains gens."""
    gens = tuple(gens)
    for g in gens:
        _check_element(g, A.size, "generator")
    return _extend(A, (), {A.zero, A.one, *gens})


def _induced_tables(A, reps, index):
    """(size, zero, one, oplus, odot, join, meet), in `FiniteAlgebra`'s
    order, of the algebra on len(reps) elements whose element i stands for
    reps[i] and whose operations are A's on the representatives, read back
    through `index` (element of A -> new element).  Equal tuples give equal
    algebras, hence equal keys."""
    if len(reps) == 1:  # the trivial algebra; `pick` would not make tuples
        return (1, 0, 0) + (((0,),),) * 4
    get, pick = index.__getitem__, operator.itemgetter(*reps)

    def table(t):
        return tuple(tuple(map(get, pick(row))) for row in pick(t))

    return (len(reps), get(A.zero), get(A.one), table(A.oplus),
            table(A.odot), table(A.join), table(A.meet))


def _subalgebra_classes(A):
    """`subalgebras(A)` as (algebra, embedding, covers) triples, covers
    holding each lower cover of the embedding's subuniverse U in the lattice
    of subuniverses, as the tuple of its positions in the embedding.

    Every subuniverse is reached from the least one by adding one element
    at a time and closing, and each step from S counts the elements e that
    take S to each U.  S is a lower cover of U exactly when every e in
    U - S takes S to U (if S < S' < U, an e in S' - S takes S only into
    S'), so the walk records the covers as it goes."""
    least = subuniverse_closure(A, ())
    covers, stack = {least: []}, [least]
    while stack:
        S = stack.pop()
        grown = Counter(_extend(A, S, (e,)) for e in range(A.size)
                        if e not in S)
        for U, k in grown.items():
            if U not in covers:
                covers[U] = []
                stack.append(U)
            if k == len(U) - len(S):
                covers[U].append(S)
    found, seen = {}, set()
    for U in sorted(covers, key=lambda U: (len(U), sorted(U))):
        elems = sorted(U)
        index = {e: i for i, e in enumerate(elems)}
        sub = FiniteAlgebra(*_induced_tables(A, elems, index))
        n = len(seen)
        seen.add(sub)
        if len(seen) > n:
            found.setdefault(canonical_key(sub), (sub, tuple(elems), [
                tuple(sorted(map(index.__getitem__, S))) for S in covers[U]]))
    # by size first: from 256 elements on a key starts with two bytes
    return [found[k] for k in sorted(found,
                                     key=lambda k: (found[k][0].size, k))]


def subalgebras(A):
    """All subuniverses up to isomorphism, as (algebra, embedding) pairs
    sorted by (size, canonical key), each class embedded as its least
    subuniverse by (size, sorted elements).  Every subuniverse is reached
    from the least one by adding one element at a time and closing.  Many
    subuniverses induce the very tables of a smaller one in that order (on
    L1+^4, 355 subuniverses give 71 distinct tables): such a subalgebra
    equals one seen before and is not keyed, since its class already has
    its least subuniverse."""
    return [(sub, U) for sub, U, _ in _subalgebra_classes(A)]


def quotient(A, theta):
    """A/theta, block i being the i-th block of theta by least element."""
    if not is_congruence(A, theta):
        raise NotACongruence("partition is not compatible with the tables")
    return _quotient(A, theta)


def _quotient(A, theta):
    # `quotient` without the check, for a theta taken from Con(A): block i
    # stands for its least element, the first with block id i
    ids = theta.ids
    reps = [ids.index(b) for b in range(theta.num_blocks())]
    return FiniteAlgebra(*_induced_tables(A, reps, ids),
                         name=f"{A.name}/theta" if A.name else "")


def si_quotients(A):
    """The subdirectly irreducible quotients A/theta, in the order of
    `congruence_lattice(A)`.  Con(A/theta) is the interval above theta, so
    these are the theta with exactly one upper cover; in the distributive
    Con(A) they are the kappa(p), the join of the join-irreducibles not
    above p, one for each join-irreducible p.  A finite algebra is a
    subdirect product of them (Birkhoff)."""
    J = list(principal_congruences(A))
    kappas = [congruence_join(A, [q for q in J if not p.refines(q)])
              for p in J]
    return [_quotient(A, c) for c in sorted(kappas, key=_sort_key)]


def _si_classes(A):
    """A's SI quotients up to isomorphism, {key: quotient}, kept in A's
    cache.  An SI A stands alone, as its other SI quotients lie in HS(A)."""
    if "si_classes" not in A._cache:
        quotients = ([A] if is_subdirectly_irreducible(A)[0]
                     else si_quotients(A))
        A._cache["si_classes"] = {canonical_key(Q): Q for Q in quotients}
    return A._cache["si_classes"]


@functools.cache
def _ln_plus_key(e):
    return canonical_key(ln_plus(e))


def _si_indices(A):
    """The e with L_e+ among A's SI classes; None if some class is no L_e+."""
    found = {k: Q.size - 1 for k, Q in _si_classes(A).items()}
    if all(k == _ln_plus_key(e) for k, e in found.items()):
        return set(found.values())
