"""Exhaustive enumeration of MV-monoids over a fixed bounded distributive
lattice: the n-element chain, or any small lattice.

One pipeline serves both.  `_monoid_tables` lists the commutative monoid
tables that distribute over join and meet (the additive ones, and the
multiplicative ones as the additive ones of the order dual); `_pairs`
searches, for each additive table, the prefix tree of the multiplicative
ones for those meeting the connecting axioms, checking each axiom instance
as soon as the cells it reads are known (finite model search in the style
of SEM and Mace4).  On the chain, reversing the order and swapping oplus
with odot maps the passing pairs onto themselves, so of a pair and its
mirror image only one is walked and the other recorded from it (the usual
symmetry breaking of finite model search).  Chains are rigid, so distinct
chain tables are distinct isomorphism classes; lattice outputs are
deduplicated by canonical key.
"""

from .algebra import (canonical_key, chain_algebra, dual_table, make_algebra,
                      max_table, min_table)
from .axioms import si_necessary_condition
from .caps import check
from .congruences import is_subdirectly_irreducible
from .errors import BadArgument
from .posets import lattice_cover_pairs
from .terms import CANCELLATIVITY, satisfies_quasi

FILTERS = ("all", "si-necessary", "si", "positive")


def _check_arguments(n, flt, cap_name, what):
    check(cap_name, n, f"{what} enumeration size")
    if n < 1:
        raise BadArgument(f"need n >= 1, got {n}")
    if flt not in FILTERS:
        raise BadArgument(f"unknown filter {flt!r}")


def _passes(A, flt):
    # the refined filters only ever see tables that already satisfy all the
    # MV-monoid axioms, so "positive" needs cancellativity alone
    if flt == "si-necessary":
        return si_necessary_condition(A)
    if flt == "si":
        return is_subdirectly_irreducible(A)[0]
    if flt == "positive":
        return satisfies_quasi(A, CANCELLATIVITY)
    return True


def _inner_cells(order):
    """The cells (i, j), i before j in `order`, of the elements strictly
    between its first and last, row-major: the cells `_monoid_tables`
    searches, in its order."""
    inner = order[1:-1]
    return [(i, j) for k, i in enumerate(inner) for j in inner[k:]]


def _monoid_tables(join, meet, unit, order):
    """All commutative, associative tables with the given unit that are
    monotone and distribute over join and meet, sorted.

    `order` is a linear extension of the lattice order starting at `unit`
    (the bottom).  Monotonicity and the unit force t(i,j) >= i v j and make
    the top absorbing, so only the cells (i,j) with i, j strictly between
    bottom and top are searched, row-major in `order`.  A cell takes the
    elements above i v j joined with the filled cells t(i',j), t(i,j') at
    the lower covers i' of i and j' of j; on a chain that bound is
    max(j, t(i,j-1), t(i-1,j)).  Distributivity over comparable elements is
    monotonicity, so the leaves check it on incomparable pairs only, along
    with associativity.  Multiplicative tables are the additive ones of the
    order dual: call with (meet, join, one, reversed order).
    """
    n = len(order)
    leq = [[join[a][b] == b for b in range(n)] for a in range(n)]
    above = [[v for v in order if leq[a][v]] for a in range(n)]
    lower_covers = [[] for _ in range(n)]
    for b, a in lattice_cover_pairs(join):
        lower_covers[a].append(b)
    incomparable = [(b, c) for b in range(n) for c in range(b + 1, n)
                    if not leq[b][c] and not leq[c][b]]
    top = order[-1]
    t = [[None] * n for _ in range(n)]
    for i in range(n):
        t[top][i] = t[i][top] = top
        t[unit][i] = t[i][unit] = i
    inner = order[1:-1]
    cells = [(i, j, [(a, j) for a in lower_covers[i]]
              + [(i, b) for b in lower_covers[j]])
             for i, j in _inner_cells(order)]
    out = []
    rows = {}  # each distinct row is stored once, shared by the tables

    def leaf_ok():
        # the unit and the absorbing top satisfy both laws in any position
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
                out.append(tuple(rows.setdefault(r, r)
                                 for r in map(tuple, t)))
            return
        i, j, below = cells[idx]
        lo = join[i][j]
        for a, b in below:
            lo = join[lo][t[a][b]]
        ti, tj = t[i], t[j]
        for v in above[lo]:
            ti[j] = tj[i] = v
            fill(idx + 1)

    fill(0)
    out.sort()
    return out


def _prefix_tree(tables, cells, rank):
    """The distinct tables as a prefix tree over their values at `cells`: a
    node is a list of (value, child, top) triples, top the largest rank of
    a table below the child; a leaf is the table's index in `tables`."""
    def build(indices, d):
        if d == len(cells):
            return indices[0], rank[indices[0]]
        i, j = cells[d]
        groups = {}
        for idx in indices:
            groups.setdefault(tables[idx][i][j], []).append(idx)
        node = [(v, *build(group, d + 1)) for v, group in groups.items()]
        return node, max(top for _, _, top in node)

    return build(range(len(tables)), 0)[0]


def _pairs(join, meet, zero, one, order, flt, delta=None):
    """The (oplus, odot) table pairs on the lattice that the filter sees, in
    lexicographic order: pairs of monoid tables satisfying the two
    mixed-associativity axioms, and for the refined filters the two
    truncation axioms as well, so that they satisfy the full definition.

    For each additive table p the multiplicative tables are walked as a
    prefix tree over the cells in the order `_monoid_tables` fills them.  An
    axiom instance (x, y, z) is checked at the first node where every odot
    cell it reads is known, so a failing prefix is cut once for all the
    tables below it.  Its cells (x,y) and (y,z) fix the node it enters at;
    the other cells it reads depend on p and on values of q, and when one is
    not yet known the instance waits in `pending` at that cell's depth.
    Instances that the unit and absorption laws decide for every pair of
    monotone monoid tables are not listed: all those with y in {0, 1},
    mixed associativity (A) at x = 0 or z = 1 and (B) at x = 1 or z = 0,
    truncation (C) at x in {0, 1} or z = 1 and (D) at x in {0, 1} or z = 0;
    (C) and (D) are symmetric in x and y.

    `delta`, when given, is an order-reversing involution of the lattice.
    The definition is self-dual: sigma(p, q) = (q^delta, p^delta) is a
    bijection between the pairs of monoid tables that sends instances of
    (A), (B), (C), (D) to instances of (B), (A), (D), (C), so a pair passes
    exactly when its image does.  With rank(q) the index of q^delta among
    the additive tables, the walk for the i-th additive table p_i enters no
    subtree whose tables all rank below i, and a hit (p_i, q) with
    rank(q) = j > i yields the hit (p_j, p_i^delta) as well; each pair
    passes through the walk once, as itself or as its image, and every
    instance is still checked on the pairs walked.
    """
    n = len(order)
    adds = _monoid_tables(join, meet, zero, order)
    muls = _monoid_tables(meet, join, one, order[::-1])
    if delta is None:  # every walk covers the whole tree, nothing mirrors
        rank = [0] * len(muls)
    else:
        index = {t: i for i, t in enumerate(adds)}
        rank = [index[dual_table(t, delta)] for t in muls]
        dual_of = sorted(range(len(muls)), key=rank.__getitem__)
    cells = _inner_cells(order[::-1])
    tree = _prefix_tree(muls, cells, rank)
    depth = [0] * (n * n)  # cell i*n+j is known from this depth on
    flat = []
    for d, (i, j) in enumerate(cells, 1):
        depth[i * n + j] = depth[j * n + i] = d
        flat.append((i * n + j, j * n + i))
    last = len(cells)
    # (kind, x*n+y, y*n+z, x*n, z) by the depth where the cell (x,y) and, for
    # (A) and (B), (y,z) are known
    enter = [[] for _ in range(last + 1)]
    pending = [[] for _ in range(last + 1)]
    for y in order[1:-1]:
        for x in order:
            a = x * n + y
            for z in order:
                c = y * n + z
                at = max(depth[a], depth[c])
                if x != zero and z != one:
                    enter[at].append(("A", a, c, x * n, z))
                if x != one and z != zero:
                    enter[at].append(("B", a, c, x * n, z))
                if flt != "all" and x not in (zero, one) and x <= y:
                    if z != one:
                        enter[depth[a]].append(("C", a, c, x * n, z))
                    if z != zero:
                        enter[depth[a]].append(("D", a, c, x * n, z))
    # odot as flat lists q[i*n+j], with qn = n*q; the inner cells are
    # overwritten along the walk
    q = [v for row in muls[0] for v in row]
    qn = [v * n for v in q]

    def walk(node, d):
        # p, pn = n*p and hits are those of the current additive table
        waiting = []
        for items in (enter[d], pending[d]):
            for item in items:
                kind, a, c, xn, z = item
                if kind == "A":  # q[pxy][p[qxy][z]] == p[q[x][pyz]][qyz]
                    b = xn + p[c]
                    at = depth[b]
                    if at <= d:
                        k = pn[a] + p[qn[a] + z]
                        at = depth[k]
                        if at <= d:
                            if q[k] != p[qn[b] + q[c]]:
                                break
                            continue
                elif kind == "B":  # p[qxy][q[pxy][z]] == q[p[x][qyz]][pyz]
                    b = pn[a] + z
                    at = depth[b]
                    if at <= d:
                        k = pn[xn + q[c]] + p[c]
                        at = depth[k]
                        if at <= d:
                            if q[k] != p[qn[a] + q[b]]:
                                break
                            continue
                elif kind == "C":  # p[qxy][z] == q[pxy][p[qxy][z]] v z
                    v = p[qn[a] + z]
                    k = pn[a] + v
                    at = depth[k]
                    if at <= d:
                        if join[q[k]][z] != v:
                            break
                        continue
                else:  # q[pxy][z] == p[qxy][q[pxy][z]] ^ z
                    b = pn[a] + z
                    at = depth[b]
                    if at <= d:
                        if q[b] != meet[p[qn[a] + q[b]]][z]:
                            break
                        continue
                pending[at].append(item)
                waiting.append(at)
            else:
                continue
            break
        else:
            if d == last:
                hits.append(node)
            else:
                k1, k2 = flat[d]
                for v, child, top in node:
                    if top < floor:
                        continue
                    q[k1] = q[k2] = v
                    qn[k1] = qn[k2] = v * n
                    walk(child, d + 1)
        for at in waiting:
            pending[at].pop()

    mirrored = [[] for _ in adds]  # mirrored[j]: odot indices for p_j
    for i, t in enumerate(adds):
        floor = 0 if delta is None else i
        p = [v for row in t for v in row]
        pn = [v * n for v in p]
        hits = []
        walk(tree, 0)
        for idx in hits:
            if rank[idx] > floor:
                mirrored[rank[idx]].append(dual_of[i])
        hits += mirrored[i]
        mirrored[i] = None
        for idx in sorted(hits):
            yield t, muls[idx]


def enumerate_chain(n, flt="all"):
    """Algebras on the n-element chain, in lexicographic table order.

    The "all" filter emits every chain algebra satisfying the lattice, monoid,
    distributivity and mixed-associativity axioms; the two truncation axioms
    are not enforced there, so on the 4-chain it yields 19 tables of which 17
    satisfy the full definition.  The refined filters (si-necessary, si,
    positive) enforce the full axiom set before filtering.  Outputs are named
    chain{n}_{k}, with k counting the algebras the filter was asked about.
    """
    _check_arguments(n, flt, "ENUM_CHAIN", "chain")
    out = []
    order = list(range(n))
    pairs = _pairs(max_table(n), min_table(n), 0, n - 1, order, flt,
                   delta=order[::-1])
    for count, (p, q) in enumerate(pairs):
        A = chain_algebra(n, p, q, name=f"chain{n}_{count}", validate=False)
        if _passes(A, flt):
            out.append(A)
    return out


def enumerate_on_lattice(L, flt="all"):
    """All MV-monoids with the given lattice reduct (a FiniteAlgebra whose
    join/meet are used; oplus/odot of L are ignored), up to isomorphism, in
    canonical-key order.  Filters as for `enumerate_chain`."""
    n = L.size
    _check_arguments(n, flt, "ENUM_LATTICE", "lattice")
    order = sorted(range(n), key=L.height)
    found = {}
    for p, q in _pairs(L.join, L.meet, L.zero, L.one, order, flt):
        A = make_algebra(n, L.zero, L.one, p, q, join=L.join, meet=L.meet,
                         validate=False)
        if _passes(A, flt):
            found.setdefault(canonical_key(A), A)
    return [found[k] for k in sorted(found)]
