"""Exhaustive enumeration of MV-monoids over a fixed bounded distributive
lattice: the n-element chain, or any small lattice.

One pipeline serves both, and one search discipline (finite model search in
the style of SEM and Mace4): the cells of a table are filled in the order of
`_fill_order`, and each axiom instance is checked at a depth fixed before the
search, where every cell it reads is known, so a failing prefix is cut once
for all the tables below it.  `_monoid_tables` lists the commutative monoid
tables that distribute over join and meet (the additive ones, and the
multiplicative ones as the additive ones of the order dual), each cell
taking the values between the join of its arguments and the meet of the
cells above it, with associativity and distributivity checked during the
fill; `_pairs` searches, for each additive table, the prefix tree of the
multiplicative ones for those meeting the connecting axioms (of the two
mixed-associativity laws only the first, which implies the second, and the
truncation laws once per cell), and runs the filter on each pair it finds.
On the chain, reversing the order and swapping oplus with odot maps the
passing pairs onto themselves, so the multiplicative tables are the order
duals of the additive ones, and of a pair and its mirror image only one is
walked and filtered, the other recorded from it with the same verdict (the
usual symmetry breaking of finite model search).
Chains are rigid, so distinct chain tables are distinct isomorphism classes;
lattice outputs are deduplicated by canonical key.
"""

import functools
import operator

from .algebra import (FiniteAlgebra, canonical_key, dual_table, max_table,
                      min_table)
from .axioms import _si_necessary
from .caps import check
from .congruences import _monolith_of, _table_steps
from .errors import BadArgument
from .posets import lower_covers

FILTERS = ("all", "si-necessary", "si", "positive")


def _check_arguments(n, flt, cap_name, what):
    check(cap_name, n, f"{what} enumeration size")
    if n < 1:
        raise BadArgument(f"need n >= 1, got {n}")
    if flt not in FILTERS:
        raise BadArgument(f"unknown filter {flt!r}")


def _verdict(flt, join, zero, one):
    """The filter as a function of the + and * tables on the lattice: its
    verdict on their algebra, with none built.  The refined filters see
    MV-monoids only, so "positive" is cancellativity: for each z, x ->
    (x + z, x * z) is one to one.  "si" ORs the two tables' step tables,
    each table's found once per call, for `congruences._monolith_of`."""
    if flt == "si-necessary":
        return _si_necessary(join, zero, one)
    if flt == "si":
        steps = functools.cache(lambda t: _table_steps(join, t))
        return lambda p, q: bool(_monolith_of(
            list(map(operator.or_, steps(p), steps(q)))))
    if flt == "positive":
        return lambda p, q: all(len(set(zip(x, y))) == len(join)
                                for x, y in zip(zip(*p), zip(*q)))
    return lambda p, q: True


def _fill_order(order):
    """The inner cells (i, j), i and j strictly between the first and the
    last of `order`, in the order the searches of `_monoid_tables` and
    `_pairs` fill them, and the depth from which each cell i*n+j is known:
    0 for the cells of the first or the last element, known from the start.

    Pass r, one per inner element r, later elements of `order` first, fills
    {r, j} for each inner j at or before r, j going down.  Lemma: {a, b} is
    known no later than {a', b'} when a, b come at or after a', b', neither
    first.  Proof: the later of a and b comes at or after the later of a'
    and b', in an earlier pass if after, or it is the last element; if both
    are r, the earlier of a and b comes at or after the earlier of a' and
    b', so {a, b} comes no later in pass r.
    """
    n = len(order)
    inner = order[-2:0:-1]
    cells = [(i, j) for k, i in enumerate(inner) for j in inner[k:]]
    depth = [0] * (n * n)
    for d, (i, j) in enumerate(cells, 1):
        depth[i * n + j] = depth[j * n + i] = d
    return cells, depth


def _table_schedule(join, meet, order):
    """The cells in the order `_monoid_tables` fills them, the depth from
    which each cell i*n+j is known, and by the depth they enter at (see the
    entry lemma there) the associativity instances (a*n+b, b*n+c, a*n, c)
    and the distributivity instances (a*n+b, a*n+c, a*n+(b v c),
    a*n+(b ^ c))."""
    n = len(order)
    pos = {v: k for k, v in enumerate(order)}
    cells, depth = _fill_order(order)
    inner = order[1:-1]
    assoc = [[] for _ in range(len(cells) + 1)]
    dist = [[] for _ in range(len(cells) + 1)]
    for a in inner:
        an = a * n
        for b in inner:
            for c in inner:
                if pos[a] <= pos[c]:
                    ab, bc = an + b, b * n + c
                    assoc[max(depth[ab], depth[bc])].append((ab, bc, an, c))
                if b < c and join[b][c] not in (b, c):  # b, c incomparable
                    reads = (an + b, an + c, an + join[b][c], an + meet[b][c])
                    dist[max(map(depth.__getitem__, reads))].append(reads)
    return cells, depth, assoc, dist


def _monoid_tables(join, meet, unit, order):
    """All commutative, associative tables with the given unit that are
    monotone and distribute over join and meet, sorted.

    `order` is a linear extension of the lattice order starting at `unit`
    (the bottom).  Monotonicity and the unit force t(i,j) >= i v j and make
    the top absorbing, so only the inner cells (i,j), i and j strictly
    between bottom and top, are searched, in the order of `_fill_order`:
    pass r, one per inner element r, later elements first, fills (r, j) for
    each inner j at or before r, j going down.  Multiplicative tables are
    the additive ones of the order dual: call with (meet, join, one,
    reversed order).

    Candidates: a cell (i,j) takes the v with i v j <= v <= the meet of the
    filled cells t(u,j), t(i,u') at the upper covers u of i and u' of j; on
    a chain, max(i, j) <= v <= min(t(i+1,j), t(i,j+1)).  Each such cell
    comes before (i,j): u comes after i, so by the fill-order lemma {u, j}
    is known no later than {i, j}, and it is another cell (when u is the
    top it is the top, known at once).  So each cover step of monotonicity
    between inner cells is checked once, when its lower cell is filled, and
    the bound i v j = t(i,0) v t(0,j) is the step from the unit's row: the
    complete tables are exactly the monotone ones.

    The other laws are checked during the fill, each instance at a depth
    that `_table_schedule` fixes before the search, from which every cell
    it reads is known (the cells past the current one hold a sibling
    branch's values), so a failing prefix is cut once for all the tables
    below it:
    - associativity, t(t(a,b),c) = t(a,t(b,c)), for a, b, c inner and a
      at or before c in `order`, enters at max(depth{a,b}, depth{b,c}).
      It holds by the unit and absorption laws when one of a, b, c is the
      bottom or the top, and at (c, b, a) it is the one at (a, b, c) with
      its sides swapped.  Entry lemma: the instance reads {a,b}, {b,c},
      {t(a,b),c} and {a,t(b,c)}.  Proof: t(a,b) >= a v b >= b, so t(a,b)
      is the top, known at once, or b or an element after it, and then
      {t(a,b), c} is known no later than {b, c} by the fill-order lemma;
      likewise t(b,c) >= b, so {a, t(b,c)} is known no later than {a, b}.
    - distributivity, t(a,b v c) = t(a,b) v t(a,c) and t(a,b ^ c) =
      t(a,b) ^ t(a,c), for a inner and b, c with neither below the other,
      enters once {a,b}, {a,c}, {a,b v c} and {a,b ^ c} are all known.
      For b <= c it is monotonicity, and at a = bottom or top the unit and
      absorption laws.
    So a complete table needs no further check.
    """
    n = len(order)
    top = order[-1]
    cells, _, assoc, dist = _table_schedule(join, meet, order)
    leq = [[join[a][b] == b for b in range(n)] for a in range(n)]
    between = [[[v for v in order if leq[lo][v] and leq[v][hi]]
                for hi in range(n)] for lo in range(n)]
    above = lower_covers(meet)  # the upper covers, as lower ones of the dual
    fill = [(i * n + j, j * n + i, join[i][j],
             sorted({u * n + j for u in above[i] if u != top}
                    | {i * n + u for u in above[j] if u != top}))
            for i, j in cells]
    last = len(cells)
    t = [top] * (n * n)  # flat, t[i*n+j], inner cells set by the search
    for i in range(n):
        t[unit * n + i] = t[i * n + unit] = i
    tn = [v * n for v in t]  # n*t, so a value indexes its row at once
    out = []
    rows = {}  # each distinct row is stored once, shared by the tables

    def search(d):
        for ab, bc, an, c in assoc[d]:  # t(t(a,b),c) == t(a,t(b,c))
            if t[tn[ab] + c] != t[an + t[bc]]:
                return
        for ab, ac, ajoin, ameet in dist[d]:
            x, y = t[ab], t[ac]
            if t[ajoin] != join[x][y] or t[ameet] != meet[x][y]:
                return
        if d == last:
            table = list(zip(*[iter(t)] * n))
            out.append(tuple(map(rows.setdefault, table, table)))
            return
        k1, k2, lo, uppers = fill[d]
        hi = top
        for k in uppers:
            hi = meet[hi][t[k]]
        for v in between[lo][hi]:
            t[k1] = t[k2] = v
            tn[k1] = tn[k2] = v * n
            search(d + 1)

    search(0)
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


def _dual_tables(tables, delta):
    """The tables t^delta, sorted, each distinct row stored once as in
    `_monoid_tables`, and rank: the k-th one is the dual of tables[rank[k]].
    Of the additive tables and an order-reversing involution delta these are
    the multiplicative tables, as `_monoid_tables` lists them."""
    rows = {}
    duals = [tuple(rows.setdefault(r, r) for r in dual_table(t, delta))
             for t in tables]
    rank = sorted(range(len(tables)), key=duals.__getitem__)
    return [duals[k] for k in rank], rank


def _schedule(order, flt):
    """The odot cells in the order the walk of `_pairs` fills them, the depth
    from which each cell i*n+j is known, and by the depth they enter at (see
    the schedule lemma there) the truncation cells and the (A) instances."""
    n = len(order)
    cells, depth = _fill_order(order)
    truncation = [[] for _ in range(len(cells) + 1)]
    enter = [[] for _ in range(len(cells) + 1)]
    if flt != "all":  # {m, j} at the end of pass m
        for m, j in cells:
            truncation[depth[m * n + order[1]]].append(m * n + j)
    for y in order[1:-1]:  # (A) as (x*n+y, y*n+z, x*n, z)
        for x in order[1:]:  # x != 0 and z != 1
            mn = max(x, y, key=order.index) * n
            for z in order[:-1]:
                a, c = x * n + y, y * n + z
                at = depth[mn + (z if z != order[0] else order[1])]
                enter[max(depth[a], depth[c], at)].append((a, c, x * n, z))
    return cells, depth, truncation, enter


def _pairs(join, meet, zero, one, order, flt, delta=None):
    """The (oplus, odot, kept) triples on the lattice, in lexicographic
    order of the pairs: the pairs of monoid tables satisfying the two
    mixed-associativity axioms, and for the refined filters the two
    truncation axioms as well, so that they satisfy the full definition,
    each with the filter's verdict on its algebra.

    Of the mixed-associativity axioms only (A), conn.1, is searched: it implies
    its order dual (B), conn.2.  Lemma: if + and * are commutative and
    monotone, with units 0 (the bottom) and 1 (the top), and (A) holds for all
    x, y, z, then so does (B).  Proof: monotonicity gives x*0 = 0, x+1 = 1 and
    t*c <= t <= t+c.  (A) at z = 0 gives (u+v) * (u*v) = u*v, and at x = 1
    gives (u+v) + (u*v) = u+v; so s = u+v and t = u*v satisfy s+t = s and
    s*t = t, and t = t*s <= t*(s+w) <= t for every w.  (A) at (t, s, z), with
    s = x+y and t = x*y, makes the left sides of (A) and (B) at (x, y, z)
    equal, and (A) at (t, s, x), with s = y+z and t = y*z, their right sides.
    Associativity and distributivity are not used; all monoid tables qualify.

    Truncation (C), conn.3, and (D), conn.4, read x and y only through
    s = x+y and t = x*y, and over all z only row s of * and row t of +:
    (C) is t+z = (s * (t+z)) v z and (D) is s*z = (t + (s*z)) ^ z.  Lemma:
    for + and * monotone, with units 0 and 1, both hold when s = 1 or t = 0.
    Proof: t*c <= 1*c = c <= 0+c <= t+c.  At t = 0 they read z = (s*z) v z
    and s*z = (s*z) ^ z, true as s*z <= z; at s = 1 they read t+z =
    (t+z) v z and z = (t+z) ^ z, true as z <= t+z.  With x in {0, 1} one
    of the two holds, and (C) and (D) are symmetric in x and y, so for each
    additive table p they are one check per cell {x, y}, x and y both
    strictly between 0 and 1: it loops over z once row s of odot is known
    (see the schedule lemma), and passes at once when s = 1 or t = 0.

    For each additive table p the multiplicative tables are walked as a
    prefix tree over the cells in the order of `_fill_order`: pass r, one
    per inner element r, later elements of `order` first, fills {r, j} for
    each inner j at or before r, j going down; cells with 0 or 1 are known
    from the start.  Each check enters at a depth, fixed by `_schedule` from
    `order` alone, where every odot cell it reads is known (cells off the
    current path hold a sibling branch's values), so a failing prefix is cut
    once for all the tables below it.  Instances of (A) with y in {0, 1},
    x = 0 or z = 1 hold by the unit and absorption laws and are not listed.
    A node runs its truncation checks, in the order of their cells, then its
    (A) instances; one that cuts moves to the front of its depth's list, so
    the next table tries it first (the hits do not depend on that order).

    Schedule lemma: let + and * be monotone, with units 0 and 1, and `order`
    a linear extension with the bottom first (as `_monoid_tables` requires).
    For x, y not 0 let m be the later of x and y, z' = z, or order[1] when
    z = 0, s = x+y, t = x*y, u = y+z and w = t+z.  Then (A) at (x, y, z),
    which reads odot at {x,y}, {y,z}, {x,u} and {s,w}, can be checked once
    {x,y}, {y,z} and {m,z'} are known, and, for x and y inner, (C) and (D),
    which read {x,y} and row s, once pass m ends, at {m, order[1]}.  Proof:
    s >= x, y, u >= y and w >= z, and a larger element comes no earlier, so
    s is m or later and {x,u} is known no later than {x,y}, by the
    fill-order lemma (see `_fill_order`).  For z = 0,
    w = t is 0 or at or after order[1]; either way {s,w} is known no later
    than {m,z'}.  Row s: {s,0} is known from the start, and every other
    {s,z}, like {x,y}, no later than {m, order[1]}, the last cell of pass m.

    The filter is `_verdict`'s, read off the two tables: no algebra is
    built, and for "si" each table's step table is found once per call.

    `delta`, when given, is an order-reversing involution of the lattice.  The
    definition is self-dual: t -> t^delta maps the additive tables onto the
    multiplicative ones, which are built that way, and sigma(p, q) =
    (q^delta, p^delta) is a bijection between the pairs of monoid tables that
    swaps (A) with (B) and (C) with (D).  A walked pair passes (A), so (B), so
    its image passes (A): a pair passes exactly when its image does.  With
    rank(q) the index of q^delta among the additive tables, the walk for the
    i-th additive table p_i enters no subtree whose tables all rank below i,
    and a hit (p_i, q) with rank(q) = j > i yields the hit (p_j, p_i^delta)
    as well; each pair passes through the walk once, as itself or as its
    image, and every instance is still checked on the pairs walked.  The
    filter runs on the walked pair only and its verdict is recorded for the
    image: the image's algebra is the order dual of the walked one A carried
    along delta, isomorphic to `order_dual(A)`, with A's congruences carried
    by delta, so one is subdirectly irreducible exactly when the other is;
    cancellativity and `si_necessary_condition` are self-dual, so they read
    the same on both.
    """
    n = len(order)
    adds = _monoid_tables(join, meet, zero, order)
    if delta is None:  # every walk covers the whole tree, nothing mirrors
        muls = _monoid_tables(meet, join, one, order[::-1])
        rank = [0] * len(muls)
    else:
        muls, rank = _dual_tables(adds, delta)
        dual_of = sorted(range(len(muls)), key=rank.__getitem__)
    cells, _, truncation, enter = _schedule(order, flt)
    tree = _prefix_tree(muls, cells, rank)
    flat = [(i * n + j, j * n + i) for i, j in cells]
    last = len(cells)
    # odot as flat lists q[i*n+j] and qn = n*q, inner cells set by the walk
    q = [v for row in muls[0] for v in row]
    qn = [v * n for v in q]

    def walk(node, d):
        # p, pn = n*p and hits are those of the current additive table
        for a in truncation[d]:  # (C) and (D) at (x, y, z) for each z
            s, t = p[a], q[a]
            if s != one and t != zero:
                sn, tn = s * n, t * n
                for z in order:
                    v, w = p[tn + z], q[sn + z]
                    if join[q[sn + v]][z] != v or meet[p[tn + w]][z] != w:
                        return
        items = enter[d]
        for item in items:  # q[pxy][p[qxy][z]] == p[q[x][pyz]][qyz]
            a, c, xn, z = item
            if q[pn[a] + p[qn[a] + z]] != p[qn[xn + p[c]] + q[c]]:
                items.remove(item)  # fail first on the next table
                items.insert(0, item)
                return
        if d == last:
            hits.append(node)
            return
        k1, k2 = flat[d]
        for v, child, top in node:
            if top >= floor:
                q[k1] = q[k2] = v
                qn[k1] = qn[k2] = v * n
                walk(child, d + 1)

    verdict = _verdict(flt, join, zero, one)
    # mirrored[j]: odot index -> the verdict on the mirror pair, for p_j
    mirrored = [{} for _ in adds]
    for i, t in enumerate(adds):
        floor = 0 if delta is None else i
        p = [v for row in t for v in row]
        pn = [v * n for v in p]
        hits = []
        walk(tree, 0)
        known = mirrored[i]
        mirrored[i] = None
        for idx in sorted(hits + list(known)):
            kept = known.get(idx)
            if kept is None:
                kept = verdict(t, muls[idx])
                if rank[idx] > floor:
                    mirrored[rank[idx]][dual_of[i]] = kept
            yield t, muls[idx], kept


def enumerate_chain(n, flt="all"):
    """Algebras on the n-element chain, in lexicographic table order.

    The "all" filter emits every chain algebra satisfying the lattice, monoid,
    distributivity and mixed-associativity axioms; the two truncation axioms
    are not enforced there, so on the 4-chain it yields 19 tables of which 17
    satisfy the full definition.  The refined filters (si-necessary, si,
    positive) enforce the full axiom set before filtering.  Outputs are named
    chain{n}_{k}, with k counting the algebras the filter rules on, a
    mirror image included although its verdict is read off its twin's.
    """
    pairs = _chain_census(n, flt)
    join, meet = max_table(n), min_table(n)
    return [FiniteAlgebra(n, 0, n - 1, p, q, join, meet,
                          name=f"chain{n}_{count}")
            for count, (p, q, kept) in enumerate(pairs) if kept]


def _chain_census(n, flt):
    """The (oplus, odot, kept) triples of `_pairs` on the n-element chain,
    mirrored through its order reversal, the arguments checked at the
    call: what `enumerate_chain` builds its algebras from, and what
    `mvmlab enumerate --count-only` counts without building any."""
    _check_arguments(n, flt, "ENUM_CHAIN", "chain")
    order = list(range(n))
    return _pairs(max_table(n), min_table(n), 0, n - 1, order, flt,
                  delta=order[::-1])


def enumerate_on_lattice(L, flt="all"):
    """All MV-monoids with the given lattice reduct (a FiniteAlgebra whose
    join/meet are used; oplus/odot of L are ignored), up to isomorphism, in
    canonical-key order.  Filters as for `enumerate_chain`."""
    n = L.size
    _check_arguments(n, flt, "ENUM_LATTICE", "lattice")
    order = sorted(range(n), key=L.heights().__getitem__)
    found = {}
    for p, q, kept in _pairs(L.join, L.meet, L.zero, L.one, order, flt):
        if kept:
            A = FiniteAlgebra(n, L.zero, L.one, p, q, L.join, L.meet)
            found.setdefault(canonical_key(A), A)
    return [found[k] for k in sorted(found)]
