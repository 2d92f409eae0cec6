"""Exhaustive enumeration of MV-monoids over a fixed bounded distributive
lattice: the n-element chain, or any small lattice.

One pipeline serves both.  `_monoid_tables` lists the commutative monoid
tables that distribute over join and meet (the additive ones, and the
multiplicative ones as the additive ones of the order dual); `_pairs` runs
the connecting-axiom filters over every (oplus, odot) pair.  Chains are
rigid, so distinct chain tables are distinct isomorphism classes; lattice
outputs are deduplicated by canonical key.
"""

from .algebra import (canonical_key, chain_algebra, make_algebra, max_table,
                      min_table)
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
             for k, i in enumerate(inner) for j in inner[k:]]
    out = []

    def leaf_ok():
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = t[ta[b]]
                tb = t[b]
                for c in range(n):
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
                out.append(tuple(map(tuple, t)))
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


def _pairs(join, meet, zero, one, order, flt):
    """The (oplus, odot) table pairs on the lattice that the filter sees, in
    lexicographic order: pairs of monoid tables satisfying the two
    mixed-associativity axioms, and for the refined filters the two
    truncation axioms as well, so that they satisfy the full definition."""
    n = len(order)
    adds = _monoid_tables(join, meet, zero, order)
    muls = _monoid_tables(meet, join, one, order[::-1])
    for p in adds:
        for q in muls:
            if not _mixed_assoc_ok(n, p, q):
                continue
            if flt != "all" and not _truncation_ok(n, join, meet, p, q):
                continue
            yield p, q


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
    pairs = _pairs(max_table(n), min_table(n), 0, n - 1, list(range(n)), flt)
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
