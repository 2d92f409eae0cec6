"""Exhaustive enumeration of MV-monoids over a fixed n-element chain (or a
small fixed lattice), with isomorphism-free output for chains (chains are
rigid, so distinct tables are distinct iso classes)."""

from .algebra import canonical_key, chain_algebra, make_algebra
from .axioms import is_mv_monoid, si_necessary_condition
from .caps import cap
from .congruences import is_subdirectly_irreducible
from .errors import CapExceeded
from .terms import CANCELLATIVITY, satisfies_quasi

FILTERS = ("all", "si-necessary", "si", "positive")


def _passes(A, flt):
    # the refined filters only ever see tables that already satisfy all the
    # MV-monoid axioms, so "positive" needs cancellativity alone
    if flt == "all":
        return True
    if flt == "si-necessary":
        return si_necessary_condition(A)
    if flt == "si":
        return is_subdirectly_irreducible(A)[0]
    if flt == "positive":
        return satisfies_quasi(A, CANCELLATIVITY)
    raise ValueError(f"unknown filter {flt!r}")


def _monoid_tables_on_chain(n, additive):
    """All commutative monoid tables on the n-chain that are monotone and lie
    above join (additive) / below meet (multiplicative); these are exactly the
    chain monoids distributing over max and min.

    Cells (i,j) with 1 <= i <= j <= n-2 are scanned row-major; rows 0 and n-1
    are forced by the unit and by monotonicity against the unit row.  Smaller
    values first, so the output order is the lexicographic table order.
    """
    cells = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
    t = [[0] * n for _ in range(n)]
    for i in range(n):
        # additive: unit 0, absorber n-1; multiplicative is built as the
        # additive table of the reversed chain and flipped afterwards
        t[0][i] = t[i][0] = i
        t[n - 1][i] = t[i][n - 1] = n - 1
    out = []

    def candidates(idx):
        i, j = cells[idx]
        lo = j  # x + y >= x v y
        if j > i:
            lo = max(lo, t[i][j - 1])
        if i > 1:
            lo = max(lo, t[i - 1][j])
        return range(lo, n)

    def assoc_ok():
        for a in range(n):
            for b in range(n):
                ab = t[a][b]
                for c in range(n):
                    if t[ab][c] != t[a][t[b][c]]:
                        return False
        return True

    def fill(idx):
        if idx == len(cells):
            if assoc_ok():
                out.append(tuple(tuple(row) for row in t))
            return
        i, j = cells[idx]
        for v in candidates(idx):
            t[i][j] = t[j][i] = v
            fill(idx + 1)

    fill(0)
    if n == 1:
        out = [((0,),)]
    if not additive:
        # reflect through the order dual: unit n-1, values below meet
        out = [tuple(tuple(n - 1 - tab[n - 1 - i][n - 1 - j]
                           for j in range(n)) for i in range(n))
               for tab in out]
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


def _truncation_ok(n, p, q):
    # the two truncation connecting axioms ((x*y)+z = (...) v z and its dual)
    for x in range(n):
        for y in range(n):
            pxy, qxy = p[x][y], q[x][y]
            for z in range(n):
                if p[qxy][z] != max(q[pxy][p[qxy][z]], z):
                    return False
                if q[pxy][z] != min(p[qxy][q[pxy][z]], z):
                    return False
    return True


def enumerate_chain(n, flt="all"):
    """Algebras on the n-element chain, in lexicographic table order.

    The "all" filter emits every chain algebra satisfying the lattice, monoid,
    distributivity and mixed-associativity axioms; the two truncation axioms
    are not enforced there, so on the 4-chain it yields 19 tables of which 17
    satisfy the full definition.  The refined filters (si-necessary, si,
    positive) enforce the full axiom set before filtering.
    """
    if n > cap("ENUM_CHAIN"):
        raise CapExceeded(f"chain enumeration cap is {cap('ENUM_CHAIN')}")
    if n < 1:
        raise ValueError("need n >= 1")
    if flt not in FILTERS:
        raise ValueError(f"unknown filter {flt!r}")
    adds = _monoid_tables_on_chain(n, additive=True)
    muls = _monoid_tables_on_chain(n, additive=False)
    out = []
    count = 0
    for p in adds:
        for q in muls:
            if not _mixed_assoc_ok(n, p, q):
                continue
            full = _truncation_ok(n, p, q)
            if flt != "all" and not full:
                continue
            A = chain_algebra(n, p, q, name=f"chain{n}_{count}",
                              validate=False)
            count += 1
            if _passes(A, flt):
                out.append(A)
    return out


def enumerate_on_lattice(L, flt="all"):
    """All MV-monoids with the given lattice reduct (a FiniteAlgebra whose
    join/meet are used; oplus/odot of L are ignored), up to isomorphism."""
    n = L.size
    if n > cap("ENUM_LATTICE"):
        raise CapExceeded(f"lattice enumeration cap is {cap('ENUM_LATTICE')}")
    join, meet = L.join, L.meet
    zero, one = L.zero, L.one

    def leq(a, b):
        return join[a][b] == b

    below = [[b for b in range(n) if leq(b, a)] for a in range(n)]

    def monoid_tables(unit, bound, toward):
        # commutative monotone tables with the given unit, where every entry
        # satisfies toward(i,j) <= t[i][j] (additive) or >= (multiplicative)
        cells = [(i, j) for i in range(n) for j in range(i, n)
                 if unit not in (i, j)]
        t = [[None] * n for _ in range(n)]
        for i in range(n):
            t[unit][i] = t[i][unit] = i
        out = []

        def ok(i, j, v):
            if bound == "above":
                if join[v][toward[i][j]] != v:
                    return False
            else:
                if meet[v][toward[i][j]] != v:
                    return False
            # monotonicity against all already-filled comparable cells
            for a in range(n):
                for b in range(n):
                    w = t[a][b]
                    if w is None:
                        continue
                    if leq(a, i) and leq(b, j) and not leq(w, v):
                        return False
                    if leq(i, a) and leq(j, b) and not leq(v, w):
                        return False
            return True

        def fill(idx):
            if idx == len(cells):
                tab = tuple(tuple(row) for row in t)
                for a in range(n):
                    for b in range(n):
                        ab = tab[a][b]
                        for c in range(n):
                            if tab[ab][c] != tab[a][tab[b][c]]:
                                return
                out.append(tab)
                return
            i, j = cells[idx]
            for v in range(n):
                if ok(i, j, v):
                    t[i][j] = t[j][i] = v
                    fill(idx + 1)
                    t[i][j] = t[j][i] = None

        fill(0)
        return out

    adds = monoid_tables(zero, "above", join)
    muls = monoid_tables(one, "below", meet)
    found = {}
    for p in adds:
        for q in muls:
            A = make_algebra(n, zero, one, p, q, join=join, meet=meet,
                             validate=False)
            report = is_mv_monoid(A)
            if flt == "all":
                # match enumerate_chain: the truncation axioms (conn.3/4) are
                # not required by the "all" filter
                if any(name not in ("conn.3", "conn.4")
                       for name, _ in report.failures):
                    continue
            elif not report:
                continue
            if not _passes(A, flt):
                continue
            key = canonical_key(A)
            if key not in found:
                found[key] = A
    return [found[k] for k in sorted(found)]
