"""Output oracles that share no code with mvmlab.

Algebras here are plain tuples of tables (row-major, t[i][j] = op(i, j)) in
the signature (join, meet, oplus, odot, 0, 1).  Every check is brute force
over the tables, so a fast path in the package under test can never vouch for
itself.
"""

import itertools

# ---------------------------------------------------------------------------
# tables


def max_table(n):
    return tuple(tuple(max(i, j) for j in range(n)) for i in range(n))


def min_table(n):
    return tuple(tuple(min(i, j) for j in range(n)) for i in range(n))


def ln_plus_tables(n):
    """(oplus, odot) of the (n+1)-chain 0 < 1/n < ... < 1 with truncated
    addition and its dual."""
    size = n + 1
    return (tuple(tuple(min(i + j, n) for j in range(size))
                  for i in range(size)),
            tuple(tuple(max(i + j - n, 0) for j in range(size))
                  for i in range(size)))


def chain(oplus, odot):
    """Full signature of a chain algebra in numeric order."""
    n = len(oplus)
    return {"size": n, "zero": 0, "one": n - 1,
            "oplus": tuple(map(tuple, oplus)), "odot": tuple(map(tuple, odot)),
            "join": max_table(n), "meet": min_table(n)}


def order_dual(alg):
    """Reverse the order of a chain and swap oplus with odot; the result is
    again a chain in numeric order."""
    n = alg["size"]

    def flip(t):
        return tuple(tuple(n - 1 - t[n - 1 - i][n - 1 - j] for j in range(n))
                     for i in range(n))

    return chain(flip(alg["odot"]), flip(alg["oplus"]))


def dual(alg):
    """Order dual of any algebra, on the same elements: join and meet swap,
    oplus and odot swap, 0 and 1 swap."""
    return {"size": alg["size"], "zero": alg["one"], "one": alg["zero"],
            "join": alg["meet"], "meet": alg["join"],
            "oplus": alg["odot"], "odot": alg["oplus"]}


def product(a, b):
    """Direct product, element (i, j) numbered i * |b| + j."""
    nb = b["size"]
    pairs = list(itertools.product(range(a["size"]), range(nb)))

    def table(op):
        ta, tb = a[op], b[op]
        return tuple(tuple(ta[i1][j1] * nb + tb[i2][j2] for (j1, j2) in pairs)
                     for (i1, i2) in pairs)

    out = {op: table(op) for op in ("oplus", "odot", "join", "meet")}
    out.update(size=len(pairs), zero=a["zero"] * nb + b["zero"],
               one=a["one"] * nb + b["one"])
    return out


def relabel(alg, perm):
    """Image of alg under perm (old element -> new element)."""
    n = alg["size"]
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old

    def table(t):
        return tuple(tuple(perm[t[inv[i]][inv[j]]] for j in range(n))
                     for i in range(n))

    out = {op: table(alg[op]) for op in ("oplus", "odot", "join", "meet")}
    out.update(size=n, zero=perm[alg["zero"]], one=perm[alg["one"]])
    return out


def document(alg):
    """JSON algebra document with explicit lattice tables (docs/formats.md)."""
    return {k: [list(r) for r in v] if isinstance(v, tuple) else v
            for k, v in alg.items()}


# ---------------------------------------------------------------------------
# the 26 MV-monoid axioms and cancellativity, written directly on tables

def _axioms(J, M, P, Q, zero, one):
    # (name, arity, x, y, z -> (lhs, rhs)), same names and order as the
    # package's axiom list
    return [
        ("lat.idem.1", 1, lambda x, y, z: (J[x][x], x)),
        ("lat.idem.2", 1, lambda x, y, z: (M[x][x], x)),
        ("lat.comm.1", 2, lambda x, y, z: (J[x][y], J[y][x])),
        ("lat.comm.2", 2, lambda x, y, z: (M[x][y], M[y][x])),
        ("lat.assoc.1", 3, lambda x, y, z: (J[J[x][y]][z], J[x][J[y][z]])),
        ("lat.assoc.2", 3, lambda x, y, z: (M[M[x][y]][z], M[x][M[y][z]])),
        ("lat.absorb.1", 2, lambda x, y, z: (J[x][M[x][y]], x)),
        ("lat.absorb.2", 2, lambda x, y, z: (M[x][J[x][y]], x)),
        ("lat.dist.1", 3,
         lambda x, y, z: (M[x][J[y][z]], J[M[x][y]][M[x][z]])),
        ("lat.dist.2", 3,
         lambda x, y, z: (J[x][M[y][z]], M[J[x][y]][J[x][z]])),
        ("lat.bound.0", 1, lambda x, y, z: (J[x][zero], x)),
        ("lat.bound.1", 1, lambda x, y, z: (M[x][one], x)),
        ("mon.oplus.comm", 2, lambda x, y, z: (P[x][y], P[y][x])),
        ("mon.oplus.assoc", 3, lambda x, y, z: (P[P[x][y]][z], P[x][P[y][z]])),
        ("mon.oplus.unit", 1, lambda x, y, z: (P[x][zero], x)),
        ("mon.odot.comm", 2, lambda x, y, z: (Q[x][y], Q[y][x])),
        ("mon.odot.assoc", 3, lambda x, y, z: (Q[Q[x][y]][z], Q[x][Q[y][z]])),
        ("mon.odot.unit", 1, lambda x, y, z: (Q[x][one], x)),
        ("dist.oplus.join", 3,
         lambda x, y, z: (P[x][J[y][z]], J[P[x][y]][P[x][z]])),
        ("dist.oplus.meet", 3,
         lambda x, y, z: (P[x][M[y][z]], M[P[x][y]][P[x][z]])),
        ("dist.odot.join", 3,
         lambda x, y, z: (Q[x][J[y][z]], J[Q[x][y]][Q[x][z]])),
        ("dist.odot.meet", 3,
         lambda x, y, z: (Q[x][M[y][z]], M[Q[x][y]][Q[x][z]])),
        ("conn.1", 3, lambda x, y, z: (Q[P[x][y]][P[Q[x][y]][z]],
                                       P[Q[x][P[y][z]]][Q[y][z]])),
        ("conn.2", 3, lambda x, y, z: (P[Q[x][y]][Q[P[x][y]][z]],
                                       Q[P[x][Q[y][z]]][P[y][z]])),
        ("conn.3", 3, lambda x, y, z: (P[Q[x][y]][z],
                                       J[Q[P[x][y]][P[Q[x][y]][z]]][z])),
        ("conn.4", 3, lambda x, y, z: (Q[P[x][y]][z],
                                       M[P[Q[x][y]][Q[P[x][y]][z]]][z])),
    ]


def failed_axioms(alg):
    """Names of the MV-monoid axioms that alg violates."""
    n = alg["size"]
    bad = []
    for name, arity, f in _axioms(alg["join"], alg["meet"], alg["oplus"],
                                  alg["odot"], alg["zero"], alg["one"]):
        for env in itertools.product(range(n), repeat=arity):
            lhs, rhs = f(*env, *(0,) * (3 - arity))
            if lhs != rhs:
                bad.append(name)
                break
    return bad


def is_cancellative(alg):
    """x + z = y + z and x * z = y * z imply x = y."""
    P, Q, n = alg["oplus"], alg["odot"], alg["size"]
    return all(x == y or P[x][z] != P[y][z] or Q[x][z] != Q[y][z]
               for x in range(n) for y in range(n) for z in range(n))


# ---------------------------------------------------------------------------
# congruences of a chain: every lattice congruence of a chain has convex
# blocks, so the congruences are exactly the compatible interval partitions

def chain_congruences(alg):
    """Congruences of a chain in numeric order, each as the frozenset of its
    cuts (i is a cut when i - 1 and i lie in different blocks)."""
    n = alg["size"]
    tables = [alg[op] for op in ("join", "meet", "oplus", "odot")]
    out = []
    for mask in range(1 << max(n - 1, 0)):
        cuts = frozenset(i + 1 for i in range(n - 1) if mask >> i & 1)
        block = list(itertools.accumulate(int(i in cuts) for i in range(n)))
        if all(block[t[i - 1][c]] == block[t[i][c]]
               and block[t[c][i - 1]] == block[t[c][i]]
               for i in range(1, n) if i not in cuts
               for t in tables for c in range(n)):
            out.append(cuts)
    return out


def is_subdirectly_irreducible(alg):
    """A least nontrivial congruence exists: the nontrivial congruences do
    not, between them, cut every gap of the chain."""
    n = alg["size"]
    cuts = set()
    for c in chain_congruences(alg):
        if len(c) < n - 1:
            cuts |= c
    return n >= 2 and len(cuts) < n - 1


# ---------------------------------------------------------------------------
# isomorphism and HS closure of small algebras, by backtracking over the
# tables (no canonical form, so a colliding key elsewhere cannot hide here)

_OPS = ("join", "meet", "oplus", "odot")


def _colours(alg, rounds=2):
    """Per-element invariants that no isomorphism can change: constants,
    order heights, idempotence, then rounds of refinement over the tables."""
    n = alg["size"]
    J, M, P, Q = (alg[op] for op in _OPS)
    col = [hash((x == alg["zero"], x == alg["one"],
                 sum(M[x][y] == y for y in range(n)),
                 sum(J[x][y] == y for y in range(n)),
                 P[x][x] == x, Q[x][x] == x,
                 sum(P[x][y] == x for y in range(n)),
                 sum(Q[x][y] == x for y in range(n))))
           for x in range(n)]
    for _ in range(rounds):
        col = [hash((col[x], tuple(sorted(
            (col[y], col[J[x][y]], col[M[x][y]], col[P[x][y]], col[Q[x][y]])
            for y in range(n))))) for x in range(n)]
    return col


def isomorphic(a, b):
    """Whether some bijection carries every table of a onto b's."""
    n = a["size"]
    if n != b["size"]:
        return False
    ca, cb = _colours(a), _colours(b)
    if sorted(ca) != sorted(cb):
        return False
    order = sorted(range(n), key=lambda x: (ca.count(ca[x]), x))
    tables = [(a[op], b[op]) for op in _OPS]
    f = [None] * n
    used = [False] * n

    def fits(x):
        for u in range(n):
            if f[u] is None:
                continue
            for ta, tb in tables:
                for s, t in ((x, u), (u, x)):
                    w = ta[s][t]
                    if f[w] is not None and tb[f[s]][f[t]] != f[w]:
                        return False
        return True

    def extend(i):
        if i == n:
            return True
        x = order[i]
        for y in range(n):
            if used[y] or cb[y] != ca[x]:
                continue
            f[x], used[y] = y, True
            if fits(x) and extend(i + 1):
                return True
            f[x], used[y] = None, False
        return False

    return extend(0)


def _closure(alg, elements):
    out = set(elements)
    frontier = list(out)
    while frontier:
        new = []
        for x in frontier:
            for y in list(out):
                for op in _OPS:
                    for z in (alg[op][x][y], alg[op][y][x]):
                        if z not in out:
                            out.add(z)
                            new.append(z)
        frontier = new
    return frozenset(out)


def _restrict(alg, subset):
    elems = sorted(subset)
    index = {e: i for i, e in enumerate(elems)}
    out = {op: tuple(tuple(index[alg[op][x][y]] for y in elems)
                     for x in elems) for op in _OPS}
    out.update(size=len(elems), zero=index[alg["zero"]],
               one=index[alg["one"]])
    return out


def subalgebras(alg):
    """Every subuniverse (0 and 1 included, closed under the four tables),
    each as an algebra on 0..k-1."""
    first = _closure(alg, {alg["zero"], alg["one"]})
    seen, todo = {first}, [first]
    while todo:
        s = todo.pop()
        for x in range(alg["size"]):
            if x not in s:
                t = _closure(alg, s | {x})
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
    return [_restrict(alg, s) for s in sorted(seen, key=sorted)]


def _generated(alg, a, b):
    """Least congruence identifying a and b, as a tuple of block labels."""
    n = alg["size"]
    label = list(range(n))

    def find(x):
        while label[x] != x:
            x = label[x]
        return x

    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        label[max(rx, ry)] = min(rx, ry)
        # x ~ y forces op(x, c) ~ op(y, c) and op(c, x) ~ op(c, y)
        for op in _OPS:
            t = alg[op]
            for c in range(n):
                pairs.append((t[x][c], t[y][c]))
                pairs.append((t[c][x], t[c][y]))
    return tuple(find(x) for x in range(n))


def _join(p, q):
    n = len(p)
    label = list(range(n))

    def find(x):
        while label[x] != x:
            x = label[x]
        return x

    for part in (p, q):
        for x in range(n):
            rx, ry = find(x), find(part[x])
            label[max(rx, ry)] = min(rx, ry)
    return tuple(find(x) for x in range(n))


def congruences(alg):
    """All congruences: joins of the principal ones, plus the identity."""
    n = alg["size"]
    principal = {_generated(alg, a, b) for a in range(n)
                 for b in range(a + 1, n)}
    found = {tuple(range(n))} | principal
    todo = list(found)
    while todo:
        p = todo.pop()
        for q in principal:
            r = _join(p, q)
            if r not in found:
                found.add(r)
                todo.append(r)
    return sorted(found)


def quotient(alg, labels):
    blocks = sorted(set(labels))
    index = {b: i for i, b in enumerate(blocks)}
    out = {op: tuple(tuple(index[labels[alg[op][x][y]]] for y in blocks)
                     for x in blocks) for op in _OPS}
    out.update(size=len(blocks), zero=index[labels[alg["zero"]]],
               one=index[labels[alg["one"]]])
    return out


def hs_class_sizes(alg):
    """Sorted sizes of the isomorphism classes of quotients of subalgebras
    of alg, which is its HS closure."""
    classes = []
    for sub in subalgebras(alg):
        for theta in congruences(sub):
            q = quotient(sub, theta)
            if not any(isomorphic(q, c) for c in classes):
                classes.append(q)
    return sorted(c["size"] for c in classes)


# ---------------------------------------------------------------------------
# divisor-closed index sets

def divisors(n):
    return {d for d in range(1, n + 1) if n % d == 0}


def divisor_closed_sets(bound):
    """All divisor-closed subsets of {1..bound}, as sorted lists."""
    out = []
    for r in range(bound + 1):
        for subset in itertools.combinations(range(1, bound + 1), r):
            if all(divisors(m) <= set(subset) for m in subset):
                out.append(list(subset))
    return out


# ---------------------------------------------------------------------------
# published figure facts (acceptance criterion 2 and the census counts)

COUNTS = {"size3": 4, "size4_total": 19, "size4_siNecessary": 9,
          "size5_siNecessary": 35}

# Hasse diagram of the SI poset up to size 4
FIG7_COVERS = sorted([
    ["L1+", "C2d"], ["L1+", "L2+"], ["L1+", "C2n"], ["L1+", "L3+"],
    ["C2d", "C3d"], ["C2d", "B3d"], ["C2d", "A3d"], ["C2d", "A3n"],
    ["L2+", "B3d"], ["L2+", "B3n"],
    ["C2n", "C3n"], ["C2n", "A3n"], ["C2n", "A3d"], ["C2n", "B3n"],
])


def repro_problems(target, doc):
    """What is wrong with the JSON output of `mvmlab repro <target>`."""
    bad = []
    if target == "counts" and doc != COUNTS:
        bad.append(f"counts {doc} != {COUNTS}")
    if target == "fig6" and (len(doc["nodes"]), len(doc["covers"])) != (8, 12):
        bad.append("fig6 must have 8 nodes and 12 covers")
    if target == "fig7":
        if len(doc["nodes"]) != 11 or sorted(doc["covers"]) != FIG7_COVERS:
            bad.append("fig7 differs from the published SI poset")
    if target == "fig9" and len(doc["nodes"]) != 9:
        bad.append("fig9 must have 9 nodes")
    return bad
