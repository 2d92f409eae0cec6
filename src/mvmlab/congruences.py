"""Congruences: principal congruences by translation closure, the full
congruence lattice, subdirect irreducibility and simplicity."""

import functools

from .algebra import _check_element
from .posets import Poset, lower_covers


class Congruence:
    """Partition of 0..n-1 as a block-id array, block ids in first-occurrence
    order (canonical and hashable).  The hash of `ids` is taken on first use
    and kept: a `Poset` of congruences finds its labels by hash."""

    __slots__ = ("ids", "size", "_hash")

    def __init__(self, ids):
        self.ids = _normalize(tuple(ids))
        self.size = len(self.ids)

    def __eq__(self, other):
        return isinstance(other, Congruence) and self.ids == other.ids

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.ids)
            return self._hash

    def __repr__(self):
        return f"Congruence{self.blocks()}"

    def related(self, a, b):
        return self.ids[a] == self.ids[b]

    def num_blocks(self):
        return max(self.ids) + 1 if self.ids else 0

    def blocks(self):
        out = [[] for _ in range(self.num_blocks())]
        for e, b in enumerate(self.ids):
            out[b].append(e)
        return [tuple(b) for b in out]

    def is_identity(self):
        return self.num_blocks() == self.size

    def is_total(self):
        return self.num_blocks() <= 1

    def refines(self, other):
        seen = {}
        for a, b in zip(self.ids, other.ids):
            if seen.setdefault(a, b) != b:
                return False
        return True

    def join(self, other):
        ids, members = list(self.ids), self.blocks()
        first = {}  # block of other -> its first element
        for e, b in enumerate(other.ids):
            x, y = ids[first.setdefault(b, e)], ids[e]
            if x != y:
                _merge(ids, members, x, y)
        return Congruence(ids)

    def meet(self, other):
        return Congruence([(self.ids[e], other.ids[e])
                           for e in range(self.size)])


def _normalize(ids):
    relabel = {}
    out = []
    for b in ids:
        out.append(relabel.setdefault(b, len(relabel)))
    return tuple(out)


def identity_congruence(n):
    return Congruence(range(n))


def total_congruence(n):
    return Congruence([0] * n)


def _merge(ids, members, x, y):
    """Merge blocks x != y of a partition held as ids (element -> block id)
    and members (block id -> its elements), relabelling the smaller block;
    block y is left empty."""
    if len(members[x]) < len(members[y]):
        x, y = y, x
    for e in members[y]:
        ids[e] = x
    members[x] += members[y]
    members[y] = ()


def translation_tables(A):
    """The four operation tables and their transposes, each distinct table
    once: row c of each is a unary translation x -> op(c, x) or op(x, c).
    On commutative tables these are just the operation tables."""
    tables = A._cache.get("translation_tables")
    if tables is None:
        tables = []
        for t in (A.join, A.meet, A.oplus, A.odot):
            for u in (t, tuple(zip(*t))):
                if u not in tables:
                    tables.append(u)
        A._cache["translation_tables"] = tables
    return tables


def is_congruence(A, part):
    # when every element's translates are related to those of its block's
    # first element, transitivity relates those of any two block-mates
    if part.size != A.size:
        return False
    ids, blocks = part.ids, part.blocks()
    for t in translation_tables(A):
        for block in blocks:
            first = t[block[0]]
            for e in block[1:]:
                if any(ids[x] != ids[y] for x, y in zip(first, t[e])):
                    return False
    return True


def principal_congruence(A, a, b):
    # Pair closure under the unary translations x -> op(x, c) and
    # x -> op(c, x).  If a ~ a' and b ~ b' then op(a, b) ~ op(a', b) ~
    # op(a', b') by one step in each argument plus transitivity.  Each merge
    # queues one pair joining the two blocks, so the queued pairs generate
    # the partition, and closing them under the translations yields the least
    # congruence relating a and b (Mal'cev).
    n = A.size
    _check_element(a, n, "a")
    _check_element(b, n, "b")
    if a == b:
        return identity_congruence(n)
    ids, members = list(range(n)), [[e] for e in range(n)]
    _merge(ids, members, a, b)
    queue = [(a, b)]
    blocks = n - 1  # a single block needs no further closing
    tables = translation_tables(A)
    while queue and blocks > 1:
        a, b = queue.pop()
        for t in tables:
            for x, y in zip(t[a], t[b]):
                if ids[x] != ids[y]:
                    _merge(ids, members, ids[x], ids[y])
                    blocks -= 1
                    queue.append((x, y))
    return Congruence(ids)


def congruence_join(A, parts):
    """Join in Con(A).  Con(A) is a sublattice of the partition lattice
    Eq(A) (Burris & Sankappanavar, II §5), so this is the partition join."""
    return functools.reduce(Congruence.join, parts,
                            identity_congruence(A.size))


def _sort_key(c):
    # the identity first and the total congruence last
    return -c.num_blocks(), c.ids


def principal_congruences(A):
    """The join-irreducibles of Con(A): the distinct theta(j-, j) over the
    elements j of the lattice reduct with exactly one lower cover j-.

    Every congruence is a join of theta(a, b) over covering pairs a < b,
    since a congruence relating a and b collapses the interval [a ^ b, a v b]
    and so every cover of a maximal chain in it.  Such a pair is perspective
    to [j-, j] for j minimal among the elements below b and not below a,
    which has one lower cover j- (j v a = b and j ^ a = j-), so theta(a, b)
    = theta(j-, j) (Grätzer, Lattice Theory: Foundation).  And theta(c, d)
    of a cover is join-prime: a chain of steps in theta or phi from c to d,
    mapped by x -> (x v c) ^ d, is a chain in {c, d} with a step from c to
    d."""
    seen = set()
    for j, below in enumerate(lower_covers(A.join)):
        if len(below) == 1:
            p = principal_congruence(A, below[0], j)
            if p not in seen:
                seen.add(p)
                yield p


def _joins(size, J):
    """The join of every subset of the join-prime congruences J on `size`
    elements, as {bitset: join} with bit i set iff J[i] lies below the
    join; and the bitset of each J[i]."""
    # each p in J is join-prime, so the members of J below c v p are those
    # below c or p: after folding in k of them, known holds every join of a
    # subset of those k by its bitset, and only a new bitset costs a join
    down = [sum(1 << i for i, q in enumerate(J) if q.refines(p)) for p in J]
    known = {0: identity_congruence(size)}
    for p, d in zip(J, down):
        for m, c in list(known.items()):
            if m | d not in known:
                known[m | d] = c.join(p)
    return known, down


def congruence_lattice(A):
    """Con(A) as a Poset of its congruences, sorted by (number of blocks
    desc, ids): the identity first and the total congruence last.  Con(A) is
    a finite distributive lattice, held as the down-sets of its
    join-irreducibles: bit i of a congruence's bitset is set iff the i-th
    join-irreducible lies below it, and c <= d iff the bitset of c is a
    subset of that of d (Birkhoff; Davey & Priestley, Introduction to
    Lattices and Order)."""
    known, down = _joins(A.size, list(principal_congruences(A)))
    # c <= c v p for every join-irreducible p: the subset order on the
    # bitsets is the transitive closure of these pairs
    return Poset(sorted(known.values(), key=_sort_key),
                 ((c, known[m | d]) for m, c in known.items() for d in down))


def monolith(A):
    """Meet of all nontrivial congruences; None when A has no nontrivial
    congruence (trivial algebra).  Every nontrivial congruence contains one
    of the `principal_congruences`, which are nontrivial, so their meet
    suffices; no lattice needed."""
    m = None
    for p in principal_congruences(A):
        m = p if m is None else m.meet(p)
        if m.is_identity():
            return m
    return m


def is_subdirectly_irreducible(A):
    """Returns (verdict, monolith-or-None)."""
    m = monolith(A)
    if m is None or m.is_identity():
        return False, None
    return True, m


def is_simple(A):
    # simple iff every nontrivial congruence is total
    return A.size > 1 and all(p.is_total() for p in principal_congruences(A))
