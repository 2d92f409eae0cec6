"""Congruences read off the join-irreducibles J of the lattice reduct L:
principal congruences, Con(A), subdirect irreducibility and simplicity.

L is finite and distributive, so with down[x] the set of j <= x in J, its
congruences are the theta_S for S a subset of J, x theta_S y iff down[x] -
S = down[y] - S, joined and met as unions and intersections of the S (Con L
is 2^J; Grätzer, Lattice Theory: Foundation).  Each congruence of A is one
of them, held as the bitset S.  A cover u < v of L is labelled by the one j
in down[v] - down[u], and theta_S relates u and v iff the label is in S.

Cover lemma: theta_S is compatible with a unary map f iff f(u) theta_S f(v)
for every cover u < v labelled in S.  Proof: if x theta_S y, the block of x
is a convex sublattice holding x ^ y, so every cover on a maximal chain from
x ^ y up to x is labelled in S; f relates the ends of each, so f(x ^ y)
theta_S f(x) by transitivity, and likewise for y.  Monotonicity is not used.

So with step[k] the OR of down[f(u)] ^ down[f(v)] over the translations f
by + and * (Mal'cev; Burris & Sankappanavar, II §5) and the covers labelled
k, theta_S is a congruence of A iff S holds step[k] for each k in S.  The
congruence some pairs (x, y) generate closes the union of their down[x] ^
down[y] under step, and the join-irreducibles of Con(A) are the closures of
the single j in J.  Partitions are built only for returned values.
"""

import functools
import itertools
import operator

from .algebra import _check_element
from .errors import NotACongruence
from .posets import Poset, _bits, lower_covers


class Congruence:
    """Partition of 0..n-1 as a block-id array, block ids in first-occurrence
    order (canonical and hashable).  The hash of `ids` is taken on first use
    and kept: a `Poset` of congruences finds its labels by hash."""

    __slots__ = ("ids", "size", "_hash")

    def __init__(self, ids):
        relabel = {}
        self.ids = tuple([relabel.setdefault(b, len(relabel)) for b in ids])
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


def identity_congruence(n):
    return Congruence(range(n))


def total_congruence(n):
    return Congruence([0] * n)


def translation_tables(A):
    """The join and meet tables, which commute, then each distinct one of
    the + and * tables and their transposes: rows are unary translations."""
    tables = A._cache.get("translation_tables")
    if tables is None:
        tables = [A.join, A.meet]
        for t in (A.oplus, A.odot):
            for u in (t, tuple(zip(*t))):
                if u not in tables:
                    tables.append(u)
        A._cache["translation_tables"] = tables
    return tables


@functools.lru_cache(maxsize=8)
def _reduct(join):
    """(down, covers, cells), cached by the join table: down[x] has bit i
    set iff the i-th join-irreducible is below x, covers[i] lists the covers
    (u, v) labelled by it, and cells[x] is down[x] as bytes of one width."""
    lower = lower_covers(join)
    J = [j for j, below in enumerate(lower) if len(below) == 1]
    down = tuple(sum(1 << i for i, j in enumerate(J) if join[j][x] == x)
                 for x in range(len(join)))
    covers = tuple([(u, v) for v, below in enumerate(lower) for u in below
                    if down[v] ^ down[u] == 1 << i] for i in range(len(J)))
    width = (len(J) + 7) // 8 or 1
    return down, covers, tuple(d.to_bytes(width, "little") for d in down)


def _table_steps(join, *tables):
    """step of the translations by the rows of the given tables alone, the
    OR of each table's.  Row u of a table is packed into one integer, field
    c holding down of its c-th entry, so one XOR per cover compares all of
    a table's translations; then `_fold` ORs each label's fields."""
    covers, cells = _reduct(join)[1:]
    get, unpack = cells.__getitem__, int.from_bytes
    packed = [[unpack(b"".join(map(get, row)), "little") for row in t]
              for t in tables]
    step, width = [], 8 * len(cells[0])
    for pairs in covers:
        x = 0
        for rows in packed:
            for u, v in pairs:
                x |= rows[u] ^ rows[v]
        step.append(_fold(x, width, len(join) * width))
    return step


def _fold(x, width, size):
    """The OR of the fields of `width` bits of x, which has no bit from
    `size` on: each shift by s bits, s doubling from `width`, ORs into
    every field the one s bits above it, so field 0 ends with all of them."""
    shift = width
    while shift < size:
        x |= x >> shift
        shift <<= 1
    return x & ((1 << width) - 1)


def _steps(A):
    """(down, step) of A, kept in its cache: the step of its + and * tables
    and their transposes."""
    found = A._cache.get("steps")
    if found is None:
        found = A._cache["steps"] = _reduct(A.join)[0], _table_steps(
            A.join, *translation_tables(A)[2:])
    return found


def _seed_steps(A, *steps):
    """Set A's step table to the OR of the `_table_steps` of its + and *
    tables, for a caller that already holds them.  With both tables
    commutative this is what `_steps` finds, up to each label's own bit,
    which every closure holds: the transposes are the tables themselves,
    and a table equal to join or meet, which `_steps` drops, moves a cover
    labelled k onto a cover labelled k or onto one element."""
    A._cache["steps"] = _reduct(A.join)[0], list(map(operator.or_, *steps))


def _close(step, s):
    """The least superset of s holding step[k] for each of its k."""
    todo = s
    while todo:
        new = 0
        for k in _bits(todo):
            new |= step[k]
        todo = new & ~s
        s |= todo
    return s


def _closures(step, labels):
    """The distinct closures of the single bits k in `labels`, lazily, in
    the order of `labels`."""
    seen = set()
    for k in labels:
        s = _close(step, 1 << k)
        if s not in seen:
            seen.add(s)
            yield s


def _principal(A):
    """Con(A)'s join-irreducibles: the distinct closures of single bits."""
    step = _steps(A)[1]
    return _closures(step, range(len(step)))


def _frame(A):
    """A's order and translations, packed once for all its subuniverses:
    (down, strict, rows, spread, width).  down[x] is the bitset of the
    elements of A below x, strict[x] that of those strictly below; rows[u]
    packs, one field of `width` bits per pair (i, a), down[t[u][a]] for the
    i-th + or * table t that `_steps` reads; spread[a] has the lowest bit of
    each field (i, a) set.  That is n rows of n² bits per table (n fields
    of n bits, each rounded up to whole bytes), held for the call that
    builds the frame."""
    n, join = A.size, A.join
    down = [sum(1 << y for y in range(n) if join[y][x] == x)
            for x in range(n)]
    nbytes = (n + 7) // 8
    cells = [d.to_bytes(nbytes, "little") for d in down]
    tables = translation_tables(A)[2:]
    rows = [int.from_bytes(b"".join(map(cells.__getitem__, itertools.chain(
        *(t[u] for t in tables)))), "little") for u in range(n)]
    width = 8 * nbytes
    spread = [sum(1 << (i * n + a) * width for i in range(len(tables)))
              for a in range(n)]
    return down, [d ^ 1 << x for x, d in enumerate(down)], rows, spread, width


def _restricted_steps(frame, emb):
    """(down, J, step) of the subalgebra B of A on the elements `emb` of A,
    increasing, read off A's `_frame`, each join-irreducible of B held as
    the bit of its element of A: J is the bitset of them, down[i] that of
    those below the i-th element of B, and step[k], for k in J, the step
    table's entry.  Bits keep B's order, so these are the values of
    `_steps(B)` spread out over A's elements, and the partitions read off
    them are B's.

    B's operations are A's restricted to U = emb, so its order is A's on U:
    the lower covers of x in B are the maximal elements of strict[x] & U,
    J is the set of elements with exactly one, and down of x in B is
    down[x] & J.  B's translations are A's by the elements of U, restricted
    to U, so by the cover lemma step[k] is J & the OR, over B's covers
    (u, v) labelled k and the fields (i, a) with a in U, of field (i, a) of
    rows[u] ^ rows[v].  A table of B equal to its join or meet, or to
    another's transpose, which `_steps` drops, only adds bit k to step[k]
    (see `_seed_steps`), which every closure holds."""
    down, strict, rows, spread, width = frame
    U = sum(1 << x for x in emb)
    lower, J = [], 0
    for x in emb:
        below = down[x] & U ^ 1 << x
        above = 0
        for y in _bits(below):
            above |= strict[y]
        lower.append(below & ~above)
        if lower[-1].bit_count() == 1:
            J |= 1 << x
    downJ = {x: down[x] & J for x in emb}
    acc = {}
    for x, covers in zip(emb, lower):
        row, dx = rows[x], downJ[x]
        for y in _bits(covers):
            k = dx ^ downJ[y]
            acc[k] = acc.get(k, 0) | row ^ rows[y]
    mask = J * sum(map(spread.__getitem__, emb))
    step = [0] * len(down)
    for k, x in acc.items():
        step[k.bit_length() - 1] = _fold(x & mask, width,
                                         mask.bit_length()) & J
    return list(downJ.values()), J, step


def _joins(J):
    """Every union of a subset of the bitsets J."""
    return functools.reduce(lambda known, p: known | {s | p for s in known},
                            J, {0})


def _congruence(A, s):
    # theta_s as a partition
    return Congruence(map((~s).__and__, _steps(A)[0]))


def _sort_key(c):
    # the identity first and the total congruence last
    return -c.num_blocks(), c.ids


def is_congruence(A, part):
    # a partition is a congruence iff it is the congruence it generates
    return part.size == A.size and congruence_join(A, [part]) == part


def principal_congruence(A, a, b):
    _check_element(a, A.size, "a")
    _check_element(b, A.size, "b")
    down, step = _steps(A)
    return _congruence(A, _close(step, down[a] ^ down[b]))


def congruence_join(A, parts):
    """The congruence the partitions `parts` generate, their join in Con(A)
    when they are congruences: the closure of the union of down[x] ^ down[y]
    over the pairs they relate, each block read from its first element."""
    down, step = _steps(A)
    s = 0
    for part in parts:
        if part.size != A.size:
            raise NotACongruence(f"a partition of {part.size} elements is "
                                 f"no congruence of a {A.size}-element "
                                 f"algebra")
        first = {}
        for d, b in zip(down, part.ids):
            s |= d ^ first.setdefault(b, d)
    return _congruence(A, _close(step, s))


def principal_congruences(A):
    """The join-irreducibles of Con(A), lazily: the distinct theta(j-, j)
    over the join-irreducibles j of the lattice reduct, in order of j."""
    return (_congruence(A, s) for s in _principal(A))


def congruence_lattice(A):
    """Con(A) as a Poset of its congruences, the unions of the
    join-irreducibles, sorted by (number of blocks desc, ids): the identity
    first and the total congruence last.  c <= c v p for each
    join-irreducible p generates the order, built when first read."""
    J = list(_principal(A))
    cs = {s: _congruence(A, s) for s in _joins(J)}
    return Poset(sorted(cs.values(), key=_sort_key),
                 ((c, cs[s | p]) for s, c in cs.items() for p in J))


def monolith(A):
    """Meet of all nontrivial congruences, None on the trivial algebra: the
    AND of the join-irreducibles, each nontrivial congruence holding one,
    stopping at the first empty meet."""
    m = None
    for s in _principal(A):
        m = s if m is None else m & s
        if not m:
            break
    return None if m is None else _congruence(A, m)


def is_subdirectly_irreducible(A):
    """Returns (verdict, monolith-or-None)."""
    m = monolith(A)
    si = m is not None and not m.is_identity()
    return si, m if si else None


def is_simple(A):
    total = (1 << len(_steps(A)[1])) - 1  # all of J
    return A.size > 1 and all(s == total for s in _principal(A))
