"""Finite algebras in the signature (join, meet, oplus, odot, 0, 1), plus
finite commutative lattice-ordered monoids, serialization and isomorphism keys.

Elements are always 0..n-1.  For chain algebras the numeric order IS the
lattice order (zero=0, one=n-1), so join/meet are max/min and need not be
stored in documents.
"""

import functools
import json
import operator
from dataclasses import dataclass, field, replace

from .errors import (MalformedDocument, NotALattice, NotAnLMonoid,
                     TableOutOfRange)
from .posets import _bits, _up_rows

Table = tuple  # tuple of tuples of ints, row-major: t[i][j] = op(i, j)


# Sizes, constants and entries must be of type int exactly: JSON true and
# false load as bool, a subclass of int, and are not elements.

def _check_size(size):
    if type(size) is not int or size < 1:
        raise MalformedDocument("size must be a positive integer")


def _check_element(v, n, what):
    if type(v) is not int or not 0 <= v < n:
        raise TableOutOfRange(f"{what} = {v!r} outside 0..{n - 1}")


def _frozen_table(t, n, what):
    """t as a tuple of tuples, checked n x n with int entries in 0..n-1 in one
    pass over the frozen rows; a failing row is rescanned to name the entry."""
    if (not isinstance(t, (list, tuple)) or len(t) != n
            or any(not isinstance(row, (list, tuple)) or len(row) != n
                   for row in t)):
        raise MalformedDocument(f"{what} table is not {n}x{n}")
    frozen = tuple(map(tuple, t))
    for i, row in enumerate(frozen):
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                for j, v in enumerate(row):
                    _check_element(v, n, f"{what}[{i}][{j}]")
    return frozen


# cached: every chain algebra of a size shares its join and meet tables
@functools.cache
def max_table(n):
    return tuple(tuple(max(i, j) for j in range(n)) for i in range(n))


@functools.cache
def min_table(n):
    return tuple(tuple(min(i, j) for j in range(n)) for i in range(n))


def _is_chain(join):
    return all(x in (i, j) for i, row in enumerate(join)
               for j, x in enumerate(row))


def _validate_lattice(join, meet, n):
    # idempotency, commutativity, absorption, associativity, distributivity;
    # witnesses are the offending element triples
    for i in range(n):
        if join[i][i] != i or meet[i][i] != i:
            raise NotALattice("idempotency fails", (i, i, i))
        for j in range(n):
            if join[i][j] != join[j][i] or meet[i][j] != meet[j][i]:
                raise NotALattice("commutativity fails", (i, j, j))
            if join[i][meet[i][j]] != i or meet[i][join[i][j]] != i:
                raise NotALattice("absorption fails", (i, j, j))
            for k in range(n):
                if join[join[i][j]][k] != join[i][join[j][k]]:
                    raise NotALattice("join associativity fails", (i, j, k))
                if meet[meet[i][j]][k] != meet[i][meet[j][k]]:
                    raise NotALattice("meet associativity fails", (i, j, k))
                if meet[i][join[j][k]] != join[meet[i][j]][meet[i][k]]:
                    raise NotALattice("distributivity fails", (i, j, k))


def _is_distributive_lattice(join, meet):
    """Whether join and meet form a distributive lattice: exactly when
    `_validate_lattice` passes, in O(n^2) operations on bitset rows.

    Read a <= c as a v c = c, with rows up[a] = {c : a <= c} and columns
    down[c] = {a : a <= c}.  No two rows may be equal, join[a][b] must be
    the least upper bound, up[a v b] = up[a] & up[b], and meet[a][b] the
    greatest lower bound, down[a ^ b] = down[a] & down[b].  Then <= is a
    partial order: a v a has a's row, so it is a (reflexive); c in up[a]
    makes a v c = c, so up[c] = up[a] & up[c] (transitive); a <= c <= a
    gives equal rows (antisymmetric).  A finite lattice is distributive
    iff every join-irreducible j (not the join of the elements strictly
    below it, the empty join being the bottom) is join-prime (the join of
    the elements not above j is not above j; Davey & Priestley,
    Introduction to Lattices and Order, ch. 5)."""
    n = len(join)
    up = _up_rows(join)
    down = [sum(1 << a for a, v in enumerate(col) if v == c)
            for c, col in enumerate(zip(*join))]
    if (len(set(up)) < n
            or [up[c] for row in join for c in row]
            != [a & b for a in up for b in up]
            or [down[c] for row in meet for c in row]
            != [a & b for a in down for b in down]):
        return False
    everything = (1 << n) - 1
    bottom = up.index(everything)

    def join_of(mask):
        x = bottom
        for c in _bits(mask):
            x = join[x][c]
        return x

    return not any(join_of(down[j] ^ 1 << j) != j
                   and up[j] >> join_of(everything & ~up[j]) & 1
                   for j in range(n))


@dataclass(frozen=True)
class FiniteAlgebra:
    """An algebra is its tables, tuples of tuples; join and meet form a
    bounded distributive lattice with bottom zero and top one, which
    `is_mv_monoid` and `save` trust.  `make_algebra` proves that of outside
    input.  Constructing one directly vouches for it, as `product`,
    `order_dual`, `gamma_of_lex`, subalgebras, quotients and the
    enumerators do: each of their lattices is a proved one or a product,
    {0,1}-sublattice, quotient, order dual or ordinal sum of sublattices of
    such, hence one again (Burris & Sankappanavar, II §9).
    """

    size: int
    zero: int
    one: int
    oplus: Table
    odot: Table
    join: Table
    meet: Table
    name: str = field(default="", compare=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def leq(self, a, b):
        return self.join[a][b] == b

    def is_chain(self):
        return _is_chain(self.join)

    def height(self, a):
        """The number of elements strictly below a, as in `heights`."""
        return [row[a] for row in self.join].count(a) - 1

    def heights(self):
        """Every element's height in one pass over the columns of join:
        x <= a iff join[x][a] == a, less a itself (join is idempotent)."""
        return [col.count(a) - 1 for a, col in enumerate(zip(*self.join))]

    def rename(self, name):
        return replace(self, name=name, _cache={})

    def __repr__(self):
        return f"FiniteAlgebra({self.name or '?'}, n={self.size})"


def _gate(size, tables, constants, join, meet):
    """Every structure read from outside passes here: its own `tables`
    (name -> table), then join and meet, are checked for shape and range,
    then its `constants` (name -> element).  Returns the own tables frozen,
    in order, then join and meet: max and min when neither is given (a
    distributive lattice by definition), else the given ones, checked to
    form a distributive lattice (NotALattice otherwise).  The two come
    together: one without the other is a missing field."""
    if (join is None) != (meet is None):
        raise MalformedDocument(
            f"missing field {'join' if join is None else 'meet'!r}")
    chain = join is None
    lattice = {} if chain else {"join": join, "meet": meet}
    frozen = [_frozen_table(t, size, what)
              for what, t in (*tables.items(), *lattice.items())]
    for what, v in constants.items():
        _check_element(v, size, what)
    if chain:
        frozen += [max_table(size), min_table(size)]
    elif not _is_distributive_lattice(*frozen[-2:]):
        _validate_lattice(*frozen[-2:], size)  # names the least witness
    return frozen


def make_algebra(size, zero, one, oplus, odot, join=None, meet=None,
                 name=""):
    """The algebra with these tables.  Without join and meet the lattice is
    the chain 0 < 1 < ... < size-1 (max and min; zero must be 0 and one
    size-1), distributive by definition; given join and meet tables are
    checked to form a bounded distributive lattice with bottom zero and top
    one (NotALattice otherwise).  Every table is checked for shape and
    range.  The monoid and connecting axioms are left to `is_mv_monoid`.
    """
    _check_size(size)
    if join is None and meet is None and (zero != 0 or one != size - 1):
        raise MalformedDocument("chain algebras need zero=0, one=n-1")
    oplus, odot, join, meet = _gate(size, {"oplus": oplus, "odot": odot},
                                    {"zero": zero, "one": one}, join, meet)
    for i in range(size):  # a chain passes: zero is 0 and one n-1
        if join[zero][i] != i:
            raise NotALattice("zero is not the bottom", (zero, i, i))
        if meet[one][i] != i:
            raise NotALattice("one is not the top", (one, i, i))
    return FiniteAlgebra(size, zero, one, oplus, odot, join, meet, name=name)


def chain_algebra(size, oplus, odot, name=""):
    return make_algebra(size, 0, size - 1, oplus, odot, name=name)


def trivial_algebra():
    return make_algebra(1, 0, 0, ((0,),), ((0,),), name="trivial")


# ---------------------------------------------------------------------------
# documents

def _read(doc, kind, fields):
    # the arguments of make_algebra or make_lmonoid: the required fields in
    # order, then join, meet and name (absent or null reads as "")
    if not isinstance(doc, dict):
        raise MalformedDocument(f"{kind} document must be a JSON object")
    try:
        required = [doc[f] for f in fields]
    except KeyError as exc:
        raise MalformedDocument(f"missing field {exc}") from None
    name = doc.get("name")
    if name is None:
        name = ""
    elif not isinstance(name, str):
        raise MalformedDocument("name must be a string")
    return (*required, doc.get("join"), doc.get("meet"), name)


def load(doc):
    """Build a FiniteAlgebra from a parsed JSON document (dict)."""
    return make_algebra(*_read(doc, "algebra",
                               ("size", "zero", "one", "oplus", "odot")))


def save(A):
    doc = {"size": A.size, "zero": A.zero, "one": A.one,
           "oplus": [list(r) for r in A.oplus],
           "odot": [list(r) for r in A.odot]}
    if A.name:
        doc["name"] = A.name
    # join and meet are left out exactly for the chain 0 < 1 < ... < n-1,
    # which `load` rebuilds: in a lattice, i v (i+1) = i+1 for every i
    if any(A.join[i][i + 1] != i + 1 for i in range(A.size - 1)):
        doc["join"] = [list(r) for r in A.join]
        doc["meet"] = [list(r) for r in A.meet]
    return doc


def read_json(path):
    """The parsed JSON document in a file; text that is not JSON (or not
    UTF-8, or nested past the decoder's recursion limit) raises
    MalformedDocument."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from None


def load_file(path):
    return load(read_json(path))


# ---------------------------------------------------------------------------
# canonical form

def _refine(tables, keys):
    # ranks of the keys, split by each element's sorted row signature until
    # the number of colours stops growing
    n = len(keys)
    while True:
        order = sorted(set(keys))
        rank = {k: c for c, k in enumerate(order)}
        col = [rank[k] for k in keys]
        if len(order) == n:
            return col
        new = []
        for e in range(n):
            # signature: (col[f], col[t[e][f]] for each table), sorted over f
            columns = [[col[x] for x in t[e]] for t in tables]
            new.append((col[e], tuple(sorted(zip(col, *columns)))))
        if len(set(new)) == len(order):
            return col
        keys = new


def canonical_form(n, tables, constants, keys):
    """Byte string equal for two structures iff a bijection carries one's
    element-valued tables, constants and starting keys onto the other's.

    Individualization-refinement (McKay & Piperno, J. Symb. Comput. 2014):
    refine the starting keys to colours, individualize each element of the
    first non-singleton colour class in turn, refine and recurse.  The form
    is the least leaf serialization [n, constants, tables row-major], one
    byte per entry up to 255 elements and two above.  A leaf tying the best
    one gives an automorphism; a sibling that an automorphism fixing the
    path sends onto an explored sibling is skipped.
    """
    best, autos = [], []  # best: [leaf, its new -> old map]

    def search(col, path):
        if len(set(col)) == n:  # every colour a singleton: a leaf
            inv = sorted(range(n), key=col.__getitem__)  # new -> old
            leaf = [n, *(col[c] for c in constants)] + [
                col[t[i][j]] for t in tables for i in inv for j in inv]
            if not best or leaf < best[0]:
                best[:] = leaf, inv
            elif leaf == best[0]:
                autos.append([best[1][c] for c in col])
            return
        cells = {}
        for e, c in enumerate(col):
            cells.setdefault(c, []).append(e)
        cell = cells[min(c for c in cells if len(cells[c]) > 1)]
        explored = []
        for v in cell:
            fixing = [g for g in autos if all(g[p] == p for p in path)]
            if not any(g[v] in explored for g in fixing):
                # v sorts after its cell-mates
                marked = [(c, e == v) for e, c in enumerate(col)]
                search(_refine(tables, marked), path + [v])
            explored.append(v)

    search(_refine(tables, keys), [])
    leaf = best[0]
    return bytes(leaf) if n < 256 else b"".join(v.to_bytes(2, "big")
                                                for v in leaf)


def canonical_key(A):
    """Byte string equal for two algebras iff they are isomorphic: the
    canonical form of the four tables and (zero, one), starting from each
    element's height (in a bounded lattice only zero has height 0 and only
    one height n-1).  Chains refine to singletons (height is injective), so
    their search has one leaf.  Kept in A's cache."""
    key = A._cache.get("key")
    if key is None:
        key = A._cache["key"] = canonical_form(
            A.size, (A.join, A.meet, A.oplus, A.odot), (A.zero, A.one),
            A.heights())
    return key


def are_isomorphic(A, B):
    if A.size != B.size:
        return False
    return canonical_key(A) == canonical_key(B)


def dual_table(t, delta):
    """The table t^delta[i][j] = delta[t[delta[i]][delta[j]]], for an
    involution delta of the elements given as a list."""
    if len(delta) == 1:  # itemgetter of one index returns the item alone
        return tuple(map(tuple, t))
    pick = operator.itemgetter(*delta)
    return tuple(tuple(map(delta.__getitem__, pick(row))) for row in pick(t))


def order_dual(A):
    """Reverse the order, swap oplus/odot and zero/one (relabeled so chains
    stay in numeric order)."""
    p = list(range(A.size))[::-1]
    return FiniteAlgebra(A.size, p[A.one], p[A.zero], dual_table(A.odot, p),
                         dual_table(A.oplus, p), dual_table(A.meet, p),
                         dual_table(A.join, p),
                         name=f"dual({A.name})" if A.name else "")


# ---------------------------------------------------------------------------
# commutative lattice-ordered monoids (for the Gamma-of-lex construction)

@dataclass(frozen=True)
class FiniteLMonoid:
    size: int
    zero: int
    plus: Table
    join: Table
    meet: Table
    name: str = field(default="", compare=False)

    def leq(self, a, b):
        return self.join[a][b] == b


def make_lmonoid(size, zero, plus, join=None, meet=None, name=""):
    _check_size(size)
    plus, join, meet = _gate(size, {"plus": plus}, {"zero": zero}, join, meet)
    n = size
    for i in range(n):
        if plus[zero][i] != i:
            raise NotAnLMonoid("zero is not a +-unit", (zero, i))
        for j in range(n):
            if plus[i][j] != plus[j][i]:
                raise NotAnLMonoid("+ commutativity fails", (i, j))
            for k in range(n):
                if plus[plus[i][j]][k] != plus[i][plus[j][k]]:
                    raise NotAnLMonoid("+ associativity fails", (i, j, k))
                if plus[i][join[j][k]] != join[plus[i][j]][plus[i][k]]:
                    raise NotAnLMonoid("+ over join fails", (i, j, k))
                if plus[i][meet[j][k]] != meet[plus[i][j]][plus[i][k]]:
                    raise NotAnLMonoid("+ over meet fails", (i, j, k))
    return FiniteLMonoid(size, zero, plus, join, meet, name=name)


def load_lmonoid(doc):
    return make_lmonoid(*_read(doc, "l-monoid", ("size", "zero", "plus")))
