"""Small finite posets with covering relations, downset lattices, DOT
output, and isomorphism testing by the canonical form of `algebra`.  Orders
are bitset rows, bit j of row i set iff i <= j."""

import functools
import itertools

from .algebra import canonical_form
from .caps import check


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transitive_closure(rows):
    """Close the bitset rows under transitivity, in place (Warshall with a
    whole row per step)."""
    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return rows


def cover_pairs(up):
    """Covering pairs (i, j), sorted: i < j in the order with nothing
    strictly between, from reflexive, transitive bitset rows
    up[i] = {j : i <= j}."""
    out = []
    for i, row in enumerate(up):
        strict = row & ~(1 << i)
        above = 0  # elements strictly above some element strictly above i
        for j in _bits(strict):
            above |= up[j] & ~(1 << j)
        out.extend((i, j) for j in _bits(strict & ~above))
    return out


@functools.lru_cache(maxsize=8)
def lattice_cover_pairs(join):
    """Covering pairs of the order a lattice's join table defines (a <= b
    iff a v b = b), by `cover_pairs`, as a tuple.  Cached by the join table,
    a tuple of tuples: the algebras a loop meets often share one lattice,
    such as `max_table(n)` in a chain enumeration, and a few entries serve
    such a loop."""
    n = len(join)
    return tuple(cover_pairs([sum(1 << b for b in range(n) if join[a][b] == b)
                              for a in range(n)]))


class Poset:
    """Finite poset over hashable labels; `leq` is a set of ordered pairs
    containing at least the reflexive pairs (transitively closed on build)."""

    def __init__(self, labels, leq_pairs):
        self.labels = list(labels)
        idx = {l: i for i, l in enumerate(self.labels)}
        up = [1 << i for i in range(len(self.labels))]
        for a, b in leq_pairs:
            up[idx[a]] |= 1 << idx[b]
        self._up = transitive_closure(up)
        self._idx = idx

    def __len__(self):
        return len(self.labels)

    def leq(self, a, b):
        return self._up[self._idx[a]] >> self._idx[b] & 1 == 1

    def covers(self):
        """Covering pairs (a, b) with a < b and nothing strictly between."""
        return [(self.labels[i], self.labels[j])
                for i, j in cover_pairs(self._up)]

    def minimal(self):
        return [b for b in self.labels
                if not any(a != b and self.leq(a, b) for a in self.labels)]

    def maximal(self):
        return [a for a in self.labels
                if not any(b != a and self.leq(a, b) for b in self.labels)]

    def height(self, a):
        return sum(1 for b in self.labels if b != a and self.leq(b, a))

    def downsets(self):
        n, up = len(self.labels), self._up
        check("DOWNSET", n, "poset size")
        # m is down-closed iff nothing outside m lies below a member of m
        return [frozenset(self.labels[i] for i in _bits(m))
                for m in range(1 << n)
                if not any(up[i] & m for i in _bits(~m & (1 << n) - 1))]

    def is_isomorphic_to(self, other):
        return len(self) == len(other) and self._key() == other._key()

    def _key(self):
        # <= as the table t[i][j] = j if i <= j else i, from (up-set size,
        # down-set size)
        n, up = len(self), self._up
        leq = [[j if up[i] >> j & 1 else i for j in range(n)]
               for i in range(n)]
        return canonical_form(n, [leq], [],
                              [(up[i].bit_count(),
                                sum(row >> i & 1 for row in up))
                               for i in range(n)])

    def to_dot(self, name="poset", label_of=str):
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        order = sorted(range(len(self.labels)),
                       key=lambda i: (self.height(self.labels[i]),
                                      label_of(self.labels[i])))
        node_id = {}
        for i in order:
            node_id[i] = f"n{len(node_id)}"
            lines.append(f'  {node_id[i]} [label="{label_of(self.labels[i])}"];')
        for a, b in sorted(self.covers(),
                           key=lambda e: (label_of(e[0]), label_of(e[1]))):
            lines.append(f"  {node_id[self._idx[a]]} -> {node_id[self._idx[b]]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def as_dict(self, label_of=str):
        return {
            "nodes": sorted(label_of(l) for l in self.labels),
            "covers": sorted([label_of(a), label_of(b)]
                             for a, b in self.covers()),
        }


def downset_lattice(P):
    """Lattice (as a Poset) of all downward-closed subsets of P, ordered by
    inclusion."""
    sets = P.downsets()
    return Poset(sets, [(a, b) for a in sets for b in sets if a <= b])


def chain_poset(n):
    return Poset(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def boolean_poset(k):
    subsets = [frozenset(s) for r in range(k + 1)
               for s in itertools.combinations(range(k), r)]
    return Poset(subsets, [(a, b) for a in subsets for b in subsets if a <= b])
