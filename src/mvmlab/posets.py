"""Small finite posets with covering relations, downset lattices and DOT
output.  Orders are bitset rows, bit j of row i set iff i <= j."""

import functools

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


def _up_rows(join):
    """Bitset rows of the order a join table defines (a <= c iff
    a v c = c): bit c of row a set iff join[a][c] == c."""
    return [sum(1 << c for c, v in enumerate(row) if v == c) for row in join]


@functools.lru_cache(maxsize=8)
def lower_covers(join):
    """Each element's lower covers, increasing, as a tuple of tuples, in the
    order a lattice's join table defines (a <= b iff a v b = b).  Cached by
    the join table, a tuple of tuples: the algebras a loop meets often share
    one lattice, such as `max_table(n)` in a chain enumeration, and a few
    entries serve such a loop."""
    below = [[] for _ in join]
    for b, a in cover_pairs(_up_rows(join)):
        below[a].append(b)
    return tuple(map(tuple, below))


class Poset:
    """Finite poset over hashable labels, ordered by the reflexive and
    transitive closure of `leq_pairs`.  The pairs, which may be a generator,
    are read once, when the order is first used."""

    def __init__(self, labels, leq_pairs):
        self.labels = list(labels)
        self._pairs = leq_pairs

    @functools.cached_property
    def _idx(self):
        return {l: i for i, l in enumerate(self.labels)}

    @functools.cached_property
    def _up(self):
        idx = self._idx
        up = [1 << i for i in range(len(self.labels))]
        for a, b in self._pairs:
            up[idx[a]] |= 1 << idx[b]
        return transitive_closure(up)

    @functools.cached_property
    def _covers(self):
        return cover_pairs(self._up)

    @functools.cached_property
    def _heights(self):
        heights = [-1] * len(self.labels)  # every row holds its own element
        for row in self._up:
            for j in _bits(row):
                heights[j] += 1
        return heights

    def __len__(self):
        return len(self.labels)

    def leq(self, a, b):
        return self._up[self._idx[a]] >> self._idx[b] & 1 == 1

    def covers(self):
        """Covering pairs (a, b) with a < b and nothing strictly between."""
        return [(self.labels[i], self.labels[j]) for i, j in self._covers]

    def minimal(self):
        return [a for a, h in zip(self.labels, self._heights) if h == 0]

    def maximal(self):
        return [a for i, a in enumerate(self.labels) if self._up[i] == 1 << i]

    def height(self, a):
        return self._heights[self._idx[a]]

    def downsets(self):
        n, up = len(self.labels), self._up
        check("DOWNSET", n, "poset size")
        # m is down-closed iff nothing outside m lies below a member of m
        return [frozenset(self.labels[i] for i in _bits(m))
                for m in range(1 << n)
                if not any(up[i] & m for i in _bits(~m & (1 << n) - 1))]

    def to_dot(self, name="poset", label_of=str):
        labels, height = [label_of(l) for l in self.labels], self._heights
        order = sorted(range(len(labels)),
                       key=lambda i: (height[i], labels[i]))
        node_id = {i: f"n{k}" for k, i in enumerate(order)}
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i in order:
            label = labels[i].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {node_id[i]} [label="{label}"];')
        for i, j in sorted(self._covers,
                           key=lambda e: (labels[e[0]], labels[e[1]])):
            lines.append(f"  {node_id[i]} -> {node_id[j]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def as_dict(self, label_of=str):
        labels = [label_of(l) for l in self.labels]
        return {
            "nodes": sorted(labels),
            "covers": sorted([labels[i], labels[j]] for i, j in self._covers),
        }


def downset_lattice(P):
    """Lattice (as a Poset) of all downward-closed subsets of P, ordered by
    inclusion."""
    sets = P.downsets()
    return Poset(sets, [(a, b) for a in sets for b in sets if a <= b])
