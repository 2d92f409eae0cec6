"""Small finite posets with covering relations, downset lattices, DOT
output, and isomorphism testing by the canonical form of `algebra`."""

import itertools

from .algebra import canonical_form
from .caps import cap
from .errors import CapExceeded


class Poset:
    """Finite poset over hashable labels; `leq` is a set of ordered pairs
    containing at least the reflexive pairs (transitively closed on build)."""

    def __init__(self, labels, leq_pairs):
        self.labels = list(labels)
        idx = {l: i for i, l in enumerate(self.labels)}
        n = len(self.labels)
        rel = [[False] * n for _ in range(n)]
        for i in range(n):
            rel[i][i] = True
        for a, b in leq_pairs:
            rel[idx[a]][idx[b]] = True
        # Warshall transitive closure
        for k in range(n):
            for i in range(n):
                if rel[i][k]:
                    row, rowk = rel[i], rel[k]
                    for j in range(n):
                        if rowk[j]:
                            row[j] = True
        self._rel = rel
        self._idx = idx

    def __len__(self):
        return len(self.labels)

    def leq(self, a, b):
        return self._rel[self._idx[a]][self._idx[b]]

    def covers(self):
        """Covering pairs (a, b) with a < b and nothing strictly between."""
        out = []
        n = len(self.labels)
        for i in range(n):
            for j in range(n):
                if i == j or not self._rel[i][j]:
                    continue
                if any(k not in (i, j) and self._rel[i][k] and self._rel[k][j]
                       for k in range(n)):
                    continue
                out.append((self.labels[i], self.labels[j]))
        return out

    def minimal(self):
        return [b for b in self.labels
                if not any(a != b and self.leq(a, b) for a in self.labels)]

    def maximal(self):
        return [a for a in self.labels
                if not any(b != a and self.leq(a, b) for b in self.labels)]

    def height(self, a):
        return sum(1 for b in self.labels if b != a and self.leq(b, a))

    def downsets(self):
        if len(self.labels) > cap("DOWNSET"):
            raise CapExceeded(f"downset cap is {cap('DOWNSET')}")
        out = []
        n = len(self.labels)
        for bits in itertools.product((False, True), repeat=n):
            chosen = [self.labels[i] for i in range(n) if bits[i]]
            closed = all(self.leq(a, b) <= (a in chosen)
                         for b in chosen for a in self.labels)
            if closed:
                out.append(frozenset(chosen))
        return out

    def is_isomorphic_to(self, other):
        return len(self) == len(other) and self._key() == other._key()

    def _key(self):
        # <= as the table t[i][j] = j if i <= j else i, from (up-set size,
        # down-set size)
        n, rel = len(self), self._rel
        leq = [[j if rel[i][j] else i for j in range(n)] for i in range(n)]
        return canonical_form(n, [leq], [],
                              [(sum(rel[i]), sum(r[i] for r in rel))
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
