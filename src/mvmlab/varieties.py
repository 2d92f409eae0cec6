"""The tau term ladder, the Phi_n / Sigma_I axiom sets, and the divisor-set
classification of varieties of positive MV-algebras."""

import math

from .algebra import are_isomorphic
from .axioms import is_mv_monoid, is_positive_mv
from .congruences import is_subdirectly_irreducible
from .constructions import ln_plus, si_quotients
from .errors import BadArgument, NotDivisorClosed, NotPositiveMV
from .terms import Equation, const, oplus, odot, parse, power, scalar, var


class DivisorClosedSet:
    """Finite set of positive integers closed under divisors."""

    __slots__ = ("members",)

    def __init__(self, members):
        ms = sorted(set(members))
        if any(not isinstance(m, int) or m < 1 for m in ms):
            raise NotDivisorClosed("members must be positive integers")
        present = set(ms)
        for m in ms:
            for d in range(1, m + 1):
                if m % d == 0 and d not in present:
                    raise NotDivisorClosed(f"{m} is in the set but its "
                                           f"divisor {d} is not")
        self.members = tuple(ms)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, n):
        return n in self.members

    def __eq__(self, other):
        # sets only: a tuple or list of the members hashes differently
        if isinstance(other, DivisorClosedSet):
            return self.members == other.members
        if isinstance(other, (set, frozenset)):
            return set(self.members) == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.members))

    def __repr__(self):
        return f"DivisorClosedSet({set(self.members) or '{}'})"

    def max(self):
        return self.members[-1] if self.members else 0

    def lcm(self):
        return math.lcm(*self.members) if self.members else 1


def divisor_closed_sets(bound):
    """All divisor-closed subsets of {1..bound}."""
    out = []
    universe = list(range(1, bound + 1))
    for bits in range(1 << bound):
        chosen = {universe[i] for i in range(bound) if bits >> i & 1}
        if all(all(d in chosen for d in range(1, m + 1) if m % d == 0)
               for m in chosen):
            out.append(DivisorClosedSet(chosen))
    return sorted(out, key=lambda I: I.members)


class AxiomSet:
    __slots__ = ("name", "equations", "_texts")

    def __init__(self, name, equations, texts=None):
        self.name = name
        self.equations = list(equations)
        self._texts = texts

    def texts(self):
        """Display text of each equation: the names given, else the terms
        spelled out."""
        return list(self._texts or map(str, self.equations))

    def __iter__(self):
        return iter(self.equations)

    def __len__(self):
        return len(self.equations)

    def __repr__(self):
        return f"AxiomSet({self.name}, {len(self.equations)} equations)"


# folding constructors: drop unit arguments, absorb on zero/one

def _fold_oplus(l, r):
    zero, one = const("zero"), const("one")
    if l is zero:
        return r
    if r is zero:
        return l
    if l is one or r is one:
        return one
    return oplus(l, r)


def _fold_odot(l, r):
    zero, one = const("zero"), const("one")
    if l is one:
        return r
    if r is one:
        return l
    if l is zero or r is zero:
        return zero
    return odot(l, r)


def _tau_step(left, below):
    # tau(m+1, k) from left = tau(m, k-1) and below = tau(m, k)
    return _fold_odot(left, _fold_oplus(var(0), below))


def _ladder(step, n, lo, hi):
    """Row n of a tau ladder at the columns lo..hi, built row by row.  Row m
    is needed at the columns lo-(n-m) .. hi only, and its cells left of
    column 0 are one and those right of column m-1 are zero (both steps fold
    to these constants), so only the cells in between are built."""
    one, zero = const("one"), const("zero")
    start, row = 0, []  # row m holds the columns start .. start+len(row)-1

    def cell(m, j):
        return one if j < 0 else zero if j >= m else row[j - start]

    for m in range(1, n + 1):
        lo_m, hi_m = max(lo - (n - m), 0), min(hi, m - 1)
        new = [step(cell(m - 1, j - 1), cell(m - 1, j))
               for j in range(lo_m, hi_m + 1)]
        start, row = lo_m, new
    return [cell(n, k) for k in range(lo, hi + 1)]


def tau(n, k):
    """One-variable term computing ((n x - k) v 0) ^^ 1 in the unit interval:
    base tau(0,k) = 1 for k <= -1 and 0 for k >= 0, then
    tau(n+1,k) = tau(n,k-1) * (x + tau(n,k))."""
    return _ladder(_tau_step, n, k, k)[0]


def phi(n):
    """The 2n idempotency equations for tau(n,0) .. tau(n,n-1), each named
    by its tau rather than spelled out: the shared ladder prints as a tree
    of exponential size."""
    if n < 1:
        raise BadArgument(f"phi needs n >= 1, got {n}")
    eqs, texts = [], []
    for k, t in enumerate(_ladder(_tau_step, n, 0, n - 1)):
        eqs += [Equation(_fold_oplus(t, t), t), Equation(_fold_odot(t, t), t)]
        name = f"tau({n},{k})"
        texts += [f"{name} + {name} ≈ {name}", f"{name} * {name} ≈ {name}"]
    return AxiomSet(f"Phi({n})", eqs, texts)


def sigma(I):
    """Threshold equation (m+1)x = mx plus, for every 1 <= k <= m outside I,
    the non-divisor equation m((k-1)x)^k = (kx)^m, with m = max(I)."""
    if not isinstance(I, DivisorClosedSet):
        I = DivisorClosedSet(I)
    m = I.max()
    x = var(0)
    eqs = [Equation(scalar(m + 1, x), scalar(m, x))]
    for k in range(1, m + 1):
        if k in I:
            continue
        eqs.append(Equation(scalar(m, power(scalar(k - 1, x), k)),
                            power(scalar(k, x), m)))
    return AxiomSet(f"Sigma({set(I.members) or '{}'})", eqs)


def almost_minimal_axioms(tag):
    """Axioms of the two almost-minimal non-positive varieties: 'C_delta' is
    generated by the oplus-idempotent 3-chain, 'C_nabla' by its dual."""
    if tag in ("C_delta", "CΔ", "delta"):
        return AxiomSet("AlmostMinimal(C_delta)", [parse("x + x ≈ x")])
    if tag in ("C_nabla", "C∇", "nabla"):
        return AxiomSet("AlmostMinimal(C_nabla)", [parse("x * x ≈ x")])
    raise BadArgument(f"unknown tag {tag!r}")


def member_of_variety(A, I):
    """Whether A lies in V(I), the variety generated by the truncated chains
    L_d+ with d in I.  MV-monoids have a lattice reduct, so V(I) is
    congruence distributive, and by Jónsson's lemma (Burris & Sankappanavar,
    IV §6) its SI members lie in HS(L_d+ : d in I).  The subalgebras of L_d+
    are the L_e+ with e | d, all simple, so the SI members of V(I) are the
    L_e+ with e in I.  A finite A is a subdirect product of its SI quotients,
    hence A is in V(I) iff it is an MV-monoid whose SI quotients all are."""
    if not isinstance(I, DivisorClosedSet):
        I = DivisorClosedSet(I)
    if not is_mv_monoid(A):
        return False
    indices = _si_indices(A)
    return indices is not None and all(e in I for e in indices)


def _si_indices(A):
    """The e with an SI quotient of A isomorphic to L_e+, or None when some
    SI quotient is no L_e+; kept in A's cache, so that asking about many
    index sets computes the SI quotients once."""
    if "si_indices" not in A._cache:
        # an SI A is one of its own SI quotients, and the only one when it
        # is some L_e+, since L_e+ is simple
        quotients = ([A] if is_subdirectly_irreducible(A)[0]
                     else si_quotients(A))
        indices = set()
        for Q in quotients:
            e = Q.size - 1  # SI algebras are nontrivial, so e >= 1
            if not are_isomorphic(Q, ln_plus(e)):
                indices = None
                break
            indices.add(e)
        A._cache["si_indices"] = indices
    return A._cache["si_indices"]


def classify_variety(generators):
    """The divisor-closed index set of the variety generated by positive
    MV-algebras: the divisors of the e with L_e+ an SI quotient of a
    generator.  A finite positive MV-algebra lies in V(L_d+ : d in D) for
    some finite D, so by Jónsson's lemma (see `member_of_variety`) its SI
    quotients are L_e+ and `_si_indices` is never None for it.  The variety
    generated is V(L_e+ : e in the union), whose index set is the divisor
    closure, since the subalgebras of L_e+ are the L_d+ with d | e."""
    generators = list(generators)
    for i, A in enumerate(generators):
        if not is_positive_mv(A):
            raise NotPositiveMV(f"generator {i} is not a positive MV-algebra",
                                index=i)
    indices = set().union(*map(_si_indices, generators))
    return DivisorClosedSet({d for e in indices for d in range(1, e + 1)
                             if e % d == 0})
