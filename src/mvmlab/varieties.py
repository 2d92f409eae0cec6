"""The tau term ladder, the Phi_n / Sigma_I axiom sets, and the divisor-set
classification of varieties of positive MV-algebras."""

import functools
import math

from .algebra import FiniteAlgebra, canonical_key
from .axioms import is_mv_monoid
from .congruences import is_subdirectly_irreducible
from .constructions import ln_plus, si_quotients
from .errors import BadArgument, NotDivisorClosed, NotPositiveMV
from .morphisms import si_members
from .terms import Equation, const, oplus, odot, parse, power, scalar, var


def _divisors(m):
    """The divisors of m, increasing, in pairs (d, m // d) with d * d <= m."""
    low = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return low + [m // d for d in reversed(low) if d * d != m]


class DivisorClosedSet:
    """Finite set of positive integers closed under divisors."""

    __slots__ = ("members",)

    def __init__(self, members):
        members = list(members)
        # bool is an int subclass, so True would pass for 1
        if any(type(m) is not int or m < 1 for m in members):
            raise NotDivisorClosed("members must be positive integers")
        ms = sorted(set(members))
        present = set(ms)
        for m in ms:
            for d in _divisors(m):
                if d not in present:
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


def divisor_closed_sets(bound):
    """All divisor-closed subsets of {1..bound}, grown one m at a time."""
    found = [()]
    for m in range(1, bound + 1):
        found += [S + (m,) for S in found
                  if all(d in S for d in _divisors(m)[:-1])]
    return sorted(map(DivisorClosedSet, found), key=lambda I: I.members)


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


def member_of_variety(A, K):
    """Whether A lies in V(K), K a list of finite algebras or an index set I
    standing for the L_d+ with d in I.  The SI members of V(K) are those of
    HS(K) (`si_members`; Jónsson's lemma needs only the lattice reduct, no
    MV-monoid axiom); for I, the L_e+ with e in I, since the subalgebras of
    L_d+ are the L_e+ with e | d, all simple.  A finite A is a subdirect
    product of its SI quotients, hence A is in V(K) iff its SI classes all
    are SI members of V(K).  The index route also asks that A be an
    MV-monoid, which that implies, as every L_e+ is one."""
    K = list(K)
    if K and all(isinstance(B, FiniteAlgebra) for B in K):
        return _si_classes(A).keys() <= si_members(K).keys()
    # an L_e+ with more elements than A is no quotient of A
    targets = {_ln_plus_key(e) for e in DivisorClosedSet(K) if e < A.size}
    return bool(is_mv_monoid(A)) and _si_classes(A).keys() <= targets


@functools.cache
def _ln_plus_key(e):
    return canonical_key(ln_plus(e))


def _si_classes(A):
    """A's SI quotients up to isomorphism, {key: quotient}, kept in A's
    cache.  An SI A stands alone, as its other SI quotients lie in HS(A)."""
    if "si_classes" not in A._cache:
        quotients = ([A] if is_subdirectly_irreducible(A)[0]
                     else si_quotients(A))
        A._cache["si_classes"] = {canonical_key(Q): Q for Q in quotients}
    return A._cache["si_classes"]


def _si_indices(A):
    """The e with L_e+ among A's SI classes; None if some class is no L_e+."""
    found = {k: Q.size - 1 for k, Q in _si_classes(A).items()}
    if all(k == _ln_plus_key(e) for k, e in found.items()):
        return set(found.values())


def classify_variety(generators):
    """The divisor-closed index set of the variety generated by positive
    MV-algebras: the divisors of the e with L_e+ an SI quotient of a
    generator.  The SI indices decide positivity too.  A finite positive
    MV-algebra lies in V(L_d+ : d in D) for some finite D, so by Jónsson's
    lemma (see `si_members`) its SI quotients are L_e+.  Conversely,
    a finite algebra embeds in the product of its SI quotients (Birkhoff),
    so if they are all L_e+ it is a positive MV-algebra.  The variety
    generated is V(L_e+ : e in the union), whose index set is the divisor
    closure, since the subalgebras of L_e+ are the L_d+ with d | e."""
    indices = set()
    for i, A in enumerate(generators):
        found = _si_indices(A)
        if found is None:
            raise NotPositiveMV(f"generator {i} is not a positive MV-algebra",
                                index=i)
        indices |= found
    return DivisorClosedSet({d for e in indices for d in _divisors(e)})
