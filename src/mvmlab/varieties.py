"""The tau term ladder, the Phi_n / Sigma_I axiom sets, and the divisor-set
classification of varieties of positive MV-algebras."""

import functools
import math

from .algebra import canonical_key
from .axioms import is_mv_monoid, is_positive_mv
from .constructions import ln_plus
from .errors import BadArgument, NotDivisorClosed, NotPositiveMV
from .morphisms import hs_closure
from .terms import (Equation, const, oplus, odot, parse, power, satisfies,
                    scalar, var)


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
        if isinstance(other, DivisorClosedSet):
            return self.members == other.members
        return set(self.members) == set(other)

    def __hash__(self):
        return hash(self.members)

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
    __slots__ = ("name", "equations")

    def __init__(self, name, equations):
        self.name = name
        self.equations = list(equations)

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


@functools.lru_cache(maxsize=None)
def tau(n, k):
    """One-variable term computing ((n x - k) v 0) ^^ 1 in the unit interval:
    base tau(0,k) = 1 for k <= -1 and 0 for k >= 0, then
    tau(n+1,k) = tau(n,k-1) * (x + tau(n,k))."""
    if n == 0:
        return const("one") if k <= -1 else const("zero")
    return _fold_odot(tau(n - 1, k - 1), _fold_oplus(var(0), tau(n - 1, k)))


@functools.lru_cache(maxsize=None)
def tau_alt(n, k):
    """Same ladder via the second recursion (tau(n,k-1) * x) + tau(n,k)."""
    if n == 0:
        return const("one") if k <= -1 else const("zero")
    return _fold_oplus(_fold_odot(tau_alt(n - 1, k - 1), var(0)),
                       tau_alt(n - 1, k))


def phi(n):
    """The 2n idempotency equations for tau(n,0) .. tau(n,n-1)."""
    if n < 1:
        raise BadArgument(f"phi needs n >= 1, got {n}")
    eqs = []
    for k in range(n):
        t = tau(n, k)
        eqs.append(Equation(_fold_oplus(t, t), t))
        eqs.append(Equation(_fold_odot(t, t), t))
    return AxiomSet(f"Phi({n})", eqs)


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
    """Whether A lies in the variety generated by the truncated chains with
    index in I: MV-monoid axioms + Phi_lcm(I) + Sigma_I."""
    if not isinstance(I, DivisorClosedSet):
        I = DivisorClosedSet(I)
    if not is_mv_monoid(A):
        return False
    if not satisfies(A, sigma(I)):
        return False
    return bool(satisfies(A, phi(I.lcm())))


def classify_variety(generators):
    """The divisor-closed index set of the variety generated by positive
    MV-algebras: {n : the (n+1)-chain truncated algebra is an HS-image}."""
    generators = list(generators)
    for i, A in enumerate(generators):
        if not is_positive_mv(A):
            raise NotPositiveMV(f"generator {i} is not a positive MV-algebra",
                                index=i)
    closure = hs_closure(generators)
    max_n = max((A.size for A in closure.values()), default=1) - 1
    members = [n for n in range(1, max_n + 1)
               if canonical_key(ln_plus(n)) in closure]
    return DivisorClosedSet(members)
