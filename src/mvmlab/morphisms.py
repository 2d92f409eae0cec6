"""HS closure over isomorphism classes (the quotients of the subalgebras, in
one pass), its subdirectly irreducible members, and the poset of subdirectly
irreducible algebras ordered by HSU membership."""

import warnings

from .algebra import canonical_key
from .congruences import congruence_lattice, is_subdirectly_irreducible
from .constructions import _quotient, subalgebras
from .posets import Poset


def hs_closure(S):
    """HS(S): every quotient of every subalgebra of a member of S, one
    algebra per isomorphism class; returns {key: algebra}, each class of S
    represented by its first member in S.  One pass suffices: SH(K) is
    contained in HS(K), so HS(K) is closed under H and S (Burris &
    Sankappanavar, II §9).

    Most quotients repeat the very tables of an earlier subalgebra or
    quotient (every subalgebra has the trivial quotient, for one).  Equal
    tables give equal algebras and equal keys, so such a quotient is not
    keyed: its class is in `found` already, and its representative stays
    the first."""
    found, seen = {}, set()
    for A in S:
        found.setdefault(canonical_key(A), A)
    for A in list(found.values()):
        for B, _ in subalgebras(A):
            # B is its own quotient by the identity, the first congruence
            found.setdefault(canonical_key(B), B)
            seen.add(B)
            for theta in congruence_lattice(B).labels[1:]:
                Q = _quotient(B, theta)
                n = len(seen)
                seen.add(Q)
                if len(seen) > n:
                    found.setdefault(canonical_key(Q), Q)
    return found


def si_members(K):
    """The SI members of HS(K), as {key: algebra}: by Jónsson's lemma (Burris
    & Sankappanavar, IV §6), those of V(K) for a finite set K of finite
    algebras with a lattice reduct, such as MV-monoids."""
    return {k: B for k, B in hs_closure(K).items()
            if is_subdirectly_irreducible(B)[0]}


def hs_poset(S):
    """Iso classes of S, each labelled by its first member in S, ordered by:
    A <= B iff A lies in the HS closure of {B}."""
    reps = {}
    for A in S:
        reps.setdefault(canonical_key(A), A)
    closures = {k: set(hs_closure([A])) for k, A in reps.items()}
    return Poset(list(reps.values()), [(reps[a], reps[b]) for a in reps
                                       for b in reps if a in closures[b]])


def si_poset(S):
    """`hs_poset` of a set of subdirectly irreducible algebras; warns about
    every input class that is not SI, naming the position in S (from 0) of
    its first member, since unnamed algebras share their repr."""
    S = list(S)
    P = hs_poset(S)
    for A in P.labels:
        if not is_subdirectly_irreducible(A)[0]:
            # the first member equal to A is A: later ones share its class
            warnings.warn(f"si_poset input {S.index(A)} ({A!r}) is not "
                          "subdirectly irreducible")
    return P
