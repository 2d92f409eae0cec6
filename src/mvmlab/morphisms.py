"""HS closure over isomorphism classes (the quotients of the subalgebras, in
one pass), its subdirectly irreducible members, and the poset of subdirectly
irreducible algebras ordered by HSU membership."""

import warnings

from .algebra import canonical_key
from .congruences import (Congruence, _closures, _frame, _joins,
                          _restricted_steps, _sort_key,
                          is_subdirectly_irreducible)
from .constructions import _quotient, _subalgebra_classes
from .posets import Poset, _bits


def _congruences_to_take(frame, emb, covers):
    """The nontrivial congruences theta_S of the subalgebra B of A on the
    elements `emb`, in the order of `congruence_lattice(B)`, such that no
    subuniverse M in `covers` meets every block, that is takes as many
    values of down[x] - S as B does.  They form a down-set of Con(B), as a
    set meeting every block of theta meets every block of a coarser one:
    joins of the join-irreducibles that no cover meets.  B's down, J and
    step come from A's `frame` (see `congruences._restricted_steps`), with
    join-irreducibles as bits of A's elements: the partitions, read off
    first occurrences, are those of B's own."""
    down, J, step = _restricted_steps(frame, emb)

    def taken(s):
        blocks = len({d & ~s for d in down})
        return not any(len({down[x] & ~s for x in M}) == blocks
                       for M in covers)

    Js = [s for s in _closures(step, _bits(J)) if taken(s)]
    return sorted((Congruence(map((~s).__and__, down)) for s in _joins(Js)
                   if s and taken(s)), key=_sort_key)


def hs_closure(S):
    """HS(S): every quotient of every subalgebra of a member of S, one
    algebra per isomorphism class; returns {key: algebra}, each class of S
    represented by its first member in S.  One pass suffices: SH(K) is
    contained in HS(K), so HS(K) is closed under H and S (Burris &
    Sankappanavar, II §9).

    B/theta is not formed when a proper subuniverse M of B meets every
    theta-block.  Then M -> B/theta is onto with kernel theta restricted to
    M, so B/theta is isomorphic to that quotient of M (the first
    isomorphism theorem; Burris & Sankappanavar, II §6).  M is a subalgebra
    of A with fewer elements than B, and `subalgebras` sorts by size first,
    so M's class comes before B's and, by induction on size, its quotient's
    class is in `found` already.  The keys, their order and the
    representatives are therefore those of taking every quotient.  If some
    proper subuniverse meets every block then so does a maximal one, so
    only the lower covers of B in its lattice of subuniverses are tried.

    A quotient that repeats the very tables of an earlier subalgebra or
    quotient is not keyed either: equal tables give equal algebras and equal
    keys, so its class is in `found` already, and its representative stays
    the first.

    Each subalgebra B of a member A is worked out in A's coordinates.  Its
    subuniverse U is a bitset of A's elements (see `_subalgebra_classes`),
    and B's operations are A's restricted to U, so B's order, lower covers
    and join-irreducibles J(B) are read off A's down rows masked to U, and
    its step table off A's packed translation rows, XORed per cover of B
    and masked to the fields of U (`congruences._restricted_steps`): B's
    tables are never packed and no lattice of B's is built.  The frame
    (`congruences._frame`) holds n packed rows of n² bits per translation
    table of an n-element A, for this call only."""
    found, seen = {}, set()
    for A in S:
        found.setdefault(canonical_key(A), A)
    for A in list(found.values()):
        frame = _frame(A)
        for B, emb, covers in _subalgebra_classes(A):
            # B is its own quotient by the identity, the first congruence
            found.setdefault(canonical_key(B), B)
            seen.add(B)
            for theta in _congruences_to_take(frame, emb, covers):
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
