"""The three workloads.  Each builds its inputs from a seed during set-up and
returns the operations of one pass.  mvmlab receives only JSON algebra
documents, parsed and loaded afresh by every operation, so no algebra object
(and no verdict in its `_cache`) outlives a pass.

An operation returns a plain summary of mvmlab's answer; its check compares
that summary with `oracle`, which shares no code with mvmlab.  Probes are
operations that have a known answer but that mvmlab currently cannot give
(RecursionError in membership, CapExceeded in closure); they are counted
apart from the other operations.
"""

import io
import itertools
import json
from dataclasses import dataclass
from typing import Callable

import oracle


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]  # calls into mvmlab, returns a summary
    check: Callable[[object], list]  # summary -> list of problems
    probe: bool = False


def _relabeled(rng, alg):
    perm = list(range(alg["size"]))
    rng.shuffle(perm)
    return json.dumps(oracle.document(oracle.relabel(alg, perm)))


def _as_chain(A):
    return oracle.chain(A.oplus, A.odot)


def _ln(n):
    return oracle.chain(*oracle.ln_plus_tables(n))


def _summary(A):
    return {"size": A.size, "zero": A.zero, "one": A.one, "oplus": A.oplus,
            "odot": A.odot, "join": A.join, "meet": A.meet}


# ---------------------------------------------------------------------------
# enumerate: the paper's fixed census calls; the seed is unused

# output counts of the two calls (tests/test_enumeration.py pins n <= 5)
ENUM_CALLS = {(7, "si"): 107, (6, "positive"): 16}


def _check_enumeration(n, flt, algs):
    bad = []
    if len(algs) != ENUM_CALLS[(n, flt)]:
        bad.append(f"{len(algs)} outputs, expected {ENUM_CALLS[(n, flt)]}")
    keys = [(a["oplus"], a["odot"]) for a in algs]
    if keys != sorted(set(keys)):
        bad.append("outputs are not distinct tables in lexicographic order")
    for i, a in enumerate(algs):
        if a != oracle.chain(a["oplus"], a["odot"]) or a["size"] != n:
            bad.append(f"output {i} is not an {n}-chain in numeric order")
            continue
        failed = oracle.failed_axioms(a)
        if failed:
            bad.append(f"output {i} violates {failed}")
        if flt == "si" and not oracle.is_subdirectly_irreducible(a):
            bad.append(f"output {i} is not subdirectly irreducible")
        if flt == "positive" and not oracle.is_cancellative(a):
            bad.append(f"output {i} is not cancellative")
    if flt == "positive":
        si = [a for a in algs if oracle.is_subdirectly_irreducible(a)]
        if si != [_ln(n - 1)]:
            bad.append(f"SI outputs are not exactly L{n - 1}+")
    return bad


def _enumerate_ops(mvm, calls):
    def run(n, flt):
        return [_summary(A) for A in mvm.enumerate_chain(n, flt)]

    return [Op(f"enumerate_chain({n},{flt})",
               lambda n=n, flt=flt: run(n, flt),
               lambda out, n=n, flt=flt: _check_enumeration(n, flt, out))
            for n, flt in calls]


# ---------------------------------------------------------------------------
# membership: Phi/Sigma checks over the 17 divisor-closed I in {1..6}

SETS = oracle.divisor_closed_sets(6)
PROBE_SET = list(range(1, 13))  # lcm 27720: phi builds a 27720-deep ladder
# products of two truncated chains (6, 9 and 12 elements), fixed rather than
# drawn: their cost grows with their size, so a draw would move wall_s
PRODUCTS = [(1, 2), (2, 2), (2, 3)]


def _membership_inputs(mvm, rng):
    """Per chain size 2..7: the truncated chain and one other seeded SI chain
    (enumeration is set-up work); three products; three probes."""
    inputs = []
    for n in range(2, 8):
        ln = _ln(n - 1)
        others = [c for c in map(_as_chain, mvm.enumerate_chain(n, "si"))
                  if c != ln]
        picks = [ln]
        if others:
            picks.append(rng.choice(others))
        for c in picks:
            inputs.append({"kind": "chain", "alg": c,
                           "doc": _relabeled(rng, c)})
    for a, b in PRODUCTS:
        p = oracle.product(_ln(a), _ln(b))
        inputs.append({"kind": "product", "factors": [a, b],
                       "doc": _relabeled(rng, p)})
    for n in (1, 2, 3):
        inputs.append({"kind": "probe", "doc": _relabeled(rng, _ln(n))})
    return inputs


def _check_member(item, verdicts):
    if item["kind"] == "chain":
        alg = item["alg"]
        if oracle.failed_axioms(alg) or not \
                oracle.is_subdirectly_irreducible(alg):
            return ["input is not an SI MV-monoid chain"]
        n = alg["size"] - 1
        is_ln = alg == _ln(n)
        want = [is_ln and n in I for I in SETS]
    elif item["kind"] == "product":
        want = [all(f in I for f in item["factors"]) for I in SETS]
    else:
        want = [True]
    return [] if verdicts == want else [f"verdicts {verdicts} != {want}"]


def _membership_ops(mvm, inputs):
    def run(doc, sets):
        A = mvm.load(json.loads(doc))
        return [bool(mvm.member_of_variety(A, I)) for I in sets]

    ops = []
    for i, item in enumerate(inputs):
        probe = item["kind"] == "probe"
        sets = [PROBE_SET] if probe else SETS
        ops.append(Op(f"member[{i}]:{item['kind']}",
                      lambda doc=item["doc"], sets=sets: run(doc, sets),
                      lambda out, item=item: _check_member(item, out),
                      probe=probe))
    return ops


# ---------------------------------------------------------------------------
# closure: congruence lattices, HS closures, isomorphism, classification and
# the figure pipelines

REPRO_TARGETS = ("fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "counts")
CLASSIFY_PAIRS = [(a, b) for a in range(1, 12) for b in range(a, 12)
                  if (a + 1) * (b + 1) <= 12]


def _distinct_partner(p, others):
    """An algebra of p's size that the oracle proves not isomorphic to p:
    p's order dual (same size, congruences and subalgebras), or else the
    first of others (products of the same size and |Con|); None if neither
    is."""
    for q in [oracle.dual(p), *others]:
        if not oracle.isomorphic(p, q):
            return q
    return None


def _closure_inputs(mvm, rng):
    """One product P = A x B of SI chains, |A||B| <= 12, from every stratum
    of (|A|, |B|, |Con A|, |Con B|), with up to four operations each:
    congruence_lattice, hs_closure, are_isomorphic against the unrelabeled
    product(A, B), and are_isomorphic against an algebra that is not
    isomorphic to P (see _distinct_partner).  Within a stratum the cost of
    hs_closure still varies twofold, so the pair is the stratum's first, and
    the seed picks between it and its order dual (the same work: duality maps
    subalgebras, congruences and HS classes one to one), the factor order and
    the relabeling."""
    sis = [_as_chain(A) for n in range(2, 7)
           for A in mvm.enumerate_chain(n, "si")]
    con = [len(oracle.chain_congruences(c)) for c in sis]
    strata, by_size_con = {}, {}
    for i, j in itertools.combinations_with_replacement(range(len(sis)), 2):
        if sis[i]["size"] * sis[j]["size"] <= 12:
            key = tuple(sorted([(sis[i]["size"], con[i]),
                                (sis[j]["size"], con[j])]))
            strata.setdefault(key, (i, j))
            by_size_con.setdefault((sis[i]["size"] * sis[j]["size"],
                                    con[i] * con[j]), []).append((i, j))
    inputs = []
    for key in sorted(strata):
        first = strata[key]
        pair = list(first)
        rng.shuffle(pair)
        a, b = (sis[k] for k in pair)
        if rng.random() < 0.5:
            a, b = oracle.order_dual(a), oracle.order_dual(b)
        p = oracle.product(a, b)
        shared = {"algs": [a, b],
                  "factors": [json.dumps(oracle.document(a)),
                              json.dumps(oracle.document(b))],
                  "doc": _relabeled(rng, p)}
        for kind in ("congruences", "hs", "isomorphic"):
            inputs.append({"kind": kind, **shared})
        others = [oracle.product(sis[i], sis[j]) for i, j in
                  by_size_con[p["size"], con[first[0]] * con[first[1]]]
                  if (i, j) != first]
        q = _distinct_partner(p, others)
        if q is not None:
            inputs.append({"kind": "distinct", "doc": shared["doc"],
                           "other": _relabeled(rng, q)})
    for a, b in CLASSIFY_PAIRS:
        inputs.append({"kind": "classify",
                       "want": sorted(oracle.divisors(a) | oracle.divisors(b)),
                       "doc": _relabeled(rng, oracle.product(_ln(a), _ln(b)))})
    for target in REPRO_TARGETS:
        inputs.append({"kind": "repro", "target": target})
    boolean16 = oracle.product(oracle.product(_ln(1), _ln(1)),
                               oracle.product(_ln(1), _ln(1)))
    inputs.append({"kind": "probe",
                   "plain": json.dumps(oracle.document(boolean16)),
                   "doc": _relabeled(rng, boolean16)})
    return inputs


def _check_closure(item, out):
    kind = item["kind"]
    if kind == "congruences":
        a, b = item["algs"]
        want = (len(oracle.chain_congruences(a))
                * len(oracle.chain_congruences(b)))
        return [] if out == want else [f"|Con| {out} != |Con A||Con B| = "
                                       f"{want}"]
    if kind == "hs":
        want = oracle.hs_class_sizes(oracle.product(*item["algs"]))
        return [] if out == want else [f"HS class sizes {out} != {want}"]
    if kind == "isomorphic":
        return [] if out is True else ["relabeled A x B not isomorphic to "
                                       "A x B"]
    if kind == "distinct":
        return [] if out is False else ["non-isomorphic algebras reported "
                                        "isomorphic"]
    if kind == "classify":
        return [] if out == item["want"] else [f"{out} != {item['want']}"]
    if kind == "repro":
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        return oracle.repro_problems(item["target"], doc)
    return [] if out is True else ["relabeled L1+^4 not isomorphic to L1+^4"]


def _closure_ops(mvm, inputs):
    def load(text):
        return mvm.load(json.loads(text))

    def run_congruences(item):
        return len(mvm.congruence_lattice(load(item["doc"])))

    def run_hs(item):
        return sorted(C.size for C in
                      mvm.hs_closure([load(item["doc"])]).values())

    def run_isomorphic(item):
        A, B = map(load, item["factors"])
        return bool(mvm.are_isomorphic(load(item["doc"]), mvm.product(A, B)))

    def run_distinct(item):
        return bool(mvm.are_isomorphic(load(item["doc"]), load(item["other"])))

    def run_classify(item):
        return list(mvm.classify_variety([load(item["doc"])]))

    def run_repro(item):
        buf = io.StringIO()
        rc = mvm.cli.run(["repro", item["target"]], buf)
        return rc, buf.getvalue()

    def run_probe(item):
        return bool(mvm.are_isomorphic(load(item["doc"]),
                                       load(item["plain"])))

    runners = {"congruences": run_congruences, "hs": run_hs,
               "isomorphic": run_isomorphic, "distinct": run_distinct,
               "classify": run_classify,
               "repro": run_repro, "probe": run_probe}
    return [Op(f"closure[{i}]:{item['kind']}",
               lambda item=item: runners[item["kind"]](item),
               lambda out, item=item: _check_closure(item, out),
               probe=item["kind"] == "probe")
            for i, item in enumerate(inputs)]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    generate: Callable  # (mvmlab, random.Random) -> inputs
    operations: Callable  # (mvmlab, inputs) -> [Op]
    uses_seed: bool = True


WORKLOADS = {
    "enumerate": Workload(lambda mvm, rng: list(ENUM_CALLS), _enumerate_ops,
                          uses_seed=False),
    "membership": Workload(_membership_inputs, _membership_ops),
    "closure": Workload(_closure_inputs, _closure_ops),
}
