"""Command-line front end: verdicts as JSON, posets/lattices as JSON or DOT,
and `repro` pipelines that recompute the survey figures from first
principles."""

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
import warnings

from . import algebra, congruences, constructions, enumeration, morphisms
from . import posets, terms, varieties
from .axioms import is_mv_monoid
from .errors import (BadArgument, MalformedDocument, MvmError, UnknownName,
                     UnknownTarget)


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def _key_tag(A):
    return hashlib.sha256(algebra.canonical_key(A)).hexdigest()[:8]


@functools.cache
def _registry():
    """Canonical key -> display name for every named algebra we can build,
    built once per process."""
    reg = {}

    def put(A):
        reg.setdefault(algebra.canonical_key(A), A.name)

    put(algebra.trivial_algebra())
    for n in range(1, 9):
        put(constructions.ln_plus(n))
    for n in range(2, 8):
        put(constructions.cn_delta(n))
        put(constructions.cn_nabla(n))
        put(constructions.lm_delta(n))
        put(constructions.lm_nabla(n))
    for name in constructions.catalog_names():
        put(constructions.catalog(name))
    return reg


def identify(A):
    key = algebra.canonical_key(A)
    return _registry().get(key, f"size{A.size}_{_key_tag(A)}")


def _parse_set(text):
    items = [s for s in text.split(",") if s.strip()]
    try:
        members = [int(s) for s in items]
    except ValueError:
        raise BadArgument(f"--set must list integers, got {text!r}") from None
    return varieties.DivisorClosedSet(members)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_axioms(args, out):
    report = is_mv_monoid(algebra.load_file(args.file))
    out.write(_dump(report.as_dict()) + "\n")


def _congruence_poset(lat):
    labels = [str(list(c.blocks())) for c in lat.congruences]
    return posets.Poset(labels, [(labels[i], labels[j])
                                 for i, j in lat.covers])


def _cmd_congruences(args, out):
    A = algebra.load_file(args.file)
    lat = congruences.congruence_lattice(A)
    P = _congruence_poset(lat)
    if args.dot:
        out.write(P.to_dot(name="congruences"))
        return
    out.write(_dump({
        "size": len(lat),
        "is_chain": lat.is_chain(),
        "congruences": [[list(b) for b in c.blocks()]
                        for c in lat.congruences],
        "covers": list(lat.covers),
    }) + "\n")


_PARAMETRIC = {
    "ln_plus": constructions.ln_plus,
    "cn_delta": constructions.cn_delta,
    "cn_nabla": constructions.cn_nabla,
    "lm_delta": constructions.lm_delta,
    "lm_nabla": constructions.lm_nabla,
}


def _cmd_construct(args, out):
    if args.name == "gamma-lex":
        if not args.lmonoid:
            raise UnknownName("construct gamma-lex needs an l-monoid file")
        M = algebra.load_lmonoid(algebra.read_json(args.lmonoid))
        A = constructions.gamma_of_lex(M)
    elif args.name in _PARAMETRIC:
        if args.n is None:
            raise UnknownName(f"construct {args.name} needs --n")
        A = _PARAMETRIC[args.name](args.n)
    else:
        A = constructions.catalog(args.name)
    doc = _dump(algebra.save(A)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
    else:
        out.write(doc)


def _cmd_enumerate(args, out):
    algebras = enumeration.enumerate_chain(args.size, args.filter)
    if args.count_only:
        out.write(_dump({"size": args.size, "filter": args.filter,
                         "count": len(algebras)}) + "\n")
        return
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for A in algebras:
            with open(os.path.join(args.out, f"{A.name}.json"), "w") as fh:
                fh.write(_dump(algebra.save(A)) + "\n")
        out.write(_dump({"written": len(algebras), "dir": args.out}) + "\n")
        return
    out.write(_dump([algebra.save(A) for A in algebras]) + "\n")


def _witness(res):
    return None if res.passed else res.witness_named()


def _cmd_check_eq(args, out):
    res = terms.satisfies(algebra.load_file(args.file), terms.parse(args.eq))
    out.write(_dump({"holds": res.passed, "witness": _witness(res)}) + "\n")


def _axiomset_verdict(A, aset):
    res = terms.satisfies(A, aset)
    texts = aset.texts()
    return {"axiom_set": aset.name,
            "equations": texts,
            "holds": res.passed,
            "witness": _witness(res),
            "failing_equation": None if res.passed
            else texts[aset.equations.index(res.equation)]}


def _cmd_phi(args, out):
    out.write(_dump(_axiomset_verdict(algebra.load_file(args.file),
                                      varieties.phi(args.n))) + "\n")


def _cmd_sigma(args, out):
    out.write(_dump(_axiomset_verdict(algebra.load_file(args.file),
                                      varieties.sigma(_parse_set(args.set))))
              + "\n")


def _cmd_member(args, out):
    A = algebra.load_file(args.file)
    I = _parse_set(args.set)
    out.write(_dump({"set": list(I), "member": varieties.member_of_variety(A, I)})
              + "\n")


def _cmd_classify(args, out):
    gens = [algebra.load_file(f) for f in args.files]
    I = varieties.classify_variety(gens)
    out.write(_dump({"set": list(I)}) + "\n")


def _cmd_hsu(args, out):
    gens = [algebra.load_file(f) for f in args.files]
    closure = morphisms.hs_closure(gens)
    names = sorted(identify(A) for A in closure.values())
    out.write(_dump({"classes": names}) + "\n")


def _named_poset(P):
    """A poset of iso classes (from `morphisms.hs_poset` or `si_poset`) with
    each canonical key replaced by the display name of its class."""
    names = {k: identify(P.algebras[k]) for k in P.labels}
    return posets.Poset([names[k] for k in P.labels],
                        [(names[a], names[b]) for a in P.labels
                         for b in P.labels if P.leq(a, b)])


def _poset_out(P, args, out, dot_name, label_of=str):
    if args.dot:
        out.write(P.to_dot(name=dot_name, label_of=label_of))
    else:
        out.write(_dump(P.as_dict(label_of=label_of)) + "\n")


def _cmd_poset(args, out):
    gens = [algebra.load_file(f) for f in args.files]
    _poset_out(_named_poset(morphisms.si_poset(gens)), args, out, "si_poset")


# a backslash before each of these inside a node name keeps the labels of
# distinct downsets distinct ({"a,b"} is not {a, b})
_NAME_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,{}"})


def _downset_label(s):
    return "{" + ",".join(x.translate(_NAME_ESCAPES) for x in sorted(s)) + "}"


def _load_poset(path):
    doc = algebra.read_json(path)
    nodes = doc.get("nodes") if isinstance(doc, dict) else None
    if (not isinstance(nodes, list)
            or not all(isinstance(x, str) for x in nodes)
            or len(set(nodes)) != len(nodes)):
        raise MalformedDocument("poset document needs distinct string nodes")
    leq = doc.get("leq", [])
    if not isinstance(leq, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(x in nodes for x in p)
            for p in leq):
        raise MalformedDocument("leq must list pairs of nodes")
    P = posets.Poset(nodes, [tuple(p) for p in leq])
    for a, b in itertools.combinations(nodes, 2):
        if P.leq(a, b) and P.leq(b, a):
            raise MalformedDocument(f"leq relates {a!r} and {b!r} both ways")
    return P


def _cmd_downsets(args, out):
    D = posets.downset_lattice(_load_poset(args.file))
    _poset_out(D, args, out, "downsets", _downset_label)


# ---------------------------------------------------------------------------
# figure reproduction

def _si_algebras_up_to(max_size):
    out = []
    for n in range(2, max_size + 1):
        out.extend(enumeration.enumerate_chain(n, "si"))
    return out


def _primes_up_to(n):
    return [p for p in range(2, n + 1)
            if all(p % d for d in range(2, p))]


def _continued_poset_out(P, args, out, dot_name, note):
    # a finite part of an infinite figure, marked as continuing
    if args.dot:
        out.write(P.to_dot(name=dot_name) + f"// {note}\n")
    else:
        out.write(_dump({**P.as_dict(), "continues": True}) + "\n")


def _depth(args, default):
    # how far fig1 and fig2 draw their infinite figures
    if args.depth is not None and args.depth < 1:
        raise BadArgument(f"--depth must be at least 1, got {args.depth}")
    return args.depth or default


def _repro_fig1(args, out):
    depth = _depth(args, 5)
    gens = [algebra.trivial_algebra(), constructions.ln_plus(1),
            constructions.cn_delta(2), constructions.cn_nabla(2)]
    gens += [constructions.ln_plus(p) for p in _primes_up_to(depth)]
    # the varieties generated by single SI or hereditarily small algebras
    # are ordered as the generators are by HS membership
    _continued_poset_out(_named_poset(morphisms.hs_poset(gens)), args, out,
                         "fig1", "chain continues: one atom V(Lp+) per prime p")


def _repro_fig2(args, out):
    depth = _depth(args, 4)
    gens = [algebra.trivial_algebra(), constructions.ln_plus(1)]
    for n in range(2, depth + 1):
        gens.append(constructions.cn_delta(n))
        gens.append(constructions.cn_nabla(n))
        gens.append(constructions.ln_plus(n))
    _continued_poset_out(_named_poset(morphisms.hs_poset(gens)), args, out,
                         "fig2", "chains continue upward for every n")


def _algebra_summary(A):
    return {"name": identify(A), "size": A.size,
            "oplus": [list(r) for r in A.oplus],
            "odot": [list(r) for r in A.odot]}


def _repro_fig3(args, out):
    algebras = enumeration.enumerate_chain(3, "all")
    out.write(_dump([_algebra_summary(A) for A in algebras]) + "\n")


def _repro_fig4(args, out):
    algebras = enumeration.enumerate_chain(4, "si-necessary")
    out.write(_dump([_algebra_summary(A) for A in algebras]) + "\n")


def _repro_fig6(args, out):
    n = 4
    pure = algebra.chain_algebra(
        n, [[max(i, j) for j in range(n)] for i in range(n)],
        [[min(i, j) for j in range(n)] for i in range(n)], name="L3")
    P = _congruence_poset(congruences.congruence_lattice(pure))
    _poset_out(P, args, out, "fig6")


def _repro_fig7(args, out):
    P = _named_poset(morphisms.si_poset(_si_algebras_up_to(4)))
    _poset_out(P, args, out, "fig7")


def _repro_fig8(args, out):
    seeds = [constructions.catalog("A3n"), constructions.catalog("B3d")]
    sis = morphisms.si_members(seeds).values()
    D = posets.downset_lattice(_named_poset(morphisms.si_poset(sis)))
    _poset_out(D, args, out, "fig8", _downset_label)


def _repro_fig9(args, out):
    D = posets.downset_lattice(
        _named_poset(morphisms.si_poset(_si_algebras_up_to(3))))
    _poset_out(D, args, out, "fig9", _downset_label)


def _repro_counts(args, out):
    out.write(_dump({
        "size3": len(enumeration.enumerate_chain(3, "all")),
        "size4_total": len(enumeration.enumerate_chain(4, "all")),
        "size4_siNecessary": len(enumeration.enumerate_chain(4, "si-necessary")),
        "size5_siNecessary": len(enumeration.enumerate_chain(5, "si-necessary")),
    }) + "\n")


_REPRO = {
    "fig1": _repro_fig1,
    "fig2": _repro_fig2,
    "fig3": _repro_fig3,
    "fig4": _repro_fig4,
    "fig6": _repro_fig6,
    "fig7": _repro_fig7,
    "fig8": _repro_fig8,
    "fig9": _repro_fig9,
    "counts": _repro_counts,
}


def _cmd_repro(args, out):
    if args.target not in _REPRO:
        raise UnknownTarget(f"unknown repro target {args.target!r}; "
                            f"valid: {', '.join(sorted(_REPRO))}")
    _REPRO[args.target](args, out)


# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="mvmlab",
        description="Finite-algebra workbench for MV-monoids and positive "
                    "MV-algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="check the MV-monoid axioms")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("congruences", help="congruence lattice")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=_cmd_congruences)

    p = sub.add_parser("construct", help="build a named algebra")
    p.add_argument("name")
    p.add_argument("lmonoid", nargs="?",
                   help="l-monoid file (for gamma-lex)")
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("enumerate", help="enumerate chain MV-monoids")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--filter", choices=enumeration.FILTERS, default="all")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("check-eq", help="check an equation on an algebra")
    p.add_argument("file")
    p.add_argument("--eq", required=True)
    p.set_defaults(fn=_cmd_check_eq)

    p = sub.add_parser("phi", help="check the Phi_n axiom set")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_phi)

    p = sub.add_parser("sigma", help="check the Sigma_I axiom set")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("member", help="variety membership for a divisor set")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("classify", help="divisor set of generated variety")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("hsu", help="HSU closure as iso classes")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_hsu)

    p = sub.add_parser("poset", help="SI poset of the given algebras")
    p.add_argument("files", nargs="+")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=_cmd_poset)

    p = sub.add_parser("downsets", help="downset lattice of a poset file")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=_cmd_downsets)

    p = sub.add_parser("repro", help="recompute a survey figure")
    p.add_argument("target")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--depth", type=int)
    p.set_defaults(fn=_cmd_repro)

    return ap


def _warning_line(message, category, filename, lineno, file=None,
                  line=None):
    # a warning as one `warning: ...` line, without the source location
    print(f"warning: {message}", file=sys.stderr)


def run(argv=None, out=None):
    out = out or sys.stdout
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            args.fn(args, out)
    except (MvmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
