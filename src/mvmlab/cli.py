"""Command-line front end: verdicts as JSON, posets/lattices as JSON or DOT,
and `repro` pipelines that recompute the survey figures from first
principles.

Each command returns its stdout document, DOT text as a string or a JSON
value, and `run` is the one place that writes it; a command that wrote its
document to a file (`construct --out`) returns None."""

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
from .caps import check
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
    # fixed tables, so built uncapped: a lowered cap bounds what a command
    # is asked to build, not the names it prints
    for n in range(1, 9):
        put(constructions._ln_plus(n))
    for n in range(2, 8):
        put(constructions._cn_delta(n))
        put(constructions._cn_nabla(n))
        put(constructions._lm_delta(n))
        put(constructions._lm_nabla(n))
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
# subcommands: each returns its stdout document, DOT text or a JSON value

def _cmd_axioms(args):
    return is_mv_monoid(algebra.load_file(args.file)).as_dict()


def _blocks_label(c):
    return str(list(c.blocks()))


def _cmd_congruences(args):
    P = congruences.congruence_lattice(algebra.load_file(args.file))
    if args.dot:
        return P.to_dot(name="congruences", label_of=_blocks_label)
    covers = list(map(list, P._covers))
    return {
        "size": len(P),
        # a finite lattice's Hasse diagram is connected, and it is a path
        # exactly when the lattice is a chain
        "is_chain": len(covers) == len(P) - 1,
        "congruences": [[list(b) for b in c.blocks()] for c in P.labels],
        "covers": covers,
    }


_PARAMETRIC = {
    "ln_plus": constructions.ln_plus,
    "cn_delta": constructions.cn_delta,
    "cn_nabla": constructions.cn_nabla,
    "lm_delta": constructions.lm_delta,
    "lm_nabla": constructions.lm_nabla,
}


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(_dump(obj) + "\n")


def _cmd_construct(args):
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
    if not args.out:
        return algebra.save(A)
    _write_json(args.out, algebra.save(A))


def _cmd_enumerate(args):
    if args.count_only:  # the verdicts alone: no algebra is built
        return {"size": args.size, "filter": args.filter, "count": sum(
            kept for _, _, kept in enumeration._chain_census(args.size,
                                                             args.filter))}
    algebras = enumeration.enumerate_chain(args.size, args.filter)
    if not args.out:
        return [algebra.save(A) for A in algebras]
    os.makedirs(args.out, exist_ok=True)
    for A in algebras:
        _write_json(os.path.join(args.out, f"{A.name}.json"), algebra.save(A))
    return {"written": len(algebras), "dir": args.out}


def _witness(res):
    return None if res.passed else res.witness_named()


def _cmd_check_eq(args):
    res = terms.satisfies(algebra.load_file(args.file), terms.parse(args.eq))
    return {"holds": res.passed, "witness": _witness(res)}


def _axiomset_verdict(A, aset):
    res = terms.satisfies(A, aset)
    texts = aset.texts()
    return {"axiom_set": aset.name,
            "equations": texts,
            "holds": res.passed,
            "witness": _witness(res),
            "failing_equation": None if res.passed
            else texts[aset.equations.index(res.equation)]}


def _cmd_phi(args):
    return _axiomset_verdict(algebra.load_file(args.file),
                             varieties.phi(args.n))


def _cmd_sigma(args):
    return _axiomset_verdict(algebra.load_file(args.file),
                             varieties.sigma(_parse_set(args.set)))


def _cmd_member(args):
    A = algebra.load_file(args.file)
    I = _parse_set(args.set)
    return {"set": list(I), "member": varieties.member_of_variety(A, I)}


def _cmd_classify(args):
    gens = [algebra.load_file(f) for f in args.files]
    return {"set": list(varieties.classify_variety(gens))}


def _cmd_hsu(args):
    gens = [algebra.load_file(f) for f in args.files]
    closure = morphisms.hs_closure(gens)
    return {"classes": sorted(identify(A) for A in closure.values())}


def _poset_out(P, args, dot_name, label_of, note=None):
    # a note marks a finite part of an infinite figure as continuing
    if args.dot:
        dot = P.to_dot(name=dot_name, label_of=label_of)
        return dot + f"// {note}\n" if note else dot
    doc = P.as_dict(label_of=label_of)
    return {**doc, "continues": True} if note else doc


def _cmd_poset(args):
    gens = [algebra.load_file(f) for f in args.files]
    return _poset_out(morphisms.si_poset(gens), args, "si_poset", identify)


# a backslash before each of these inside a node name keeps the labels of
# distinct downsets distinct ({"a,b"} is not {a, b})
_NAME_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,{}"})


def _downset_label(s):
    return "{" + ",".join(x.translate(_NAME_ESCAPES) for x in sorted(s)) + "}"


def _named_downset_label(s):
    # a downset of algebras, by the display names of its members
    return _downset_label(map(identify, s))


def _load_poset(path):
    # shape first, then the cap, then the order: an over-cap document is
    # turned away before any work that grows with the square of its size
    doc = algebra.read_json(path)
    nodes = doc.get("nodes") if isinstance(doc, dict) else None
    if (not isinstance(nodes, list)
            or not all(isinstance(x, str) for x in nodes)
            or len(set(nodes)) != len(nodes)):
        raise MalformedDocument("poset document needs distinct string nodes")
    names = set(nodes)
    leq = doc.get("leq", [])
    if not isinstance(leq, list) or not all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(x, str) and x in names for x in p)
            for p in leq):
        raise MalformedDocument("leq must list pairs of nodes")
    check("DOWNSET", len(nodes), "poset size")
    P = posets.Poset(nodes, [tuple(p) for p in leq])
    for a, b in itertools.combinations(nodes, 2):
        if P.leq(a, b) and P.leq(b, a):
            raise MalformedDocument(f"leq relates {a!r} and {b!r} both ways")
    return P


def _cmd_downsets(args):
    D = posets.downset_lattice(_load_poset(args.file))
    return _poset_out(D, args, "downsets", _downset_label)


# ---------------------------------------------------------------------------
# figure reproduction

def _si_algebras_up_to(max_size):
    return [A for n in range(2, max_size + 1)
            for A in enumeration.enumerate_chain(n, "si")]


def _primes_up_to(n):
    return [p for p in range(2, n + 1)
            if all(p % d for d in range(2, p))]


def _depth(args, default):
    # how far fig1 and fig2 draw their infinite figures
    if args.depth is not None and args.depth < 1:
        raise BadArgument(f"--depth must be at least 1, got {args.depth}")
    return args.depth or default


def _repro_fig1(args):
    depth = _depth(args, 5)
    gens = [algebra.trivial_algebra(), constructions.ln_plus(1),
            constructions.cn_delta(2), constructions.cn_nabla(2)]
    gens += [constructions.ln_plus(p) for p in _primes_up_to(depth)]
    # the varieties generated by single SI or hereditarily small algebras
    # are ordered as the generators are by HS membership
    return _poset_out(morphisms.hs_poset(gens), args, "fig1", identify,
                      "chain continues: one atom V(Lp+) per prime p")


def _repro_fig2(args):
    depth = _depth(args, 4)
    gens = [algebra.trivial_algebra(), constructions.ln_plus(1)]
    for n in range(2, depth + 1):
        gens.append(constructions.cn_delta(n))
        gens.append(constructions.cn_nabla(n))
        gens.append(constructions.ln_plus(n))
    return _poset_out(morphisms.hs_poset(gens), args, "fig2", identify,
                      "chains continue upward for every n")


def _algebra_summary(A):
    return {"name": identify(A), "size": A.size,
            "oplus": [list(r) for r in A.oplus],
            "odot": [list(r) for r in A.odot]}


def _repro_fig3(args):
    algebras = enumeration.enumerate_chain(3, "all")
    return [_algebra_summary(A) for A in algebras]


def _repro_fig4(args):
    algebras = enumeration.enumerate_chain(4, "si-necessary")
    return [_algebra_summary(A) for A in algebras]


def _repro_fig6(args):
    n = 4
    pure = algebra.chain_algebra(
        n, [[max(i, j) for j in range(n)] for i in range(n)],
        [[min(i, j) for j in range(n)] for i in range(n)], name="L3")
    return _poset_out(congruences.congruence_lattice(pure), args, "fig6",
                      _blocks_label)


def _repro_fig7(args):
    return _poset_out(morphisms.si_poset(_si_algebras_up_to(4)), args, "fig7",
                      identify)


def _repro_fig8(args):
    seeds = [constructions.catalog("A3n"), constructions.catalog("B3d")]
    sis = morphisms.si_members(seeds).values()
    D = posets.downset_lattice(morphisms.si_poset(sis))
    return _poset_out(D, args, "fig8", _named_downset_label)


def _repro_fig9(args):
    D = posets.downset_lattice(morphisms.si_poset(_si_algebras_up_to(3)))
    return _poset_out(D, args, "fig9", _named_downset_label)


def _repro_counts(args):
    return {
        "size3": len(enumeration.enumerate_chain(3, "all")),
        "size4_total": len(enumeration.enumerate_chain(4, "all")),
        "size4_siNecessary": len(enumeration.enumerate_chain(4, "si-necessary")),
        "size5_siNecessary": len(enumeration.enumerate_chain(5, "si-necessary")),
    }


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


def _cmd_repro(args):
    if args.target not in _REPRO:
        raise UnknownTarget(f"unknown repro target {args.target!r}; "
                            f"valid: {', '.join(sorted(_REPRO))}")
    return _REPRO[args.target](args)


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="mvmlab",
        description="Finite-algebra workbench for MV-monoids and positive "
                    "MV-algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, dot=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        if dot:
            p.add_argument("--dot", action="store_true")
        return p

    p = command("axioms", _cmd_axioms, "check the MV-monoid axioms")
    p.add_argument("file")

    p = command("congruences", _cmd_congruences, "congruence lattice",
                dot=True)
    p.add_argument("file")

    p = command("construct", _cmd_construct, "build a named algebra")
    p.add_argument("name")
    p.add_argument("lmonoid", nargs="?",
                   help="l-monoid file (for gamma-lex)")
    p.add_argument("--n", type=int)
    p.add_argument("--out")

    p = command("enumerate", _cmd_enumerate, "enumerate chain MV-monoids")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--filter", choices=enumeration.FILTERS, default="all")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")

    p = command("check-eq", _cmd_check_eq, "check an equation on an algebra")
    p.add_argument("file")
    p.add_argument("--eq", required=True)

    p = command("phi", _cmd_phi, "check the Phi_n axiom set")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)

    p = command("sigma", _cmd_sigma, "check the Sigma_I axiom set")
    p.add_argument("file")
    p.add_argument("--set", required=True)

    p = command("member", _cmd_member, "variety membership for a divisor set")
    p.add_argument("file")
    p.add_argument("--set", required=True)

    p = command("classify", _cmd_classify, "divisor set of generated variety")
    p.add_argument("files", nargs="+")

    p = command("hsu", _cmd_hsu, "HSU closure as iso classes")
    p.add_argument("files", nargs="+")

    p = command("poset", _cmd_poset, "SI poset of the given algebras",
                dot=True)
    p.add_argument("files", nargs="+")

    p = command("downsets", _cmd_downsets, "downset lattice of a poset file",
                dot=True)
    p.add_argument("file")

    p = command("repro", _cmd_repro, "recompute a survey figure", dot=True)
    p.add_argument("target")
    p.add_argument("--depth", type=int)

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
            # Python's own default, whatever the process's filters: each
            # distinct warning prints its line once
            warnings.simplefilter("default")
            warnings.showwarning = _warning_line
            doc = args.fn(args)
        # DOT text as it is, any other document as JSON; nothing when the
        # command wrote its document to a file
        if doc is not None:
            out.write(doc if isinstance(doc, str) else _dump(doc) + "\n")
    except (MvmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
