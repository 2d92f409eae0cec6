"""Named axiom suites: the defining equations of MV-monoids, positivity,
the necessary condition for subdirect irreducibility, and good pairs."""

from .algebra import _check_element
from .constructions import _si_indices
from .terms import _failures, parse

# Fixed ordered list with stable names so failure reports are diff-stable.
_AXIOM_TEXT = [
    ("lat.idem.1", "x v x ≈ x"),
    ("lat.idem.2", "x ^^ x ≈ x"),
    ("lat.comm.1", "x v y ≈ y v x"),
    ("lat.comm.2", "x ^^ y ≈ y ^^ x"),
    ("lat.assoc.1", "(x v y) v z ≈ x v (y v z)"),
    ("lat.assoc.2", "(x ^^ y) ^^ z ≈ x ^^ (y ^^ z)"),
    ("lat.absorb.1", "x v (x ^^ y) ≈ x"),
    ("lat.absorb.2", "x ^^ (x v y) ≈ x"),
    ("lat.dist.1", "x ^^ (y v z) ≈ (x ^^ y) v (x ^^ z)"),
    ("lat.dist.2", "x v (y ^^ z) ≈ (x v y) ^^ (x v z)"),
    ("lat.bound.0", "x v 0 ≈ x"),
    ("lat.bound.1", "x ^^ 1 ≈ x"),
    ("mon.oplus.comm", "x + y ≈ y + x"),
    ("mon.oplus.assoc", "(x + y) + z ≈ x + (y + z)"),
    ("mon.oplus.unit", "x + 0 ≈ x"),
    ("mon.odot.comm", "x * y ≈ y * x"),
    ("mon.odot.assoc", "(x * y) * z ≈ x * (y * z)"),
    ("mon.odot.unit", "x * 1 ≈ x"),
    ("dist.oplus.join", "x + (y v z) ≈ (x + y) v (x + z)"),
    ("dist.oplus.meet", "x + (y ^^ z) ≈ (x + y) ^^ (x + z)"),
    ("dist.odot.join", "x * (y v z) ≈ (x * y) v (x * z)"),
    ("dist.odot.meet", "x * (y ^^ z) ≈ (x * y) ^^ (x * z)"),
    ("conn.1", "(x + y) * ((x * y) + z) ≈ (x * (y + z)) + (y * z)"),
    ("conn.2", "(x * y) + ((x + y) * z) ≈ (x + (y * z)) * (y + z)"),
    ("conn.3", "(x * y) + z ≈ ((x + y) * ((x * y) + z)) v z"),
    ("conn.4", "(x + y) * z ≈ ((x * y) + ((x + y) * z)) ^^ z"),
]

MV_MONOID_AXIOMS = [(name, parse(text)) for name, text in _AXIOM_TEXT]
# `is_mv_monoid` checks only the 14 axioms after the lat.* laws: those hold
# in every FiniteAlgebra, proved once where `make_algebra` takes tables from
# outside and kept by products, subalgebras, quotients and order duals.
_CHECKED = {eq: name for name, eq in MV_MONOID_AXIOMS
            if not name.startswith("lat.")}


class AxiomReport:
    __slots__ = ("passed", "failures")

    def __init__(self, failures):
        self.failures = list(failures)  # (axiom name, witness assignment)
        self.passed = not self.failures

    def __bool__(self):
        return self.passed

    def __repr__(self):
        if self.passed:
            return "AxiomReport(passed)"
        return f"AxiomReport(failed: {[n for n, _ in self.failures]})"

    def as_dict(self):
        return {"passed": self.passed,
                "failures": [{"axiom": n, "witness": w}
                             for n, w in self.failures]}


def is_mv_monoid(A):
    """The `AxiomReport` of A against the 14 `mon.`, `dist.` and `conn.`
    laws; the `lat.*` laws are an invariant of every FiniteAlgebra.  It lists
    every failing law with its least witness, in the order of the axiom
    list, and is cached on A.  `conn.2` follows from `conn.1`, the four
    `comm`/`unit` laws and the two `dist.*.join` laws (see the lemma in
    `enumeration._pairs`), but is still checked, so that the report of a
    table that is not an MV-monoid names every law it fails."""
    cached = A._cache.get("mvm_report")
    if cached is not None:
        return cached
    report = AxiomReport(
        (_CHECKED[res.equation], res.witness_named())
        for res in _failures(A, _CHECKED))
    A._cache["mvm_report"] = report
    return report


def is_positive_mv(A):
    """Whether A is an MV-monoid satisfying CANCELLATIVITY: iff every SI
    quotient of A is some L_e+ (Jónsson's lemma one way, as a finite positive
    MV-algebra lies in some V(L_d+ : d in D); Birkhoff the other way).  The
    definition's scans are the tests' oracle; `enumerate_chain` reads
    cancellation off the columns of tables it proved MV-monoids already."""
    return _si_indices(A) is not None


def si_necessary_condition(A):
    """Nontrivial, totally ordered, and oplus(x,y)=1 or odot(x,y)=0 for all
    pairs."""
    return A.size > 1 and A.is_chain() and all(
        p == A.one or q == A.zero
        for ps, qs in zip(A.oplus, A.odot) for p, q in zip(ps, qs))


def is_good_pair(A, x0, x1):
    _check_element(x0, A.size, "x0")
    _check_element(x1, A.size, "x1")
    return A.oplus[x0][x1] == x0 and A.odot[x0][x1] == x1
