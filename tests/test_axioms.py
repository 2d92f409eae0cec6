import functools
import tracemalloc

import pytest

from conftest import seeded_chain_tables

from mvmlab import (catalog, chain_algebra, cn_delta, cn_nabla,
                    enumerate_chain, is_good_pair, is_mv_monoid,
                    is_positive_mv, lm_delta, lm_nabla, ln_plus, product,
                    satisfies, si_necessary_condition, trivial_algebra)
from mvmlab.axioms import MV_MONOID_AXIOMS
from mvmlab.terms import _product_evaluator


def test_axiom_list_is_complete_and_named():
    names = [n for n, _ in MV_MONOID_AXIOMS]
    assert len(names) == 26 and len(set(names)) == 26
    for prefix, count in (("lat.", 12), ("mon.", 6), ("dist.", 4),
                          ("conn.", 4)):
        assert sum(n.startswith(prefix) for n in names) == count


def test_catalog_algebras_are_mv_monoids(catalog_algebras):
    for name, A in catalog_algebras.items():
        report = is_mv_monoid(A)
        assert report, f"{name}: {report}"
        assert report.failures == []
        assert report.as_dict() == {"passed": True, "failures": []}


def test_families_are_mv_monoids():
    for n in range(1, 7):
        for build in (ln_plus, cn_delta, cn_nabla, lm_delta, lm_nabla):
            assert is_mv_monoid(build(n))


def test_report_is_cached():
    A = ln_plus(3)
    assert is_mv_monoid(A) is is_mv_monoid(A)


def test_failure_report_names_axiom_and_witness():
    # oplus = join, odot idempotent on the middle element: breaks truncation
    bad = chain_algebra(4,
                        [[0, 1, 2, 3], [1, 1, 2, 3],
                         [2, 2, 2, 3], [3, 3, 3, 3]],
                        [[0, 0, 0, 0], [0, 0, 0, 1],
                         [0, 0, 2, 2], [0, 1, 2, 3]])
    report = is_mv_monoid(bad)
    assert not report
    assert [n for n, _ in report.failures] == ["conn.4"]
    name, witness = report.failures[0]
    # the witness assignment really breaks the named axiom
    eq = dict(MV_MONOID_AXIOMS)[name]
    res = satisfies(bad, eq)
    assert not res and res.witness_named() == witness


def test_one_pass_report_matches_the_per_axiom_checks():
    corpus = [A for n in range(1, 6) for A in enumerate_chain(n, "all")]
    corpus += seeded_chain_tables(300, 12)
    broken_monoid = 0
    for A in corpus:
        expected = [(n, satisfies(A, e).witness_named())
                    for n, e in MV_MONOID_AXIOMS if not satisfies(A, e)]
        assert is_mv_monoid(A).failures == expected, A
        broken_monoid += any(n.startswith("mon.") for n, _ in expected)
    assert broken_monoid > 200


def _peak_traced_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_pass_report_drops_columns_it_no_longer_reads():
    A = functools.reduce(product, [ln_plus(1)] * 5)  # 32^3 assignments

    def keep_every_column():
        column = _product_evaluator(A, 3)
        for _, e in MV_MONOID_AXIOMS:
            column(e.lhs), column(e.rhs)

    # at 59 nodes, holding every column costs over twice the live ones
    assert _peak_traced_bytes(lambda: is_mv_monoid(A)) < \
        _peak_traced_bytes(keep_every_column) / 2
    assert is_mv_monoid(A)


def test_non_monoid_fails_unit_axiom():
    bad = chain_algebra(2, [[1, 1], [1, 1]], [[0, 0], [0, 1]])
    failed = [n for n, _ in is_mv_monoid(bad).failures]
    assert "mon.oplus.unit" in failed


def test_positivity_verdicts():
    for n in range(1, 7):
        assert is_positive_mv(ln_plus(n))
    for n in range(2, 6):
        assert not is_positive_mv(cn_delta(n))
        assert not is_positive_mv(cn_nabla(n))
        assert not is_positive_mv(lm_delta(n))
        assert not is_positive_mv(lm_nabla(n))
    assert is_positive_mv(catalog("L2"))  # lattice cancellation
    assert is_positive_mv(trivial_algebra())
    for name in ("A3d", "A3n", "B3d", "B3n"):
        assert not is_positive_mv(catalog(name))


def test_si_necessary_condition():
    # chains where every pair has oplus = 1 or odot = 0
    for name in ("L1+", "L2+", "C2d", "C2n", "A3d", "A3n", "B3d", "B3n",
                 "C3d", "C3n", "LM3d", "LM3n"):
        assert si_necessary_condition(catalog(name)), name
    assert si_necessary_condition(catalog("L3+"))  # i+j<=3 => odot is 0
    assert not si_necessary_condition(catalog("L2"))  # b+b=b, b*b=b
    pure4 = chain_algebra(4, [[max(i, j) for j in range(4)] for i in range(4)],
                          [[min(i, j) for j in range(4)] for i in range(4)])
    assert not si_necessary_condition(pure4)
    assert not si_necessary_condition(trivial_algebra())


def test_si_necessary_condition_requires_total_order(diamond):
    assert not si_necessary_condition(diamond)


def test_good_pairs():
    A = cn_delta(2)  # 0 < e < 1; e + 1 = e is false; 1 + e = ... top
    # in C2d: x0=1(top absorbs +), so good pairs need oplus[x0][x1] = x0
    top, eps, zero = 2, 1, 0
    assert is_good_pair(A, top, zero)
    assert is_good_pair(A, top, eps)  # 1 + e = 1 and 1 * e = e
    assert not is_good_pair(A, eps, top)
    B = ln_plus(2)
    assert is_good_pair(B, B.one, B.zero)
    assert not is_good_pair(B, 1, 1)  # 1/2 + 1/2 = 1 != 1/2
