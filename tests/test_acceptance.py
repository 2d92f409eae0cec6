"""End-to-end acceptance gate: each test covers one release criterion and
emits a single PASS line (pytest -v shows one verdict line per criterion)."""

import io
import json
import time

from mvmlab import (are_isomorphic, canonical_key, catalog, cli, cn_delta,
                    cn_nabla, congruence_lattice, enumerate_chain,
                    enumerate_on_lattice, evaluate, gamma_of_lex, hs_closure,
                    is_mv_monoid, is_positive_mv, is_simple,
                    is_subdirectly_irreducible, lm_delta, lm_nabla, ln_plus,
                    parse, phi, product, satisfies, satisfies_quasi, sigma,
                    si_necessary_condition, tau, trivial_algebra)
from mvmlab.posets import Poset
from mvmlab.terms import CANCELLATIVITY
from mvmlab.varieties import (DivisorClosedSet, divisor_closed_sets,
                              classify_variety, member_of_variety)
from mvmlab.constructions import (cn_delta_star, cn_nabla_star, lm_delta_star,
                                  lm_nabla_star, trivial_lmonoid)
from mvmlab.cli import identify

from conftest import poset_is_chain, posets_isomorphic


def _report(n, label):
    print(f"criterion {n} ({label}): PASS")


def _repro(target):
    buf = io.StringIO()
    assert cli.run(["repro", target], buf) == 0
    return json.loads(buf.getvalue())


def test_criterion_1_catalog_counts():
    t0 = time.time()
    assert len(enumerate_chain(3, "all")) == 4
    assert len(enumerate_chain(4, "all")) == 19
    assert len(enumerate_chain(4, "si-necessary")) == 9
    assert len(enumerate_chain(5, "si-necessary")) == 35
    assert time.time() - t0 < 10
    _report(1, "catalog counts")


# Hasse diagram of the SI poset up to size 4, as published
_SI_POSET_EDGES = [
    ("L1+", "C2d"), ("L1+", "L2+"), ("L1+", "C2n"), ("L1+", "L3+"),
    ("C2d", "C3d"), ("C2d", "B3d"), ("C2d", "A3d"), ("C2d", "A3n"),
    ("L2+", "B3d"), ("L2+", "B3n"),
    ("C2n", "C3n"), ("C2n", "A3n"), ("C2n", "A3d"), ("C2n", "B3n"),
]


def test_criterion_2_figure_reproduction():
    t0 = time.time()
    doc = _repro("fig7")
    assert len(doc["nodes"]) == 11
    assert sorted(doc["covers"]) == sorted(list(e) for e in _SI_POSET_EDGES)
    # bottom, the three size-3 chains one level up, size-4 algebras maximal
    P = Poset(doc["nodes"], [tuple(p) for p in doc["covers"]])
    assert P.minimal() == ["L1+"]
    for name in ("L2+", "C2d", "C2n"):
        assert P.height(name) == 1
    for name in ("A3d", "A3n", "B3d", "B3n", "C3d", "C3n", "L3+"):
        assert name in P.maximal()
    expected = Poset(sorted({n for e in _SI_POSET_EDGES for n in e}),
                     _SI_POSET_EDGES)
    assert posets_isomorphic(P, expected)
    assert len(_repro("fig9")["nodes"]) == 9
    fig6 = _repro("fig6")
    assert len(fig6["nodes"]) == 8 and len(fig6["covers"]) == 12
    assert time.time() - t0 < 30
    _report(2, "figure reproduction")


def test_criterion_3_congruence_structure():
    for n in range(1, 6):
        assert poset_is_chain(congruence_lattice(cn_delta(n)))
        assert len(congruence_lattice(cn_delta(n))) == n + 1
        assert poset_is_chain(congruence_lattice(cn_nabla(n)))
        assert len(congruence_lattice(cn_nabla(n))) == n + 1
    A = catalog("A3n")
    lat = congruence_lattice(A)
    assert len(lat) == 4 and poset_is_chain(lat)
    si, m = is_subdirectly_irreducible(A)
    assert si and m.blocks() == [(0, 1), (2,), (3,)]  # collapses {0, b}
    latB = congruence_lattice(catalog("B3d"))
    assert len(latB) == 3 and poset_is_chain(latB)
    for n in range(3, 6):
        assert not is_subdirectly_irreducible(lm_delta(n))[0]
        assert not is_subdirectly_irreducible(lm_nabla(n))[0]
    for n in range(1, 9):
        assert is_simple(ln_plus(n))
    _report(3, "congruence structure")


def test_criterion_4_divisor_law_and_tau_oracle():
    for m in range(1, 9):
        for n in range(1, 9):
            assert bool(satisfies(ln_plus(m), phi(n))) == (n % m == 0), (m, n)
    mismatches = 0
    for m in range(1, 7):
        A = ln_plus(m)
        for n in range(0, 7):
            for k in range(-1, n + 1):
                t = tau(n, k)
                for i in range(m + 1):
                    want = min(max(n * i - k * m, 0), m)
                    if evaluate(t, A, {0: i}) != want:
                        mismatches += 1
    assert mismatches == 0
    _report(4, "divisor law sweep and tau oracle")


def test_criterion_5_sigma_laws():
    for m in range(1, 9):
        eq = parse(f"{m + 1}x ≈ {m}x")
        for n in range(1, 9):
            assert bool(satisfies(ln_plus(n), eq)) == (n <= m), (m, n)
    for m in range(1, 7):
        for n in range(1, m + 1):
            for k in range(1, m + 1):
                eq = parse(f"{m}(({k - 1}x)^{k}) ≈ ({k}x)^{m}")
                assert bool(satisfies(ln_plus(n), eq)) == (n % k != 0), \
                    (m, n, k)
    # worked axiom sets, symbol for symbol
    assert sigma({1, 2, 3}).equations == [parse("4x ≈ 3x")]
    assert sigma({1, 2, 3, 6}).equations == [parse("7x ≈ 6x"),
                                             parse("6(3x)^4 ≈ (4x)^6"),
                                             parse("6(4x)^5 ≈ (5x)^6")]
    _report(5, "threshold and non-divisor laws")


def test_criterion_6_main_axiomatization():
    t0 = time.time()
    sis = [A for n in range(2, 8) for A in enumerate_chain(n, "si")]
    ln_keys = {canonical_key(ln_plus(n)): n for n in range(1, 7)}
    for I in divisor_closed_sets(6):
        members = set(I)
        for A in sis:
            want = ln_keys.get(canonical_key(A)) in members
            assert member_of_variety(A, I) == want, (I, A)
    assert time.time() - t0 < 120
    _report(6, "equational membership matches the generated variety")


def test_criterion_7_classification_round_trip():
    for I in divisor_closed_sets(6):
        assert classify_variety([ln_plus(n) for n in I]) == I
    assert classify_variety([ln_plus(6)]) == DivisorClosedSet({1, 2, 3, 6})
    _report(7, "classification round trip")


def test_criterion_8_hsu_displays():
    expected = {
        "A3n": {"trivial", "L1+", "C2d", "C2n", "A3n"},
        "A3d": {"trivial", "L1+", "C2d", "C2n", "A3d"},
        "B3d": {"trivial", "L1+", "L2+", "C2d", "B3d"},
        "B3n": {"trivial", "L1+", "L2+", "C2n", "B3n"},
    }
    for name, want in expected.items():
        got = {identify(A) for A in hs_closure([catalog(name)]).values()}
        assert got == want, name
    _report(8, "HSU closure displays")


def test_criterion_9_property_gates(catalog_algebras, diamond):
    # every construction output is an MV-monoid
    for A in catalog_algebras.values():
        assert is_mv_monoid(A)
    for n in range(1, 6):
        for build in (ln_plus, cn_delta, cn_nabla, lm_delta, lm_nabla):
            assert is_mv_monoid(build(n))
    assert is_mv_monoid(product(ln_plus(2), cn_delta(2)))
    # gamma-of-lex agrees with the direct tables
    for n in range(1, 6):
        assert are_isomorphic(gamma_of_lex(cn_delta_star(n)), cn_delta(n))
        assert are_isomorphic(gamma_of_lex(cn_nabla_star(n)), cn_nabla(n))
        assert are_isomorphic(gamma_of_lex(lm_delta_star(n)), lm_delta(n))
        assert are_isomorphic(gamma_of_lex(lm_nabla_star(n)), lm_nabla(n))
    assert are_isomorphic(gamma_of_lex(trivial_lmonoid()), ln_plus(1))
    # positivity verdicts
    for n in range(1, 7):
        assert is_positive_mv(ln_plus(n))
    for n in range(2, 6):
        for build in (cn_delta, cn_nabla, lm_delta, lm_nabla):
            assert not satisfies_quasi(build(n), CANCELLATIVITY)
    # SI implies the necessary shape; the converse fails for lm_delta(3)
    for n in range(2, 6):
        for A in enumerate_chain(n, "si"):
            assert si_necessary_condition(A)
    assert si_necessary_condition(lm_delta(3))
    assert not is_subdirectly_irreducible(lm_delta(3))[0]
    # finite positive SI algebras are exactly the truncated chains
    for size in range(2, 7):
        target = canonical_key(ln_plus(size - 1))
        for A in enumerate_chain(size, "positive"):
            assert (is_subdirectly_irreducible(A)[0]
                    == (canonical_key(A) == target))
    assert enumerate_on_lattice(diamond, "si") == []
    _report(9, "property gates")
