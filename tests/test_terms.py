import gc
import inspect
import itertools
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlab import (CANCELLATIVITY, Equation, QuasiEquation, catalog,
                    catalog_names, cn_delta, cn_nabla, enumerate_chain,
                    evaluate, ln_plus, parse, phi, satisfies, satisfies_all,
                    satisfies_quasi, terms, to_text)
from mvmlab.axioms import MV_MONOID_AXIOMS
from mvmlab.errors import (BadArgument, CapExceeded, MissingAssignment,
                           TableOutOfRange, TermSyntaxError)
from mvmlab.terms import (BinOp, Const, Var, _assignment, _blocks, _interned,
                          _tokenize, _widths, const, join, meet, odot, oplus,
                          power, scalar, var, variables)


# ---------------------------------------------------------------------------
# construction and interning

def test_terms_are_interned():
    assert var(0) is var(0)
    assert const("zero") is const("zero")
    assert oplus(var(0), var(1)) is oplus(var(0), var(1))
    assert oplus(var(0), var(1)) is not oplus(var(1), var(0))


def test_interned_terms_go_with_their_last_user():
    gc.collect()
    before = len(_interned)
    aset = phi(100)
    assert len(_interned) > before + 1000
    del aset
    gc.collect()
    assert len(_interned) == before


def test_scalar_and_power():
    x = var(0)
    assert scalar(0, x) is const("zero")
    assert scalar(1, x) is x
    assert to_text(scalar(3, x)) == "((x + x) + x)"
    assert power(x, 0) is const("one")
    assert to_text(power(x, 2)) == "(x * x)"


# ---------------------------------------------------------------------------
# parsing

def test_parse_terms():
    assert parse("x") is var(0)
    assert parse("y") is var(1)
    assert parse("x5") is var(5)
    assert parse("0") is const("zero")
    assert parse("1") is const("one")
    assert parse("x + y") is oplus(var(0), var(1))
    assert parse("3x") is scalar(3, var(0))
    assert parse("x^2") is power(var(0), 2)
    assert parse("2(x + y)") is scalar(2, oplus(var(0), var(1)))


def test_parse_precedence():
    # v < ^^ < + < * < scalar < power
    assert parse("x v y ^^ z") is parse("x v (y ^^ z)")
    assert parse("x ^^ y + z") is parse("x ^^ (y + z)")
    assert parse("x + y * z") is parse("x + (y * z)")
    assert parse("2x * y") is parse("(2x) * y")
    assert parse("2x^3") is parse("2(x^3)")
    # same-level operators associate to the left
    assert parse("x + y + z") is oplus(oplus(var(0), var(1)), var(2))


def test_parse_equation():
    e = parse("x + x ≈ x")
    assert isinstance(e, Equation)
    assert e.lhs is oplus(var(0), var(0)) and e.rhs is var(0)
    assert parse("4x ≈ 3x") == Equation(scalar(4, var(0)), scalar(3, var(0)))
    assert parse("x = y").lhs is var(0)  # plain '=' works too


def test_parse_quasi_equation():
    q = parse("x + z ≈ y + z & x * z ≈ y * z => x ≈ y")
    assert isinstance(q, QuasiEquation)
    assert len(q.premises) == 2
    assert q.conclusion.lhs is var(0) and q.conclusion.rhs is var(1)


def test_parse_rejects_garbage():
    for text in ["x ≈", "≈ x", "x +", "2", "x y", "x ≈ y ≈ z", "(x", "w"]:
        with pytest.raises(TermSyntaxError):
            parse(text)


def test_parse_takes_any_depth():
    x = var(0)
    assert parse("(" * 5000 + "x" + ")" * 5000) is x
    assert parse("(" * 2000 + "x" + ")" * 2000 + " ≈ x") == Equation(x, x)
    t = x
    for _ in range(2000):
        t = scalar(2, t)
    assert parse("2 " * 2000 + "x") is t
    deep = scalar(2000, x)
    assert parse(to_text(deep)) is deep


@pytest.mark.parametrize("text", ["200000x ≈ x", "x^200000 ≈ x",
                                  "99999999999x≈x", "10000 " * 20 + "x",
                                  "5000x ≈ 5001x", "x ≈ y => 9000x ≈ x^2000"])
def test_scalar_prefixes_and_exponents_are_capped(text):
    # the cap bounds the sum over one input, before any node is built
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"^the sum of scalar prefixes "
                       r"and exponents is \d+, above the cap 10000 "
                       r"\(MVMLAB_CAP_REPEAT\)$"):
        parse(text)
    assert time.perf_counter() - start < 0.1


def test_scalar_prefixes_and_exponents_under_the_cap(monkeypatch):
    x = var(0)
    assert parse("201x ≈ 200x") == Equation(scalar(201, x), scalar(200, x))
    assert parse("5000x ≈ x^5000") == Equation(scalar(5000, x), power(x, 5000))
    monkeypatch.setenv("MVMLAB_CAP_REPEAT", "3")
    assert parse("3x") is scalar(3, x)
    with pytest.raises(CapExceeded):
        parse("2(2x)")


def _parse_at_depth(depth, text):
    if depth:
        return _parse_at_depth(depth - 1, text)
    return parse(text)


def test_parse_does_not_depend_on_the_caller_depth():
    # called 900 frames deep with 30 frames left below the recursion limit
    text = "(" * 20 + "x + y" + ")" * 20 + " ≈ y + x"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 930)
    try:
        assert _parse_at_depth(900, text) == parse(text)
    finally:
        sys.setrecursionlimit(limit)


def test_constants_take_powers():
    # constants are atoms, so 1^2 reads as (1)^2 does
    assert parse("1^2") is power(const("one"), 2) is parse("(1)^2")
    assert parse("2 0^3 + x") is oplus(scalar(2, power(const("zero"), 3)),
                                       var(0))


def test_digits_are_decimal_digits():
    for text, position in [("x² ≈ x", 1), ("y²", 1), ("2²x", 1)]:
        with pytest.raises(TermSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == \
            f"unexpected character '²' (at position {position})"
    assert parse("٣x") is scalar(3, var(0))  # any decimal digit, as int reads


def test_syntax_error_reports_position():
    with pytest.raises(TermSyntaxError) as exc:
        parse("x + $")
    assert exc.value.position == 4


# ---------------------------------------------------------------------------
# independent oracle: the recursive-descent parser `parse` replaced, one
# method per precedence level, reading digits with str.isdigit

def _old_tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("=>", i):
            toks.append(("ARROW", "=>", i))
            i += 2
        elif c in "≈=":
            toks.append(("EQ", c, i))
            i += 1
        elif text.startswith("^^", i):
            toks.append(("MEET", "^^", i))
            i += 2
        elif c == "^":
            toks.append(("POW", "^", i))
            i += 1
        elif c in "+*&()":
            toks.append((c, c, i))
            i += 1
        elif c == "v":
            toks.append(("JOIN", "v", i))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", int(text[i:j]), i))
            i = j
        elif c in "xyz":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j > i + 1:
                if c != "x":
                    raise TermSyntaxError("indexed variables use x<digits>", i)
                toks.append(("VAR", int(text[i + 1:j]), i))
            else:
                toks.append(("VAR", "xyz".index(c), i))
            i = j
        else:
            raise TermSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("END", None, n))
    return toks


class _OldParser:
    def __init__(self, text):
        self.toks = _old_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        k, v, p = self.next()
        if k != kind:
            raise TermSyntaxError(f"expected {kind}, got {v!r}", p)
        return v

    def expr(self):
        t = self.meet_level()
        while self.peek()[0] == "JOIN":
            self.next()
            t = join(t, self.meet_level())
        return t

    def meet_level(self):
        t = self.sum_level()
        while self.peek()[0] == "MEET":
            self.next()
            t = meet(t, self.sum_level())
        return t

    def sum_level(self):
        t = self.prod_level()
        while self.peek()[0] == "+":
            self.next()
            t = oplus(t, self.prod_level())
        return t

    def prod_level(self):
        t = self.scalar_level()
        while self.peek()[0] == "*":
            self.next()
            t = odot(t, self.scalar_level())
        return t

    def _starts_atom(self):
        k, v, _ = self.peek()
        return k in ("VAR", "(", "INT")

    def scalar_level(self):
        k, v, p = self.peek()
        if k == "INT":
            self.next()
            if self._starts_atom():
                return scalar(v, self.scalar_level())
            if v == 0:
                return const("zero")
            if v == 1:
                return const("one")
            raise TermSyntaxError(f"bare integer {v} is not a term", p)
        return self.postfix()

    def postfix(self):
        t = self.atom()
        while self.peek()[0] == "POW":
            self.next()
            t = power(t, self.expect("INT"))
        return t

    def atom(self):
        k, v, p = self.next()
        if k == "VAR":
            return var(v)
        if k == "(":
            t = self.expr()
            self.expect(")")
            return t
        raise TermSyntaxError(f"unexpected token {v!r}", p)

    def equation(self):
        lhs = self.expr()
        self.expect("EQ")
        return Equation(lhs, self.expr())

    def input(self):
        kinds = {k for k, _, _ in self.toks}
        if "ARROW" in kinds:
            premises = [self.equation()]
            while self.peek()[0] == "&":
                self.next()
                premises.append(self.equation())
            self.expect("ARROW")
            conclusion = self.equation()
            self.expect("END")
            return QuasiEquation(premises, conclusion)
        if "EQ" in kinds:
            e = self.equation()
            self.expect("END")
            return e
        t = self.expr()
        self.expect("END")
        return t


def _parsed(parser, text):
    """What `parser` makes of `text`: the term, the sides of each equation,
    or the syntax error's message."""
    try:
        out = parser(text)
    except TermSyntaxError as exc:
        return str(exc)
    if isinstance(out, QuasiEquation):
        return [(e.lhs, e.rhs) for e in (*out.premises, out.conclusion)]
    if isinstance(out, Equation):
        return (out.lhs, out.rhs)
    return out


def _newly_accepted(text):
    """The documented differences: a digit that int cannot read (a traceback
    or another message before), and a power of a constant (an error before)."""
    if any(c.isdigit() and not c.isdecimal() for c in text):
        return True
    try:
        kinds = [(k, v) for k, v, _ in _tokenize(text)]
    except TermSyntaxError:
        return False
    return any(k == "INT" and v in (0, 1) and nxt == "POW"
               for (k, v), (nxt, _) in zip(kinds, kinds[1:]))


def _glued(fragments):
    # a space between two digits keeps every integer small: a scalar prefix k
    # builds k nodes, and "10" "10" "10" would read as 101010
    out = ""
    for f in fragments:
        out += " " + f if out[-1:].isdigit() and f[:1].isdigit() else f
    return out


_FRAGMENTS = ["x", "y", "z", "x3", "y2", "0", "1", "2", "3", "10", "+", "*",
              "v", "^^", "^", "(", ")", "≈", "=", "=>", "&", " ", "$", "²",
              "٣"]
_atom_text = st.sampled_from(["x", "y", "z", "x3", "0", "1", "(x)"])
_term_text = st.recursive(_atom_text, lambda sub: (
    st.tuples(sub, st.sampled_from([" v ", " ^^ ", " + ", " * ", "+", "*"]),
              sub).map("".join)
    | st.tuples(st.sampled_from(["2", "3 ", "0", "1 "]), sub).map(_glued)
    | sub.map(lambda t: f"({t})")
    | st.tuples(sub, st.sampled_from(["^2", "^0", " ^ 3"])).map("".join)),
    max_leaves=10)
_equation_text = st.tuples(_term_text, st.sampled_from([" ≈ ", "="]),
                           _term_text).map("".join)
_input_text = st.one_of(
    _term_text, _equation_text,
    st.lists(_equation_text, min_size=1, max_size=3).map(" & ".join).flatmap(
        lambda pre: _equation_text.map(lambda c: f"{pre} => {c}")))


def _mutated(text, at, insert):
    at %= len(text) + 1
    return text[:at] + insert + text[at + (insert == ""):]


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map(_glued),
    _input_text,
    st.builds(_mutated, _input_text, st.integers(0, 200),
              st.sampled_from(["", "(", ")", "+", "≈", "2", "&", "=>"]))))
def test_parse_agrees_with_the_recursive_descent(text):
    new = _parsed(parse, text)  # a typed error at worst, never a traceback
    if not _newly_accepted(text):
        assert new == _parsed(lambda t: _OldParser(t).input(), text)


_term_strategy = st.recursive(
    st.sampled_from([var(0), var(1), var(2), const("zero"), const("one")]),
    lambda sub: st.builds(
        lambda op, l, r: {"+": oplus, "*": odot}.get(op, oplus)(l, r),
        st.sampled_from(["+", "*"]), sub, sub)
    | st.builds(lambda l, r: parse(f"({to_text(l)}) v ({to_text(r)})"),
                sub, sub),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_term_strategy)
def test_print_parse_round_trip(t):
    assert parse(to_text(t)) is t


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_basics():
    A = ln_plus(2)
    assert evaluate(parse("x + y"), A, {"x": 1, "y": 1}) == 2
    assert evaluate(parse("x * y"), A, {"x": 1, "y": 1}) == 0
    assert evaluate(parse("x v 0"), A, {"x": 1}) == 1
    assert evaluate(parse("1 ^^ x"), A, {0: 1}) == 1
    assert evaluate(parse("0"), A) == 0


def test_evaluate_missing_assignment():
    with pytest.raises(MissingAssignment):
        evaluate(parse("x + y"), ln_plus(2), {"x": 1})
    with pytest.raises(MissingAssignment):
        evaluate(parse("x"), ln_plus(2), {"q": 1})


@pytest.mark.parametrize("text, env, message", [
    # -1 used to read the last row: x + 0 gave 2
    ("x + 0", {"x": -1}, "x = -1 outside 0..2"),
    # 7 used to come back as the value of x
    ("x", {"x": 7}, "x = 7 outside 0..2"),
    ("x + x", {"x": 7}, "x = 7 outside 0..2"),
    ("x * y", {"x": 1, "y": True}, "y = True outside 0..2"),
    ("x3 v x", {"x": 0, "x3": 3}, "x3 = 3 outside 0..2"),
    ("x3", {3: "1"}, "x3 = '1' outside 0..2"),
])
def test_evaluate_rejects_values_that_are_not_elements(text, env, message):
    with pytest.raises(TableOutOfRange, match=f"^{re.escape(message)}$"):
        evaluate(parse(text), ln_plus(2), env)


def test_evaluate_reads_x_digit_names():
    assert evaluate(parse("x3 + x"), ln_plus(2), {"x3": 1, "x": 1}) == 2
    assert evaluate(parse("x3"), ln_plus(2), {"x3": 0}) == 0


def test_variables_and_dag_sharing():
    assert variables(parse("x + (y * x3)")) == {0, 1, 3}
    # deep shared ladder: linear-time only if the DAG is walked as a DAG
    t = var(0)
    for _ in range(200):
        t = oplus(odot(t, t), var(1))
    assert variables(t) == {0, 1}


# ---------------------------------------------------------------------------
# satisfaction

def test_satisfies_reports_least_witness():
    res = satisfies(cn_delta(3), parse("x + x ≈ x"))
    assert not res
    assert res.witness == (1,)  # epsilon + epsilon = 2 epsilon
    assert res.witness_named() == {"x": 1}


def test_satisfies_passes():
    res = satisfies(ln_plus(3), parse("x + y ≈ y + x"))
    assert res and res.witness is None


def test_satisfies_all_matches_individual_checks():
    eqs = [parse("x + x ≈ x"), parse("x v y ≈ y v x"), parse("x * x ≈ x")]
    for A in (ln_plus(2), cn_delta(3), catalog("L2")):
        combined = satisfies_all(A, eqs)
        singles = [satisfies(A, e) for e in eqs]
        assert bool(combined) == all(singles)
        if not combined:
            first_bad = next(i for i, r in enumerate(singles) if not r)
            assert combined.equation is eqs[first_bad]
            assert combined.witness == singles[first_bad].witness


def test_satisfies_takes_any_iterable_of_equations():
    eqs = [parse("x + x ≈ x"), parse("x v y ≈ y v x"), parse("x * x ≈ x")]
    for A in (ln_plus(2), cn_delta(3), cn_nabla(3), catalog("L2")):
        expected = _outcome(satisfies_all(A, eqs))
        for arg in (eqs, tuple(eqs), iter(eqs), (e for e in eqs)):
            assert _outcome(satisfies(A, arg)) == expected
        assert _outcome(satisfies(A, eqs[:2])) == \
            _outcome(satisfies_all(A, eqs[:2]))
    assert satisfies(cn_delta(3), [])
    q = CANCELLATIVITY
    assert _outcome(satisfies(cn_delta(2), q)) == \
        _outcome(satisfies_quasi(cn_delta(2), q))


@pytest.mark.parametrize("bad", [
    parse("x + y"), [parse("x + y")], [CANCELLATIVITY],
    [parse("x ≈ x"), CANCELLATIVITY], "x ≈ x", 3, None,
    QuasiEquation([CANCELLATIVITY], parse("x ≈ x"))])
def test_satisfies_rejects_what_is_not_an_equation(bad):
    for check in (satisfies, satisfies_all, satisfies_quasi):
        with pytest.raises(BadArgument):
            check(ln_plus(2), bad)


def test_cancellativity_quasi_equation():
    assert satisfies_quasi(ln_plus(4), CANCELLATIVITY)
    res = satisfies_quasi(cn_delta(2), CANCELLATIVITY)
    assert not res
    # epsilon + epsilon = epsilon and 0 * epsilon = epsilon * epsilon = 0
    assert res.witness == (0, 1, 1)


def test_quasi_equation_without_variables():
    zero, one = const("zero"), const("one")
    false = QuasiEquation([Equation(zero, zero)], Equation(zero, one))
    vacuous = QuasiEquation([Equation(zero, one)], Equation(zero, one))
    res = satisfies_quasi(ln_plus(2), false)
    assert not res and res.witness == () and res.equation is false.conclusion
    assert satisfies_quasi(ln_plus(2), vacuous)
    assert satisfies_quasi(catalog("trivial"), false)


def test_quasi_equation_with_premise_only_variables():
    # z and x3 occur only in the premises, yet belong to the witness
    q = parse("x * y ≈ z & x3 ≈ 1 => x ≈ x * x")
    for name in ("L2+", "C2d", "C3n", "L2"):
        A = catalog(name)
        assert _outcome(satisfies_quasi(A, q)) == \
            _ref_outcome(A, q.premises, q.conclusion)
    res = satisfies_quasi(catalog("L2+"), q)
    assert not res and res.witness == (1, 0, 0, 2)


def test_quasi_check_stops_at_the_first_failing_block(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return evaluator(*args)

    evaluator = terms._evaluator
    monkeypatch.setattr(terms, "_evaluator", counting)
    assert not satisfies_quasi(cn_delta(2), CANCELLATIVITY)
    assert len(built) == 1  # the witness (0, 1, 1) lies in the block x = 0
    built.clear()
    assert satisfies_quasi(ln_plus(4), CANCELLATIVITY)
    assert len(built) == 5  # a passing check reads every block


class _TableReads:
    """An algebra that counts the operation-table reads made on it: one per
    binary node a check evaluates."""

    def __init__(self, A):
        self.A, self.reads = A, 0

    def __getattr__(self, name):
        self.reads += name in ("oplus", "odot", "join", "meet")
        return getattr(self.A, name)


def _binary_nodes(equations):
    roots = [t for e in equations for t in (e.lhs, e.rhs)]
    return sum(isinstance(t, BinOp) for t in _widths(roots))


def test_satisfies_all_evaluates_only_up_to_the_first_failure():
    P = phi(4)
    first = P.equations[0]
    A = _TableReads(ln_plus(5))
    res = satisfies_all(A, P)
    assert not res and res.equation is first
    assert A.reads == _binary_nodes([first]) < _binary_nodes(P)


def test_deep_terms_need_no_recursion():
    A = ln_plus(2)
    x = var(0)
    deep = scalar(3000, x)
    assert variables(deep) == {0}
    assert evaluate(deep, A, {"x": 1}) == 2
    assert satisfies(A, Equation(deep, scalar(2, x)))
    res = satisfies(A, Equation(deep, x))
    assert not res and res.witness == (1,)
    text = str(res.equation)
    assert text.startswith("(" * 2999 + "x + x)") and text.endswith(" ≈ x")
    assert res.equation.lhs is deep


# ---------------------------------------------------------------------------
# independent oracle: recursive evaluation, one assignment at a time

def _ref_eval(t, A, env):
    if isinstance(t, Var):
        return env[t.index]
    if isinstance(t, Const):
        return A.zero if t.which == "zero" else A.one
    return getattr(A, t.op)[_ref_eval(t.left, A, env)][
        _ref_eval(t.right, A, env)]


def _ref_width(t):
    if isinstance(t, Var):
        return t.index + 1
    if isinstance(t, Const):
        return 0
    return max(_ref_width(t.left), _ref_width(t.right))


def _ref_outcome(A, premises, e):
    """(passed, witness, equation) by brute force over assignments in
    lexicographic order: e must hold wherever every premise holds."""
    terms = [t for p in (*premises, e) for t in (p.lhs, p.rhs)]
    nv = max(_ref_width(t) for t in terms)
    for env in itertools.product(range(A.size), repeat=nv):
        if all(_ref_eval(p.lhs, A, env) == _ref_eval(p.rhs, A, env)
               for p in premises) and \
                _ref_eval(e.lhs, A, env) != _ref_eval(e.rhs, A, env):
            return (False, env, e)
    return (True, None, None)


def _ref_outcome_all(A, equations):
    for e in equations:
        out = _ref_outcome(A, [], e)
        if not out[0]:
            return out
    return (True, None, None)


def _outcome(res):
    return (res.passed, res.witness, res.equation)


_ALGEBRA_NAMES = st.sampled_from(["L1+", "L2+", "L3+", "C2d", "C3n", "L2",
                                  "trivial"])
_wide_term_strategy = st.recursive(
    st.sampled_from([var(0), var(1), var(2), var(3), const("zero"),
                     const("one")]),
    lambda sub: st.builds(lambda op, l, r: op(l, r),
                          st.sampled_from([oplus, odot, join, meet]),
                          sub, sub),
    max_leaves=8)
# random equations mostly fail; axioms and t ≈ t mix in ones that hold
_equation_strategy = st.one_of(
    st.builds(Equation, _wide_term_strategy, _wide_term_strategy),
    st.builds(lambda t: Equation(t, t), _wide_term_strategy),
    st.sampled_from([e for _, e in MV_MONOID_AXIOMS]))


@settings(max_examples=60, deadline=None)
@given(_ALGEBRA_NAMES, _term_strategy, _term_strategy)
def test_satisfies_agrees_with_exhaustive_evaluation(name, lhs, rhs):
    A = catalog(name)
    e = Equation(lhs, rhs)
    assert _outcome(satisfies(A, e)) == _ref_outcome(A, [], e)


@settings(max_examples=80, deadline=None)
@given(_ALGEBRA_NAMES, st.lists(_equation_strategy, min_size=1, max_size=4))
def test_satisfies_all_agrees_with_exhaustive_evaluation(name, equations):
    A = catalog(name)
    assert _outcome(satisfies_all(A, equations)) == \
        _ref_outcome_all(A, equations)


@settings(max_examples=80, deadline=None)
@given(_ALGEBRA_NAMES, st.lists(_equation_strategy, max_size=3),
       _equation_strategy)
def test_satisfies_quasi_agrees_with_exhaustive_evaluation(name, premises,
                                                           conclusion):
    A = catalog(name)
    q = QuasiEquation(premises, conclusion)
    assert _outcome(satisfies_quasi(A, q)) == _outcome(satisfies(A, q)) == \
        _ref_outcome(A, premises, conclusion)


def _full_column_outcome(A, q):
    # every column over all assignments at once, then the first failure
    roots = [t for e in (*q.premises, q.conclusion) for t in (e.lhs, e.rhs)]
    width = _widths(roots)
    nv = max(width[t] for t in roots)
    _, _, column = next(_blocks(A, nv, False))
    ok = [all(column(e.lhs)[i] == column(e.rhs)[i] for e in q.premises)
          for i in range(A.size ** nv)]
    c = q.conclusion
    bad = [m and l != r for m, l, r in zip(ok, column(c.lhs), column(c.rhs))]
    if True not in bad:
        return (True, None, None)
    return (False, _assignment(bad, A.size, nv), c)


_QUASI = [CANCELLATIVITY,
          parse("x + y ≈ 1 & x * y ≈ 0 => x ≈ y"),
          parse("x + x ≈ x => x * x ≈ x"),
          QuasiEquation([Equation(const("zero"), const("zero"))],
                        Equation(const("zero"), const("one")))]


def test_satisfies_quasi_stops_with_the_full_column_witness():
    algebras = [catalog(name) for name in catalog_names()]
    algebras += [A for n in range(1, 6) for A in enumerate_chain(n, "all")]
    for A in algebras:
        for q in _QUASI:
            assert _outcome(satisfies_quasi(A, q)) == \
                _full_column_outcome(A, q), (A.name, str(q))
