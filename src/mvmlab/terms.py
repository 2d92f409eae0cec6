"""Term language over the signature (+ = oplus, * = odot, v = join, ^^ = meet),
parser, evaluator and (quasi-)equation satisfaction in finite algebras.

Term nodes are interned (hash-consed): structurally equal terms are the same
object, so a generated term is a DAG that shares its subterms.  Every walk
over a term uses an explicit stack, so depth is bounded by memory, not by the
interpreter's recursion limit.  A check evaluates each DAG node at most once
per call, as a column of its values over all assignments in
`itertools.product` order, with C-level `map`s over the operation tables; the
first index where two columns differ decodes to the lexicographically least
failing assignment.  A quasi-equation is checked in blocks, one per value of
the first variable, so each node is evaluated once per block.
"""

import weakref
from operator import and_, eq, getitem, ne

from .errors import BadArgument, MissingAssignment, TermSyntaxError


class Term:
    __slots__ = ("__weakref__",)

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"<term {to_text(self)}>"


class Var(Term):
    __slots__ = ("index",)


class Const(Term):
    __slots__ = ("which",)  # "zero" | "one"


class BinOp(Term):
    __slots__ = ("op", "left", "right")  # op: oplus | odot | join | meet


# held weakly: an entry goes when its term does, and the ids in a key stay
# valid as long as the term lives, since a term holds its children
_interned = weakref.WeakValueDictionary()


def _intern(key, build):
    t = _interned.get(key)
    if t is None:
        t = build()
        _interned[key] = t
    return t


def var(i):
    def build():
        t = Var()
        t.index = i
        return t
    return _intern(("var", i), build)


def const(which):
    def build():
        t = Const()
        t.which = which
        return t
    return _intern(("const", which), build)


def binop(op, left, right):
    def build():
        t = BinOp()
        t.op, t.left, t.right = op, left, right
        return t
    return _intern((op, id(left), id(right)), build)


def oplus(l, r):
    return binop("oplus", l, r)


def odot(l, r):
    return binop("odot", l, r)


def join(l, r):
    return binop("join", l, r)


def meet(l, r):
    return binop("meet", l, r)


def scalar(k, t):
    """k t = t + ... + t (left-nested); 0 t is the constant zero."""
    if k == 0:
        return const("zero")
    out = t
    for _ in range(k - 1):
        out = oplus(out, t)
    return out


def power(t, k):
    """t^k = t * ... * t (left-nested); t^0 is the constant one."""
    if k == 0:
        return const("one")
    out = t
    for _ in range(k - 1):
        out = odot(out, t)
    return out


class Equation:
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs, self.rhs = lhs, rhs

    def __eq__(self, other):
        return (isinstance(other, Equation)
                and self.lhs is other.lhs and self.rhs is other.rhs)

    def __hash__(self):
        return hash((id(self.lhs), id(self.rhs)))

    def __str__(self):
        return f"{to_text(self.lhs)} ≈ {to_text(self.rhs)}"

    def __repr__(self):
        return f"<eq {self}>"


class QuasiEquation:
    __slots__ = ("premises", "conclusion")

    def __init__(self, premises, conclusion):
        self.premises = tuple(premises)
        self.conclusion = conclusion

    def __str__(self):
        pre = " & ".join(str(e) for e in self.premises)
        return f"{pre} => {self.conclusion}"


# ---------------------------------------------------------------------------
# printing

_OP_SYMBOL = {"oplus": "+", "odot": "*", "join": "v", "meet": "^^"}


def var_name(i):
    return {0: "x", 1: "y", 2: "z"}.get(i, f"x{i}")


def to_text(t):
    # the text spells out the tree, so shared nodes are printed each time
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, Var):
            out.append(var_name(u.index))
        elif isinstance(u, Const):
            out.append("0" if u.which == "zero" else "1")
        else:
            out.append("(")
            stack += (")", u.right, f" {_OP_SYMBOL[u.op]} ", u.left)
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing

_VARS = {"x": 0, "y": 1, "z": 2}


def _tokenize(text):
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
        elif c in _VARS:
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j > i + 1:
                if c != "x":
                    raise TermSyntaxError(f"indexed variables use x<digits>", i)
                toks.append(("VAR", int(text[i + 1:j]), i))
            else:
                toks.append(("VAR", _VARS[c], i))
            i = j
        else:
            raise TermSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("END", None, n))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
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


def parse(text):
    """Parse a term, an equation, or a quasi-equation (`eq & eq => eq`)."""
    p = _Parser(text)
    try:
        return p.input()
    except RecursionError:
        # the descent recurses once per level of brackets or scalar prefixes
        raise TermSyntaxError("term is nested too deeply",
                              p.peek()[2]) from None


# ---------------------------------------------------------------------------
# evaluation and satisfaction

def _postorder(roots, done, visit):
    """Set done[t] = visit(t) for every node t under `roots` that is not yet
    in `done`, children before parents.  The walk uses an explicit stack and
    stops at nodes already in `done`, so each node is visited once."""
    stack = list(roots)
    while stack:
        t = stack[-1]
        if t in done:
            stack.pop()
        elif (isinstance(t, BinOp)
              and not (t.left in done and t.right in done)):
            stack += (t.left, t.right)
        else:
            done[t] = visit(t)
            stack.pop()


def _widths(roots):
    """Variable width of every node under `roots`: index + 1 for a variable,
    0 for a constant, the larger child width for a binary node."""
    width = {}

    def visit(t):
        if isinstance(t, BinOp):
            return max(width[t.left], width[t.right])
        return t.index + 1 if isinstance(t, Var) else 0

    _postorder(roots, width, visit)
    return width


def variables(t):
    return {u.index for u in _widths([t]) if isinstance(u, Var)}


def _normalize_env(env):
    out = {}
    for k, v in (env or {}).items():
        if isinstance(k, str):
            if k in _VARS:
                k = _VARS[k]
            elif k.startswith("x") and k[1:].isdigit():
                k = int(k[1:])
            else:
                raise MissingAssignment(f"unknown variable name {k!r}")
        out[k] = v
    return out


def _evaluator(A, size, var_column):
    """column(t): the values of t in A over `size` assignments, where
    var_column(i) gives those of variable i.  Columns are kept for the
    evaluator's lifetime, so each node is evaluated once, when first needed."""
    cols = {}

    def visit(t):
        if isinstance(t, BinOp):
            table = getattr(A, t.op)
            return list(map(getitem, map(table.__getitem__, cols[t.left]),
                            cols[t.right]))
        if isinstance(t, Var):
            return var_column(t.index)
        return [A.zero if t.which == "zero" else A.one] * size

    def column(t):
        _postorder((t,), cols, visit)
        return cols[t]

    return column


def _product_column(n, nv, i):
    # variable i over itertools.product(range(n), repeat=nv): each value
    # repeated n**(nv-1-i) times, that block tiled n**i times
    return [v for v in range(n) for _ in range(n ** (nv - 1 - i))] * n ** i


def _product_evaluator(A, nv):
    return _evaluator(A, A.size ** nv,
                      lambda i: _product_column(A.size, nv, i))


def _assignment(mask, n, nv):
    """The assignment at the first true index of `mask`, in product order."""
    idx = mask.index(True)
    digits = []
    for _ in range(nv):
        idx, d = divmod(idx, n)
        digits.append(d)
    return tuple(reversed(digits))


def evaluate(t, A, env=None):
    env = _normalize_env(env)

    def var_column(i):
        try:
            return [env[i]]
        except KeyError:
            raise MissingAssignment(f"no value for {var_name(i)}") from None

    return _evaluator(A, 1, var_column)(t)[0]


class CheckResult:
    """Truthy iff the (quasi-)equation holds; otherwise carries the
    lexicographically least failing assignment (and the failing equation for
    axiom sets)."""

    __slots__ = ("passed", "witness", "equation")

    def __init__(self, passed, witness=None, equation=None):
        self.passed = passed
        self.witness = witness
        self.equation = equation

    def __bool__(self):
        return self.passed

    def __repr__(self):
        if self.passed:
            return "CheckResult(passed)"
        return f"CheckResult(failed, witness={self.witness}, eq={self.equation})"

    def witness_named(self):
        if self.witness is None:
            return None
        return {var_name(i): v for i, v in enumerate(self.witness)}


def _failures(A, equations):
    """Each failing equation of an iterable (or of a single equation), in
    order, as a failed CheckResult with its least failing assignment.
    Equations with the same variable count share one column per node, and
    evaluation goes only as far as the caller reads."""
    equations = (list(equations) if hasattr(equations, "__iter__")
                 else [equations])
    for e in equations:
        if not isinstance(e, Equation):
            raise BadArgument("expected an equation, a quasi-equation or a "
                              f"list of equations, got {type(e).__name__}")
    width = _widths([t for e in equations for t in (e.lhs, e.rhs)])
    evaluators = {}
    for e in equations:
        nv = max(width[e.lhs], width[e.rhs])
        column = evaluators.get(nv)
        if column is None:
            column = evaluators[nv] = _product_evaluator(A, nv)
        lhs, rhs = column(e.lhs), column(e.rhs)
        if lhs != rhs:
            witness = _assignment(list(map(ne, lhs, rhs)), A.size, nv)
            yield CheckResult(False, witness=witness, equation=e)


def satisfies(A, e):
    """Check an Equation, a QuasiEquation, or any iterable of equations (an
    axiom set, a list, a tuple); assignments are scanned in lexicographic
    order.  Anything else raises BadArgument."""
    if isinstance(e, QuasiEquation):
        return satisfies_quasi(A, e)
    return satisfies_all(A, e)


def satisfies_all(A, equations):
    """The first failing equation, in list order, with its least failing
    assignment; evaluation stops there."""
    return next(_failures(A, equations), CheckResult(True))


def _first_value_blocks(A, nv):
    """The assignments to nv variables in product order, split into one
    block per value of the first variable: (that value as a 1-tuple, the
    block's column evaluator, the block's size).  No variables: one block."""
    n = A.size
    if nv == 0:
        yield (), _product_evaluator(A, 0), 1
        return
    size = n ** (nv - 1)
    rest = [_product_column(n, nv - 1, i) for i in range(nv - 1)]
    for v in range(n):
        yield (v,), _evaluator(A, size, lambda i, v=v: (
            rest[i - 1] if i else [v] * size)), size


def satisfies_quasi(A, q):
    """The premises' equalities are ANDed into a mask; the witness is the
    least assignment where the mask holds and the conclusion fails.  The
    blocks of `_first_value_blocks` are checked in order, so the check stops
    at the first block with a failing assignment."""
    roots = [t for e in (*q.premises, q.conclusion) for t in (e.lhs, e.rhs)]
    width = _widths(roots)
    nv = max(width[t] for t in roots)
    c = q.conclusion
    for first, column, size in _first_value_blocks(A, nv):
        mask = [True] * size
        for e in q.premises:
            mask = list(map(and_, mask, map(eq, column(e.lhs),
                                            column(e.rhs))))
        bad = list(map(and_, mask, map(ne, column(c.lhs), column(c.rhs))))
        if True in bad:
            rest = _assignment(bad, A.size, nv - len(first))
            return CheckResult(False, witness=first + rest, equation=c)
    return CheckResult(True)


CANCELLATIVITY = parse("x + z ≈ y + z & x * z ≈ y * z => x ≈ y")
