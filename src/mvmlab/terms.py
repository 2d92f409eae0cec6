"""Term language over the signature (+ = oplus, * = odot, v = join, ^^ = meet),
parser, evaluator and (quasi-)equation satisfaction in finite algebras.

Term nodes are interned (hash-consed): structurally equal terms are the same
object, so a generated term is a DAG that shares its subterms.  Every walk
over a term, and the parser, uses an explicit stack, so depth is bounded by
memory, not by the interpreter's recursion limit.  A check evaluates each DAG
node at most once per call, as a column of its values over all assignments in
`itertools.product` order, with C-level `map`s over the operation tables; the
first index where two columns differ decodes to the lexicographically least
failing assignment.  A quasi-equation is checked in blocks, one per value of
the first variable, so each node is evaluated once per block.
"""

import re
import weakref
from operator import and_, eq, getitem, ne

from .algebra import _check_element
from .caps import check
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

# one alternative per token kind, tried in this order; \d is what int reads
_TOKEN = re.compile(r"""
    (?P<SPACE>\s+) | (?P<ARROW>=>) | (?P<EQ>[≈=]) | (?P<MEET>\^\^)
  | (?P<POW>\^) | (?P<PUNCT>[+*&()]) | (?P<JOIN>v) | (?P<INT>\d+)
  | (?P<VAR>[xyz]\d*) | (?P<BAD>.)""", re.VERBOSE | re.DOTALL)


# int() refuses longer digit strings under Python's default limit
_MAX_DIGITS = 4300


def _number(digits, position):
    if len(digits) > _MAX_DIGITS:
        raise TermSyntaxError(f"a number has at most {_MAX_DIGITS} digits, "
                              f"got {len(digits)}", position)
    return int(digits)


def _tokenize(text):
    """(kind, value, position) triples, ending with ("END", None, len)."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind, s, i = m.lastgroup, m.group(), m.start()
        if kind == "SPACE":
            continue
        value = s
        if kind == "BAD":
            raise TermSyntaxError(f"unexpected character {s!r}", i)
        if kind == "PUNCT":
            kind = s
        elif kind == "INT":
            value = _number(s, i)
        elif kind == "VAR":
            if len(s) == 1:
                value = _VARS[s]
            elif s[0] == "x":
                value = _number(s[1:], i)
            else:
                raise TermSyntaxError("indexed variables use x<digits>", i)
        toks.append((kind, value, i))
    toks.append(("END", None, len(text)))
    return toks


# binary operators, loosest first; all associate to the left
_BINARY = {"JOIN": join, "MEET": meet, "+": oplus, "*": odot}
_LEVEL = {kind: level for level, kind in enumerate(_BINARY)}
_OPEN = -1                # an open bracket, which no operator pops
_PREFIX = len(_BINARY)    # a scalar prefix binds tighter than any operator
_STARTS_OPERAND = ("VAR", "(", "INT")


def _expect(toks, i, kind):
    k, v, p = toks[i]
    if k != kind:
        raise TermSyntaxError(f"expected {kind}, got {v!r}", p)
    return i + 1


def _reduce(ops, vals, level):
    """Apply the operators on top of `ops` that bind at least as tightly as
    `level` to the operands on top of `vals`."""
    while ops and ops[-1][0] >= level:
        lvl, op = ops.pop()
        if lvl == _PREFIX:
            vals[-1] = scalar(op, vals[-1])
        else:
            right = vals.pop()
            vals[-1] = op(vals[-1], right)


def _repeat(spent, k):
    """Charge a scalar prefix or exponent k, which builds up to k nodes, to
    the one-element list `spent` that one input shares, before any node is
    built.  The cap bounds the sum: a cap on each k alone would let m
    prefixes in a row build m times as many."""
    spent[0] += k
    check("REPEAT", spent[0], "the sum of scalar prefixes and exponents")


def _term(toks, i, spent):
    """The longest term starting at toks[i], and the index of the token after
    it.  Shunting-yard over explicit stacks: `ops` holds (level, operator)
    pairs, with brackets at _OPEN and scalar prefixes k as (_PREFIX, k), and
    `vals` the operands, so any depth of nesting takes linear time.  Scalar
    prefixes and exponents are charged to `spent` (see `_repeat`)."""
    ops, vals = [], []
    while True:
        # an operand: open brackets and scalar prefixes, then an atom
        kind, v, p = toks[i]
        while kind == "(" or (kind == "INT"
                              and toks[i + 1][0] in _STARTS_OPERAND):
            if kind == "INT":
                _repeat(spent, v)
            ops.append((_OPEN, None) if kind == "(" else (_PREFIX, v))
            i += 1
            kind, v, p = toks[i]
        i += 1
        if kind == "VAR":
            vals.append(var(v))
        elif kind == "INT" and v in (0, 1):
            vals.append(const("one" if v else "zero"))
        elif kind == "INT":
            raise TermSyntaxError(f"bare integer {v} is not a term", p)
        else:
            raise TermSyntaxError(f"unexpected token {v!r}", p)
        # then powers and closing brackets, up to an operator or the end
        while True:
            kind, v, p = toks[i]
            if kind == "POW":
                i = _expect(toks, i + 1, "INT")
                _repeat(spent, toks[i - 1][1])
                vals[-1] = power(vals[-1], toks[i - 1][1])
                continue
            # a closing bracket or the term's end reduces down to the
            # innermost open bracket, as the loosest operator does
            level = _LEVEL.get(kind, 0)
            _reduce(ops, vals, level)
            if kind in _BINARY:
                ops.append((level, _BINARY[kind]))
                i += 1
                break
            if not ops:
                return vals[0], i
            if kind != ")":
                raise TermSyntaxError(f"expected ), got {v!r}", p)
            ops.pop()
            i += 1


def _equation(toks, i, spent):
    lhs, i = _term(toks, i, spent)
    rhs, i = _term(toks, _expect(toks, i, "EQ"), spent)
    return Equation(lhs, rhs), i


def parse(text):
    """Parse a term, an equation, or a quasi-equation (`eq & eq => eq`).
    The scalar prefixes and exponents of one input may sum to at most the
    REPEAT cap (10,000 by default); above it, CapExceeded."""
    toks = _tokenize(text)
    kinds = {k for k, _, _ in toks}
    spent = [0]
    if "ARROW" in kinds:
        premise, i = _equation(toks, 0, spent)
        premises = [premise]
        while toks[i][0] == "&":
            premise, i = _equation(toks, i + 1, spent)
            premises.append(premise)
        conclusion, i = _equation(toks, _expect(toks, i, "ARROW"), spent)
        out = QuasiEquation(premises, conclusion)
    elif "EQ" in kinds:
        out, i = _equation(toks, 0, spent)
    else:
        out, i = _term(toks, 0, spent)
    _expect(toks, i, "END")
    return out


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


def _width(width, t):
    """Variable width of t: index + 1 for a variable, 0 for a constant, the
    larger child width (read from `width`) for a binary node."""
    if isinstance(t, BinOp):
        return max(width[t.left], width[t.right])
    return t.index + 1 if isinstance(t, Var) else 0


def _widths(roots):
    """Variable width of every node under `roots`."""
    width = {}
    _postorder(roots, width, lambda t: _width(width, t))
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


def _evaluator(A, size, var_column, cols=None):
    """column(t): the values of t in A over `size` assignments, where
    var_column(i) gives those of variable i.  Columns are kept in `cols` (a
    new dict by default), so each node is evaluated once, when first needed,
    unless the caller drops its column from `cols`."""
    cols = {} if cols is None else cols

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


def _blocks(A, nv, first):
    """The assignments to nv variables in product order as blocks, each a
    (tuple of the values it fixes, column cache, column evaluator): one
    block, or with `first` and nv > 0 one per value of the first variable.
    More than the ASSIGNMENTS cap of them raise CapExceeded first."""
    n = A.size
    if nv * (n.bit_length() - 1) <= 1024:
        check("ASSIGNMENTS", n ** nv, "the number of assignments to "
              f"{nv} variables over {n} elements")
    else:  # n**nv > 2**1024, not formed, as an index may have many digits
        check("ASSIGNMENTS", 1 << 1024,
              f"a lower bound on the assignments over {n} elements")
    if not (first and nv):
        cols = {}
        yield (), cols, _evaluator(A, n ** nv,
                                   lambda i: _product_column(n, nv, i), cols)
        return
    size = n ** (nv - 1)
    rest = [_product_column(n, nv - 1, i) for i in range(nv - 1)]
    for v in range(n):
        cols = {}
        yield (v,), cols, _evaluator(A, size, lambda i, v=v: (
            rest[i - 1] if i else [v] * size), cols)


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
            v = env[i]
        except KeyError:
            raise MissingAssignment(f"no value for {var_name(i)}") from None
        _check_element(v, A.size, var_name(i))
        return [v]

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


def _failures(A, checks):
    """Each failing equation of an equation, an iterable of equations or a
    quasi-equation (whose premises' equalities are ANDed into the failure
    mask), in order, as a failed CheckResult with its least failing
    assignment.  Equations with the same variable count share one block,
    and a column is dropped once the last equation over its node is checked.
    With premises, the check goes one first-variable block at a time, up to
    the first that fails.  Evaluation goes only as far as the caller reads."""
    if isinstance(checks, QuasiEquation):
        premises, equations = checks.premises, [checks.conclusion]
    else:
        premises = ()
        equations = list(checks) if hasattr(checks, "__iter__") else [checks]
    for e in (*premises, *equations):
        if not isinstance(e, Equation):
            raise BadArgument("expected an equation, a quasi-equation or a "
                              f"list of equations, got {type(e).__name__}")
    roots = [t for p in premises for t in (p.lhs, p.rhs)]
    # walked backwards, the list meets each node first under the last
    # equation over it, which is the last to read the node's column
    width, last_met = {}, []

    def visit(t):
        last_met[-1].append(t)
        return _width(width, t)

    for e in reversed(equations):
        last_met.append([])
        _postorder((e.lhs, e.rhs, *roots), width, visit)
    premise_nv = max((width[t] for t in roots), default=0)
    shared = {}  # variable count -> the one block that equations share
    for e, done in zip(equations, reversed(last_met)):
        nv = max(width[e.lhs], width[e.rhs], premise_nv)
        if not premises and nv not in shared:
            shared[nv] = next(_blocks(A, nv, False))
        blocks = _blocks(A, nv, True) if premises else (shared[nv],)
        for first, _, column in blocks:
            lhs, rhs = column(e.lhs), column(e.rhs)
            if lhs == rhs:
                continue
            bad = map(ne, lhs, rhs)
            for p in premises:
                bad = map(and_, bad, map(eq, column(p.lhs), column(p.rhs)))
            bad = list(bad)
            if True in bad:
                rest = _assignment(bad, A.size, nv - len(first))
                yield CheckResult(False, witness=first + rest, equation=e)
                break
        for _, cols, _ in shared.values():
            for t in done:
                cols.pop(t, None)


def satisfies(A, e):
    """Check an Equation, a QuasiEquation, or any iterable of equations (an
    axiom set, a list, a tuple); assignments are scanned in lexicographic
    order.  Anything else raises BadArgument."""
    return next(_failures(A, e), CheckResult(True))


def satisfies_all(A, equations):
    """The first failing equation, in list order, with its least failing
    assignment; evaluation stops there."""
    return next(_failures(A, equations), CheckResult(True))


def satisfies_quasi(A, q):
    """The least assignment where every premise holds and the conclusion
    fails; the check stops at the first block that has one."""
    return next(_failures(A, q), CheckResult(True))


CANCELLATIVITY = parse("x + z ≈ y + z & x * z ≈ y * z => x ≈ y")
