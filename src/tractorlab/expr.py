"""Small smooth-expression language used to define metrics and defining
functions.

Grammar (EBNF)::

    expr   := term (("+"|"-") term)* ;
    term   := factor (("*"|"/") factor)* ;
    factor := atom ("^" number)? | "-" factor ;
    atom   := number | ident | ident "(" expr ")" | "(" expr ")" ;

Identifiers are coordinate names or one of the function names ``exp, log,
sqrt, sin, cos, tan, atan``; ``pi`` denotes the constant.  Exponents are
numeric literals, so every expression is smooth on its domain by
construction -- there are no conditionals or piecewise definitions.

``parse_expr`` and ``expr_to_source`` are mutually inverse on ASTs, which is
what makes geometry files diffable.

Expressions are evaluated only through a compiled :class:`Tape`:
``compile_tape`` turns a list of ASTs into one flat instruction list in
which identical subtrees share a slot, integer powers are products and
constant subtrees are folded to floats (a fold without a finite real value
raises :class:`ExprError`).  The tape runs on dense jet rows with the
kernels of module ``jets``, at a batch of points ``(B, n)``; fields, the
defining function and the asymptotic-form constant ``C`` of a geometry are
evaluated this way, the last as an order-0 jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .jets import JetSpace, jet_function, jet_mul, jet_reciprocal

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "ExprError",
    "FUNCTION_NAMES",
    "parse_expr",
    "expr_to_source",
    "expr_variables",
    "Tape",
    "compile_tape",
]

FUNCTION_NAMES = ("exp", "log", "sqrt", "sin", "cos", "tan", "atan")


class ExprError(ValueError):
    """Parse or validation failure; ``offset`` is a byte offset into the source."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


# -- tokenizer ----------------------------------------------------------

_SYMBOLS = "+-*/^(),"


def _tokenize(src: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append(("sym", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            try:
                value = float(src[i:j])
            except ValueError:
                raise ExprError(f"bad number literal {src[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


# -- recursive-descent parser --------------------------------------------


#: Deepest nesting of parentheses, calls and unary minus the parser accepts;
#: each level costs a few Python frames of the recursive descent.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.names: set[str] = set()  # variables met so far

    def nested(self, parse, offset: int) -> Expr:
        """Run ``parse`` one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            raise ExprError(
                f"expression nested deeper than {MAX_NESTING} levels", offset
            )
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        kind, value, offset = self.next()
        if kind != "sym" or value != sym:
            raise ExprError(f"expected {sym!r}", offset)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.next()
                rhs = self.parse_term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "*/":
                self.next()
                rhs = self.parse_factor()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "sym" and value == "-":
            self.next()
            arg = self.nested(self.parse_factor, offset)
            # Fold unary minus into literals so printing round trips.
            if isinstance(arg, Num):
                return Num(-arg.value)
            return Neg(arg)
        node = self.parse_atom()
        kind, value, offset = self.peek()
        if kind == "sym" and value == "^":
            self.next()
            ekind, evalue, eoffset = self.next()
            if ekind != "num":
                raise ExprError("exponent must be a numeric literal", eoffset)
            return Pow(node, float(evalue))
        return node

    def parse_atom(self) -> Expr:
        kind, value, offset = self.next()
        if kind == "num":
            return Num(float(value))
        if kind == "sym" and value == "(":
            inner = self.nested(self.parse_expr, offset)
            self.expect_sym(")")
            return inner
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "sym" and nvalue == "(":
                self.next()
                args = [self.nested(self.parse_expr, offset)]
                while True:
                    k2, v2, o2 = self.peek()
                    if k2 == "sym" and v2 == ",":
                        self.next()
                        args.append(self.nested(self.parse_expr, o2))
                    else:
                        break
                self.expect_sym(")")
                if value not in FUNCTION_NAMES:
                    raise ExprError(f"unknown function {value!r}", offset)
                if len(args) != 1:
                    raise ExprError(
                        f"function {value!r} takes 1 argument, got {len(args)}",
                        offset,
                    )
                return Call(str(value), args[0])
            if value == "pi":
                return Num(math.pi)
            self.names.add(value)
            return Var(str(value))
        raise ExprError("expected a number, name or parenthesized expression", offset)


def parse_expr(src: str, variables: tuple[str, ...] | None = None) -> Expr:
    """Parse source text into an AST.

    When ``variables`` is given, any variable outside it raises
    :class:`ExprError`; otherwise variable validation is deferred to the
    chart that binds the expression.
    """
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ExprError("trailing input after expression", offset)
    if variables is not None:
        unknown = parser.names.difference(variables)
        if unknown:
            raise ExprError(f"unknown identifier(s) {sorted(unknown)}")
    return node


# -- printing ------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _format_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Num) and e.value < 0:
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _to_source(e: Expr, parent_prec: int) -> str:
    prec = _prec(e)
    if isinstance(e, Num):
        s = _format_number(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Neg):
        s = "-" + _to_source(e.arg, _PREC_NEG)
    elif isinstance(e, Add):
        s = _to_source(e.left, _PREC_ADD) + " + " + _to_source(e.right, _PREC_ADD + 1)
    elif isinstance(e, Sub):
        s = _to_source(e.left, _PREC_ADD) + " - " + _to_source(e.right, _PREC_ADD + 1)
    elif isinstance(e, Mul):
        s = _to_source(e.left, _PREC_MUL) + "*" + _to_source(e.right, _PREC_MUL + 1)
    elif isinstance(e, Div):
        s = _to_source(e.left, _PREC_MUL) + "/" + _to_source(e.right, _PREC_MUL + 1)
    elif isinstance(e, Pow):
        s = _to_source(e.base, _PREC_ATOM) + "^" + _format_number(e.exponent)
    elif isinstance(e, Call):
        return f"{e.func}({_to_source(e.arg, 0)})"
    else:  # pragma: no cover
        raise TypeError(f"not an expression node: {e!r}")
    if prec < parent_prec:
        return "(" + s + ")"
    return s


def expr_to_source(e: Expr) -> str:
    """Render an AST back to source; ``parse_expr`` inverts this exactly."""
    return _to_source(e, 0)


# -- traversal -----------------------------------------------------------


def _children(e: Expr) -> tuple:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def expr_variables(e: Expr) -> set[str]:
    """Names of the variables an expression uses (iterative, so a sum of
    thousands of terms is fine)."""
    names: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        stack.extend(_children(node))
    return names


# -- compiled tapes --------------------------------------------------------


def _math_call(func: str, value: float) -> float:
    return getattr(math, func)(value)


def _fold(op: str, *args: float, param: float | None = None) -> float:
    """Value of an operation on constants; a result that is not a finite
    real number raises :class:`ExprError`."""
    try:
        if op == "neg":
            value = -args[0]
        elif op == "add":
            value = args[0] + args[1]
        elif op == "sub":
            value = args[0] - args[1]
        elif op == "mul":
            value = args[0] * args[1]
        elif op == "div":
            value = args[0] / args[1]
        elif op == "pow":
            value = args[0] ** param
        else:
            value = _math_call(op, args[0])
    except (ArithmeticError, ValueError) as err:
        value, reason = None, str(err)
    else:
        reason = "not a finite real number"
    if not isinstance(value, float) or not math.isfinite(value):
        shown = ", ".join(_format_number(a) for a in args)
        if param is not None:
            shown += f", {_format_number(param)}"
        raise ExprError(f"constant subexpression {op}({shown}): {reason}")
    return value


class _TapeBuilder:
    """Emits instructions with hash-consing on ``(op, operands, literal)``.

    A compiled subtree is either a ``float`` (a constant, folded at compile
    time and given a slot only where a jet operation needs one) or an
    ``int`` slot index.
    """

    def __init__(self, variables: Sequence[str]):
        self.variables = tuple(variables)
        self.code: list[tuple] = []
        self.consts: dict[float, int] = {}
        self.memo: dict[tuple, int] = {}
        self.n_slots = len(self.variables)

    def op(self, op: str, a: int, b: int | None = None, param=None) -> int:
        if op in ("add", "mul") and b < a:
            a, b = b, a
        key = (op, a, b, param)
        slot = self.memo.get(key)
        if slot is None:
            slot = self.memo[key] = self.n_slots
            self.n_slots += 1
            self.code.append((op, slot, a, b, param))
        return slot

    def slot(self, v: float | int) -> int:
        if isinstance(v, int):
            return v
        slot = self.consts.get(v)
        if slot is None:
            slot = self.consts[v] = self.n_slots
            self.n_slots += 1
        return slot

    def scale(self, a: int, c: float) -> int:
        return a if c == 1.0 else self.op("scale", a, param=c)

    def power(self, a: int, n: int) -> int:
        """``a^n`` for an integer ``n >= 1`` by binary powering."""
        result = None
        while n:
            if n & 1:
                result = a if result is None else self.op("mul", result, a)
            n >>= 1
            if n:
                a = self.op("mul", a, a)
        return result

    def emit(self, e: Expr, args: list) -> float | int:
        """Compile one node whose operands are already compiled."""
        if isinstance(e, Num):
            return float(e.value)
        if isinstance(e, Var):
            try:
                return self.variables.index(e.name)
            except ValueError:
                raise ExprError(f"unknown identifier {e.name!r}") from None
        consts = all(isinstance(v, float) for v in args)
        if isinstance(e, Neg):
            return _fold("neg", *args) if consts else self.op("neg", args[0])
        if isinstance(e, Pow):
            return self.emit_pow(args[0], e.exponent)
        if isinstance(e, Call):
            return _fold(e.func, *args) if consts else self.op(e.func, args[0])
        a, b = args
        name = type(e).__name__.lower()
        if consts:
            return _fold(name, a, b)
        if isinstance(e, (Add, Sub)):
            return self.op(name, self.slot(a), self.slot(b))
        if isinstance(e, Mul):
            if isinstance(a, float):
                return self.scale(b, a)
            if isinstance(b, float):
                return self.scale(a, b)
            return self.op("mul", a, b)
        # division
        if isinstance(b, float):
            return self.scale(a, _fold("div", 1.0, b))
        inv = self.op("recip", b)
        return self.scale(inv, a) if isinstance(a, float) else self.op("mul", a, inv)

    def emit_pow(self, a: float | int, p: float) -> float | int:
        p = float(p)
        if isinstance(a, float):
            return _fold("pow", a, param=p)
        if not p.is_integer():
            return self.op("pow", a, param=p)
        n = int(p)
        if n == 0:
            return 1.0
        if n < 0:
            return self.op("recip", self.power(a, -n))
        return self.power(a, n)


class Tape:
    """Expressions compiled to one flat instruction list over jet slots.

    Slots ``0 .. len(variables) - 1`` hold the coordinate jets, then come
    constants and instruction results.  Identical subtrees share a slot,
    integer powers are products (or the reciprocal of products), and
    constant subtrees are folded to floats.  Instructions are grouped by
    dependency level and operation, so :meth:`run` makes one call of a
    ``jets`` kernel per group on a dense ``(k, ncoeff)`` block of slots.
    """

    def __init__(self, builder: _TapeBuilder, outputs: list[int]):
        self.outputs = np.array(outputs, dtype=np.intp)
        self.variables = builder.variables
        self.code = tuple(builder.code)
        self.n_slots = builder.n_slots
        self.const_slots = np.array(list(builder.consts.values()), dtype=np.intp)
        # slot blocks carry a batch axis: (n_slots, B, ncoeff), B = 1 for a point
        self.const_values = np.array(list(builder.consts), dtype=float)[:, None]
        self.steps = self._schedule()
        self._eye = np.eye(len(self.variables))[:, None, :]

    def _schedule(self) -> list[tuple]:
        """Group the instructions into steps and order the steps.

        A step is the instructions of one ``(op, param)`` at one dependency
        level, run as ``(op, out, a, b, param)`` with index arrays (the
        scale factors of a ``scale`` step broadcast over the batch and
        coefficient axes).  Each instruction starts at its ASAP level, one
        above its deepest operand.  Its window reaches up to one below its
        shallowest consumer (for an instruction nothing consumes, the
        deepest level of the tape).  A group whose every member fits the
        window of another level holding the same ``(op, param)`` moves there
        whole, and the moves repeat until none fits.  Each move removes a
        step and keeps every operand on an earlier level, so the tape gets no
        deeper.  Steps run by level; inside a level, steps and the rows of a
        step run by ASAP level, then in code order, the order in which
        grouping by ASAP level alone would run them.
        """
        level = [0] * self.n_slots  # of each slot; 0 for inputs and constants
        users: list[list[int]] = [[] for _ in range(self.n_slots)]  # reader slots
        groups: dict[tuple, list[tuple]] = {}  # (op, param, level) -> instructions
        for ins in self.code:
            op, out, a, b, param = ins
            level[out] = 1 + (level[a] if b is None else max(level[a], level[b]))
            users[a].append(out)
            if b is not None:
                users[b].append(out)
            groups.setdefault((op, None if op == "scale" else param, level[out]), []).append(ins)
        asap = level[:]
        # every level stays in [asap, alap], so only a group whose members
        # all have slack can move
        depth = max(level, default=0)
        alap = [depth] * self.n_slots
        for _, out, a, b, _ in reversed(self.code):
            if alap[out] <= alap[a]:
                alap[a] = alap[out] - 1
            if b is not None and alap[out] <= alap[b]:
                alap[b] = alap[out] - 1
        movable = []
        for key, members in groups.items():
            for ins in members:
                if alap[ins[1]] == key[2]:
                    break
            else:
                movable.append(key)
        moved = bool(movable)
        while moved:
            moved = False
            for key in movable:
                members = groups.get(key)
                if members is None:  # moved earlier
                    continue
                lo, hi = 1, depth
                for _, out, a, b, _ in members:
                    lo = max(lo, level[a] + 1, 0 if b is None else level[b] + 1)
                    for s in users[out]:
                        hi = min(hi, level[s] - 1)
                for t in range(lo, hi + 1):
                    target = groups.get((key[0], key[1], t))
                    if t != key[2] and target is not None:
                        target += groups.pop(key)
                        target.sort(key=lambda ins: (asap[ins[1]], ins[1]))
                        for ins in members:
                            level[ins[1]] = t
                        moved = True
                        break
        steps = []
        for (op, param, _), members in sorted(
            groups.items(), key=lambda kv: (kv[0][2], asap[kv[1][0][1]], kv[1][0][1])
        ):
            _, out, a, b, params = zip(*members)
            steps.append((
                op,
                np.array(out, dtype=np.intp),
                np.array(a, dtype=np.intp),
                None if b[0] is None else np.array(b, dtype=np.intp),
                np.array(params)[:, None, None] if op == "scale" else param,
            ))
        return steps

    def __len__(self) -> int:
        """Number of instructions."""
        return len(self.code)

    def run(self, points: np.ndarray, space: JetSpace) -> np.ndarray:
        """Dense jets ``(n_outputs, B, ncoeff)`` of the outputs at a batch of
        points ``(B, n)`` whose coordinates follow ``variables`` (``space.dim``
        of them)."""
        rows = np.asarray(points, dtype=float)
        n = len(self.variables)
        if rows.shape[1:] != (n,):
            raise ValueError(f"points must be a (B, {n}) array, got shape {rows.shape}")
        slots = np.zeros((self.n_slots, len(rows), space.ncoeff))
        slots[:n, :, 0] = rows.T
        if space.order >= 1:
            slots[:n, :, 1 : n + 1] = self._eye
        slots[self.const_slots, :, 0] = self.const_values
        for op, out, a, b, param in self.steps:
            x = slots[a]
            if op == "mul":
                slots[out] = jet_mul(x, slots[b], space)
            elif op == "add":
                slots[out] = x + slots[b]
            elif op == "sub":
                slots[out] = x - slots[b]
            elif op == "scale":
                slots[out] = x * param
            elif op == "recip":
                slots[out] = jet_reciprocal(x, space)
            elif op == "neg":
                slots[out] = -x
            else:
                slots[out] = jet_function(op, x, space, param)
        return slots[self.outputs]


def compile_tape(exprs: Sequence[Expr], variables: Sequence[str]) -> Tape:
    """Compile expressions in the named variables into one :class:`Tape`.

    Raises :class:`ExprError` for an unknown variable and for a constant
    subexpression without a finite real value, such as ``(0-1)^0.5``,
    ``log(0-1)`` or ``1/0``.
    """
    builder = _TapeBuilder(variables)
    done: dict[int, float | int] = {}
    for root in exprs:
        # iterative post-order walk, so deep trees never hit the recursion
        # limit; ``done`` is keyed by node identity
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in done:
                stack.pop()
                continue
            kids = _children(node)
            pending = [k for k in kids if id(k) not in done]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            done[id(node)] = builder.emit(node, [done[id(k)] for k in kids])
    return Tape(builder, [builder.slot(done[id(root)]) for root in exprs])
