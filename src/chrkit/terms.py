"""First-order terms, substitutions, one-way matching, syntactic unification
and ground evaluation of guard terms.

Everything here is a pure function over immutable values; all of it is safe
to call from any thread.  The terms and constraints are slotted classes on
`record.Frozen`: assigning a field raises AttributeError.  Each writes its
own `==` (the exact class and the fields) and hash, the hash of its fields'
tuple as a frozen dataclass had it, so set and dict orders are unchanged.

The firing path reads terms more than it builds them.  `holds` evaluates a
guard in place, reading each variable from phi, then theta, without
building the substituted guard; `instantiate` substitutes and normalizes a
rule body in one pass.  Both evaluate operators through `_apply`, the one
place the kind, 64-bit and bool/int rules live.  `Const` compares and hashes
without building tuples, so ground terms serve as index keys.
"""
from __future__ import annotations

from typing import Iterable, Optional, Union

from .record import Frozen, setfield

Value = Union[int, bool, str]  # str values are symbolic atoms

# Arithmetic must behave like (at least) 64-bit two's complement integers;
# results outside this range are evaluation errors, never silent wraparound.
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

ARITH_OPS = ("+", "-", "*")
COMPARE_OPS = (">", ">=", "<", "<=")
EQUALITY_OPS = ("==", "!=")
BOOL_OPS = ("&&", "||")
FUNCTION_SYMBOLS = ARITH_OPS + COMPARE_OPS + EQUALITY_OPS + BOOL_OPS  # all binary


class EvalError(Exception):
    """A guard term could not be evaluated to a value."""


class Var(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)

    def __eq__(self, other):
        return other.__class__ is Var and self.name == other.name

    def __hash__(self):
        return hash((self.name,))


class Const(Frozen):
    """Integer, boolean or symbolic-atom literal.

    bool is kept distinct from int even though bool subclasses int in
    Python: Const(True) != Const(1).  Equal constants have values of the
    same class; the hash is the value's, so True and 1 collide but stay
    unequal.
    """

    __slots__ = ("value",)

    def __init__(self, value: Value):
        setfield(self, "value", value)

    def __eq__(self, other):
        return (other.__class__ is Const
                and self.value.__class__ is other.value.__class__
                and self.value == other.value)

    def __hash__(self):
        return hash(self.value)


class App(Frozen, compared=("fn", "args")):
    __slots__ = ("fn", "args", "_hash")

    def __init__(self, fn: str, args: tuple["Term", ...]):
        if fn not in FUNCTION_SYMBOLS:
            raise ValueError(f"unknown function symbol {fn!r}")
        if len(args) != 2:
            raise ValueError(f"{fn!r} expects 2 arguments, got {len(args)}")
        setfield(self, "fn", fn)
        setfield(self, "args", args)
        # computed once, from the arguments' own kept hashes: hashing a term
        # (the store indexes every argument) never recurses on its depth
        setfield(self, "_hash", hash((fn, args)))

    def __eq__(self, other):
        return (other.__class__ is App and self.fn == other.fn
                and self.args == other.args)

    def __hash__(self):
        return self._hash


Term = Union[Var, Const, App]


class Chr(Frozen):
    """A CHR constraint p(t1,...,tn)."""

    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[Term, ...] = ()):
        setfield(self, "pred", pred)
        setfield(self, "args", args)

    def __eq__(self, other):
        return (other.__class__ is Chr and self.pred == other.pred
                and self.args == other.args)

    def __hash__(self):
        return hash((self.pred, self.args))


class Eq(Frozen):
    """An equation t1 = t2."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        setfield(self, "lhs", lhs)
        setfield(self, "rhs", rhs)

    def __eq__(self, other):
        return (other.__class__ is Eq and self.lhs == other.lhs
                and self.rhs == other.rhs)

    def __hash__(self):
        return hash((self.lhs, self.rhs))


Constraint = Union[Chr, Eq]
Subst = dict[str, Term]


def vars_of(x: Union[Term, Constraint]) -> set[str]:
    if isinstance(x, Var):
        return {x.name}
    if isinstance(x, Const):
        return set()
    if isinstance(x, App):
        out: set[str] = set()
        for a in x.args:
            out |= vars_of(a)
        return out
    if isinstance(x, Chr):
        out = set()
        for a in x.args:
            out |= vars_of(a)
        return out
    return vars_of(x.lhs) | vars_of(x.rhs)


def apply_subst(s: Subst, x):
    """Replace every variable in s's domain; structure is preserved."""
    if isinstance(x, Var):
        return s.get(x.name, x)
    if isinstance(x, Const):
        return x
    if isinstance(x, App):
        return App(x.fn, tuple(apply_subst(s, a) for a in x.args))
    if isinstance(x, Chr):
        return Chr(x.pred, tuple(apply_subst(s, a) for a in x.args))
    return Eq(apply_subst(s, x.lhs), apply_subst(s, x.rhs))


def _match_term(pattern: Term, cand: Term, subst: Subst) -> bool:
    if isinstance(pattern, Var):
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = cand
            return True
        return bound == cand
    if isinstance(pattern, Const):
        return pattern == cand
    return (
        isinstance(cand, App)
        and cand.fn == pattern.fn
        and len(cand.args) == len(pattern.args)
        and all(_match_term(p, c, subst) for p, c in zip(pattern.args, cand.args))
    )


def match(pattern: Chr, candidate: Chr, seed: Subst) -> Optional[Subst]:
    """One-way matching: extends seed with bindings for pattern variables so
    that the instantiated pattern equals the candidate syntactically.

    Candidate (store) variables are never bound; matching, not unification.
    """
    if pattern.pred != candidate.pred or len(pattern.args) != len(candidate.args):
        return None
    subst = dict(seed)
    for p, c in zip(pattern.args, candidate.args):
        if p.__class__ is Var:  # the common case, bound inline
            bound = subst.get(p.name)
            if bound is None:
                subst[p.name] = c
            elif bound is not c and bound != c:
                return None
        elif not _match_term(p, c, subst):
            return None
    return subst


def _walk(t: Term, tri: Subst) -> Term:
    """t's top level under the triangular substitution tri: an unbound
    variable or a non-variable term.  A variable chain it walks is cut to
    point at the end of the chain, which changes no resolved binding."""
    end = t
    while end.__class__ is Var:
        bound = tri.get(end.name)
        if bound is None:
            break
        end = bound
    while t is not end:
        bound = tri[t.name]
        tri[t.name] = end
        t = bound
    return end


def _occurs(x: str, t: Term, tri: Subst) -> bool:
    """Whether the unbound variable x occurs in t resolved under tri; an
    explicit stack, each bound variable followed once."""
    stack, seen = [t], set()
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Var:
            name = t.name
            if name == x:
                return True
            if name not in seen:
                seen.add(name)
                bound = tri.get(name)
                if bound is not None:
                    stack.append(bound)
        elif cls is App:
            stack.extend(t.args)
    return False


def mgu(eqs: Iterable[Eq]) -> Optional[Subst]:
    """Most general unifier of the equations over the Herbrand universe,
    or None when they are unsatisfiable.  The result is idempotent and never
    maps a variable to itself.

    The unifier is built triangular, as Martelli and Montanari's is: an
    equation binds its sides' top levels, dereferenced through the bindings
    so far, so a binding's term may mention bound variables.  A
    variable-to-variable equation binds its left side, after dereferencing.
    The bindings are resolved once, at the end, each after the ones its
    term mentions, so no binding is rewritten twice: the cost is linear in
    the equations' size plus the occurs checks, each of which follows the
    bindings its application mentions.  Walks, occurs checks and the
    resolution run over explicit stacks, never recursing along a binding
    chain.  The keys come in the order the variables are bound.
    """
    work = [(e.lhs, e.rhs) for e in eqs]
    tri: Subst = {}
    while work:
        l, r = work.pop()
        l, r = _walk(l, tri), _walk(r, tri)
        if l.__class__ is Var:
            if r.__class__ is Var:
                if r.name != l.name:
                    tri[l.name] = r
            elif r.__class__ is Const or not _occurs(l.name, r, tri):
                tri[l.name] = r
            else:
                return None
        elif r.__class__ is Var:
            if l.__class__ is Const or not _occurs(r.name, l, tri):
                tri[r.name] = l
            else:
                return None
        elif l.__class__ is App and r.__class__ is App:
            if l.fn != r.fn or len(l.args) != len(r.args):
                return None
            work.extend(zip(l.args, r.args))
        elif l != r:
            return None  # clash: unequal constants, or constant vs application
    return _resolve(tri)


def _resolve(tri: Subst) -> Subst:
    """The idempotent form of the triangular substitution tri, in its key
    order.  Each binding is resolved once, after the bindings its term
    mentions, found depth-first over an explicit stack; the occurs check
    keeps tri acyclic."""
    if len(tri) < 2:  # a lone binding cannot mention its own variable
        return tri
    out: Subst = {}
    for root in tri:
        stack = [root]
        while stack:
            x = stack[-1]
            if x in out:
                stack.pop()
                continue
            t = tri[x]
            if t.__class__ is not Const:
                pending = [v for v in vars_of(t) if v in tri and v not in out]
                if pending:
                    stack.extend(pending)
                    continue
                t = apply_subst(out, t)
            out[x] = t
            stack.pop()
    return {x: out[x] for x in tri}


_KINDS = {bool: "bool", int: "int", str: "atom"}
_NOTHING: Subst = {}  # the empty substitution; never written


def _kind(v: Value) -> str:  # for a value of a class _KINDS lacks
    return "bool" if isinstance(v, bool) else "int" if isinstance(v, int) else "atom"


def _apply(fn: str, a: Value, b: Value) -> Value:
    """fn on two values, or EvalError: the kind, 64-bit and bool/int rules
    that eval_ground documents."""
    ka = _KINDS.get(a.__class__) or _kind(a)
    kb = _KINDS.get(b.__class__) or _kind(b)
    if fn in ARITH_OPS:
        if ka != "int" or kb != "int":
            raise EvalError(f"{fn} expects integers, got {ka} and {kb}")
        r = a + b if fn == "+" else a - b if fn == "-" else a * b
        if not (INT64_MIN <= r <= INT64_MAX):
            raise EvalError(f"integer overflow in {fn}")
        return r
    if fn in COMPARE_OPS:
        if ka != kb or ka == "bool":
            raise EvalError(f"{fn} expects two integers or two atoms")
        if fn == ">":
            return a > b
        if fn == ">=":
            return a >= b
        if fn == "<":
            return a < b
        return a <= b
    if fn in EQUALITY_OPS:
        if ka != kb:
            raise EvalError(f"{fn} expects operands of the same kind")
        return (a == b) if fn == "==" else (a != b)
    # && / ||
    if ka != "bool" or kb != "bool":
        raise EvalError(f"{fn} expects booleans, got {ka} and {kb}")
    return (a and b) if fn == "&&" else (a or b)


def _value(t: Term, phi: Subst, theta: Subst) -> Value:
    """eval_ground(apply_subst(theta, apply_subst(phi, t))), without
    building either: a variable is read from phi, then theta."""
    cls = t.__class__
    if cls is Const:
        return t.value
    if cls is Var:
        bound = phi.get(t.name)
        if bound is None:
            bound = theta.get(t.name)
            if bound is None:
                raise EvalError(f"non-ground term: variable {t.name}")
            theta = _NOTHING  # theta's terms are read as they are
        if bound.__class__ is Const:
            return bound.value
        return _value(bound, theta, _NOTHING)
    return _apply(t.fn, _value(t.args[0], phi, theta),
                  _value(t.args[1], phi, theta))


def eval_ground(t: Term) -> Value:
    """Evaluate a ground term.  Arithmetic is 64-bit-checked integer
    arithmetic; comparisons work on two integers or two atoms (lexicographic);
    && and || are total boolean operators.  Raises EvalError on non-ground
    input, type mismatch or overflow.
    """
    return _value(t, _NOTHING, _NOTHING)


def entails(eqs: Iterable[Eq], phi: Subst, guard: Term) -> bool:
    """True iff theta(phi(guard)) is ground and evaluates to true, where
    theta is the m.g.u. of the equations.

    An inconsistent equation set entails nothing (callers flag inconsistency
    at the point the offending equation was added).  A guard left non-ground
    by both substitutions makes the rule inapplicable rather than erroring:
    matching never narrows store variables.
    """
    theta = mgu(eqs)
    return theta is not None and holds(theta, phi, guard)


def holds(theta: Subst, phi: Subst, guard: Term) -> bool:
    """entails() for equations already solved to theta: callers that test
    many guards against one equation set solve it once.  The guard is
    evaluated in place, each variable read from phi and then theta, so
    theta(phi(guard)) is never built.  A non-ground guard needs no separate
    test: evaluation reaches every variable and fails."""
    try:
        return _value(guard, phi, theta or _NOTHING) is True
    except EvalError:
        return False


def instantiate(phi: Subst, x):
    """normalize_constraint(apply_subst(phi, x)) for a constraint x, and
    normalize_term(apply_subst(phi, x)) for a term, in one pass: ground,
    well-typed applications are evaluated as they are rebuilt, ill-typed
    or overflowing ones stay symbolic.  What comes out unchanged is x
    itself, not a copy."""
    cls = x.__class__
    if cls is Var:
        bound = phi.get(x.name)
        if bound is None:
            return x
        return instantiate(_NOTHING, bound) if bound.__class__ is App else bound
    if cls is Const:
        return x
    if cls is App:
        args = x.args
        a, b = instantiate(phi, args[0]), instantiate(phi, args[1])
        if a.__class__ is Const and b.__class__ is Const:
            try:
                return Const(_apply(x.fn, a.value, b.value))
            except EvalError:
                pass
        return x if a is args[0] and b is args[1] else App(x.fn, (a, b))
    if cls is Chr:
        args = tuple([instantiate(phi, a) for a in x.args])
        return x if args == x.args else Chr(x.pred, args)
    return Eq(instantiate(phi, x.lhs), instantiate(phi, x.rhs))


def normalize_term(t: Term) -> Term:
    """Evaluate ground, well-typed applications bottom-up (9-3 becomes 6).
    Ill-typed ground applications are left symbolic."""
    return instantiate(_NOTHING, t)


def normalize_constraint(c: Constraint) -> Constraint:
    return instantiate(_NOTHING, c)


# Rendering.  One deterministic printer used for dumps, traces and golden
# tests; terms are printed compactly (no spaces) with minimal parentheses.
#
# The operator table, which the parser in syntax.py reads too: each
# operator's precedence, and the least precedence its left operand may have
# without parentheses (its right operand needs one more than the operator).
# All operators associate to the left except comparisons, which do not
# chain, so their left operand must bind tighter as well.

_PREC = {"||": 1, "&&": 2, ">": 3, ">=": 3, "<": 3, "<=": 3, "==": 3, "!=": 3,
         "+": 4, "-": 4, "*": 5}
_LEFT_PREC = {fn: p + 1 if fn in COMPARE_OPS or fn in EQUALITY_OPS else p
              for fn, p in _PREC.items()}


def render_term(t: Term, prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        v = t.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        return f"'{v}'"
    p = _PREC[t.fn]
    s = f"{render_term(t.args[0], _LEFT_PREC[t.fn])}{t.fn}{render_term(t.args[1], p + 1)}"
    return f"({s})" if p < prec else s


def render_constraint(c: Constraint) -> str:
    if isinstance(c, Chr):
        if not c.args:
            return c.pred
        args = ",".join(render_term(a) for a in c.args)
        return f"{c.pred}({args})"
    return f"{render_term(c.lhs)}={render_term(c.rhs)}"
