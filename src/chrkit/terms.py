"""First-order terms, substitutions, one-way matching, syntactic unification
and ground evaluation of guard terms.

Everything here is a pure function over immutable values; all of it is safe
to call from any thread.  The terms and constraints are slotted classes on
`record.Frozen`: assigning a field raises AttributeError.  Each writes its
own `==` (the exact class and the fields) and hash, the hash of its fields'
tuple as a frozen dataclass had it, so set and dict orders are unchanged.

No function here recurses on a term's depth.  An application keeps its
hash and depth; equality and matching walk pairs over a stack, and one
scan, `_scan`, finds variables.  Substitution, instantiation, evaluation
and printing call themselves on a term at most two deep, as the shipped
programs' are, and hand a deeper one to one post-order fold, `_fold`.

The firing path reads terms more than it builds them.  `holds` evaluates a
guard in place, reading each variable from phi, then theta, without
building the substituted guard; `instantiate` substitutes and normalizes a
rule body in one pass.  Both evaluate operators through `_apply`, the one
place the kind, 64-bit and bool/int rules live.  `Const` compares and hashes
without building tuples, so ground terms serve as index keys.
"""
from __future__ import annotations

from functools import partial
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
    depth = 0  # applications deep

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
    depth = 0

    def __init__(self, value: Value):
        setfield(self, "value", value)

    def __eq__(self, other):
        return (other.__class__ is Const
                and self.value.__class__ is other.value.__class__
                and self.value == other.value)

    def __hash__(self):
        return hash(self.value)


class App(Frozen, compared=("fn", "args")):
    __slots__ = ("fn", "args", "depth", "_hash")

    def __init__(self, fn: str, args: tuple["Term", ...]):
        if fn not in FUNCTION_SYMBOLS:
            raise ValueError(f"unknown function symbol {fn!r}")
        if len(args) != 2:
            raise ValueError(f"{fn!r} expects 2 arguments, got {len(args)}")
        setfield(self, "fn", fn)
        setfield(self, "args", args)
        a, b = args[0].depth, args[1].depth
        setfield(self, "depth", (a if a > b else b) + 1)
        # computed once, from the arguments' own kept hashes: hashing a term
        # (the store indexes every argument) never recurses on its depth
        setfield(self, "_hash", hash((fn, args)))

    def __eq__(self, other):
        # pairs of subterms wait on a stack; unequal kept hashes are unequal
        # terms, and one term shared by both is equal to itself
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not App:
                if a != b:
                    return False
            elif (b.__class__ is not App or a._hash != b._hash
                    or a.fn != b.fn):
                return False
            else:
                todo += zip(a.args, b.args)
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):  # Record's text, folded over a stack
        return _fold(self, repr, lambda t, a, b:
                     f"App(fn={t.fn!r}, args=({a}, {b}))")

    def __deepcopy__(self, memo=None):  # immutable: a copy is the term
        return self

    __copy__ = __deepcopy__

    def __reduce__(self):
        """Pickled as its post-order list, in which an operator symbol
        applies to the two terms before it: neither way recurses."""
        post: list = []
        _fold(self, post.append, lambda t, a, b: post.append(t.fn))
        return _unfolded, (post,)


def _unfolded(post: list) -> App:
    done: list = []
    for u in post:
        if u.__class__ is str:
            done[-2:] = [App(u, tuple(done[-2:]))]
        else:
            done.append(u)
    return done[0]


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


def _fold(t: App, leaf, node):
    """The post-order fold of t over a stack, left first: leaf(u) at a variable
    or constant u, node(a, x, y) at an application a, x and y its folded args."""
    todo, done = [t], []
    while todo:
        u = todo.pop()
        if u.__class__ is App:
            todo += ((u,), u.args[1], u.args[0])
        elif u.__class__ is tuple:  # (a,): a's arguments are folded
            y = done.pop()
            done[-1] = node(u[0], done[-1], y)
        else:
            done.append(leaf(u))
    return done[0]


def _scan(todo: list, tri: Subst) -> set[str]:
    """The variable names in the terms todo and, for a bound variable, in its
    term under tri, as the occurs check follows them: over a stack."""
    seen: set[str] = set()
    while todo:
        t = todo.pop()
        if t.__class__ is App:
            todo += t.args
        elif t.__class__ is Var and t.name not in seen:
            seen.add(t.name)
            if t.name in tri:
                todo.append(tri[t.name])
    return seen


def vars_of(x: Union[Term, Constraint]) -> set[str]:
    cls = x.__class__
    if cls is Var:
        return {x.name}
    if cls is Const:
        return set()
    if cls is Chr:
        return _scan(list(x.args), _NOTHING)
    if cls is Eq:
        return _scan([x.lhs, x.rhs], _NOTHING)
    return _scan([x], _NOTHING)


def _rebuilt(t: App, a: Term, b: Term) -> Term:
    """t with arguments a and b: t itself when they are its own."""
    return t if a is t.args[0] and b is t.args[1] else App(t.fn, (a, b))


def _map(x, f, arg):
    """x, a term or a constraint, with f(t, arg) for each term t: x itself
    when none changes."""
    cls = x.__class__
    if cls is Chr:
        args = tuple([f(a, arg) for a in x.args])
        return x if args == x.args else Chr(x.pred, args)
    if cls is Eq:
        return Eq(f(x.lhs, arg), f(x.rhs, arg))
    return f(x, arg)


def _substituted(t: Term, s: Subst) -> Term:
    if t.__class__ is not App:
        return s.get(t.name, t) if t.__class__ is Var else t
    if t.depth > 2:
        return _fold(t, partial(_substituted, s=s), _rebuilt)
    return _rebuilt(t, _substituted(t.args[0], s), _substituted(t.args[1], s))


def apply_subst(s: Subst, x):
    """Replace every variable in s's domain; structure is preserved."""
    return s.get(x.name, x) if x.__class__ is Var else _map(x, _substituted, s)


def _match_term(pattern: Term, cand: Term, subst: Subst) -> bool:
    """Whether cand is pattern with its variables bound as in subst, each
    unbound one bound to what it meets, left to right.  Pairs of subterms
    wait on a stack."""
    todo = [(pattern, cand)]
    while todo:
        p, c = todo.pop()
        if p.__class__ is App:
            if c.__class__ is not App or c.fn != p.fn:
                return False
            todo += ((p.args[1], c.args[1]), (p.args[0], c.args[0]))
        elif p.__class__ is Var:
            bound = subst.get(p.name)
            if bound is None:
                subst[p.name] = c
            elif bound != c:
                return False
        elif p != c:
            return False
    return True


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
            elif r.__class__ is Const or l.name not in _scan([r], tri):
                tri[l.name] = r
            else:
                return None
        elif r.__class__ is Var:
            if l.__class__ is Const or r.name not in _scan([l], tri):
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


def _apply(t: App, a: Value, b: Value) -> Value:
    """t's operator on two values, or EvalError: the kind, 64-bit and
    bool/int rules that eval_ground documents."""
    fn = t.fn
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
    if t.depth > 2:
        return _fold(t, partial(_value, phi=phi, theta=theta), _apply)
    return _apply(t, _value(t.args[0], phi, theta), _value(t.args[1], phi, theta))


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


def _evaluated(t: App, a: Term, b: Term) -> Term:
    """t with arguments a and b, evaluated if they are constants and it is
    well-typed and does not overflow."""
    if a.__class__ is Const and b.__class__ is Const:
        try:
            return Const(_apply(t, a.value, b.value))
        except EvalError:
            pass
    return _rebuilt(t, a, b)


def _instance(t: Term, phi: Subst) -> Term:
    """instantiate(phi, t) for a term t: a bound term is normalized once,
    its own variables left as they are."""
    if t.__class__ is App:
        if t.depth > 2:
            return _fold(t, partial(_instance, phi=phi), _evaluated)
        return _evaluated(t, _instance(t.args[0], phi), _instance(t.args[1], phi))
    bound = phi.get(t.name) if t.__class__ is Var else None
    if bound is None:
        return t
    return _instance(bound, _NOTHING) if bound.__class__ is App else bound


def instantiate(phi: Subst, x):
    """apply_subst(phi, x), normalized, for a constraint or a term x, in one
    pass: ground, well-typed applications are evaluated as they are
    rebuilt, ill-typed or overflowing ones stay symbolic.  What comes out
    unchanged is x itself, not a copy."""
    return _map(x, _instance, phi)


def normalize_constraint(c: Constraint) -> Constraint:
    """Evaluate ground, well-typed applications bottom-up (9-3 becomes 6).
    Ill-typed ground applications are left symbolic."""
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
_PRIMARY = max(_PREC.values()) + 1  # a primary binds tighter than any operator


def _text(u: Term) -> str:  # a variable's or a constant's
    if u.__class__ is Var:
        return u.name
    v = u.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return f"'{v}'"


def _app_text(t: App, a: tuple[str, int], b: tuple[str, int]) -> tuple[str, int]:
    """t's text and precedence from its arguments' texts and precedences."""
    p = _PREC[t.fn]
    left = a[0] if a[1] >= _LEFT_PREC[t.fn] else f"({a[0]})"
    right = b[0] if b[1] > p else f"({b[0]})"
    return left + t.fn + right, p


def _rendered(t: Term) -> tuple[str, int]:
    if t.__class__ is not App:
        return _text(t), _PRIMARY
    if t.depth > 2:
        return _fold(t, _rendered, _app_text)
    return _app_text(t, _rendered(t.args[0]), _rendered(t.args[1]))


def render_term(t: Term) -> str:
    if t.__class__ is not App:
        return _text(t)
    return _rendered(t)[0]


def render_constraint(c: Constraint) -> str:
    if isinstance(c, Chr):
        if not c.args:
            return c.pred
        args = ",".join(render_term(a) for a in c.args)
        return f"{c.pred}({args})"
    return f"{render_term(c.lhs)}={render_term(c.rhs)}"


def render_instance(phi: Subst, c: Constraint) -> str:
    """render_constraint(instantiate(phi, c)), printed argument by argument
    without building the instance."""
    if c.__class__ is Chr:
        if not c.args:
            return c.pred
        args = ",".join([render_term(_instance(a, phi)) for a in c.args])
        return f"{c.pred}({args})"
    lhs, rhs = _instance(c.lhs, phi), _instance(c.rhs, phi)
    return f"{render_term(lhs)}={render_term(rhs)}"
