"""First-order terms, substitutions, one-way matching, syntactic unification
and ground evaluation of guard terms.

Everything here is a pure function over immutable values; all of it is safe
to call from any thread.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

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


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True, eq=False)
class Const:
    """Integer, boolean or symbolic-atom literal.

    bool is kept distinct from int even though bool subclasses int in
    Python: Const(True) != Const(1).
    """

    value: Value

    def _key(self):
        return (self.value.__class__.__name__, self.value)

    def __eq__(self, other):
        return isinstance(other, Const) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple["Term", ...]

    def __post_init__(self):
        if self.fn not in FUNCTION_SYMBOLS:
            raise ValueError(f"unknown function symbol {self.fn!r}")
        if len(self.args) != 2:
            raise ValueError(f"{self.fn!r} expects 2 arguments, got {len(self.args)}")


Term = Union[Var, Const, App]


@dataclass(frozen=True)
class Chr:
    """A CHR constraint p(t1,...,tn)."""

    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Eq:
    """An equation t1 = t2."""

    lhs: Term
    rhs: Term


Constraint = Union[Chr, Eq]
Subst = dict[str, Term]


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, Const):
        return True
    return all(is_ground(a) for a in t.args)


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
        return isinstance(cand, Const) and pattern == cand
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
        if not _match_term(p, c, subst):
            return None
    return subst


def _bind(x: str, t: Term, out: Subst) -> bool:
    if isinstance(t, Var) and t.name == x:
        return True
    if x in vars_of(t):  # occurs check
        return False
    one = {x: t}
    for k in list(out):
        out[k] = apply_subst(one, out[k])
    out[x] = t
    return True


def mgu(eqs: Iterable[Eq]) -> Optional[Subst]:
    """Most general unifier of the equations over the Herbrand universe,
    or None when they are unsatisfiable.  The result is idempotent and never
    maps a variable to itself.
    """
    work = [(e.lhs, e.rhs) for e in eqs]
    out: Subst = {}
    while work:
        l, r = work.pop()
        l = apply_subst(out, l)
        r = apply_subst(out, r)
        if l == r:
            continue
        if isinstance(l, Var):
            if not _bind(l.name, r, out):
                return None
        elif isinstance(r, Var):
            if not _bind(r.name, l, out):
                return None
        elif isinstance(l, App) and isinstance(r, App):
            if l.fn != r.fn or len(l.args) != len(r.args):
                return None
            work.extend(zip(l.args, r.args))
        else:
            return None  # clash: unequal constants, or constant vs application
    return out


def _kind(v: Value) -> str:
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    return "atom"


def eval_ground(t: Term) -> Value:
    """Evaluate a ground term.  Arithmetic is 64-bit-checked integer
    arithmetic; comparisons work on two integers or two atoms (lexicographic);
    && and || are total boolean operators.  Raises EvalError on non-ground
    input, type mismatch or overflow.
    """
    if isinstance(t, Var):
        raise EvalError(f"non-ground term: variable {t.name}")
    if isinstance(t, Const):
        return t.value
    a = eval_ground(t.args[0])
    b = eval_ground(t.args[1])
    ka, kb = _kind(a), _kind(b)
    fn = t.fn
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
    many guards against one equation set solve it once.  A non-ground guard
    needs no separate test: evaluation reaches every variable and fails."""
    g = apply_subst(phi, guard)
    if theta:
        g = apply_subst(theta, g)
    try:
        return eval_ground(g) is True
    except EvalError:
        return False


def normalize_term(t: Term) -> Term:
    """Evaluate ground, well-typed applications bottom-up (9-3 becomes 6).
    Ill-typed ground applications are left symbolic."""
    if not isinstance(t, App):
        return t
    args = tuple(normalize_term(a) for a in t.args)
    t2 = App(t.fn, args)
    if all(isinstance(a, Const) for a in args):
        try:
            return Const(eval_ground(t2))
        except EvalError:
            return t2
    return t2


def normalize_constraint(c: Constraint) -> Constraint:
    if isinstance(c, Chr):
        return Chr(c.pred, tuple(normalize_term(a) for a in c.args))
    return Eq(normalize_term(c.lhs), normalize_term(c.rhs))


# Rendering.  One deterministic printer used for dumps, traces and golden
# tests; terms are printed compactly (no spaces) with minimal parentheses.

_PREC = {"||": 1, "&&": 2, ">": 3, ">=": 3, "<": 3, "<=": 3, "==": 3, "!=": 3,
         "+": 4, "-": 4, "*": 5}


def render_term(t: Term, prec: int = 0, rename=None) -> str:
    if isinstance(t, Var):
        return rename(t.name) if rename else t.name
    if isinstance(t, Const):
        v = t.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        return f"'{v}'"
    p = _PREC[t.fn]
    # left-associative: the right operand needs strictly higher precedence;
    # comparisons do not associate at all, so neither operand may be one
    left = p + 1 if t.fn in COMPARE_OPS or t.fn in EQUALITY_OPS else p
    s = f"{render_term(t.args[0], left, rename)}{t.fn}{render_term(t.args[1], p + 1, rename)}"
    return f"({s})" if p < prec else s


def render_constraint(c: Constraint, rename=None) -> str:
    if isinstance(c, Chr):
        if not c.args:
            return c.pred
        args = ",".join(render_term(a, 0, rename) for a in c.args)
        return f"{c.pred}({args})"
    return f"{render_term(c.lhs, 0, rename)}={render_term(c.rhs, 0, rename)}"
