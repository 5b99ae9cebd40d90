"""The term kernel on the firing path against the definitions it replaces.

`holds` evaluates a guard in place, `instantiate` substitutes and
normalizes in one pass, `match` binds variable arguments inline and `Const`
compares without tuples.  Each is checked here against the plain
definition it stands for, kept below as the reference: substitute, then
evaluate or normalize, over seeded random terms.  Results are compared as
trees that spell out every constant's value class, so the comparison does
not lean on `Const.__eq__` either.
"""
import random

import pytest

from chrkit.syntax import load_program
from chrkit.terms import (FUNCTION_SYMBOLS, INT64_MAX, INT64_MIN, App, Chr,
                          Const, Eq, EvalError, Var, apply_subst, eval_ground,
                          holds, instantiate, match, normalize_constraint,
                          vars_of)

from conftest import PROGRAMS

# ------------------------------------------------------------ references


def ref_kind(v):
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    return "atom"


def ref_eval(t):
    """eval_ground as a recursion over the built term."""
    if isinstance(t, Var):
        raise EvalError(f"non-ground term: variable {t.name}")
    if isinstance(t, Const):
        return t.value
    a, b = ref_eval(t.args[0]), ref_eval(t.args[1])
    ka, kb, fn = ref_kind(a), ref_kind(b), t.fn
    if fn in ("+", "-", "*"):
        if ka != "int" or kb != "int":
            raise EvalError("arith")
        r = a + b if fn == "+" else a - b if fn == "-" else a * b
        if not (INT64_MIN <= r <= INT64_MAX):
            raise EvalError("overflow")
        return r
    if fn in (">", ">=", "<", "<="):
        if ka != kb or ka == "bool":
            raise EvalError("compare")
        return {">": a > b, ">=": a >= b, "<": a < b, "<=": a <= b}[fn]
    if fn in ("==", "!="):
        if ka != kb:
            raise EvalError("equality")
        return (a == b) if fn == "==" else (a != b)
    if ka != "bool" or kb != "bool":
        raise EvalError("bool")
    return (a and b) if fn == "&&" else (a or b)


def ref_holds(theta, phi, guard):
    try:
        return ref_eval(apply_subst(theta, apply_subst(phi, guard))) is True
    except EvalError:
        return False


def ref_normalize_term(t):
    if not isinstance(t, App):
        return t
    args = tuple(ref_normalize_term(a) for a in t.args)
    t2 = App(t.fn, args)
    if all(isinstance(a, Const) for a in args):
        try:
            return Const(ref_eval(t2))
        except EvalError:
            return t2
    return t2


def ref_instantiate(phi, c):
    c = apply_subst(phi, c)
    if isinstance(c, Chr):
        return Chr(c.pred, tuple(ref_normalize_term(a) for a in c.args))
    return Eq(ref_normalize_term(c.lhs), ref_normalize_term(c.rhs))


def ref_match_term(pattern, cand, subst):
    if isinstance(pattern, Var):
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = cand
            return True
        return tree(bound) == tree(cand)
    if isinstance(pattern, Const):
        return isinstance(cand, Const) and tree(pattern) == tree(cand)
    return (isinstance(cand, App) and cand.fn == pattern.fn
            and all(ref_match_term(p, c, subst)
                    for p, c in zip(pattern.args, cand.args)))


def ref_match(pattern, candidate, seed):
    if (pattern.pred != candidate.pred
            or len(pattern.args) != len(candidate.args)):
        return None
    subst = dict(seed)
    for p, c in zip(pattern.args, candidate.args):
        if not ref_match_term(p, c, subst):
            return None
    return subst


def tree(x):
    """x as nested tuples naming each constant's value class."""
    if isinstance(x, Var):
        return ("var", x.name)
    if isinstance(x, Const):
        return ("const", x.value.__class__.__name__, x.value)
    if isinstance(x, App):
        return (x.fn, tree(x.args[0]), tree(x.args[1]))
    if isinstance(x, Chr):
        return (x.pred, tuple(tree(a) for a in x.args))
    if isinstance(x, Eq):
        return ("=", tree(x.lhs), tree(x.rhs))
    return {k: tree(v) for k, v in x.items()}  # a substitution


# ------------------------------------------------------------- generators

VALUES = (INT64_MIN, INT64_MIN + 1, INT64_MAX, INT64_MAX - 1, -1, 0, 1, 2,
          True, False, "a", "b")
GUARD_VARS = ("x", "y", "z", "u")
THETA_VARS = ("s", "t")  # store variables the equations bind


def rand_const(rng):
    return Const(rng.choice(VALUES))


def rand_term(rng, depth, names):
    if depth == 0 or rng.random() < 0.35:
        return Var(rng.choice(names)) if rng.random() < 0.5 else rand_const(rng)
    return App(rng.choice(FUNCTION_SYMBOLS),
               (rand_term(rng, depth - 1, names),
                rand_term(rng, depth - 1, names)))


def rand_binding(rng):
    """A store term: a constant, an application over constants and store
    variables, a variable theta binds, or one it does not."""
    roll = rng.random()
    if roll < 0.45:
        return rand_const(rng)
    if roll < 0.7:
        return App(rng.choice(FUNCTION_SYMBOLS),
                   (rand_term(rng, 1, THETA_VARS + ("q",)),
                    rand_term(rng, 1, THETA_VARS)))
    if roll < 0.85:
        return Var(rng.choice(THETA_VARS))
    return Var("q")  # unbound everywhere


def rand_phi(rng, names):
    return {n: rand_binding(rng) for n in names if rng.random() < 0.85}


def rand_theta(rng):
    theta = {}
    for n in THETA_VARS:
        if rng.random() < 0.7:
            theta[n] = (rand_const(rng) if rng.random() < 0.7 else
                        App(rng.choice(("+", "-", "*")),
                            (rand_const(rng), rand_const(rng))))
    if rng.random() < 0.3:  # a guard variable phi leaves to the equations
        theta["u"] = rand_const(rng)
    if rng.random() < 0.15:  # not idempotent: theta is still applied once
        theta[rng.choice("tu")] = App("+", (Var("s"), rand_const(rng)))
    return theta


# ----------------------------------------------------------------- guards

def test_holds_agrees_with_substitute_then_evaluate():
    rng = random.Random(20240915)
    outcomes, tops = {True: 0, False: 0}, set()
    for _ in range(8000):
        guard = rand_term(rng, rng.choice((1, 1, 2, 3)), GUARD_VARS)
        if not isinstance(guard, App):
            continue
        phi, theta = rand_phi(rng, GUARD_VARS), rand_theta(rng)
        want = ref_holds(theta, phi, guard)
        assert holds(theta, phi, guard) is want, (guard, phi, theta)
        outcomes[want] += 1
        tops.add(guard.fn)
    assert outcomes[True] > 150 and outcomes[False] > 4000, outcomes
    assert tops == set(FUNCTION_SYMBOLS)


def test_eval_ground_agrees_with_the_recursion_on_ground_terms():
    rng = random.Random(5)
    errors = 0
    for _ in range(4000):
        t = rand_term(rng, rng.randrange(0, 4), GUARD_VARS)
        t = apply_subst({n: rand_const(rng) for n in GUARD_VARS}, t)
        try:
            want = ("value", ref_kind(ref_eval(t)), ref_eval(t))
        except EvalError:
            want, errors = "error", errors + 1
        try:
            v = eval_ground(t)
            got = ("value", ref_kind(v), v)
        except EvalError:
            got = "error"
        assert got == want, t
    assert 500 < errors < 3500


@pytest.mark.parametrize("guard,phi,theta,want", [
    (App(">=", (Var("x"), Const(0))), {"x": Const(True)}, {}, False),
    (App(">=", (Var("x"), Const(0))), {"x": Const(1)}, {}, True),
    (App("==", (Var("x"), Const(1))), {"x": Const(True)}, {}, False),
    (App("+", (Var("x"), Const(0))), {"x": Const(INT64_MAX)}, {}, False),
    (App("<", (Var("x"), Const(INT64_MAX))),
     {"x": App("+", (Var("s"), Const(1)))}, {"s": Const(INT64_MAX - 2)}, True),
    (App("<", (Var("x"), Const(INT64_MAX))),
     {"x": App("+", (Var("s"), Const(1)))}, {"s": Const(INT64_MAX)}, False),
    (App(">", (Var("x"), Var("y"))), {"x": Var("s")}, {"s": Const(2),
                                                        "y": Const(1)}, True),
    (App(">", (Var("x"), Const(0))), {"x": Var("q")}, {"s": Const(2)}, False),
    (App("||", (Const(True), App("+", (Const("a"), Const(1))))), {}, {}, False),
    (App("<", (Var("x"), Const("b"))), {"x": Const("a")}, {}, True),
])
def test_holds_cases(guard, phi, theta, want):
    assert holds(theta, phi, guard) is want
    assert ref_holds(theta, phi, guard) is want


def test_every_program_guard_agrees_with_substitute_then_evaluate():
    rng = random.Random(11)
    guards = 0
    for path in sorted(PROGRAMS.glob("*.chr")):
        for rule in load_program(path.read_text()).rules:
            names = sorted(vars_of(rule.guard))
            guards += 1
            for _ in range(300):
                phi, theta = rand_phi(rng, names), rand_theta(rng)
                assert (holds(theta, phi, rule.guard)
                        is ref_holds(theta, phi, rule.guard)), (path, rule.name)
            for values in ((1, 0), (0, 1), (3, 3), (INT64_MAX, INT64_MIN)):
                phi = {n: Const(v) for n, v in zip(names, values)}
                assert (holds({}, phi, rule.guard)
                        is ref_holds({}, phi, rule.guard)), (path, rule.name)
    assert guards >= 10


# ----------------------------------------------------------------- bodies

def rand_constraint(rng):
    if rng.random() < 0.2:
        return Eq(rand_term(rng, 2, GUARD_VARS), rand_term(rng, 2, GUARD_VARS))
    return Chr("P", tuple(rand_term(rng, rng.randrange(0, 4), GUARD_VARS)
                          for _ in range(rng.randrange(0, 4))))


def test_instantiate_agrees_with_substitute_then_normalize():
    rng = random.Random(77)
    symbolic = 0
    for _ in range(4000):
        c, phi = rand_constraint(rng), rand_phi(rng, GUARD_VARS)
        got, want = instantiate(phi, c), ref_instantiate(phi, c)
        assert tree(got) == tree(want), (c, phi)
        assert got == want
        assert tree(normalize_constraint(c)) == tree(ref_instantiate({}, c))
        symbolic += any(isinstance(a, App) and not vars_of(a)
                        for a in getattr(want, "args", ()))
    assert symbolic > 300  # ill-typed and overflowing ground terms abound


@pytest.mark.parametrize("term", [
    App("+", (Const("a"), Const(1))),
    App("+", (Const(True), Const(1))),
    App("+", (Const(INT64_MAX), Const(1))),
    App("-", (Const(INT64_MIN), Const(1))),
    App("*", (App("+", (Const(2), Const(3))), Const("a"))),
])
def test_ill_typed_and_overflowing_applications_stay_symbolic(term):
    c = Chr("P", (Var("x"),))
    got = instantiate({"x": term}, c)
    assert tree(got) == tree(ref_instantiate({"x": term}, c))
    assert isinstance(got.args[0], App)
    assert tree(instantiate({}, Chr("P", (term,)))) == tree(got)


def test_instantiate_evaluates_and_keeps_what_does_not_change():
    body = Chr("Merge", (App("+", (Var("n"), Const(1))), Var("a")))
    got = instantiate({"n": Const(1), "a": Const(5)}, body)
    assert tree(got) == tree(Chr("Merge", (Const(2), Const(5))))
    normal = Chr("P", (Const(1), App("+", (Var("s"), Const(1)))))
    assert instantiate({}, normal) is normal
    assert instantiate({"x": Const(3)}, normal) is normal


# --------------------------------------------------------------- matching

def test_match_agrees_with_the_recursive_definition():
    rng = random.Random(31)
    names = ("x", "y")  # few names: variables repeat within a pattern
    matched = 0
    for _ in range(5000):
        pat = Chr("P", tuple(rand_term(rng, rng.randrange(0, 3), names)
                             for _ in range(3)))
        if rng.random() < 0.6:  # an instance of the pattern, often
            cand = apply_subst({n: rand_binding(rng) for n in names}, pat)
        else:
            cand = Chr("P", tuple(rand_term(rng, 1, THETA_VARS + names)
                                  for _ in range(3)))
        seed = rand_phi(rng, names) if rng.random() < 0.3 else {}
        got, want = match(pat, cand, seed), ref_match(pat, cand, seed)
        assert (got is None) == (want is None), (pat, cand, seed)
        if want is not None:
            assert tree(got) == tree(want)
            matched += 1
    assert matched > 1000


def test_match_repeated_variable_tells_true_from_1():
    pat = Chr("P", (Var("x"), Var("x")))
    assert match(pat, Chr("P", (Const(True), Const(1))), {}) is None
    assert match(pat, Chr("P", (Const(1), Const(1))), {}) == {"x": Const(1)}
    assert match(pat, Chr("P", (Const(1), Const(2))), {}) is None


# -------------------------------------------------------------- constants

def test_true_and_1_are_distinct_constants():
    assert Const(True) != Const(1)
    assert Const(False) != Const(0)
    assert len({Const(True), Const(1)}) == 2
    assert len({Const(1), Const(1), Const(True), Const(True)}) == 2
    assert Const(1) == Const(1) and hash(Const(1)) == hash(Const(1))
    assert Const("a") != Var("a") and Const(1) != 1

