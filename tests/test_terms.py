import copy
import pickle
import random
from collections import Counter

import pytest

from chrkit.syntax import parse_term_text
from chrkit.terms import (App, Chr, Const, Eq, EvalError, Var, apply_subst,
                          entails, eval_ground, holds, instantiate, match, mgu,
                          render_constraint, render_term, vars_of)

from reference_mgu import reference_mgu


def gcd_pat(v):
    return Chr("Gcd", (Var(v),))


def gcd_val(n):
    return Chr("Gcd", (Const(n),))


# ------------------------------------------------------------- matching

def test_match_binds_pattern_variable_to_constant():
    assert match(gcd_pat("n"), gcd_val(3), {}) == {"n": Const(3)}


def test_match_conflicting_binding_fails():
    pat = Chr("A", (Var("x"), Var("x")))
    cand = Chr("A", (Const(1), Const(2)))
    assert match(pat, cand, {}) is None


def test_match_binds_pattern_variable_to_store_variable():
    pat = Chr("Get", (Var("x"),))
    cand = Chr("Get", (Var("m"),))
    assert match(pat, cand, {}) == {"x": Var("m")}


def test_match_never_binds_store_variables():
    # a ground pattern argument cannot narrow a store variable
    pat = Chr("Get", (Const(1),))
    cand = Chr("Get", (Var("m"),))
    assert match(pat, cand, {}) is None


def test_match_respects_seed_bindings():
    pat = Chr("Put", (Var("y"),))
    assert match(pat, Chr("Put", (Const(1),)), {"y": Const(2)}) is None
    assert match(pat, Chr("Put", (Const(1),)), {"y": Const(1)}) == {"y": Const(1)}


def test_match_wrong_predicate_or_arity():
    assert match(Chr("A", (Var("x"),)), Chr("B", (Const(1),)), {}) is None
    assert match(Chr("A", (Var("x"),)), Chr("A", ()), {}) is None


def _random_ground_term(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return Const(rng.randrange(-20, 20))
    op = rng.choice(["+", "-", "*"])
    return App(op, (_random_ground_term(rng, depth - 1),
                    _random_ground_term(rng, depth - 1)))


def _random_pattern(rng, depth, names):
    if depth == 0 or rng.random() < 0.5:
        if rng.random() < 0.5:
            return Var(rng.choice(names))
        return Const(rng.randrange(-5, 5))
    op = rng.choice(["+", "-", "*"])
    return App(op, (_random_pattern(rng, depth - 1, names),
                    _random_pattern(rng, depth - 1, names)))


def test_match_soundness_randomized():
    # whenever match succeeds, applying the result to the pattern gives the
    # candidate back syntactically
    rng = random.Random(7)
    names = ["x", "y", "z"]
    for _ in range(300):
        pat = Chr("P", tuple(_random_pattern(rng, 2, names) for _ in range(2)))
        phi = {n: _random_ground_term(rng, 1) for n in names}
        cand = apply_subst(phi, pat)
        got = match(pat, cand, {})
        assert got is not None
        assert apply_subst(got, pat) == cand


# ----------------------------------------------------------- apply_subst

def test_apply_subst_on_equation():
    s = {"x": Const(1), "y": Const(8)}
    assert apply_subst(s, Eq(Var("x"), Var("y"))) == Eq(Const(1), Const(8))


def test_apply_subst_identity():
    g = Chr("Gcd", (Var("m"),))
    assert apply_subst({}, g) == g


def test_apply_subst_does_not_evaluate():
    s = {"m": Const(9), "n": Const(3)}
    body = Chr("Gcd", (App("-", (Var("m"), Var("n"))),))
    assert apply_subst(s, body) == Chr("Gcd", (App("-", (Const(9), Const(3))),))


def test_normalize_evaluates_ground_arithmetic():
    t = App("-", (Const(9), Const(3)))
    assert instantiate({}, t) == Const(6)
    symbolic = App("+", (Var("m"), Const(0)))
    assert instantiate({}, symbolic) == symbolic


# ------------------------------------------------------------------ mgu

def test_mgu_single_assignment():
    assert mgu([Eq(Var("a"), Const(2))]) == {"a": Const(2)}


def test_mgu_empty():
    assert mgu([]) == {}


def test_mgu_clash():
    assert mgu([Eq(Var("x"), Const(1)), Eq(Var("x"), Const(2))]) is None


def test_mgu_occurs_check():
    t = App("+", (Var("x"), Const(1)))
    assert mgu([Eq(Var("x"), t)]) is None


def test_mgu_var_var_and_structure():
    got = mgu([Eq(Var("x"), Var("y")), Eq(Var("y"), Const(3))])
    assert apply_subst(got, Var("x")) == Const(3)
    assert apply_subst(got, Var("y")) == Const(3)


def test_mgu_idempotent_randomized():
    rng = random.Random(13)
    names = ["a", "b", "c", "d"]
    for _ in range(200):
        eqs = []
        for _ in range(rng.randrange(1, 4)):
            lhs = Var(rng.choice(names))
            rhs = (_random_pattern(rng, 1, names) if rng.random() < 0.7
                   else Var(rng.choice(names)))
            eqs.append(Eq(lhs, rhs))
        theta = mgu(eqs)
        if theta is None:
            continue
        probe = Chr("P", tuple(Var(n) for n in names))
        once = apply_subst(theta, probe)
        assert apply_subst(theta, once) == once
        assert all(theta[k] != Var(k) for k in theta)


def _differential_term(rng, depth):
    roll = rng.random()
    if roll < 0.5:
        return Var(rng.choice("abcdef"))
    if roll < 0.75 or depth == 0:
        return rng.choice((Const(0), Const(1), Const(True), Const("k")))
    return App(rng.choice("+*"), (_differential_term(rng, depth - 1),
                                  _differential_term(rng, depth - 1)))


def _differential_equations(rng):
    """Equation lists over six variables: variable chains, occurs-check
    failures, clashes of constants of one or two kinds and of constants
    with applications, and applications to decompose."""
    eqs = []
    for _ in range(rng.randrange(1, 6)):
        roll = rng.random()
        if roll < 0.2:
            chain = rng.sample("abcdef", rng.randrange(2, 5))
            eqs.extend(Eq(Var(a), Var(b)) for a, b in zip(chain, chain[1:]))
        elif roll < 0.27:
            x = Var(rng.choice("abcdef"))
            eqs.append(Eq(x, App("+", (_differential_term(rng, 1), x))))
        else:
            eqs.append(Eq(_differential_term(rng, 2),
                          _differential_term(rng, 2)))
    return eqs


def test_mgu_matches_the_rewrite_every_binding_reference():
    """The triangular mgu returns the reference's dict, bindings and key
    order alike, and None exactly when it does."""
    rng = random.Random(23)
    seen = Counter()
    for _ in range(100_000):
        eqs = _differential_equations(rng)
        got, want = mgu(eqs), reference_mgu(eqs)
        if want is None:
            assert got is None, eqs
        else:
            assert got is not None and list(got.items()) == list(want.items()), eqs
            seen["applications"] += any(t.__class__ is App
                                        for t in want.values())
        seen[want is None] += 1
    assert min(seen.values()) > 5000, seen


CHAIN = [Eq(Var(f"x{i}"), Var(f"x{i - 1}")) for i in range(1, 3001)]


def test_mgu_of_a_3000_link_chain_in_either_order():
    """No walk, occurs check or resolution recurses along a chain.  The
    equations are taken from the end of the list, so a chain given forwards
    binds x3000 first."""
    backwards = [f"x{i}" for i in range(3000, 0, -1)]
    for eqs, order in ((CHAIN, backwards), (CHAIN[::-1], backwards[::-1])):
        got = mgu(eqs)
        assert list(got) == order
        assert set(got.values()) == {Var("x0")}
        ground = mgu(eqs + [Eq(Var("x0"), Const(7))])
        assert len(ground) == 3001 and set(ground.values()) == {Const(7)}
        loop = Eq(App("+", (Var("x3000"), Const(1))), Var("x0"))
        assert mgu([loop] + eqs) is None
        assert mgu(eqs + [loop]) is None


# ----------------------------------------------------------- eval_ground

def test_eval_guard_conjunction():
    g = App("&&", (App(">=", (Const(9), Const(3))),
                   App(">", (Const(3), Const(0)))))
    assert eval_ground(g) is True


def test_eval_false_comparison():
    assert eval_ground(App(">", (Const(0), Const(0)))) is False


def test_eval_subtraction():
    assert eval_ground(App("-", (Const(9), Const(3)))) == 6


def test_eval_type_mismatch():
    with pytest.raises(EvalError):
        eval_ground(App("&&", (Const(1), Const(2))))


def test_eval_non_ground():
    with pytest.raises(EvalError):
        eval_ground(App("+", (Var("x"), Const(1))))


def test_eval_overflow_is_an_error():
    big = Const((1 << 62))
    with pytest.raises(EvalError):
        eval_ground(App("*", (big, Const(4))))


def test_eval_atoms_compare_lexicographically():
    assert eval_ground(App("<", (Const("a"), Const("b")))) is True
    assert eval_ground(App("<", (Const("b"), Const("a")))) is False


def test_bool_and_int_constants_are_distinct():
    assert Const(True) != Const(1)
    assert Const(False) != Const(0)
    # the hash is the value's: True and 1 collide but stay unequal
    assert hash(Const(True)) == hash(Const(1))
    assert len({Const(True), Const(1)}) == 2


def test_eval_totality_on_well_typed_ground_terms():
    # arithmetic-only ground terms of depth <= 4 always evaluate
    rng = random.Random(21)
    for _ in range(500):
        t = _random_ground_term(rng, 4)
        v = eval_ground(t)
        assert isinstance(v, int)


# --------------------------------------------------------------- entails

def test_entails_guard_instantiated_by_matching():
    guard = App("&&", (App(">=", (Var("m"), Var("n"))),
                       App(">", (Var("n"), Const(0)))))
    assert entails([], {"m": Const(9), "n": Const(3)}, guard) is True


def test_entails_trivial_true():
    assert entails([], {}, Const(True)) is True


def test_entails_uses_equation_store():
    # oracle: substituting a=2 by hand gives 2>1, which holds
    assert entails([Eq(Var("a"), Const(2))], {"x": Var("a")},
                   App(">", (Var("x"), Const(1)))) is True


def test_entails_non_ground_guard_is_false():
    assert entails([], {"x": Var("m")}, App(">", (Var("x"), Const(1)))) is False


def test_entails_inconsistent_equations_is_false():
    eqs = [Eq(Var("x"), Const(1)), Eq(Var("x"), Const(2))]
    assert entails(eqs, {}, Const(True)) is False


def test_entails_monotone_under_consistent_extension():
    rng = random.Random(5)
    guard = App(">", (Var("x"), Const(1)))
    for k in range(100):
        base = [Eq(Var("a"), Const(rng.randrange(2, 30)))]
        phi = {"x": Var("a")}
        assert entails(base, phi, guard)
        # extend with equations over fresh variables only
        ext = base + [Eq(Var(f"f{k}_{i}"), Const(rng.randrange(100)))
                      for i in range(rng.randrange(1, 4))]
        if mgu(ext) is not None:
            assert entails(ext, phi, guard)


# ------------------------------------------------------------- rendering

def test_render_minimal_parens():
    t = App("&&", (App(">=", (Var("m"), Var("n"))),
                   App(">", (Var("n"), Const(0)))))
    assert render_term(t) == "m>=n&&n>0"
    assert render_term(App("*", (App("+", (Var("a"), Var("b"))), Var("c")))) \
        == "(a+b)*c"


def test_render_constraints():
    assert render_constraint(Chr("Gcd", (Const(3),))) == "Gcd(3)"
    assert render_constraint(Chr("P")) == "P"
    assert render_constraint(Eq(Var("x1"), Const(1))) == "x1=1"
    assert render_constraint(Chr("L", (Const("a"), Const("b")))) == "L('a','b')"


# ------------------------------------------------------- value contract

@pytest.mark.parametrize("value,field", [
    (Var("x"), "name"), (Const(1), "value"),
    (App("+", (Var("x"), Const(1))), "fn"), (Chr("A", (Const(1),)), "args"),
    (Eq(Var("x"), Const(1)), "lhs"),
])
def test_terms_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, Const(2))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1  # no other attribute either


def test_terms_equal_by_exact_class_and_fields():
    assert Var("x") != Const("x") and Const("x") != Var("x")
    # a Chr and an Eq over the same field values
    assert Chr("A", ()) != Eq("A", ()) and Eq("A", ()) != Chr("A", ())
    assert App("+", (Var("x"), Const(1))) == App("+", (Var("x"), Const(1)))
    assert App("+", (Var("x"), Const(1))) != App("-", (Var("x"), Const(1)))
    assert Chr("A", (Var("x"),)) != Chr("B", (Var("x"),))
    assert Eq(Var("x"), Const(1)) != Eq(Const(1), Var("x"))


def test_term_hashes_are_the_hashes_of_their_field_tuples():
    # the values frozen dataclasses hashed to, which set and dict orders,
    # and so traces, depend on
    args = (Const(1), Var("x"))
    assert hash(Chr("A", args)) == hash(("A", args))
    assert hash(Var("x")) == hash(("x",))
    assert hash(App("+", args)) == hash(("+", args))
    assert hash(Eq(Var("x"), Const(1))) == hash((Var("x"), Const(1)))
    assert hash(Const(7)) == hash(7)


def test_app_validates_symbol_and_arity():
    with pytest.raises(ValueError, match="unknown function symbol"):
        App("^", (Const(1), Const(2)))
    with pytest.raises(ValueError, match="expects 2 arguments, got 3"):
        App("+", (Const(1), Const(2), Const(3)))


def test_terms_repr_copy_and_pickle():
    t = Chr("A", (App("+", (Var("x"), Const(1))), Const(True)))
    assert repr(t) == ("Chr(pred='A', args=(App(fn='+', args=(Var(name='x'), "
                       "Const(value=1))), Const(value=True)))")
    for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and hash(other) == hash(t)


DEEP = 10_000


def left_chain():
    """x+1+...+1, DEEP applications deep along the left argument."""
    t = Var("x")
    for _ in range(DEEP):
        t = App("+", (t, Const(1)))
    return t


def right_nest():
    """1-(1-(...(1-x))), DEEP applications deep along the right argument."""
    t = Var("x")
    for _ in range(DEEP):
        t = App("-", (Const(1), t))
    return t


@pytest.mark.parametrize("build", [left_chain, right_nest])
def test_deep_terms_compare_and_hash_without_recursing(build):
    """Two equal terms built apart compare, hash and serve as a dict key
    (inside a constraint, as the store's index keys them) at any depth."""
    t, u = build(), build()
    assert t is not u and t == u and hash(t) == hash(u)
    assert not t != u
    other = App(t.fn, (t.args[0], Const(2)) if build is left_chain
                else (Const(2), t.args[1]))
    assert t != other and other != t
    index = {Chr("A", (t,)): "found"}
    assert index[Chr("A", (u,))] == "found"
    assert Chr("A", (other,)) not in index


@pytest.mark.parametrize("build,value", [(left_chain, DEEP), (right_nest, 0)])
def test_deep_terms_walk_without_recursing(build, value):
    """Every walk over a term takes any depth at the default recursion
    limit: variables, substitution, instantiation, guard evaluation, and
    printing and reading back."""
    t = build()
    assert vars_of(t) == {"x"} and vars_of(Chr("A", (t, t))) == {"x"}
    zero = {"x": Const(0)}
    grounded = apply_subst(zero, t)
    assert vars_of(grounded) == set() and grounded != t
    assert apply_subst({"y": Const(0)}, t) == t
    assert instantiate(zero, Chr("A", (t,))) == Chr("A", (Const(value),))
    assert instantiate({}, grounded) == Const(value)
    assert holds({}, zero, App("==", (t, Const(value))))
    assert holds(zero, {}, App("==", (t, Const(value))))
    assert not holds({}, {}, App("==", (t, Const(value))))  # not ground
    assert eval_ground(grounded) == value
    assert parse_term_text(render_term(t)) == t


@pytest.mark.parametrize("build,head,tail", [
    (left_chain, "App(fn='+', args=(", ", Const(value=1)))"),
    (right_nest, "App(fn='-', args=(Const(value=1), ", "))")])
def test_deep_terms_repr_without_recursing(build, head, tail):
    """repr of a term DEEP applications deep is the text repr gives a
    shallow one, level by level, at the default recursion limit."""
    text = head * DEEP + "Var(name='x')" + tail * DEEP
    assert repr(build()) == text
    assert repr(Chr("A", (build(),))) == f"Chr(pred='A', args=({text},))"


@pytest.mark.parametrize("build", [left_chain, right_nest])
def test_deep_terms_pickle_and_copy_without_recursing(build):
    """A term DEEP applications deep pickles to an equal term, in every
    protocol, and copies to itself: it is immutable."""
    t = build()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(Chr("A", (t,)), protocol))
        assert back == Chr("A", (t,)) and back.args[0] is not t
        assert back.args[0].depth == DEEP
    assert copy.deepcopy(t) is t and copy.copy(t) is t
    assert copy.deepcopy(Chr("A", (t,))).args[0] is t
