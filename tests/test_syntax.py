import pickle
import random
import re
import string

import pytest

from chrkit.abstract import AbstractStore, LimitExceeded, final_stores
from chrkit.concurrent import EngineConfig, run_concurrent
from chrkit.sequential import run_sequential
from chrkit.syntax import (MAX_TERM_DEPTH, ParseError, lex, load_program,
                           parse_constraint_text, parse_goals, parse_program,
                           parse_term_text)
from chrkit.terms import (FUNCTION_SYMBOLS, INT64_MAX, INT64_MIN, App, Chr,
                          Const, Eq, Var, render_constraint, render_term,
                          vars_of)
from chrkit.trace import TraceFormatError, parse_trace, serialize_trace
from chrkit.verify import verify_run

from conftest import (REFERENCE_SYMBOLS, equation_fuzz_case, fuzz_case,
                      program_text, reference_lex)


def test_parse_simpagation_rule():
    p = parse_program("gcd2 @ Gcd(n) \\ Gcd(m) <=> m>=n && n>0 | Gcd(m-n).")
    r = p.rules[0]
    assert r.name == "gcd2"
    assert [c.pred for c in r.propagated] == ["Gcd"]
    assert [c.pred for c in r.simplified] == ["Gcd"]
    assert len(r.body) == 1 and r.body[0].pred == "Gcd"


def test_parse_simplification_rule_empty_body():
    p = parse_program("gcd1 @ Gcd(0) <=> true.")
    r = p.rules[0]
    assert r.propagated == ()
    assert [c.pred for c in r.simplified] == ["Gcd"]
    assert r.body == ()
    assert r.guard == Const(True)


def test_parse_propagation_rule():
    p = parse_program("r1 @ P ==> Q.")
    r = p.rules[0]
    assert [c.pred for c in r.propagated] == ["P"]
    assert r.simplified == ()
    assert [c.pred for c in r.body] == ["Q"]


def test_parse_body_equation():
    p = parse_program("get @ Get(x), Put(y) <=> x=y.")
    r = p.rules[0]
    assert isinstance(r.body[0], Eq)


def test_rules_and_programs_are_immutable_values():
    p = load_program(program_text("gcd"))
    r = p.rules[1]
    for value, field in ((r, "name"), (r, "heads"), (p, "rules"),
                         (p, "occurrences")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    # heads and body variables are worked out once, when the rule is built
    assert [(h.role, h.pos, h.pattern) for h in r.heads] == [
        ("propagated", 0, Chr("Gcd", (Var("n"),))),
        ("simplified", 0, Chr("Gcd", (Var("m"),)))]
    assert r.head_vars == {"m", "n"} and r.body_vars == ("m", "n")
    # equal and hashed by their fields; the occurrence table is derived
    again = load_program(program_text("gcd"))
    assert again == p and again.rules[1] is not r
    assert hash(again) == hash(p) == hash((p.rules,))
    assert hash(r) == hash((r.name, r.propagated, r.simplified, r.guard,
                            r.body, r.index))
    copied = pickle.loads(pickle.dumps(p))
    assert copied == p and copied.occurrences == p.occurrences


def test_parse_goals_multiset():
    goals = parse_goals("Gcd(3),Gcd(3),Gcd(9)")
    assert len(goals) == 3
    assert goals[0] == goals[1]


def test_parse_goals_empty():
    assert parse_goals("") == ()
    assert parse_goals("   \n") == ()


def test_parse_goals_channel():
    goals = parse_goals("Get(m),Put(1),Get(n),Put(8)")
    assert len(goals) == 4
    assert goals[0] == Chr("Get", (Var("m"),))


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_program("r1 @ Gcd(n <=> true.")
    assert "line 1" in str(err.value)


def test_duplicate_rule_names_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("a @ P <=> true.\na @ Q <=> true.")


def test_unbound_guard_variable_rejected():
    with pytest.raises(ParseError, match="not bound"):
        parse_program("a @ P(x) <=> y>0 | true.")


def test_unbound_body_variable_rejected():
    with pytest.raises(ParseError, match="not bound"):
        parse_program("a @ P(x) <=> Q(z).")


def test_head_equation_rejected():
    with pytest.raises(ParseError):
        parse_program("a @ x=1 <=> true.")


def test_integer_literals_stay_in_64_bit_range():
    assert parse_goals("A(-9223372036854775808),A(9223372036854775807)") == (
        Chr("A", (Const(-(1 << 63)),)), Chr("A", (Const((1 << 63) - 1),)))
    for text in ("A(-9223372036854775809)", "A(9223372036854775808)",
                 "A(-99999999999999999999999)"):
        with pytest.raises(ParseError, match="64-bit range"):
            parse_goals(text)


def test_comments_and_whitespace_are_insignificant():
    text = "% comment\n  a @ P <=>\n   true.  % trailing\n"
    assert len(parse_program(text).rules) == 1


def _named_like_goal_variables(rng, text):
    """A fuzz program with each rule's variables v<rule>x<k> renamed to a
    seeded choice of distinct goal variable names, u, w and z."""
    names: dict[str, list[str]] = {}

    def rename(m):
        return names.setdefault(m[1], rng.sample("uwz", 3))[int(m[2])]

    return re.sub(r"\bv(\d+)x(\d+)\b", rename, text)


def test_rule_variables_may_share_names_with_goal_variables():
    """Rule variables keep their names, so they may be named as goal
    variables are: the renamed program gives the original's dumps on both
    engines, traces that verify (their phi keys are the new names) and the
    original's final stores."""
    rng = random.Random(27)
    cases = ([fuzz_case(rng) for _ in range(300)]
             + [equation_fuzz_case(rng) for _ in range(300)])
    runs = (run_sequential,
            lambda goals, p: run_concurrent(goals, p, EngineConfig(workers=1)))
    shared = decided = 0
    for text, goal_text in cases:
        renamed = _named_like_goal_variables(rng, text)
        goals = parse_goals(goal_text)
        original, p = load_program(text), load_program(renamed)
        assert renamed != text
        shared += any(r.head_vars & vars_of(g) for r in p.rules for g in goals)
        for concurrent, run in enumerate(runs):
            want, res = run(goals, original), run(goals, p)
            dump = res.state.store.dump()
            assert dump == want.state.store.dump(), renamed
            trace = serialize_trace(res.trace, {}, res.status, dump)
            assert all(v.passed for v in verify_run(trace, goals, p,
                                                    bool(concurrent))), renamed
        try:
            want = final_stores(AbstractStore.from_constraints(goals),
                                original, max_states=5_000)
        except LimitExceeded:
            continue
        assert final_stores(AbstractStore.from_constraints(goals), p,
                            max_states=5_000) == want, renamed
        decided += 1
    assert shared > 100 and decided > 500, (shared, decided)


def test_occurrence_table_gcd():
    p = load_program(program_text("gcd"))
    occ = [(o.rule.index, o.role, o.pos) for o in p.occurrences["Gcd"]]
    # enumerated by hand from the two rules, top to bottom then left to right
    assert occ == [(0, "simplified", 0), (1, "propagated", 0), (1, "simplified", 0)]


def test_occurrence_table_empty_program():
    assert load_program("").occurrences == {}


def test_occurrence_table_mergesort_grouped_by_predicate():
    p = load_program(program_text("mergesort"))
    leq = [(o.rule.index, o.role, o.pos) for o in p.occurrences["Leq"]]
    merge = [(o.rule.index, o.role, o.pos) for o in p.occurrences["Merge"]]
    assert leq == [(0, "propagated", 0), (0, "simplified", 0)]
    assert merge == [(1, "simplified", 0), (1, "simplified", 1)]


def test_join_plan_prefers_indexed_lookup_then_schedules_guard():
    p = load_program(program_text("opt_join"))
    # active position B(x): bind x, fetch A(x,y), test x>y, then fetch C(y)
    occ = next(o for o in p.occurrences["B"])
    assert [e.pattern.pred for e in occ.partners] == ["A", "C"]
    assert occ.guard_at == 1


def test_join_plan_schedules_a_keyed_partner_before_a_compound_argument():
    """B(x+1) has no key, as x+1 is neither a constant nor a bound variable;
    C(x) has one, so C is looked up first and B after it."""
    p = load_program("r @ A(x), B(x+1), C(x) <=> true.")
    occ = next(o for o in p.occurrences["A"])
    assert [e.pattern.pred for e in occ.partners] == ["C", "B"]
    assert occ.keys == (0, None)


def test_join_plan_guard_first_when_active_head_binds_all():
    p = load_program("r @ A(x,y) \\ B(x), C(y) <=> x>y | D.")
    occ = next(o for o in p.occurrences["A"])
    assert occ.guard_at == 0


def test_negative_literals_and_atoms():
    goals = parse_goals("P(-3),Q('ab')")
    assert goals[0] == Chr("P", (Const(-3),))
    assert goals[1] == Chr("Q", (Const("ab"),))


def test_atoms_may_not_contain_trace_delimiters():
    for text in ("P('a b')", "P('a;b')", "P('a\nb')", "P('a\tb')",
                 "P('\u2028')"):
        with pytest.raises(ParseError, match="atom may not contain"):
            parse_goals(text)
    # the other trace punctuation survives the format, so atoms keep it
    assert parse_goals("P('a}->{b=#1')") == (Chr("P", (Const("a}->{b=#1"),)),)


def test_zero_arity_accepts_parens():
    assert parse_goals("P()") == parse_goals("P")


def test_operator_precedence():
    p = parse_program("r @ A(x,y) <=> x+y*2>x && true | true.")
    guard = p.rules[0].guard
    assert guard.fn == "&&"
    left = guard.args[0]
    assert left.fn == ">"
    assert left.args[0].fn == "+"
    assert left.args[0].args[1].fn == "*"


def test_comparisons_do_not_chain():
    for text in ("a<b<c", "a==b!=c", "a<b==c", "x&&a<b<c"):
        with pytest.raises(ParseError):
            parse_term_text(text)
    a, b, c = Var("a"), Var("b"), Var("c")
    assert parse_term_text("(a<b)<c") == App("<", (App("<", (a, b)), c))
    assert parse_term_text("a<b&&b<c") == App(
        "&&", (App("<", (a, b)), App("<", (b, c))))


def _random_term(rng, depth):
    if depth and rng.random() < 0.6:
        return App(rng.choice(FUNCTION_SYMBOLS),
                   (_random_term(rng, depth - 1), _random_term(rng, depth - 1)))
    return rng.choice([
        Const(rng.choice([rng.randrange(-99, 99), INT64_MIN, INT64_MAX])),
        Const(rng.choice(["a", "Zb_1", "x.0", "-"])),
        Const(rng.random() < 0.5),
        Var(rng.choice(["x", "y", "v_3"]))])


def test_render_then_parse_is_the_identity_on_terms():
    rng = random.Random(3)
    nested = 0
    for _ in range(3000):
        t = _random_term(rng, rng.randrange(7))
        assert parse_term_text(render_term(t)) == t
        nested += "(" in render_term(t)
    assert nested > 500  # the printer's parentheses are exercised


def test_non_decimal_digit_is_a_positioned_error():
    # '²' passes str.isdigit() but int() refuses it
    with pytest.raises(ParseError, match="^line 1, col 5: unexpected character '²'"):
        parse_goals("Gcd(²)")
    with pytest.raises(ParseError, match="^line 2, col 4: unexpected character"):
        parse_goals("Gcd(1),\nA(1²)")
    assert parse_goals("Gcd(٣)") == (Chr("Gcd", (Const(3),)),)


# a character or symbol is drawn from a random group, so quotes are common
LEX_GROUPS = (REFERENCE_SYMBOLS, string.ascii_letters, string.digits, "'",
              "%\n\t .", "_é٣²½")


def test_lexer_matches_the_character_scanner():
    """lex gives reference_lex's tokens or error on random text, with one
    intended difference: '²' passes str.isdigit() but int() refuses it, so
    it is no longer a digit.  To the reference, '¾' is such a character
    (alphanumeric, neither letter nor digit), so the expected result is the
    reference's on the text with every '²' written as '¾'."""

    def outcome(lexer, text):
        try:
            return [(t.kind, t.text, t.line, t.col) for t in lexer(text)]
        except ParseError as exc:
            return str(exc)

    rng = random.Random(9)
    fixed = ok = 0
    for _ in range(5000):
        text = "".join(rng.choice(rng.choice(LEX_GROUPS))
                       for _ in range(rng.randrange(12)))
        got = outcome(lex, text)
        want = outcome(reference_lex, text.replace("²", "¾"))
        if isinstance(want, str):
            want = want.replace("¾", "²")
        else:
            want = [(kind, s.replace("¾", "²"), line, col)
                    for kind, s, line, col in want]
        assert got == want, text
        fixed += want != outcome(reference_lex, text)
        ok += isinstance(got, list)
    assert fixed > 50 and ok > 1000  # both the fix and clean text occur


def _nested_goal(depth):
    return "Gcd(" + "x-(" * depth + "1" + ")" * depth + ")"


def test_goal_nested_200_deep_runs_and_verifies_on_both_engines():
    p, goals = load_program(program_text("gcd")), parse_goals(_nested_goal(200))
    for conc, res in ((False, run_sequential(goals, p)),
                      (True, run_concurrent(goals, p, EngineConfig(workers=2)))):
        assert res.status == "done"
        text = serialize_trace(res.trace, {}, res.status, res.state.store.dump())
        verdicts = verify_run(text, goals, p, concurrent=conc)
        assert verdicts and all(v.passed for v in verdicts), verdicts


def test_term_nested_too_deeply_is_a_positioned_error():
    """Program and goal text are bounded; trace text, which a run writes,
    reads back at any depth."""
    deep = _nested_goal(3000)
    for parse, text in ((parse_goals, deep),
                        (parse_program, f"r @ A(x) <=> {deep}.")):
        with pytest.raises(ParseError,
                           match=r"^line 1, col \d+: term nested too deeply"):
            parse(text)
    goal = parse_constraint_text(deep)
    assert parse_term_text(deep[4:-1]) == goal.args[0]
    # a trace holds the printer's text, which writes no parentheses around
    # the innermost 1, and the reader takes no other
    printed = render_constraint(goal)
    assert printed == deep.replace("(1)", "1")
    line = f"0 Activate goal={printed}#1 P={{}} S={{}}"
    step, = parse_trace("# chr-trace v1\n" + line + "\n").steps
    assert (step.goal, step.goal_id) == (goal, 1)
    line = f"0 Activate goal={deep}#1 P={{}} S={{}}"
    with pytest.raises(TraceFormatError, match=r"^line 2: goal is not a "
                       r"constraint \(the printer writes 'Gcd\(x-"):
        parse_trace("# chr-trace v1\n" + line + "\n")


def _chain_goal(depth):
    return "Gcd(x" + "+1" * depth + ")"


def test_operator_chain_past_the_depth_bound_is_a_positioned_error():
    # a chain is read in a loop, so only the depth bound stops it; the
    # error is at the operator that goes past it
    col = len("Gcd(x") + 2 * MAX_TERM_DEPTH + 1
    chain = _chain_goal(3000)
    for parse, text, at in ((parse_goals, chain, col),
                            (parse_program, f"r @ A(x) <=> {chain}.", col + 13)):
        with pytest.raises(ParseError,
                           match=f"^line 1, col {at}: term nested too deeply"):
            parse(text)
    goal = parse_constraint_text(chain)
    assert parse_term_text(chain[4:-1]) == goal.args[0]
    assert render_constraint(goal) == chain
    line = f"0 Activate goal={chain}#1 P={{}} S={{}}"
    step, = parse_trace("# chr-trace v1\n" + line + "\n").steps
    assert (step.goal, step.goal_id) == (goal, 1)


def test_terms_at_the_depth_bound_run_and_verify_on_both_engines():
    p = load_program(program_text("gcd"))
    for text in (_chain_goal(MAX_TERM_DEPTH), _nested_goal(MAX_TERM_DEPTH)):
        goals = parse_goals(text)
        for conc, res in ((False, run_sequential(goals, p)),
                          (True, run_concurrent(goals, p, EngineConfig(workers=2)))):
            assert res.status == "done"
            dump = res.state.store.dump()
            text = serialize_trace(res.trace, {}, res.status, dump)
            verdicts = verify_run(text, goals, p, concurrent=conc)
            assert verdicts and all(v.passed for v in verdicts), verdicts
    for text in (_chain_goal(MAX_TERM_DEPTH + 1), _nested_goal(MAX_TERM_DEPTH + 1)):
        with pytest.raises(ParseError, match="term nested too deeply"):
            parse_goals(text)
