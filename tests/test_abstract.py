import itertools
import random

import pytest

import chrkit.abstract as abstract
from chrkit.abstract import (AbstractStore, LimitExceeded, final_stores,
                             rewrite_steps, run_abstract)
from chrkit.syntax import load_program, parse_goals
from chrkit.terms import Chr, Const, Eq, Var, instantiate, mgu, render_constraint
from chrkit.verify import validate_rewrite

from conftest import canonical, concurrent_compose_check, load


def store_of(text):
    return AbstractStore.from_constraints(parse_goals(text))


def test_rewrite_steps_gcd_pair():
    gcd = load("gcd")
    steps = rewrite_steps(store_of("Gcd(3),Gcd(9)"), gcd)
    results = {canonical(st.result) for st in steps}
    assert ("Gcd(3)", "Gcd(6)") in results
    subs = [st.phi for st in steps
            if canonical(st.result) == ("Gcd(3)", "Gcd(6)")]
    assert any(phi[next(k for k in phi if k.startswith("n"))] == Const(3) and
               phi[next(k for k in phi if k.startswith("m"))] == Const(9)
               for phi in subs)


def test_rewrite_steps_empty_store():
    assert rewrite_steps(AbstractStore.from_constraints([]), load("gcd")) == []


def test_rewrite_steps_equal_copies():
    steps = rewrite_steps(store_of("Gcd(3),Gcd(3)"), load("gcd"))
    assert ("Gcd(0)", "Gcd(3)") in {canonical(st.result) for st in steps}


def test_rewrite_steps_deterministic_order():
    s = store_of("Gcd(3),Gcd(3),Gcd(9)")
    gcd = load("gcd")
    first = [(st.rule, st.used_tags) for st in rewrite_steps(s, gcd)]
    for _ in range(3):
        assert [(st.rule, st.used_tags) for st in rewrite_steps(s, gcd)] == first


def test_is_final():
    gcd = load("gcd")
    assert not rewrite_steps(store_of("Gcd(3)"), gcd)
    assert rewrite_steps(store_of("Gcd(3),Gcd(9)"), gcd)
    assert not rewrite_steps(AbstractStore.from_constraints([]), gcd)


def test_final_stores_gcd():
    finals = final_stores(store_of("Gcd(3),Gcd(3),Gcd(9)"), load("gcd"))
    assert finals == {("Gcd(3)",)}


def test_final_stores_channel_has_both_answers():
    finals = final_stores(store_of("Get(m),Put(1),Get(n),Put(8)"), load("channel"))
    assert finals == {("m=1", "n=8"), ("m=8", "n=1")}


def test_final_stores_never_tests_the_guard_true(monkeypatch):
    """channel's rule has the guard `true`, which holds in every store: the
    search finds all 120 answers of k=5 without testing it; gcd's guards
    are still tested."""
    calls = []
    real = abstract.holds
    monkeypatch.setattr(abstract, "holds",
                        lambda *a: calls.append(a) or real(*a))
    goals = ",".join([f"Get(z{i})" for i in range(5)]
                     + [f"Put({v})" for v in range(5)])
    finals = final_stores(store_of(goals), load("channel"))
    assert finals == {tuple(f"z{i}={v}" for i, v in enumerate(vs))
                      for vs in itertools.permutations(range(5))}
    assert not calls
    assert final_stores(store_of("Gcd(6),Gcd(9)"), load("gcd")) \
        == {("Gcd(3)",)}
    assert calls


def test_final_stores_empty():
    finals = final_stores(AbstractStore.from_constraints([]), load("gcd"))
    assert finals == {()}


def test_final_stores_limit_exceeded():
    with pytest.raises(LimitExceeded):
        final_stores(store_of("Gcd(3),Gcd(3),Gcd(9)"), load("gcd"), max_states=1)


def test_final_stores_mergesort_four_values():
    ms = load("mergesort")
    finals = final_stores(store_of("Merge(1,3),Merge(1,1),Merge(1,4),Merge(1,2)"), ms)
    assert finals == {("Leq(1,2)", "Leq(2,3)", "Leq(3,4)", "Merge(3,1)")}


def test_final_stores_propagation_history_stops_refiring():
    p = load("prop_once")
    finals = final_stores(store_of("P,P"), p)
    assert finals == {("P", "P", "Q", "Q")}


def test_run_abstract_walks_to_a_final_store():
    final, status = run_abstract(store_of("Gcd(3),Gcd(3),Gcd(9)"), load("gcd"), seed=5)
    assert status == "done"
    assert canonical(final) == ("Gcd(3)",)


def test_run_abstract_step_limit():
    loop = load_program("r @ A <=> A.")
    _, status = run_abstract(store_of("A"), loop, seed=0, max_steps=10)
    assert status == "step-limit"


def test_run_abstract_refuses_a_negative_step_limit():
    countdown = load_program("r @ A(x) <=> x > 0 | A(x-1).")
    with pytest.raises(ValueError, match="max_steps must be >= 0"):
        run_abstract(store_of("A(50)"), countdown, max_steps=-1)
    start = store_of("A(50)")
    final, status = run_abstract(start, countdown, max_steps=0)
    assert status == "step-limit" and final is start
    final, status = run_abstract(store_of("A(0)"), countdown, max_steps=0)
    assert status == "done" and canonical(final) == ("A(0)",)
    _, status = run_abstract(store_of("A(50)"), countdown, max_steps=50)
    assert status == "done"


def test_compose_check_disjoint_simplified_parts():
    gcd = load("gcd")
    s = store_of("Gcd(3),Gcd(3),Gcd(9)")
    # two firings removing the two distinct non-shared copies
    step1 = ([Chr("Gcd", (Const(9),))], None)
    step2 = ([Chr("Gcd", (Const(3),))], None)
    assert concurrent_compose_check(s, step1, step2)


def test_compose_check_shared_simplified_head_fails():
    chan = load("channel")
    s = store_of("Get(m),Put(1),Get(n)")
    put = [Chr("Put", (Const(1),))]
    step1 = (put + [Chr("Get", (Var("m"),))], None)
    step2 = (put + [Chr("Get", (Var("n"),))], None)
    assert not concurrent_compose_check(s, step1, step2)


def test_compose_check_empty_derivation_composes():
    s = store_of("Gcd(3),Gcd(9)")
    assert concurrent_compose_check(s, ([Chr("Gcd", (Const(9),))], None), ([], None))


def test_monotonicity_recorded_steps_replay_in_larger_store():
    # run a random derivation, then replay the same rule instances after
    # adding unrelated constraints: every step must still be applicable
    gcd = load("gcd")
    rng = random.Random(2)
    for trial in range(20):
        values = [rng.randrange(1, 12) for _ in range(rng.randrange(2, 5))]
        start = AbstractStore.from_constraints(
            [Chr("Gcd", (Const(v),)) for v in values])
        cur = start
        recorded = []
        while True:
            steps = rewrite_steps(cur, gcd)
            if not steps:
                break
            pick = steps[rng.randrange(len(steps))]
            recorded.append((pick.rule,
                             tuple(t for _, t in pick.propagated),
                             tuple(t for _, t in pick.simplified)))
            cur = pick.result

        extra = [Chr("Inert", (Const(k),)) for k in range(3)]
        big_items = start.items + tuple(
            (c, start.next_tag + i) for i, c in enumerate(extra))
        big = AbstractStore(big_items, frozenset(), start.next_tag + 3)
        # tags allocated by rule bodies sit 3 higher in the enlarged store
        remap = lambda t: t if t < start.next_tag else t + 3
        for rule, ptags, stags in recorded:
            want_p = tuple(sorted(remap(t) for t in ptags))
            want_s = tuple(sorted(remap(t) for t in stags))
            steps = rewrite_steps(big, gcd)
            matching = [
                st for st in steps
                if st.rule == rule
                and tuple(sorted(t for _, t in st.propagated)) == want_p
                and tuple(sorted(t for _, t in st.simplified)) == want_s]
            assert matching, f"step {rule}{ptags}\\{stags} lost in the larger store"
            big = matching[0].result
        live = [c for c, _ in big.items if c.pred != "Inert"]
        assert canonical(live) == canonical(cur)


def test_validate_rewrite_accepts_recorded_instances():
    cases = [(load("gcd"), "Gcd(3),Gcd(9)"),
             # the heads equal the rule's only under the solved equations
             (load_program("r1 @ A(x), B(x) <=> C(x)."), "A(a),B(2),a=2")]
    for p, goals in cases:
        s = store_of(goals)
        theta = mgu(s.eqs())
        solved = {t: instantiate(theta, c) for c, t in s.items}
        steps = rewrite_steps(s, p)
        assert steps
        for st in steps:
            assert validate_rewrite(p.rule(st.rule), st.phi, theta,
                                    [solved[t] for _, t in st.propagated],
                                    [solved[t] for _, t in st.simplified]) is None
    # the heads are compared as their terms under theta, not as written
    assert [render_constraint(solved[t]) for t in (0, 1)] == ["A(2)", "B(2)"]
    assert validate_rewrite(p.rule("r1"), {"x": Const(2)}, theta,
                            [], list(parse_goals("A(a),B(2)"))) \
        == "simplified heads do not match rule r1"


def test_validate_rewrite_rejects_wrong_heads():
    gcd = load("gcd")
    s = store_of("Gcd(3),Gcd(9)")
    st = rewrite_steps(s, gcd)[0]
    rule = gcd.rule(st.rule)
    props = [c for c, _ in st.propagated]
    simps = [c for c, _ in st.simplified]
    assert (props, simps) == (list(parse_goals("Gcd(3)")),
                              list(parse_goals("Gcd(9)")))
    assert validate_rewrite(rule, st.phi, {}, list(parse_goals("Gcd(77)")),
                            simps) \
        == "propagated heads do not match rule gcd2"
    assert validate_rewrite(rule, st.phi, {}, props, props) \
        == "simplified heads do not match rule gcd2"
    # roles and values swapped: the heads match, the guard m>=n fails
    swapped = {"n": st.phi["m"], "m": st.phi["n"]}
    assert validate_rewrite(rule, swapped, {}, simps, props) \
        == "guard of rule gcd2 not entailed"
    # phi binds every head variable and nothing else
    assert validate_rewrite(rule, {"n": st.phi["n"]}, {}, props, simps) \
        == "phi binds {n}, not the head variables {m,n} of rule gcd2"
    assert validate_rewrite(rule, {**st.phi, "k": Const(1)}, {}, props,
                            simps) \
        == "phi binds {k,m,n}, not the head variables {m,n} of rule gcd2"
    # an inconsistent store entails no guard
    assert validate_rewrite(rule, st.phi, None, props, simps) \
        == "guard of rule gcd2 not entailed"


def test_inconsistent_equation_store_is_final():
    p = load("channel")
    s = AbstractStore.from_constraints(
        parse_goals("Get(m)") + (Eq(Var("x"), Const(1)), Eq(Var("x"), Const(2))))
    assert rewrite_steps(s, p) == []


def test_hand_built_store_tags_must_ascend_below_next_tag():
    """A body item takes next_tag: at or below a live tag, it would share
    that item's tag (and its propagation history), which changes the
    answer; matches are ordered by tag, so tags must ascend in the store."""
    p = load_program("mk @ P ==> Q.\npair @ Q \\ P <=> R.")
    P = Chr("P", ())
    with pytest.raises(ValueError, match="next_tag"):
        AbstractStore(((P, 0), (P, 1)), frozenset(), 1)
    with pytest.raises(ValueError, match="ascend"):
        AbstractStore(((P, 1), (P, 0)), frozenset(), 2)
    with pytest.raises(ValueError):
        AbstractStore(((P, 0), (P, 0)), frozenset(), 2)
    s = AbstractStore(((P, 0), (P, 1)), frozenset(), 2)
    assert final_stores(s, p) == {("Q", "Q", "R", "R"), ("Q", "R", "R")}
    assert final_stores(store_of("P,P"), p) == final_stores(s, p)
