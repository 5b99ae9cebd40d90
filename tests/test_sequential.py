import math
import random

import pytest

from chrkit.abstract import unwatched_instances
from chrkit.concurrent import EngineConfig, run_concurrent
from chrkit.sequential import SequentialEngine, run_sequential
from chrkit.store import NumberedConstraint
from chrkit.syntax import load_program, parse_goals
from chrkit.terms import Chr, Const, Eq, Var

from conftest import CORPUS, canonical, goals_for, load


def test_channel_four_goals_ten_steps_fifo():
    res = run_sequential(parse_goals("Get(x1),Get(x2),Put(1),Put(2)"),
                         load("channel"))
    assert res.status == "done"
    assert [s.kind for s in res.trace] == [
        "Activate", "Drop", "Activate", "Drop", "Activate", "Simplify",
        "Solve", "Activate", "Simplify", "Solve"]
    assert res.state.store.dump() == "x1=1\nx2=2"
    # the first firing consumes the first receiver and the first sender
    fire = res.trace[5]
    assert fire.rule == "get"
    assert fire.simp_ids == (1, 3)
    assert fire.prop_ids == ()


def test_channel_named_goals():
    res = run_sequential(goals_for("channel"), load("channel"))
    assert res.state.store.dump() == "m=1\nn=8"


def test_gcd_reaches_single_answer():
    res = run_sequential(goals_for("gcd"), load("gcd"))
    assert res.status == "done"
    assert canonical(res.state.store) == ("Gcd(3)",)


def test_empty_goals_finish_immediately():
    res = run_sequential((), load("gcd"))
    assert res.status == "done"
    assert res.trace == []
    assert res.state.store.dump() == ""


def test_activation_stores_immediately_and_ids_increase():
    eng = SequentialEngine(load("channel"))
    eng.load_goals(parse_goals("Get(x1),Put(1)"))
    eng.state.goals.popleft()
    step = eng.step_activate(Chr("Get", (Var("x1"),)), eng.state.goals)
    assert step.goal == Chr("Get", (Var("x1"),)) and step.goal_id == 1
    assert eng.state.store.alive(1)
    # executes next
    assert eng.state.goals[0] == NumberedConstraint(step.goal, 1)
    eng.state.goals.popleft()
    assert eng.step_activate(Chr("Put", (Const(1),)),
                             eng.state.goals).goal_id == 2


def test_solve_moves_equation_and_wakes():
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    eng = SequentialEngine(p)
    a = eng.state.store.insert(Chr("A", (Var("a"),)))
    eng.state.store.insert(Chr("B", (Const(2),)))
    eng.state.goals.append(Eq(Var("a"), Const(2)))
    eng.state.goals.popleft()
    step = eng.step_solve(Eq(Var("a"), Const(2)), eng.state.goals)
    assert step.prop_ids == (a.id,)
    assert step.simp_ids == ()
    assert eng.state.goals[0].id == a.id
    assert eng.state.store.get(a.id).constraint == Chr("A", (Const(2),))


def test_solve_wake_then_fire():
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    goals = parse_goals("A(a),B(2),a=2")
    res = run_sequential(goals, p)
    assert res.status == "done"
    assert res.state.store.dump() == "C(2)#3\na=2"
    kinds = [s.kind for s in res.trace]
    assert kinds == ["Activate", "Drop", "Activate", "Drop", "Solve",
                     "Simplify", "Activate", "Drop"]


def test_two_solves_store_both_equations():
    res = run_sequential(parse_goals("x1=1,x2=2"), load("channel"))
    assert res.state.store.dump() == "x1=1\nx2=2"


def test_propagation_fires_once_per_instance():
    res = run_sequential(parse_goals("P,P"), load("prop_once"))
    # each P propagates exactly once; its second execution drops it
    fires = [s for s in res.trace if s.kind == "Propagate"]
    assert len(fires) == 2
    assert {s.prop_ids for s in fires} == {(1,), (3,)}
    assert sorted(canonical(res.state.store)) == ["P", "P", "Q", "Q"]
    assert res.history == {("r1", (1,)), ("r1", (3,))}


def test_history_keeps_pure_propagation_rules_only():
    # merge1 is a simpagation rule: a Propagate step of it removes a head,
    # so its instance needs no history entry
    res = run_sequential(goals_for("mergesort"), load("mergesort"))
    assert any(s.kind == "Propagate" for s in res.trace)
    assert res.history == set()


def test_propagation_keeps_goal_after_body():
    eng = SequentialEngine(load("prop_once"))
    eng.load_goals(parse_goals("P"))
    eng.state.goals.popleft()
    eng.step_activate(Chr("P"), eng.state.goals)
    g = eng.state.goals.popleft()
    eng.execute_goal(g, eng.state.goals)
    # body goal first, then the still-active goal
    assert [type(x).__name__ for x in eng.state.goals] == ["Chr", "NumberedConstraint"]


def test_simplify_removes_goal_and_heads():
    res = run_sequential(parse_goals("Gcd(3),Gcd(9)"), load("gcd"))
    simps = [s for s in res.trace if s.kind == "Simplify" and s.rule == "gcd2"]
    assert simps
    s = simps[0]
    assert s.phi  # recorded substitution instantiates the rule
    assert set(s.simp_ids) and set(s.prop_ids)


def test_inconsistent_equations_fail_the_run():
    res = run_sequential(parse_goals("a=1,a=2"), load("channel"))
    assert res.status == "failed"
    assert res.state.store.inconsistent
    assert "a=1" in res.state.store.dump()


def test_step_limit():
    loop = load_program("r @ A <=> A.")
    res = run_sequential(parse_goals("A"), loop, max_steps=30)
    assert res.status == "step-limit"
    assert len(res.trace) == 30


@pytest.mark.parametrize("limit", [-1, -3])
def test_negative_step_limit_is_refused_by_both_engines(limit):
    with pytest.raises(ValueError):
        run_sequential(parse_goals("Gcd(4)"), load("gcd"), max_steps=limit)
    with pytest.raises(ValueError):
        run_concurrent(parse_goals("Gcd(4)"), load("gcd"),
                       EngineConfig(max_steps=limit))


def test_limit_reached_with_only_stale_goals_left_is_done():
    """x=1 wakes A#1 and B#2; A#1 fires and simplifies B#2, whose goal is
    then stale.  A limit at the run's last step refuses no step, so the run
    is done on both engines, and no stale goal is left."""
    p = load_program("r @ A(y), B(y) <=> y > 0 | true.")
    goals = parse_goals("A(x),B(x),x=1")
    assert len(run_sequential(goals, p).trace) == 6
    seq = run_sequential(goals, p, max_steps=6)
    con = run_concurrent(goals, p, EngineConfig(workers=1, max_steps=6))
    for res in (seq, con):
        assert (res.status, len(res.trace), list(res.state.goals)) == (
            "done", 6, [])
    assert run_sequential(goals, p, max_steps=5).status == "step-limit"


def test_lifo_policy_processes_last_goal_first():
    res = run_sequential(parse_goals("Get(x1),Put(1),Get(x2)"),
                         load("channel"), policy="lifo")
    assert res.status == "done"
    first_activated = next(s for s in res.trace if s.kind == "Activate")
    assert first_activated.goal == Chr("Get", (Var("x2"),))


def test_fifo_deterministic_across_runs():
    for name in CORPUS:
        p, goals = load(name), goals_for(name)
        a = run_sequential(goals, p)
        b = run_sequential(goals, p)
        assert a.state.store.dump() == b.state.store.dump()
        assert [str(s) for s in a.trace] == [str(s) for s in b.trace]


def test_goal_monotonicity_inert_goals_do_not_disturb_the_run():
    rng = random.Random(9)
    p = load("gcd")
    for _ in range(20):
        values = [rng.randrange(1, 30) for _ in range(rng.randrange(2, 6))]
        goals = [Chr("Gcd", (Const(v),)) for v in values]
        extra = [Chr("Quiet", (Const(k),)) for k in range(rng.randrange(1, 4))]
        plain = run_sequential(goals, p)
        padded = run_sequential(goals + extra, p)
        want = sorted(canonical(plain.state.store) +
                      tuple(f"Quiet({k})" for k in range(len(extra))))
        assert sorted(canonical(padded.state.store)) == want


def test_active_instance_invariant_on_corpus():
    for name in CORPUS:
        p, goals = load(name), goals_for(name)
        res = run_sequential(goals, p, check_invariants=True)
        assert res.status == "done", name


AB = [(Chr("A"), 1), (Chr("B"), 2)]


def test_unwatched_instances_flags_stuck_state():
    p = load_program("r1 @ A, B <=> C.")
    assert unwatched_instances(AB, (), (), set(), p) == [("r1", (1, 2))]


def test_unwatched_instances_skip_those_with_a_pending_member():
    p = load_program("r1 @ A, B <=> C.")
    assert unwatched_instances(AB, (), (), {2}, p) == []
    assert unwatched_instances(AB, (), (), {3}, p) == [("r1", (1, 2))]


def test_unwatched_instances_skip_fired_propagation_instances():
    p = load_program("r1 @ A, B ==> C.")
    assert unwatched_instances(AB, (), (), set(), p) == [("r1", (1, 2))]
    assert unwatched_instances(AB, (), {("r1", (1, 2))}, set(), p) == []


def test_unwatched_instances_none_in_an_inconsistent_store():
    p = load_program("r1 @ A, B <=> C.")
    clash = [Eq(Const(1), Const(2))]
    assert unwatched_instances(AB, clash, (), set(), p) == []


def test_simplified_ids_die_once_across_trace():
    res = run_sequential(goals_for("mergesort"), load("mergesort"))
    seen = set()
    for s in res.trace:
        for i in s.simp_ids:
            assert i not in seen
            seen.add(i)


def test_isolation_firings_ignore_unrelated_store_constraints():
    # any firing recorded with side-effect P\S fires identically in a store
    # holding only the goal, P and S
    from chrkit.matching import iter_matches
    from chrkit.store import Store

    p = load("gcd")
    rng = random.Random(17)
    for _ in range(15):
        values = [rng.randrange(1, 20) for _ in range(rng.randrange(3, 6))]
        res = run_sequential([Chr("Gcd", (Const(v),)) for v in values], p)
        # each head as its Activate step stored it: gcd has no equations, so
        # that is its matching view (dead entries are gone from the store)
        activated = {s.goal_id: s.goal for s in res.trace if s.kind == "Activate"}
        for step in res.trace:
            if step.kind not in ("Simplify", "Propagate"):
                continue
            keep = {i: activated[i] for i in step.prop_ids + step.simp_ids}
            small = Store()
            remap = {}
            for old_id in sorted(keep):
                remap[old_id] = small.insert(keep[old_id]).id
            g_small = small.get(remap[step.goal_id])
            hits = [m for m in iter_matches(small, g_small, p)
                    if m.rule.name == step.rule]
            assert hits, f"{step.rule} lost in the isolated store"


def test_a_run_keeps_only_live_store_entries():
    # every Simplify frees its heads: 500 gcd goals leave one entry, not one
    # per constraint ever stored
    rng = random.Random(1)
    values = [6 * rng.randint(1, 59) for _ in range(500)]
    res = run_sequential([Chr("Gcd", (Const(v),)) for v in values], load("gcd"))
    store = res.state.store
    assert len(store._raw) == len(store._view) == store.size() == 1
    assert canonical(store) == (f"Gcd({math.gcd(*values)})",)
    assert sum(s.kind == "Activate" for s in res.trace) > 10_000


def test_stale_woken_goal_is_discarded():
    # r2 consumes both A's after the first wake re-queues them; the second
    # woken copy becomes stale and must be skipped silently
    p = load_program("r2 @ A(x), A(y) <=> x==y | B(x).")
    res = run_sequential(parse_goals("A(u),A(u),u=3"), p)
    assert res.status == "done"
    assert canonical(res.state.store) == ("B(3)", "u=3")
