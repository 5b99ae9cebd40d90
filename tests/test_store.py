import random
from collections import Counter

import pytest

from chrkit.concurrent import EngineConfig, run_concurrent
from chrkit.sequential import run_sequential
from chrkit.store import DeadIdError, NumberedConstraint, Store
from chrkit.syntax import load_program, parse_goals
from chrkit.terms import (App, Chr, Const, Eq, Var, apply_subst, mgu,
                          render_constraint)
from chrkit.verify import _Replica

from conftest import (brute_force_woken, canonical_modulo_equations,
                      equation_fuzz_case)


def chr1(pred, *vals):
    args = tuple(Const(v) if not isinstance(v, str) or not v.islower()
                 else Var(v) for v in vals)
    return Chr(pred, args)


def test_insert_assigns_fresh_ids():
    st = Store()
    nc = st.insert(Chr("Get", (Var("x1"),)))
    assert nc.id == 1
    assert nc.render() == "Get(x1)#1"


def test_insert_same_constraint_twice_gets_distinct_ids():
    st = Store()
    a = st.insert(chr1("Gcd", 3))
    b = st.insert(chr1("Gcd", 3))
    assert a.id != b.id
    assert len(st.live_items()) == 2


def test_ids_count_up():
    st = Store()
    for _ in range(3):
        st.insert(chr1("A", 1))
    assert st.insert(chr1("B", 2)).id == 4


def test_kill_marks_dead_and_removes_from_lookups():
    st = Store()
    a = st.insert(chr1("A", 1))
    b = st.insert(chr1("B", 2))
    st.kill({a.id})
    assert not st.alive(a.id)
    assert st.alive(b.id)
    assert [nc.id for nc in st.live_items()] == [b.id]
    assert st.candidates({}, Chr("A", (Var("x"),))) == []


def test_kill_empty_set_is_identity():
    st = Store()
    a = st.insert(chr1("A", 1))
    before = st.dump()
    st.kill(set())
    assert st.dump() == before and st.alive(a.id)


def test_kill_dead_id_raises():
    st = Store()
    a = st.insert(chr1("A", 1))
    st.kill({a.id})
    with pytest.raises(DeadIdError):
        st.kill({a.id})


def test_kill_pair_after_firing():
    st = Store()
    g1 = st.insert(Chr("Get", (Var("x1"),)))
    g2 = st.insert(Chr("Get", (Var("x2"),)))
    p1 = st.insert(chr1("Put", 1))
    st.kill({g1.id, p1.id})
    assert [nc.id for nc in st.live_items()] == [g2.id]


def test_candidates_uses_ground_argument_index():
    st = Store()
    hits = [st.insert(chr1("B", 1)) for _ in range(3)]
    st.insert(chr1("B", 2))
    st.insert(chr1("B", 7))
    got = st.candidates({"x": Const(1)}, Chr("B", (Var("x"),)))
    assert [nc.id for nc in got] == [nc.id for nc in hits]


def test_candidates_empty_store():
    st = Store()
    assert st.candidates({}, Chr("A", (Var("x"),))) == []


def test_candidates_non_ground_key_scans_predicate():
    st = Store()
    inserted = [st.insert(chr1("A", k)) for k in range(5)]
    st.insert(chr1("B", 9))
    got = st.candidates({}, Chr("A", (Var("x"),)))
    # linear-scan oracle: every alive A in id order
    assert [nc.id for nc in got] == [nc.id for nc in inserted]


def test_bucket_scan_lists_a_woken_entry_after_those_indexed_before():
    """A bucket scan gives entries in the order they were last indexed, and
    a wake-up re-indexes the woken entry, so after `x=5` the woken A(x)#1
    comes after A(1)#2.  An argument-index lookup stays in ascending id
    order."""
    st = Store()
    st.insert(Chr("A", (Var("x"),)))
    st.insert(chr1("A", 1))
    assert [nc.id for nc in st.add_equation(Eq(Var("x"), Const(5)))] == [1]
    st.insert(chr1("A", 5))
    scan = st.candidates({}, Chr("A", (Var("y"),)))
    assert [nc.id for nc in scan] == [2, 1, 3]
    hits = st.candidates({"y": Const(5)}, Chr("A", (Var("y"),)))
    assert [nc.id for nc in hits] == [1, 3]


def test_candidates_index_agrees_with_linear_scan_randomized():
    rng = random.Random(3)
    st = Store()
    all_ncs = []
    for _ in range(200):
        pred = rng.choice("AB")
        arg = rng.randrange(4)
        all_ncs.append(st.insert(chr1(pred, arg)))
    for _ in range(40):
        victim = rng.choice(all_ncs)
        if st.alive(victim.id):
            st.kill({victim.id})
    for pred in "AB":
        for v in range(4):
            got = [nc.id for nc in
                   st.candidates({"x": Const(v)}, Chr(pred, (Var("x"),)))]
            want = [nc.id for nc in st.live_items()
                    if nc.constraint.pred == pred
                    and nc.constraint.args[0] == Const(v)]
            assert got == want


def test_candidates_for_1_never_return_true():
    st = Store()
    p_true = st.insert(Chr("P", (Const(True),)))
    p_one = st.insert(Chr("P", (Const(1),)))
    p_sum = st.insert(Chr("P", (App("+", (Const(0), Const(1))),)))
    got = st.candidates({}, Chr("P", (Const(1),)))
    assert [nc.id for nc in got] == [p_one.id, p_sum.id]
    got = st.candidates({"x": Const(True)}, Chr("P", (Var("x"),)))
    assert [nc.id for nc in got] == [p_true.id]
    pattern = Chr("P", (App("+", (Var("x"), Const(1))),))
    got = st.candidates({"x": Const(0)}, pattern)
    assert [nc.id for nc in got] == [p_one.id, p_sum.id]
    st.kill({p_one.id})
    got = st.candidates({"x": Const(1)}, Chr("P", (Var("x"),)))
    assert [nc.id for nc in got] == [p_sum.id]


def test_index_completeness():
    st = Store()
    ncs = [st.insert(chr1("A", k % 3)) for k in range(9)]
    st.kill({ncs[0].id, ncs[4].id})
    listed = {nc.id for nc in st.candidates({}, Chr("A", (Var("v"),)))}
    assert listed == {nc.id for nc in st.live_items()}


def test_wake_up_returns_constraints_whose_normal_form_changes():
    st = Store()
    a = st.insert(Chr("A", (Var("a"),)))
    st.insert(chr1("B", 2))
    woken = st.add_equation(Eq(Var("a"), Const(2)))
    assert [nc.id for nc in woken] == [a.id]


def test_wake_up_empty_store():
    st = Store()
    assert st.add_equation(Eq(Var("x"), Const(1))) == []


def test_wake_up_ground_constraints_unaffected():
    st = Store()
    st.insert(chr1("B", 2))
    assert st.add_equation(Eq(Var("x"), Const(1))) == []


def test_wake_up_inconsistency_flags_store():
    st = Store()
    st.add_equation(Eq(Var("x"), Const(1)))
    assert not st.inconsistent
    assert st.theta == {"x": Const(1)}
    got = st.add_equation(Eq(Var("x"), Const(2)))
    assert got == [] and st.inconsistent and st.theta is None


def test_add_equation_renormalizes_matching_view():
    st = Store()
    a = st.insert(Chr("A", (Var("a"),)))
    woken = st.add_equation(Eq(Var("a"), Const(2)))
    assert [nc.id for nc in woken] == [a.id]
    # the raw entry never changes; the matching view and index follow theta
    assert st.live_items() == [NumberedConstraint(Chr("A", (Var("a"),)), a.id)]
    assert st.get(a.id).constraint == chr1("A", 2)
    got = st.candidates({"x": Const(2)}, Chr("A", (Var("x"),)))
    assert [nc.id for nc in got] == [a.id]
    assert st.dump() == "A(a)#1\na=2"


def test_add_equation_solves_the_equations_once(monkeypatch):
    # each add_equation solves only its new equation, under the m.g.u. so far
    import chrkit.store
    calls = []

    def counted(eqs):
        calls.append(list(eqs))
        return mgu(calls[-1])

    monkeypatch.setattr(chrkit.store, "mgu", counted)
    st = Store()
    st.insert(Chr("A", (Var("a"),)))
    st.add_equation(Eq(Var("a"), Var("b")))
    st.add_equation(Eq(Var("a"), Const(2)))
    assert calls == [[Eq(Var("a"), Var("b"))], [Eq(Var("b"), Const(2))]]
    assert st.theta == {"a": Const(2), "b": Const(2)}


VARS = ("u", "v", "w", "x", "y", "z")


def random_term(rng, depth=0):
    roll = rng.random()
    if roll < 0.5:
        return Var(rng.choice(VARS))
    if roll < 0.8 or depth:
        return Const(rng.randrange(3))
    return App(rng.choice("+-*"), (random_term(rng, 1), random_term(rng, 1)))


def random_equations(rng) -> list[Eq]:
    """Random equation lists: terms over a few variables, small integers and
    arithmetic applications, variable chains, and occurs-check failures."""
    eqs = []
    for _ in range(rng.randrange(1, 8)):
        roll = rng.random()
        if roll < 0.25:
            chain = rng.sample(VARS, rng.randrange(2, 4))
            eqs.extend(Eq(Var(a), Var(b)) for a, b in zip(chain, chain[1:]))
        elif roll < 0.3:
            x = Var(rng.choice(VARS))
            eqs.append(Eq(x, App("+", (x, Const(1)))))
        else:
            eqs.append(Eq(random_term(rng), random_term(rng)))
    return eqs


def test_incremental_solve_agrees_with_whole_list_mgu():
    """Folding add_equation over an equation list gives the same verdict as
    mgu over the whole list and the same answer modulo the equation theory;
    theta stays idempotent, and the verifier's replica, solving the same
    equations its own way, binds exactly the same variables to the same
    terms and wakes the same ids."""
    rng = random.Random(5)
    outcomes = Counter()
    for _ in range(1500):
        eqs = random_equations(rng)
        st, rep = Store(), _Replica(())
        chrs = [Chr("A", (Var(a), Var(b))) for a, b in zip(VARS, VARS[1:])]
        for cid, c in enumerate(chrs, 1):
            st.insert(c)
            rep.activate(cid, c, render_constraint(c))
        for e in eqs:
            woken = [nc.id for nc in st.add_equation(e)]
            assert rep.solve(e) == woken
            assert rep.theta == st.theta
        whole = mgu(eqs)
        assert st.inconsistent == (whole is None), eqs
        outcomes[whole is None] += 1
        if whole is None:
            continue
        theta = st.theta
        for x, t in theta.items():
            assert t != Var(x) and apply_subst(theta, t) == t, (eqs, theta)
        solved = [Eq(Var(x), t) for x, t in theta.items()]
        assert (canonical_modulo_equations(chrs + solved)
                == canonical_modulo_equations(chrs + eqs)), eqs
    assert min(outcomes.values()) > 300  # both verdicts are common


def test_add_equation_wakes_by_the_brute_force_rule(monkeypatch):
    """At every Solve of the equation fuzz cases, on both goal engines, the
    woken list is the brute-force rule over the whole store."""
    real = Store.add_equation
    woke = Counter()

    def checked(self, e):
        items, phi = self.live_items(), self.theta
        woken = real(self, e)
        expected = [] if phi is None else brute_force_woken(items, phi,
                                                            self.theta)
        assert [nc.id for nc in woken] == expected, (e, items, phi)
        woke[bool(woken)] += 1
        return woken

    monkeypatch.setattr(Store, "add_equation", checked)
    rng = random.Random(20240817)
    for _ in range(150):
        text, gtext = equation_fuzz_case(rng)
        program, goals = load_program(text), parse_goals(gtext)
        run_sequential(goals, program)
        run_concurrent(goals, program, EngineConfig(workers=1))
    assert woke[True] >= 40 and woke[False] >= 40  # 50 of 424 Solves wake


def test_drop_ids_multiset():
    st = Store()
    st.insert(Chr("Get", (Var("x2"),)))
    st.add_equation(Eq(Var("x1"), Const(1)))
    got = sorted(map(str, st.drop_ids()))
    assert len(got) == 2
    assert st.dump() == "Get(x2)#1\nx1=1"


def test_drop_ids_empty():
    assert Store().drop_ids() == []


def test_dump_format_sorted_by_id_then_equations():
    st = Store()
    st.insert(chr1("Gcd", 3))
    st.insert(chr1("Gcd", 9))
    st.add_equation(Eq(Var("x2"), Const(2)))
    st.add_equation(Eq(Var("x1"), Const(1)))
    assert st.dump() == "Gcd(3)#1\nGcd(9)#2\nx1=1\nx2=2"


def test_equations_only_grow():
    st = Store()
    st.add_equation(Eq(Var("x"), Const(1)))
    st.add_equation(Eq(Var("y"), Const(2)))
    assert len(st.eqs()) == 2


def test_kill_idempotent_on_visible_multiset():
    st = Store()
    ncs = [st.insert(chr1("A", k)) for k in range(5)]
    before = {nc.id for nc in st.live_items()}
    st.kill({ncs[1].id, ncs[3].id})
    after = {nc.id for nc in st.live_items()}
    assert after == before - {ncs[1].id, ncs[3].id}


def test_wake_up_conservative_covers_newly_enabled_instances():
    # brute force: any rule-head instance enabled by a new equation must
    # contain at least one woken constraint
    from chrkit.abstract import AbstractStore, rewrite_steps
    from chrkit.syntax import load_program

    program = load_program("r1 @ A(x), B(x) <=> C(x).")
    rng = random.Random(11)
    for _ in range(60):
        st = Store()
        ids = []
        for _ in range(rng.randrange(2, 6)):
            pred = rng.choice("AB")
            arg = Var(rng.choice("uvw")) if rng.random() < 0.5 \
                else Const(rng.randrange(3))
            ids.append(st.insert(Chr(pred, (arg,))))
        e = Eq(Var(rng.choice("uvw")), Const(rng.randrange(3)))

        def instances(extra_eqs):
            items = [(nc.constraint, nc.id) for nc in st.live_items()]
            s = AbstractStore.from_identified(items, list(st.eqs()) + extra_eqs)
            return {frozenset(step.used_tags) for step in rewrite_steps(s, program)}

        before = instances([])
        after = instances([e])
        woken = {nc.id for nc in st.add_equation(e)}
        if st.inconsistent:
            continue
        for inst in after - before:
            assert inst & woken, (inst, woken)
