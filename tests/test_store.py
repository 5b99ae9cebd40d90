import random

import pytest

from chrkit.store import DeadIdError, NumberedConstraint, Store
from chrkit.terms import Chr, Const, Eq, Var, mgu


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
    assert st.candidates("A", {}, Chr("A", (Var("x"),))) == []


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
    got = st.candidates("B", {"x": Const(1)}, Chr("B", (Var("x"),)))
    assert [nc.id for nc in got] == [nc.id for nc in hits]


def test_candidates_empty_store():
    st = Store()
    assert st.candidates("A", {}, Chr("A", (Var("x"),))) == []


def test_candidates_non_ground_key_scans_predicate():
    st = Store()
    inserted = [st.insert(chr1("A", k)) for k in range(5)]
    st.insert(chr1("B", 9))
    got = st.candidates("A", {}, Chr("A", (Var("x"),)))
    # linear-scan oracle: every alive A in id order
    assert [nc.id for nc in got] == [nc.id for nc in inserted]


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
                   st.candidates(pred, {"x": Const(v)}, Chr(pred, (Var("x"),)))]
            want = [nc.id for nc in st.live_items()
                    if nc.constraint.pred == pred
                    and nc.constraint.args[0] == Const(v)]
            assert got == want


def test_index_completeness():
    st = Store()
    ncs = [st.insert(chr1("A", k % 3)) for k in range(9)]
    st.kill({ncs[0].id, ncs[4].id})
    listed = {nc.id for nc in st.candidates("A", {}, Chr("A", (Var("v"),)))}
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
    got = st.candidates("A", {"x": Const(2)}, Chr("A", (Var("x"),)))
    assert [nc.id for nc in got] == [a.id]
    assert st.dump() == "A(a)#1\na=2"


def test_add_equation_solves_the_equations_once(monkeypatch):
    import chrkit.store
    calls = []

    def counted(eqs):
        calls.append(len(eqs))
        return mgu(eqs)

    monkeypatch.setattr(chrkit.store, "mgu", counted)
    st = Store()
    st.insert(Chr("A", (Var("a"),)))
    st.add_equation(Eq(Var("a"), Var("b")))
    st.add_equation(Eq(Var("b"), Const(2)))
    assert calls == [1, 2]


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
