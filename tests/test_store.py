import random
from collections import Counter

import pytest

from chrkit.concurrent import EngineConfig, run_concurrent
from chrkit.sequential import run_sequential
from chrkit.store import DeadIdError, Store
from chrkit.syntax import load_program, parse_goals
from chrkit.terms import (App, Chr, Const, Eq, Var, apply_subst, match, mgu,
                          render_constraint)
from chrkit.trace import serialize_trace
from chrkit.verify import _Replica, verify_run

from conftest import (brute_force_woken, canonical_modulo_equations,
                      equation_fuzz_case)


def chr1(pred, *vals):
    args = tuple(Const(v) if not isinstance(v, str) or not v.islower()
                 else Var(v) for v in vals)
    return Chr(pred, args)


def ordered(theta):
    return None if theta is None else list(theta.items())


def test_insert_assigns_fresh_ids():
    st = Store()
    cid = st.insert(Chr("Get", (Var("x1"),)))
    assert cid == 1
    assert st.dump() == "Get(x1)#1"


def test_insert_same_constraint_twice_gets_distinct_ids():
    st = Store()
    a = st.insert(chr1("Gcd", 3))
    b = st.insert(chr1("Gcd", 3))
    assert a != b
    assert len(st.live_items()) == 2


def test_ids_count_up():
    st = Store()
    for _ in range(3):
        st.insert(chr1("A", 1))
    assert st.insert(chr1("B", 2)) == 4


def test_kill_marks_dead_and_removes_from_lookups():
    st = Store()
    a = st.insert(chr1("A", 1))
    b = st.insert(chr1("B", 2))
    st.kill({a})
    assert not st.alive(a)
    assert st.alive(b)
    assert [i for _, i in st.live_items()] == [b]
    assert st.candidates(Chr("A", (Var("x"),)), None, {}) == []


def test_kill_empty_set_is_identity():
    st = Store()
    a = st.insert(chr1("A", 1))
    before = st.dump()
    st.kill(set())
    assert st.dump() == before and st.alive(a)


def test_kill_dead_id_raises():
    st = Store()
    a = st.insert(chr1("A", 1))
    st.kill({a})
    with pytest.raises(DeadIdError):
        st.kill({a})


def _listing(st, cid):
    """Every (index name, key) whose bucket lists cid."""
    return [(name, key) for name in ("_pred_index", "_arg_index", "_occ")
            for key, bucket in getattr(st, name).items() if cid in bucket]


def test_a_killed_entry_is_freed_everywhere():
    st = Store()
    keep = st.insert(Chr("B", (Var("y"), Const(1))))
    dead = st.insert(Chr("B", (Var("y"), Const(1))))
    assert _listing(st, dead)  # listed while alive
    st.kill({dead})
    assert st.get(dead) is None and not st.alive(dead)
    assert dead not in st._raw and dead not in st._view
    assert st.size() == 1
    assert st.live_items() == [(Chr("B", (Var("y"), Const(1))), keep)]
    assert st.dump() == "B(y,1)#1"
    pattern = Chr("B", (Var("w"), Var("x")))
    by_index = st.candidates(pattern, 1, {"x": Const(1)})
    by_scan = st.candidates(pattern, None, {})
    assert by_index == by_scan == [keep]
    assert _listing(st, dead) == []
    with pytest.raises(DeadIdError):
        st.kill({dead})
    st.kill({keep})
    assert _listing(st, keep) == [] and st._arg_index == {}


def test_a_woken_entry_leaves_the_buckets_of_its_current_form():
    st = Store()
    a = st.insert(Chr("A", (Var("x"),)))
    assert _listing(st, a) == [("_pred_index", "A"),
                               ("_arg_index", ("A", 0, Var("x"))),
                               ("_occ", "x")]
    st.add_equation(Eq(Var("x"), Const(3)))
    assert _listing(st, a) == [("_pred_index", "A"),
                               ("_arg_index", ("A", 0, Const(3)))]
    assert ("A", 0, Var("x")) not in st._arg_index
    st.kill({a})
    assert _listing(st, a) == []
    assert ("A", 0, Const(3)) not in st._arg_index and "x" not in st._occ
    assert st.get(a) is None and st.dump() == "x=3"


def test_kill_pair_after_firing():
    st = Store()
    g1 = st.insert(Chr("Get", (Var("x1"),)))
    g2 = st.insert(Chr("Get", (Var("x2"),)))
    p1 = st.insert(chr1("Put", 1))
    st.kill({g1, p1})
    assert [i for _, i in st.live_items()] == [g2]


def test_candidates_uses_ground_argument_index():
    st = Store()
    hits = [st.insert(chr1("B", 1)) for _ in range(3)]
    st.insert(chr1("B", 2))
    st.insert(chr1("B", 7))
    got = st.candidates(Chr("B", (Var("x"),)), 0, {"x": Const(1)})
    assert got == hits


def test_candidates_empty_store():
    st = Store()
    assert st.candidates(Chr("A", (Var("x"),)), None, {}) == []
    assert st.candidates(Chr("A", (Var("x"),)), 0, {"x": Const(1)}) == []


def test_candidates_non_ground_key_scans_predicate():
    st = Store()
    inserted = [st.insert(chr1("A", k)) for k in range(5)]
    st.insert(chr1("B", 9))
    got = st.candidates(Chr("A", (Var("x"),)), None, {})
    # linear-scan oracle: every alive A in id order
    assert got == inserted


def test_bucket_scan_lists_a_woken_entry_after_those_indexed_before():
    """A bucket scan gives entries in the order they were last indexed, and
    a wake-up re-indexes the woken entry, so after `x=5` the woken A(x)#1
    comes after A(1)#2.  An argument-index lookup stays in ascending id
    order."""
    st = Store()
    st.insert(Chr("A", (Var("x"),)))
    st.insert(chr1("A", 1))
    assert st.add_equation(Eq(Var("x"), Const(5))) == [1]
    st.insert(chr1("A", 5))
    scan = st.candidates(Chr("A", (Var("y"),)), None, {})
    assert scan == [2, 1, 3]
    hits = st.candidates(Chr("A", (Var("y"),)), 0, {"y": Const(5)})
    assert hits == [1, 3]


def test_candidates_index_agrees_with_linear_scan_randomized():
    rng = random.Random(3)
    st = Store()
    all_ids = []
    for _ in range(200):
        pred = rng.choice("AB")
        arg = rng.randrange(4)
        all_ids.append(st.insert(chr1(pred, arg)))
    for _ in range(40):
        victim = rng.choice(all_ids)
        if st.alive(victim):
            st.kill({victim})
    for pred in "AB":
        for v in range(4):
            got = st.candidates(Chr(pred, (Var("x"),)), 0, {"x": Const(v)})
            want = [i for c, i in st.live_items()
                    if c.pred == pred and c.args[0] == Const(v)]
            assert got == want


def test_candidates_for_1_never_return_true():
    st = Store()
    p_true = st.insert(Chr("P", (Const(True),)))
    p_one = st.insert(Chr("P", (Const(1),)))
    p_sum = st.insert(Chr("P", (App("+", (Const(0), Const(1))),)))
    got = st.candidates(Chr("P", (Const(1),)), 0, {})
    assert got == [p_one, p_sum]
    pattern = Chr("P", (Var("x"),))
    got = st.candidates(pattern, 0, {"x": Const(True)})
    assert got == [p_true]
    got = st.candidates(pattern, 0, {"x": Const(1)})
    assert got == [p_one, p_sum]
    st.kill({p_one})
    got = st.candidates(pattern, 0, {"x": Const(1)})
    assert got == [p_sum]


def test_candidates_by_an_unsolved_variable():
    """Root(a) with a bound to the unsolved x finds the entries whose
    argument is x and no other; once x=5 wakes them, a lookup by x finds
    none of them and one by 5 finds them with Root(5), in ascending id
    order."""
    st = Store()
    for arg in (Var("x"), Var("y"), Const(5), Var("x"),
                App("+", (Var("x"), Const(1)))):
        st.insert(Chr("Root", (arg,)))
    pattern = Chr("Root", (Var("a"),))
    got = st.candidates(pattern, 0, {"a": Var("x")})
    assert got == [1, 4]
    assert st.add_equation(Eq(Var("x"), Const(5))) == [1, 4, 5]
    assert st.candidates(pattern, 0, {"a": Var("x")}) == []
    got = st.candidates(pattern, 0, {"a": Const(5)})
    assert got == [1, 3, 4]
    got = st.candidates(pattern, 0, {"a": Const(6)})
    assert got == [5]
    got = st.candidates(pattern, None, {})
    assert got == [2, 3, 1, 4, 5]


def test_a_deep_argument_is_indexed_and_looked_up():
    """Every argument is a key, however deep: `App` keeps its hash, so
    listing A(t) for t = x+1+...+1, 600 levels deep, and looking it up by
    t hash it without recursing on its depth, which would pass the
    interpreter's recursion limit."""
    t = Var("x")
    for _ in range(600):
        t = App("+", (t, Const(1)))
    st = Store()
    st.insert(Chr("A", (t,)))
    st.insert(Chr("A", (App("+", (t, Const(1))),)))
    got = st.candidates(Chr("A", (Var("a"),)), 0, {"a": t})
    assert got == [1]


def random_argument(rng, depth=0):
    roll = rng.random()
    if roll < 0.4:
        return Var(rng.choice(VARS))
    if roll < 0.7 or depth == 3:
        return Const(rng.choice((0, 1, 2, True)))
    return App(rng.choice("+-*"), (random_argument(rng, depth + 1),
                                   random_argument(rng, depth + 1)))


def test_keyed_candidates_agree_with_a_filtered_bucket_scan():
    """On random stores with variables and nested arguments, through kills
    and Solves that wake entries, a lookup by a key argument (a head
    constant, or a variable bound to a store argument or to a random term)
    gives exactly the entries of the bucket scan that match the pattern,
    in ascending id order."""
    rng = random.Random(24)
    woken = hits = 0
    for _ in range(150):
        st = Store()
        for _ in range(rng.randrange(5, 30)):
            alive = [i for _, i in st.live_items()]
            roll = rng.random()
            if roll < 0.6 or not alive:
                st.insert(Chr(rng.choice("AB"), (random_argument(rng),
                                                 random_argument(rng))))
            elif roll < 0.8:
                st.kill({rng.choice(alive)})
            elif not st.inconsistent:
                woken += len(st.add_equation(
                    Eq(Var(rng.choice(VARS)), random_argument(rng, 2))))
            values = [a for i in alive if st.get(i)
                      for a in st.get(i).args]
            values += [random_argument(rng) for _ in range(3)]
            for _ in range(6):
                pred, key = rng.choice("AB"), rng.randrange(2)
                value = rng.choice(values)
                args, phi = [Var("p"), Var("q")], {}
                if value.__class__ is Const and rng.random() < 0.5:
                    args[key] = value  # a head constant
                else:
                    phi[args[key].name] = value
                pattern = Chr(pred, tuple(args))
                keyed = st.candidates(pattern, key, phi)
                scan = st.candidates(pattern, None, {})
                assert sorted(scan) == [
                    i for c, i in st.live_items() if c.pred == pred]
                matched = [i for i in scan
                           if match(pattern, st.get(i), phi) is not None]
                assert keyed == sorted(matched), (pattern, phi, st.dump())
                hits += bool(keyed)
    assert woken > 300 and hits > 3000


def test_index_completeness():
    st = Store()
    ids = [st.insert(chr1("A", k % 3)) for k in range(9)]
    st.kill({ids[0], ids[4]})
    listed = set(st.candidates(Chr("A", (Var("v"),)), None, {}))
    assert listed == {i for _, i in st.live_items()}


def test_wake_up_returns_constraints_whose_normal_form_changes():
    st = Store()
    a = st.insert(Chr("A", (Var("a"),)))
    st.insert(chr1("B", 2))
    woken = st.add_equation(Eq(Var("a"), Const(2)))
    assert woken == [a]
    # the woken ids ascend, whichever variable the Solve binds first: y
    # here, which wakes the higher id
    st = Store()
    low = st.insert(Chr("A", (Var("x"),)))
    for _ in range(7):
        st.insert(chr1("B", 2))
    high = st.insert(Chr("A", (Var("y"),)))
    pair = Eq(App("+", (Var("x"), Var("y"))), App("+", (Const(1), Const(2))))
    assert st.add_equation(pair) == [low, high]


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
    assert woken == [a]
    # the raw entry never changes; the matching view and index follow theta
    assert st.live_items() == [(Chr("A", (Var("a"),)), a)]
    assert st.get(a) == chr1("A", 2)
    got = st.candidates(Chr("A", (Var("x"),)), 0, {"x": Const(2)})
    assert got == [a]
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
    terms, in the same key order, and wakes the same ids.  After each Solve
    the earlier bindings keep their places and are the earlier theta under
    the new one: rewriting only the bindings a Solve touches gives what
    rewriting all of them gave."""
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
            phi = st.theta and dict(st.theta)
            woken = st.add_equation(e)
            assert rep.solve(e) == woken
            assert ordered(rep.theta) == ordered(st.theta)
            if phi and st.theta is not None:  # sigma composed onto phi
                assert list(st.theta)[:len(phi)] == list(phi)
                assert all(st.theta[x] == apply_subst(st.theta, t)
                           for x, t in phi.items()), (eqs, phi, st.theta)
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


@pytest.mark.parametrize("n", [10, 1000])
def test_a_solve_rewrites_only_the_bindings_it_touches(monkeypatch, n):
    """After n Solves x_i=y_i+1, a Solve y0=5 rewrites x0's binding alone:
    the store and the replica each call apply_subst on the new equation's
    two sides and on that one binding, however large theta is."""
    import chrkit.store
    import chrkit.verify
    st, rep = Store(), _Replica(())
    for i in range(n):
        e = Eq(Var(f"x{i}"), App("+", (Var(f"y{i}"), Const(1))))
        st.add_equation(e)
        rep.solve(e)
    calls = Counter()
    for module in (chrkit.store, chrkit.verify):
        def counted(s, x, name=module.__name__):
            calls[name] += 1
            return apply_subst(s, x)
        monkeypatch.setattr(module, "apply_subst", counted)
    e = Eq(Var("y0"), Const(5))
    st.add_equation(e)
    rep.solve(e)
    assert calls == {"chrkit.store": 3, "chrkit.verify": 3}
    assert st.theta["x0"] == App("+", (Const(5), Const(1)))
    assert st.theta["y0"] == Const(5) and list(st.theta)[-1] == "y0"
    assert ordered(rep.theta) == ordered(st.theta)


def test_replica_theta_follows_the_store_at_every_solve():
    """On the equation fuzz cases, the replica verifying a sequential run's
    trace holds, after each Solve, the theta the store held after the same
    Solve, key order included."""
    real_add, real_solve = Store.add_equation, _Replica.solve
    stored, replayed = [], []

    def add(self, e):
        woken = real_add(self, e)
        stored.append(ordered(self.theta))
        return woken

    def solve(self, e):
        woken = real_solve(self, e)
        replayed.append(ordered(self.theta))
        return woken

    rng = random.Random(20240817)
    solves = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Store, "add_equation", add)
        mp.setattr(_Replica, "solve", solve)
        for _ in range(150):
            text, gtext = equation_fuzz_case(rng)
            program, goals = load_program(text), parse_goals(gtext)
            stored.clear()
            replayed.clear()
            res = run_sequential(goals, program)
            trace = serialize_trace(res.trace, {}, res.status,
                                    res.state.store.dump())
            verdicts = verify_run(trace, goals, program)
            assert all(v.passed for v in verdicts), verdicts
            assert replayed == stored, gtext
            solves += len(stored)
    assert solves >= 200  # 212 Solves


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
        assert woken == expected, (e, items, phi)
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
    ids = [st.insert(chr1("A", k)) for k in range(5)]
    before = {i for _, i in st.live_items()}
    st.kill({ids[1], ids[3]})
    after = {i for _, i in st.live_items()}
    assert after == before - {ids[1], ids[3]}


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
            s = AbstractStore.from_identified(st.live_items(),
                                              list(st.eqs()) + extra_eqs)
            return {frozenset(step.used_tags) for step in rewrite_steps(s, program)}

        before = instances([])
        after = instances([e])
        woken = set(st.add_equation(e))
        if st.inconsistent:
            continue
        for inst in after - before:
            assert inst & woken, (inst, woken)
