"""The abstract oracle against its brute-force reference (conftest.py).

At every state final_stores expands, rewrite_steps must return the same
rewrites as the reference, in the same order: same rule, substitution,
head instances, successor key and successor store.  final_stores must
return the same set of final stores, or hit the same bound.
"""
import random

import pytest

import chrkit.abstract as abstract
from chrkit.abstract import (AbstractStore, LimitExceeded, RewriteStep,
                             final_stores)
from chrkit.sequential import run_sequential
from chrkit.syntax import load_program, parse_goals
from chrkit.terms import Chr, Const, Eq, Var, render_constraint

from conftest import (CORPUS, equation_fuzz_case, fuzz_case, goals_for,
                      leftover, load, reference_final_stores,
                      reference_rewrite_steps, reference_state_key)

# keeps the 200-case fuzz check to a few seconds; cases that reach it are
# still compared state by state, and both searches must stop at the same one
MAX_STATES = 400


def _same_steps(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        # the key first: without a history it is computed unbuilt
        assert g.key == reference_state_key(w.result)
        assert (g.rule, g.phi, g.propagated, g.simplified) == \
            (w.rule, w.phi, w.propagated, w.simplified)
        assert g.used_tags == w.used_tags
        assert g.result == w.result  # items, history and next tag
        assert g.result.renders == tuple(
            render_constraint(c) for c, _ in g.result.items)
        assert abstract._state_key(g.result) == reference_state_key(w.result)


def check_search(start: AbstractStore, program, monkeypatch) -> int:
    """Run final_stores with every rewrite_steps call checked against the
    reference, then compare its answer with the reference search.  Returns
    the number of states compared."""
    fast = abstract.rewrite_steps
    states = [0]
    reference: dict = {}  # store -> its reference steps, for both searches

    def reference_steps(s, p):
        if s not in reference:
            reference[s] = reference_rewrite_steps(s, p)
        return reference[s]

    def checked(s, p):
        got = fast(s, p)
        _same_steps(got, reference_steps(s, p))
        states[0] += 1
        return got

    assert abstract._state_key(start) == reference_state_key(start)
    with monkeypatch.context() as mp:
        mp.setattr(abstract, "rewrite_steps", checked)
        try:
            got = final_stores(start, program, max_states=MAX_STATES)
        except LimitExceeded as exc:
            got = ("limit", str(exc))
    try:
        want = reference_final_stores(start, program, max_states=MAX_STATES,
                                      rewrite_steps=reference_steps)
    except LimitExceeded as exc:
        want = ("limit", str(exc))
    assert got == want
    return states[0]


def _store(goals: str) -> AbstractStore:
    return AbstractStore.from_constraints(parse_goals(goals))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_programs(name, monkeypatch):
    start = AbstractStore.from_constraints(goals_for(name))
    assert check_search(start, load(name), monkeypatch) > 0


def test_engine_built_root_stores():
    """Stores built from a sequential run stopped after k steps: sparse
    engine ids as tags, equation tags after them, and a propagation history
    the store starts with."""
    stores = with_history = with_eqs = 0
    for name in sorted(CORPUS):
        program = load(name)
        for k in (0, 1, 2, 3, 5, 8, 13, 21, 34):
            res = run_sequential(goals_for(name), program, max_steps=k)
            store = res.state.store
            s = AbstractStore.from_identified(
                [(nc.constraint, nc.id) for nc in store.live_items()],
                store.eqs(), res.history)
            _same_steps(abstract.rewrite_steps(s, program),
                        reference_rewrite_steps(s, program))
            stores += 1
            with_history += bool(s.history)
            with_eqs += bool(s.eqs())
    assert (stores, with_history > 0, with_eqs > 0) == (81, True, True)


def test_acceptance_fuzz_cases(monkeypatch):
    rng = random.Random(20240817)  # the acceptance batch, in its order
    states = 0
    for _ in range(200):
        text, goals = fuzz_case(rng)
        states += check_search(_store(goals), load_program(text), monkeypatch)
    assert states > 5000


@pytest.mark.parametrize("goals", [
    "Get(m),Put(1),Get(n),Put(8)",
    "Get(a),Get(b),Get(c),Put(1),Put(2),Put(3)",
    "Get(m),Put(k),Get(n),Put(8),Put(k)",
    "Get(m),Put(m),Get(n),Put(n),m=3",
    "Get(m),Get(n),Put(1),m=n",
    "Get(m),Put(1),Put(2),m=2",
])
def test_channel_with_variable_goals(goals, monkeypatch):
    assert check_search(_store(goals), load("channel"), monkeypatch) > 0


# channel goal sets whose equations bind a variable to a variable
VAR_VAR_CHANNEL = ["Get(m),Put(k),Get(n),Put(8),Put(k)",
                   "Get(m),Get(n),Put(1),m=n",
                   "Get(a),Put(b),Get(b),Put(1),Get(c),Put(a)"]


def test_successors_of_equations_inherit_matches(monkeypatch):
    """Every `get` rewrite adds an equation.  At every state of a channel
    search that such a rewrite built, rewrite_steps must return what it
    returns for an origin-free copy of the store, which inherits nothing,
    with no more `match` calls, and fewer where a kept item keeps its
    form."""
    program, fast, real_match = load("channel"), abstract.rewrite_steps, \
        abstract.match
    calls = [0]
    counts: dict = {}  # goals -> states compared, match calls, copy's calls

    def counted(*args):
        calls[0] += 1
        return real_match(*args)

    def described(steps):
        return [(st.rule, st.phi, st.propagated, st.simplified, st.key,
                 st.result) for st in steps]

    def both(s, p):
        if s.origin is None or not any(isinstance(b, Eq)
                                       for b in p.rule(s.origin.rule).body):
            return fast(s, p)
        copy = AbstractStore(s.items, s.history, s.next_tag)
        calls[0] = 0
        got = fast(s, p)
        n_got, calls[0] = calls[0], 0
        assert described(got) == described(fast(copy, p))
        assert n_got <= calls[0]
        counts[goals] = [a + b for a, b in zip(counts[goals],
                                               (1, n_got, calls[0]))]
        return got

    k4 = "Get(z0),Get(z1),Get(z2),Get(z3),Put(5),Put(6),Put(7),Put(8)"
    for goals in [k4] + VAR_VAR_CHANNEL:
        counts[goals] = [0, 0, 0]
        with monkeypatch.context() as mp:
            mp.setattr(abstract, "match", counted)
            mp.setattr(abstract, "rewrite_steps", both)
            finals = final_stores(_store(goals), program)
        assert finals == reference_final_stores(_store(goals), program)
        assert counts[goals][0] > 0
    # k=4 binds only variables no kept item holds; in the last goal set
    # a=b moves Put(a) to Put(b), which is joined again (channel's body
    # has no CHR item, so every match call there is for a moved item)
    assert counts[k4][1:] == [0, 816]
    _, inherited, full = counts[VAR_VAR_CHANNEL[-1]]
    assert 0 < inherited < full


def test_guard_false_until_a_later_equation_binds_its_variable(monkeypatch):
    """pos's guard sees x=u, which is not ground, until bind adds u=1: the
    guard result for A(u) must not stand for A(1)."""
    program = load_program("bind @ C(v), D(w) <=> v=w.\n"
                           "pos @ A(x) <=> x>0 | B.")
    start = _store("A(u),C(u),D(1)")
    assert not any(st.rule == "pos"
                   for st in abstract.rewrite_steps(start, program))
    assert check_search(start, program, monkeypatch) > 0
    assert final_stores(start, program) == {("B", "u=1")}


def test_guard_without_variables_is_tested_once_per_search(monkeypatch):
    """r's guard has no variables.  Each A starts a join of r in the root,
    and again in each successor whose equation gives it a new form."""
    program = load_program("r @ A(x) <=> 1<2 | B(x).\n"
                           "s @ C(x), D(y) <=> x=y.")
    calls = []
    real = abstract.holds
    monkeypatch.setattr(abstract, "holds",
                        lambda *a: calls.append(a[2]) or real(*a))
    start = _store("A(u),A(v),C(u),D(v),C(w),D(1)")
    for n in (1, 2):
        finals = final_stores(start, program)
        assert calls.count(program.rule("r").guard) == n
    assert len(finals) > 1


def test_equation_fuzz_cases(monkeypatch):
    rng = random.Random(7)
    with_eqs = 0
    for _ in range(150):
        text, goals = equation_fuzz_case(rng)
        program = load_program(text)
        check_search(_store(goals), program, monkeypatch)
        with_eqs += any(isinstance(b, Eq) for r in program.rules for b in r.body)
    assert with_eqs >= 50  # equation bodies are common, not incidental


@pytest.mark.parametrize("text,goals", [
    ("r1 @ P ==> Q.", "P,P,P"),
    ("lt @ A(x), A(y) ==> x<y | L(x,y).", "A(1),A(2),A(3),A(2)"),
    ("down @ A(x) ==> x>0 | A(x-1).\n"
     "dup @ A(x) \\ A(x) <=> true.", "A(2),A(2),A(1)"),
    ("link @ E(x,y), E(y,z) ==> P(x,z).\n"
     "done @ P(x,z) \\ E(x,z) <=> true.", "E(1,2),E(2,3),E(1,3),E(3,1)"),
])
def test_propagation_history(text, goals, monkeypatch):
    """Pure propagation rules, alone and next to simplification, so the
    history (and its entries about removed instances) is part of every
    state key."""
    assert check_search(_store(goals), load_program(text), monkeypatch) > 0


def test_final_stores_builds_only_successors_with_a_new_key(monkeypatch):
    """A fuzz program removes a head in every rule, so no state has a
    history and every key is computed without building the successor."""
    rng = random.Random(20240817)
    cases = [fuzz_case(rng) for _ in range(40)]
    builds = [0]
    build = RewriteStep._build

    def counted(step):
        builds[0] += 1
        return build(step)

    steps: list = []
    fast = abstract.rewrite_steps

    def recorded(s, p):
        out = fast(s, p)
        steps.extend(out)
        return out

    duplicates = 0
    for text, goals in cases:
        start = _store(goals)
        builds[0], steps[:] = 0, []
        with monkeypatch.context() as mp:
            mp.setattr(RewriteStep, "_build", counted)
            mp.setattr(abstract, "rewrite_steps", recorded)
            try:
                final_stores(start, load_program(text), max_states=MAX_STATES)
            except LimitExceeded:
                continue
        new_keys = {st.key for st in steps} - {abstract._state_key(start)}
        assert builds[0] == len(new_keys)
        duplicates += len(steps) - len(new_keys)
    assert duplicates > 1000  # most successors are duplicates, never built


def test_inherited_propagation_match_leaves_with_its_history_entry(monkeypatch):
    """Both orders of `pair` match the same two instances, and the history
    keys on the instances: once one order fires, the other, which the
    successor inherits from its parent, must go."""
    program = load_program("pair @ A(x), A(y) ==> P(x,y).\n"
                           "cut @ P(x,y) \\ A(y) <=> x>y | true.")
    start = _store("A(1),A(2),A(3)")
    steps = abstract.rewrite_steps(start, program)
    first = steps[0]
    assert first.rule == "pair"
    assert [st.used_tags for st in steps].count(first.used_tags) == 2
    after = abstract.rewrite_steps(first.result, program)  # inherited
    assert ("pair", first.used_tags) not in {
        (st.rule, st.used_tags) for st in after}
    _same_steps(after, reference_rewrite_steps(first.result, program))
    assert check_search(start, program, monkeypatch) > 0


# ------------------------------------------------ partners looked up by key

def _engine_store(program, goals, max_steps=None) -> AbstractStore:
    res = run_sequential(goals, program, max_steps=max_steps)
    store = res.state.store
    return AbstractStore.from_identified(
        [(nc.constraint, nc.id) for nc in store.live_items()], store.eqs(),
        res.history)


def _lookups(monkeypatch) -> list:
    """Records the argument of every partner lookup the join makes."""
    seen = []
    lookup = abstract._Expansion.lookup

    def recorded(self, pred, pos, arg):
        seen.append(arg)
        return lookup(self, pred, pos, arg)

    monkeypatch.setattr(abstract._Expansion, "lookup", recorded)
    return seen


def test_large_buckets_looked_up_by_a_shared_variable(monkeypatch):
    """Mergesort stores with 128 values: the final one, the final one with
    more links from its least value, and 60 links and 30 merges on one
    level.  Both heads of merge1 share x and both of merge2 share n, so
    each partner is looked up by it."""
    program = load("mergesort")
    rng = random.Random(3)
    values = rng.sample(range(-500, 500), 128)
    final = _engine_store(
        program, parse_goals(",".join(f"Merge(1,{v})" for v in values)))
    least = Const(min(values))
    more = [Chr("Leq", (least, Const(v))) for v in rng.sample(values, 20)]
    level = [Chr("Leq", (Const(1), Const(v))) for v in values[:60]]
    level += [Chr("Merge", (Const(1), Const(v))) for v in values[60:90]]
    seen, rewrites = _lookups(monkeypatch), 0
    for s in (final, AbstractStore.from_constraints(final.constraints() + more),
              AbstractStore.from_constraints(level)):
        got = abstract.rewrite_steps(s, program)
        _same_steps(got, reference_rewrite_steps(s, program))
        rewrites += len(got)
    assert rewrites > 1000 and len(seen) > 300
    # a whole search: each successor's new link is joined through its own
    # store's index
    chain = sorted(values[:12])
    links = [Chr("Leq", (Const(a), Const(b))) for a, b in zip(chain, chain[1:])]
    links += [Chr("Leq", (Const(chain[0]), Const(v))) for v in values[12:14]]
    seen.clear()
    assert check_search(AbstractStore.from_constraints(links), program,
                        monkeypatch) > 10
    assert len(seen) > 20


def test_unsolved_variables_as_keys(monkeypatch):
    """Union-find stores with equations and unsolved variables, stopped
    along the run: some partners are looked up by a store variable."""
    from test_union_find import union_find_goals
    program = load("union_find")
    goals = union_find_goals(30, 2)[1]
    seen = _lookups(monkeypatch)
    for k in range(0, 400, 20):
        s = _engine_store(program, goals, k)
        _same_steps(abstract.rewrite_steps(s, program),
                    reference_rewrite_steps(s, program))
    assert any(isinstance(a, Var) for a in seen)
    goals = parse_goals("Leq(u,1),Leq(u,2),Leq(v,3),Leq(u,v),Leq(v,u),u=w")
    start = AbstractStore.from_constraints(goals)
    assert check_search(start, load("mergesort"), monkeypatch) > 1


@pytest.mark.parametrize("goals", [
    "A(true),A(1),B(1,true),B(1,1),B(true,1),B(true,true),B(1),A",
    "D(1,1),D(true,1),D(1,true),D(true,true),E(1),E(true),D(2,1),E(2)",
    "A(1),A(1),B(2,1),B(2,1),D(1,1),E(1),E(1),A(x),B(1,x),D(1,x),E(x)",
])
def test_constant_keys_tell_true_from_1(goals, monkeypatch):
    """A bound variable and a head constant as keys: Const(True) and
    Const(1) hash alike, and must not match.  Items that match nothing
    fill each bucket past the size below which it is scanned."""
    program = load_program("r @ A(x) \\ B(y,x) <=> C(y).\n"
                           "s @ E(y), D(1,z) <=> F(y,z).")
    assert [occ.keys for pred in "ABDE"
            for occ in program.occurrences[pred]] == [(1,), (0,), (None,),
                                                      (0,)]
    filler = ",".join(f"{p}({k},{k})" for p in "BD"
                      for k in range(10, 11 + abstract._SCAN_MAX))
    seen = _lookups(monkeypatch)
    assert check_search(_store(f"{goals},{filler}"), program,
                        monkeypatch) > 1
    assert seen


def test_check_final_looks_partners_up(monkeypatch):
    """check-final on a 128-value mergesort final store matches each item
    against its occurrences and looks its partners up: under 2 match calls
    per item, where a bucket scan makes one per pair of Leq items."""
    program = load("mergesort")
    values = random.Random(1).sample(range(1, 1000), 128)
    res = run_sequential(
        parse_goals(",".join(f"Merge(1,{v})" for v in values)), program)
    calls = [0]
    match = abstract.match

    def counted(*args):
        calls[0] += 1
        return match(*args)

    monkeypatch.setattr(abstract, "match", counted)
    assert not leftover(res.state, program, res.history)
    size = res.state.store.size()
    assert size == 128 and 0 < calls[0] <= 2 * size
