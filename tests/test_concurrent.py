import random
import threading
from collections import Counter, deque

import pytest

import chrkit.concurrent
import chrkit.sequential
from chrkit.concurrent import (ConcurrentEngine, EngineConfig, run_concurrent,
                               _TickConflict)
from chrkit.sequential import run_sequential
from chrkit.syntax import load_program, parse_goals
from chrkit.terms import Chr, Const, Eq, Var
from chrkit.trace import Step, serialize_trace, step_to_line
from chrkit.verify import decompose_k, verify_run

from conftest import (CORPUS, MULTI_FIRING, canonical, equation_fuzz_case,
                      fuzz_case, goals_for, leftover, load,
                      overlapping_firing_pairs,
                      run_pitfall_variant, run_scripted_pair, scripted_overlap,
                      unstamped)


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(workers=0)


def test_empty_goals_empty_trace():
    res = run_concurrent((), load("gcd"), EngineConfig(workers=3))
    assert res.status == "done"
    assert res.trace == []
    assert res.state.store.dump() == ""


@pytest.mark.parametrize("workers", [2, 4])
def test_gcd_on_workers_simplifies_propagated_heads_down_to_one_entry(workers):
    rng = random.Random(3)
    goals = [Chr("Gcd", (Const(6 * rng.randint(1, 59)),)) for _ in range(100)]
    eng = ConcurrentEngine(load("gcd"), EngineConfig(workers=workers, seed=1))
    assert eng.run(goals) is eng
    assert eng.status == "done" and eng.store.size() == 1
    assert any(s.prop_ids for s in eng.trace if s.kind == "Simplify")


def _lines(trace):
    """Each step's trace line, seq included, without worker and interval."""
    return [step_to_line(unstamped(r)) for r in trace]


def test_single_worker_matches_sequential_dump_on_corpus():
    """One worker is the sequential derivation: the same steps with the same
    seq numbers, and the same final store."""
    cases = [(name, load(name), goals_for(name)) for name in CORPUS]
    rng = random.Random(5)
    for k in range(200):
        text, goals = fuzz_case(rng)
        cases.append((f"fuzz {k}", load_program(text), parse_goals(goals)))
    rng = random.Random(20240817)
    for k in range(150):
        text, goals = equation_fuzz_case(rng)
        cases.append((f"eqfuzz {k}", load_program(text), parse_goals(goals)))
    for name, p, goals in cases:
        seq = run_sequential(goals, p, policy="fifo")
        con = run_concurrent(goals, p, EngineConfig(workers=1))
        assert con.status == seq.status, name
        assert con.state.store.dump() == seq.state.store.dump(), name
        assert _lines(con.trace) == _lines(seq.trace), name


def test_single_worker_step_limit_leaves_the_sequential_goals():
    """At a step limit one worker leaves the goals the sequential engine
    leaves: both run the same goal loop."""
    p, goals = load("mergesort"), goals_for("mergesort")
    for limit in range(60):
        seq = run_sequential(goals, p, max_steps=limit)
        con = run_concurrent(goals, p, EngineConfig(workers=1, max_steps=limit))
        assert list(con.state.goals) == list(seq.state.goals), limit


def test_gcd_answer_stable_across_workers_and_seeds():
    p, goals = load("gcd"), goals_for("gcd")
    for workers in (2, 4):
        for seed in range(8):
            res = run_concurrent(goals, p, EngineConfig(workers=workers, seed=seed))
            assert res.status == "done"
            assert canonical(res.state.store) == ("Gcd(3)",)


def test_channel_always_one_of_the_two_answers():
    p, goals = load("channel"), goals_for("channel")
    answers = {("m=1", "n=8"), ("m=8", "n=1")}
    seen = set()
    for seed in range(40):
        res = run_concurrent(goals, p, EngineConfig(workers=4, seed=seed))
        assert res.status == "done"
        got = canonical(res.state.store)
        assert got in answers
        seen.add(got)
    # committed choice: which pairing wins is schedule-dependent
    assert len(seen) >= 1


def test_trace_is_ordered_by_seq_and_intervals_are_sane():
    res = run_concurrent(goals_for("mergesort"), load("mergesort"),
                         EngineConfig(workers=4, seed=1))
    seqs = [r.seq for r in res.trace]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    for r in res.trace:
        start, commit = r.interval
        assert start < commit == r.seq
        assert 0 <= r.worker < 4


def test_commit_firing_loses_race_on_dead_id():
    p = load("channel")
    eng = ConcurrentEngine(p, EngineConfig(workers=1))
    g1 = eng.store.insert(Chr("Get", (Var("x1"),)))
    g2 = eng.store.insert(Chr("Get", (Var("x2"),)))
    put = eng.store.insert(Chr("Put", (Const(1),)))
    first = eng.commit_firing((g1, put), (), len(eng.trace) - 1)
    assert first is not None
    # the same Put can only die once: the second firing must abort, even
    # from a scan that saw the first commit
    second = eng.commit_firing((g2, put), (), first)
    assert second is None
    assert eng.store.alive(g2)  # aborted commit mutated nothing


def test_commit_firing_empty_simplified_set_commits():
    eng = ConcurrentEngine(load("prop_once"), EngineConfig(workers=1))
    cid = eng.store.insert(Chr("P"))
    tick = eng.commit_firing((), (cid,), len(eng.trace) - 1)
    assert tick is not None
    assert eng.store.alive(cid)
    assert eng.store.dump() == "P#1"


def test_commit_firing_rejects_simplify_after_overlapping_propagation():
    eng = ConcurrentEngine(load("prop_once"), EngineConfig(workers=1))
    cid = eng.store.insert(Chr("P"))
    early_start = len(eng.trace) - 1
    eng.execute_goal(cid, deque(), 0)  # commits r1, propagating over P
    (prop,) = eng.trace
    assert (prop.kind, prop.prop_ids) == ("Propagate", (cid,))
    # a firing whose scan started before that propagation committed must
    # retry rather than kill the propagated head
    with pytest.raises(_TickConflict):
        eng.commit_firing((cid,), (), early_start)
    # with a fresh scan, which saw the propagation, it goes through
    assert eng.commit_firing((cid,), (), prop.seq) is not None


def test_commit_firing_rejects_simplify_of_an_id_a_solve_woke_since():
    """A Solve propagates over the ids it wakes: a firing whose scan started
    before the Solve committed may not simplify them."""
    eng = ConcurrentEngine(load("channel"), EngineConfig(workers=1))
    get = eng.store.insert(Chr("Get", (Var("x"),)))
    put = eng.store.insert(Chr("Put", (Const(1),)))
    early_start = len(eng.trace) - 1
    solve = eng.step_solve(Eq(Var("x"), Const(5)), deque(), 0)
    assert (solve.kind, solve.prop_ids) == ("Solve", (get,))
    with pytest.raises(_TickConflict):
        eng.commit_firing((get, put), (), early_start)
    assert eng.commit_firing((get, put), (), solve.seq) is not None


def last_propagation_ticks(trace) -> dict[int, int]:
    """The table the concurrent engine once kept beside its trace: per live
    id, the seq of the last step that propagated over it.  Every commit
    wrote its P; a simplified id left the table, since a dead id never
    reaches the check."""
    ticks: dict[int, int] = {}
    for step in trace:
        for i in step.simp_ids:
            ticks.pop(i, None)
        for i in step.prop_ids:
            ticks[i] = step.seq
    return ticks


def test_tick_check_on_the_trace_agrees_with_a_last_propagation_table():
    """On seeded random traces over a few ids, commit_firing refuses a
    simplified set exactly when the table replayed from the same trace
    says an id in it was propagated over after the scan's start; it
    commits otherwise, unless an id is dead."""
    rng = random.Random(25)

    def pick(ids, lo, hi):
        k = min(len(ids), rng.randint(lo, hi))
        return tuple(sorted(rng.sample(ids, k)))

    outcomes = Counter()
    for case in range(600):
        eng = ConcurrentEngine(load("prop_once"), EngineConfig(workers=1))
        ids = [eng.store.insert(Chr("P")) for _ in range(8)]
        for seq in range(rng.randint(0, 30)):
            alive = [i for i in ids if eng.store.alive(i)]
            kind = rng.choice(("Propagate", "Propagate", "Simplify", "Solve",
                               "Drop"))
            prop = () if kind == "Drop" else pick(alive, 0, 3)
            simp = ()
            if kind == "Simplify":
                simp = pick([i for i in alive if i not in prop], 1, 2)
                eng.store.kill(simp)
            start = rng.randint(-1, seq - 1)
            eng.trace.append(Step(seq, kind, Chr("P"), None, None, {}, prop,
                                  simp, 0, (start, seq)))
        start = rng.randint(-1, len(eng.trace) - 1)
        # mostly live ids; now and then one that a Simplify step killed
        pool = ids if rng.random() < 0.2 else [i for i in ids
                                                if eng.store.alive(i)]
        simp = pick(pool, 0, 2)
        prop = pick([i for i in pool if i not in simp], 0, 2)
        ticks = last_propagation_ticks(eng.trace)
        if not all(eng.store.alive(i) for i in simp + prop):
            want = "stale"
        elif any(ticks.get(i, -1) > start for i in simp):
            want = "conflict"
            # the last propagation over the id need not be the last step
            if all(ticks.get(i, -1) < len(eng.trace) - 1 for i in simp):
                outcomes["conflict before the last step"] += 1
        else:
            want = "commit"
        try:
            tick = eng.commit_firing(simp, prop, start)
            got = "stale" if tick is None else "commit"
        except _TickConflict:
            got = "conflict"
        assert got == want, (case, start, simp, prop, eng.trace)
        outcomes[want] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_propagation_history_insert_if_absent_is_atomic():
    eng = ConcurrentEngine(load("prop_once"), EngineConfig(workers=1))
    cid = eng.store.insert(Chr("P"))
    key = ("r1", (cid,))
    tick = eng.commit_firing((), (cid,), len(eng.trace) - 1, key)
    assert tick is not None
    assert eng.commit_firing((), (cid,), tick, key) is None


def test_two_concurrent_solves_both_land():
    res = run_concurrent(parse_goals("x1=1,x2=2"), load("channel"),
                         EngineConfig(workers=2, seed=0))
    assert res.state.store.dump() == "x1=1\nx2=2"


def test_solve_wakes_under_concurrency():
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    goals = parse_goals("A(a),B(2),a=2")
    for seed in range(20):
        res = run_concurrent(goals, p, EngineConfig(workers=3, seed=seed))
        assert res.status == "done"
        assert canonical(res.state.store) == ("C(2)", "a=2"), seed


def test_failed_status_on_inconsistency():
    res = run_concurrent(parse_goals("a=1,a=2,Get(x)"), load("channel"),
                         EngineConfig(workers=2, seed=3))
    assert res.status == "failed"


def test_step_limit_concurrent():
    loop = load_program("r @ A <=> A.")
    res = run_concurrent(parse_goals("A"), loop,
                         EngineConfig(workers=2, seed=0, max_steps=25))
    assert res.status == "step-limit"


@pytest.mark.parametrize("limit", [0, 3])
@pytest.mark.parametrize("workers", [1, 2])
def test_step_limit_records_at_most_max_steps_on_both_engines(limit, workers):
    p, goals = load("gcd"), parse_goals("Gcd(4),Gcd(6)")
    seq = run_sequential(goals, p, max_steps=limit)
    con = run_concurrent(goals, p, EngineConfig(workers=workers, seed=1,
                                                max_steps=limit))
    assert (len(seq.trace), seq.status) == (limit, "step-limit")
    assert (len(con.trace), con.status) == (limit, "step-limit")
    if limit == 0:  # a goal refused at the limit goes back to the pool
        assert Counter(con.state.goals) == Counter(goals)


# ------------------------------------------------------- worker threads

def _count_thread_starts(monkeypatch) -> list:
    """Every thread the engine starts, through a counting `Thread`."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(chrkit.concurrent.threading, "Thread", CountingThread)
    return started


class _StepThreads(ConcurrentEngine):
    """Records the worker and the thread of each committed step."""

    def __init__(self, program, cfg):
        super().__init__(program, cfg)
        self.step_threads = []

    def _commit(self, effect, start, worker, item, goals):
        step = super()._commit(effect, start, worker, item, goals)
        if step is not None:
            self.step_threads.append((worker, threading.get_ident()))
        return step


def test_one_worker_starts_no_thread_and_steps_on_the_caller(monkeypatch):
    started = _count_thread_starts(monkeypatch)
    before = threading.active_count()
    eng = _StepThreads(load("gcd"), EngineConfig(workers=1))
    res = eng.run(goals_for("gcd"))
    assert res.status == "done" and res.trace
    assert started == []
    assert set(eng.step_threads) == {(0, threading.get_ident())}
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 4])
def test_n_workers_start_n_minus_1_threads(workers, monkeypatch):
    """The caller is worker 0; the other workers get a thread each, and every
    one of them has ended when `run` returns."""
    started = _count_thread_starts(monkeypatch)
    before = threading.active_count()
    eng = _StepThreads(load("gcd"), EngineConfig(workers=workers, seed=1))
    res = eng.run(goals_for("gcd"))
    assert res.status == "done"
    assert len(started) == workers - 1
    assert not any(t.is_alive() for t in started)
    assert threading.active_count() == before
    caller = threading.get_ident()
    assert all((ident == caller) == (w == 0) for w, ident in eng.step_threads)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("crashing", [0, 1])
def test_a_worker_crash_is_reraised_after_every_worker_stops(crashing,
                                                            monkeypatch):
    """Worker `crashing` raises in its first partner search after every
    worker has begun one.  Each worker loops on a goal of its own (A <=> A),
    so all are busy when it happens; `run` re-raises the exception only once
    all of them have stopped."""
    started = _count_thread_starts(monkeypatch)
    wid, searching = threading.local(), set()
    iter_matches = chrkit.sequential.iter_matches

    def crashing_iter_matches(store, goal, goal_id, program):
        searching.add(wid.value)
        if wid.value == crashing and len(searching) == 3:
            raise _Boom(crashing)
        return iter_matches(store, goal, goal_id, program)

    class Tagged(ConcurrentEngine):
        def _worker(self, w):
            wid.value = w
            super()._worker(w)

    monkeypatch.setattr(chrkit.sequential, "iter_matches", crashing_iter_matches)
    before = threading.active_count()
    # the step limit only bounds the test should the crash never come
    eng = Tagged(load_program("r @ A <=> A."),
                 EngineConfig(workers=3, seed=0, max_steps=100_000))
    with pytest.raises(_Boom) as info:
        eng.run(parse_goals("A,A,A,A,A,A"))
    assert info.value.args == (crashing,)
    assert len(started) == 2
    assert not any(t.is_alive() for t in started)
    assert threading.active_count() == before
    assert eng.status == "failed"
    assert {s.worker for s in eng.trace} == {0, 1, 2}


# ------------------------------------------------------------ decompose

# overlap audit records: (seq, (start, commit) interval, prop ids, simp ids)

def test_decompose_two_disjoint_overlapping_firings():
    trace = [
        (10, (1, 10), (), (1, 3)),
        (11, (2, 11), (), (2, 4)),
    ]
    pairs, violation = decompose_k(trace)
    assert violation is None
    assert pairs == [(10, 11)]


def test_decompose_sequential_trace_has_singleton_groups():
    trace = [
        (5, (1, 5), (), (1, 3)),
        (8, (6, 8), (), (2, 4)),
    ]
    pairs, violation = decompose_k(trace)
    assert violation is None and pairs == []


def test_decompose_flags_shared_simplified_id():
    trace = [
        (10, (1, 10), (), (1, 3)),
        (11, (2, 11), (), (1, 4)),
    ]
    pairs, violation = decompose_k(trace)
    assert violation == (10, 11, (1,))


def test_decompose_flags_propagated_head_killed_by_overlapping_firing():
    trace = [
        (10, (1, 10), (7,), ()),
        (11, (2, 11), (), (7,)),
    ]
    _, violation = decompose_k(trace)
    assert violation is not None


def test_engine_traces_never_violate_overlap_audit():
    for name in ("gcd", "mergesort", "channel"):
        p, goals = load(name), goals_for(name)
        for seed in range(10):
            res = run_concurrent(goals, p, EngineConfig(workers=4, seed=seed))
            _, violation = decompose_k(
                (r.seq, r.interval, r.prop_ids, r.simp_ids)
                for r in res.trace)
            assert violation is None, (name, seed, violation)


@pytest.mark.parametrize("name", MULTI_FIRING)
def test_scripted_schedule_commits_overlapping_pairs(name, monkeypatch):
    p = load(name)
    forced = scripted_overlap(p, goals_for(name), monkeypatch)
    assert forced is not None, name
    order, res = forced
    assert overlapping_firing_pairs(res.trace) > 0
    assert {r.worker for r in res.trace} == {0, 1}
    # the schedule is a legal run: the whole verifier accepts its trace
    text = serialize_trace(res.trace, {}, res.status, res.state.store.dump())
    verdicts = verify_run(text, order, p, concurrent=True)
    assert len(verdicts) == 4 and all(v.passed for v in verdicts), verdicts
    # and it is fixed: the same goal order gives the same trace again
    with monkeypatch.context() as mp:
        again = run_scripted_pair(p, order, mp)
    assert again.trace == res.trace


# ------------------------------------------------------- rejected variants

def test_store_on_drop_activation_reaches_stuck_state():
    p = load("pitfall_pair")
    goals = parse_goals("A(1),B(2)")
    state = run_pitfall_variant([[goals[0]], [goals[1]]], p, "store_on_drop")
    assert state.store.dump() == "A(1)#1\nB(2)#2"
    assert leftover(state, p)


def test_split_store_execution_reaches_stuck_state():
    p = load("pitfall_split")
    g = parse_goals("A,E,B,D")
    state = run_pitfall_variant([[g[0], g[1]], [g[2], g[3]]], p, "split_store")
    assert canonical(state.store) == ("A", "B", "D", "E")
    assert leftover(state, p)


def test_multi_step_before_join_reaches_stuck_state():
    p = load("pitfall_single")
    g = parse_goals("A,B")
    state = run_pitfall_variant([[g[0]], [g[1]]], p, "multi_step")
    assert canonical(state.store) == ("A", "B")
    assert leftover(state, p)


def test_shipped_engine_avoids_all_three_pitfalls():
    for name, split in (("pitfall_pair", 2), ("pitfall_split", 2),
                        ("pitfall_single", 2)):
        p, goals = load(name), goals_for(name)
        for seed in range(10):
            res = run_concurrent(goals, p, EngineConfig(workers=split, seed=seed))
            assert res.status == "done"
            assert not leftover(res.state, p, res.history), (name, seed)
