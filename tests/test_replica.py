"""The verifier's replica holds each fact of the goal-based state once.

After every replayed step, `entries`, `keys`, `terms` and `forms` share one
key set, the live ids, which every numbered goal is in; the history holds
only instances of rules with no simplified head, as the engines keep it;
and `last_id` is the largest id activated so far.  At the end of a run the
live ids are the ones the engine's store dump lists.
"""
import random
import re

from chrkit.concurrent import EngineConfig, run_concurrent
from chrkit.sequential import run_sequential
from chrkit.syntax import load_program, parse_goals
from chrkit.trace import parse_trace, serialize_trace
from chrkit.verify import _Replica, _replay_step, _run_replay

from conftest import CORPUS, equation_fuzz_case, fuzz_case, goals_for, load
from test_union_find import union_find_goals


def _cases():
    """(label, program, goals): the corpus, 60 fuzz cases, 60 equation
    fuzz cases and union-find, whose Solves wake goals."""
    out = [(name, load(name), goals_for(name)) for name in sorted(CORPUS)]
    for batch, make, seed in (("fuzz", fuzz_case, 5),
                              ("eqfuzz", equation_fuzz_case, 20240817)):
        rng = random.Random(seed)
        for case in range(60):
            text, goals = make(rng)
            out.append((f"{batch}/{case}", load_program(text),
                        parse_goals(goals)))
    out.append(("union_find", load("union_find"), union_find_goals(20, 1)[1]))
    return out


def _dump_ids(dump):
    return {int(m[1]) for m in re.finditer(r"#([0-9]+)$", dump, re.M)}


def _check(rep, last_id, program, where):
    live = rep.entries.keys()
    assert rep.keys.keys() == live == rep.terms.keys() == rep.forms.keys(), \
        where
    assert all(k in live for k in rep.goals if k.__class__ is int), where
    assert all(not program.rule(name).simplified for name, _ in rep.history), \
        where
    assert rep.last_id == last_id, where


def test_the_replica_holds_exactly_the_live_ids_after_every_step():
    cases = _cases()
    seen = {"runs": 0, "kills": 0, "history": 0, "stale": 0}
    for k, (label, program, goals) in enumerate(cases):
        for engine, res in (
                ("seq", run_sequential(goals, program)),
                ("w2", run_concurrent(goals, program,
                                      EngineConfig(workers=2, seed=k)))):
            dump = res.state.store.dump()
            trace = parse_trace(serialize_trace(res.trace, {}, res.status,
                                                dump))
            rep, last_id = _Replica(goals), -1
            for i, st in enumerate(trace.steps):
                queued = {j for j in st.simp_ids if j in rep.goals}
                assert _replay_step(rep, st, trace.goal_texts[i],
                                    trace.phi_texts[i], program) is None
                if st.kind == "Activate":
                    last_id = max(last_id, st.goal_id)
                _check(rep, last_id, program, (label, engine, i))
                seen["kills"] += len(st.simp_ids)
                seen["stale"] += len(queued - {st.goal_id})
            assert set(rep.entries) == _dump_ids(dump), (label, engine)
            seen["runs"] += 1
            seen["history"] += bool(rep.history)
    # a queued numbered goal killed by another goal's firing is dropped
    assert seen["runs"] == 2 * len(cases) and min(seen.values()) > 0, seen


def test_a_long_gcd_run_leaves_one_entry_and_no_history():
    """360 Gcd goals on two workers: some 1,900 to 2,700 activations, how
    many depending on the thread schedule, every one of which but the last
    is killed; after that one entry is live and no rule without a
    simplified head has fired."""
    program = load("gcd")
    goals = parse_goals(",".join(f"Gcd({6 * (1 + i % 12)})"
                                 for i in range(360)))
    res = run_concurrent(goals, program, EngineConfig(workers=2, seed=3))
    trace = parse_trace(serialize_trace(res.trace, {}, res.status,
                                        res.state.store.dump()))
    activated = sum(st.kind == "Activate" for st in trace.steps)
    killed = sum(len(st.simp_ids) for st in trace.steps)
    assert killed == activated - 1 and activated >= 360
    rep, replayed = _run_replay(trace, goals, program)
    assert replayed.passed
    assert len(rep.entries) == len(rep.keys) == len(rep.terms) == 1
    assert not rep.history
