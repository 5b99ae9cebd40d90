import random

import pytest

from chrkit.concurrent import EngineConfig, run_concurrent
from chrkit.sequential import run_sequential
from chrkit.store import NumberedConstraint, State
from chrkit.syntax import ParseError, load_program, parse_goals, parse_term_text
from chrkit.terms import FUNCTION_SYMBOLS, App, Chr, Const, Eq, Var
from chrkit.trace import (CommitRecord, SideEffect, TraceFormatError,
                          TraceStep, parse_line, parse_trace, serialize_trace,
                          step_to_line)
from chrkit.verify import (Verdict, audit_overlap_trace, check_final,
                           decompose_k, no_ids, project_abstract, replay,
                           verify_run)

from conftest import CORPUS, all_pairs_audit, goals_for, load


def seq_trace_text(name, goals=None):
    p = load(name)
    goals = goals if goals is not None else goals_for(name)
    res = run_sequential(goals, p)
    text = serialize_trace(res.trace, {"engine": "sequential"},
                           res.status, res.state.store.dump())
    return p, goals, res, text


def con_trace_text(name, workers=4, seed=0, goals=None):
    p = load(name)
    goals = goals if goals is not None else goals_for(name)
    res = run_concurrent(goals, p, EngineConfig(workers=workers, seed=seed))
    text = serialize_trace(
        res.trace,
        {"engine": "concurrent", "workers": str(workers), "seed": str(seed)},
        res.status, res.state.store.dump())
    return p, goals, res, text


# ---------------------------------------------------------------- no_ids

def test_no_ids_keeps_plain_constraints_and_equations():
    goals = [NumberedConstraint(Chr("Get", (Var("x2"),)), 2),
             Chr("Put", (Const(2),)),
             Eq(Var("x1"), Const(1))]
    assert no_ids(goals) == [Chr("Put", (Const(2),)), Eq(Var("x1"), Const(1))]


def test_no_ids_empty():
    assert no_ids([]) == []


# ---------------------------------------------------------------- replay

def test_replay_sequential_corpus():
    for name in CORPUS:
        p, goals, _, text = seq_trace_text(name)
        verdict = replay(parse_trace(text), goals, p)
        assert verdict.passed, (name, verdict.detail)


def test_replay_concurrent_traces():
    for name in ("gcd", "channel", "mergesort", "prop_once"):
        for seed in range(5):
            p, goals, _, text = con_trace_text(name, seed=seed)
            verdict = replay(parse_trace(text), goals, p)
            assert verdict.passed, (name, seed, verdict.detail)


def test_replay_rejects_forged_double_kill():
    p, goals, res, text = seq_trace_text("channel",
                                         parse_goals("Get(x1),Get(x2),Put(1),Put(2)"))
    # forge the second firing to re-kill the already-dead id 1
    forged = text.replace("S={2,4}", "S={1,4}")
    assert forged != text
    verdict = replay(parse_trace(forged), parse_goals("Get(x1),Get(x2),Put(1),Put(2)"), p)
    assert not verdict.passed
    assert "not alive" in verdict.detail


def test_replay_rejects_tampered_final_dump():
    p, goals, _, text = seq_trace_text("gcd")
    forged = text.replace("# final: Gcd(3)#6", "# final: Gcd(4)#6")
    verdict = replay(parse_trace(forged), goals, p)
    assert not verdict.passed and "mismatch" in verdict.detail


def test_replay_rejects_duplicated_propagation():
    p, goals, res, text = seq_trace_text("prop_once")
    lines = text.splitlines()
    prop = next(l for l in lines if " Propagate " in l)
    seq = int(prop.split(" ", 1)[0])
    lines.insert(lines.index(prop) + 1,
                 str(seq * 1000) + prop[prop.index(" "):])
    verdict = replay(parse_trace("\n".join(lines)), goals, p)
    assert not verdict.passed


def test_replay_checks_wake_up_sets():
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    goals = parse_goals("A(a),B(2),a=2")
    res = run_sequential(goals, p)
    text = serialize_trace(res.trace, {}, res.status, res.state.store.dump())
    assert replay(parse_trace(text), goals, p).passed
    forged = text.replace("Solve goal=a=2 P={1}", "Solve goal=a=2 P={}")
    verdict = replay(parse_trace(forged), goals, p)
    assert not verdict.passed and "wake-up" in verdict.detail


def test_replay_activation_after_solve_records_normal_form():
    # the equation lands first, so the activation stores (and records) the
    # constraint already normalized
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    goals = parse_goals("u=1,A(u),B(1)")
    res = run_sequential(goals, p)
    assert res.state.store.dump() == "C(1)#3\nu=1"
    text = serialize_trace(res.trace, {}, res.status, res.state.store.dump())
    assert replay(parse_trace(text), goals, p).passed


def test_replay_same_id_woken_twice():
    p = load_program("r2 @ A(x,y), B(x,y) <=> C.")
    goals = parse_goals("A(u,w),B(1,2),u=1,w=2")
    res = run_sequential(goals, p)
    text = serialize_trace(res.trace, {}, res.status, res.state.store.dump())
    verdict = replay(parse_trace(text), goals, p)
    assert verdict.passed, verdict.detail


def test_replay_failed_concurrent_runs():
    # firings racing an inconsistency must linearize before it or not at all
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    goals = parse_goals("A(u),B(3),u=1,u=2,A(w),B(7)")
    for seed in range(20):
        res = run_concurrent(goals, p, EngineConfig(workers=4, seed=seed))
        assert res.status == "failed"
        text = serialize_trace(res.trace, {}, res.status,
                               res.state.store.dump())
        verdict = replay(parse_trace(text), goals, p)
        assert verdict.passed, (seed, verdict.detail)


# ------------------------------------------------------- project_abstract

def test_project_abstract_sequential_corpus():
    for name in CORPUS:
        p, goals, _, text = seq_trace_text(name)
        verdict = project_abstract(parse_trace(text), goals, p)
        assert verdict.passed, (name, verdict.detail)


def test_project_abstract_concurrent_channel_reaches_an_answer():
    p, goals, res, text = con_trace_text("channel", seed=2)
    assert project_abstract(parse_trace(text), goals, p).passed
    from chrkit.abstract import canonical_multiset
    answer = canonical_multiset(res.state.store.drop_ids())
    assert answer in {("m=1", "n=8"), ("m=8", "n=1")}


def test_project_abstract_empty_trace():
    p = load("gcd")
    text = serialize_trace([], {}, "done", "")
    assert project_abstract(parse_trace(text), (), p).passed


def test_project_abstract_rejects_invalid_rewrite():
    p, goals, _, text = seq_trace_text("gcd")
    # claim a different rule fired where gcd2 did
    forged = text.replace("rule=gcd2", "rule=gcd1", 1)
    verdict = project_abstract(parse_trace(forged), goals, p)
    assert not verdict.passed


# ------------------------------------------------------------ check_final

def test_check_final_passes_on_finished_runs():
    for name in CORPUS:
        p, goals = load(name), goals_for(name)
        res = run_sequential(goals, p)
        assert check_final(res.state, p, res.history).passed, name


def test_check_final_rejects_stuck_pair():
    p = load_program("r1 @ A, B <=> C.")
    st = State()
    st.store.insert(Chr("A"))
    st.store.insert(Chr("B"))
    verdict = check_final(st, p)
    assert not verdict.passed and "r1" in verdict.detail


def test_check_final_empty_state_passes():
    assert check_final(State(), load("gcd")).passed


def test_check_final_rejects_pending_goals():
    st = State()
    st.goals.append(Chr("A"))
    assert not check_final(st, load_program("r1 @ A <=> true.")).passed


# ---------------------------------------------------------- audit_overlap

def test_audit_overlap_sequential_trace_vacuous():
    p, goals, _, text = seq_trace_text("gcd")
    verdict = audit_overlap_trace(parse_trace(text))
    assert verdict.passed


def test_audit_overlap_concurrent_traces():
    for seed in range(10):
        p, goals, _, text = con_trace_text("mergesort", seed=seed)
        assert audit_overlap_trace(parse_trace(text)).passed


def test_audit_overlap_flags_synthetic_violation():
    text = "\n".join([
        "# chr-trace v1",
        "10 Simplify goal=G(x1)#1 rule=r P={} S={1,3} worker=0 interval=1,10",
        "11 Simplify goal=G(x1)#1 rule=r P={} S={1,4} worker=1 interval=2,11",
        "# status=done",
    ])
    verdict = audit_overlap_trace(parse_trace(text))
    assert not verdict.passed and "10" in verdict.detail


def test_sweep_audit_matches_all_pairs_reference():
    # small tick ranges give equal starts, touching ends, empty and reversed
    # intervals
    rng = random.Random(7)
    violating_cases = 0
    for _ in range(400):
        records = []
        for seq in rng.sample(range(100), rng.randrange(25)):
            start = rng.randrange(20)
            ids = rng.sample(range(1, 8), rng.randrange(4))
            cut = rng.randrange(len(ids) + 1)
            records.append((seq, (start, start + rng.randrange(-1, 7)),
                            tuple(sorted(ids[:cut])), tuple(sorted(ids[cut:]))))
        want_pairs, want_violating = all_pairs_audit(records)
        pairs, violation = decompose_k(records)
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == want_pairs
        assert (violation is not None) == want_violating
        if violation is not None:
            violating_cases += 1
            a, b, clash = violation
            assert (a, b) in want_pairs and clash
    assert 0 < violating_cases < 400


# -------------------------------------------------------------- verify_run

def test_verify_run_full_battery_sequential():
    p, goals, _, text = seq_trace_text("mergesort")
    verdicts = verify_run(text, goals, p)
    assert [v.check for v in verdicts] == ["replay", "project-abstract",
                                           "check-final"]
    assert all(v.passed for v in verdicts)


def test_verify_run_full_battery_concurrent():
    p, goals, _, text = con_trace_text("gcd", seed=4)
    verdicts = verify_run(text, goals, p, concurrent=True)
    assert [v.check for v in verdicts] == ["replay", "project-abstract",
                                           "check-final", "audit-overlap"]
    assert all(v.passed for v in verdicts)


def _relines(text, edit):
    """Apply `edit` to the step lines of a trace and number them afresh."""
    head = [l for l in text.splitlines() if l.startswith("#")]
    steps = edit([l for l in text.splitlines() if not l.startswith("#")])
    steps = [f"{k} {l.split(' ', 1)[1]}" for k, l in enumerate(steps)]
    return "\n".join(head[:2] + steps + head[2:])


def _wake_program():
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    goals = parse_goals("A(a),B(2),a=2")
    res = run_sequential(goals, p)
    return p, goals, serialize_trace(res.trace, {}, res.status,
                                     res.state.store.dump())


def _duplicate_propagation(lines):
    k = next(i for i, l in enumerate(lines) if " Propagate " in l)
    return lines[:k + 1] + [lines[k]] + lines[k + 1:]


FORGERIES = [
    # (name, program, goals, forge, check, detail)
    ("wrong rule", "gcd", None,
     lambda t: t.replace("rule=gcd2", "rule=gcd1", 1),
     "replay", "step 3: propagated heads do not match rule gcd1"),
    ("wrong wake-up set", None, None,
     lambda t: t.replace("Solve goal=a=2 P={1}", "Solve goal=a=2 P={}"),
     "replay", "wake-up mismatch: recorded [], expected [1]"),
    ("step deleted", "gcd", None,
     lambda t: _relines(t, lambda ls: [l for l in ls
                                       if "Activate goal=Gcd(0)#3" not in l]),
     "replay", "goal id 3 is not alive"),
    ("duplicate seq", "gcd", None,
     lambda t: t.replace("\n5 Simplify", "\n4 Simplify"),
     "replay", "duplicate seq numbers"),
    ("altered final dump", "gcd", None,
     lambda t: t.replace("# final: Gcd(3)#6", "# final: Gcd(4)#6"),
     "replay", "final store mismatch"),
    ("simplified id not alive", "channel",
     "Get(x1),Get(x2),Put(1),Put(2)",
     lambda t: t.replace("S={2,4}", "S={1,4}"),
     "replay", "side-effect ids not alive: [1]"),
    ("propagation fired twice", "prop_once", None,
     lambda t: _relines(t, _duplicate_propagation),
     "replay", "propagation instance fired twice"),
]


@pytest.mark.parametrize("name,prog,goals,forge,check,detail", FORGERIES,
                         ids=[f[0] for f in FORGERIES])
def test_verify_run_rejects_forged_traces(name, prog, goals, forge, check,
                                          detail):
    if prog is None:
        p, goals, text = _wake_program()
    else:
        goals = parse_goals(goals) if goals else goals_for(prog)
        p, goals, _, text = seq_trace_text(prog, goals)
    assert all(v.passed for v in verify_run(text, goals, p))
    forged = forge(text)
    assert forged != text
    verdicts = verify_run(forged, goals, p)
    assert [v.check for v in verdicts] == [check]
    assert not verdicts[0].passed and detail in verdicts[0].detail, verdicts


def test_verdict_requires_detail_on_failure():
    with pytest.raises(ValueError):
        Verdict(False, "replay")


# ------------------------------------------------------------- round trip

def test_trace_serialization_roundtrip():
    p, goals, res, text = seq_trace_text("gcd")
    parsed = parse_trace(text)
    assert parsed.status == "done"
    assert parsed.final_dump == res.state.store.dump()
    assert len(parsed.steps) == len(res.trace)
    again = parse_trace(text)
    assert [(s.seq, s.kind, s.prop_ids, s.simp_ids) for s in parsed.steps] == \
           [(s.seq, s.kind, s.prop_ids, s.simp_ids) for s in again.steps]


def test_trace_phi_and_interval_fields_roundtrip():
    p, goals, res, text = con_trace_text("gcd", seed=1)
    parsed = parse_trace(text)
    fired = [s for s in parsed.steps if s.kind in ("Simplify", "Propagate")]
    assert fired
    for s in fired:
        if s.rule == "gcd2":  # a rule with variables records its substitution
            assert s.phi
        assert s.interval is not None and s.worker is not None
    assert parsed.meta["workers"] == "4"


@pytest.mark.parametrize("line,field", [
    ("x Activate goal=A#1 P={} S={}", "seq"),
    ("1.5 Activate goal=A#1 P={} S={}", "seq"),
    ("3 Simplify goal=A#1 rule=r P={a} S={1}", "P"),
    ("3 Simplify goal=A#1 rule=r P={} S={1,,2}", "S"),
    ("3 Activate goal=A#1 P={} S={} worker=w", "worker"),
    ("3 Activate goal=A#1 P={} S={} interval=3", "interval"),
    ("3 Activate goal=A#1 P={} S={} interval=1,b", "interval"),
    ("3 Activate goal=A#1 P={} S={} interval=", "interval"),
])
def test_parse_line_names_the_non_integer_field(line, field):
    with pytest.raises(TraceFormatError, match=f"^{field} is not"):
        parse_line(line)
    with pytest.raises(TraceFormatError, match=f"^{field} is not"):
        parse_trace("# chr-trace v1\n" + line + "\n")


def _random_term(rng, depth=0):
    k = rng.randrange(6 if depth < 2 else 4)
    if k == 0:
        return Const(rng.randrange(-10**12, 10**12))
    if k == 1:
        return _random_atom(rng)
    if k == 2:
        return rng.choice([Const(True), Const(False), Var("y1")])
    if k == 3:
        return Var("x")
    return App(rng.choice(FUNCTION_SYMBOLS),
               (_random_term(rng, depth + 1), _random_term(rng, depth + 1)))


ATOM_CHARS = "ab Z0_;:,.(){}[]#=-><|&!%'\\\"\t\n\r\x0b\x1c\u2028 \u00e9"


def _random_atom(rng):
    """An atom the parser accepts, drawn from text full of trace
    punctuation."""
    while True:
        text = "".join(rng.choice(ATOM_CHARS) for _ in range(rng.randrange(4)))
        try:
            return parse_term_text(f"'{text}'")
        except ParseError:
            continue


def test_trace_line_roundtrip_over_generated_steps():
    rng = random.Random(11)
    for _ in range(1500):
        kind = rng.choice(["Activate", "Solve", "Simplify", "Propagate", "Drop"])
        c = Chr(rng.choice(["P", "Get", "A_1"]),
                tuple(_random_term(rng) for _ in range(rng.randrange(3))))
        cid = rng.randrange(1, 99)
        goal = (Eq(_random_term(rng), _random_term(rng)) if kind == "Solve"
                else NumberedConstraint(c, cid))
        rule = phi = None
        if kind in ("Simplify", "Propagate"):
            rule = "r1"
            phi = {f"v{j}.0": _random_term(rng) for j in range(rng.randrange(3))}
        ids = rng.sample(range(1, 20), rng.randrange(4))
        delta = SideEffect(
            propagated=tuple(NumberedConstraint(c, i) for i in ids[:1]),
            simplified=tuple(NumberedConstraint(c, i) for i in ids[1:]))
        step = TraceStep(rng.randrange(10**6), kind, goal, delta, rule, phi)
        worker, interval = rng.choice([(None, None), (1, (3, 9))])
        parsed = parse_line(step_to_line(step, worker, interval))
        assert parsed.goal == (goal if kind == "Solve" else c)
        assert parsed.goal_id == (None if kind == "Solve" else cid)
        assert (parsed.seq, parsed.kind, parsed.rule, parsed.phi,
                parsed.prop_ids, parsed.simp_ids, parsed.worker,
                parsed.interval) == (step.seq, kind, rule, phi or {},
                                     delta.prop_ids, delta.simp_ids, worker,
                                     interval)
        dump = goal.render() if kind != "Solve" else ""
        record = CommitRecord(step, 0, (1, 2))
        whole = parse_trace(serialize_trace([record], {}, "done", dump))
        assert len(whole.steps) == 1 and whole.steps[0].goal == parsed.goal
        assert whole.final_dump == dump
