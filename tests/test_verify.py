import ast
import functools
import hashlib
import random
import re
from collections import Counter

import pytest

from chrkit.concurrent import EngineConfig, run_concurrent
from chrkit.sequential import run_sequential
from chrkit.store import NumberedConstraint
from chrkit.syntax import ParseError, load_program, parse_goals, parse_term_text
from chrkit.terms import (FUNCTION_SYMBOLS, App, Chr, Const, Eq, Var,
                          render_constraint)
from chrkit.trace import (FIRINGS, KINDS, Step, TraceFormatError, parse_line,
                          parse_trace, serialize_trace, step_to_line)
from chrkit.verify import (Verdict, _run_replay, audit_overlap_trace,
                           decompose_k, project_abstract, verify_run)

from conftest import (CORPUS, all_pairs_audit, canonical, equation_fuzz_case,
                      fuzz_case, goals_for, leftover, load)
from reference_heads import reference_validate_rewrite
from test_union_find import union_find_goals


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


# ---------------------------------------------------------------- replay

def test_replay_sequential_corpus():
    for name in CORPUS:
        p, goals, _, text = seq_trace_text(name)
        verdict = _run_replay(parse_trace(text), goals, p)[1]
        assert verdict.passed, (name, verdict.detail)


def test_replay_concurrent_traces():
    for name in ("gcd", "channel", "mergesort", "prop_once"):
        for seed in range(5):
            p, goals, _, text = con_trace_text(name, seed=seed)
            verdict = _run_replay(parse_trace(text), goals, p)[1]
            assert verdict.passed, (name, seed, verdict.detail)


def test_replay_rejects_forged_double_kill():
    p, goals, res, text = seq_trace_text("channel",
                                         parse_goals("Get(x1),Get(x2),Put(1),Put(2)"))
    # forge the second firing to re-kill the already-dead id 1
    forged = text.replace("S={2,4}", "S={1,4}")
    assert forged != text
    verdict = _run_replay(parse_trace(forged),
                          parse_goals("Get(x1),Get(x2),Put(1),Put(2)"), p)[1]
    assert not verdict.passed
    assert "not alive" in verdict.detail


def test_replay_rejects_tampered_final_dump():
    p, goals, _, text = seq_trace_text("gcd")
    forged = text.replace("# final: Gcd(3)#6", "# final: Gcd(4)#6")
    verdict = _run_replay(parse_trace(forged), goals, p)[1]
    assert not verdict.passed and "mismatch" in verdict.detail


def test_replay_rejects_duplicated_propagation():
    p, goals, res, text = seq_trace_text("prop_once")
    lines = text.splitlines()
    prop = next(l for l in lines if " Propagate " in l)
    seq = int(prop.split(" ", 1)[0])
    lines.insert(lines.index(prop) + 1,
                 str(seq * 1000) + prop[prop.index(" "):])
    verdict = _run_replay(parse_trace("\n".join(lines)), goals, p)[1]
    assert not verdict.passed


def test_replay_checks_wake_up_sets():
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    goals = parse_goals("A(a),B(2),a=2")
    res = run_sequential(goals, p)
    text = serialize_trace(res.trace, {}, res.status, res.state.store.dump())
    assert _run_replay(parse_trace(text), goals, p)[1].passed
    forged = text.replace("Solve goal=a=2 P={1}", "Solve goal=a=2 P={}")
    verdict = _run_replay(parse_trace(forged), goals, p)[1]
    assert not verdict.passed and "wake-up" in verdict.detail


def test_replay_activation_after_solve_records_normal_form():
    # the equation lands first, so the activation stores (and records) the
    # constraint already normalized
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    goals = parse_goals("u=1,A(u),B(1)")
    res = run_sequential(goals, p)
    assert res.state.store.dump() == "C(1)#3\nu=1"
    text = serialize_trace(res.trace, {}, res.status, res.state.store.dump())
    assert _run_replay(parse_trace(text), goals, p)[1].passed


def test_replay_same_id_woken_twice():
    p = load_program("r2 @ A(x,y), B(x,y) <=> C.")
    goals = parse_goals("A(u,w),B(1,2),u=1,w=2")
    res = run_sequential(goals, p)
    text = serialize_trace(res.trace, {}, res.status, res.state.store.dump())
    verdict = _run_replay(parse_trace(text), goals, p)[1]
    assert verdict.passed, verdict.detail


@pytest.mark.parametrize("text,goals", [
    ("c @ C(a) <=> a==2 | true.", "C(x),C(y),C(z),x=y,x=z,z=2"),
    ("r @ A(a), B(b) <=> a=b.\nq @ A(a) <=> a==1 | true.",
     "A(x),B(y),A(z),B(w),x=z,C(x),C(y),C(z),y=1"),
    # Get(a)#1 fires after the Solves that woke it: the firing is checked
    # against its form after them
    ("get @ Get(x), Put(y) <=> x=y.", "Get(a),Get(b),a=b,Put(1),Put(1)"),
    ("get @ Get(x), Put(y) <=> x=y.",
     "Get(a),Get(b),Get(c),a=b,b=c,Put(1),Put(1),Put(1)"),
])
def test_replay_agrees_on_variable_to_variable_bindings(text, goals):
    # which variable of `y=z` (x=z under x=y) gets bound decides which
    # entries wake; the engines and the replica must bind the same one
    p, goals = load_program(text), parse_goals(goals)
    runs = [(run_sequential(goals, p), False)]
    runs += [(run_concurrent(goals, p, EngineConfig(workers=w, seed=seed)), True)
             for w in (1, 2) for seed in range(5)]
    for res, concurrent in runs:
        text = serialize_trace(res.trace, {}, res.status,
                               res.state.store.dump())
        verdicts = verify_run(text, goals, p, concurrent=concurrent)
        assert all(v.passed for v in verdicts), verdicts


def test_replay_failed_concurrent_runs():
    # firings racing an inconsistency must linearize before it or not at all
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    goals = parse_goals("A(u),B(3),u=1,u=2,A(w),B(7)")
    for seed in range(20):
        res = run_concurrent(goals, p, EngineConfig(workers=4, seed=seed))
        assert res.status == "failed"
        text = serialize_trace(res.trace, {}, res.status,
                               res.state.store.dump())
        verdict = _run_replay(parse_trace(text), goals, p)[1]
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
    assert canonical(res.state.store) in {("m=1", "n=8"), ("m=8", "n=1")}


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
        assert not leftover(res.state, p, res.history), name


def _final_verdict(steps, goals, program):
    text = "\n".join(["# chr-trace v1", *steps, "# status=done"]) + "\n"
    return str(verify_run(text, parse_goals(goals), load_program(program))[-1])


def test_check_final_rejects_stuck_pair():
    steps = ["0 Activate goal=A#1 P={} S={}", "1 Drop goal=A#1 P={} S={}",
             "2 Activate goal=B#2 P={} S={}", "3 Drop goal=B#2 P={} S={}",
             "# final: A#1", "# final: B#2"]
    assert _final_verdict(steps, "A,B", "r1 @ A, B <=> C.") == \
        "check-final: FAIL (rule r1 still applies to ids (1, 2))"


def test_the_verifier_imports_no_engine_module():
    import chrkit.verify
    with open(chrkit.verify.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):  # type-checking and local imports too
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(a.name.split(".")[-1] for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
    assert "abstract" in imported  # the oracle is the verifier's reference
    engine = {"store", "sequential", "concurrent", "matching"}
    assert imported.isdisjoint(engine), imported & engine


def test_check_final_empty_state_passes():
    assert _final_verdict([], "", "gcd1 @ Gcd(0) <=> true.") == \
        "check-final: PASS"


def test_check_final_rejects_pending_goals():
    assert _final_verdict([], "A", "r1 @ A <=> true.") == \
        "check-final: FAIL (1 goal(s) still pending: ['A'])"


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


def test_audit_overlap_audits_a_trace_with_duplicated_seqs():
    # replay rejects such a trace, and the audit must still see its clashes
    text = "\n".join([
        "# chr-trace v1",
        "10 Simplify goal=G(x1)#1 rule=r P={} S={1,3} worker=0 interval=1,10",
        "10 Simplify goal=G(x1)#1 rule=r P={} S={1,4} worker=1 interval=2,10",
        "# status=done",
    ])
    assert str(audit_overlap_trace(parse_trace(text))) \
        == "audit-overlap: FAIL (steps 10 and 10: shared ids [1])"
    p, goals, _, text = con_trace_text("gcd", workers=2)
    lines = text.splitlines()
    k = next(i for i, l in enumerate(lines) if " Simplify " in l)
    copied = "\n".join(lines[:k + 1] + lines[k:])
    seq, simplified = lines[k].split(" ")[0], parse_line(lines[k]).simp_ids
    assert [str(v) for v in verify_run(copied, goals, p, concurrent=True)] == [
        f"replay: FAIL (step {int(seq) + 1}: seq is {seq})",
        f"audit-overlap: FAIL (steps {seq} and {seq}: shared ids "
        f"{list(simplified)})"]


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


# `_overlap` rewrites the 1-worker trace of OVERLAP on A(1) so that worker 1
# simplifies A(1)#1 at seq 2 after a scan from seq 0: interval 0,2, which
# overlaps the propagation over id 1 at seq 1; `tail` stands in for
# ` worker=1 interval=0,2`
OVERLAP = "p @ A(x) ==> B(x). k @ A(x) <=> C(x)."


def _overlap(tail):
    return lambda t: t.replace(
        "2 Activate goal=B(1)#2 P={} S={} worker=0 interval=1,2\n"
        "3 Drop goal=B(1)#2 P={} S={} worker=0 interval=2,3\n"
        "4 Simplify goal=A(1)#1 rule=k phi={x->1} P={} S={1} worker=0 "
        "interval=3,4\n",
        f"2 Simplify goal=A(1)#1 rule=k phi={{x->1}} P={{}} S={{1}}{tail}\n"
        "3 Activate goal=B(1)#2 P={} S={} worker=0 interval=1,3\n"
        "4 Drop goal=B(1)#2 P={} S={} worker=0 interval=3,4\n")


FORGERIES = [
    # (name, program, goals, forge, check, detail); an audit-overlap row
    # forges a 1-worker concurrent trace of the program, given as text
    ("wrong rule", "gcd", None,
     lambda t: t.replace("rule=gcd2", "rule=gcd1", 1),
     "replay", "step 3: phi binds {m,n}, not the head variables {} of rule "
               "gcd1"),
    ("wrong wake-up set", None, None,
     lambda t: t.replace("Solve goal=a=2 P={1}", "Solve goal=a=2 P={}"),
     "replay", "step 4: wake-up mismatch: recorded [], expected [1]"),
    ("step deleted", "gcd", None,
     lambda t: _relines(t, lambda ls: [l for l in ls
                                       if "Activate goal=Gcd(0)#3" not in l]),
     "replay", "step 4: goal id 3 is not alive"),
    ("duplicate seq", "gcd", None,
     lambda t: t.replace("\n5 Simplify", "\n4 Simplify"),
     "replay", "step 5: seq is 4"),
    # #2 is simplified later, so only the gap in the seqs shows the deletion
    ("Drop line deleted", "gcd", None,
     lambda t: t.replace("6 Drop goal=Gcd(3)#2 P={} S={}\n", ""),
     "replay", "step 6: seq is 7"),
    ("goal text of a simplification", "gcd", None,
     lambda t: t.replace("8 Simplify goal=Gcd(9)#4", "8 Simplify goal=G1cd(9)#4"),
     "replay", "step 8: goal G1cd(9)#4 is not the form Gcd(9) of #4"),
    ("goal text of a propagation", "gcd", None,
     lambda t: t.replace("3 Propagate goal=Gcd(3)#2", "3 Propagate goal=Gci(3)#2"),
     "replay", "step 3: goal Gci(3)#2 is not the form Gcd(3) of #2"),
    ("goal text of a drop", "channel", None,
     lambda t: t.replace("6 Drop goal=Get(n)#3", "6 Drop goal=Get(a)#3"),
     "replay", "step 6: goal Get(a)#3 is not the form Get(n) of #3"),
    ("altered final dump", "gcd", None,
     lambda t: t.replace("# final: Gcd(3)#6", "# final: Gcd(4)#6"),
     "replay", "final store mismatch:\nreplayed:\nGcd(3)#6\nrecorded:\nGcd(4)#6"),
    ("simplified id not alive", "channel",
     "Get(x1),Get(x2),Put(1),Put(2)",
     lambda t: t.replace("S={2,4}", "S={1,4}"),
     "replay", "step 8: side-effect ids not alive: [1]"),
    ("propagation fired twice", "prop_once", None,
     lambda t: _relines(t, _duplicate_propagation),
     "replay", "step 2: propagation instance fired twice: ('r1', (1,))"),
    ("firings without phi", "gcd", None,
     lambda t: re.sub(r" phi=\S*", "", t),
     "replay", "step 3: phi binds {}, not the head variables {m,n} of rule "
               "gcd2"),
    # Gcd(3)#2 \ Gcd(9)#4 turned round: the heads match, 3>=9 does not hold
    ("simplification turned into a propagation", "gcd", None,
     lambda t: t.replace("8 Simplify goal=Gcd(9)#4 rule=gcd2 "
                         "phi={m->9;n->3} P={2} S={4}",
                         "8 Propagate goal=Gcd(9)#4 rule=gcd2 "
                         "phi={m->3;n->9} P={4} S={2}"),
     "replay", "step 8: guard of rule gcd2 not entailed"),
    ("wrong value in phi", "gcd", None,
     lambda t: t.replace("phi={m->9;n->3}", "phi={m->8;n->3}"),
     "replay", "step 8: simplified heads do not match rule gcd2"),
    # A(a)#1 matches A(x) with x=2 only under a=2, which is not solved yet
    ("firing before its equation", None, None,
     lambda t: t.replace("3 Drop goal=B(2)#2 P={} S={}",
                         "3 Simplify goal=B(2)#2 rule=r1 phi={x->2} "
                         "P={} S={1,2}"),
     "replay", "step 3: simplified heads do not match rule r1"),
    # x=a matches the heads under a=2 as well as x=2 does, but the body
    # C(a) is not the activated C(2)
    ("phi equal only under the equations", None, None,
     lambda t: t.replace("phi={x->2}", "phi={x->a}"),
     "replay", "step 6: activated goal C(2) not in the goal multiset"),
    # Get(a)#1 is woken by a=b (form Get(b)), then by b=1 (form Get(1)); its
    # firing recorded against the form before b=1 puts b=1 in the goals
    ("firing against the form before a wake-up", "channel",
     "Get(a),Get(b),a=b,Put(1),Put(1)",
     lambda t: t.replace("phi={x->1;y->1} P={} S={1,4}",
                         "phi={x->b;y->1} P={} S={1,4}"),
     "replay", "step 12: solved equation 1=1 not in the goal multiset"),
    ("activation without an id", "gcd", None,
     lambda t: t.replace("0 Activate goal=Gcd(3)#1", "0 Activate goal=Gcd(3)"),
     "replay", "step 0: activation without an id"),
    ("activation of an id already used", "gcd", None,
     lambda t: t.replace("2 Activate goal=Gcd(3)#2", "2 Activate goal=Gcd(3)#1"),
     "replay", "step 2: id 1 is not fresh"),
    ("equation activated", "channel", "Get(x1),Get(x2),Put(1),Put(2)",
     lambda t: t.replace("6 Solve goal=x1=1", "6 Activate goal=x1=1#9"),
     "replay", "step 6: only CHR constraints can be activated"),
    ("CHR constraint solved", "gcd", None,
     lambda t: t.replace("0 Activate goal=Gcd(3)#1", "0 Solve goal=Gcd(3)"),
     "replay", "step 0: solve goal is not an equation"),
    ("solve with a simplified set", "channel", "Get(x1),Get(x2),Put(1),Put(2)",
     lambda t: t.replace("6 Solve goal=x1=1 P={} S={}",
                         "6 Solve goal=x1=1 P={} S={2}"),
     "replay", "step 6: solve must not simplify"),
    ("drop without an id", "gcd", None,
     lambda t: t.replace("1 Drop goal=Gcd(3)#1", "1 Drop goal=Gcd(3)"),
     "replay", "step 1: Drop goal carries no id"),
    ("an id both propagated and simplified", "gcd", None,
     lambda t: t.replace("phi={m->3;n->3} P={2} S={1}",
                         "phi={m->3;n->3} P={2} S={1,2}", 1),
     "replay", "step 3: propagated and simplified sets overlap"),
    ("overlapping commits that share an id", OVERLAP, "A(1)",
     _overlap(" worker=1 interval=0,2"),
     "audit-overlap", "steps 1 and 2: shared ids [1]"),
    ("overlap hidden by a commit that is not the seq", OVERLAP, "A(1)",
     _overlap(" worker=1 interval=0,0"),
     "audit-overlap", "step 2: interval 0,0 is not s,2 with -1 <= s < 2"),
    ("overlap hidden by a start at the seq", OVERLAP, "A(1)",
     _overlap(" worker=1 interval=2,2"),
     "audit-overlap", "step 2: interval 2,2 is not s,2 with -1 <= s < 2"),
    ("overlap hidden by a deleted interval", OVERLAP, "A(1)", _overlap(""),
     "audit-overlap", "step 2: no interval"),
]


def _forged_row_trace(prog, goals, concurrent):
    """The program, goals and unforged trace of a FORGERIES row."""
    if prog is None:
        return _wake_program()
    if concurrent:
        p, goals = load_program(prog), parse_goals(goals)
        res = run_concurrent(goals, p, EngineConfig(workers=1))
        return p, goals, serialize_trace(res.trace, {}, res.status,
                                         res.state.store.dump())
    goals = parse_goals(goals) if goals else goals_for(prog)
    p, goals, _, text = seq_trace_text(prog, goals)
    return p, goals, text


@pytest.mark.parametrize("name,prog,goals,forge,check,detail", FORGERIES,
                         ids=[f[0] for f in FORGERIES])
def test_verify_run_rejects_forged_traces(name, prog, goals, forge, check,
                                          detail):
    concurrent = check == "audit-overlap"
    p, goals, text = _forged_row_trace(prog, goals, concurrent)
    assert all(v.passed for v in verify_run(text, goals, p, concurrent))
    forged = forge(text)
    assert forged != text
    passed = ["replay: PASS", "project-abstract: PASS", "check-final: PASS"]
    assert [str(v) for v in verify_run(forged, goals, p, concurrent)] == \
        (passed if concurrent else []) + [f"{check}: FAIL ({detail})"]


@pytest.mark.parametrize("phi,detail", [
    ("{x->5}", None),
    ("{}", "phi binds {}, not the head variables {x} of rule r"),
    ("{y->5}", "phi binds {y}, not the head variables {x} of rule r"),
    ("{x->5;y->1}", "phi binds {x,y}, not the head variables {x} of rule r"),
])
def test_firing_binds_exactly_its_rules_head_variables(phi, detail):
    """The rule variable x and the goal variable x share a name.  A phi
    that leaves the rule's x unbound would let theta's goal binding x=5
    fill it, and the heads and guard would check; so phi must bind exactly
    the rule's head variables."""
    p, goals = load_program("r @ A(x) <=> x > 0 | B."), parse_goals("A(x),x=5")
    res = run_sequential(goals, p)
    text = serialize_trace(res.trace, {}, res.status, res.state.store.dump())
    assert " rule=r phi={x->5} " in text
    verdicts = verify_run(text.replace("phi={x->5}", f"phi={phi}"), goals, p)
    assert [str(v) for v in verdicts] == (
        ["replay: PASS", "project-abstract: PASS", "check-final: PASS"]
        if detail is None else [f"replay: FAIL (step 3: {detail})"])


def test_firing_after_unsatisfiable_equations_sees_entries_as_written():
    # u=1 makes the equations unsatisfiable; A(u)#1, woken to A(2) by u=2,
    # is compared as A(u) again, as the abstract check does without theta
    p = load_program("r1 @ A(x), B(x) <=> C(x).")
    text = "\n".join([
        "# chr-trace v1",
        "0 Activate goal=A(u)#1 P={} S={}",
        "1 Drop goal=A(u)#1 P={} S={}",
        "2 Activate goal=B(2)#2 P={} S={}",
        "3 Solve goal=u=2 P={1} S={}",
        "4 Solve goal=u=1 P={} S={}",
        "5 Simplify goal=A(2)#1 rule=r1 phi={x->2} P={} S={1,2}",
        "# status=failed",
    ])
    verdicts = verify_run(text, parse_goals("A(u),B(2),u=2,u=1"), p)
    assert [str(v) for v in verdicts] == [
        "replay: FAIL (step 5: simplified heads do not match rule r1)"]


# ------------------------------------------------------------ replay memo

MEMO_FORGERIES = [
    # (name, program, goals, step lines, detail)
    # A(1)#1 fires r under satisfiable equations; after u=1, u=2 the same
    # rule, phi and head form must fail the guard
    ("guard after the equations became unsatisfiable",
     "r @ A(x) <=> x>0 | B.", "A(1),A(1),u=1,u=2",
     ["0 Activate goal=A(1)#1 P={} S={}",
      "1 Simplify goal=A(1)#1 rule=r phi={x->1} P={} S={1}",
      "2 Activate goal=B#2 P={} S={}",
      "3 Drop goal=B#2 P={} S={}",
      "4 Solve goal=u=1 P={} S={}",
      "5 Solve goal=u=2 P={} S={}",
      "6 Activate goal=A(1)#3 P={} S={}",
      "7 Simplify goal=A(1)#3 rule=r phi={x->1} P={} S={3}"],
     "step 7: guard of rule r not entailed"),
    # a=1 wakes K(a)#1 to K(1), which r fires on; the same rule and phi on
    # K(b)#2 must fail its head check
    ("a validated firing repeated on a head of another form",
     "r @ K(x) \\ A <=> true.", "K(a),K(b),A,A,a=1",
     ["0 Activate goal=K(a)#1 P={} S={}",
      "1 Activate goal=K(b)#2 P={} S={}",
      "2 Activate goal=A#3 P={} S={}",
      "3 Solve goal=a=1 P={1} S={}",
      "4 Simplify goal=A#3 rule=r phi={x->1} P={1} S={3}",
      "5 Activate goal=A#4 P={} S={}",
      "6 Simplify goal=A#4 rule=r phi={x->1} P={2} S={4}"],
     "step 6: propagated heads do not match rule r"),
]


@pytest.mark.parametrize("name,prog,goals,lines,detail", MEMO_FORGERIES,
                         ids=[f[0] for f in MEMO_FORGERIES])
def test_replay_memo_rejects_a_repeated_firing_that_no_longer_holds(
        name, prog, goals, lines, detail):
    text = "\n".join(["# chr-trace v1", *lines, "# status=done"]) + "\n"
    verdicts = verify_run(text, parse_goals(goals), load_program(prog))
    assert [str(v) for v in verdicts] == [f"replay: FAIL ({detail})"]


def test_each_distinct_firing_is_validated_once(monkeypatch):
    """Without equations theta never changes, so validate_rewrite runs once
    per distinct (rule, phi, propagated forms, simplified forms)."""
    import chrkit.verify
    calls = []
    real = chrkit.verify.validate_rewrite
    monkeypatch.setattr(chrkit.verify, "validate_rewrite",
                        lambda *a: calls.append(a) or real(*a))
    goals = parse_goals(",".join(f"Gcd({6 * k})" for k in (1, 2, 3, 4) * 6))
    p, _, res, text = seq_trace_text("gcd", goals)
    assert all(v.passed for v in verify_run(text, goals, p))
    forms, distinct, firings = {}, set(), 0
    for st in res.trace:
        if st.kind == "Activate":
            forms[st.goal_id] = render_constraint(st.goal)
        elif st.kind in FIRINGS:
            firings += 1
            distinct.add((st.rule, tuple(sorted(st.phi.items())),
                          tuple(sorted(forms[i] for i in st.prop_ids)),
                          tuple(sorted(forms[i] for i in st.simp_ids))))
    assert len(calls) == len(distinct) < firings


# ------------------------------------------- heads compared as terms

class _Forgetful(set):
    """A `valid` memo that never holds a firing, so each is validated."""

    def __contains__(self, item):
        return False


@pytest.fixture
def head_checks(monkeypatch):
    """The verdicts of `validate_rewrite` at every firing a replay meets
    (the memo is bypassed), each asserted equal to the render-based
    reference's on the same firing: the heads' forms are their terms as
    the printer writes them."""
    import chrkit.verify
    real, seen = chrkit.verify.validate_rewrite, []

    def both(rule, phi, theta, prop, simp):
        got = real(rule, phi, theta, prop, simp)
        want = reference_validate_rewrite(
            rule, phi, theta, [render_constraint(c) for c in prop],
            [render_constraint(c) for c in simp])
        assert got == want, (rule.name, phi, theta, prop, simp)
        seen.append(got)
        return got

    init = chrkit.verify._Replica.__init__

    def forgetful(self, goals0):
        init(self, goals0)
        self.valid = _Forgetful()

    monkeypatch.setattr(chrkit.verify, "validate_rewrite", both)
    monkeypatch.setattr(chrkit.verify._Replica, "__init__", forgetful)
    return seen


def test_head_check_agrees_with_the_reference_on_run_traces(head_checks):
    """The corpus on both engines, seeded fuzz and equation fuzz cases, and
    union-find, whose Solves wake goals: every firing passes both checks."""
    runs = [(load(name), goals_for(name)) for name in CORPUS]
    runs.append((load("union_find"), union_find_goals(20, 1)[1]))
    rng = random.Random(5)
    runs += [(load_program(t), parse_goals(g))
             for t, g in (fuzz_case(rng) for _ in range(60))]
    rng = random.Random(20240817)
    runs += [(load_program(t), parse_goals(g))
             for t, g in (equation_fuzz_case(rng) for _ in range(60))]
    for p, goals in runs:
        for concurrent, res in (
                (False, run_sequential(goals, p)),
                (True, run_concurrent(goals, p, EngineConfig(workers=2)))):
            text = serialize_trace(res.trace, {}, res.status,
                                   res.state.store.dump())
            assert all(v.passed for v in verify_run(text, goals, p,
                                                    concurrent))
    assert len(head_checks) > 1000 and set(head_checks) == {None}


@pytest.mark.parametrize("row", FORGERIES + MEMO_FORGERIES,
                         ids=[f[0] for f in FORGERIES + MEMO_FORGERIES])
def test_head_check_agrees_with_the_reference_on_forged_rows(row, head_checks):
    """Each forged row gives its pinned verdict with every firing checked
    by both checks, the memo bypassed."""
    if len(row) == 6:
        _, prog, goals, forge, check, detail = row
        concurrent = check == "audit-overlap"
        p, goals, text = _forged_row_trace(prog, goals, concurrent)
        text = forge(text)
        want = (["replay: PASS", "project-abstract: PASS",
                 "check-final: PASS"] if concurrent else []) + \
            [f"{check}: FAIL ({detail})"]
    else:
        _, prog, goals, lines, detail = row
        p, goals, concurrent = load_program(prog), parse_goals(goals), False
        text = "\n".join(["# chr-trace v1", *lines, "# status=done"]) + "\n"
        want = [f"replay: FAIL ({detail})"]
    assert [str(v) for v in verify_run(text, goals, p, concurrent)] == want


D_RULE = "d @ D(x+1), F(x) <=> E(x)."
K_RULE = "k @ K(0,a,a) \\ L(a) <=> M(a)."
# D(y+1)#1 and F(y)#2, then y=2, which wakes both (D(3) and F(2))
_D_WOKEN = ["0 Activate goal=D(y+1)#1 P={} S={}",
            "1 Drop goal=D(y+1)#1 P={} S={}",
            "2 Activate goal=F(y)#2 P={} S={}",
            "3 Drop goal=F(y)#2 P={} S={}",
            "4 Solve goal=y=2 P={1,2} S={}",
            "5 Drop goal=D(3)#1 P={} S={}"]
# K(0,z,w)#1 and L(z)#2, then z=w, which wakes both (K(0,w,w) and L(w))
_K_WOKEN = ["0 Activate goal=K(0,z,w)#1 P={} S={}",
            "1 Drop goal=K(0,z,w)#1 P={} S={}",
            "2 Activate goal=L(z)#2 P={} S={}",
            "3 Drop goal=L(z)#2 P={} S={}",
            "4 Solve goal=z=w P={1,2} S={}",
            "5 Drop goal=K(0,w,w)#1 P={} S={}"]

HEAD_FORGERIES = [
    # (name, program, goals, step and final lines, replay detail or None)
    ("arithmetic head pattern before the Solve", D_RULE, "D(y+1),F(y),y=2",
     ["0 Activate goal=D(y+1)#1 P={} S={}",
      "1 Drop goal=D(y+1)#1 P={} S={}",
      "2 Activate goal=F(y)#2 P={} S={}",
      "3 Simplify goal=F(y)#2 rule=d phi={x->y} P={} S={1,2}",
      "4 Activate goal=E(y)#3 P={} S={}",
      "5 Drop goal=E(y)#3 P={} S={}",
      "6 Solve goal=y=2 P={3} S={}",
      "7 Drop goal=E(2)#3 P={} S={}",
      "# final: E(y)#3", "# final: y=2"], None),
    # D(2+1) is D(3), not D(y+1), until y=2 is solved
    ("arithmetic head pattern at the value before the Solve", D_RULE,
     "D(y+1),F(y),y=2",
     ["0 Activate goal=D(y+1)#1 P={} S={}",
      "1 Drop goal=D(y+1)#1 P={} S={}",
      "2 Activate goal=F(y)#2 P={} S={}",
      "3 Simplify goal=F(y)#2 rule=d phi={x->2} P={} S={1,2}"],
     "step 3: simplified heads do not match rule d"),
    # F(2) matches F(x), but D(2+1) is not D(5)
    ("arithmetic head pattern on another value", D_RULE, "D(5),F(2)",
     ["0 Activate goal=D(5)#1 P={} S={}",
      "1 Drop goal=D(5)#1 P={} S={}",
      "2 Activate goal=F(2)#2 P={} S={}",
      "3 Simplify goal=F(2)#2 rule=d phi={x->2} P={} S={1,2}"],
     "step 3: simplified heads do not match rule d"),
    ("arithmetic head pattern after the Solve", D_RULE, "D(y+1),F(y),y=2",
     _D_WOKEN + ["6 Simplify goal=F(2)#2 rule=d phi={x->2} P={} S={1,2}",
                 "7 Activate goal=E(2)#3 P={} S={}",
                 "8 Drop goal=E(2)#3 P={} S={}",
                 "# final: E(2)#3", "# final: y=2"], None),
    # F(3) is not F(2), and D(3+1) not D(3)
    ("arithmetic head pattern after the Solve, wrong value", D_RULE,
     "D(y+1),F(y),y=2",
     _D_WOKEN + ["6 Simplify goal=F(2)#2 rule=d phi={x->3} P={} S={1,2}"],
     "step 6: simplified heads do not match rule d"),
    # the pattern K(0,a,a) is K(0,z,z), not the entry K(0,z,w)
    ("repeated head variable on two variables", K_RULE, "K(0,z,w),L(z)",
     ["0 Activate goal=K(0,z,w)#1 P={} S={}",
      "1 Drop goal=K(0,z,w)#1 P={} S={}",
      "2 Activate goal=L(z)#2 P={} S={}",
      "3 Simplify goal=L(z)#2 rule=k phi={a->z} P={1} S={2}"],
     "step 3: propagated heads do not match rule k"),
    # under z=w, a->z makes K(0,z,z) and L(z) the entries' K(0,w,w), L(w)
    ("heads equal to the patterns only under theta", K_RULE,
     "K(0,z,w),L(z),z=w",
     _K_WOKEN + ["6 Simplify goal=L(w)#2 rule=k phi={a->z} P={1} S={2}",
                 "7 Activate goal=M(z)#3 P={} S={}",
                 "8 Drop goal=M(w)#3 P={} S={}",
                 "# final: K(0,z,w)#1", "# final: M(z)#3",
                 "# final: z=w"], None),
    # both heads are Merge(n,a)'s instance; none is Merge(n,b)'s Merge(1,7)
    ("two heads paired with one pattern",
     "merge2 @ Merge(n,a), Merge(n,b) <=> a<b | Leq(a,b), Merge(n+1,a).",
     "Merge(1,5),Merge(1,5)",
     ["0 Activate goal=Merge(1,5)#1 P={} S={}",
      "1 Drop goal=Merge(1,5)#1 P={} S={}",
      "2 Activate goal=Merge(1,5)#2 P={} S={}",
      "3 Simplify goal=Merge(1,5)#2 rule=merge2 phi={a->5;b->7;n->1} P={} "
      "S={1,2}"],
     "step 3: simplified heads do not match rule merge2"),
    ("head constant on another constant", "gcd1 @ Gcd(0) <=> true.",
     "Gcd(1)",
     ["0 Activate goal=Gcd(1)#1 P={} S={}",
      "1 Simplify goal=Gcd(1)#1 rule=gcd1 phi={} P={} S={1}"],
     "step 1: simplified heads do not match rule gcd1"),
    # the reader takes 1+1 as the printer's text of 1+1, which is 2
    ("phi value written unnormalized", K_RULE, "K(0,2,2),L(2)",
     ["0 Activate goal=K(0,2,2)#1 P={} S={}",
      "1 Drop goal=K(0,2,2)#1 P={} S={}",
      "2 Activate goal=L(2)#2 P={} S={}",
      "3 Simplify goal=L(2)#2 rule=k phi={a->1+1} P={1} S={2}",
      "4 Activate goal=M(2)#3 P={} S={}",
      "5 Drop goal=M(2)#3 P={} S={}",
      "# final: K(0,2,2)#1", "# final: M(2)#3"], None),
    ("phi value written unnormalized, wrong value", K_RULE, "K(0,2,2),L(2)",
     ["0 Activate goal=K(0,2,2)#1 P={} S={}",
      "1 Drop goal=K(0,2,2)#1 P={} S={}",
      "2 Activate goal=L(2)#2 P={} S={}",
      "3 Simplify goal=L(2)#2 rule=k phi={a->1+2} P={1} S={2}"],
     "step 3: propagated heads do not match rule k"),
]


@pytest.mark.parametrize("name,prog,goals,lines,detail", HEAD_FORGERIES,
                         ids=[f[0] for f in HEAD_FORGERIES])
def test_heads_are_compared_as_terms(name, prog, goals, lines, detail,
                                     head_checks):
    """Firings where a head's term and its text could part: an arithmetic
    pattern, a repeated head variable, a head constant, an unnormalized
    phi value and heads equal to the patterns only under theta.  Every
    firing gets the reference's verdict."""
    steps = [l for l in lines if not l.startswith("#")]
    text = "\n".join(["# chr-trace v1", *steps, "# status=done",
                      *(l for l in lines if l.startswith("#"))]) + "\n"
    verdicts = verify_run(text, parse_goals(goals), load_program(prog))
    assert [str(v) for v in verdicts] == (
        ["replay: PASS", "project-abstract: PASS", "check-final: PASS"]
        if detail is None else [f"replay: FAIL ({detail})"])
    assert head_checks


# ---------------------------------------------------------- status footer

@pytest.mark.parametrize("footer,final", [
    (None, "check-final: FAIL (no status footer)"),
    ("done", "check-final: FAIL (2 goal(s) still pending: "
             "['Gcd(6)', 'Gcd(4)#1'])"),
    ("running", "check-final: FAIL (unknown status 'running')"),
    ("x" * 50, "check-final: FAIL (unknown status "
               f"'{'x' * 40}...')"),
    ("step-limit", None),
    ("failed", None),
])
def test_check_final_needs_a_known_status(footer, final):
    """A one-step prefix of a gcd run: only the status line decides whether
    finality is checked, and a missing or unknown one fails it."""
    lines = ["# chr-trace v1", "0 Activate goal=Gcd(4)#1 P={} S={}"]
    if footer is not None:
        lines.append(f"# status={footer}")
    lines.append("# final: Gcd(4)#1")
    verdicts = verify_run("\n".join(lines) + "\n", parse_goals("Gcd(4),Gcd(6)"),
                          load("gcd"))
    assert [str(v) for v in verdicts] == (
        ["replay: PASS", "project-abstract: PASS"] + ([final] if final else []))


def test_verdict_requires_detail_on_failure():
    with pytest.raises(ValueError):
        Verdict(False, "replay")


def test_verdicts_are_immutable_values():
    v = Verdict(False, "replay", "step 3")
    for field in ("passed", "check", "detail"):
        with pytest.raises(AttributeError):
            setattr(v, field, True)
    assert v == Verdict(False, "replay", "step 3") != Verdict(True, "replay")
    assert hash(v) == hash((False, "replay", "step 3"))
    assert str(v) == "replay: FAIL (step 3)"


def test_step_equality_covers_every_field():
    fields = dict(seq=5, kind="Simplify", goal=Chr("A", (Const(1),)),
                  goal_id=2, rule="r", phi={"x": Const(1)}, prop_ids=(1,),
                  simp_ids=(2,), worker=0, interval=(3, 5))
    other = dict(seq=6, kind="Propagate", goal=Chr("B"), goal_id=3,
                 rule="s", phi={}, prop_ids=(), simp_ids=(2, 4), worker=1,
                 interval=(4, 5))
    assert list(fields) == list(Step.__slots__)  # all ten, in order
    step = Step(**fields)
    assert step == Step(*fields.values())
    for name in fields:
        assert step != Step(**{**fields, name: other[name]}), name
    with pytest.raises(TypeError):
        hash(step)  # mutable, so unhashable
    step.worker = None  # and assignable
    assert step.worker is None


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
    ("1 Simplify goal=A#1 rule=r phi={x->} P={} S={1}", "phi"),
    ("1 Activate goal=A( P={} S={}", "goal"),
])
def test_parse_line_names_the_non_integer_field(line, field):
    with pytest.raises(TraceFormatError, match=f"^{field} is not"):
        parse_line(line)
    with pytest.raises(TraceFormatError, match=f"^line 2: {field} is not"):
        parse_trace("# chr-trace v1\n" + line + "\n")


@pytest.mark.parametrize("line,message", [
    # a field name the printer does not write
    ("3 Activate goal=A#1 Pr={} S={}", "P is not a set of integers: 'Pr={}'"),
    ("3 Activate goal=A#1 oP={} S={}", "P is not a set of integers: 'oP={}'"),
    ("3 Activate goal=A#1 P={} S={} wrker=0", "trailing text: 'wrker=0'"),
    # braces that do not close
    ("3 Activate goal=A#1 P={ S={}", "P is not a set of integers: '{'"),
    ("3 Activate goal=A#1 P={} S={2 worker=0",
     "S is not a set of integers: '{2'"),
    # a repeated field, fields out of order, trailing text
    ("3 Activate goal=A#1 P={} P={} S={}", "S is not a set of integers: 'P={}'"),
    ("3 Activate goal=A#1 P={} S={} worker=0 worker=0",
     "trailing text: 'worker=0'"),
    ("3 Activate goal=A#1 S={} P={}", "P is not a set of integers: 'S={}'"),
    ("3 Activate goal=A#1 P={} S={} interval=2,3 worker=0",
     "trailing text: 'worker=0'"),
    ("3 Activate goal=A#1 P={} S={} x", "trailing text: 'x'"),
    ("3 Activate goal=A#1 P={} S={} ", "trailing text: ''"),
    ("3 Activate P={} S={}", "goal is not a constraint: 'P={}'"),
    # a goal text never ends in "}": here it ran into the next field
    ("3 Activate goal=A#1P={} S={}", "goal is not a constraint: 'A#1P={}'"),
    # numbers only as str() writes them: ASCII digits, no leading zero
    ("١ Activate goal=A#1 P={} S={}", "seq is not an integer: '١'"),
    ("03 Activate goal=A#1 P={} S={}", "seq is not an integer: '03'"),
    ("3 Activate goal=A#1 P={} S={١}",
     "S is not a set of integers: '{١}'"),
    ("3 Activate goal=A#1 P={} S={} worker=0 interval=-0,3",
     "interval is not two integers: '-0,3'"),
    ("3 Activate goal=A#01 P={} S={}", "goal is not a constraint "
     "(col 2: unexpected character '#'): 'A#01'"),
    ("3 Bogus goal=A#1 P={} S={}", "kind is not a step kind: 'Bogus'"),
    # goal and phi texts only as the printer writes their terms: integers
    # as str() writes them, no redundant parentheses
    ("3 Activate goal=Gcd(06)#1 P={} S={}", "goal is not a constraint "
     "(the printer writes 'Gcd(6)' for 'Gcd(06)'): 'Gcd(06)'"),
    ("3 Activate goal=Gcd(-0)#1 P={} S={}", "goal is not a constraint "
     "(the printer writes 'Gcd(0)' for 'Gcd(-0)'): 'Gcd(-0)'"),
    ("3 Activate goal=Gcd((6))#1 P={} S={}", "goal is not a constraint "
     "(the printer writes 'Gcd(6)' for 'Gcd((6))'): 'Gcd((6))'"),
    ("3 Activate goal=Merge(1,05)#1 P={} S={}", "goal is not a constraint "
     "(the printer writes 'Merge(1,5)' for 'Merge(1,05)'): 'Merge(1,05)'"),
    ("3 Activate goal=G(x+(1*2))#1 P={} S={}", "goal is not a constraint "
     "(the printer writes 'G(x+1*2)' for 'G(x+(1*2))'): 'G(x+(1*2))'"),
    ("3 Solve goal=x=(y) P={} S={}", "goal is not a constraint "
     "(the printer writes 'x=y' for 'x=(y)'): 'x=(y)'"),
    ("3 Simplify goal=Gcd(6)#1 rule=gcd2 phi={m->09;n->6} P={} S={1}",
     "phi is not a substitution (the printer writes '9' for '09'): "
     "'{m->09;n->6}'"),
    ("3 Simplify goal=Gcd(6)#1 rule=gcd2 phi={m->9;n->(6)} P={} S={1}",
     "phi is not a substitution (the printer writes '6' for '(6)'): "
     "'{m->9;n->(6)}'"),
    # id sets in ascending order, each id once
    ("3 Simplify goal=Gcd(6)#1 rule=gcd2 phi={m->9;n->6} P={} S={2,1}",
     "S is not a set of integers (not strictly ascending): '{2,1}'"),
    ("3 Simplify goal=Gcd(6)#1 rule=gcd2 phi={m->9;n->6} P={3,3} S={1}",
     "P is not a set of integers (not strictly ascending): '{3,3}'"),
    ("3 Solve goal=x=1 P={4,12,7} S={}",
     "P is not a set of integers (not strictly ascending): '{4,12,7}'"),
])
def test_parse_line_refuses_what_the_printer_does_not_write(line, message):
    """A step line reads only as step_to_line writes it; a refused line
    names the first field, in the printer's order, that does not read."""
    with pytest.raises(TraceFormatError) as exc:
        parse_line(line)
    assert str(exc.value) == message
    if line == line.strip():  # parse_trace strips each line
        with pytest.raises(TraceFormatError) as exc:
            parse_trace("# chr-trace v1\n" + line + "\n")
        assert str(exc.value) == "line 2: " + message


@pytest.mark.parametrize("name,old,new", [
    ("mergesort", "Merge(1,5)", "Merge(1,05)"),
    ("mergesort", "S={1,2}", "S={2,1}"),
    ("gcd", "Gcd(6)", "Gcd(06)"),
    ("gcd", "Gcd(6)", "Gcd((6))"),
    ("gcd", "Gcd(0)", "Gcd(-0)"),
    ("gcd", "m->9;", "m->09;"),
])
def test_a_text_the_printer_does_not_write_is_refused_everywhere(name, old,
                                                                new):
    """Texts that read as the terms the printer writes, edited at every
    occurrence in a real trace so that the goal multiset, the store and the
    final dump still agree: the reader refuses them."""
    p, goals, _, text = seq_trace_text(name)
    assert all(v.passed for v in verify_run(text, goals, p))
    assert old in text
    with pytest.raises(TraceFormatError):
        verify_run(text.replace(old, new), goals, p)


def test_goal_text_repeated_as_a_phi_value_is_parsed_as_a_term():
    # the reader's cache is per parser: `A` is a goal, not a term
    text = ("# chr-trace v1\n0 Activate goal=A#1 P={} S={}\n"
            "1 Simplify goal=A#1 rule=r phi={x->A} P={} S={1}\n")
    with pytest.raises(TraceFormatError, match=re.escape(
            "line 3: phi is not a substitution (col 1: expected a term, "
            "found 'A'): '{x->A}'")):
        parse_trace(text)


@pytest.mark.parametrize("line,message", [
    ("0 Activate{long}", "kind is not a step kind"),
    ("0 Bogus{long} goal=A#1", "kind is not a step kind"),
    ("0 Activate goal=A#1 P={{}} S={{}} junk{long}", "trailing text"),
    ("0 Activate goal=A(1+{long} P={{}} S={{}}", "goal is not a constraint"),
])
def test_trace_errors_quote_only_the_start_of_a_long_text(line, message):
    line = line.format(long="x" * 5000)
    with pytest.raises(TraceFormatError, match=f"^line 2: {message}") as exc:
        parse_trace("# chr-trace v1\n" + line + "\n")
    assert len(str(exc.value)) < 200


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
        kind = rng.choice(KINDS)
        c = Chr(rng.choice(["P", "Get", "A_1"]),
                tuple(_random_term(rng) for _ in range(rng.randrange(3))))
        cid = rng.randrange(1, 99)
        goal, goal_id = ((Eq(_random_term(rng), _random_term(rng)), None)
                         if kind == "Solve" else (c, cid))
        rule, phi = None, {}
        if kind in FIRINGS:
            rule = "r1"
            phi = {f"v{j}": _random_term(rng) for j in range(rng.randrange(3))}
        ids = rng.sample(range(1, 20), rng.randrange(4))
        worker, interval = rng.choice([(None, None), (1, (3, 9))])
        step = Step(rng.randrange(10**6), kind, goal, goal_id, rule, phi,
                    tuple(ids[:1]), tuple(sorted(ids[1:])), worker, interval)
        assert parse_line(step_to_line(step)) == step
        dump = "" if kind == "Solve" else NumberedConstraint(c, cid).render()
        whole = parse_trace(serialize_trace([step], {}, "done", dump))
        assert whole.steps == [step] and whole.final_dump == dump


def _mutate(rng, text):
    """One random one-line edit: delete, insert or replace a character, or
    duplicate or delete a whole line."""
    lines = text.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    edit = rng.randrange(5)
    if edit == 3:
        lines.insert(k, lines[k])
    elif edit == 4:
        del lines[k]
    else:
        line = lines[k]
        i = rng.randrange(len(line))
        ch = rng.choice(text + "'%²é\\")
        lines[k] = (line[:i] + line[i + 1:], line[:i] + ch + line[i:],
                    line[:i] + ch + line[i + 1:])[edit]
    return "".join(lines)


@functools.lru_cache(maxsize=None)
def _mutations(name):
    """A 1-worker concurrent trace of `name`, its program and goals, and 500
    seeded one-line edits of it."""
    p, goals, _, text = con_trace_text(name, workers=1)
    rng = random.Random(name)
    return p, goals, text, tuple(_mutate(rng, text) for _ in range(500))


@functools.lru_cache(maxsize=None)
def _mutation_outcomes(name):
    """verify_run on each edit of `_mutations(name)`: its verdict strings, or
    its TraceFormatError."""
    p, goals, _, edits = _mutations(name)
    outcomes = []
    for edited in edits:
        try:
            verdicts = verify_run(edited, goals, p, concurrent=True)
        except TraceFormatError as exc:
            outcomes.append(f"TraceFormatError: {exc}")
        else:
            assert verdicts and all(isinstance(v, Verdict) for v in verdicts)
            outcomes.append(" | ".join(map(str, verdicts)))
    return tuple(outcomes)


@pytest.mark.parametrize("name", ["gcd", "channel", "mergesort"])
def test_mutated_traces_give_verdicts_or_a_format_error(name):
    """The reader under verify_run turns any damage to a trace into
    verdicts or a TraceFormatError, never another exception."""
    outcomes = {"format error" if o.startswith("TraceFormatError") else
                "FAIL" not in o for o in _mutation_outcomes(name)}
    assert outcomes == {"format error", True, False}


def _unrefuted_kind(before, after):
    """The kind of a one-line edit of trace `before` that no check can
    refute from the trace alone, or None for any other edit."""
    if after == before:
        return "no change"
    a, b = ([l for l in t.splitlines() if not l.lstrip().startswith("#")]
            for t in (before, after))
    if a == b:
        return "# line"
    changed = [(x, y) for x, y in zip(a, b) if x != y]
    if len(a) != len(b) or len(changed) != 1:
        return None
    (x, y), = changed
    if x.strip() == y.strip():
        return "whitespace at a line's ends"
    if re.sub(" worker=[0-9]+", "", x) == re.sub(" worker=[0-9]+", "", y):
        return "worker number"
    m = re.fullmatch(r"([0-9]+) .* interval=(-?[0-9]+),[0-9]+", y)
    start = " interval=-?[0-9]+,"
    if (m and -1 <= int(m[2]) < int(m[1])
            and re.sub(start, "", x) == re.sub(start, "", y)):
        return "interval start"
    return None


# the edits of _mutations that pass every check, by kind
UNREFUTED = {
    "gcd": {"# line": 55, "no change": 8},
    "channel": {"# line": 72, "whitespace at a line's ends": 1,
                "no change": 4},
    "mergesort": {"# line": 10, "whitespace at a line's ends": 1,
                  "no change": 4, "interval start": 2},
}


@pytest.mark.parametrize("name", ["gcd", "channel", "mergesort"])
def test_an_edit_that_passes_every_check_is_one_no_check_can_refute(name):
    """A trace alone cannot refute an edit to a `#` line other than the
    status and final store, whitespace at a line's ends, a worker number,
    or an interval start moved within [-1, seq): the start is the engine's
    own claim about its scan.  Every edit that passes is one of these."""
    text, edits = _mutations(name)[2:]
    kinds = Counter(_unrefuted_kind(text, edited)
                    for edited, o in zip(edits, _mutation_outcomes(name))
                    if "FAIL" not in o and not o.startswith("TraceFormatError"))
    assert kinds == UNREFUTED[name]


# sha256 of the outcomes of _mutation_outcomes, one per line
MUTATION_DIGESTS = {
    "gcd": "0db48fb0aad2f02cbe30f96566c484d86726e85af98a2dca6aea5d7f86453954",
    "channel":
        "dc550e7848b7a5a979c61ea17f5ed6cb0f446b820af27e5bef9e9da42de38f84",
    "mergesort":
        "2f46fc6d03f16f47edb77419415aafc84ff591f0d6fdc77593039af3ec380a70",
}


@pytest.mark.parametrize("name", ["gcd", "channel", "mergesort"])
def test_mutated_trace_outcomes_are_pinned(name):
    """Every verdict and error message on the mutated traces is pinned: the
    reader's text cache, the replica's form cache and its firing memo change
    no outcome."""
    outcomes = _mutation_outcomes(name)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == MUTATION_DIGESTS[name]
    if name == "gcd":
        passed = " | audit-overlap: PASS (0 overlapping pair(s))"
        assert [outcomes[k] for k in
                (34, 184, 224, 100, 49, 176, 32, 479, 261, 92)] == [
            "TraceFormatError: line 11: phi is not a substitution "
            "(col 1: expected a term, found 'eof'): '{m-9;n->3}'",
            "TraceFormatError: line 16: goal is not a constraint "
            "(col 7: expected ')', found 'eof'): 'Gcd(02'",
            "TraceFormatError: line 6: S is not a set of integers: 'S3={1}'",
            "TraceFormatError: line 10: P is not a set of integers: 'Pr={}'",
            "TraceFormatError: line 7: trailing text: "
            "'wrker=0 interval=3,4'",
            "TraceFormatError: line 6: phi is not a substitution "
            "(col 2: unexpected character '}'): '{m}->3;n->3}'",
            "replay: FAIL (step 15: seq is 14)"
            " | audit-overlap: FAIL (steps 14 and 14: shared ids [7])",
            "replay: FAIL (step 15: seq is 1) | audit-overlap: FAIL "
            "(step 1: interval 14,15 is not s,1 with -1 <= s < 1)",
            "replay: FAIL (step 6: seq is 7)" + passed,
            "replay: FAIL (step 8: goal G1cd(9)#4 is not the form Gcd(9) "
            "of #4)" + passed]


def test_parse_trace_reads_each_step_as_parse_line_does():
    """parse_trace parses each distinct goal and phi text once per trace and
    shares the terms across steps; its steps must still equal the ones
    parse_line reads from each line alone."""
    texts = [seq_trace_text(name)[3] for name in CORPUS]
    rng = random.Random(20240817)
    cases = [fuzz_case(rng) for _ in range(200)]
    rng = random.Random(20240817)
    cases += [equation_fuzz_case(rng) for _ in range(150)]
    for prog, gtext in cases:
        p, goals = load_program(prog), parse_goals(gtext)
        for res in (run_sequential(goals, p),
                    run_concurrent(goals, p, EngineConfig(workers=1))):
            texts.append(serialize_trace(res.trace, {}, res.status,
                                         res.state.store.dump()))
    for text in texts:
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert parse_trace(text).steps == [parse_line(l) for l in lines]
    steps = parse_trace(seq_trace_text("gcd")[3]).steps
    assert steps[0].goal is steps[2].goal  # Gcd(3), read once
    # each step has its own phi, with shared terms
    assert steps[3].phi == steps[12].phi and steps[3].phi is not steps[12].phi
    assert steps[3].phi["n"] is steps[12].phi["n"]
