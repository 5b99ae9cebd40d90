"""check-final's own finality search against the oracle, and what the
verifier runs.

`verify._first_rewrite` must find a rewrite exactly when the oracle's
`abstract.rewrite_steps` lists one, and the same first one (rule and sorted
head ids): on every store a replay passes through, from the goals to the
end of the run, and on every state the oracle's `final_stores` visits.
`verify_run` must execute no function of the goal engines (`sequential`,
`concurrent`, `matching`, `store`) or of the oracle (`abstract`), so a bug
there cannot hide itself from the verifier.
"""
import random
import sys
from pathlib import Path

import pytest

import chrkit
import chrkit.abstract as abstract
from chrkit.abstract import AbstractStore, LimitExceeded, final_stores
from chrkit.concurrent import EngineConfig, run_concurrent
from chrkit.sequential import run_sequential
from chrkit.syntax import load_program, parse_goals
from chrkit.terms import Chr, instantiate, mgu
from chrkit.trace import parse_trace, serialize_trace
from chrkit.verify import _first_rewrite, _Replica, _replay_step, verify_run

from conftest import CORPUS, equation_fuzz_case, fuzz_case, goals_for, load

# bounds each fuzz case's oracle search; a case that reaches it is still
# compared at every state visited before it
MAX_STATES = 2000

# pure propagation rules, whose history the search must respect: the fuzz
# programs have none, and the corpus only prop_once
PROPAGATION = [
    ("r1 @ P ==> Q.", "P,P,P"),
    ("p @ A(x), A(y) ==> x<y | L(x,y). t @ L(x,y), L(y,z) ==> M(x,z).",
     "A(1),A(2),A(3),A(4)"),
    ("p @ A(x) ==> B(x). k @ A(x), B(x) <=> x>0 | A(x-1).", "A(2),A(1),A(2)"),
]


def _cases():
    """(label, program, goals): the corpus, the propagation cases, the 200
    acceptance fuzz cases and the 150 equation fuzz cases, each batch in
    its seeded order."""
    out = [(name, load(name), goals_for(name)) for name in sorted(CORPUS)]
    out += [(f"prop/{k}", load_program(text), parse_goals(goals))
            for k, (text, goals) in enumerate(PROPAGATION)]
    for batch, make, n in (("fuzz", fuzz_case, 200),
                           ("eqfuzz", equation_fuzz_case, 150)):
        rng = random.Random(20240817)
        for case in range(n):
            text, goals = make(rng)
            out.append((f"{batch}/{case}", load_program(text),
                        parse_goals(goals)))
    return out


@pytest.fixture(scope="module")
def runs():
    """Each case run to its end on both goal engines: (label, program,
    goals, trace text, concurrent)."""
    out = []
    for k, (label, program, goals) in enumerate(_cases()):
        seq = run_sequential(goals, program)
        out.append((f"{label}/seq", program, goals, serialize_trace(
            seq.trace, {}, seq.status, seq.state.store.dump()), False))
        con = run_concurrent(goals, program, EngineConfig(workers=2, seed=k))
        out.append((f"{label}/w2", program, goals, serialize_trace(
            con.trace, {}, con.status, con.state.store.dump()), True))
    return out


def _oracle_first(items, eqs, history, program):
    s = AbstractStore.from_identified(items, eqs, history)
    steps = abstract.rewrite_steps(s, program)
    return (steps[0].rule, steps[0].used_tags) if steps else None


def test_finality_search_agrees_with_the_oracle_on_replayed_stores(runs):
    """At the start of each run and after every step, which covers every
    run stopped after k steps as well as the finished one."""
    seen = {"stores": 0, "open": 0, "history": 0, "equations": 0,
            "inconsistent": 0}
    for label, program, goals, text, _ in runs:
        trace = parse_trace(text)
        rep = _Replica(goals)
        for k in range(len(trace.steps) + 1):
            if k:
                st = trace.steps[k - 1]
                assert _replay_step(rep, st, trace.goal_texts[k - 1],
                                    trace.phi_texts[k - 1], program) is None
            got = _first_rewrite(rep.live_items(), rep.theta, rep.history,
                                 program)
            raw = [(rep.entries[i], i) for i in sorted(rep.entries)]
            want = _oracle_first(raw, rep.eqs, rep.history, program)
            assert got == want, (label, k)
            seen["stores"] += 1
            seen["open"] += got is not None
            seen["history"] += bool(rep.history)
            seen["equations"] += bool(rep.eqs)
            seen["inconsistent"] += rep.theta is None
    assert seen["stores"] > 10_000 and min(seen.values()) > 100, seen


def test_finality_search_agrees_with_the_oracle_on_its_search_states(
        monkeypatch):
    """Every state final_stores expands, given as the state's CHR items
    under the m.g.u. of its equations, with tags as ids, and its history."""
    real = abstract.rewrite_steps
    seen = {"states": 0, "open": 0, "history": 0, "equations": 0}

    def checked(s, p):
        steps = real(s, p)
        eqs = s.eqs()
        theta = mgu(eqs) if eqs else {}
        items = [] if theta is None else [
            (instantiate(theta, c) if theta else c, t)
            for c, t in s.items if isinstance(c, Chr)]
        want = (steps[0].rule, steps[0].used_tags) if steps else None
        assert _first_rewrite(items, theta, s.history, p) == want
        seen["states"] += 1
        seen["open"] += want is not None
        seen["history"] += bool(s.history)
        seen["equations"] += bool(eqs)
        return steps

    monkeypatch.setattr(abstract, "rewrite_steps", checked)
    for _, program, goals in _cases():
        try:
            final_stores(AbstractStore.from_constraints(goals), program,
                         max_states=MAX_STATES)
        except LimitExceeded:
            pass
    assert seen["states"] > 10_000 and min(seen.values()) > 100, seen


SRC = str(Path(chrkit.__file__).resolve().parent)
# the goal engines, their matching and store, and the oracle
FORBIDDEN = {"sequential", "concurrent", "matching", "store", "abstract"}


def _executed(fn, *args):
    """Call fn(*args) under sys.settrace: its result, the (module,
    function) of every chrkit function it runs and the (module, line) of
    every line."""
    functions, lines = set(), set()

    def local(frame, event, _):
        if event == "line":
            lines.add((Path(frame.f_code.co_filename).stem, frame.f_lineno))
        return local

    def calls(frame, event, _):
        path = frame.f_code.co_filename
        if not path.startswith(SRC):
            return None
        functions.add((Path(path).stem, frame.f_code.co_qualname))
        return local

    sys.settrace(calls)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, functions, lines


def test_verify_run_executes_no_engine_or_oracle_code(runs):
    stuck = "\n".join([
        "# chr-trace v1", "0 Activate goal=A#1 P={} S={}",
        "1 Drop goal=A#1 P={} S={}", "2 Activate goal=B#2 P={} S={}",
        "3 Drop goal=B#2 P={} S={}", "# status=done", "# final: A#1",
        "# final: B#2"]) + "\n"
    forged = ("forged", load_program("r1 @ A, B <=> C."), parse_goals("A,B"),
              stuck, False)
    functions, lines = set(), set()
    for label, program, goals, text, concurrent in [*runs, forged]:
        verdicts, ran, reached = _executed(verify_run, text, goals, program,
                                           concurrent)
        functions |= ran
        lines |= reached
        passed = [v.passed for v in verdicts]
        assert passed == ([True, True, False] if label == "forged"
                          else [True] * len(verdicts)), (label, verdicts)
    assert {("verify", "_first_rewrite"),
            ("verify", "check_final_from_replay")} <= functions
    assert not {(m, f) for m, f in functions if m in FORBIDDEN}
    print(f"\nverify_run reached {len(lines)} lines in {len(functions)} "
          f"functions of chrkit")
