"""Acceptance suite.

Each test prints one PASS line per criterion.  Criteria 1-4 run the
workloads once (module-scoped fixtures) and criteria 5-7 verify every trace
those runs produced, through the serialized trace format.
"""
from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field

import pytest

from chrkit.abstract import (AbstractStore, LimitExceeded, canonical_multiset,
                             final_stores, run_abstract)
from chrkit.concurrent import EngineConfig, run_concurrent, run_pitfall_variant
from chrkit.sequential import run_sequential
from chrkit.syntax import load_program, parse_goals
from chrkit.terms import Chr, Const
from chrkit.trace import parse_trace, serialize_trace
from chrkit.verify import audit_overlap_trace, check_final, replay

from conftest import (CORPUS, MULTI_FIRING, fuzz_case, goals_for, load,
                      overlapping_firing_pairs, scripted_overlap)

GCD_ANSWER = ("Gcd(3)",)
CHANNEL_ANSWERS = {("m=1", "n=8"), ("m=8", "n=1")}
MERGE_CHAIN = tuple(sorted([f"Leq({i},{i + 1})" for i in range(1, 8)]
                           + ["Merge(4,1)"]))


@dataclass
class Artifact:
    """One finished run plus everything the verifier needs."""
    label: str
    program: object
    goals: tuple
    status: str
    dump: str
    trace_text: str
    concurrent: bool
    state: object
    history: set
    records: list = field(default_factory=list)


def _seq_artifact(label, program, goals) -> Artifact:
    res = run_sequential(goals, program)
    dump = res.state.store.dump()
    text = serialize_trace(res.trace, {"engine": "sequential"}, res.status, dump)
    return Artifact(label, program, goals, res.status, dump, text, False,
                    res.state, res.history, list(res.trace))


def _con_artifact(label, program, goals, workers, seed) -> Artifact:
    res = run_concurrent(goals, program, EngineConfig(workers=workers, seed=seed))
    dump = res.state.store.dump()
    text = serialize_trace(
        res.trace,
        {"engine": "concurrent", "workers": str(workers), "seed": str(seed)},
        res.status, dump)
    return Artifact(label, program, goals, res.status, dump, text, True,
                    res.state, res.history, list(res.trace))


# ------------------------------------------------------------ workloads

@pytest.fixture(scope="module")
def gcd_runs():
    program, goals = load("gcd"), goals_for("gcd")
    t0 = time.perf_counter()
    arts = []
    for rep in range(100):
        arts.append(_seq_artifact(f"gcd/seq/{rep}", program, goals))
        for workers in (1, 2, 4, 8):
            arts.append(_con_artifact(f"gcd/w{workers}/{rep}", program, goals,
                                      workers, rep))
    return arts, time.perf_counter() - t0


@pytest.fixture(scope="module")
def channel_runs():
    program, goals = load("channel"), goals_for("channel")
    arts = [_con_artifact(f"channel/w4/{rep}", program, goals, 4, rep)
            for rep in range(200)]
    return arts


@pytest.fixture(scope="module")
def merge_runs():
    program, goals = load("mergesort"), goals_for("mergesort")
    t0 = time.perf_counter()
    arts = []
    walks = []
    for rep in range(50):
        arts.append(_seq_artifact(f"merge/seq/{rep}", program, goals))
        arts.append(_con_artifact(f"merge/w4/{rep}", program, goals, 4, rep))
        final, status = run_abstract(AbstractStore.from_constraints(goals),
                                     program, seed=rep)
        walks.append((canonical_multiset(final.constraints()), status))
    return arts, walks, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fuzz_runs():
    rng = random.Random(20240817)
    arts, skipped = [], 0
    oracle_finals = []
    for case in range(500):
        text, gtext = fuzz_case(rng)
        program = load_program(text)
        goals = parse_goals(gtext)
        art = _con_artifact(f"fuzz/{case}", program, goals,
                            workers=2 + case % 3, seed=case)
        try:
            finals = final_stores(AbstractStore.from_constraints(goals),
                                  program, max_states=30_000, max_depth=300)
        except LimitExceeded:
            skipped += 1
            continue
        arts.append(art)
        oracle_finals.append(finals)
    return arts, oracle_finals, skipped


@pytest.fixture(scope="module")
def all_artifacts(gcd_runs, channel_runs, merge_runs, fuzz_runs):
    arts = list(gcd_runs[0]) + list(channel_runs) + list(merge_runs[0]) \
        + list(fuzz_runs[0])
    return arts


# ------------------------------------------------------------- criteria

def test_criterion_1_gcd_answer_all_engines(gcd_runs):
    arts, elapsed = gcd_runs
    assert len(arts) == 500
    for art in arts:
        assert art.status == "done", art.label
        store = canonical_multiset(art.state.store.drop_ids())
        assert store == GCD_ANSWER, art.label
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    print(f"\nCRITERION 1 PASS gcd answer exact on 500 runs in {elapsed:.2f}s")


def test_criterion_2_channel_answers(channel_runs):
    program, goals = load("channel"), goals_for("channel")
    finals = final_stores(AbstractStore.from_constraints(goals), program)
    assert finals == CHANNEL_ANSWERS
    for art in channel_runs:
        assert art.status == "done", art.label
        got = canonical_multiset(art.state.store.drop_ids())
        assert got in CHANNEL_ANSWERS, (art.label, got)
    print("\nCRITERION 2 PASS channel: oracle finds exactly both answers; "
          "200 concurrent runs all land in them")


def test_criterion_3_merge_sort_chain(merge_runs):
    arts, walks, elapsed = merge_runs
    for art in arts:
        assert art.status == "done", art.label
        got = tuple(sorted(canonical_multiset(art.state.store.drop_ids())))
        assert got == MERGE_CHAIN, art.label
    for canon, status in walks:
        assert status == "done"
        assert tuple(sorted(canon)) == MERGE_CHAIN
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    print(f"\nCRITERION 3 PASS merge sort chain on all engines, "
          f"150 runs in {elapsed:.2f}s")


def test_criterion_4_oracle_equivalence_fuzzing(fuzz_runs):
    arts, oracle_finals, skipped = fuzz_runs
    total = len(arts) + skipped
    assert total == 500
    assert skipped / total < 0.05, f"oracle skip rate {skipped}/{total}"
    for art, finals in zip(arts, oracle_finals):
        assert art.status == "done", art.label
        got = canonical_multiset(art.state.store.drop_ids())
        assert got in finals, (art.label, got, sorted(finals)[:3])
    print(f"\nCRITERION 4 PASS {len(arts)} fuzz cases inside the oracle set "
          f"({skipped} skipped)")


def test_criterion_5_replay_every_trace(all_artifacts):
    for art in all_artifacts:
        verdict = replay(parse_trace(art.trace_text), art.goals, art.program)
        assert verdict.passed, (art.label, verdict.detail)
    print(f"\nCRITERION 5 PASS replay on {len(all_artifacts)} traces")


def test_criterion_6_finality_every_done_run(all_artifacts):
    checked = 0
    for art in all_artifacts:
        if art.status != "done":
            continue
        verdict = check_final(art.state, art.program, art.history)
        assert verdict.passed, (art.label, verdict.detail)
        checked += 1
    print(f"\nCRITERION 6 PASS finality on {checked} done runs")


def test_criterion_7_overlap_audit_and_nonvacuity(all_artifacts, monkeypatch):
    audited = 0
    for art in all_artifacts:
        if not art.concurrent:
            continue
        verdict = audit_overlap_trace(parse_trace(art.trace_text))
        assert verdict.passed, (art.label, verdict.detail)
        audited += 1
    # the audit must not be vacuous: a scripted two-worker schedule commits a
    # genuinely overlapping pair for every multi-firing corpus program
    found = {}
    for name in MULTI_FIRING:
        program = load(name)
        forced = scripted_overlap(program, goals_for(name), monkeypatch)
        assert forced is not None, f"no overlapping pair for {name}"
        _, res = forced
        verdict = audit_overlap_trace(parse_trace(serialize_trace(
            res.trace, {}, res.status, res.state.store.dump())))
        assert verdict.passed, (name, verdict.detail)
        found[name] = overlapping_firing_pairs(res.trace)
    print(f"\nCRITERION 7 PASS audit on {audited} concurrent traces; "
          f"overlapping pairs: {found}")


def test_criterion_8_active_instance_invariant():
    for name in CORPUS:
        program, goals = load(name), goals_for(name)
        res = run_sequential(goals, program, check_invariants=True)
        assert res.status == "done", name
    print(f"\nCRITERION 8 PASS active-instance invariant on "
          f"{len(CORPUS)} corpus programs")


def test_criterion_9_pitfall_variants_reach_stuck_states():
    cases = [
        ("store_on_drop", "pitfall_pair", [["A(1)"], ["B(2)"]],
         "A(1)#1\nB(2)#2"),
        ("split_store", "pitfall_split", [["A", "E"], ["B", "D"]], None),
        ("multi_step", "pitfall_single", [["A"], ["B"]], None),
    ]
    for variant, prog_name, goal_lists, want_dump in cases:
        program = load(prog_name)
        thread_goals = [parse_goals(",".join(gs)) for gs in goal_lists]
        state = run_pitfall_variant(list(thread_goals), program, variant)
        if want_dump is not None:
            assert state.store.dump() == want_dump
        verdict = check_final(state, program)
        assert not verdict.passed, (variant, state.store.dump())
        # the shipped engine finishes the same workload exhaustively
        flat = [g for gs in thread_goals for g in gs]
        res = run_concurrent(flat, program, EngineConfig(workers=2, seed=0))
        assert check_final(res.state, program, res.history).passed
    print("\nCRITERION 9 PASS all three rejected variants get stuck and "
          "the finality check reports them")


def test_criterion_10_single_worker_equals_sequential():
    for name in CORPUS:
        program, goals = load(name), goals_for(name)
        seq = run_sequential(goals, program, policy="fifo")
        con = run_concurrent(goals, program, EngineConfig(workers=1))
        assert con.state.store.dump() == seq.state.store.dump(), name
    print(f"\nCRITERION 10 PASS byte-identical dumps on "
          f"{len(CORPUS)} corpus programs")


def test_scalability_smoke_report():
    """Throughput smoke check, reported but not asserted: CPython's
    interpreter lock serializes rule matching, so thread count cannot buy
    wall-clock speed here (no performance figure is claimed; correctness of
    the 10k-goal run is still asserted)."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(0.005)
    try:
        program = load("gcd")
        goals = tuple(Chr("Gcd", (Const(8 if i % 2 else 16),))
                      for i in range(10_000))
        times = {}
        for workers in (1, 8):
            t0 = time.perf_counter()
            res = run_concurrent(goals, program,
                                 EngineConfig(workers=workers, seed=0))
            times[workers] = time.perf_counter() - t0
            assert res.status == "done"
            assert canonical_multiset(res.state.store.drop_ids()) == ("Gcd(8)",)
        ratio = times[8] / times[1]
        print(f"\nSCALABILITY SMOKE (not a claim): 10k goals, "
              f"workers=1 {times[1]:.2f}s, workers=8 {times[8]:.2f}s, "
              f"ratio {ratio:.2f}x")
    finally:
        sys.setswitchinterval(old)
