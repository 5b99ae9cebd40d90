"""Size sweeps: how time grows with input size, as a log-log exponent.

Reported, never gated.  Each point is the median of REPS runs; the fit is
least squares of log(time) on log(size).

  sweep.channel-eq.run_s.exp                 run_sequential over N
  sweep.gcd-con2.verify.audit_overlap_s.exp  audit over trace steps
  sweep.merge-seq.verify_s.exp               verify_run over N
  sweep.oracle-fuzz.oracle_s.exp             final_stores of channel k=4..6
                                             over the number of final stores
"""
from __future__ import annotations

import json
import math
import random
import statistics
import time

import chrkit.abstract as abstract
import chrkit.concurrent as concurrent
import chrkit.sequential as sequential
import chrkit.syntax as syntax
import chrkit.trace as trace
import chrkit.verify as verify

import workloads as wl

REPS = 2


def fit_exponent(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def channel_run(rng, n):
    program = syntax.load_program(wl.program_text("channel"))
    gets = [f"x{i}" for i in range(n)]
    puts = [rng.randrange(1, 10**6) for _ in range(n)]
    goals = syntax.parse_goals(wl.channel_goals(gets, puts))
    dt, res = _timed(lambda: sequential.run_sequential(goals, program))
    if not wl.check_channel(res.state.store.dump(), gets, puts):
        raise RuntimeError(f"channel N={n}: wrong bindings")
    return n, dt


def gcd_audit(rng, n):
    program = syntax.load_program(wl.program_text("gcd"))
    ks = [1 + (i % 12) for i in range(n)]
    rng.shuffle(ks)
    vals = [7 * k for k in ks]
    goals = syntax.parse_goals(",".join(f"Gcd({v})" for v in vals))
    res = concurrent.run_concurrent(goals, program, concurrent.EngineConfig(
        workers=wl.WORKERS, seed=rng.randrange(2**31)))
    text = trace.serialize_trace(res.trace, {"engine": "concurrent"},
                                 res.status, res.state.store.dump())
    parsed = trace.parse_trace(text)
    dt, verdict = _timed(lambda: verify.audit_overlap_trace(parsed))
    if not verdict.passed or not wl.check_gcd(res.state.store.dump(), vals):
        raise RuntimeError(f"gcd N={n}: {verdict}")
    return len(parsed.steps), dt


def merge_verify(rng, n):
    program = syntax.load_program(wl.program_text("mergesort"))
    vals = rng.sample(range(1, 100 * n), n)
    goals = syntax.parse_goals(",".join(f"Merge(1,{v})" for v in vals))
    res = sequential.run_sequential(goals, program)
    dump = res.state.store.dump()
    text = trace.serialize_trace(res.trace, {"engine": "sequential"},
                                 res.status, dump)
    dt, verdicts = _timed(lambda: verify.verify_run(text, goals, program))
    if not all(v.passed for v in verdicts) or not wl.check_merge(dump, vals):
        raise RuntimeError(f"merge N={n}: {verdicts}")
    return n, dt


def oracle_channel(rng, k):
    program = syntax.load_program(wl.program_text("channel"))
    puts = rng.sample(range(1, 1000), k)
    goals = syntax.parse_goals(wl.channel_goals([f"z{i}" for i in range(k)], puts))
    dt, finals = _timed(lambda: abstract.final_stores(
        abstract.AbstractStore.from_constraints(goals), program,
        max_states=wl.ORACLE_MAX_STATES, max_depth=wl.ORACLE_MAX_DEPTH))
    if len(finals) != math.factorial(k):
        raise RuntimeError(f"oracle channel k={k}: {len(finals)} final stores")
    return len(finals), dt


LADDERS = [
    ("sweep.channel-eq.run_s.exp", channel_run, (50, 100, 200, 400)),
    ("sweep.gcd-con2.verify.audit_overlap_s.exp", gcd_audit, (120, 240, 480, 960)),
    ("sweep.merge-seq.verify_s.exp", merge_verify, (32, 64, 128, 256)),
    ("sweep.oracle-fuzz.oracle_s.exp", oracle_channel, (4, 5, 6)),
]


def main(seed: int, results) -> int:
    report = {}
    for name, fn, sizes in LADDERS:
        rng = random.Random(f"{name}:{seed}")
        xs, ys = [], []
        for size in sizes:
            points = [fn(rng, size) for _ in range(REPS)]
            xs.append(statistics.median(p[0] for p in points))
            ys.append(statistics.median(p[1] for p in points))
            print(f"{name[:-4]} size={size} x={xs[-1]:g} s={ys[-1]:.6g}", flush=True)
        exp = fit_exponent(xs, ys)
        report[name] = {"exp": exp, "x": xs, "s": ys}
        print(f"{name} {exp:.3f}")
    results.mkdir(exist_ok=True)
    path = results / f"SWEEP_seed{seed}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0
