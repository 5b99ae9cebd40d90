"""Seeded inputs, independent references and one repetition of each workload.

A repetition ("op") builds its inputs from (workload, seed, op index) alone,
runs them through chrkit and checks every output against a reference that
does not come from chrkit's output for the same mode.  Engine dumps are
read with this file's own line parser, not with chrkit.

Each workload also runs a small instance of its program on the other goal
engine and checks it against the exhaustive oracle, so every end-to-end
metric (`oracle_s` included) and every layer has a value on every workload;
the workload's own mechanism is the large instance.

chrkit functions are always called through their module attribute, so the
tracer's wrappers see the calls.
"""
from __future__ import annotations

import functools
import math
import random
import re
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

import chrkit.abstract as abstract
import chrkit.concurrent as concurrent
import chrkit.sequential as sequential
import chrkit.syntax as syntax
import chrkit.trace as trace
import chrkit.verify as verify

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"

MERGE_N = 128            # a power of two: one Merge constraint remains
MERGE_CROSS_N = 6
GCD_KS = tuple(1 + (i % 12) for i in range(360))  # fixed multiset, shuffled
GCD_CROSS_KS = (3, 4, 5, 6)
CHANNEL_N = 100
CHANNEL_CROSS_K = 4
# one fixed batch of fuzz cases, drawn once from the acceptance distribution:
# a case's oracle cost is so heavy-tailed that batches drawn per seed differ
# in cost by half from seed to seed; the seed orders the batch
FUZZ_CASES = 96
FUZZ_CHANNEL_K = 5
ORACLE_MAX_STATES = 30_000  # the acceptance suite's oracle bounds
ORACLE_MAX_DEPTH = 300
ORACLE_CASE_SUCCESSORS = 5000  # successor states per fuzz case; see README
WORKERS = 2
# a fuzz case's engine run takes about a millisecond, so with two workers
# its time is mostly thread hand-off latency, which varies from run to run
FUZZ_WORKERS = 1
# workloads run on one core: with one worker the main thread only waits for
# it, so nothing runs in parallel, and on one core the hand-offs do not wait
# for an idle core to wake, nor does the worker run on a core of another
# speed than the one speed.py samples
ONE_CORE = ("oracle-fuzz",)

_DUMP_LINE = re.compile(r"(.+)#(\d+)")


def program_text(name: str) -> str:
    return (PROGRAMS / f"{name}.chr").read_text(encoding="utf-8")


def dump_lines(dump: str) -> tuple[list[str], list[str]]:
    """(constraints without ids, equations) of a store dump."""
    cons, eqs = [], []
    for line in dump.splitlines():
        m = _DUMP_LINE.fullmatch(line)
        if m:
            cons.append(m.group(1))
        elif line:
            eqs.append(line)
    return cons, eqs


def canonical(dump: str) -> tuple[str, ...]:
    cons, eqs = dump_lines(dump)
    return tuple(sorted(cons + eqs))


# ------------------------------------------------------------ references

def merge_expected(values) -> list[str]:
    s = sorted(values)
    levels = len(s).bit_length()  # Merge(1,.) .. Merge(log2 N + 1, min)
    return sorted([f"Leq({a},{b})" for a, b in zip(s, s[1:])]
                  + [f"Merge({levels},{s[0]})"])


def check_merge(dump: str, values) -> bool:
    cons, eqs = dump_lines(dump)
    return not eqs and sorted(cons) == merge_expected(values)


def check_gcd(dump: str, values) -> bool:
    cons, eqs = dump_lines(dump)
    return not eqs and cons == [f"Gcd({math.gcd(*values)})"]


_EQ_LINE = re.compile(r"([a-z]\w*)=(-?\d+)|(-?\d+)=([a-z]\w*)")


def check_channel(dump: str, gets, puts) -> bool:
    """No Get/Put left, and exactly one equation per Get variable binding
    it to a Put value, the values forming a permutation of the Puts."""
    cons, eqs = dump_lines(dump)
    if cons or len(eqs) != len(gets):
        return False
    bound = {}
    for line in eqs:
        m = _EQ_LINE.fullmatch(line)
        if m is None:
            return False
        var, val = (m.group(1), m.group(2)) if m.group(1) else (m.group(4), m.group(3))
        if var in bound:
            return False
        bound[var] = int(val)
    return set(bound) == set(gets) and Counter(bound.values()) == Counter(puts)


def check_member(dump: str, finals: set) -> bool:
    """The engine's answer is one of the oracle's final stores."""
    return canonical(dump) in finals


REFERENCES: dict[str, Callable] = {
    "merge": check_merge, "gcd": check_gcd, "channel": check_channel,
    "member": check_member}


# -------------------------------------------------------------- fuzzing

def fuzz_case(rng: random.Random) -> tuple[str, str]:
    """The acceptance suite's fuzz distribution: a random terminating
    program (every rule removes a head, every body argument is below a
    removed head's argument) and 3-8 goals."""
    preds = ["A", "B", "C"]
    lines = []
    for ri in range(rng.randrange(1, 5)):
        n_heads = rng.randrange(1, 4)
        n_simp = rng.randrange(1, n_heads + 1)
        vs = [f"v{ri}x{k}" for k in range(n_heads)]
        heads = [f"{rng.choice(preds)}({vs[k]})" for k in range(n_heads)]
        simp, prop = heads[:n_simp], heads[n_simp:]
        x = rng.choice(vs[:n_simp])
        roll = rng.random()
        guard, body = None, "true"
        if roll < 0.30:
            pass
        elif roll < 0.80:
            guard, body = f"{x}>0", f"{rng.choice(preds)}({x}-1)"
        elif roll < 0.92 and n_simp >= 2:
            y = rng.choice([v for v in vs[:n_simp] if v != x])
            guard, body = f"{x}>={y} && {y}>0", f"{rng.choice(preds)}({x}-{y})"
        else:
            guard = f"{x}>1"
            body = f"{rng.choice(preds)}({x}-1),{rng.choice(preds)}({x}-1)"
        head_txt = (", ".join(prop) + " \\ " if prop else "") + ", ".join(simp)
        guard_txt = f"{guard} | " if guard else ""
        lines.append(f"r{ri} @ {head_txt} <=> {guard_txt}{body}.")
    goals = ",".join(f"{rng.choice(preds)}({rng.randrange(0, 5)})"
                     for _ in range(rng.randrange(3, 9)))
    return "\n".join(lines), goals


@functools.lru_cache(maxsize=1)
def fuzz_batch() -> tuple[tuple[str, str], ...]:
    rng = random.Random("oracle-fuzz:batch")
    return tuple(fuzz_case(rng) for _ in range(FUZZ_CASES))


# ---------------------------------------------------------------- inputs

def channel_goals(gets, puts) -> str:
    return ",".join([f"Get({v})" for v in gets] + [f"Put({p})" for p in puts])


def make_inputs(workload: str, seed: int, k: int) -> dict:
    """Everything one op needs, as text and numbers; same (seed, k), same
    inputs."""
    rng = random.Random(f"{workload}:{seed}:{k}")
    if workload == "merge-seq":
        vals = rng.sample(range(1, 100 * MERGE_N), MERGE_N)
        cross = rng.sample(range(1, 100), MERGE_CROSS_N)
        return {"main": ("mergesort", vals), "cross": ("mergesort", cross),
                "engine_seed": rng.randrange(2**31)}
    if workload == "gcd-con2":
        ks = list(GCD_KS)
        rng.shuffle(ks)
        g = rng.randrange(2, 60)
        g2 = rng.randrange(2, 60)
        return {"main": ("gcd", [g * x for x in ks]),
                "cross": ("gcd", [g2 * x for x in GCD_CROSS_KS]),
                "engine_seed": rng.randrange(2**31)}
    if workload == "channel-eq":
        puts = [rng.randrange(1, 10**6) for _ in range(CHANNEL_N)]
        cross = rng.sample(range(1, 1000), CHANNEL_CROSS_K)
        return {"main": ("channel", ([f"x{i}" for i in range(CHANNEL_N)], puts)),
                "cross": ("channel", ([f"y{i}" for i in range(CHANNEL_CROSS_K)], cross)),
                "engine_seed": rng.randrange(2**31)}
    if workload == "oracle-fuzz":
        cases = list(fuzz_batch())
        rng.shuffle(cases)
        puts = rng.sample(range(1, 1000), FUZZ_CHANNEL_K)
        return {"fuzz": cases,
                "main": ("channel", ([f"z{i}" for i in range(FUZZ_CHANNEL_K)], puts)),
                "engine_seed": rng.randrange(2**31)}
    raise ValueError(f"unknown workload {workload!r}")


def goal_text(prog: str, data) -> str:
    if prog == "mergesort":
        return ",".join(f"Merge(1,{v})" for v in data)
    if prog == "gcd":
        return ",".join(f"Gcd({v})" for v in data)
    gets, puts = data
    return channel_goals(gets, puts)


def setup_texts(inputs: dict) -> list[tuple[str, str]]:
    """(program text, goal text) pairs the op loads before its first step."""
    out = [(program_text(p), goal_text(p, d))
           for key in ("main", "cross") if key in inputs
           for p, d in [inputs[key]]]
    out.extend(inputs.get("fuzz", ()))
    return out


# ------------------------------------------------------------------ ops

class OracleBudgetSpent(Exception):
    """The oracle search of one case used up its successor budget."""


class Ctx:
    """Times, counts and failures of the ops of one run."""

    def __init__(self, tracer=None, references=None):
        self.tracer = tracer
        self.refs = dict(REFERENCES if references is None else references)
        self.times: dict[str, float] = defaultdict(float)  # see `timed`
        self.wall: dict[str, float] = defaultdict(float)
        self.probe = None  # a speed.SpeedProbe while an untraced op runs
        self.attempted = 0
        self.failures: list[str] = []
        self.undecided = 0
        self.oracle_cases: list[float] = []
        self.stats: dict[str, float] = defaultdict(float)

    @contextmanager
    def timed(self, phase: str):
        """Adds the block's time to `times[phase]`: at the reference speed
        while a probe runs, else wall time (also kept in `wall`)."""
        tr = self.tracer
        if tr is not None:
            tr.phase(phase)
            frame = tr.enter("bench." + phase, True)
        probe = self.probe
        mark = probe.mark() if probe is not None else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            self.wall[phase] += wall
            self.times[phase] += (wall if probe is None
                                  else probe.scaled(wall, mark))
            if tr is not None:
                tr.exit(frame)
                tr.phase("none")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def record_run(self, engine: str, steps, text: str, live: int,
                   seconds: float) -> None:
        st = self.stats
        st[f"{engine}.runs"] += 1
        st[f"{engine}.steps"] += len(steps)
        st[f"{engine}.run_s"] += seconds
        for s in steps:
            kind = getattr(s, "step", s).kind
            st[f"{engine}.steps.{kind}"] += 1
            if kind in ("Simplify", "Propagate"):
                st["firings"] += 1
        st["trace.bytes"] += len(text)
        st["trace.steps"] += len(steps)
        st["store.live_final"] += live


def load(ctx: Ctx, prog_text: str, goals_text: str):
    with ctx.timed("setup"):
        program = syntax.load_program(prog_text)
        goals = syntax.parse_goals(goals_text)
    return program, goals


def run_engine(ctx: Ctx, engine: str, program, goals, seed: int,
               phase: str = "run", workers: int = WORKERS):
    """One engine run plus its serialized trace; checks status only."""
    t0 = time.perf_counter()
    with ctx.timed(phase):
        if engine == "sequential":
            res = sequential.run_sequential(goals, program)
            meta = {"engine": "sequential", "policy": "fifo"}
        else:
            cfg = concurrent.EngineConfig(workers=workers, seed=seed)
            res = concurrent.run_concurrent(goals, program, cfg)
            meta = {"engine": "concurrent", "workers": str(workers),
                    "seed": str(seed)}
    seconds = time.perf_counter() - t0
    dump = res.state.store.dump()
    with ctx.timed("serialize"):
        text = trace.serialize_trace(res.trace, meta, res.status, dump)
    ctx.record_run(engine, res.trace, text, res.state.store.size(), seconds)
    return res.status, dump, text


def verify_trace(ctx: Ctx, text: str, goals, program, engine: str,
                 label: str, phase: str = "verify") -> None:
    conc = engine == "concurrent"
    with ctx.timed(phase):
        verdicts = verify.verify_run(text, goals, program, concurrent=conc)
    bad = [str(v) for v in verdicts if not v.passed]
    want = 4 if conc else 3
    ctx.check(not bad and len(verdicts) == want,
              f"{label}: verify {bad or len(verdicts)}")


def oracle(ctx: Ctx, program, goals,
           budget: Optional[int] = None) -> Optional[set]:
    """Exhaustive final stores at the acceptance bounds; None when the
    oracle could not decide: bounds hit, or a state left to expand after
    `abstract.rewrite_steps` has returned `budget` successor states."""
    start = abstract.AbstractStore.from_constraints(goals)
    t0 = time.perf_counter()
    finals = None
    rewrite = abstract.rewrite_steps
    if budget is not None:
        left = [budget]

        def limited(s, p):
            if left[0] <= 0:
                raise OracleBudgetSpent
            steps = rewrite(s, p)
            left[0] -= len(steps)
            return steps

        abstract.rewrite_steps = limited
    with ctx.timed("oracle"):
        try:
            finals = abstract.final_stores(
                start, program, max_states=ORACLE_MAX_STATES,
                max_depth=ORACLE_MAX_DEPTH)
        except (abstract.LimitExceeded, OracleBudgetSpent):
            finals = None
        finally:
            abstract.rewrite_steps = rewrite
    ctx.oracle_cases.append(time.perf_counter() - t0)
    if finals is None:
        ctx.undecided += 1
        ctx.stats["abstract.limit_exceeded"] += 1
    return finals


def _small_cross_check(ctx: Ctx, inputs: dict, engine: str, label: str,
                       expect_finals: Optional[Callable] = None) -> None:
    """Small instance on `engine`, verified, and its answer inside the
    oracle's final stores.  Its engine run and verification are timed as
    their own phase, so run_s and verify_s stay those of the large
    instance."""
    prog, data = inputs["cross"]
    program, goals = load(ctx, program_text(prog), goal_text(prog, data))
    status, dump, text = run_engine(ctx, engine, program, goals,
                                    inputs["engine_seed"], phase="cross")
    ctx.check(status == "done", f"{label}: status {status}")
    verify_trace(ctx, text, goals, program, engine, label, phase="cross")
    finals = oracle(ctx, program, goals)
    if finals is not None:
        ok = ctx.refs["member"](dump, finals)
        if expect_finals is not None:
            ok = ok and expect_finals(finals)
        ctx.check(ok, f"{label}: answer not among {len(finals)} oracle finals")


def op_merge(ctx: Ctx, inputs: dict) -> None:
    prog, vals = inputs["main"]
    program, goals = load(ctx, program_text(prog), goal_text(prog, vals))
    status, dump, text = run_engine(ctx, "sequential", program, goals, 0)
    ctx.check(status == "done" and ctx.refs["merge"](dump, vals),
              f"merge: status {status} or wrong chain")
    verify_trace(ctx, text, goals, program, "sequential", "merge")
    _small_cross_check(ctx, inputs, "concurrent", "merge-cross")


def op_gcd(ctx: Ctx, inputs: dict) -> None:
    prog, vals = inputs["main"]
    program, goals = load(ctx, program_text(prog), goal_text(prog, vals))
    status, dump, text = run_engine(ctx, "concurrent", program, goals,
                                    inputs["engine_seed"])
    ctx.check(status == "done" and ctx.refs["gcd"](dump, vals),
              f"gcd: status {status} or wrong answer {dump!r}")
    verify_trace(ctx, text, goals, program, "concurrent", "gcd")
    cross_vals = inputs["cross"][1]
    _small_cross_check(
        ctx, inputs, "sequential", "gcd-cross",
        lambda finals: finals == {(f"Gcd({math.gcd(*cross_vals)})",)})


def op_channel(ctx: Ctx, inputs: dict) -> None:
    prog, (gets, puts) = inputs["main"]
    program, goals = load(ctx, program_text(prog), goal_text(prog, (gets, puts)))
    status, dump, text = run_engine(ctx, "sequential", program, goals, 0)
    ctx.check(status == "done" and ctx.refs["channel"](dump, gets, puts),
              f"channel: status {status} or wrong bindings")
    verify_trace(ctx, text, goals, program, "sequential", "channel")
    k = CHANNEL_CROSS_K
    _small_cross_check(ctx, inputs, "concurrent", "channel-cross",
                       lambda finals: len(finals) == math.factorial(k))


def op_fuzz(ctx: Ctx, inputs: dict) -> None:
    seed = inputs["engine_seed"]
    for i, (ptext, gtext) in enumerate(inputs["fuzz"]):
        label = f"fuzz-{i}"
        program, goals = load(ctx, ptext, gtext)
        status, dump, text = run_engine(ctx, "concurrent", program, goals,
                                        seed + i, workers=FUZZ_WORKERS)
        ctx.check(status == "done", f"{label}: status {status}")
        verify_trace(ctx, text, goals, program, "concurrent", label)
        finals = oracle(ctx, program, goals, budget=ORACLE_CASE_SUCCESSORS)
        if finals is not None:
            ctx.check(ctx.refs["member"](dump, finals),
                      f"{label}: answer not among the oracle finals")
    prog, (gets, puts) = inputs["main"]
    program, goals = load(ctx, program_text(prog), goal_text(prog, (gets, puts)))
    status, dump, text = run_engine(ctx, "sequential", program, goals, 0)
    ctx.check(status == "done" and ctx.refs["channel"](dump, gets, puts),
              f"channel-k5: status {status} or wrong bindings")
    verify_trace(ctx, text, goals, program, "sequential", "channel-k5")
    finals = oracle(ctx, program, goals)
    if finals is not None:
        ctx.check(len(finals) == math.factorial(FUZZ_CHANNEL_K)
                  and ctx.refs["member"](dump, finals),
                  f"channel-k5: {len(finals)} oracle finals")


OPS: dict[str, Callable[[Ctx, dict], None]] = {
    "merge-seq": op_merge,
    "gcd-con2": op_gcd,
    "channel-eq": op_channel,
    "oracle-fuzz": op_fuzz,
}


def seq_twin(inputs: dict, workload: str) -> tuple[float, float]:
    """(concurrent s, sequential s) for the same goals, untraced: the
    concurrent engine's overhead over sequential execution."""
    if workload == "gcd-con2":
        prog, data = inputs["main"]
    else:
        prog, data = inputs["cross"] if "cross" in inputs else inputs["main"]
    program = syntax.load_program(program_text(prog))
    goals = syntax.parse_goals(goal_text(prog, data))
    t0 = time.perf_counter()
    concurrent.run_concurrent(goals, program, concurrent.EngineConfig(
        workers=WORKERS, seed=inputs["engine_seed"]))
    t1 = time.perf_counter()
    sequential.run_sequential(goals, program)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1
