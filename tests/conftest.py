from __future__ import annotations

import itertools
import sys
from collections import Counter, deque
from pathlib import Path
from typing import Iterable

import pytest

import chrkit.concurrent as concurrent
from chrkit.abstract import (AbstractStore, LimitExceeded, RewriteStep,
                             canonical_multiset)
from chrkit.concurrent import ConcurrentEngine, EngineConfig
from chrkit.store import NumberedConstraint
from chrkit.syntax import Program, Rule, load_program, parse_goals
from chrkit.terms import (Chr, Constraint, Subst, apply_subst, entails, match,
                          mgu, normalize_constraint, render_constraint)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

# every shipped program with its default test goals
CORPUS = {
    "gcd": "Gcd(3),Gcd(3),Gcd(9)",
    "channel": "Get(m),Put(1),Get(n),Put(8)",
    "mergesort": ",".join(f"Merge(1,{i})" for i in [5, 2, 7, 1, 8, 3, 6, 4]),
    "prop_once": "P,P",
    "opt_join": "A(1,0),B(1),C(0),A(3,2),B(3),C(2)",
    "opt_drop": "A(1),A(0),C(5)",
    "pitfall_pair": "A(1),B(2)",
    "pitfall_split": "A,E,B,D",
    "pitfall_single": "A,B",
}

# programs with at least two rule firings, where overlap analysis can bite
MULTI_FIRING = ("gcd", "channel", "mergesort", "prop_once", "opt_join",
                "opt_drop")


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def overlapping_firing_pairs(trace) -> int:
    """How many pairs of committed rule firings genuinely overlapped in time
    (shows the overlap audit is not vacuous)."""
    firings = [r for r in trace if r.step.kind in ("Simplify", "Propagate")]
    return sum(_overlaps(a.interval, b.interval)
               for i, a in enumerate(firings) for b in firings[i + 1:])


def all_pairs_audit(records) -> tuple[set, bool]:
    """Reference for the sweep audit: every pair of effectful records whose
    intervals overlap, as (smaller seq, larger seq), and whether any such
    pair shares a simplified id with the other's side-effects."""
    effectful = [r for r in records if r[2] or r[3]]
    pairs, violating = set(), False
    for i, (seq1, iv1, p1, s1) in enumerate(effectful):
        for seq2, iv2, p2, s2 in effectful[i + 1:]:
            if not _overlaps(iv1, iv2):
                continue
            pairs.add((min(seq1, seq2), max(seq1, seq2)))
            if set(s1) & set(p2 + s2) or set(s2) & set(p1 + s1):
                violating = True
    return pairs, violating


def fuzz_case(rng):
    """A random terminating program: every rule removes at least one head,
    and every body argument is strictly below a removed head's argument, so
    the multiset of arguments decreases on every firing."""
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


def equation_fuzz_case(rng):
    """fuzz_case with logic variables in the goals and `x=y` / `x=k` bodies.
    It terminates: a rule with an equation body removes CHR constraints and
    adds none, and every other rule is a fuzz_case rule."""
    preds = ["A", "B", "C"]
    lines = []
    for ri in range(rng.randrange(1, 5)):
        n_heads = rng.randrange(1, 3)
        vs = [f"v{ri}x{k}" for k in range(n_heads)]
        heads = ", ".join(f"{rng.choice(preds)}({v})" for v in vs)
        x = rng.choice(vs)
        roll = rng.random()
        if roll < 0.35 and n_heads == 2:
            guard, body = None, f"{vs[0]}={vs[1]}"
        elif roll < 0.6:
            guard, body = None, f"{x}={rng.randrange(0, 3)}"
        elif roll < 0.9:
            guard, body = f"{x}>0", f"{rng.choice(preds)}({x}-1)"
        else:
            guard, body = f"{x}=={rng.randrange(0, 3)}", "true"
        guard_txt = f"{guard} | " if guard else ""
        lines.append(f"r{ri} @ {heads} <=> {guard_txt}{body}.")
    args = [str(rng.randrange(0, 4)) for _ in range(3)] + ["u", "w", "z"]
    goals = [f"{rng.choice(preds)}({rng.choice(args)})"
             for _ in range(rng.randrange(3, 9))]
    if rng.random() < 0.3:
        goals.append(f"{rng.choice('uwz')}={rng.choice(args)}")
    return "\n".join(lines), ",".join(goals)


def program_text(name: str) -> str:
    return (PROGRAMS / f"{name}.chr").read_text()


def load(name: str):
    return load_program(program_text(name))


def goals_for(name: str):
    return parse_goals(CORPUS[name])


@pytest.fixture(scope="session")
def corpus():
    return {name: (load(name), goals_for(name)) for name in CORPUS}


@pytest.fixture(autouse=True, scope="session")
def _fast_thread_switching():
    # frequent preemption widens the schedules the concurrent tests explore
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


# ------------------------------------------- brute-force oracle reference
#
# The abstract search as it was before its rendered forms were cached, its
# equations solved once per state and its guards tested early.  The
# differential tests check chrkit.abstract against it.

def _theta_norm(theta: Subst, c: Constraint) -> Constraint:
    return normalize_constraint(apply_subst(theta, c))


def reference_rewrite_steps(s: AbstractStore, p: Program) -> list[RewriteStep]:
    """Every applicable single rewrite: every rule, every injective assignment
    of distinct store elements to head positions, every matching substitution
    with the guard entailed.  Deterministic enumeration order (rules top to
    bottom, elements in tag order).  Empty result means the store is final.
    """
    eqs = s.eqs()
    theta = mgu(eqs)
    if theta is None:
        return []  # inconsistent store entails nothing; final by convention
    chr_items = [(c, t) for c, t in s.items if isinstance(c, Chr)]
    norm: dict[int, Chr] = {t: _theta_norm(theta, c) for c, t in chr_items}
    out: list[RewriteStep] = []

    for rule in p.rules:
        heads = rule.heads  # textual order: propagated then simplified
        pure_propagation = not rule.simplified

        def assign(k: int, phi: Subst, used: list[tuple[str, Chr, int]]):
            if k == len(heads):
                if not entails(eqs, phi, rule.guard):
                    return
                tags = tuple(sorted(t for _, _, t in used))
                if pure_propagation:
                    key = (rule.name, tags)
                    if key in s.history:
                        return
                out.append(_apply(s, rule, phi, used))
                return
            role, _, pattern = heads[k]
            for c, t in chr_items:
                if any(t == u for _, _, u in used):
                    continue
                phi2 = match(pattern, norm[t], phi)
                if phi2 is None:
                    continue
                assign(k + 1, phi2, used + [(role, norm[t], t)])

        assign(0, {}, [])
    return out


def _apply(s: AbstractStore, rule: Rule, phi: Subst,
           used: list[tuple[str, Chr, int]]) -> RewriteStep:
    simp_tags = {t for role, _, t in used if role == "simplified"}
    items = [(c, t) for c, t in s.items if t not in simp_tags]
    tag = s.next_tag
    for b in rule.body:
        items.append((normalize_constraint(apply_subst(phi, b)), tag))
        tag += 1
    history = s.history
    if not rule.simplified:
        history = history | {(rule.name, tuple(sorted(t for _, _, t in used)))}
    result = AbstractStore(tuple(items), history, tag)
    return RewriteStep(
        rule=rule.name,
        phi=phi,
        propagated=tuple((c, t) for role, c, t in used if role == "propagated"),
        simplified=tuple((c, t) for role, c, t in used if role == "simplified"),
        result=result,
    )


def reference_state_key(s: AbstractStore) -> tuple:
    order = sorted(s.items, key=lambda it: (render_constraint(it[0]), it[1]))
    index = {t: k for k, (_, t) in enumerate(order)}
    hist = sorted(
        (r, tuple(index[t] for t in tags))
        for r, tags in s.history
        if all(t in index for t in tags)  # entries about removed instances are moot
    )
    return (tuple(render_constraint(c) for c, _ in order), tuple(hist))


def reference_final_stores(s: AbstractStore, p: Program,
                 max_states: int = 200_000,
                 max_depth: int = 200) -> set[tuple[str, ...]]:
    """All final stores reachable by exhaustive rule application, as canonical
    multisets.  Raises LimitExceeded when the bounds are hit: the caller must
    treat the oracle as unavailable, never as empty.
    """
    seen: set[tuple] = set()
    finals: set[tuple[str, ...]] = set()
    stack: list[tuple[AbstractStore, int]] = [(s, 0)]
    seen.add(reference_state_key(s))
    while stack:
        cur, depth = stack.pop()
        if depth > max_depth:
            raise LimitExceeded(f"depth bound {max_depth} exceeded")
        steps = reference_rewrite_steps(cur, p)
        if not steps:
            finals.add(canonical_multiset(cur.constraints()))
            continue
        for st in steps:
            key = reference_state_key(st.result)
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > max_states:
                raise LimitExceeded(f"state bound {max_states} exceeded")
            stack.append((st.result, depth + 1))
    return finals


def concurrent_compose_check(s: AbstractStore,
                             step1: tuple[Iterable[Constraint], object],
                             step2: tuple[Iterable[Constraint], object]) -> bool:
    """Whether two derivations from s compose concurrently: their simplified
    multisets must be disjoint sub-multisets of s."""
    pool = Counter(render_constraint(c) for c in s.constraints())
    h1 = Counter(render_constraint(c) for c in step1[0])
    h2 = Counter(render_constraint(c) for c in step2[0])
    combined = h1 + h2
    return all(combined[k] <= pool[k] for k in combined)


# ------------------------------------------------ scripted concurrent runs

def run_scripted_pair(program: Program, goals: Iterable[Constraint],
                      monkeypatch) -> concurrent.ConcurrentResult:
    """A concurrent run under a fixed two-worker schedule, in one thread.

    Worker 0 is the engine's own thread.  Each time it has found a match and
    is about to commit it, worker 1 takes the first pool goal whose next
    step fires a rule (activating a goal first if it is new) and executes
    that step; worker 0 then commits, or resumes its partner search if a
    head died.  Both scans started before either commit, so whenever both
    firings commit their intervals overlap.  Every step is one a second
    worker thread could take at that point, and nothing depends on the OS
    thread schedule: the same inputs always give the same trace.
    """
    engine = ConcurrentEngine(program, EngineConfig(workers=1))
    real_matches = concurrent.iter_matches
    pool = engine.pool.items
    nested = []

    def fires(nc: NumberedConstraint) -> bool:
        for m in real_matches(engine.store, nc, program):
            key = (m.rule.name, m.head_ids(nc.id))
            if m.role == "simplified" or key not in engine.history:
                return True
        return False

    def second_worker() -> None:
        for g in list(pool):
            if not isinstance(g, (Chr, NumberedConstraint)):
                continue
            pool.remove(g)
            local: deque = deque()
            if isinstance(g, Chr):
                engine._activate(g, local, 1)
                g = local.popleft()
            if not fires(g):
                pool.appendleft(g)
                continue
            engine._execute_numbered(g, local, 1)
            pool.extendleft(reversed(local))
            return

    def matches(store, goal, prog):
        for m in real_matches(store, goal, prog):
            if not nested:
                nested.append(goal)
                try:
                    second_worker()
                finally:
                    nested.pop()
            yield m

    monkeypatch.setattr(concurrent, "iter_matches", matches)
    return engine.run(goals)


def scripted_overlap(program: Program, goals, monkeypatch):
    """The first goal order, in itertools.permutations order, whose
    run_scripted_pair run commits two overlapping firings, with that run's
    result; None if no order does.  The schedule is fixed, so the search
    ends at the same order every time."""
    for order in itertools.permutations(goals):
        with monkeypatch.context() as mp:
            res = run_scripted_pair(program, order, mp)
        if overlapping_firing_pairs(res.trace):
            return order, res
    return None
