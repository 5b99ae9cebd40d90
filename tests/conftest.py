from __future__ import annotations

import itertools
import sys
from collections import Counter, deque
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

import pytest

import chrkit.sequential as sequential
from chrkit.abstract import AbstractStore, LimitExceeded, unwatched_instances
from chrkit.concurrent import ConcurrentEngine, EngineConfig
from chrkit.matching import iter_matches
from chrkit.store import NumberedConstraint, State, Store
from chrkit.syntax import (ParseError, Program, Rule, Token, load_program,
                           parse_goals)
from chrkit.terms import (Chr, Constraint, Eq, Subst, Var, apply_subst,
                          entails, match, mgu, normalize_constraint,
                          render_constraint, render_term)
from chrkit.trace import Step

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


def unstamped(step: Step) -> Step:
    """A copy of the step without the worker and interval that a concurrent
    commit carries."""
    return Step(step.seq, step.kind, step.goal, step.goal_id, step.rule,
                step.phi, step.prop_ids, step.simp_ids)


def overlapping_firing_pairs(trace) -> int:
    """How many pairs of committed rule firings genuinely overlapped in time
    (shows the overlap audit is not vacuous)."""
    firings = [r for r in trace if r.kind in ("Simplify", "Propagate")]
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


def canonical(store) -> tuple[str, ...]:
    """A store as a multiset, ids dropped: the sorted rendered constraints
    of an engine `Store` (its alive entries and equations), of an
    `AbstractStore`, or of constraints."""
    if isinstance(store, Store):
        store = [nc.constraint for nc in store.live_items()] + [*store.eqs()]
    elif isinstance(store, AbstractStore):
        store = store.constraints()
    return tuple(sorted(map(render_constraint, store)))


def leftover(state: State, program: Program, history=()) -> list:
    """What keeps a finished engine state from being final, as the oracle
    sees it: its pending goals, then the abstract rewrites of its visible
    store beyond the propagation instances in `history`, as (rule, head
    ids).  Empty when the state is final.  The verifier's check-final asks
    the same question of a replayed store with its own search, which
    test_finality_search.py checks against the oracle's."""
    items = [(nc.constraint, nc.id) for nc in state.store.live_items()]
    return [*state.goals, *unwatched_instances(
        items, state.store.eqs(), history, frozenset(), program)]


def canonical_modulo_equations(cs: Iterable[Constraint]) -> tuple[str, ...]:
    """A store as an answer modulo the equation theory, for stores whose
    equations differ in form but not in meaning (`u=1` next to `u=w,w=1`
    against a second `1=1`).  Inconsistent equations give one `false`
    marker.  Otherwise the solved form of the m.g.u. names each class of
    variables bound to each other by its smallest variable name; the result
    is the CHR constraints under it, normalized and sorted, then its sorted
    non-identity bindings."""
    cs = list(cs)
    theta = mgu([c for c in cs if isinstance(c, Eq)])
    if theta is None:
        return ("false",)
    classes: dict[str, list[str]] = {}
    for x, t in theta.items():
        if isinstance(t, Var):
            classes.setdefault(t.name, [t.name]).append(x)
    rename = {v: Var(min(members))
              for members in classes.values() for v in members}
    solved = {x: apply_subst(rename, t) for x, t in theta.items()}
    solved.update(rename)
    chrs = sorted(
        render_constraint(normalize_constraint(apply_subst(solved, c)))
        for c in cs if isinstance(c, Chr))
    bindings = sorted(f"{x}={render_term(t)}" for x, t in solved.items()
                      if t != Var(x))
    return tuple(chrs + bindings)


def brute_force_woken(items: Iterable[NumberedConstraint], phi: Subst,
                      theta: Optional[Subst]) -> list[int]:
    """The wake-up rule by brute force, over the whole store: the ids of the
    (raw, alive) items whose form under the old m.g.u. phi differs from
    their form under the new one theta; none when theta is None (the
    equations became unsatisfiable)."""
    if theta is None:
        return []
    return [nc.id for nc in items
            if apply_subst(phi, nc.constraint) != apply_subst(theta, nc.constraint)]


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


# ------------------------------------------------------ reference lexer
#
# The lexer as it was before it became one compiled regular expression,
# scanning a character at a time.  The differential test in test_syntax.py
# checks chrkit.syntax.lex against it.

REFERENCE_SYMBOLS = ["<=>", "==>", "==", "!=", ">=", "<=", "&&", "||", "@",
                     "(", ")", ",", ".", "\\", "|", "=", "<", ">", "+", "-", "*"]


def reference_lex(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        l0, c0 = line, col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], l0, c0))
            advance(j - i)
            continue
        if ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 1
            if j >= n:
                raise ParseError("unterminated atom", l0, c0)
            atom = text[i + 1:j]
            bad = next((c for c in atom if c.isspace() or c == ";"), None)
            if bad is not None:
                raise ParseError(f"atom may not contain {bad!r}", l0, c0)
            toks.append(Token("atom", atom, l0, c0))
            advance(j - i + 1)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "uident" if word[0].isupper() else "lident"
            toks.append(Token(kind, word, l0, c0))
            advance(j - i)
            continue
        for sym in REFERENCE_SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, l0, c0))
                advance(len(sym))
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", l0, c0)
    toks.append(Token("eof", "", line, col))
    return toks


# ------------------------------------------- brute-force oracle reference
#
# The abstract search as it was before its rendered forms were cached, its
# equations solved once per state and its guards tested early.  The
# differential tests check chrkit.abstract against it.

class ReferenceStep(NamedTuple):
    rule: str
    phi: Subst
    propagated: tuple[tuple[Chr, int], ...]
    simplified: tuple[tuple[Chr, int], ...]
    result: AbstractStore

    @property
    def used_tags(self) -> tuple[int, ...]:
        return tuple(sorted(t for _, t in self.propagated + self.simplified))


def _theta_norm(theta: Subst, c: Constraint) -> Constraint:
    return normalize_constraint(apply_subst(theta, c))


def reference_rewrite_steps(s: AbstractStore, p: Program) -> list[ReferenceStep]:
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
    out: list[ReferenceStep] = []

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
           used: list[tuple[str, Chr, int]]) -> ReferenceStep:
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
    return ReferenceStep(
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
                 max_depth: int = 200,
                 rewrite_steps=reference_rewrite_steps) -> set[tuple[str, ...]]:
    """All final stores reachable by exhaustive rule application, as canonical
    multisets.  Raises LimitExceeded when the bounds are hit: the caller must
    treat the oracle as unavailable, never as empty.  `rewrite_steps` expands
    a store (a caller may pass a memo of reference_rewrite_steps).
    """
    seen: set[tuple] = set()
    finals: set[tuple[str, ...]] = set()
    stack: list[tuple[AbstractStore, int]] = [(s, 0)]
    seen.add(reference_state_key(s))
    while stack:
        cur, depth = stack.pop()
        if depth > max_depth:
            raise LimitExceeded(f"depth bound {max_depth} exceeded")
        steps = rewrite_steps(cur, p)
        if not steps:
            finals.add(canonical(cur))
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
                      monkeypatch) -> ConcurrentEngine:
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
    real_matches = sequential.iter_matches
    pool = engine.pool.items
    nested = []

    def fires(nc: NumberedConstraint) -> bool:
        return any(m.history_key not in engine.history
                   for m in real_matches(engine.store, nc, program))

    def second_worker() -> None:
        for g in list(pool):
            if not isinstance(g, (Chr, NumberedConstraint)):
                continue
            pool.remove(g)
            local: deque = deque()
            if isinstance(g, Chr):
                engine.step_activate(g, local, 1)
                g = local.popleft()
            if not fires(g):
                pool.appendleft(g)
                continue
            engine.execute_goal(g, local, 1)
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

    monkeypatch.setattr(sequential, "iter_matches", matches)
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


# ------------------------------------------------ rejected engine variants

# Test-only executors reproducing the classic pitfalls of naive concurrent
# goal execution.  Each runs its logical threads in deterministic lockstep
# rounds: every thread picks its next step against the round-start view,
# then all effects are applied in thread order.  The shipped engine avoids
# all three by storing at activation, sharing one store, and committing
# single steps.

PITFALL_VARIANTS = ("store_on_drop", "split_store", "multi_step")


def run_pitfall_variant(goals_per_thread: list[list[Constraint]],
                        program: Program, variant: str) -> State:
    if variant not in PITFALL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    queues = [deque(normalize_constraint(g) for g in gs)
              for gs in goals_per_thread]
    n = len(queues)
    entries: dict[int, Chr] = {}  # the real (union) store
    visible: list[dict[int, Chr]] = [entries for _ in range(n)]
    if variant == "split_store":
        visible = [{} for _ in range(n)]
    next_id = 1

    def scan(view: dict[int, Chr], nc: NumberedConstraint):
        temp = Store()
        remap: dict[int, int] = {}
        for cid in sorted(view):
            got = temp.insert(view[cid])
            remap[got.id] = cid
        mine = temp.insert(nc.constraint)
        remap[mine.id] = nc.id
        for m in iter_matches(temp, mine, program):
            kill = [remap[i] for i in m.simp_ids]
            body = [normalize_constraint(apply_subst(m.phi, b))
                    for b in m.rule.body]
            return kill, body, m.kind
        return None

    while any(queues):
        # decision phase: every thread inspects the round-start view
        plans = []
        for t in range(n):
            if not queues[t]:
                plans.append(None)
                continue
            steps = 2 if variant == "multi_step" else 1
            view = dict(visible[t])
            acts = []
            for _ in range(steps):
                if not queues[t]:
                    break
                g = queues[t].popleft()
                if isinstance(g, Chr):
                    nc = NumberedConstraint(g, next_id)
                    next_id += 1
                    if variant != "store_on_drop":
                        view[nc.id] = nc.constraint
                        acts.append(("store", nc))
                    queues[t].appendleft(nc)
                elif isinstance(g, NumberedConstraint):
                    found = scan(view, g)
                    if found is None:
                        acts.append(("drop", g))
                        view[g.id] = g.constraint  # visible once dropped/stored
                    else:
                        kill, body, kind = found
                        for cid in kill:
                            view.pop(cid, None)
                        acts.append(("fire", g, kill, body, kind))
                else:
                    raise ValueError("equations are not supported in pitfall runs")
            plans.append(acts)
        # apply phase, thread order
        for t, acts in enumerate(plans):
            if not acts:
                continue
            for act in acts:
                if act[0] == "store":
                    visible[t][act[1].id] = act[1].constraint
                    if variant == "split_store":
                        entries[act[1].id] = act[1].constraint
                elif act[0] == "drop":
                    visible[t][act[1].id] = act[1].constraint
                    entries[act[1].id] = act[1].constraint
                else:
                    _, g, kill, body, kind = act
                    if any(cid not in entries and cid != g.id for cid in kill):
                        queues[t].appendleft(g)  # lost the round; retry
                        continue
                    for cid in kill:
                        entries.pop(cid, None)
                        visible[t].pop(cid, None)
                    if kind == "Propagate":
                        queues[t].appendleft(g)
                    for b in reversed(body):
                        queues[t].appendleft(b)

    final = Store()
    order = sorted(entries)
    for cid in order:
        final.insert(entries[cid])
    return State(goals=deque(), store=final)
