"""The firing core of the goal loop that both goal engines run.

`iter_matches` is the lazy partner search around one active goal:
occurrences are tried top-to-bottom, partners are looked up via the store
indexes in the compiled join order, and the guard is tested against the
store's solved equations `Store.theta` as soon as all of its variables are
bound.  A `Match` carries the firing's side-effect ids and says what else
the firing does (its kind, history key, trace step and the goals it
pushes), worked out only when asked for.  There is one goal loop, in
`sequential`; the engines differ only in how a step is committed, and a
concurrent step is the sequential step committed under the store lock.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .abstract import HistoryKey
from .store import GoalItem, NumberedConstraint, State, Store
from .syntax import Occurrence, Program, Rule
from .terms import Subst, holds, instantiate, match
from .terms import entails  # noqa: F401  (bench/instrument.py counts it here)
from .trace import Step


@dataclass(frozen=True)
class Match:
    goal: NumberedConstraint  # the active goal, in its matching view
    occurrence: Occurrence
    rule: Rule
    phi: Subst
    prop_ids: tuple[int, ...]  # the side effect, sorted: kept heads' ids
    simp_ids: tuple[int, ...]  # and removed heads' ids, the goal's among them

    @property
    def kind(self) -> str:
        """Simplify if the goal matched a removed head, else Propagate."""
        return "Simplify" if self.occurrence.role == "simplified" else "Propagate"

    @property
    def history_key(self) -> Optional[HistoryKey]:
        """The instance's propagation-history entry, for a pure propagation
        rule only.  Any other firing removes one of its heads, so the same
        instance can never match again; the oracle ignores such keys too."""
        if self.rule.simplified:
            return None
        return (self.rule.name, self.prop_ids)

    def step(self, seq: int, worker: Optional[int] = None,
             interval: Optional[tuple[int, int]] = None) -> Step:
        return Step(seq, self.kind, self.goal.constraint, self.goal.id,
                    self.rule.name, self.phi, self.prop_ids, self.simp_ids,
                    worker, interval)

    def continuation(self) -> list[GoalItem]:
        """The goals the firing pushes, front first: the body under phi, left
        to right (depth-first), then, after a Propagate, the goal itself."""
        goals: list[GoalItem] = [instantiate(self.phi, b) for b in self.rule.body]
        if self.kind == "Propagate":
            goals.append(self.goal)
        return goals


@dataclass
class RunResult:
    """A goal-engine run; the trace is the committed steps in seq order, with
    worker and interval set on the concurrent engine's."""

    state: State
    trace: list[Step]
    history: set[HistoryKey]
    status: str  # done | failed | step-limit


def iter_matches(store: Store, goal: NumberedConstraint,
                 program: Program) -> Iterator[Match]:
    """Complete rule-head matches containing the goal, in deterministic
    order: occurrence-major, then per join position in `Store.candidates`
    order (ascending ids, except that a bucket scan lists an entry woken by
    an equation after the entries indexed before that wake-up).  Liveness
    is only a snapshot; committing a match revalidates it.
    """
    # add_equation assigns a fresh theta under the store lock and nothing
    # mutates it afterwards, so this unlocked read is a consistent snapshot
    theta = store.theta
    if theta is None:
        return  # an inconsistent store entails no guard
    for occ in program.occurrences.get(goal.constraint.pred, ()):
        rule = program.rules[occ.rule_index]
        phi0 = match(occ.pattern, goal.constraint, {})
        if phi0 is None:
            continue
        guard_done = occ.guard_at == 0
        if guard_done and not holds(theta, phi0, rule.guard):
            continue
        own = (goal.id,)
        props, simps = ((), own) if occ.role == "simplified" else (own, ())
        yield from _search(store, goal, occ, rule, theta, 0, phi0, props,
                           simps, guard_done)


def _search(store: Store, goal: NumberedConstraint, occ: Occurrence,
            rule: Rule, theta: Subst, k: int, phi: Subst, props: tuple[int, ...],
            simps: tuple[int, ...], guard_done: bool) -> Iterator[Match]:
    if k == len(occ.partners):
        if guard_done or holds(theta, phi, rule.guard):
            yield Match(goal, occ, rule, phi, tuple(sorted(props)),
                        tuple(sorted(simps)))
        return
    entry = occ.partners[k]
    for nc in store.candidates(phi, entry.pattern):
        if nc.id in props or nc.id in simps:
            continue  # injective: distinct store elements per head position
        phi2 = match(entry.pattern, nc.constraint, phi)
        if phi2 is None:
            continue
        done2 = guard_done
        if not done2 and k + 1 >= occ.guard_at:
            if not holds(theta, phi2, rule.guard):
                continue  # early guard scheduling prunes this branch
            done2 = True
        next_props = props + (nc.id,) if entry.role == "propagated" else props
        next_simps = simps + (nc.id,) if entry.role == "simplified" else simps
        yield from _search(store, goal, occ, rule, theta, k + 1, phi2,
                           next_props, next_simps, done2)
