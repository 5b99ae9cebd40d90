"""Sequential goal-based interpreter.

Each iteration takes one goal and performs one derivation step:

  equation            -> Solve (store it, wake the affected constraints)
  plain constraint    -> Activate (fresh id, stored immediately)
  numbered constraint -> one rule firing (Simplify/Propagate) or Drop

Firings come from the firing core in `matching`, shared with the concurrent
engine; propagation history is kept for pure propagation rules only.
Activation always stores immediately and every firing commits in the same
step that found it; late storage and continuation optimizations are
deliberately not implemented, since they are unsound once the same store is
shared with concurrent workers.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .abstract import AbstractStore, HistoryKey, rewrite_steps
from .matching import RunResult, iter_matches
from .store import NumberedConstraint, State
from .syntax import Program
from .terms import Chr, Constraint, Eq, normalize_constraint
from .trace import Step


class InvariantViolation(Exception):
    """An internal engine invariant failed (exit code 2 territory)."""


class SequentialEngine:
    def __init__(self, program: Program, policy: str = "fifo",
                 max_steps: Optional[int] = None,
                 check_invariants: bool = False):
        if policy not in ("fifo", "lifo"):
            raise ValueError(f"unknown goal policy {policy!r}")
        self.program = program
        self.policy = policy
        self.max_steps = max_steps
        self.check_invariants = check_invariants
        self.state = State()
        self.trace: list[Step] = []
        self.history: set[HistoryKey] = set()

    # ------------------------------------------------------------- steps

    def _emit(self, step: Step) -> Step:
        self.trace.append(step)  # seq numbers are trace positions
        return step

    def step_solve(self, e: Eq) -> Step:
        """Move the equation into the store; re-activate every constraint
        whose normal form it changes (they are the step's propagated set)."""
        woken = self.state.store.add_equation(e)
        self.state.goals.extendleft(reversed(woken))  # ascending id order
        return self._emit(Step(len(self.trace), "Solve", e,
                               prop_ids=tuple(nc.id for nc in woken)))

    def step_activate(self, c: Chr) -> Step:
        nc = self.state.store.insert(c)
        self.state.goals.appendleft(nc)  # executes next
        return self._emit(Step(len(self.trace), "Activate", c, nc.id))

    def execute_goal(self, goal: NumberedConstraint) -> Step:
        """Fire the goal's first match whose instance is not in the
        propagation history; no such match drops the goal (it stays in the
        store)."""
        store = self.state.store
        goal = store.get(goal.id)  # refresh to the current normal form
        for m in iter_matches(store, goal, self.program):
            key = m.history_key
            if key in self.history:
                continue
            if key is not None:
                self.history.add(key)
            store.kill(m.simp_ids)
            self.state.goals.extendleft(reversed(m.continuation()))
            return self._emit(m.step(len(self.trace)))
        return self._emit(Step(len(self.trace), "Drop", goal.constraint,
                               goal.id))

    # --------------------------------------------------------------- run

    def load_goals(self, goals: Iterable[Constraint]) -> None:
        for g in goals:
            g = normalize_constraint(g)
            if self.policy == "fifo":
                self.state.goals.append(g)
            else:
                self.state.goals.appendleft(g)

    def run(self, goals: Iterable[Constraint]) -> RunResult:
        self.load_goals(goals)
        status = "done"
        while self.state.goals:
            if self.max_steps is not None and len(self.trace) >= self.max_steps:
                status = "step-limit"
                break
            g = self.state.goals.popleft()
            if isinstance(g, NumberedConstraint):
                if not self.state.store.alive(g.id):
                    continue  # stale: simplified while waiting after a wake-up
                self.execute_goal(g)
            elif isinstance(g, Eq):
                self.step_solve(g)
                if self.state.store.inconsistent:
                    status = "failed"
                    break
            else:
                self.step_activate(g)
            if self.check_invariants:
                self.assert_invariants()
        return RunResult(self.state, self.trace, self.history, status)

    # -------------------------------------------------------- invariants

    def assert_invariants(self) -> None:
        """Every rule-head instance in the store must contain at least one
        numbered constraint still in the goals (so it will eventually fire);
        instances recorded in the propagation history are already handled."""
        violations = active_instance_violations(
            self.state, self.program, self.history)
        if violations:
            raise InvariantViolation(
                f"rule-head instance(s) with no active goal: {violations}")


def active_instance_violations(state: State, program: Program,
                               history: set[HistoryKey]) -> list[tuple[str, tuple[int, ...]]]:
    """Brute-force enumeration of rule-head instances (Simplify/Propagate
    premises) over the live store; returns those with no member in goals."""
    store = state.store
    if store.inconsistent:
        return []
    items = [(nc.constraint, nc.id) for nc in store.live_items()]
    s = AbstractStore.from_identified(items, store.eqs(), history)
    pending = {g.id for g in state.goals
               if isinstance(g, NumberedConstraint) and store.alive(g.id)}
    bad = []
    for step in rewrite_steps(s, program):
        tags = set(step.used_tags)  # head instances are CHR constraints: tags are ids
        if tags and not (tags & pending):
            bad.append((step.rule, tuple(sorted(tags))))
    return bad


def run_sequential(goals: Iterable[Constraint], program: Program,
                   policy: str = "fifo", max_steps: Optional[int] = None,
                   check_invariants: bool = False) -> RunResult:
    engine = SequentialEngine(program, policy, max_steps, check_invariants)
    return engine.run(goals)
