"""The goal loop of both goal engines, and the sequential engine.

Each iteration takes one goal and performs one derivation step:

  equation            -> Solve (store it, wake the affected constraints)
  plain constraint    -> Activate (fresh id, stored immediately)
  numbered goal       -> one rule firing (Simplify/Propagate) or Drop

A numbered goal c#i is its entry's id i; its step reads the entry's
current form from the store.

The step and the loop are written once, here, over one commit method;
this engine commits by a direct call, and a concurrent step is the same
step committed under the store lock.  Firings come from the firing core in
`matching`; propagation history is kept for pure propagation rules only.
Activation always stores immediately and every firing commits in the same
step that found it; late storage and continuation optimizations are
deliberately not implemented, since they are unsound once the same store is
shared with concurrent workers.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .abstract import HistoryKey, unwatched_instances
from .matching import Match, iter_matches
from .store import State
from .syntax import Program
from .terms import Chr, Constraint, Eq, normalize_constraint
from .trace import Step


class InvariantViolation(Exception):
    """An internal engine invariant failed (exit code 2 territory)."""


class _StepLimit(Exception):
    """The trace holds max_steps steps; the run stops."""


class _TickConflict(Exception):
    """A simplified id was propagated over after the scan started."""


class SequentialEngine:
    def __init__(self, program: Program, policy: str = "fifo",
                 max_steps: Optional[int] = None,
                 check_invariants: bool = False):
        if policy not in ("fifo", "lifo"):
            raise ValueError(f"unknown goal policy {policy!r}")
        if max_steps is not None and max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        self.program = program
        self.policy = policy
        self.max_steps = max_steps
        self.check_invariants = check_invariants
        self.state = State()
        self.trace: list[Step] = []  # the commit clock: a step's seq is its index
        self.history: set[HistoryKey] = set()
        self.status = "done"  # | failed | step-limit

    def _stop(self, status: str) -> None:
        self.status = status

    def _commit(self, effect, start: int, worker, item, goals: deque):
        """Stop at the step limit, number the step by its trace position,
        apply `effect(seq, worker, interval, item, goals)` (None: nothing
        mutated) and append the step.  A step with a worker is a concurrent
        commit and gets the interval (start, seq), `start` being the last
        seq its scan saw; a step without one gets none."""
        seq = len(self.trace)
        if self.max_steps is not None and seq >= self.max_steps:
            if self.status == "done":
                self._stop("step-limit")
            raise _StepLimit
        interval = None if worker is None else (start, seq)
        step = effect(seq, worker, interval, item, goals)
        if step is not None:
            # The append is the last write of every commit: a concurrent scan
            # reads its start, len(self.trace) - 1, without the lock, as the
            # last seq whose effects it can see.
            self.trace.append(step)
        return step

    def commit_firing(self, simp_ids, prop_ids, start_tick, history_key=None):
        """Record the firing's history key, kill its simplified set and
        return the commit tick (None: nothing mutated, never here)."""
        if history_key is not None:
            self.history.add(history_key)
        if simp_ids:
            self.state.store.kill(simp_ids)
        return len(self.trace)

    # ------------------------------------------------------------- steps
    # Each step is found outside the commit and made real by one of these
    # effects, which `_commit` calls with the step's seq, worker and interval.
    # They build their Step positionally: keywords make it about 14% dearer.

    def _activate(self, seq, worker, interval, c: Chr, goals: deque) -> Step:
        cid = self.state.store.insert(c)
        goals.appendleft(cid)  # executes next
        return Step(seq, "Activate", c, cid, None, {}, (), (), worker, interval)

    def _solve(self, seq, worker, interval, e: Eq, goals: deque) -> Step:
        store = self.state.store
        woken = store.add_equation(e)
        goals.extendleft(reversed(woken))  # ascending id order
        if store.inconsistent:
            self._stop("failed")
        return Step(seq, "Solve", e, None, None, {}, tuple(woken), (),
                    worker, interval)

    def _fire(self, seq, worker, interval, m: Match, goals: deque):
        start = None if interval is None else interval[0]
        if self.commit_firing(m.simp_ids, m.prop_ids, start, m.history_key) is None:
            return None
        goals.extendleft(reversed(m.continuation()))
        return m.step(seq, worker, interval)

    def _drop(self, seq, worker, interval, goal_id: int, goals: deque):
        goal = self.state.store.get(goal_id)  # the goal stays in the store
        if goal is None:
            return None  # simplified since the scan
        return Step(seq, "Drop", goal, goal_id, None, {}, (), (), worker,
                    interval)

    def step_activate(self, c: Chr, goals: deque, worker=None) -> Optional[Step]:
        return self._commit(self._activate, len(self.trace) - 1, worker, c, goals)

    def step_solve(self, e: Eq, goals: deque, worker=None) -> Optional[Step]:
        """Move the equation into the store; re-activate every constraint
        whose normal form it changes (they are the step's propagated set)."""
        return self._commit(self._solve, len(self.trace) - 1, worker, e, goals)

    def execute_goal(self, cid: int, goals: deque,
                     worker=None) -> Optional[Step]:
        """Fire the first match of the numbered goal cid whose instance is
        not in the propagation history, else drop it (it stays in the
        store).  A scan reads the goal's form once, after its start: None
        (stale) is no step."""
        store = self.state.store
        while True:
            start = len(self.trace) - 1  # the last seq the scan can see
            goal = store.get(cid)  # the current normal form, or None
            if goal is None:
                return None  # simplified while it waited
            try:
                for m in iter_matches(store, goal, cid, self.program):
                    if m.history_key in self.history:
                        continue  # fired already; a commit rechecks
                    step = self._commit(self._fire, start, worker, m, goals)
                    if step is not None:
                        return step
            except _TickConflict:
                continue  # a concurrent commit raced the scan
            return self._commit(self._drop, start, worker, cid, goals)

    # --------------------------------------------------------------- run

    def run_goals(self, goals: deque, worker=None, more=None) -> None:
        """The goal loop: step the front goal until the run stops or none is
        left; `more()`, if given, refills an empty `goals` (None: no goal)."""
        while self.status == "done":
            if goals:
                g = goals.popleft()
            elif more is None or (g := more()) is None:
                break
            try:
                if isinstance(g, int):
                    self.execute_goal(g, goals, worker)
                elif isinstance(g, Eq):
                    self.step_solve(g, goals, worker)
                else:
                    self.step_activate(g, goals, worker)
            except _StepLimit:
                goals.appendleft(g)  # it took no step
                break
            if self.check_invariants:
                self.assert_invariants()

    def load_goals(self, goals: Iterable[Constraint]) -> None:
        pending = self.state.goals
        add = pending.append if self.policy == "fifo" else pending.appendleft
        for g in goals:
            add(normalize_constraint(g))

    def run(self, goals: Iterable[Constraint]) -> SequentialEngine:
        """Run the goals; the engine returned holds the run's outcome."""
        self.load_goals(goals)
        self.run_goals(self.state.goals)
        return self

    # -------------------------------------------------------- invariants

    def assert_invariants(self) -> None:
        """Every rule-head instance in the store must contain at least one
        numbered constraint still in the goals (so it will eventually fire);
        instances recorded in the propagation history are already handled."""
        store = self.state.store
        pending = {g for g in self.state.goals if isinstance(g, int)}
        violations = unwatched_instances(store.live_items(), store.eqs(),
                                         self.history, pending, self.program)
        if violations:
            raise InvariantViolation(
                f"rule-head instance(s) with no active goal: {violations}")


def run_sequential(goals: Iterable[Constraint], program: Program,
                   policy: str = "fifo", max_steps: Optional[int] = None,
                   check_invariants: bool = False) -> SequentialEngine:
    engine = SequentialEngine(program, policy, max_steps, check_invariants)
    return engine.run(goals)
