"""Multi-worker goal executor over one shared store.

Each worker repeatedly takes one goal and performs exactly one derivation
step against the shared store (single-step execution; goals are stored at
activation).  Every step commits in one store-lock section that checks the
step limit, numbers the step by its position in the trace, applies it and
appends it, so the trace is the engine's only clock: a step's seq is its
commit tick, as in the sequential engine, and a scan's start is the last
seq it can see.  A firing found by scanning is made real only by that
commit: every involved id is revalidated alive, and the simplified ids must
not have been propagated over by a step that committed after the scan's
start (the last-propagation-tick check).  The second condition is what
makes every pair of committed records whose (start, commit) intervals
overlap non-overlapping in the side-effect sense: their simplified sets are
disjoint from each other's propagated and simplified sets.  An aborted
commit mutated nothing; the worker resumes its partner search, or rescans
from a fresh start after a tick conflict.

What a firing does (step kind, side effect, propagation-history key, kept
only for pure propagation rules, and the goals it pushes) comes from the
firing core in `matching` that the sequential engine uses too.  Activated,
pushed and woken goals go to the front of the worker's own goals, where the
sequential engine puts them, so a one-worker run is the sequential
derivation step for step.  A Solve's woken ids are its propagated set.
"""
from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .abstract import HistoryKey
from .matching import RunResult, iter_matches
from .store import NumberedConstraint, State, Store
from .syntax import Program
from .terms import Chr, Constraint, Eq, normalize_constraint
from .trace import Step


@dataclass
class EngineConfig:
    workers: int = 1
    seed: int = 0
    max_steps: Optional[int] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")


class _Pool:
    """FIFO goal pool with seeded dequeue jitter (workers > 1 only) and a
    quiescence barrier: the run is over when every worker is idle and the
    pool is empty, both checked in one critical section."""

    def __init__(self, workers: int, rng: Optional[random.Random]):
        self.cond = threading.Condition()
        self.items: deque = deque()
        self.idle = 0
        self.workers = workers
        self.stopped = False
        self.rng = rng

    def push_front(self, items: deque) -> None:
        """A stopping worker's own goals go back in front of the pool,
        where the sequential engine would still hold them."""
        with self.cond:
            self.items.extendleft(reversed(items))
            self.cond.notify_all()

    def pop(self):
        with self.cond:
            while True:
                if self.stopped:
                    return None
                if self.items:
                    if self.rng is not None and len(self.items) > 1:
                        k = self.rng.randrange(min(len(self.items), 4))
                        self.items.rotate(-k)
                        item = self.items.popleft()
                        self.items.rotate(k)
                    else:
                        item = self.items.popleft()
                    return item
                self.idle += 1
                if self.idle == self.workers:
                    self.stopped = True  # all idle, pool empty: quiescent
                    self.cond.notify_all()
                    self.idle -= 1
                    return None
                self.cond.wait()
                self.idle -= 1

    def stop(self) -> None:
        with self.cond:
            self.stopped = True
            self.cond.notify_all()


class ConcurrentEngine:
    def __init__(self, program: Program, cfg: EngineConfig):
        self.program = program
        self.cfg = cfg
        self.store = Store()
        rng = random.Random(cfg.seed) if cfg.workers > 1 else None
        self.pool = _Pool(cfg.workers, rng)
        self.trace: list[Step] = []  # the commit clock: a step's seq is its index
        self.history: set[HistoryKey] = set()
        self.last_prop_tick: dict[int, int] = {}
        self.status = "done"
        self._crashed: Optional[BaseException] = None

    def _stop(self, status: str) -> None:
        self.status = status
        self.pool.stop()

    # ----------------------------------------------------------- commits

    def _commit(self, start: int, worker: int, effect) -> Optional[Step]:
        """The commit section of every step.  Under the store lock: stop at
        the step limit, number the step by its trace position, apply its
        effect (`effect(seq, worker, interval)` mutates the store and returns
        the step, or None having mutated nothing), mark the step as the last
        propagation over its prop_ids, and append it."""
        with self.store.lock:
            limit = self.cfg.max_steps
            if limit is not None and len(self.trace) >= limit:
                if self.status == "done":
                    self._stop("step-limit")
                raise _StepLimit
            seq = len(self.trace)
            step = effect(seq, worker, (start, seq))
            if step is not None:
                for i in step.prop_ids:
                    self.last_prop_tick[i] = seq
                # The append is the last write of every commit: a scan reads
                # its start, len(self.trace) - 1, without the lock, as the
                # last seq whose effects it can see.
                self.trace.append(step)
            return step

    def commit_firing(self, simp_ids: tuple[int, ...],
                      prop_ids: tuple[int, ...], start_tick: int,
                      history_key: Optional[HistoryKey] = None) -> Optional[int]:
        """Atomically: revalidate every involved id alive, refuse simplified
        ids propagated over after start_tick (the last seq the scan saw),
        then kill the simplified set.  Returns the commit tick, or None if
        nothing was mutated.  Raises _TickConflict when the scan must
        restart from a fresh start.
        """
        store = self.store
        with store.lock:
            if store.inconsistent:
                return None  # the run is failing; nothing may fire after that
            if not all(store.alive(i) for i in simp_ids + prop_ids):
                return None  # lost race: some head died under us
            for i in simp_ids:
                if self.last_prop_tick.get(i, -1) > start_tick:
                    raise _TickConflict
            if history_key is not None:
                if history_key in self.history:
                    return None  # another worker fired this instance first
                self.history.add(history_key)
            if simp_ids:
                store.kill(simp_ids)
            return len(self.trace)

    # ------------------------------------------------------------- steps

    def _activate(self, c: Chr, local: deque, worker: int) -> None:
        def activate(seq, worker, interval):
            nc = self.store.insert(c)
            local.appendleft(nc)  # executes next
            return Step(seq, "Activate", c, nc.id, worker=worker,
                        interval=interval)
        self._commit(len(self.trace) - 1, worker, activate)

    def _solve(self, e: Eq, local: deque, worker: int) -> None:
        """Equation insertion plus wake-up as one commit; the woken
        constraints are this step's propagated set and execute next."""
        def solve(seq, worker, interval):
            woken = self.store.add_equation(e)
            local.extendleft(reversed(woken))  # ascending id order
            if self.store.inconsistent:
                self._stop("failed")
            return Step(seq, "Solve", e, prop_ids=tuple(nc.id for nc in woken),
                        worker=worker, interval=interval)
        self._commit(len(self.trace) - 1, worker, solve)

    def _execute_numbered(self, goal: NumberedConstraint, local: deque,
                          worker: int) -> None:
        store = self.store
        while True:
            if not store.alive(goal.id):
                return  # stale goal: discarded on dequeue, no trace step
            start = len(self.trace) - 1
            goal = store.get(goal.id)
            try:
                if self._try_fire(goal, local, worker, start):
                    return
            except _TickConflict:
                continue  # a concurrent commit raced us; rescan afresh
            break

        def drop(seq, worker, interval):  # the goal stays in the store
            if not store.alive(goal.id):
                return None
            return Step(seq, "Drop", store.get(goal.id).constraint, goal.id,
                        worker=worker, interval=interval)
        self._commit(start, worker, drop)

    def _try_fire(self, goal: NumberedConstraint, local: deque, worker: int,
                  start: int) -> bool:
        for m in iter_matches(self.store, goal, self.program):
            if m.history_key in self.history:
                continue  # dirty check; the commit rechecks atomically

            def fire(seq, worker, interval, m=m):
                tick = self.commit_firing(m.simp_ids, m.prop_ids, start,
                                          m.history_key)
                return None if tick is None else m.step(seq, worker, interval)
            if self._commit(start, worker, fire) is not None:
                local.extendleft(reversed(m.continuation()))
                return True
        return False

    # --------------------------------------------------------------- run

    def _worker(self, wid: int) -> None:
        local: deque = deque()
        try:
            while True:
                if self.pool.stopped and self.status != "done":
                    break
                g = local.popleft() if local else self.pool.pop()
                if g is None:
                    break
                try:
                    if isinstance(g, NumberedConstraint):
                        self._execute_numbered(g, local, wid)
                    elif isinstance(g, Eq):
                        self._solve(g, local, wid)
                    else:
                        self._activate(g, local, wid)
                except _StepLimit:
                    local.appendleft(g)  # it did not step; back to the pool
                    break
        except BaseException as exc:  # propagate to the main thread
            self._crashed = exc
            self._stop("failed")
        finally:
            if local:
                self.pool.push_front(local)

    def run(self, goals: Iterable[Constraint]) -> RunResult:
        self.pool.items.extend(normalize_constraint(g) for g in goals)
        threads = [threading.Thread(target=self._worker, args=(w,), daemon=True)
                   for w in range(self.cfg.workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self._crashed is not None:
            raise self._crashed
        state = State(goals=deque(self.pool.items), store=self.store)
        return RunResult(state, self.trace, self.history, self.status)


class _StepLimit(Exception):
    """The trace holds max_steps steps; the run stops."""


class _TickConflict(Exception):
    """A simplified id was propagated over after the scan started."""


def run_concurrent(goals: Iterable[Constraint], program: Program,
                   cfg: Optional[EngineConfig] = None) -> RunResult:
    engine = ConcurrentEngine(program, cfg or EngineConfig())
    return engine.run(goals)

