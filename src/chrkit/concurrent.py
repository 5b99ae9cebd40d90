"""Multi-worker goal executor over one shared store.

Each worker repeatedly takes one goal and performs exactly one derivation
step against the shared store (single-step execution; goals are stored at
activation).  A firing found by scanning is only made real by an atomic
commit: under the store lock, every involved id is revalidated alive, and
the simplified ids must not have been propagated over by any firing that
committed after this scan began (the last-propagation-tick check).  The
second condition is what makes every pair of committed records whose
(start, commit) intervals overlap non-overlapping in the side-effect sense:
their simplified sets are disjoint from each other's propagated and
simplified sets.  An aborted commit mutated nothing; the worker resumes its
partner search, or rescans with a fresh start tick after a tick conflict.

What a firing does (step kind, side effect, propagation-history key, kept
only for pure propagation rules, and the goals it pushes) comes from the
firing core in `matching` that the sequential engine uses too, so a
concurrent goal step is a sequential one made real by the commit.

Solve (equation insertion plus wake-up) runs in one store-lock critical
section, serialized against all commits, and the woken ids are recorded as
propagated at the solve's commit tick.  The step limit is checked under the
store lock before a step commits, so a run records at most max_steps steps.
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

    def push_many(self, items: Iterable) -> None:
        with self.cond:
            self.items.extend(items)
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
        if not program.occurrences and program.rules:
            raise ValueError("program was not compiled (no occurrence table)")
        self.program = program
        self.cfg = cfg
        self.store = Store()
        rng = random.Random(cfg.seed) if cfg.workers > 1 else None
        self.pool = _Pool(cfg.workers, rng)
        self.trace: list[Step] = []  # appended under the store lock: seq order
        self.history: set[HistoryKey] = set()
        self.last_prop_tick: dict[int, int] = {}
        self._tick = 0
        self._tick_lock = threading.Lock()
        self.status = "done"
        self._crashed: Optional[BaseException] = None

    # ------------------------------------------------------------- ticks

    def _next_tick(self) -> int:
        with self._tick_lock:
            self._tick += 1
            return self._tick

    def _stop(self, status: str) -> None:
        self.status = status
        self.pool.stop()

    # ----------------------------------------------------------- commits

    def commit_firing(self, simp_ids: tuple[int, ...],
                      prop_ids: tuple[int, ...], start_tick: int,
                      history_key: Optional[HistoryKey] = None) -> Optional[int]:
        """Atomically: revalidate every involved id alive, refuse simplified
        ids propagated over since start_tick, then kill the simplified set.
        Returns the commit tick, or None if nothing was mutated.  Raises
        _TickConflict when the scan must restart with a fresh start tick.
        """
        store = self.store
        with store.lock:
            if store.inconsistent:
                return None  # the run is failing; nothing may fire after that
            if not all(store.alive(i) for i in simp_ids + prop_ids):
                return None  # lost race: some head died under us
            for i in simp_ids:
                if self.last_prop_tick.get(i, 0) >= start_tick:
                    raise _TickConflict
            if history_key is not None:
                if history_key in self.history:
                    return None  # another worker fired this instance first
                self.history.add(history_key)
            tick = self._next_tick()
            for i in prop_ids:
                self.last_prop_tick[i] = tick
            if simp_ids:
                store.kill(simp_ids)
            return tick

    def _at_limit(self, goal) -> bool:
        """Called with the store lock held, before a step commits: once the
        trace holds max_steps steps, put the goal back and stop the run."""
        limit = self.cfg.max_steps
        if limit is None or len(self.trace) < limit:
            return False
        if self.status == "done":
            self._stop("step-limit")
        self.pool.push_many([goal])
        return True

    # ------------------------------------------------------------- steps

    def _activate(self, c: Chr, local: deque, worker: int) -> None:
        start = self._next_tick()
        with self.store.lock:
            if self._at_limit(c):
                return
            nc = self.store.insert(c)
            tick = self._next_tick()
            self.trace.append(Step(tick, "Activate", c, nc.id, worker=worker,
                                   interval=(start, tick)))
        local.appendleft(nc)

    def solve_serialized(self, e: Eq, worker: int) -> None:
        """Equation insertion plus wake-up as one critical section against
        all commits; woken constraints are this step's propagated set."""
        start = self._next_tick()
        with self.store.lock:
            if self._at_limit(e):
                return
            woken = self.store.add_equation(e)
            tick = self._next_tick()
            woken_ids = tuple(nc.id for nc in woken)
            for i in woken_ids:
                self.last_prop_tick[i] = tick
            self.trace.append(Step(tick, "Solve", e, prop_ids=woken_ids,
                                   worker=worker, interval=(start, tick)))
            if self.store.inconsistent:
                self._stop("failed")
        if woken:
            self.pool.push_many(woken)

    def _execute_numbered(self, goal: NumberedConstraint, local: deque,
                          worker: int) -> None:
        store = self.store
        while True:
            if not store.alive(goal.id):
                return  # stale goal: discarded on dequeue, no trace step
            goal = store.get(goal.id)
            start = self._next_tick()
            try:
                if self._try_fire(goal, local, worker, start):
                    return
            except _TickConflict:
                continue  # a concurrent commit raced us; rescan afresh
            # no occurrence fired: Drop (the goal stays in the store)
            with store.lock:
                if store.alive(goal.id) and not self._at_limit(goal):
                    tick = self._next_tick()
                    now = store.get(goal.id).constraint
                    self.trace.append(Step(tick, "Drop", now, goal.id,
                                           worker=worker,
                                           interval=(start, tick)))
            return

    def _try_fire(self, goal: NumberedConstraint, local: deque, worker: int,
                  start: int) -> bool:
        for m in iter_matches(self.store, goal, self.program):
            key = m.history_key
            if key in self.history:
                continue  # dirty check; the commit rechecks atomically
            with self.store.lock:
                if self._at_limit(goal):
                    return True  # the goal went back to the pool
                tick = self.commit_firing(m.simp_ids, m.prop_ids, start, key)
                if tick is None:
                    continue  # aborted: resume the partner search
                self.trace.append(m.step(tick, worker, (start, tick)))
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
                if local:
                    g = local.popleft()
                else:
                    g = self.pool.pop()
                    if g is None:
                        break
                if isinstance(g, NumberedConstraint):
                    self._execute_numbered(g, local, wid)
                elif isinstance(g, Eq):
                    self.solve_serialized(g, wid)
                else:
                    self._activate(g, local, wid)
        except BaseException as exc:  # propagate to the main thread
            self._crashed = exc
            self._stop("failed")
        finally:
            if local:
                self.pool.push_many(local)

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


class _TickConflict(Exception):
    """A simplified id was propagated over after the scan started."""


def run_concurrent(goals: Iterable[Constraint], program: Program,
                   cfg: Optional[EngineConfig] = None) -> RunResult:
    engine = ConcurrentEngine(program, cfg or EngineConfig())
    return engine.run(goals)

