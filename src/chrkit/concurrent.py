"""The concurrent engine: the sequential goal loop, run by several workers
over one shared store.

Each worker runs `SequentialEngine.run_goals` on goals of its own and takes
further goals from a shared pool, so the goal step and the goal loop are
the sequential ones: a concurrent step is the sequential step committed
under the store lock.  This module defines only what is concurrent.  The
commit checks the step limit, numbers the step by its position in the
trace, applies it and appends it in one store-lock section, so the trace is
the engine's only clock: a step's seq is its commit tick, as in the
sequential engine, and a scan's start is the last seq it can see.  A firing
found by scanning is made real only by that commit: every involved id is
revalidated alive, and the simplified ids must not have been propagated
over by a step that committed after the scan's start (the
last-propagation-tick check).  The second condition is what makes every
pair of committed records whose (start, commit) intervals overlap
non-overlapping in the side-effect sense: their simplified sets are
disjoint from each other's propagated and simplified sets.  An aborted
commit mutated nothing; the worker resumes its partner search, or rescans
from a fresh start after a tick conflict.

Activated, pushed and woken goals go to the front of the worker's own
goals, where the sequential engine puts them, so a one-worker run is the
sequential derivation step for step.
"""
from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .abstract import HistoryKey
from .matching import RunResult
from .matching import iter_matches  # noqa: F401  (bench/instrument.py wraps it here)
from .sequential import SequentialEngine, _StepLimit, _TickConflict
from .syntax import Program
from .terms import Constraint


@dataclass
class EngineConfig:
    workers: int = 1
    seed: int = 0
    max_steps: Optional[int] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class _Pool:
    """FIFO goal pool with seeded dequeue jitter (workers > 1 only) and a
    quiescence barrier: the run is over when every worker is idle and the
    pool is empty, both checked in one critical section."""

    def __init__(self, items: deque, workers: int,
                 rng: Optional[random.Random]):
        self.cond = threading.Condition()
        self.items = items
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


class ConcurrentEngine(SequentialEngine):
    def __init__(self, program: Program, cfg: EngineConfig):
        super().__init__(program, max_steps=cfg.max_steps)
        self.cfg = cfg
        self.store = self.state.store
        rng = random.Random(cfg.seed) if cfg.workers > 1 else None
        self.pool = _Pool(self.state.goals, cfg.workers, rng)
        self.last_prop_tick: dict[int, int] = {}
        self._crashed: Optional[BaseException] = None

    def _stop(self, status: str) -> None:
        self.status = status
        self.pool.stop()

    # ----------------------------------------------------------- commits

    def _commit(self, effect, start: int, worker: int, item, goals: deque):
        """The sequential commit under the store lock, with the interval
        (start, seq); the step is the last propagation over its prop_ids."""
        with self.store.lock:
            seq = len(self.trace)
            if self.max_steps is not None and seq >= self.max_steps:
                if self.status == "done":
                    self._stop("step-limit")
                raise _StepLimit
            step = effect(seq, worker, (start, seq), item, goals)
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
            if history_key in self.history:
                return None  # another worker fired this instance first
            return super().commit_firing(simp_ids, prop_ids, start_tick, history_key)

    # --------------------------------------------------------------- run

    def _worker(self, wid: int) -> None:
        local: deque = deque()
        try:
            self.run_goals(local, wid, self.pool.pop)
        except BaseException as exc:  # propagate to the main thread
            self._crashed = exc
            self._stop("failed")
        finally:
            if local:
                self.pool.push_front(local)

    def run(self, goals: Iterable[Constraint]) -> RunResult:
        self.load_goals(goals)
        threads = [threading.Thread(target=self._worker, args=(w,), daemon=True)
                   for w in range(self.cfg.workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self._crashed is not None:
            raise self._crashed
        return RunResult(self.state, self.trace, self.history, self.status)


def run_concurrent(goals: Iterable[Constraint], program: Program,
                   cfg: Optional[EngineConfig] = None) -> RunResult:
    engine = ConcurrentEngine(program, cfg or EngineConfig())
    return engine.run(goals)

