"""The concurrent engine: the sequential goal loop, run by several workers
over one shared store.

Each worker runs `SequentialEngine.run_goals` on goals of its own and takes
further goals from a shared pool, so the goal step and the goal loop are
the sequential ones: a concurrent step is the sequential step committed
under the store lock.  This module defines only what is concurrent.  The
commit is the sequential one, held in one store-lock section.  It checks
the step limit, numbers the step by its position in the trace, applies it
and appends it, so the trace is the engine's only clock: a step's seq is its
commit tick, as in the sequential engine, and a scan's start is the last
seq it can see.  A firing found by scanning is made real only by that
commit: every involved id is revalidated alive, and no step committed after
the scan's start may have propagated over a simplified id.  That check
reads the P sets of those steps in the trace; no other record of
propagations is kept (the backward validation of optimistic concurrency
control, Kung & Robinson 1981).  The second condition is what makes every
pair of committed records whose (start, commit) intervals overlap
non-overlapping in the side-effect sense: their simplified sets are
disjoint from each other's propagated and simplified sets.  An aborted
commit mutated nothing; the worker resumes its partner search, or rescans
from a fresh start after a tick conflict.

Activated, pushed and woken goals go to the front of the worker's own
goals, where the sequential engine puts them, so a one-worker run is the
sequential derivation step for step.

The calling thread is worker 0: an n-worker run starts threads for workers
1..n-1 only, runs worker 0 itself and then joins them, so a one-worker run
starts no thread.  Worker 0 is an ordinary worker: it may go idle first and
wait in the pool for the others, like any of them.
"""
from __future__ import annotations

import random
import threading
from collections import deque
from typing import Iterable, Optional

from .abstract import HistoryKey
from .matching import iter_matches  # noqa: F401  (bench/instrument.py wraps it here)
from .record import Record
from .sequential import SequentialEngine, _TickConflict
from .syntax import Program
from .terms import Constraint


class EngineConfig(Record):
    __slots__ = ("workers", "seed", "max_steps")

    def __init__(self, workers: int = 1, seed: int = 0,
                 max_steps: Optional[int] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.seed = seed
        self.max_steps = max_steps


class WorkerStartError(RuntimeError):
    """A worker thread could not be started; the run was stopped."""


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
        self._crashed: Optional[BaseException] = None

    def _stop(self, status: str) -> None:
        self.status = status
        self.pool.stop()

    # ----------------------------------------------------------- commits

    def _commit(self, effect, start: int, worker: int, item, goals: deque):
        with self.store.lock:
            return super()._commit(effect, start, worker, item, goals)

    def commit_firing(self, simp_ids: tuple[int, ...],
                      prop_ids: tuple[int, ...], start_tick: int,
                      history_key: Optional[HistoryKey] = None) -> Optional[int]:
        """Revalidate every involved id alive, refuse simplified ids that a
        step committed after start_tick (the last seq the scan saw)
        propagated over, as the trace since then records, then kill the
        simplified set.  Returns the commit tick, or None if nothing was
        mutated; _TickConflict means rescan.  Atomic inside `_commit`, whose
        lock is not re-entrant: nothing in a commit may take it again, as
        `Store.candidates` does."""
        store = self.store
        if store.inconsistent:
            return None  # the run is failing; nothing may fire after that
        if not all(store.alive(i) for i in simp_ids + prop_ids):
            return None  # lost race: some head died under us
        trace = self.trace
        for j in range(start_tick + 1, len(trace)):  # unseen by the scan
            if any(i in trace[j].prop_ids for i in simp_ids):
                raise _TickConflict
        if history_key in self.history:
            return None  # another worker fired this instance first
        return super().commit_firing(simp_ids, prop_ids, start_tick, history_key)

    # --------------------------------------------------------------- run

    def _worker(self, wid: int) -> None:
        local: deque = deque()
        try:
            self.run_goals(local, wid, self.pool.pop)
        except BaseException as exc:  # `run` re-raises it after the joins
            self._crashed = exc
            self._stop("failed")
        finally:
            if local:
                self.pool.push_front(local)

    def run(self, goals: Iterable[Constraint]) -> ConcurrentEngine:
        """Run workers 1..n-1 on threads of their own and worker 0 on the
        calling thread; return the engine once every worker has stopped.
        A worker's exception is re-raised here, after the joins.  If a
        thread cannot be started, the run is stopped, the started threads
        are joined and `WorkerStartError` is raised."""
        self.load_goals(goals)
        threads = []
        for w in range(1, self.cfg.workers):
            t = threading.Thread(target=self._worker, args=(w,), daemon=True)
            try:
                t.start()
            except RuntimeError as exc:  # "can't start new thread"
                self._stop("failed")
                for started in threads:
                    started.join()
                raise WorkerStartError(
                    f"could not start a thread for worker {w} of "
                    f"{self.cfg.workers}: {exc}") from exc
            threads.append(t)
        self._worker(0)
        for t in threads:
            t.join()
        if self._crashed is not None:
            raise self._crashed
        return self


def run_concurrent(goals: Iterable[Constraint], program: Program,
                   cfg: Optional[EngineConfig] = None) -> ConcurrentEngine:
    engine = ConcurrentEngine(program, cfg or EngineConfig())
    return engine.run(goals)

