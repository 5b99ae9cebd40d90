"""The firing core of the goal loop that both goal engines run.

`iter_matches` is the lazy partner search around one active goal, given
as its entry's id and the normal form its step read: occurrences are
tried top-to-bottom, partners are looked up via the store indexes in the
compiled join order as ids, each read with `Store.get` only when it is
tried, and the guard is tested against the store's solved equations
`Store.theta` as soon as all of its variables are bound (at the plan's
`guard_at`, as the oracle's join tests it).  A `Match` carries the
firing's side-effect ids and says what else the firing does (its kind,
history key, trace step and the goals it pushes), worked out only when
asked for.  There is one goal loop, in `sequential`; the engines differ
only in how a step is committed, and a concurrent step is the sequential
step committed under the store lock.
"""
from __future__ import annotations

from typing import Iterator, Optional

from .abstract import HistoryKey
from .record import Frozen, setfield
from .store import GoalItem, Store
from .syntax import Occurrence, Program
from .terms import Chr, Subst, holds, instantiate, match
from .terms import entails  # noqa: F401  (bench/instrument.py counts it here)
from .trace import Step


class Match(Frozen):
    __slots__ = ("goal", "goal_id", "occurrence", "phi", "prop_ids",
                 "simp_ids")

    def __init__(self, goal: Chr, goal_id: int, occurrence: Occurrence,
                 phi: Subst, prop_ids: tuple[int, ...],
                 simp_ids: tuple[int, ...]):
        setfield(self, "goal", goal)  # the active goal, in its normal form
        setfield(self, "goal_id", goal_id)
        setfield(self, "occurrence", occurrence)
        setfield(self, "phi", phi)
        # the side effect, sorted: kept heads' ids and removed heads' ids,
        # the goal's among them
        setfield(self, "prop_ids", prop_ids)
        setfield(self, "simp_ids", simp_ids)

    @property
    def kind(self) -> str:
        """Simplify if the goal matched a removed head, else Propagate."""
        return "Simplify" if self.occurrence.role == "simplified" else "Propagate"

    @property
    def history_key(self) -> Optional[HistoryKey]:
        """The instance's propagation-history entry, for a pure propagation
        rule only.  Any other firing removes one of its heads, so the same
        instance can never match again; the oracle ignores such keys too."""
        rule = self.occurrence.rule
        if rule.simplified:
            return None
        return (rule.name, self.prop_ids)

    def step(self, seq: int, worker: Optional[int] = None,
             interval: Optional[tuple[int, int]] = None) -> Step:
        return Step(seq, self.kind, self.goal, self.goal_id,
                    self.occurrence.rule.name, self.phi, self.prop_ids,
                    self.simp_ids, worker, interval)

    def continuation(self) -> list[GoalItem]:
        """The goals the firing pushes, front first: the body under phi, left
        to right (depth-first), then, after a Propagate, the goal itself."""
        goals: list[GoalItem] = [instantiate(self.phi, b)
                                 for b in self.occurrence.rule.body]
        if self.kind == "Propagate":
            goals.append(self.goal_id)
        return goals


def iter_matches(store: Store, goal: Chr, goal_id: int,
                 program: Program) -> Iterator[Match]:
    """Complete rule-head matches containing the goal, entry goal_id in its
    normal form goal, in deterministic order: occurrence-major, then per
    join position in `Store.candidates` order (ascending ids, except that
    a bucket scan lists an entry woken by an equation after the entries
    indexed before that wake-up).

    A partner's form is read with `Store.get` when it is tried, so on the
    concurrent engine it may have changed since the lookup: a partner
    killed since is skipped, and one woken since is matched in its newer
    form.  Both are as safe as the per-level lookups themselves, which also
    run after `theta` was read: committing a match revalidates it.  The
    alive check refuses a head killed since the scan, and the tick check a
    simplified head that a step committed since the scan's start
    propagated over, as a Solve that woke it did: its P holds the woken
    ids.
    """
    # add_equation assigns a fresh theta, inside a locked commit on the
    # concurrent engine, and nothing mutates it afterwards, so this read
    # without the lock is a consistent snapshot
    theta = store.theta
    if theta is None:
        return  # an inconsistent store entails no guard
    own = (goal_id,)
    for occ in program.occurrences.get(goal.pred, ()):
        phi0 = match(occ.pattern, goal, {})
        if phi0 is None:
            continue
        props, simps = ((), own) if occ.role == "simplified" else (own, ())
        yield from _search(store, goal, goal_id, occ, theta, 0, phi0, props,
                           simps)


def _search(store: Store, goal: Chr, goal_id: int, occ: Occurrence,
            theta: Subst, k: int, phi: Subst, props: tuple[int, ...],
            simps: tuple[int, ...]) -> Iterator[Match]:
    if k == occ.guard_at and not holds(theta, phi, occ.rule.guard):
        return  # early guard scheduling prunes this branch
    if k == len(occ.partners):  # guard_at <= k: the guard held
        yield Match(goal, goal_id, occ, phi, tuple(sorted(props)),
                    tuple(sorted(simps)))
        return
    entry = occ.partners[k]
    for cid in store.candidates(entry.pattern, occ.keys[k], phi):
        if cid in props or cid in simps:
            continue  # injective: distinct store elements per head position
        c = store.get(cid)
        if c is None:
            continue  # killed since the lookup
        phi2 = match(entry.pattern, c, phi)
        if phi2 is None:
            continue
        next_props = props + (cid,) if entry.role == "propagated" else props
        next_simps = simps + (cid,) if entry.role == "simplified" else simps
        yield from _search(store, goal, goal_id, occ, theta, k + 1, phi2,
                           next_props, next_simps)
