"""The identified constraint store Sn and the goal multiset.

Every entry keeps two forms.  The raw form is the constraint exactly as it
entered the store; it is what dumps, side-effect projections and traces
show, and it never changes.  The normal form is the raw form under `theta`
(with ground arithmetic evaluated); it is what matching and the argument
indexes use, and it is refreshed for the woken entries whenever an
equation arrives.  The argument index is keyed by (predicate, position,
ground argument term), the term itself, never a rendering of it.
`theta`, the idempotent m.g.u. of the equation substore, is kept in
`add_equation` alone, which extends it by one equation per call; guards,
wake-ups and normal forms all read it.  A variable -> ids
occurrence index over the normal forms says which entries a newly bound
variable wakes, so a Solve never scans the whole store.  Each entry keeps
the argument keys and variables it was indexed under, so a kill or a
wake-up removes exactly those without re-deriving them.

Dead entries are tombstoned, never physically removed, so a concurrent
reader can never observe a dangling id; they do disappear from index
lookups.  Equations only grow within a run.

All mutating operations take the store lock; `kill` of a set of ids is one
atomic transition, and `candidates` snapshots under the lock, so readers
see a linearization-consistent view.
"""
from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .terms import (Chr, Const, Constraint, Eq, Subst, Term, apply_subst,
                    instantiate, is_ground, mgu, render_constraint, vars_of)
from .terms import render_term  # noqa: F401  (bench/instrument.py wraps it here)


class DeadIdError(Exception):
    """A kill targeted an id that is not alive (a lost race, or a bug)."""


@dataclass(frozen=True)
class NumberedConstraint:
    constraint: Chr
    id: int

    def render(self) -> str:
        return f"{render_constraint(self.constraint)}#{self.id}"


GoalItem = Union[Constraint, NumberedConstraint]


class Store:
    def __init__(self):
        self.lock = threading.RLock()
        self._raw: dict[int, Chr] = {}   # as inserted, never rewritten
        self._view: dict[int, NumberedConstraint] = {}  # equation-normal
        self._alive: set[int] = set()
        self._eqs: list[Eq] = []
        self.theta: Optional[Subst] = {}  # m.g.u. of _eqs; None once inconsistent
        self._pred_index: dict[str, dict[int, None]] = {}
        self._arg_index: dict[tuple[str, int, Term], dict[int, None]] = {}
        self._occ: dict[str, dict[int, None]] = {}  # variable -> alive ids
        # id -> the argument keys and the variables it is indexed under
        self._indexed: dict[int, tuple[list, set[str]]] = {}
        self._next_id = 1

    @property
    def inconsistent(self) -> bool:
        return self.theta is None

    # ----------------------------------------------------------- queries

    def alive(self, cid: int) -> bool:
        return cid in self._alive

    def get(self, cid: int) -> NumberedConstraint:
        """The matching view (equation-normal form) of an entry."""
        return self._view[cid]

    def live_items(self) -> list[NumberedConstraint]:
        with self.lock:
            return [NumberedConstraint(self._raw[i], i)
                    for i in sorted(self._alive)]

    def eqs(self) -> tuple[Eq, ...]:
        with self.lock:
            return tuple(self._eqs)

    def size(self) -> int:
        return len(self._alive)

    # --------------------------------------------------------- mutation

    def _index_add(self, cid: int, c: Chr) -> None:
        self._pred_index.setdefault(c.pred, {})[cid] = None
        keys, names = [], set()
        for pos, arg in enumerate(c.args):
            found = None if arg.__class__ is Const else vars_of(arg)
            if found:
                names |= found
            else:
                key = (c.pred, pos, arg)
                keys.append(key)
                self._arg_index.setdefault(key, {})[cid] = None
        for v in names:
            self._occ.setdefault(v, {})[cid] = None
        self._indexed[cid] = (keys, names)

    def _index_remove(self, cid: int) -> None:
        self._pred_index[self._view[cid].constraint.pred].pop(cid, None)
        keys, names = self._indexed.pop(cid)
        for key in keys:
            self._arg_index[key].pop(cid, None)
        for v in names:  # add_equation has dropped the buckets it wakes
            self._occ.get(v, {}).pop(cid, None)

    def insert(self, c: Chr) -> NumberedConstraint:
        """Store c under a fresh id; ids are never reused.  Returns the raw
        form, which is also what trace lines show."""
        with self.lock:
            cid = self._next_id
            self._next_id += 1
            self._raw[cid] = c
            view = NumberedConstraint(instantiate(self.theta or {}, c), cid)
            self._view[cid] = view
            self._alive.add(cid)
            self._index_add(cid, view.constraint)
            return NumberedConstraint(c, cid)

    def kill(self, ids: Iterable[int]) -> None:
        """Mark all ids dead as one atomic transition."""
        ids = set(ids)
        with self.lock:
            dead = ids - self._alive
            if dead:
                raise DeadIdError(sorted(dead))
            for cid in ids:
                self._alive.discard(cid)
                self._index_remove(cid)

    # --------------------------------------------------------- equations

    def add_equation(self, e: Eq) -> list[NumberedConstraint]:
        """Move e into the equation substore and return the woken
        constraints: with phi the m.g.u. before and theta the one after, every
        alive c#i with phi(c) != theta(c).  Only e is solved: sigma, the
        m.g.u. of phi(e), is composed onto phi, so theta(c) = sigma(phi(c)),
        and c is woken exactly when its normal form mentions a variable that
        sigma binds.  A variable-to-variable equation binds its left side
        (`terms.mgu`'s rule), after phi: `x=y` then `x=z` binds y to z.  An
        extended equation set with no unifier makes the store inconsistent
        and wakes nothing.  One atomic step: no firing can interleave
        between the wake-up computation and the insertion.
        """
        with self.lock:
            self._eqs.append(e)
            phi = self.theta
            if phi is None:
                return []
            sigma = mgu([Eq(apply_subst(phi, e.lhs), apply_subst(phi, e.rhs))])
            if sigma is None:
                self.theta = None
                return []
            theta = {x: t if isinstance(t, Const) else apply_subst(sigma, t)
                     for x, t in phi.items()}
            theta.update(sigma)
            self.theta = theta  # a fresh dict: matching reads it unlocked
            ids: set[int] = set()
            for v in sigma:
                ids.update(self._occ.pop(v, ()))
            woken = [NumberedConstraint(self._raw[cid], cid)
                     for cid in sorted(ids)]
            for nc in woken:
                new = instantiate(theta, nc.constraint)
                self._index_remove(nc.id)
                self._view[nc.id] = NumberedConstraint(new, nc.id)
                self._index_add(nc.id, new)
            return woken

    # ------------------------------------------------------------ search

    def candidates(self, partial: Subst, pattern: Chr) -> list[NumberedConstraint]:
        """Alive constraints of the pattern's predicate that could match it
        under the partial bindings, in their equation-normal form.  When
        some pattern argument is ground under `partial`, the per-argument
        hash index, keyed by that ground term, gives (expected)
        constant-time lookup, in ascending id order; otherwise the
        predicate bucket is scanned, in the order its entries were last
        indexed: a wake-up re-indexes the woken entry after every entry
        indexed before it (`A(x)#1`, `A(1)#2`, then `x=5`: ids 2, 1).  No
        constraint is yielded twice.
        """
        pred, key = pattern.pred, None
        for pos, arg in enumerate(pattern.args):
            inst = instantiate(partial, arg)  # a variable's binding as is
            if is_ground(inst):
                key = (pred, pos, inst)
                break
        with self.lock:
            if key is not None:
                ids = sorted(self._arg_index.get(key, ()))
            else:
                ids = list(self._pred_index.get(pred, ()))  # indexing order
            view = self._view
            return [view[i] for i in ids if i in self._alive]

    # ------------------------------------------------------------ output

    def drop_ids(self) -> list[Constraint]:
        """The visible multiset: alive constraints without ids, plus eqs."""
        with self.lock:
            out: list[Constraint] = [self._raw[i] for i in sorted(self._alive)]
            out.extend(self._eqs)
            return out

    def dump(self) -> str:
        """One constraint per line: `pred(args)#id` sorted by id, then
        equations sorted lexicographically.  Bit-exact for golden tests."""
        with self.lock:
            lines = [NumberedConstraint(self._raw[i], i).render()
                     for i in sorted(self._alive)]
            lines.extend(sorted(render_constraint(e) for e in self._eqs))
        return "\n".join(lines)


@dataclass
class State:
    """A goal-based execution state: the goal multiset plus the store.

    Every numbered goal either has an alive same-id entry in the store or is
    stale (its entry was simplified while it waited) and is discarded when
    dequeued.
    """

    goals: deque = field(default_factory=deque)
    store: Store = field(default_factory=Store)
