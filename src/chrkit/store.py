"""The identified constraint store Sn and the goal multiset.

Every entry keeps two forms.  The raw form is the constraint exactly as it
entered the store; it is what dumps, side-effect projections and traces
show, and it never changes.  The normal form is the raw form under `theta`
(with ground arithmetic evaluated); it is what matching and the argument
indexes use, and it is refreshed for the woken entries whenever an
equation arrives.  The argument index is keyed by (predicate, position,
argument term) for every argument, ground or not, the term itself, never a
rendering of it, so a partner whose key argument is bound to an unsolved
variable is looked up by that variable.
`theta`, the idempotent m.g.u. of the equation substore, is kept in
`add_equation` alone, which extends it by one equation per call; guards,
wake-ups and normal forms all read it.  A variable -> bindings reverse
index says which bindings of theta mention a newly bound variable, so a
Solve rewrites those alone and costs, beyond one copy of the dict, what its
new bindings touch, not the number of equations.  A variable -> ids
occurrence index over the normal forms says which entries a newly bound
variable wakes, so a Solve never scans the whole store.

The store holds live entries only, as Sn does.  A kill deletes both forms
and unlists the entry from the buckets of its current normal form, the
form it was indexed under (a wake-up unlists an entry before it replaces
that form); an emptied argument bucket goes too.  Ids are never reused;
equations only grow within a run.  An entry is its id, as a numbered goal
c#i names entry i: `insert` returns it, `add_equation` returns the woken
ones and `candidates` lists the partners' ids, and `get` reads liveness
and the current normal form at once, None once the entry is dead, so a
partner search reads the form only of the entries it tries.

A concurrent run mutates the store only inside `ConcurrentEngine._commit`,
which holds `lock` for the whole commit, so `insert`, `kill` and
`add_equation` take no lock and are each one atomic transition there.
`candidates` snapshots a bucket's ids under that plain lock, which is
not re-entrant; `get`, one dict read, takes no lock, so a form read while
others commit may be newer than the snapshot, or gone.
"""
from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Optional, Union

from .record import Record
from .terms import (Chr, Const, Constraint, Eq, Subst, Term, Var, apply_subst,
                    instantiate, mgu, render_constraint, vars_of)
from .terms import render_term  # noqa: F401  (bench/instrument.py wraps it here)


class DeadIdError(Exception):
    """A kill targeted an id that is not alive (a lost race, or a bug)."""


# a goal: a constraint not yet stored, an equation, or a numbered goal c#i,
# which is its entry's id i
GoalItem = Union[Constraint, int]


class Store:
    def __init__(self):
        self.lock = threading.Lock()  # held by commits and `candidates`
        # live entries only, in id order (ids ascend and are never reused)
        self._raw: dict[int, Chr] = {}   # as inserted, never rewritten
        self._view: dict[int, Chr] = {}  # equation-normal
        self._eqs: list[Eq] = []
        self.theta: Optional[Subst] = {}  # m.g.u. of _eqs; None once inconsistent
        # variable -> the variables whose binding in theta mentions it
        self._users: dict[str, set[str]] = {}
        self._pred_index: dict[str, dict[int, None]] = {}
        self._arg_index: dict[tuple[str, int, Term], dict[int, None]] = {}
        self._occ: dict[str, dict[int, None]] = {}  # variable -> alive ids
        self._next_id = 1

    @property
    def inconsistent(self) -> bool:
        return self.theta is None

    # ----------------------------------------------------------- queries

    def alive(self, cid: int) -> bool:
        return cid in self._view

    def get(self, cid: int) -> Optional[Chr]:
        """The equation-normal form of an entry, which matching reads; None
        once it is dead, so one read says whether and as what it lives."""
        return self._view.get(cid)

    def live_items(self) -> list[tuple[Chr, int]]:
        """The live entries as (raw constraint, id) pairs, in id order."""
        return [(c, i) for i, c in self._raw.items()]

    def eqs(self) -> tuple[Eq, ...]:
        return tuple(self._eqs)

    def size(self) -> int:
        return len(self._raw)

    # --------------------------------------------------------- mutation

    def _index_add(self, cid: int, c: Chr) -> None:
        self._pred_index.setdefault(c.pred, {})[cid] = None
        for pos, arg in enumerate(c.args):
            self._arg_index.setdefault((c.pred, pos, arg), {})[cid] = None
            if arg.__class__ is not Const:
                for v in vars_of(arg):
                    self._occ.setdefault(v, {})[cid] = None

    def _index_remove(self, cid: int) -> None:
        c = self._view[cid]
        del self._pred_index[c.pred][cid]
        for pos, arg in enumerate(c.args):
            key = (c.pred, pos, arg)
            bucket = self._arg_index[key]
            del bucket[cid]
            if not bucket:  # keys come and go with the store
                del self._arg_index[key]
            if arg.__class__ is not Const:
                for v in vars_of(arg):  # add_equation has dropped those it wakes
                    self._occ.get(v, {}).pop(cid, None)

    def insert(self, c: Chr) -> int:
        """Store c under a fresh id, which is returned; ids are never
        reused."""
        cid = self._next_id
        self._next_id += 1
        self._raw[cid] = c
        view = self._view[cid] = instantiate(self.theta or {}, c)
        self._index_add(cid, view)
        return cid

    def kill(self, ids: Iterable[int]) -> None:
        """Free all ids, or none if one is dead.  One atomic transition under
        the caller's commit, which holds the lock."""
        ids = set(ids)
        dead = ids.difference(self._view)
        if dead:
            raise DeadIdError(sorted(dead))
        for cid in ids:
            self._index_remove(cid)
            del self._raw[cid], self._view[cid]

    # --------------------------------------------------------- equations

    def add_equation(self, e: Eq) -> list[int]:
        """Move e into the equation substore and return the woken ids, in
        ascending order: with phi the m.g.u. before and theta the one after,
        every alive c#i with phi(c) != theta(c).  Only e is solved: sigma, the
        m.g.u. of phi(e), is composed onto phi, so theta(c) = sigma(phi(c)),
        and c is woken exactly when its normal form mentions a variable that
        sigma binds.  A variable-to-variable equation binds its left side
        (`terms.mgu`'s rule), after phi: `x=y` then `x=z` binds y to z.  An
        extended equation set with no unifier makes the store inconsistent
        and wakes nothing.  One atomic step under the caller's commit, which
        holds the lock: no firing can interleave between the wake-up
        computation and the insertion.

        The compose touches only what sigma changes.  `_users` maps each
        variable to the bindings of theta whose term mentions it; sigma is
        applied to those bindings alone, the others cannot change, and
        sigma's own bindings are added after them, so theta keeps its key
        order.  theta is still a fresh dict, a C-speed copy of phi
        rewritten in place: matching reads `store.theta` without the lock
        and must never see it half composed.
        """
        self._eqs.append(e)
        phi = self.theta
        if phi is None:
            return []
        sigma = mgu([Eq(apply_subst(phi, e.lhs), apply_subst(phi, e.rhs))])
        if sigma is None:
            self.theta = None
            return []
        theta = phi.copy()  # a fresh dict: matching reads it unlocked
        touched: set[str] = set()
        for v in sigma:
            touched.update(self._users.pop(v, ()))
        for x in touched:
            theta[x] = apply_subst(sigma, theta[x])
        theta.update(sigma)
        for x in (*touched, *sigma):
            t = theta[x]
            if t.__class__ is not Const:
                for v in vars_of(t):
                    self._users.setdefault(v, set()).add(x)
        self.theta = theta
        ids: set[int] = set()
        for v in sigma:
            ids.update(self._occ.pop(v, ()))
        woken = sorted(ids)
        for cid in woken:
            self._index_remove(cid)
            new = self._view[cid] = instantiate(theta, self._raw[cid])
            self._index_add(cid, new)
        return woken

    # ------------------------------------------------------------ search

    def candidates(self, pattern: Chr, key: Optional[int],
                   phi: Subst) -> list[int]:
        """The ids of the alive entries of the pattern's predicate that could
        match it under the bindings phi, snapshotted under the lock; the
        caller reads each one's form with `get`.  `key` is the pattern's
        key position from the join plan (`Occurrence.keys`), whose
        argument is a constant or a variable phi binds: the argument index,
        keyed by that term, ground or not, gives (expected) constant-time
        lookup of exactly the entries with that argument, in ascending id
        order.  With no key the predicate bucket is scanned, in the order
        its entries were last indexed: a wake-up re-indexes the woken entry
        after every entry indexed before it (`A(x)#1`, `A(1)#2`, then
        `x=5`: ids 2, 1).  No id is listed twice.
        """
        pred = pattern.pred
        if key is not None:
            arg = pattern.args[key]
            if arg.__class__ is Var:
                arg = phi[arg.name]
        with self.lock:
            if key is not None:
                return sorted(self._arg_index.get((pred, key, arg), ()))
            return list(self._pred_index.get(pred, ()))  # indexing order

    # ------------------------------------------------------------ output

    def dump(self) -> str:
        """One constraint per line: `pred(args)#id` sorted by id, then
        equations sorted lexicographically.  Bit-exact for golden tests."""
        lines = [f"{render_constraint(c)}#{i}" for i, c in self._raw.items()]
        lines.extend(sorted(render_constraint(e) for e in self._eqs))
        return "\n".join(lines)


class State(Record):
    """A goal-based execution state: the goal multiset plus the store.

    Every numbered goal either has an alive same-id entry in the store or is
    stale (its entry was simplified while it waited) and is discarded when
    dequeued.
    """

    __slots__ = ("goals", "store")

    def __init__(self, goals: Optional[deque] = None,
                 store: Optional[Store] = None):
        self.goals = deque() if goals is None else goals
        self.store = Store() if store is None else store
