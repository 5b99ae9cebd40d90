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
that form); an emptied argument bucket goes too.  `get` reads liveness and
the current form at once: None once the entry is dead.  Ids are never
reused; equations only grow within a run.  A view is a
`NumberedConstraint`, an immutable slotted value (`record.Frozen`), so
`get` and `candidates` hand out the stored views themselves, never copies.

A concurrent run mutates the store only inside `ConcurrentEngine._commit`,
which holds `lock` for the whole commit, so `insert`, `kill` and
`add_equation` take no lock and are each one atomic transition there.
`candidates`, the one read made while others commit, snapshots a bucket
under that plain lock, which is not re-entrant.
"""
from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Optional, Union

from .record import Frozen, Record, setfield
from .terms import (Chr, Const, Constraint, Eq, Subst, Term, Var, apply_subst,
                    instantiate, mgu, render_constraint, vars_of)
from .terms import render_term  # noqa: F401  (bench/instrument.py wraps it here)


class DeadIdError(Exception):
    """A kill targeted an id that is not alive (a lost race, or a bug)."""


class NumberedConstraint(Frozen):
    __slots__ = ("constraint", "id")

    def __init__(self, constraint: Chr, id: int):
        setfield(self, "constraint", constraint)
        setfield(self, "id", id)

    def __eq__(self, other):
        return (other.__class__ is NumberedConstraint and self.id == other.id
                and self.constraint == other.constraint)

    def __hash__(self):
        return hash((self.constraint, self.id))

    def render(self) -> str:
        return f"{render_constraint(self.constraint)}#{self.id}"


GoalItem = Union[Constraint, NumberedConstraint]


class Store:
    def __init__(self):
        self.lock = threading.Lock()  # held by commits and `candidates`
        # live entries only, in id order (ids ascend and are never reused)
        self._raw: dict[int, Chr] = {}   # as inserted, never rewritten
        self._view: dict[int, NumberedConstraint] = {}  # equation-normal
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

    def get(self, cid: int) -> Optional[NumberedConstraint]:
        """The matching view (equation-normal form) of an entry; None once
        it is dead, so one read says whether and as what it lives."""
        return self._view.get(cid)

    def live_items(self) -> list[NumberedConstraint]:
        return [NumberedConstraint(c, i) for i, c in self._raw.items()]

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
        c = self._view[cid].constraint
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

    def insert(self, c: Chr) -> NumberedConstraint:
        """Store c under a fresh id; ids are never reused.  Returns the raw
        form, which is also what trace lines show."""
        cid = self._next_id
        self._next_id += 1
        self._raw[cid] = c
        view = NumberedConstraint(instantiate(self.theta or {}, c), cid)
        self._view[cid] = view
        self._index_add(cid, view.constraint)
        return NumberedConstraint(c, cid)

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

    def add_equation(self, e: Eq) -> list[NumberedConstraint]:
        """Move e into the equation substore and return the woken
        constraints: with phi the m.g.u. before and theta the one after, every
        alive c#i with phi(c) != theta(c).  Only e is solved: sigma, the
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
        woken = [NumberedConstraint(self._raw[cid], cid)
                 for cid in sorted(ids)]
        for nc in woken:
            new = instantiate(theta, nc.constraint)
            self._index_remove(nc.id)
            self._view[nc.id] = NumberedConstraint(new, nc.id)
            self._index_add(nc.id, new)
        return woken

    # ------------------------------------------------------------ search

    def candidates(self, pattern: Chr, key: Optional[int],
                   phi: Subst) -> list[NumberedConstraint]:
        """Alive constraints of the pattern's predicate that could match it
        under the bindings phi, in their equation-normal form.  `key` is the
        pattern's key position from the join plan (`Occurrence.keys`), whose
        argument is a constant or a variable phi binds: the argument index,
        keyed by that term, ground or not, gives (expected) constant-time
        lookup of exactly the entries with that argument, in ascending id
        order.  With no key the predicate bucket is scanned, in the order
        its entries were last indexed: a wake-up re-indexes the woken entry
        after every entry indexed before it (`A(x)#1`, `A(1)#2`, then
        `x=5`: ids 2, 1).  No constraint is yielded twice.
        """
        pred = pattern.pred
        if key is not None:
            arg = pattern.args[key]
            if arg.__class__ is Var:
                arg = phi[arg.name]
        with self.lock:
            if key is not None:
                ids = sorted(self._arg_index.get((pred, key, arg), ()))
            else:
                ids = list(self._pred_index.get(pred, ()))  # indexing order
            return list(map(self._view.__getitem__, ids))  # live ids only

    # ------------------------------------------------------------ output

    def dump(self) -> str:
        """One constraint per line: `pred(args)#id` sorted by id, then
        equations sorted lexicographically.  Bit-exact for golden tests."""
        lines = [NumberedConstraint(c, i).render()
                 for i, c in self._raw.items()]
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
