"""Reference implementation of the abstract rewriting semantics.

Stores are multisets of constraints without identifiers.  Internally each
element carries an instance tag so that multiset copies stay distinct for
injective head assignment and for the propagation history (which prevents a
pure propagation rule from firing twice on the same instances, the same
convention the goal engines use, so "final" means the same thing in both).

This engine is a verification oracle for small instances (around ten store
constraints), not a production engine; it is single-threaded.

Cost model of the exhaustive search.  Every item is rendered once, when it
enters a store, and successors inherit the rendered forms of the items they
keep, so a state key is a sort of cached strings.  A successor is described
before it is built: its key comes from the parent's sorted renders, less the
simplified heads' and plus the body's (a store with a propagation history is
built for its key), and the search builds it only when that key is new.
Every match is found by one join from a store's new items, through the
program's join plans: from the match's first head on a new item, in textual
order, with every head before it on an old item.  A partner whose argument
is bound is looked up, not scanned: where the join plan gives a partner a
head constant or a variable an earlier head bound (`Occurrence.keys`), and
its bucket holds more than a few items, the first lookup indexes the
predicate's items by that argument, once per `rewrite_steps` call, so the
join matches only the items with that argument, not the whole bucket
(Holzbaur & Fruehwirth's CHR runtime, 2000, finds partners the same way).  A successor built by a rewrite keeps its
parent's matches whose heads survive in the same equation-normal form, and
its new items are the body's CHR items plus, when the body added an
equation, the items that equation gives a new normal form (Forgy's Rete,
1982, keeps complete matches across store changes in the same way).
Such a successor still solves all its equations at once, as a root does,
so variable-to-variable bindings are oriented alike.  A root
solves its equations once and keeps nothing: all its CHR items are new, so
only a rule's first head starts a join.  A guard is tested as soon as the
join has bound its variables, and each guard instance (rule and
guard-variable values) once per search.  Each distinct body instance is
built once per search.
"""
from __future__ import annotations

import random
from bisect import bisect_left, insort
from itertools import count
from operator import attrgetter
from typing import AbstractSet, Iterable, NamedTuple, Optional

from .record import Frozen, Record, setfield
from .syntax import Program, Rule
from .terms import (Chr, Const, Constraint, Eq, Subst, Term, holds,
                    instantiate, match, mgu, normalize_constraint,
                    render_constraint, vars_of)
from .terms import entails  # noqa: F401  (bench/instrument.py counts it here)

HistoryKey = tuple[str, tuple[int, ...]]


class LimitExceeded(Exception):
    """Search bounds hit; the oracle result is unavailable, not empty."""


class AbstractStore(Frozen, compared=("items", "history", "next_tag")):
    """Items are in normal form (the constructors and rewrites normalize),
    their tags ascending and below next_tag, the tag the next body item
    gets.  `renders` caches each item's rendered form, in item order:
    rewrites carry it from parent to successor, so an item is rendered
    once.  `origin` is the rewrite that built the store, until
    rewrite_steps expands it."""

    __slots__ = ("items", "history", "next_tag", "renders", "origin")

    def __init__(self, items: tuple[tuple[Constraint, int], ...],
                 history: frozenset[HistoryKey] = frozenset(),
                 next_tag: int = 0,
                 renders: Optional[tuple[str, ...]] = None,
                 origin: Optional["RewriteStep"] = None):
        if renders is None:  # not built by a rewrite: check the tags
            tags = [t for _, t in items] + [next_tag]
            if any(a >= b for a, b in zip(tags, tags[1:])):
                raise ValueError(f"item tags {tags[:-1]} must ascend below "
                                 f"next_tag {next_tag}")
            renders = tuple(render_constraint(c) for c, _ in items)
        setfield(self, "items", items)  # (constraint, instance tag)
        setfield(self, "history", history)
        setfield(self, "next_tag", next_tag)
        setfield(self, "renders", renders)
        setfield(self, "origin", origin)

    @staticmethod
    def from_constraints(cs: Iterable[Constraint]) -> "AbstractStore":
        items = tuple((normalize_constraint(c), i) for i, c in enumerate(cs))
        return AbstractStore(items, frozenset(), len(items))

    @staticmethod
    def from_identified(ncs: Iterable[tuple[Constraint, int]],
                        eqs: Iterable[Eq] = (),
                        history: Iterable[HistoryKey] = ()) -> "AbstractStore":
        """Build an oracle store from engine output, keeping the engine's ids
        as tags so its propagation history carries over."""
        items = [(normalize_constraint(c), i) for c, i in ncs]
        top = max((i for _, i in items), default=-1)
        for e in eqs:
            top += 1
            items.append((normalize_constraint(e), top))
        return AbstractStore(tuple(items), frozenset(history), top + 1)

    def constraints(self) -> list[Constraint]:
        return [c for c, _ in self.items]

    def eqs(self) -> list[Eq]:
        return [c for c, _ in self.items if isinstance(c, Eq)]


class _Match(NamedTuple):
    """One applicable rule instance.  It stays valid in a successor that
    keeps its heads in the same equation-normal form, so successors inherit
    it."""

    rule: Rule
    phi: Subst
    heads: tuple[tuple[Chr, int], ...]  # textual order: propagated, simplified
    used_tags: tuple[int, ...]  # sorted
    order: tuple[int, ...]  # the rule's index, then head tags in textual order
    body: tuple[tuple[Constraint, ...], tuple[str, ...]]  # normal, rendered

    @property
    def propagated(self) -> tuple[tuple[Chr, int], ...]:
        return self.heads[:len(self.rule.propagated)]

    @property
    def simplified(self) -> tuple[tuple[Chr, int], ...]:
        return self.heads[len(self.rule.propagated):]


class RewriteStep:
    """One applicable rewrite of a store.  `key` (the successor's state key)
    and `result` (the successor store) are computed on first use, so a
    search builds a successor only when its key is new."""

    __slots__ = ("_m", "_exp", "_key", "_result")

    def __init__(self, m: _Match, exp: "_Expansion"):
        self._m, self._exp, self._key, self._result = m, exp, None, None

    @property
    def rule(self) -> str:
        return self._m.rule.name

    @property
    def phi(self) -> Subst:
        return self._m.phi

    @property
    def propagated(self) -> tuple[tuple[Chr, int], ...]:
        return self._m.propagated

    @property
    def simplified(self) -> tuple[tuple[Chr, int], ...]:
        return self._m.simplified

    @property
    def used_tags(self) -> tuple[int, ...]:
        return self._m.used_tags

    @property
    def key(self) -> tuple:
        """_state_key of the successor.  Without a propagation history it
        is the parent's sorted renders, less the simplified heads' and plus
        the body's, and the successor is not built."""
        if self._key is None:
            exp, m = self._exp, self._m
            if exp.store.history or not m.rule.simplified:
                self._key = _state_key(self.result)
            else:
                if exp.sorted_renders is None:
                    s = exp.store
                    exp.sorted_renders = sorted(s.renders)
                    exp.render_of = dict(zip([t for _, t in s.items],
                                             s.renders))
                renders = list(exp.sorted_renders)
                for _, t in m.simplified:
                    del renders[bisect_left(renders, exp.render_of[t])]
                for r in m.body[1]:
                    insort(renders, r)
                self._key = (tuple(renders), ())
        return self._key

    @property
    def result(self) -> AbstractStore:
        if self._result is None:
            self._result = self._build()
        return self._result

    def _build(self) -> AbstractStore:
        s, m = self._exp.store, self._m
        simp_tags = {t for _, t in m.simplified}
        items = [it for it in s.items if it[1] not in simp_tags]
        renders = [r for r, it in zip(s.renders, s.items)
                   if it[1] not in simp_tags]
        tag = s.next_tag
        cs, rs = m.body
        items += zip(cs, range(tag, tag + len(cs)))
        renders += rs
        history = s.history
        if not m.rule.simplified:
            history = history | {(m.rule.name, m.used_tags)}
        return AbstractStore(tuple(items), history, tag + len(cs),
                             tuple(renders), origin=self)


class _Memo:
    """Shared by the stores of one search, per rule: body instances by
    body-variable values, guard results by guard-variable values.  Items are
    equation-normal, so a guard instance holds in all the stores or none."""

    __slots__ = ("bodies", "guards", "guard_vars")

    def __init__(self, p: Program):
        self.bodies = [{} for _ in p.rules]
        self.guards = [{} for _ in p.rules]
        self.guard_vars = [  # None: the guard `true`, never tested
            None if isinstance(r.guard, Const) and r.guard.value is True
            else tuple(sorted(vars_of(r.guard))) for r in p.rules]


class _Expansion(Record):
    """One rewrite_steps call: the store, its solved equations, its CHR
    items per predicate in equation-normal form, and its matches in order.
    A successor's own call starts from these."""

    __slots__ = ("store", "program", "theta", "by_pred", "memo", "matches",
                 "sorted_renders", "render_of", "index")

    def __init__(self, store: AbstractStore, program: Program, theta: Subst,
                 by_pred: dict[str, list[tuple[Chr, int]]], memo: _Memo,
                 matches: list[_Match]):
        self.store = store
        self.program = program
        self.theta = theta
        self.by_pred = by_pred
        self.memo = memo
        self.matches = matches
        # the store's renders sorted, and per tag, set by the first key
        # computed
        self.sorted_renders: Optional[list[str]] = None
        self.render_of: Optional[dict[int, str]] = None
        # per (predicate, argument position) the join looked a partner up
        # by: the predicate's items by that argument, in bucket order
        self.index: dict[tuple[str, int],
                         dict[Term, list[tuple[Chr, int]]]] = {}

    def lookup(self, pred: str, pos: int, arg: Term) -> list[tuple[Chr, int]]:
        """The items of pred whose argument at pos is arg, in bucket order;
        the index of (pred, pos) is built on first use."""
        index = self.index.get((pred, pos))
        if index is None:
            index = self.index[pred, pos] = {}
            for it in self.by_pred.get(pred, ()):
                args = it[0].args
                if len(args) > pos:
                    index.setdefault(args[pos], []).append(it)
        return index.get(arg, ())


def rewrite_steps(s: AbstractStore, p: Program) -> list[RewriteStep]:
    """Every applicable single rewrite: every rule, every injective assignment
    of distinct store elements to head positions, every matching substitution
    with the guard entailed.  Deterministic order: rules top to bottom, then
    the heads' tags in textual order (store order, as a store's tags
    ascend).  Empty result means the store is final.

    Every match is found once, by one join from the store's new items.  A
    store built by a rewrite of p inherits its parent's matches whose heads
    it keeps in the same equation-normal form (less a pure propagation the
    rewrite put in the history).  Its new items are the body's CHR items,
    and, when the body added equations, the items those equations give a
    new normal form.  Every other store solves its equations and inherits
    nothing: all its CHR items are new.  Body instances and guard results
    are shared by every store derived from the same one.
    """
    origin = s.origin
    object.__setattr__(s, "origin", None)  # free the parent's matches
    parent = origin._exp if origin and origin._exp.program is p else None
    body = origin._m.body[0] if parent else ()
    if parent is None or any(isinstance(c, Eq) for c in body):
        eqs = s.eqs()  # solved whole, as a root solves them
        theta = mgu(eqs) if eqs else {}
        if theta is None:  # inconsistent store entails nothing: final
            return []
    else:
        theta = parent.theta
    if parent is None:  # no matches to inherit: every CHR item is new
        by_pred, kept, memo, new = {}, [], _Memo(p), []
        added = [it for it in s.items if isinstance(it[0], Chr)]
    else:  # the parent's matches whose heads stay as they were
        memo, new = parent.memo, []
        dropped = {t for _, t in origin.simplified}
        by_pred = dict(parent.by_pred)  # lists are shared, never changed
        for c, _ in origin.simplified:
            by_pred[c.pred] = [it for it in by_pred[c.pred]
                               if it[1] not in dropped]
        if theta is not parent.theta:  # a parent form changes iff the new
            # equations bind one of its variables (the old ones bind none)
            for pred, its in list(by_pred.items()):
                moved = {t: instantiate(theta, c) for c, t in its
                         if not vars_of(c).isdisjoint(theta)}
                if moved:
                    by_pred[pred] = [(moved.get(t, c), t) for c, t in its]
                    new += [(c, t) for t, c in moved.items()]
                    dropped.update(moved)
        kept = [m for m in parent.matches
                if dropped.isdisjoint(m.used_tags)
                and (m.rule.simplified
                     or (m.rule.name, m.used_tags) not in s.history)]
        added = [it for it in zip(body, count(parent.store.next_tag))
                 if isinstance(it[0], Chr)]
    for c, t in added:
        c = instantiate(theta, c) if theta else c
        by_pred[c.pred] = by_pred.get(c.pred, []) + [(c, t)]
        new.append((c, t))
    new_tags = None if parent is None else {t for _, t in new}
    exp = _Expansion(s, p, theta, by_pred, memo, kept)
    _join(exp, new, new_tags)
    return [RewriteStep(m, exp) for m in exp.matches]


def _found(rule: Rule, phi: Subst, heads: tuple[tuple[Chr, int], ...],
           history: frozenset[HistoryKey], memo: _Memo,
           out: list[_Match]) -> None:
    """Record the rule at phi on heads (constraint, tag) in textual order,
    unless it is a pure propagation the history has seen."""
    order = [t for _, t in heads]
    tags = tuple(sorted(order))
    if not rule.simplified and (rule.name, tags) in history:
        return
    values = tuple(map(phi.get, rule.body_vars))
    bodies = memo.bodies[rule.index]
    body = bodies.get(values)
    if body is None:
        body = bodies[values] = _instantiate(rule, phi)
    out.append(_Match(rule, phi, heads, tags, (rule.index, *order), body))


# A bucket of up to this many items is scanned even when the partner has a
# key: matching a few items costs less than indexing them (the oracle
# search over 6 mergesort values, whose buckets hold at most 6 items, ran
# 1-2% slower with every keyed bucket indexed).
_SCAN_MAX = 8


def _join(exp: _Expansion, new: list[tuple[Chr, int]],
          new_tags: Optional[set[int]]) -> None:
    """Add to exp.matches, in order, every match with a head on a new item
    (a tag in new_tags; every item when it is None).  A match is found
    from the first such head in textual order, through that occurrence's
    join plan, with every head before it on an old item, so it is found
    once; when every item is new, only a rule's first head starts a join."""
    p, theta, by_pred = exp.program, exp.theta, exp.by_pred
    history, memo = exp.store.history, exp.memo
    found: list[_Match] = []
    for c, t in new:
        for occ in p.occurrences.get(c.pred, ()):
            rule = occ.rule
            n_prop, partners, keys = (len(rule.propagated), occ.partners,
                                      occ.keys)
            guards, guard_vars = (memo.guards[rule.index],
                                  memo.guard_vars[rule.index])
            guard_at = -1 if guard_vars is None else occ.guard_at
            active = occ.pos + (n_prop if occ.role == "simplified" else 0)
            if active and new_tags is None:
                continue  # no old item can fill an earlier head
            phi0 = match(occ.pattern, c, {})
            if phi0 is None:
                continue
            heads: list = [None] * len(rule.heads)
            heads[active] = (c, t)
            used = {t}

            def join(k: int, phi: Subst):
                if k == guard_at:
                    values = tuple(map(phi.get, guard_vars))
                    ok = guards.get(values)
                    if ok is None:
                        ok = guards[values] = holds(theta, phi, rule.guard)
                    if not ok:
                        return
                if k == len(partners):
                    _found(rule, phi, tuple(heads), history, memo, found)
                    return
                role, pos, pattern = partners[k]
                j = pos + (n_prop if role == "simplified" else 0)
                cands = by_pred.get(pattern.pred, ())
                key = keys[k]
                if key is not None and len(cands) > _SCAN_MAX:
                    arg = pattern.args[key]
                    cands = exp.lookup(pattern.pred, key, arg
                                       if arg.__class__ is Const
                                       else phi[arg.name])
                for c2, t2 in cands:
                    if t2 in used or (j < active and t2 in new_tags):
                        continue
                    phi2 = match(pattern, c2, phi)
                    if phi2 is None:
                        continue
                    heads[j] = (c2, t2)
                    used.add(t2)
                    join(k + 1, phi2)
                    used.discard(t2)

            join(0, phi0)
    # join refers to itself through its closure: break that cycle, so this
    # call's cells (the expansion among them) are freed by reference
    # counting instead of surviving until a garbage collection
    join = None
    if found:
        exp.matches = sorted(exp.matches + found, key=attrgetter("order"))


def _instantiate(rule: Rule, phi: Subst) -> tuple[tuple[Constraint, ...],
                                                  tuple[str, ...]]:
    """The rule's body under phi, normalized, with its rendered forms."""
    body = tuple([instantiate(phi, b) for b in rule.body])
    return body, tuple(render_constraint(c) for c in body)


# ------------------------------------------------------- canonical forms

def _state_key(s: AbstractStore) -> tuple:
    """The sorted rendered items, plus the history with each tag replaced by
    its item's position in that order (ties between equal items broken by
    tag)."""
    if not s.history:
        return (tuple(sorted(s.renders)), ())
    order = sorted(zip(s.renders, (t for _, t in s.items)))
    index = {t: k for k, (_, t) in enumerate(order)}
    hist = sorted(
        (r, tuple(index[t] for t in tags))
        for r, tags in s.history
        if all(t in index for t in tags)  # entries about removed instances are moot
    )
    return (tuple(r for r, _ in order), tuple(hist))


def final_stores(s: AbstractStore, p: Program,
                 max_states: int = 200_000,
                 max_depth: int = 200) -> set[tuple[str, ...]]:
    """All final stores reachable by exhaustive rule application, each as
    its sorted rendered constraints.  Store variables originate in the
    initial goals and are rigid (range restriction means rules never
    introduce fresh ones), so they keep their names: that is a sound
    canonical form of a multiset, and it keeps answers like {m=1,n=8} and
    {m=8,n=1} distinct.  Raises LimitExceeded when the bounds are hit: the
    caller must treat the oracle as unavailable, never as empty.
    """
    seen: set[tuple] = set()
    finals: set[tuple[str, ...]] = set()
    stack: list[tuple[AbstractStore, int]] = [(s, 0)]
    seen.add(_state_key(s))
    while stack:
        cur, depth = stack.pop()
        if depth > max_depth:
            raise LimitExceeded(f"depth bound {max_depth} exceeded")
        steps = rewrite_steps(cur, p)
        if not steps:
            finals.add(tuple(sorted(cur.renders)))
            continue
        for st in steps:
            key = st.key
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > max_states:
                raise LimitExceeded(f"state bound {max_states} exceeded")
            stack.append((st.result, depth + 1))
    return finals


def run_abstract(s: AbstractStore, p: Program, seed: int = 0,
                 max_steps: int = 100_000) -> tuple[AbstractStore, str]:
    """One derivation to a final store, choosing among applicable rewrites
    with a seeded RNG.  Status is 'done' once no rewrite applies, or
    'step-limit' if one still does after max_steps rewrites."""
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    rng = random.Random(seed)
    for _ in range(max_steps):
        if not (steps := rewrite_steps(s, p)):
            return s, "done"
        s = steps[rng.randrange(len(steps))].result
    return s, "step-limit" if rewrite_steps(s, p) else "done"


def unwatched_instances(items: list[tuple[Chr, int]], eqs: Iterable[Eq],
                        history: Iterable[HistoryKey],
                        pending_ids: AbstractSet[int],
                        program: Program) -> list[tuple[str, tuple[int, ...]]]:
    """The abstract rewrites of the visible store, beyond the propagation
    instances already fired, with no head among `pending_ids`, as (rule,
    sorted head ids).  A goal-based state has none: every rule instance
    has a pending goal among its heads, so a finished state is final."""
    s = AbstractStore.from_identified(items, eqs, history)
    return [(step.rule, step.used_tags) for step in rewrite_steps(s, program)
            if pending_ids.isdisjoint(step.used_tags)]
