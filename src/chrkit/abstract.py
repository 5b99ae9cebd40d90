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
keep, so a state key is a sort of cached strings.  rewrite_steps solves the
store's equations once (not at all when there are none), looks up head
candidates by predicate, tests a rule's guard as soon as the heads assigned
so far bind its variables, and instantiates each distinct body instance
once per call.  The search still builds every successor, duplicates
included, before it looks up the successor's key.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .syntax import Program, Rule
from .terms import (Chr, Constraint, Eq, Subst, apply_subst, holds, match,
                    mgu, normalize_constraint, render_constraint)
from .terms import entails  # noqa: F401  (bench/instrument.py counts it here)

HistoryKey = tuple[str, tuple[int, ...]]


class LimitExceeded(Exception):
    """Search bounds hit; the oracle result is unavailable, not empty."""


@dataclass(frozen=True)
class AbstractStore:
    """Items are in normal form (the constructors and rewrites normalize).
    `renders` caches each item's rendered form, in item order: rewrites carry
    it from parent to successor, so an item is rendered once."""

    items: tuple[tuple[Constraint, int], ...]  # (constraint, instance tag)
    history: frozenset[HistoryKey] = frozenset()
    next_tag: int = 0
    renders: Optional[tuple[str, ...]] = field(default=None, compare=False,
                                               repr=False)

    def __post_init__(self):
        if self.renders is None:
            object.__setattr__(self, "renders", tuple(
                render_constraint(c) for c, _ in self.items))

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


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    phi: "Subst"
    propagated: tuple[tuple[Chr, int], ...]
    simplified: tuple[tuple[Chr, int], ...]
    result: AbstractStore

    @property
    def used_tags(self) -> tuple[int, ...]:
        return tuple(sorted(t for _, t in self.propagated + self.simplified))


def _theta_norm(theta: Optional[Subst], c: Constraint) -> Constraint:
    """c under the solved equations, if there are any, normalized."""
    return normalize_constraint(apply_subst(theta, c) if theta else c)


def rewrite_steps(s: AbstractStore, p: Program) -> list[RewriteStep]:
    """Every applicable single rewrite: every rule, every injective assignment
    of distinct store elements to head positions, every matching substitution
    with the guard entailed.  Deterministic enumeration order (rules top to
    bottom, heads in textual order, elements in tag order).  Empty result
    means the store is final.

    The equations are solved once per store, and the guard is tested as soon
    as the heads assigned so far bind all of its variables; that prunes only
    assignments that would fail it anyway, so the order is unchanged.
    """
    eqs = s.eqs()
    theta: Subst = {}
    if eqs:
        theta = mgu(eqs)
        if theta is None:
            return []  # inconsistent store entails nothing; final by convention
    # CHR items per predicate, in store order, in equation-normal form
    by_pred: dict[str, list[tuple[Chr, int]]] = {}
    for c, t in s.items:
        if isinstance(c, Chr):
            if theta:
                c = _theta_norm(theta, c)
            by_pred.setdefault(c.pred, []).append((c, t))
    out: list[RewriteStep] = []

    for rule in p.rules:
        heads = rule.heads
        n, guard_at = len(heads), rule.guard_at
        used: list[tuple[str, Chr, int]] = []
        used_tags: set[int] = set()
        bodies: dict[tuple, tuple] = {}  # body-variable values -> instance

        def assign(k: int, phi: Subst):
            if k == guard_at and not holds(theta, phi, rule.guard):
                return
            if k == n:
                tags = tuple(sorted(used_tags))
                if not rule.simplified and (rule.name, tags) in s.history:
                    return
                values = tuple(phi.get(v) for v in rule.body_vars)
                body = bodies.get(values)
                if body is None:
                    body = bodies[values] = _instantiate(rule, phi)
                out.append(_apply(s, rule, phi, used, tags, body))
                return
            role, _, pattern = heads[k]
            for c, t in by_pred.get(pattern.pred, ()):
                if t in used_tags:
                    continue
                phi2 = match(pattern, c, phi)
                if phi2 is None:
                    continue
                used.append((role, c, t))
                used_tags.add(t)
                assign(k + 1, phi2)
                used.pop()
                used_tags.discard(t)

        assign(0, {})
    return out


def _instantiate(rule: Rule, phi: Subst) -> tuple[tuple[Constraint, ...],
                                                  tuple[str, ...]]:
    """The rule's body under phi, normalized, with its rendered forms."""
    body = tuple(normalize_constraint(apply_subst(phi, b)) for b in rule.body)
    return body, tuple(render_constraint(c) for c in body)


def _apply(s: AbstractStore, rule: Rule, phi: Subst,
           used: list[tuple[str, Chr, int]], tags: tuple[int, ...],
           body: tuple[tuple[Constraint, ...], tuple[str, ...]]) -> RewriteStep:
    simplified = tuple((c, t) for role, c, t in used if role == "simplified")
    simp_tags = {t for _, t in simplified}
    items = [it for it in s.items if it[1] not in simp_tags]
    renders = [r for r, it in zip(s.renders, s.items) if it[1] not in simp_tags]
    tag = s.next_tag
    cs, rs = body
    items += zip(cs, range(tag, tag + len(cs)))
    renders += rs
    tag += len(cs)
    history = s.history
    if not rule.simplified:
        history = history | {(rule.name, tags)}
    return RewriteStep(
        rule=rule.name,
        phi=phi,
        propagated=tuple((c, t) for role, c, t in used if role == "propagated"),
        simplified=simplified,
        result=AbstractStore(tuple(items), history, tag, tuple(renders)),
    )


def is_final(s: AbstractStore, p: Program) -> bool:
    """No more rules apply (inconsistent equations also yield a final store,
    mirroring the engines' failed-state convention)."""
    return not rewrite_steps(s, p)


# ------------------------------------------------------- canonical forms

def canonical_multiset(cs: Iterable[Constraint]) -> tuple[str, ...]:
    """Canonical form of a store as a multiset of constraints.

    Store variables originate in the initial goals and are rigid (range
    restriction means rules never introduce fresh ones), so they keep their
    names: sorting the rendered constraints is a sound canonical form, and it
    keeps answers like {m=1,n=8} and {m=8,n=1} distinct.
    """
    return tuple(sorted(render_constraint(c) for c in cs))


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
    """All final stores reachable by exhaustive rule application, as canonical
    multisets.  Raises LimitExceeded when the bounds are hit: the caller must
    treat the oracle as unavailable, never as empty.
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
            key = _state_key(st.result)
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
    rng = random.Random(seed)
    cur = s
    while steps := rewrite_steps(cur, p):
        if max_steps == 0:
            return cur, "step-limit"
        max_steps -= 1
        cur = steps[rng.randrange(len(steps))].result
    return cur, "done"


def validate_rewrite(rule: Rule, phi: Subst, theta: Optional[Subst],
                     prop_cs: list[Chr], simp_cs: list[Chr]) -> Optional[str]:
    """Why firing `rule` at instance `phi` on the given head constraints is
    not a single rewrite of a store whose equations solve to `theta` (None:
    inconsistent), or None when it is.  Each role's heads must be the rule's
    heads under phi, compared as sorted rendered forms under theta, and the
    guard must hold under theta.  Validates a recorded engine step without
    searching all rewrites.
    """
    def form(c: Constraint) -> str:
        return render_constraint(_theta_norm(theta, c))

    for role, patterns, heads in (("propagated", rule.propagated, prop_cs),
                                  ("simplified", rule.simplified, simp_cs)):
        if (sorted(form(apply_subst(phi, h)) for h in patterns)
                != sorted(map(form, heads))):
            return f"{role} heads do not match rule {rule.name}"
    if theta is None or not holds(theta, phi, rule.guard):
        return f"guard of rule {rule.name} not entailed"
    return None
