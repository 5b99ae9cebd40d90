"""Executable correspondence checks over serialized traces.

The verifier re-executes trace text against its own minimal store replica;
it deliberately does not reuse the engines' store, goal pool or matching
machinery, so an engine bug cannot mask itself.  `verify_run` parses a trace
into `trace.Step`s once and replays them once.  That single pass checks, at
every step:

  replay           the i-th step carries seq i, and its preconditions hold
                   at its turn: a numbered step's goal is its entry's form;
                   after the last step, the replayed store dump equals the
                   engine's
  project_abstract the step leaves the projection NoIds(G) + DropIds(Sn)
                   unchanged (Solve/Activate/Drop: the goal multiset checks
                   move one goal between G and Sn) or changes it by one valid
                   abstract rewrite (Simplify/Propagate: `validate_rewrite`
                   on the recorded heads, rule and substitution under the
                   replica's solved equations, then the simplified heads out
                   and the instantiated body in).  The rewrite is validated
                   on its heads alone, so a step costs O(heads + body), not
                   O(store).

and then, over the replayed state and the trace's commit intervals:

  check_final      a finished replay has no pending goal, and its visible
                   store admits no more rewrites
  audit_overlap    each step of a concurrent trace commits at its seq and
                   starts in [-1, seq); time-overlapping commits have
                   non-overlapping side-effects: a sweep over intervals sorted
                   by start that keeps only the still-open ones, costing
                   n log n + (overlapping pairs)

`project_abstract` is the replay's projection verdict: it passes when every
step replays.  The inputs are trace text, goals and program, never engine
state.

The reader parses each distinct goal, phi and id-set text once per trace and
takes a goal text only as the printer writes its term, so the replay uses
the line's own goal text as the goal multiset's key and an entry's raw form,
and renders no goal it reads.  An activation costs a few dict operations:
the variables of each distinct activated text are found once, and a ground
entry, or any entry while the m.g.u. is empty, is its own form, with no
instantiation.  The replica solves each equation once, at its Solve step: it
extends its m.g.u. by that equation alone, rewrites in place only the
bindings that mention a newly bound variable, and wakes the entries its
variable -> ids map lists under one, so a Solve costs what it touches.  An
entry's form under a nonempty m.g.u. is rendered at activation, unless the
entry is ground, and again only when a Solve wakes it; a numbered step whose
goal text is its entry's form needs no render.  A firing renders no head:
each entry's term under the m.g.u. is kept beside its form, and
`validate_rewrite` compares the rule's head patterns with the recorded
heads' terms argument by argument, phi's values normalized under the
m.g.u. once per check.  One table maps each distinct (rule, phi text,
head forms) that checked under the current m.g.u. to its body, rendered
argument by argument without building its terms: a 5,500-step gcd trace
checks about 30 firings.  The replica holds each fact of this state once,
and an entry only while it lives: a kill deletes its id everywhere, with
any queued goal copy; an Activate id must exceed every earlier one; and
the history keeps only instances of rules with no simplified head, the
ones that could fire again.  So its memory follows the live store, not
the run's length.  check-final runs no oracle code: its own
search, `_first_rewrite`, joins each rule's heads over the replica's live
terms and stops at the first instance that applies.  A head whose argument
is a constant or already bound is looked up by it, so a mergesort chain
costs about one `match` per store entry.
"""
from __future__ import annotations

import heapq
from typing import AbstractSet, Iterable, Optional

from .abstract import HistoryKey
from .abstract import rewrite_steps  # noqa: F401  (bench/instrument.py wraps it)
from .record import Frozen, setfield
from .syntax import Program, Rule
from .terms import (App, Chr, Const, Constraint, Eq, Subst, Term, Var,
                    apply_subst, holds, instantiate, match, mgu,
                    render_constraint, render_instance, vars_of)
from .terms import entails  # noqa: F401  (kept for tools that wrap verify.entails)
from .trace import ParsedTrace, Step, _excerpt, parse_trace

# (seq, (start, commit) interval, propagated ids, simplified ids)
AuditRecord = tuple[int, tuple[int, int], tuple[int, ...], tuple[int, ...]]


class Verdict(Frozen):
    __slots__ = ("passed", "check", "detail")

    def __init__(self, passed: bool, check: str, detail: str = ""):
        if not passed and not detail:
            raise ValueError("a failing verdict needs a counterexample detail")
        setfield(self, "passed", passed)
        setfield(self, "check", check)
        setfield(self, "detail", detail)

    def __str__(self):
        mark = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.check}: {mark}{tail}"


def _paired(patterns: tuple[Chr, ...], heads: list[Chr],
            values: Subst) -> bool:
    """Whether heads are the patterns under phi and theta, one head to each
    pattern: values is phi normalized under theta, so a variable argument
    is its value, a constant itself and an application is instantiated.
    Each pattern's instance is fixed, phi binding every head variable, so
    pairing each head with the first unpaired pattern it equals is exact."""
    if len(heads) != len(patterns):
        return False
    left = list(patterns)
    for c in heads:
        for k, h in enumerate(left):
            if h.pred != c.pred or len(h.args) != len(c.args):
                continue
            for p, a in zip(h.args, c.args):
                cls = p.__class__
                want = (values[p.name] if cls is Var else
                        instantiate(values, p) if cls is App else p)
                if want is not a and want != a:
                    break
            else:
                del left[k]
                break
        else:
            return False
    return True


def validate_rewrite(rule: Rule, phi: Subst, theta: Optional[Subst],
                     prop_heads: list[Chr],
                     simp_heads: list[Chr]) -> Optional[str]:
    """Why firing `rule` at instance `phi` on the head constraints whose
    terms under theta are given is not a single rewrite of a store whose
    equations solve to `theta` (None: inconsistent), or None when it is.
    phi must bind exactly the rule's head variables (one left unbound would
    read as the goal variable of its name), each role's heads must be the
    rule's heads under phi and theta, compared as terms, and the guard must
    hold under theta.  Validates a recorded step without searching all
    rewrites."""
    if phi.keys() != rule.head_vars:
        return (f"phi binds {{{','.join(sorted(phi))}}}, not the head variables "
                f"{{{','.join(sorted(rule.head_vars))}}} of rule {rule.name}")
    solved = theta or {}
    values = {x: t if t.__class__ is Const else instantiate(solved, t)
              for x, t in phi.items()}
    for role, patterns, heads in (("propagated", rule.propagated, prop_heads),
                                  ("simplified", rule.simplified, simp_heads)):
        if not _paired(patterns, heads, values):
            return f"{role} heads do not match rule {rule.name}"
    if theta is None or not holds(theta, phi, rule.guard):
        return f"guard of rule {rule.name} not entailed"
    return None


class _Replica:
    """Fresh store + goal multiset driven purely by trace steps.  `goals`
    counts un-numbered goals by rendered constraint and numbered goals by
    id alone, as wake-ups can change the rendered form while a goal copy
    is queued.  `entries` (raw, as activated, like the engine store),
    `keys` (their texts), `terms` (their terms under theta; as activated
    once theta is None) and `forms` (those terms' texts) hold exactly the
    live ids, as do the numbered keys of `goals`.  `last_id` is the highest
    id activated; the engines number entries in ascending order.  `theta`
    is the m.g.u. of the equations, kept from one Solve to the next, and
    `users` maps each variable to the keys of theta whose binding mentions
    it.  `terms` and `forms` are refreshed for the entries a Solve wakes:
    validate_rewrite compares the terms, and `firings` keys on the texts.
    `occ` maps each variable not bound by theta to the ids (dead ones too)
    whose form mentions it.  `history` holds the fired instances of rules
    with no simplified head.
    `firings` maps each firing validate_rewrite accepted under theta, as
    (rule, phi text, number of propagated heads, sorted head forms), to
    its rendered body goals, until theta changes."""

    def __init__(self, goals0: Iterable[Constraint]):
        self.goals: dict = {}  # text or id -> copies
        for g in goals0:
            self.add_goal(render_instance({}, g))
        self.entries: dict[int, Chr] = {}
        self.keys: dict[int, str] = {}  # rendered raw entries
        self.terms: dict[int, Chr] = {}  # the entries under theta
        self.forms: dict[int, str] = {}  # and those terms' texts
        self.last_id = -1  # below every id a trace can write
        self.eqs: list[Eq] = []
        self.theta: Optional[Subst] = {}  # None once the eqs are unsatisfiable
        self.solved: Subst = {}  # the last theta, once it is None
        self.occ: dict[str, set[int]] = {}
        self.users: dict[str, set[str]] = {}  # variable -> keys of theta
        self.history: set[HistoryKey] = set()
        self.firings: dict[tuple, tuple[str, ...]] = {}

    def form_error(self, goal: Constraint, text: str,
                   cid: int) -> Optional[str]:
        """Why goal, written text and recorded for entry cid, is not its
        form, or None.  A concurrent scan records the form it read, which a
        later Solve may have woken, so goal is compared under theta; once
        the equations are unsatisfiable, under the last theta, as the
        engines keep reading."""
        c = self.entries[cid]
        # the reader shares the term of a repeated text, and a text that is
        # the entry's form now is that form's term, which theta leaves as is
        if goal is c or text == self.forms[cid]:
            return None
        theta = self.solved if self.theta is None else self.theta
        form = render_instance(theta, c)
        if render_instance(theta, goal) == form:
            return None
        return f"goal {text}#{cid} is not the form {form} of #{cid}"

    def add_goal(self, key) -> None:
        self.goals[key] = self.goals.get(key, 0) + 1

    def remove_goal(self, key) -> None:
        """Take one copy of key, which goals holds, from the multiset."""
        n = self.goals[key]
        if n == 1:
            del self.goals[key]
        else:
            self.goals[key] = n - 1

    def activate(self, cid: int, c: Chr, key: str) -> None:
        """Add the fresh entry cid, the normalized c, whose text is key."""
        self.entries[cid] = c
        self.keys[cid] = key
        self.last_id = cid
        self.goals[cid] = 1
        self.note_vars(cid)

    def note_vars(self, cid: int) -> None:
        """Record the entry's solved form and the variables it mentions; the
        rendered raw entry is its solved form when theta leaves it as it
        is, as it does a ground entry (which never wakes) and any entry
        while theta is empty."""
        c, key = self.entries[cid], self.keys[cid]
        names = vars_of(c)
        theta = self.theta
        if not names or not theta:
            self.forms[cid], self.terms[cid] = key, c
            if names and theta is not None:
                for v in names:
                    self.occ.setdefault(v, set()).add(cid)
            return
        solved = self.terms[cid] = instantiate(theta, c)
        self.forms[cid] = key if solved is c else render_constraint(solved)
        for v in vars_of(apply_subst(theta, c)):
            self.occ.setdefault(v, set()).add(cid)

    def solve(self, e: Eq) -> list[int]:
        """Add e to the equations and return the woken ids: the live
        entries whose form changes from the old theta to the new one, none
        when the equations become unsatisfiable.  Only e is solved: sigma,
        the m.g.u. of theta(e), is composed onto theta, and an entry's form
        changes exactly when it mentions a variable sigma binds.  The
        compose rewrites only the bindings `users` lists under the
        variables sigma binds, in place (the replica is single-threaded):
        the touched keys keep their places and sigma's come after them."""
        self.eqs.append(e)
        theta = self.theta
        if theta is None:
            return []
        sigma = mgu([Eq(apply_subst(theta, e.lhs),
                        apply_subst(theta, e.rhs))])
        if sigma != {}:  # theta changes: it binds a variable, or fails
            self.firings.clear()
        if sigma is None:
            self.solved, self.theta = theta, None
            for cid in self.entries:  # forms without equations from now on
                self.note_vars(cid)
            return []
        touched: set[str] = set()
        for v in sigma:
            touched.update(self.users.pop(v, ()))
        changed = {x: apply_subst(sigma, theta[x]) for x in touched}
        changed.update(sigma)
        theta.update(changed)
        for x, t in changed.items():
            if not isinstance(t, Const):
                for v in vars_of(t):
                    self.users.setdefault(v, set()).add(x)
        ids: set[int] = set()
        for v in sigma:
            ids.update(self.occ.pop(v, ()))
        woken = sorted(ids & self.terms.keys())  # iterates the smaller
        for cid in woken:
            self.note_vars(cid)
        return woken

    def live_items(self) -> list[tuple[Chr, int]]:
        """The live entries' terms under theta, with their ids, ascending."""
        return [(self.terms[i], i) for i in sorted(self.terms)]

    def pending_goals(self) -> list[str]:
        """Goals that still await execution, un-numbered ones first."""
        out = [key for key, n in self.goals.items() if key.__class__ is str
               for _ in range(n)]
        out.extend(f"{self.keys[i]}#{i}" for i, n in self.goals.items()
                   if i.__class__ is int for _ in range(n))
        return out

    def dump(self) -> str:
        lines = [f"{self.keys[cid]}#{cid}" for cid in sorted(self.keys)]
        lines.extend(sorted(render_constraint(e) for e in self.eqs))
        return "\n".join(lines)


def _replay_step(rep: _Replica, st: Step, key: str, phi_key: Optional[str],
                 program: Program) -> Optional[str]:
    """Apply one step, whose goal the trace writes as key and whose phi as
    phi_key, to the replica, or say why its preconditions do not hold at
    this turn (a firing must be one valid abstract rewrite).  The reader
    takes a goal text only as the printer writes it, so key is the goal's
    rendered text, the goal multiset's key for it."""
    if st.kind == "Activate":
        if st.goal_id is None:
            return "activation without an id"
        if st.goal_id <= rep.last_id:
            return f"id {st.goal_id} is not fresh"
        if not isinstance(st.goal, Chr):
            return "only CHR constraints can be activated"
        if st.prop_ids or st.simp_ids:
            return "activation carries side effects"
        if key not in rep.goals:
            return f"activated goal {key} not in the goal multiset"
        rep.remove_goal(key)
        rep.activate(st.goal_id, st.goal, key)
        return None

    if st.kind == "Solve":
        if not isinstance(st.goal, Eq):
            return "solve goal is not an equation"
        if key not in rep.goals:
            return f"solved equation {key} not in the goal multiset"
        if st.simp_ids:
            return "solve must not simplify"
        woken = rep.solve(st.goal)  # a failed step ends the replay
        if list(st.prop_ids) != woken:
            return (f"wake-up mismatch: recorded {list(st.prop_ids)}, "
                    f"expected {woken}")
        rep.remove_goal(key)
        for cid in woken:
            rep.add_goal(cid)
        return None

    # numbered-goal steps
    if st.goal_id is None:
        return f"{st.kind} goal carries no id"
    cid = st.goal_id
    if cid not in rep.terms:
        return f"goal id {cid} is not alive"
    if cid not in rep.goals:
        return f"goal #{cid} not in the goal multiset"
    if (err := rep.form_error(st.goal, key, cid)) is not None:
        return err

    if st.kind == "Drop":
        if st.prop_ids or st.simp_ids:
            return "drop carries side effects"
        rep.remove_goal(cid)
        return None

    # Simplify / Propagate
    if st.rule is None:
        return "firing without a rule name"
    try:
        rule = program.rule(st.rule)
    except KeyError:
        return f"unknown rule {st.rule!r}"
    own = st.simp_ids if st.kind == "Simplify" else st.prop_ids
    if cid not in own:
        return f"active goal id {cid} missing from its own side-effect set"
    all_ids = set(st.prop_ids) | set(st.simp_ids)
    if len(st.prop_ids) + len(st.simp_ids) != len(all_ids):
        return "propagated and simplified sets overlap"
    if not all_ids <= rep.terms.keys():  # walks all_ids, not the store
        dead = sorted(i for i in all_ids if i not in rep.terms)
        return f"side-effect ids not alive: {dead}"

    # the abstract semantics' own check, on the heads alone, under the
    # replica's current solved equations: once per distinct firing and theta.
    # A firing is keyed by its rule and phi text, not by hashing phi's
    # terms: the reader reads one text to one phi, so equal texts are equal
    # phis, and a phi written two ways only costs a second check.
    prop = sorted([rep.forms[i] for i in st.prop_ids])
    simp = sorted([rep.forms[i] for i in st.simp_ids])
    checked = (rule.name, phi_key, len(prop), *prop, *simp)
    body = rep.firings.get(checked)
    if body is None:
        terms = rep.terms
        err = validate_rewrite(rule, st.phi, rep.theta,
                               [terms[i] for i in st.prop_ids],
                               [terms[i] for i in st.simp_ids])
        if err is not None:
            return err
        body = rep.firings[checked] = tuple([render_instance(st.phi, b)
                                             for b in rule.body])
    if not rule.simplified:  # a simplified id dies, so only these can repeat
        hkey = (rule.name, st.prop_ids)  # which the reader keeps ascending
        if hkey in rep.history:
            return f"propagation instance fired twice: {hkey}"
        rep.history.add(hkey)

    for i in st.simp_ids:  # with any queued copy, which engines drop unrun
        del rep.entries[i], rep.keys[i], rep.terms[i], rep.forms[i]
        rep.goals.pop(i, None)
    for body_goal in body:
        rep.add_goal(body_goal)
    return None


def _run_replay(trace: ParsedTrace, goals0: Iterable[Constraint],
                program: Program) -> tuple[Optional[_Replica], Verdict]:
    """The single pass: replays the steps in the order they were read, the
    i-th of which must carry seq i.  Returns the replay verdict, with the
    replica unless a step did not replay."""
    rep = _Replica(goals0)
    for i, (st, key, phi_key) in enumerate(zip(trace.steps, trace.goal_texts,
                                               trace.phi_texts)):
        err = (_replay_step(rep, st, key, phi_key, program) if st.seq == i
               else f"seq is {st.seq}")
        if err is not None:
            return None, Verdict(False, "replay", f"step {i}: {err}")
    if trace.final_dump is not None and rep.dump() != trace.final_dump:
        return rep, Verdict(False, "replay",
                            f"final store mismatch:\nreplayed:\n{rep.dump()}\n"
                            f"recorded:\n{trace.final_dump}")
    return rep, Verdict(True, "replay")


def project_abstract(trace: ParsedTrace, goals0: Iterable[Constraint],
                     program: Program) -> Verdict:
    """Every step must leave the projection NoIds(G) + DropIds(Sn) unchanged
    (Solve/Activate/Drop) or change it by one valid abstract rewrite
    (Simplify/Propagate).  The replay checks both at each step, so this
    verdict fails exactly where a step does not replay."""
    rep, replayed = _run_replay(trace, goals0, program)
    if rep is None:
        return Verdict(False, "project-abstract", replayed.detail)
    return Verdict(True, "project-abstract")


def _first_rewrite(items: list[tuple[Chr, int]], theta: Optional[Subst],
                   history: AbstractSet[HistoryKey], program: Program
                   ) -> Optional[tuple[str, tuple[int, ...]]]:
    """The first rule instance that applies to a store, as (rule name,
    sorted head ids), or None when the store is final.  items are the
    store's CHR constraints under theta, the m.g.u. of its equations, with
    their ids, in ascending id order; an inconsistent store (theta None)
    admits nothing.  A pure propagation instance in history does not
    apply.  First is in the order the oracle's rewrite_steps lists
    rewrites: rules top to bottom, then head ids in the rule's textual
    head order.  The heads are joined by nested loops in textual order,
    each over candidates in ascending id order, so the first instance
    found is that one, and the search stops there.  A head with a
    constant argument, or a variable an earlier head bound, takes its
    candidates from an index of its predicate's items by that argument,
    built on first use; any other head scans its predicate's items.  The
    guard is tested as soon as the heads before it bind its variables."""
    if theta is None:
        return None
    by_pred: dict[str, list[tuple[Chr, int]]] = {}
    for it in items:
        by_pred.setdefault(it[0].pred, []).append(it)
    index: dict[tuple[str, int], dict[Term, list[tuple[Chr, int]]]] = {}
    used: list[int] = []  # the ids of the heads joined so far

    def search(k: int, phi: Subst) -> Optional[tuple[int, ...]]:
        # rule, patterns, keys and guard_at: the rule the loop below is at
        if k == guard_at and not holds(theta, phi, rule.guard):
            return None
        if k == len(patterns):
            ids = tuple(sorted(used))
            if rule.simplified or (rule.name, ids) not in history:
                return ids
            return None
        pattern, key = patterns[k], keys[k]
        cands = by_pred.get(pattern.pred, ())
        if key is not None:
            by_arg = index.get((pattern.pred, key))
            if by_arg is None:
                by_arg = index[pattern.pred, key] = {}
                for it in cands:
                    if len(it[0].args) > key:
                        by_arg.setdefault(it[0].args[key], []).append(it)
            arg = pattern.args[key]
            cands = by_arg.get(arg if arg.__class__ is Const
                               else phi[arg.name], ())
        for c, i in cands:
            if i in used or (phi2 := match(pattern, c, phi)) is None:
                continue
            used.append(i)
            ids = search(k + 1, phi2)
            if ids is not None:
                return ids
            used.pop()
        return None

    found = None
    for rule in program.rules:
        patterns = [h.pattern for h in rule.heads]
        if any(h.pred not in by_pred for h in patterns):
            continue  # a head no item can fill
        keys: list[Optional[int]] = []
        need, bound, guard_at = vars_of(rule.guard), set(), len(patterns)
        for k, pattern in enumerate(patterns):
            if guard_at == len(patterns) and need <= bound:
                guard_at = k
            keys.append(next((j for j, a in enumerate(pattern.args)
                              if a.__class__ is Const or a.__class__ is Var
                              and a.name in bound), None))
            bound |= vars_of(pattern)
        ids = search(0, {})
        if ids is not None:
            found = rule.name, ids
            break
    search = None  # break the closure's cycle through itself
    return found


def check_final_from_replay(rep: _Replica, program: Program) -> Verdict:
    """No goal may be pending, and the replayed visible store must admit no
    abstract rewrite beyond the propagation instances already fired.  The
    verifier searches the replica's own live terms for the first rule
    instance that still applies (`_first_rewrite`), sharing no search with
    the oracle."""
    pending = rep.pending_goals()
    if pending:
        return Verdict(False, "check-final",
                       f"{len(pending)} goal(s) still pending: {pending[:5]}")
    left = _first_rewrite(rep.live_items(), rep.theta, rep.history, program)
    if left is None:
        return Verdict(True, "check-final")
    return Verdict(False, "check-final", f"rule {left[0]} still applies "
                                         f"to ids {left[1]}")


def decompose_k(records: Iterable[AuditRecord]
                ) -> tuple[list[tuple[int, int]],
                           Optional[tuple[int, int, tuple[int, ...]]]]:
    """Check that all time-overlapping committed steps with side-effects are
    reducible to nested pairwise concurrent compositions: every overlapping
    pair's side-effects must be non-overlapping (one's simplified set is
    disjoint from the other's propagated and simplified sets).

    Intervals (start, commit) overlap when each starts before the other
    commits.  Returns every overlapping pair as (seq, seq), smaller first,
    and the first offending pair found as (seq, seq, shared ids), or None.
    A sweep over the records by start keeps the still-open intervals in a
    heap by commit tick: n log n + (overlapping pairs).
    """
    effectful = sorted((r for r in records if r[2] or r[3]),
                       key=lambda r: (r[1][0], r[0]))
    open_: list = []  # (commit, n, start, seq, propagated, simplified)
    pairs: list[tuple[int, int]] = []
    violation = None
    for n, (seq, (start, end), prop, simp) in enumerate(effectful):
        while open_ and open_[0][0] <= start:
            heapq.heappop(open_)
        p, s = set(prop), set(simp)
        for _, _, start2, seq2, p2, s2 in open_:
            if not start2 < end:
                continue
            pairs.append((min(seq, seq2), max(seq, seq2)))
            clash = (s & (p2 | s2)) | (s2 & (p | s))
            if clash and violation is None:
                violation = (min(seq, seq2), max(seq, seq2),
                             tuple(sorted(clash)))
        heapq.heappush(open_, (end, n, start, seq, p, s))
    return pairs, violation


def audit_overlap_trace(trace: ParsedTrace) -> Verdict:
    """The definition of non-overlapping side-effects, applied to every pair
    of committed steps whose (start, commit) intervals overlap in time.  A
    trace with no interval (a sequential run's) has no such pair; once one
    step has an interval, every step needs one whose commit is its seq and
    whose start, the last seq its scan saw, is in [-1, seq).  decompose_k
    sorts the records it needs."""
    records: list[AuditRecord] = []
    if any(st.interval is not None for st in trace.steps):
        for st in trace.steps:
            if st.interval is None:
                return Verdict(False, "audit-overlap",
                               f"step {st.seq}: no interval")
            start, commit = st.interval
            if commit != st.seq or not -1 <= start < commit:
                return Verdict(False, "audit-overlap",
                               f"step {st.seq}: interval {start},{commit} is "
                               f"not s,{st.seq} with -1 <= s < {st.seq}")
            records.append((st.seq, st.interval, st.prop_ids, st.simp_ids))
    pairs, violation = decompose_k(records)
    if violation is not None:
        a, b, clash = violation
        return Verdict(False, "audit-overlap",
                       f"steps {a} and {b}: shared ids {list(clash)}")
    return Verdict(True, "audit-overlap", f"{len(pairs)} overlapping pair(s)")


def verify_run(trace_text: str, goals0: Iterable[Constraint],
               program: Program, concurrent: bool = False) -> list[Verdict]:
    """The full check battery over one serialized trace: one parse, one
    replay.  Finality is checked when the status is `done`; a missing or
    unknown status (not `failed` or `step-limit`) fails check-final."""
    trace = parse_trace(trace_text)
    rep, replayed = _run_replay(trace, list(goals0), program)
    verdicts = [replayed]
    if replayed.passed:
        verdicts.append(Verdict(True, "project-abstract"))
        if trace.status == "done":
            verdicts.append(check_final_from_replay(rep, program))
        elif trace.status not in ("failed", "step-limit"):
            verdicts.append(Verdict(False, "check-final", "no status footer"
                                    if trace.status is None else
                                    f"unknown status {_excerpt(trace.status)}"))
    if concurrent:
        verdicts.append(audit_overlap_trace(trace))
    return verdicts
