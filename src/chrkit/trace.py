"""Derivation traces: the step record and its stable line format.

Both goal engines record a run as a list of `Step`s, and the verifier reads
the same `Step`s back from text.  One line per step, its fields separated
by single spaces in exactly this order (brackets mark optional fields):

    <seq> <kind> goal=<constraint>[#<id>] [rule=<name>] [phi={x->3;y->m}]
        P={<ids>} S={<ids>} [worker=<k>] [interval=<start>,<commit>]

`phi` is written for firings only, `worker` and `interval` for every
concurrent commit.  Numbers are written as `str` writes them, in ASCII
digits; only an interval's start, the last seq the step's scan saw, may be
negative.  `P` and `S` list their ids in ascending order, each once.
Header lines start with `#` and carry the engine configuration; footer
lines carry the run status and the final store dump, so a trace file is
self-contained evidence.

A reader (`_reader`) matches a line with one pattern, `_LINE`, compiled
on first use, that takes only what `step_to_line` writes; a refused line
is a TraceFormatError naming the first field, in that order, that is
missing or does not read (`P is not a set of integers: 'Pr={}'`), or the
text after the last one.  The reader reads each distinct goal, phi and id
set text once, and each term text (flat argument or phi value) once, and
shares the frozen terms between the steps that repeat a text.  A text
that is exactly what the printer writes for flat arguments (integers,
`true`/`false` and variables) is read without the grammar, a goal text
with one pattern match (`_flat_constraint`), a phi value by `_term`;
any other text goes to the grammar and raises what it raises, and must
then be the printer's text of the term it reads as (`Gcd(06)`,
`Gcd((6))` and `m->09` are refused), so a goal text
is the one text of its term and the replay can key on it.  Only a text
the grammar read is rendered back to check this: the flat patterns take
only what the printer writes, so a flat text is its term's text as read.
phi's keys are the rule's variables as the program names them (`syntax`
says why no renaming is needed): each must read as a variable, none may
repeat, and they come in the printer's (sorted) order.
`parse_line` reads one line, with a given reader or a fresh one;
`parse_trace` reads a whole trace with one reader, keeping each step's
goal text and phi text beside the steps.
"""
from __future__ import annotations

import re
from typing import Optional

from .record import Record
from .syntax import ParseError, parse_constraint_text, parse_term_text
from .terms import (INT64_MAX, INT64_MIN, Chr, Const, Constraint, Eq, Subst,
                    Term, Var, render_constraint, render_term)

KINDS = ("Solve", "Activate", "Simplify", "Propagate", "Drop")
FIRINGS = ("Simplify", "Propagate")


class Step(Record):
    """One derivation step.  `goal_id` is set when the goal is a numbered
    constraint; `prop_ids`/`simp_ids` are the side effect H_P \\ H_S, the
    sorted ids the step propagated over and simplified away.  seq is the
    step's position in its trace, which is commit order.  Not `Frozen`, as
    an immutable record pays a call per field to build and both engines
    build one per step; no code assigns to a `Step`'s fields."""

    __slots__ = ("seq", "kind", "goal", "goal_id", "rule", "phi", "prop_ids",
                 "simp_ids", "worker", "interval")

    def __init__(self, seq: int, kind: str, goal: Constraint,
                 goal_id: Optional[int] = None, rule: Optional[str] = None,
                 phi: Optional[Subst] = None, prop_ids: tuple[int, ...] = (),
                 simp_ids: tuple[int, ...] = (), worker: Optional[int] = None,
                 interval: Optional[tuple[int, int]] = None):
        self.seq = seq
        self.kind = kind
        self.goal = goal
        self.goal_id = goal_id
        self.rule = rule
        self.phi = {} if phi is None else phi
        self.prop_ids = prop_ids
        self.simp_ids = simp_ids
        self.worker = worker
        self.interval = interval


def _ids_text(ids) -> str:
    return "{" + ",".join(str(i) for i in ids) + "}"


def _phi_text(phi: Subst) -> str:
    inner = ";".join(f"{k}->{render_term(v)}" for k, v in sorted(phi.items()))
    return "{" + inner + "}"


def step_to_line(step: Step) -> str:
    goal = render_constraint(step.goal)
    if step.goal_id is not None:
        goal += f"#{step.goal_id}"
    parts = [str(step.seq), step.kind, f"goal={goal}"]
    if step.rule is not None:
        parts.append(f"rule={step.rule}")
    if step.kind in FIRINGS:
        parts.append(f"phi={_phi_text(step.phi)}")
    parts.append(f"P={_ids_text(step.prop_ids)}")
    parts.append(f"S={_ids_text(step.simp_ids)}")
    if step.worker is not None:
        parts.append(f"worker={step.worker}")
    if step.interval is not None:
        parts.append(f"interval={step.interval[0]},{step.interval[1]}")
    return " ".join(parts)


class ParsedTrace(Record):
    """A read trace.  `goal_texts[i]` is `steps[i]`'s goal as its line writes
    it, which is the printer's text of that goal, without the `#id`, and
    `phi_texts[i]` its phi as the line writes it, or None for a step with
    no phi field."""

    __slots__ = ("meta", "steps", "goal_texts", "phi_texts", "final_dump",
                 "status")

    def __init__(self):  # as parse_trace fills it in
        self.meta, self.steps, self.goal_texts, self.phi_texts = {}, [], [], []
        self.final_dump = self.status = None


class TraceFormatError(Exception):
    pass


def _excerpt(text: str) -> str:
    """text for an error message: quoted, and cut short if long."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def _field(name: str, what: str, parse, text: str, *args):
    """parse(text, *args), or a TraceFormatError naming the trace field, the
    parser's reason (and column) if it gave one, and the field's text."""
    try:
        return parse(text, *args)
    except (ValueError, ParseError) as exc:
        why = (f" (col {exc.col}: {exc.reason})"
               if isinstance(exc, ParseError) else
               f" ({exc.args[0]})" if exc.args else "")
        raise TraceFormatError(
            f"{name} is not {what}{why}: {_excerpt(text)}") from None


# A flat argument as render_term prints it: an integer as `str` writes it,
# or a name that lex reads as one lowercase word (`true`, `false`, a
# variable).  ASCII only; the grammar reads everything else.  These
# patterns are compiled on first use, through the `re` module's cache, so
# importing chrkit does not pay for them.
_FLAT = r"0|-?[1-9][0-9]*|[a-z_][A-Za-z0-9_]*"
_CHR = rf"([A-Z][A-Za-z0-9_]*)(?:\(((?:{_FLAT})(?:,(?:{_FLAT}))*)\))?"
_EQ = rf"({_FLAT})=({_FLAT})"
_FLAT_GOAL = rf"{_CHR}|{_EQ}"


def _flat(text: str, cache: dict) -> Optional[Term]:
    """The term a flat argument (a text _FLAT matches) stands for, or None
    for an integer out of 64-bit range, which the grammar refuses.  The
    term is kept in cache under the text itself, so every goal and phi
    value of a trace that has the argument shares one term."""
    t = cache.get(text)
    if t is None:
        if text[0] == "-" or text[0].isdigit():
            v = int(text)
            if not INT64_MIN <= v <= INT64_MAX:
                return None
            t = Const(v)
        elif text == "true" or text == "false":
            t = Const(text == "true")
        else:
            t = Var(text)
        cache[text] = t
    return t


def _flat_constraint(text: str, cache: dict) -> Optional[Constraint]:
    """The CHR constraint or equation over flat arguments that text writes,
    read with one `_FLAT_GOAL` match and its arguments through cache as
    `_flat` keeps them, or None for any other text, and for one with an
    integer out of 64-bit range, which the grammar refuses."""
    m = re.fullmatch(_FLAT_GOAL, text)
    if m is None:
        return None
    if m[1] is not None:
        args = tuple([_flat(a, cache) for a in m[2].split(",")]) if m[2] else ()
        return None if None in args else Chr(m[1], args)
    lhs, rhs = _flat(m[3], cache), _flat(m[4], cache)
    return None if lhs is None or rhs is None else Eq(lhs, rhs)


def _check_printed(text: str, x, render) -> None:
    """Refuse text, read as x, unless the printer writes x as text: the
    grammar also reads `06`, `-0` and `(6)`, which the printer never
    writes, so a text that reads back is the one text of its term."""
    printed = render(x)
    if printed != text:
        raise ValueError(f"the printer writes {_excerpt(printed)} "
                         f"for {_excerpt(text)}")


def _goal(text: str, terms: dict) -> Constraint:
    """The constraint text writes, which must be the printer's text of it:
    a flat text is as read, so only one the grammar read is rendered."""
    c = _flat_constraint(text, terms)
    if c is None:
        c = parse_constraint_text(text)
        _check_printed(text, c, render_constraint)
    return c


def _term(text: str, terms: dict) -> Term:
    """The term a phi value's text writes, read once per distinct text
    into terms: a flat argument by `_flat`, any other text by the grammar,
    and then it must be the printer's text of its term."""
    t = terms.get(text)
    if t is None and re.fullmatch(_FLAT, text):
        t = _flat(text, terms)
    if t is None:
        t = parse_term_text(text)
        _check_printed(text, t, render_term)
        terms[text] = t
    return t


def _phi(text: str, terms: dict) -> Subst:
    """The substitution phi's text writes.  Each value is read by `_term`;
    each key must read as the variable it names, once, and sort after the
    key before it, as the printer writes them."""
    phi: Subst = {}
    last = ""
    for binding in text[1:-1].split(";") if text != "{}" else ():
        name, _, value = binding.partition("->")
        term = _term(value, terms)
        key = (terms.get(name) or re.fullmatch(_FLAT, name)
               and _flat(name, terms) or parse_term_text(name))
        if key.__class__ is not Var or key.name != name or name in phi:
            raise ValueError()
        if name < last:
            raise ValueError("keys not in the printer's order")
        phi[name], last = term, name
    return phi


def _ids(text: str) -> tuple[int, ...]:
    """The ids of a nonempty `{...}` set that _IDS matches, which the
    printer writes in ascending order, each once."""
    if "," not in text:
        return (int(text[1:-1]),)
    ids = tuple(map(int, text[1:-1].split(",")))
    if ids != tuple(sorted(set(ids))):
        raise ValueError("not strictly ascending")
    return ids


_NAT = "0|[1-9][0-9]*"  # a number as str() writes it, in ASCII digits
_IDS = rf"(\{{(?:(?:{_NAT})(?:,(?:{_NAT}))*)?\}})"
# (name, separator, what, value pattern, optional) of each field, in the
# order step_to_line writes them; seq and kind go without their names
_FIELDS = (("seq", "", "an integer", f"({_NAT})", False),
           ("kind", " ", "a step kind", f"({'|'.join(KINDS)})", False),
           ("goal", " goal=", "a constraint",  # whose text never ends in "}"
            rf"(?:(\S*[^\s}}])#({_NAT})|(\S*[^\s}}]))", False),
           ("rule", " rule=", "a rule name", r"(\S+)", True),
           ("phi", " phi=", "a substitution", r"(\{\S*\})", True),
           ("P", " P=", "a set of integers", _IDS, False),
           ("S", " S=", "a set of integers", _IDS, False),
           ("worker", " worker=", "an integer", f"({_NAT})", True),
           ("interval", " interval=", "two integers",
            f"(-?[1-9][0-9]*|0),({_NAT})", True))
_LINE = "".join(f"(?:{sep}{value})?" if optional else sep + value
               for _, sep, _, value, optional in _FIELDS)


def _refusal(line: str) -> str:
    """Why _LINE refuses line: the first field, in the printer's order, that
    is missing or does not read, or the text after the last field."""
    parts, k = line.split(" "), 0
    for name, sep, what, value, optional in _FIELDS:
        part = parts[k] if k < len(parts) else ""
        if part.startswith(sep[1:]):
            part = part[len(sep[1:]):]
            if re.fullmatch(value, part):
                k += 1
                continue
        elif optional:
            continue
        return f"{name} is not {what}: {_excerpt(part)}"
    return f"trailing text: {_excerpt(' '.join(parts[k:]))}"


def _reader(goal_texts: list, phi_texts: list):
    """A function that reads one step line, with `_LINE`, to its Step, and
    appends the line's goal text, without its `#id`, to goal_texts and its
    phi text, or None, to phi_texts.  It
    reads each distinct goal, phi and id-set text it meets once, and keeps
    in `terms` every term text read (flat arguments and phi values), so
    the steps that repeat a text share its terms; each Step gets its own
    copy of its phi.  A refused line raises the TraceFormatError
    `_refusal` words, or the one `_field` words for the first field, in
    the printer's order, that does not read."""
    match = re.compile(_LINE).fullmatch  # compiled once, in re's cache
    terms: dict[str, Term] = {}
    goals: dict[str, tuple[str, Constraint]] = {}  # text -> (text, c)
    phis: dict[str, tuple[str, Subst]] = {}  # text -> (text, phi)
    id_sets: dict[str, tuple[int, ...]] = {"{}": ()}
    keep, keep_phi = goal_texts.append, phi_texts.append

    def read(line: str) -> Step:
        m = match(line)
        if m is None:
            raise TraceFormatError(_refusal(line))
        (seq, kind, goal, goal_id, plain, rule, phi, p, s, worker, start,
         commit) = m.groups()
        if goal is None:
            goal = plain
        found = goals.get(goal)
        if found is None:
            found = goals[goal] = (goal, _field("goal", "a constraint",
                                                _goal, goal, terms))
        goal, c = found
        phi_text = phi
        if phi is not None:
            read_phi = phis.get(phi)
            if read_phi is None:
                read_phi = phis[phi] = (phi, _field(
                    "phi", "a substitution", _phi, phi, terms))
            phi_text, phi = read_phi[0], read_phi[1].copy()
        prop = id_sets.get(p)
        if prop is None:
            prop = id_sets[p] = _field("P", "a set of integers", _ids, p)
        simp = id_sets.get(s)
        if simp is None:
            simp = id_sets[s] = _field("S", "a set of integers", _ids, s)
        keep(goal)
        keep_phi(phi_text)
        return Step(int(seq), kind, c, goal_id and int(goal_id), rule, phi,
                    prop, simp, worker and int(worker),
                    None if start is None else (int(start), int(commit)))

    return read


def parse_line(line: str, read=None) -> Step:
    """One step line, read by `read`, a `_reader` whose caches the calls
    share, or by a fresh reader."""
    return (read or _reader([], []))(line)


def serialize_trace(steps, meta: dict[str, str], status: str,
                    final_dump: str) -> str:
    lines = ["# chr-trace v1"]
    if meta:
        lines.append("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    lines.extend(step_to_line(step) for step in steps)
    lines.append(f"# status={status}")
    for dump_line in final_dump.splitlines():
        lines.append(f"# final: {dump_line}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> ParsedTrace:
    """Parse a serialized trace; a malformed step line raises
    TraceFormatError prefixed with its 1-based line number.  One `_reader`
    reads every step line, so each distinct goal, phi, phi value, id set
    and flat argument text is read once per call."""
    out = ParsedTrace()
    read, steps = _reader(out.goal_texts, out.phi_texts), out.steps
    dump_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("final:"):
                dump_lines.append(body[len("final:"):].strip())
            elif body.startswith("status="):
                out.status = body[len("status="):]
            elif body and not body.startswith("chr-trace"):
                for kv in body.split(" "):
                    k, eq, v = kv.partition("=")
                    if eq:
                        out.meta[k] = v
            continue
        try:
            steps.append(parse_line(line, read))
        except TraceFormatError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
    out.final_dump = "\n".join(dump_lines)
    return out
