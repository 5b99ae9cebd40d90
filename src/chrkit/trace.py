"""Derivation traces: typed steps, commit records and the stable line format.

One line per step:

    <seq> <kind> goal=<constraint[#id]> [rule=<name>] [phi={x.0->3;y.0->m}]
        P={ids} S={ids} [worker=<k>] [interval=<start,commit>]

Header lines start with `#` and carry the engine configuration; footer lines
carry the run status and the final store dump so a trace file is
self-contained evidence.  The verifier consumes this text format, never
in-memory engine state.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .store import NumberedConstraint
from .syntax import ParseError, parse_constraint_text, parse_term_text
from .terms import Constraint, Subst, render_constraint, render_term

KINDS = ("Solve", "Activate", "Simplify", "Propagate", "Drop")


@dataclass(frozen=True)
class SideEffect:
    """delta = H_P \\ H_S: the numbered constraints one step propagated over
    and simplified away.  The two sets never intersect."""

    propagated: tuple[NumberedConstraint, ...] = ()
    simplified: tuple[NumberedConstraint, ...] = ()

    @property
    def prop_ids(self) -> tuple[int, ...]:
        return tuple(sorted(nc.id for nc in self.propagated))

    @property
    def simp_ids(self) -> tuple[int, ...]:
        return tuple(sorted(nc.id for nc in self.simplified))

    def __post_init__(self):
        if set(self.prop_ids) & set(self.simp_ids):
            raise ValueError("propagated and simplified sets overlap")


@dataclass(frozen=True)
class TraceStep:
    seq: int
    kind: str
    goal: Union[Constraint, NumberedConstraint]
    delta: SideEffect = SideEffect()
    rule: Optional[str] = None
    phi: Optional[Subst] = None


@dataclass(frozen=True)
class CommitRecord:
    """A step committed by a worker, with its (start tick, commit tick)
    interval for overlap analysis.  seq numbers are a total order consistent
    with real-time commit order."""

    step: TraceStep
    worker: int
    interval: tuple[int, int]

    @property
    def seq(self) -> int:
        return self.step.seq


def _goal_text(goal) -> str:
    if isinstance(goal, NumberedConstraint):
        return goal.render()
    return render_constraint(goal)


def _ids_text(ids) -> str:
    return "{" + ",".join(str(i) for i in ids) + "}"


def _phi_text(phi: Subst) -> str:
    inner = ";".join(f"{k}->{render_term(v)}" for k, v in sorted(phi.items()))
    return "{" + inner + "}"


def step_to_line(step: TraceStep, worker: Optional[int] = None,
                 interval: Optional[tuple[int, int]] = None) -> str:
    parts = [str(step.seq), step.kind, f"goal={_goal_text(step.goal)}"]
    if step.rule is not None:
        parts.append(f"rule={step.rule}")
    if step.phi is not None:
        parts.append(f"phi={_phi_text(step.phi)}")
    parts.append(f"P={_ids_text(step.delta.prop_ids)}")
    parts.append(f"S={_ids_text(step.delta.simp_ids)}")
    if worker is not None:
        parts.append(f"worker={worker}")
    if interval is not None:
        parts.append(f"interval={interval[0]},{interval[1]}")
    return " ".join(parts)


@dataclass(frozen=True)
class ParsedStep:
    seq: int
    kind: str
    goal: Constraint
    goal_id: Optional[int]  # set when the goal was a numbered constraint
    rule: Optional[str]
    phi: Subst
    prop_ids: tuple[int, ...]
    simp_ids: tuple[int, ...]
    worker: Optional[int]
    interval: Optional[tuple[int, int]]


@dataclass
class ParsedTrace:
    meta: dict[str, str] = field(default_factory=dict)
    steps: list[ParsedStep] = field(default_factory=list)
    final_dump: Optional[str] = None
    status: Optional[str] = None


class TraceFormatError(Exception):
    pass


def _field(name: str, what: str, parse, text: str):
    """parse(text), or a TraceFormatError naming the trace field."""
    try:
        return parse(text)
    except (ValueError, ParseError):
        raise TraceFormatError(f"{name} is not {what}: {text!r}") from None


def _int(name: str, text: str) -> int:
    return _field(name, "an integer", int, text)


def _ids(text: str) -> tuple[int, ...]:
    inner = text.strip("{}")
    return tuple(int(x) for x in inner.split(",")) if inner else ()


def _phi(text: str) -> Subst:
    inner = text.strip("{}")
    phi: Subst = {}
    if not inner:
        return phi
    for binding in inner.split(";"):
        name, _, value = binding.partition("->")
        phi[name] = parse_term_text(value)
    return phi


def _goal(text: str) -> tuple[Constraint, Optional[int]]:
    base, hash_, idtext = text.rpartition("#")
    if hash_ and idtext.isdigit():
        return parse_constraint_text(base), int(idtext)
    return parse_constraint_text(text), None


def parse_line(line: str) -> ParsedStep:
    parts = line.split(" ")
    if len(parts) < 3:
        raise TraceFormatError(f"malformed trace line: {line!r}")
    seq = _int("seq", parts[0])
    kind = parts[1]
    if kind not in KINDS:
        raise TraceFormatError(f"unknown step kind {kind!r}")
    fields: dict[str, str] = {}
    for p in parts[2:]:
        key, eq, value = p.partition("=")
        if not eq:
            raise TraceFormatError(f"malformed field {p!r}")
        fields[key] = value
    if "goal" not in fields:
        raise TraceFormatError("missing goal field")
    goal, goal_id = _field("goal", "a constraint", _goal, fields["goal"])
    interval = None
    if "interval" in fields:
        a, _, b = fields["interval"].partition(",")
        interval = (_int("interval", a), _int("interval", b))
    return ParsedStep(
        seq=seq,
        kind=kind,
        goal=goal,
        goal_id=goal_id,
        rule=fields.get("rule"),
        phi=(_field("phi", "a substitution", _phi, fields["phi"])
             if "phi" in fields else {}),
        prop_ids=_field("P", "a set of integers", _ids, fields.get("P", "{}")),
        simp_ids=_field("S", "a set of integers", _ids, fields.get("S", "{}")),
        worker=_int("worker", fields["worker"]) if "worker" in fields else None,
        interval=interval,
    )


def serialize_trace(steps, meta: dict[str, str], status: str,
                    final_dump: str) -> str:
    """Steps may be TraceStep or CommitRecord items."""
    lines = ["# chr-trace v1"]
    if meta:
        lines.append("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for item in steps:
        if isinstance(item, CommitRecord):
            lines.append(step_to_line(item.step, item.worker, item.interval))
        else:
            lines.append(step_to_line(item))
    lines.append(f"# status={status}")
    for dump_line in final_dump.splitlines():
        lines.append(f"# final: {dump_line}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> ParsedTrace:
    """Parse a serialized trace; a malformed step line raises
    TraceFormatError prefixed with its 1-based line number."""
    out = ParsedTrace()
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
            out.steps.append(parse_line(line))
        except TraceFormatError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
    out.final_dump = "\n".join(dump_lines)
    return out
