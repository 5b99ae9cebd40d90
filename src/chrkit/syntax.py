"""Surface syntax for rule programs and goal lists.

Grammar (ASCII), one rule per `.`-terminated clause, `%` starts a line
comment, newlines are insignificant:

    name @ Hp \\ Hs <=> guard | body.     % simpagation
    name @ Hs <=> guard | body.           % simplification
    name @ Hp ==> guard | body.           % propagation

`guard |` may be omitted (defaults to true); a body of `true` is the empty
body.  Constraints are comma-separated; predicates begin uppercase,
variables lowercase, `'quoted'` atoms (no whitespace or `;` inside, so
every term survives the trace format), integer literals, and infix operators
with conventional precedence (|| < && < comparisons < + - < *).  The
precedences, and the rule that comparisons do not chain, are one table in
`terms`, which the printer and this parser both read.

A term in program or goal text may nest at most MAX_TERM_DEPTH (256) deep,
by parentheses or by an operator chain such as `x+1+...+1`; a deeper one is
a ParseError "term nested too deeply" at the parenthesis or operator past
the bound.  Trace text, which a run writes, is read at any depth.

Rule variables keep their names and may share them with goal variables: no
renaming is needed, since one is bound only by matching (range restriction)
and guards and bodies read it through the match, applied once, so it never
reaches the store.  `verify.validate_rewrite` checks that a recorded
match binds exactly the rule's head variables.
"""
from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .record import Frozen, setfield
from .terms import (App, Chr, Const, Constraint, Eq, Term, Var, _LEFT_PREC,
                    _PREC, _PRIMARY, vars_of, INT64_MAX, INT64_MIN)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.reason = msg
        self.line = line
        self.col = col


# ---------------------------------------------------------------- lexer

class Token(Frozen):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        setfield(self, "kind", kind)  # uident | lident | int | atom | sym | eof
        setfield(self, "text", text)
        setfield(self, "line", line)
        setfield(self, "col", col)


_SYMBOLS = ["<=>", "==>", "==", "!=", ">=", "<=", "&&", "||",
            "@", "(", ")", ",", ".", "\\", "|", "=", "<", ">", "+", "-", "*"]


# \w is str.isalnum() or '_', \d is what int() accepts; a word must start
# with a letter or '_', which lex checks
_TOKEN_RE = re.compile(rf"(?P<space>[ \t\r\n]+)|(?P<comment>%[^\n]*)"
                       rf"|(?P<int>\d+)|(?P<atom>'[^']*')|(?P<word>\w+)"
                       rf"|(?P<sym>{'|'.join(map(re.escape, _SYMBOLS))})"
                       rf"|(?P<bad>.)", re.DOTALL)


def lex(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, s, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "space":
            if "\n" in s:
                line += s.count("\n")
                line_start = m.start() + s.rindex("\n") + 1
        elif kind == "word" and (s[0].isalpha() or s[0] == "_"):
            toks.append(Token("uident" if s[0].isupper() else "lident", s,
                              line, col))
        elif kind in ("sym", "int"):
            toks.append(Token(kind, s, line, col))
        elif kind == "atom":
            # trace lines separate fields by spaces and lines by line breaks,
            # and substitution bindings by ';': no atom may contain them
            bad = next((c for c in s[1:-1] if c.isspace() or c == ";"), None)
            if bad is not None:
                raise ParseError(f"atom may not contain {bad!r}", line, col)
            toks.append(Token("atom", s[1:-1], line, col))
        elif s == "'":
            raise ParseError("unterminated atom", line, col)
        elif kind != "comment":
            raise ParseError(f"unexpected character {s[0]!r}", line, col)
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


# ---------------------------------------------------------------- parser

# How deep, in operators or parentheses, a term in program or goal text may
# nest.  The trace reader takes terms of any depth: a run builds deeper ones.
MAX_TERM_DEPTH = 256


class _Parser:
    def __init__(self, toks: list[Token], max_depth: Optional[int] = None):
        self.toks = toks
        self.pos = 0
        self.max_depth = max_depth

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.take()

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == text

    def whole(self, parse, what: str):
        """parse(self), which must consume every token."""
        out = parse(self)
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected {t.text!r} after {what}", t.line, t.col)
        return out

    # terms: Dijkstra's shunting yard over the printer's operator table

    def term(self) -> Term:
        """The longest term here.  An operator waits on a stack until one
        that binds no tighter follows it or its group ends; one that cannot
        take the operand before it, a chained comparison, ends the term."""
        operands: list[Term] = []
        ops: list[Token] = []  # operators and open parentheses
        opened = 0  # the parentheses on ops
        while True:
            tok = self.take()
            while tok.kind == "sym" and tok.text == "(":
                ops.append(tok)
                opened += 1
                self._bound(opened, tok)
                tok = self.take()
            operands.append(self._primary(tok))
            top = _PRIMARY  # the outermost precedence of the last operand
            while True:
                tok = self.toks[self.pos]
                prec = _PREC.get(tok.text, 0) if tok.kind == "sym" else 0
                while ops and ops[-1].text != "(" and _PREC[ops[-1].text] >= (prec or 1):
                    top = self._reduce(ops.pop(), operands)
                if prec and _LEFT_PREC[tok.text] <= top:
                    break
                while ops and ops[-1].text != "(":  # the term or group ends
                    top = self._reduce(ops.pop(), operands)
                if not opened:
                    return operands[0]
                self.expect("sym", ")")
                ops.pop()
                opened, top = opened - 1, _PRIMARY
            ops.append(self.take())

    def _reduce(self, tok: Token, operands: list[Term]) -> int:
        """Apply tok to the last two operands in their place; its precedence."""
        rhs = operands.pop()
        operands[-1] = t = App(tok.text, (operands[-1], rhs))
        self._bound(t.depth, tok)
        return _PREC[tok.text]

    def _bound(self, depth: int, tok: Token) -> None:
        if self.max_depth is not None and depth > self.max_depth:
            raise ParseError("term nested too deeply", tok.line, tok.col)

    def _primary(self, t: Token) -> Term:  # t is taken
        if t.kind == "int" or (t.kind == "sym" and t.text == "-"):
            # a '-' here starts a negative literal, nothing else
            v = int(t.text) if t.kind == "int" else -int(self.expect("int").text)
            if not INT64_MIN <= v <= INT64_MAX:
                raise ParseError("integer literal out of 64-bit range", t.line, t.col)
            return Const(v)
        if t.kind == "atom":
            return Const(t.text)
        if t.kind == "lident":
            if t.text == "true":
                return Const(True)
            if t.text == "false":
                return Const(False)
            return Var(t.text)
        raise ParseError(f"expected a term, found {t.text or t.kind!r}", t.line, t.col)

    # constraints

    def constraint(self) -> Constraint:
        t = self.peek()
        if t.kind == "uident":
            self.take()
            args: list[Term] = []
            if self.at_sym("("):
                self.take()
                if not self.at_sym(")"):
                    args.append(self.term())
                    while self.at_sym(","):
                        self.take()
                        args.append(self.term())
                self.expect("sym", ")")
            return Chr(t.text, tuple(args))
        lhs = self.term()
        self.expect("sym", "=")
        return Eq(lhs, self.term())

    def constraint_list(self) -> list[Constraint]:
        out = [self.constraint()]
        while self.at_sym(","):
            self.take()
            out.append(self.constraint())
        return out

    def has_guard_bar(self) -> bool:
        # a single '|' at paren depth 0 before the closing '.' separates
        # guard from body ('||' is its own token, so no ambiguity)
        depth = 0
        for t in self.toks[self.pos:]:
            if t.kind == "sym":
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                elif t.text == "|" and depth == 0:
                    return True
                elif t.text == ".":
                    return False
        return False


# ---------------------------------------------------------------- rules

class Head(NamedTuple):
    """One rule head: its role, its position within the role, its pattern."""

    role: str  # propagated | simplified
    pos: int
    pattern: Chr


class Rule(Frozen, compared=("name", "propagated", "simplified", "guard",
                            "body", "index")):
    """A rule.  `heads` is all its heads in textual order; `head_vars` is
    the set of their variables, which a match binds; `body_vars` is the
    body's variables, sorted (range restriction: all in heads)."""

    __slots__ = ("name", "propagated", "simplified", "guard", "body", "index",
                 "heads", "head_vars", "body_vars")

    def __init__(self, name: str, propagated: tuple[Chr, ...],
                 simplified: tuple[Chr, ...], guard: Term,
                 body: tuple[Constraint, ...], index: int):
        setfield(self, "name", name)
        setfield(self, "propagated", propagated)  # kept heads (H_P)
        setfield(self, "simplified", simplified)  # removed heads (H_S)
        setfield(self, "guard", guard)
        setfield(self, "body", body)
        setfield(self, "index", index)
        setfield(self, "heads", tuple(
            [Head("propagated", i, h) for i, h in enumerate(propagated)]
            + [Head("simplified", i, h) for i, h in enumerate(simplified)]))
        setfield(self, "head_vars", frozenset().union(
            *(vars_of(h) for h in propagated + simplified)))
        setfield(self, "body_vars", tuple(sorted(
            set().union(*(vars_of(b) for b in body)))))


class Occurrence(Frozen):
    """One head position of `rule`, from the active goal's point of view.

    `partners` is the join order for the remaining heads and `keys[k]` the
    position of partner k's key: its first argument that is a constant or a
    variable bound before it in the plan, or None.  There matching the
    argument is term equality, so the engine's store and the oracle both
    look the partner up by that argument.  A partner with a key is
    scheduled first, ties in textual order.  `guard_at` is the earliest
    point in the plan at which all guard variables are bound.
    """

    __slots__ = ("rule", "role", "pos", "pattern", "partners", "guard_at",
                 "keys")

    def __init__(self, rule: Rule, role: str, pos: int, pattern: Chr,
                 partners: tuple[Head, ...], guard_at: int,
                 keys: tuple[Optional[int], ...]):
        setfield(self, "rule", rule)
        setfield(self, "role", role)
        setfield(self, "pos", pos)
        setfield(self, "pattern", pattern)
        setfield(self, "partners", partners)
        setfield(self, "guard_at", guard_at)
        setfield(self, "keys", keys)


class Program(Frozen, compared=("rules",)):
    """The rules, and built from them the occurrence table: per predicate,
    its head occurrences in rule order (top to bottom), then head position
    (left to right), each with its join plan."""

    __slots__ = ("rules", "occurrences")

    def __init__(self, rules: tuple[Rule, ...]):
        setfield(self, "rules", rules)
        occ: dict[str, list[Occurrence]] = {}
        for r in rules:
            for head in r.heads:
                partners, keys, guard_at = _join_plan(r, head)
                occ.setdefault(head.pattern.pred, []).append(Occurrence(
                    r, head.role, head.pos, head.pattern, partners, guard_at,
                    keys))
        setfield(self, "occurrences", {k: tuple(v) for k, v in occ.items()})

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)


def _rules(p: _Parser) -> tuple[Rule, ...]:
    rules: list[Rule] = []
    names: set[str] = set()
    while p.peek().kind != "eof":
        name_tok = p.expect("lident")
        if name_tok.text in ("true", "false"):
            raise ParseError("rule name expected", name_tok.line, name_tok.col)
        p.expect("sym", "@")
        first = p.constraint_list()
        if p.at_sym("\\"):
            p.take()
            second = p.constraint_list()
            p.expect("sym", "<=>")
            propagated, simplified = first, second
        elif p.at_sym("<=>"):
            p.take()
            propagated, simplified = [], first
        elif p.at_sym("==>"):
            p.take()
            propagated, simplified = first, []
        else:
            t = p.peek()
            raise ParseError("expected '\\', '<=>' or '==>'", t.line, t.col)
        head_cs = propagated + simplified
        for c in head_cs:
            if not isinstance(c, Chr):
                raise ParseError(f"equation not allowed in rule head of {name_tok.text!r}",
                                 name_tok.line, name_tok.col)
        guard: Term = Const(True)
        if p.has_guard_bar():
            guard = p.term()
            p.expect("sym", "|")
        body: list[Constraint] = []
        if p.peek().kind == "lident" and p.peek().text == "true":
            p.take()
        else:
            body = p.constraint_list()
        p.expect("sym", ".")

        if name_tok.text in names:
            raise ParseError(f"duplicate rule name {name_tok.text!r}",
                             name_tok.line, name_tok.col)
        names.add(name_tok.text)
        if not head_cs:
            raise ParseError(f"rule {name_tok.text!r} has an empty head",
                             name_tok.line, name_tok.col)
        rule = Rule(name_tok.text, tuple(propagated), tuple(simplified),
                    guard, tuple(body), len(rules))
        free = (vars_of(guard) | set(rule.body_vars)) - rule.head_vars
        if free:  # range restriction keeps matching one-way
            raise ParseError(
                f"rule {name_tok.text!r}: variable(s) {', '.join(sorted(free))} "
                "not bound by any head", name_tok.line, name_tok.col)
        rules.append(rule)
    return tuple(rules)


def parse_program(text: str) -> Program:
    p = _Parser(lex(text), MAX_TERM_DEPTH)
    return Program(p.whole(_rules, "program"))


# the name the command line and the benchmark load a program by
load_program = parse_program


def parse_goals(text: str) -> tuple[Constraint, ...]:
    p = _Parser(lex(text), MAX_TERM_DEPTH)
    if p.peek().kind == "eof":
        return ()
    return tuple(p.whole(_Parser.constraint_list, "goal list"))


def parse_constraint_text(text: str) -> Constraint:
    """Parse a single constraint (used by the trace reader, which reads a
    constraint or a term at any depth)."""
    p = _Parser(lex(text))
    return p.whole(_Parser.constraint, "constraint")


def parse_term_text(text: str) -> Term:
    p = _Parser(lex(text))
    return p.whole(_Parser.term, "term")


# ------------------------------------------------------ occurrence tables

def _join_plan(rule: Rule, active: Head) -> tuple[tuple[Head, ...],
                                                 tuple[Optional[int], ...],
                                                 int]:
    """The other heads of rule in join order, per head the position of its
    key: its first argument that is a constant or a variable bound by the
    active head or a head before it, or None, and the guard point: how
    many of them, matched in order, bind every guard variable (all of them
    when some guard variable is in no head).  A head with a key comes
    first, ties in textual order."""
    remaining = [h for h in rule.heads if h != active]
    bound, need = vars_of(active.pattern), vars_of(rule.guard)
    order: list[Head] = []
    keys: list[Optional[int]] = []
    guard_at = len(remaining)
    while remaining:
        if need <= bound:
            guard_at = min(guard_at, len(order))
        pick, key = remaining[0], None
        for h in remaining:
            key = next((i for i, a in enumerate(h.pattern.args)
                        if a.__class__ is Const
                        or a.__class__ is Var and a.name in bound), None)
            if key is not None:
                pick = h
                break
        remaining.remove(pick)
        order.append(pick)
        keys.append(key)
        bound |= vars_of(pick.pattern)
    return tuple(order), tuple(keys), guard_at
