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
with conventional precedence (|| < && < comparisons < + - < *).

Rule variables are renamed apart on load (an internal `.N` suffix per rule),
so no two rules in a loaded program share a variable name and rule variables
can never collide with goal variables, which cannot contain dots.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .terms import (App, Chr, Const, Constraint, Eq, Term, Var,
                    render_constraint, render_term, vars_of, INT64_MAX)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------- lexer

@dataclass(frozen=True)
class Token:
    kind: str  # uident | lident | int | atom | sym | eof
    text: str
    line: int
    col: int


_SYMBOLS = ["<=>", "==>", "==", "!=", ">=", "<=", "&&", "||",
            "@", "(", ")", ",", ".", "\\", "|", "=", "<", ">", "+", "-", "*"]


def lex(text: str, allow_dotted: bool = False) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        l0, c0 = line, col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], l0, c0))
            advance(j - i)
            continue
        if ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 1
            if j >= n:
                raise ParseError("unterminated atom", l0, c0)
            atom = text[i + 1:j]
            # trace lines separate fields by spaces and lines by line breaks,
            # and substitution bindings by ';': no atom may contain them
            bad = next((c for c in atom if c.isspace() or c == ";"), None)
            if bad is not None:
                raise ParseError(f"atom may not contain {bad!r}", l0, c0)
            toks.append(Token("atom", atom, l0, c0))
            advance(j - i + 1)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"
                             or (allow_dotted and text[j] == "." and j + 1 < n and text[j + 1].isdigit())):
                j += 1
            word = text[i:j]
            kind = "uident" if word[0].isupper() else "lident"
            toks.append(Token(kind, word, l0, c0))
            advance(j - i)
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, l0, c0))
                advance(len(sym))
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", l0, c0)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------- parser

class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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

    # terms, precedence climbing

    def term(self) -> Term:
        return self._or()

    def _or(self) -> Term:
        t = self._and()
        while self.at_sym("||"):
            self.take()
            t = App("||", (t, self._and()))
        return t

    def _and(self) -> Term:
        t = self._cmp()
        while self.at_sym("&&"):
            self.take()
            t = App("&&", (t, self._cmp()))
        return t

    def _cmp(self) -> Term:
        t = self._add()
        tk = self.peek()
        if tk.kind == "sym" and tk.text in (">", ">=", "<", "<=", "==", "!="):
            self.take()
            return App(tk.text, (t, self._add()))
        return t

    def _add(self) -> Term:
        t = self._mul()
        while self.peek().kind == "sym" and self.peek().text in ("+", "-"):
            op = self.take().text
            t = App(op, (t, self._mul()))
        return t

    def _mul(self) -> Term:
        t = self._primary()
        while self.at_sym("*"):
            self.take()
            t = App("*", (t, self._primary()))
        return t

    def _primary(self) -> Term:
        t = self.peek()
        if t.kind == "int":
            self.take()
            v = int(t.text)
            if v > INT64_MAX:
                raise ParseError("integer literal out of 64-bit range", t.line, t.col)
            return Const(v)
        if t.kind == "sym" and t.text == "-":  # negative literal only
            self.take()
            lit = self.expect("int")
            return Const(-int(lit.text))
        if t.kind == "atom":
            self.take()
            return Const(t.text)
        if t.kind == "lident":
            self.take()
            if t.text == "true":
                return Const(True)
            if t.text == "false":
                return Const(False)
            return Var(t.text)
        if t.kind == "sym" and t.text == "(":
            self.take()
            inner = self.term()
            self.expect("sym", ")")
            return inner
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
        k = self.pos
        while k < len(self.toks):
            t = self.toks[k]
            if t.kind == "sym":
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                elif t.text == "|" and depth == 0:
                    return True
                elif t.text == ".":
                    return False
            if t.kind == "eof":
                return False
            k += 1
        return False


# ---------------------------------------------------------------- rules

@dataclass(frozen=True)
class Rule:
    name: str
    propagated: tuple[Chr, ...]   # kept heads (H_P)
    simplified: tuple[Chr, ...]   # removed heads (H_S)
    guard: Term
    body: tuple[Constraint, ...]
    index: int = 0

    @cached_property
    def heads(self) -> tuple[tuple[str, int, Chr], ...]:
        """All heads in textual order as (role, position-within-role, pattern)."""
        out = [("propagated", i, h) for i, h in enumerate(self.propagated)]
        out += [("simplified", i, h) for i, h in enumerate(self.simplified)]
        return tuple(out)

    @cached_property
    def guard_at(self) -> int:
        """How many heads, in textual order, bind every guard variable (the
        number of heads when some guard variable is in no head)."""
        need = vars_of(self.guard)
        bound: set[str] = set()
        for k, (_, _, h) in enumerate(self.heads):
            if need <= bound:
                return k
            bound |= vars_of(h)
        return len(self.heads)

    @cached_property
    def body_vars(self) -> tuple[str, ...]:
        """The body's variables, sorted (range restriction: all in heads)."""
        return tuple(sorted(set().union(*(vars_of(b) for b in self.body))))


@dataclass(frozen=True)
class PlanEntry:
    role: str
    pos: int
    pattern: Chr


@dataclass(frozen=True)
class Occurrence:
    """One head position of one rule, from the active goal's point of view.

    `partners` is the join order for the remaining heads: heads that have an
    argument computable from already-bound variables (an index key) are
    scheduled first, ties in textual order.  `guard_at` is the earliest point
    in the plan at which all guard variables are bound.
    """

    rule_index: int
    role: str
    pos: int
    pattern: Chr
    partners: tuple[PlanEntry, ...]
    guard_at: int


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]
    occurrences: dict[str, tuple[Occurrence, ...]] = field(default_factory=dict)

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)


def _rename_rule(rule: Rule, idx: int) -> Rule:
    mapping = {v: Var(f"{v}.{idx}") for c in rule.propagated + rule.simplified
               for v in vars_of(c)}

    def sub(x):
        from .terms import apply_subst
        return apply_subst(mapping, x)

    return Rule(
        name=rule.name,
        propagated=tuple(sub(c) for c in rule.propagated),
        simplified=tuple(sub(c) for c in rule.simplified),
        guard=sub(rule.guard),
        body=tuple(sub(b) for b in rule.body),
        index=idx,
    )


def parse_program(text: str) -> Program:
    p = _Parser(lex(text))
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
        for role in (propagated, simplified):
            for c in role:
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
        head_cs = propagated + simplified
        if not head_cs:
            raise ParseError(f"rule {name_tok.text!r} has an empty head",
                             name_tok.line, name_tok.col)
        head_vars: set[str] = set()
        for c in head_cs:
            head_vars |= vars_of(c)
        free = vars_of(guard) - head_vars
        for b in body:
            free |= vars_of(b) - head_vars
        if free:  # range restriction keeps matching one-way
            raise ParseError(
                f"rule {name_tok.text!r}: variable(s) {', '.join(sorted(free))} "
                "not bound by any head", name_tok.line, name_tok.col)
        rule = Rule(name_tok.text, tuple(propagated), tuple(simplified),
                    guard, tuple(body))
        rules.append(_rename_rule(rule, len(rules)))
    return Program(tuple(rules))


def parse_goals(text: str) -> tuple[Constraint, ...]:
    p = _Parser(lex(text))
    if p.peek().kind == "eof":
        return ()
    out = p.constraint_list()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected {t.text!r} after goal list", t.line, t.col)
    return tuple(out)


def parse_constraint_text(text: str, allow_dotted: bool = True) -> Constraint:
    """Parse a single constraint (used by the trace reader)."""
    p = _Parser(lex(text, allow_dotted=allow_dotted))
    c = p.constraint()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected {t.text!r} after constraint", t.line, t.col)
    return c


def parse_term_text(text: str, allow_dotted: bool = True) -> Term:
    p = _Parser(lex(text, allow_dotted=allow_dotted))
    t = p.term()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected {tok.text!r} after term", tok.line, tok.col)
    return t


# ------------------------------------------------------ occurrence tables

def _indexable(pattern: Chr, bound: set[str]) -> bool:
    # some argument becomes ground once the already-scheduled heads are bound
    return any(vars_of(a) <= bound for a in pattern.args)


def _plan(rule: Rule, role: str, pos: int) -> tuple[tuple[PlanEntry, ...], int]:
    active = (rule.propagated if role == "propagated" else rule.simplified)[pos]
    remaining = [PlanEntry(r, i, h) for (r, i, h) in rule.heads
                 if not (r == role and i == pos)]
    bound = set(vars_of(active))
    ordered: list[PlanEntry] = []
    while remaining:
        pick = next((e for e in remaining if _indexable(e.pattern, bound)),
                    remaining[0])
        remaining.remove(pick)
        ordered.append(pick)
        bound |= vars_of(pick.pattern)
    guard_vars = vars_of(rule.guard)
    bound = set(vars_of(active))
    guard_at = 0
    for k, e in enumerate(ordered):
        if guard_vars <= bound:
            break
        bound |= vars_of(e.pattern)
        guard_at = k + 1
    return tuple(ordered), guard_at


def compile_occurrences(p: Program) -> Program:
    """Populate the per-predicate occurrence table: rule order first
    (top-to-bottom), then head position left-to-right, with join plans."""
    occ: dict[str, list[Occurrence]] = {}
    for r in p.rules:
        for role, pos, pattern in r.heads:
            partners, guard_at = _plan(r, role, pos)
            occ.setdefault(pattern.pred, []).append(
                Occurrence(r.index, role, pos, pattern, partners, guard_at))
    return Program(p.rules, {k: tuple(v) for k, v in occ.items()})


def load_program(text: str) -> Program:
    return compile_occurrences(parse_program(text))


# ---------------------------------------------------------- pretty print

def _strip(name: str) -> str:
    return name.rsplit(".", 1)[0] if "." in name else name


def pretty_rule(r: Rule) -> str:
    def cs(items):
        return ", ".join(render_constraint(c, rename=_strip) for c in items)

    if r.propagated and r.simplified:
        head = f"{cs(r.propagated)} \\ {cs(r.simplified)} <=>"
    elif r.simplified:
        head = f"{cs(r.simplified)} <=>"
    else:
        head = f"{cs(r.propagated)} ==>"
    guard = ""
    if r.guard != Const(True):
        guard = f" {render_term(r.guard, rename=_strip)} |"
    body = cs(r.body) if r.body else "true"
    return f"{r.name} @ {head}{guard} {body}."


def pretty_program(p: Program) -> str:
    return "\n".join(pretty_rule(r) for r in p.rules) + "\n"
