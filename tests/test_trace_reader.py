"""The trace reader's flat path against the grammar.

`trace._flat_constraint` reads a goal text, and `trace._flat` a term text,
that is exactly what the printer writes for flat arguments without the
grammar; the reader hands every other text to
`parse_constraint_text`/`parse_term_text`.  Read in that order, a text
must give what the grammar gives: the same term, compared as a tree that
spells out each constant's value class, or the same error.
"""
import random
import re

import pytest

import chrkit.syntax as syntax
import chrkit.trace as trace
from chrkit.syntax import ParseError
from chrkit.terms import (FUNCTION_SYMBOLS, INT64_MAX, INT64_MIN, App, Chr,
                          Const, Var, render_constraint, render_term)
from chrkit.trace import (FIRINGS, KINDS, Step, TraceFormatError,
                          parse_line, parse_trace, serialize_trace,
                          step_to_line)

from test_kernel_differential import (GUARD_VARS, rand_constraint, rand_term,
                                      tree)

EDGE_CASES = [
    "P", "P()", "P(-0)", "P(007)", "P(-007)", "P(00)",
    f"P({INT64_MAX})", f"P({INT64_MIN})", f"P({INT64_MAX + 1})",
    f"P({INT64_MIN - 1})", f"P({INT64_MAX},{INT64_MIN})",
    "P(true,false)", "P(true,1)", "P(false,0)", "P(True)", "P(TRUE)",
    "P(x.0,y.12,_z,_,x_1,x.0a,x.0.1)", "P(x.)", "P(x..0)", "P(x.a)", "P(.0)",
    "P('a,b')", "P('a(b')", "P('a,b',1)", "P(1,'(')", "P(')')",
    "P(x)(y)", "P(x", "P(x,)", "P(,x)", "P(x,,y)", "P(1x)", "P(x-1)",
    "P(-x)", "P(--1)", "P(- 1)", "P(\t1)", "Pé(1)", "P(é)", "P(١)",
    "x.0=5", "x=-0", "-0=007", "true=false", "x=y=z", "x==1", "x=", "=x",
    "X=1", "A=1", "x=P(1)", "true", "x", "1", "", "p(1)", "P 1", "P(1) ",
]
TERM_EDGE_CASES = [
    "-0", "007", str(INT64_MAX), str(INT64_MIN), str(INT64_MAX + 1),
    str(INT64_MIN - 1), "true", "false", "True", "x.0", "x.", "_", "'a,b'",
    "x+1", "-x", "", "1 ", "P", "x.0.1", "١",
]


def outcome(read, text):
    try:
        return ("ok", tree(read(text)))
    except ParseError as exc:
        return ("error", str(exc))


def _flat_term(text, cache):
    return trace._flat(text, cache) if re.fullmatch(trace._FLAT, text) else None


def flat_first(flat, parse, grammar=None):
    """A reader of text as trace.py reads one: flat(text, {}), or
    parse(text) when the flat path reads no term; the texts that reach
    the grammar are appended to grammar."""
    def read(text):
        t = flat(text, {})
        if t is None:
            if grammar is not None:
                grammar.append(text)
            return parse(text)
        return t
    return read


read_constraint = flat_first(trace._flat_constraint,
                             syntax.parse_constraint_text)
read_term = flat_first(_flat_term, syntax.parse_term_text)


def rendered_cases():
    """Texts the printer writes for the kernel generators' constraints and
    terms."""
    rng = random.Random(20241019)
    constraints, terms = [], []
    for _ in range(3000):
        constraints.append(render_constraint(rand_constraint(rng)))
        t = rand_term(rng, rng.randrange(0, 3), GUARD_VARS)
        terms.append(render_term(t))
    for k in range(4):  # zero arity, and only flat arguments
        args = ",".join(rng.choice(["-0", "007", "true", "x", "y", "3"])
                        for _ in range(k))
        constraints.append(f"P({args})" if k else "P")
    return constraints, terms


def test_flat_texts_read_as_the_grammar_reads_them():
    constraints, terms = rendered_cases()
    grammar = {"constraint": [], "term": []}
    read_c = flat_first(trace._flat_constraint, syntax.parse_constraint_text,
                        grammar["constraint"])
    read_t = flat_first(_flat_term, syntax.parse_term_text, grammar["term"])
    for text in constraints + EDGE_CASES:
        assert outcome(read_c, text) == \
            outcome(syntax.parse_constraint_text, text), text
    for text in terms + TERM_EDGE_CASES:
        assert outcome(read_t, text) == \
            outcome(syntax.parse_term_text, text), text
    # both paths are exercised
    n = {kind: len(texts) for kind, texts in grammar.items()}
    flat = len(constraints) + len(EDGE_CASES) - n["constraint"]
    assert 1000 < flat and n["constraint"] > 1000, n
    flat = len(terms) + len(TERM_EDGE_CASES) - n["term"]
    assert 1000 < flat and n["term"] > 200, n


EDIT_CHARS = "P(),-.=#'0123456789xyt_e;>{} \tAé"


def mutations(rng, text):
    """Every prefix of text, and random one-character edits."""
    out = [text[:i] for i in range(len(text))]
    for _ in range(12):
        i = rng.randrange(len(text) + 1)
        ch = rng.choice(EDIT_CHARS)
        out += [text[:i] + ch + text[i:], text[:i] + text[i + 1:],
                text[:i] + ch + text[i + 1:]]
    return out


def line_outcome(line):
    try:
        return ("ok", parse_line(line))
    except TraceFormatError as exc:
        return ("error", str(exc))


def test_damaged_texts_give_the_grammars_errors(monkeypatch):
    """Truncated and edited goal and phi texts: the same term or error from
    the reader, and the same TraceFormatError text from parse_line as when
    every text goes to the grammar."""
    rng = random.Random(7)
    constraints, terms = rendered_cases()
    goals = [t for t in constraints if t.startswith("P(")][:150]
    goals += ["Leq(17,42)", "Merge(1,-5)", "x=5", "Gcd(x)"]
    lines = []
    for text in goals:
        for bad in mutations(rng, text):
            assert outcome(read_constraint, bad) == \
                outcome(syntax.parse_constraint_text, bad), bad
            lines.append(f"3 Activate goal={bad}#4 P={{}} S={{}}")
    for text in terms[:150] + ["42", "x", "true"]:
        for bad in mutations(rng, text):
            assert outcome(read_term, bad) == \
                outcome(syntax.parse_term_text, bad), bad
            lines.append(f"5 Simplify goal=P(1)#4 rule=r phi={{x->{bad}}} "
                         "P={} S={4}")
    got = [line_outcome(line) for line in lines]
    # the flat path patched out: every goal, phi value and key text goes
    # to the grammar
    monkeypatch.setattr(trace, "_flat_constraint", lambda text, cache: None)
    monkeypatch.setattr(trace, "_flat", lambda text, cache: None)
    want = [line_outcome(line) for line in lines]
    assert got == want
    errors = sum(kind == "error" for kind, _ in got)
    assert 1000 < errors < len(got) - 1000, (errors, len(got))


@pytest.mark.parametrize("phi,error", [
    ("{m}->3;n->3}", "(col 2: unexpected character '}')"),
    ("{m->3;m->3}", ""),
    ("{3->3}", ""),
    ("{true->3}", ""),
    ("{(m)->3}", ""),
    ("{m+1->3}", ""),
    ("{x.0->3}", "(col 2: unexpected '.' after term)"),
    ("{->3}", "(col 1: expected a term, found 'eof')"),
    ("{n->3;m->3}", "(keys not in the printer's order)"),
    ("{m->3;n->3}", None),
    ("{é->3}", None),
])
def test_a_phi_key_is_a_variable_read_once(phi, error):
    """A phi key must read as the variable it names, no key may come
    twice, and the keys come sorted, as the printer writes them: other
    texts are a TraceFormatError naming the phi field."""
    line = f"3 Simplify goal=Gcd(3)#1 rule=gcd2 phi={phi} P={{}} S={{1}}"
    if error is None:
        assert step_to_line(parse_line(line)) == line
    else:
        with pytest.raises(TraceFormatError) as exc:
            parse_line(line)
        why = f" {error}" if error else ""
        assert str(exc.value) == f"phi is not a substitution{why}: {phi!r}"


def test_a_trace_reads_each_flat_argument_once():
    # goals, equations and phi values share one term per argument text
    steps = parse_trace(
        "# chr-trace v1\n"
        "1 Activate goal=Leq(17,42)#1 P={} S={}\n"
        "2 Activate goal=Leq(42,99)#2 P={} S={}\n"
        "3 Simplify goal=Leq(42,99)#2 rule=r phi={x->42;y->m} P={} S={2}\n"
        "4 Solve goal=m=42 P={} S={}\n"
        "5 Activate goal=P(1,true,m)#3 P={} S={}\n").steps
    first, second, solve, p = (steps[0].goal, steps[1].goal, steps[3].goal,
                               steps[4].goal)
    assert first.args[1] is second.args[0] is steps[2].phi["x"] is solve.rhs
    assert steps[2].phi["y"] is solve.lhs is p.args[2]
    assert p.args[:2] == (Const(1), Const(True))  # distinct texts


def flat_argument(rng):
    return rng.choice([Var("x"), Var("n_12"), Var("y"), Const(True),
                       Const(False), Const("a"), Const(rng.randrange(-9, 10)),
                       Const(INT64_MIN), Const(INT64_MAX)])


def deep_term(rng, depth):
    """A random term `depth` applications deep: each level applies a random
    operator to the term so far, on a random side, and a flat argument."""
    t = flat_argument(rng)
    for _ in range(depth):
        other = flat_argument(rng)
        t = App(rng.choice(FUNCTION_SYMBOLS),
                (t, other) if rng.random() < 0.5 else (other, t))
    return t


def test_firings_with_deep_terms_read_back_as_written():
    """Whatever term a run builds, its trace line reads back to the same
    step: the reader takes any depth, unlike program and goal text."""
    rng = random.Random(26)
    for seq in range(40):
        goal, x, n = (deep_term(rng, rng.choice([0, 1, 2, rng.randrange(2001)]))
                      for _ in range(3))
        goal = Chr("G", (goal, deep_term(rng, rng.randrange(2001))))
        phi = {"x": x, "n": n}
        step = Step(seq, rng.choice(FIRINGS), goal, rng.randrange(1, 99), "g",
                    phi, (seq,), tuple(sorted(rng.sample(range(99), 2))),
                    rng.choice([None, 0, 1]), rng.choice([None, (seq, seq)]))
        assert parse_line(step_to_line(step)) == step


def test_every_line_the_printer_writes_reads_back():
    """The reader refuses goal and phi texts that are not the printer's
    text of their terms, and id sets out of order; it takes every line the
    printer writes, for the kernel generators' constraints and terms
    (negative and 64-bit edge integers, booleans, quoted atoms, nested
    applications) and for deep terms, and reads it back to the same step.
    The goal text it keeps for a step is the printer's text of the goal."""
    rng = random.Random(30)
    steps = []
    for seq in range(2000):
        kind = rng.choice(KINDS)
        goal = rand_constraint(rng)
        if rng.random() < 0.05:
            goal = Chr("G", (deep_term(rng, rng.randrange(50)),))
        rule, phi = None, {}
        if kind in FIRINGS:
            rule = "r"
            phi = {v: rand_term(rng, rng.randrange(0, 4), GUARD_VARS)
                   for v in rng.sample(GUARD_VARS, rng.randrange(4))}
        ids = sorted(rng.sample(range(40), rng.randrange(5)))
        k = rng.randrange(len(ids) + 1)
        worker, interval = rng.choice([(None, None), (1, (seq - 1, seq))])
        steps.append(Step(seq, kind, goal, rng.choice([None, seq + 1]), rule,
                          phi, tuple(ids[:k]), tuple(ids[k:]), worker,
                          interval))
    for step in steps:
        assert parse_line(step_to_line(step)) == step, step_to_line(step)
    read = parse_trace(serialize_trace(steps, {}, "done", ""))
    assert read.steps == steps
    assert read.goal_texts == [render_constraint(st.goal) for st in steps]
    # the lines have negative integers as arguments and operands, 64-bit
    # edges, booleans, quoted atoms and parenthesized operands
    lines = "\n".join(map(step_to_line, steps))
    for text in (",-1", "*-1", f"({INT64_MIN}", str(INT64_MAX), "true",
                 "false", "'a'", ")*("):
        assert text in lines, text
