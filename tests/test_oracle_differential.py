"""The abstract oracle against its brute-force reference (conftest.py).

At every state final_stores expands, rewrite_steps must return the same
rewrites as the reference, in the same order: same rule, substitution,
head instances and successor store.  final_stores must return the same set
of final stores, or hit the same bound.
"""
import random

import pytest

import chrkit.abstract as abstract
from chrkit.abstract import AbstractStore, LimitExceeded, final_stores
from chrkit.syntax import load_program, parse_goals
from chrkit.terms import Eq, render_constraint

from conftest import (CORPUS, equation_fuzz_case, fuzz_case, goals_for, load,
                      reference_final_stores, reference_rewrite_steps,
                      reference_state_key)

# keeps the 200-case fuzz check to a few seconds; cases that reach it are
# still compared state by state, and both searches must stop at the same one
MAX_STATES = 400


def _same_steps(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.rule, g.phi, g.propagated, g.simplified) == \
            (w.rule, w.phi, w.propagated, w.simplified)
        assert g.used_tags == w.used_tags
        assert g.result == w.result  # items, history and next tag
        assert g.result.renders == tuple(
            render_constraint(c) for c, _ in g.result.items)
        assert abstract._state_key(g.result) == reference_state_key(w.result)


def check_search(start: AbstractStore, program, monkeypatch) -> int:
    """Run final_stores with every rewrite_steps call checked against the
    reference, then compare its answer with the reference search.  Returns
    the number of states compared."""
    fast = abstract.rewrite_steps
    states = [0]

    def checked(s, p):
        got = fast(s, p)
        _same_steps(got, reference_rewrite_steps(s, p))
        states[0] += 1
        return got

    assert abstract._state_key(start) == reference_state_key(start)
    with monkeypatch.context() as mp:
        mp.setattr(abstract, "rewrite_steps", checked)
        try:
            got = final_stores(start, program, max_states=MAX_STATES)
        except LimitExceeded as exc:
            got = ("limit", str(exc))
    try:
        want = reference_final_stores(start, program, max_states=MAX_STATES)
    except LimitExceeded as exc:
        want = ("limit", str(exc))
    assert got == want
    return states[0]


def _store(goals: str) -> AbstractStore:
    return AbstractStore.from_constraints(parse_goals(goals))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_programs(name, monkeypatch):
    start = AbstractStore.from_constraints(goals_for(name))
    assert check_search(start, load(name), monkeypatch) > 0


def test_acceptance_fuzz_cases(monkeypatch):
    rng = random.Random(20240817)  # the acceptance batch, in its order
    states = 0
    for _ in range(200):
        text, goals = fuzz_case(rng)
        states += check_search(_store(goals), load_program(text), monkeypatch)
    assert states > 5000


@pytest.mark.parametrize("goals", [
    "Get(m),Put(1),Get(n),Put(8)",
    "Get(a),Get(b),Get(c),Put(1),Put(2),Put(3)",
    "Get(m),Put(k),Get(n),Put(8),Put(k)",
    "Get(m),Put(m),Get(n),Put(n),m=3",
    "Get(m),Get(n),Put(1),m=n",
    "Get(m),Put(1),Put(2),m=2",
])
def test_channel_with_variable_goals(goals, monkeypatch):
    assert check_search(_store(goals), load("channel"), monkeypatch) > 0


def test_equation_fuzz_cases(monkeypatch):
    rng = random.Random(7)
    with_eqs = 0
    for _ in range(150):
        text, goals = equation_fuzz_case(rng)
        program = load_program(text)
        check_search(_store(goals), program, monkeypatch)
        with_eqs += any(isinstance(b, Eq) for r in program.rules for b in r.body)
    assert with_eqs >= 50  # equation bodies are common, not incidental


@pytest.mark.parametrize("text,goals", [
    ("r1 @ P ==> Q.", "P,P,P"),
    ("lt @ A(x), A(y) ==> x<y | L(x,y).", "A(1),A(2),A(3),A(2)"),
    ("down @ A(x) ==> x>0 | A(x-1).\n"
     "dup @ A(x) \\ A(x) <=> true.", "A(2),A(2),A(1)"),
    ("link @ E(x,y), E(y,z) ==> P(x,z).\n"
     "done @ P(x,z) \\ E(x,z) <=> true.", "E(1,2),E(2,3),E(1,3),E(3,1)"),
])
def test_propagation_history(text, goals, monkeypatch):
    """Pure propagation rules, alone and next to simplification, so the
    history (and its entries about removed instances) is part of every
    state key."""
    assert check_search(_store(goals), load_program(text), monkeypatch) > 0
