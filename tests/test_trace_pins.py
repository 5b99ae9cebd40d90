"""Pinned goal-engine traces.

Every run below is serialized (steps, status footer and final store dump)
and the texts of one engine setting are hashed together.  The other engine
tests compare the sequential and the one-worker concurrent traces with each
other, so a change that altered both alike would pass them; these digests
catch it.  When a change of the trace text is intended, recompute the
digests and say why in the change that does it.
"""
import hashlib
import random

import pytest

from chrkit.concurrent import EngineConfig, run_concurrent
from chrkit.sequential import run_sequential
from chrkit.syntax import load_program, parse_goals
from chrkit.trace import serialize_trace

from conftest import CORPUS, equation_fuzz_case, fuzz_case, goals_for, load
from test_union_find import union_find_goals

RUNS = {
    "sequential fifo": lambda goals, p: run_sequential(goals, p, policy="fifo"),
    "sequential lifo": lambda goals, p: run_sequential(goals, p, policy="lifo"),
    "1 worker": lambda goals, p: run_concurrent(goals, p,
                                                EngineConfig(workers=1)),
}

DIGESTS = {
    "sequential fifo":
        "6b621e5ad937f4cb3205c20bc6d4194c8c7e071012b021ff2bf27edb8670e1ec",
    "sequential lifo":
        "8c34284b10b405a49d40c6ced8b30a62ddc197edeb7084f5dde3e7bd9c2bd397",
    "1 worker":
        "ddb70cdda34793501a3862474021243813d239c7e3333130c7a517a7d07e65a3",
}


def pinned_cases():
    """The corpus, 200 fuzz cases, 150 equation fuzz cases and two
    union-find inputs whose equations wake goals."""
    out = [(load(name), goals_for(name)) for name in CORPUS]
    rng = random.Random(5)
    for _ in range(200):
        text, goals = fuzz_case(rng)
        out.append((load_program(text), parse_goals(goals)))
    rng = random.Random(20240817)
    for _ in range(150):
        text, goals = equation_fuzz_case(rng)
        out.append((load_program(text), parse_goals(goals)))
    for n in (20, 40):
        out.append((load("union_find"), union_find_goals(n, 1)[1]))
    return out


@pytest.fixture(scope="module")
def cases():
    return pinned_cases()


def trace_digest(mode, cases) -> str:
    h = hashlib.sha256()
    for p, goals in cases:
        res = RUNS[mode](goals, p)
        text = serialize_trace(res.trace, {}, res.status,
                               res.state.store.dump())
        h.update(text.encode())
    return h.hexdigest()


@pytest.mark.parametrize("mode", list(RUNS))
def test_traces_match_their_pinned_digest(mode, cases):
    assert trace_digest(mode, cases) == DIGESTS[mode]
