"""programs/union_find.chr against a plain Python union-find.

Make and Union goals come in one seeded shuffled order, so many Finds wait
for their Make and many Links for their Finds' equations: the program
exercises wake-ups on both goal engines."""
import random
import re

import pytest

from chrkit.concurrent import EngineConfig, run_concurrent
from chrkit.sequential import run_sequential
from chrkit.store import Store
from chrkit.syntax import parse_goals
from chrkit.trace import serialize_trace
from chrkit.verify import verify_run

from conftest import load


def union_find_goals(n: int, seed: int):
    """n Make goals and n Union goals over 1..n, shuffled; the pairs."""
    rng = random.Random(seed)
    pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(n)]
    goals = [f"Make({i})" for i in range(1, n + 1)]
    goals += [f"Union({a},{b},x{k},y{k})" for k, (a, b) in enumerate(pairs)]
    rng.shuffle(goals)
    return pairs, parse_goals(",".join(goals))


def _root(parent: dict[int, int], a: int) -> int:
    while parent[a] != a:
        a = parent[a]
    return a


def _classes(parent: dict[int, int]) -> set[frozenset[int]]:
    classes: dict[int, set[int]] = {}
    for a in parent:
        classes.setdefault(_root(parent, a), set()).add(a)
    return {frozenset(c) for c in classes.values()}


def reference_partition(n: int, pairs) -> set[frozenset[int]]:
    parent = {a: a for a in range(1, n + 1)}
    for a, b in pairs:
        parent[_root(parent, a)] = _root(parent, b)
    return _classes(parent)


def dump_partition(dump: str) -> set[frozenset[int]]:
    """The classes of the Root/Edge forest in a store dump; every other
    store entry is an error."""
    parent = {}
    for line in dump.splitlines():
        if "#" not in line:
            continue  # an equation
        m = re.fullmatch(r"(Root|Edge)\((\d+)(?:,(\d+))?\)#\d+", line)
        assert m, f"left in the store: {line}"
        parent[int(m[2])] = int(m[3] or m[2])
    return _classes(parent)


@pytest.mark.parametrize("workers", [None, 1, 2, 4],
                         ids=["sequential", "1 worker", "2 workers",
                              "4 workers"])
def test_union_find_partition_and_wake_ups(workers):
    p, n, woken = load("union_find"), 24, 0
    for seed in range(6):
        pairs, goals = union_find_goals(n, seed)
        res = (run_sequential(goals, p) if workers is None else
               run_concurrent(goals, p, EngineConfig(workers=workers,
                                                     seed=seed)))
        assert res.status == "done"
        dump = res.state.store.dump()
        assert dump_partition(dump) == reference_partition(n, pairs), seed
        text = serialize_trace(res.trace, {}, res.status, dump)
        verdicts = verify_run(text, goals, p, concurrent=workers is not None)
        assert all(v.passed for v in verdicts), (seed, verdicts)
        woken += sum(1 for st in res.trace if st.kind == "Solve" and st.prop_ids)
    assert woken > 0


def test_partners_bound_to_unsolved_variables_are_looked_up(monkeypatch):
    """Sequential union-find at n = 400: Root(a) in link and Edge(a,c) in
    linkup1 are looked up by a, bound to an unsolved variable, so
    `Store.candidates` returns at most 2 entries per call on average, not
    the whole bucket (41.8 when only ground arguments were keys)."""
    calls = returned = 0
    candidates = Store.candidates

    def counted(self, *args):
        nonlocal calls, returned
        found = candidates(self, *args)
        calls += 1
        returned += len(found)
        return found

    monkeypatch.setattr(Store, "candidates", counted)
    pairs, goals = union_find_goals(400, 1)
    res = run_sequential(goals, load("union_find"))
    assert res.status == "done"
    assert dump_partition(res.state.store.dump()) == reference_partition(400, pairs)
    assert returned / calls <= 2, (returned, calls)
